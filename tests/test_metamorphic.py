"""Metamorphic properties (Chen et al., "Metamorphic Testing", ACM CSUR
2018): the faces of one theorem give one verdict on a problem, and that
verdict does not move when H or H0 gets a unitary change of basis, when
f, k or the weights are rescaled, or when an atom is split into two
half-weight copies.

A verdict is whether f reproduces k, as each face decides it: the frame
check, the atom coefficient map, the three Douglas faces, the canonical
dual and the eigenvalue sandwich.  A face that raises gives the name of
its error.  Problems come from the existing generator kinds."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ckframe import CkFrameError, SampleField, make_measure_space
from ckframe.atoms_duals import (
    atom_coefficient_map,
    canonical_dual,
    sandwich_check,
    verify_atomic_decomposition,
    verify_dual_pair,
)
from ckframe.douglas import douglas_factor, minimal_multiplier, range_included
from ckframe.frame_ops import ckframe_check, map_field, whitened_synthesis_matrix
from ckframe.harness import GENERATOR_KINDS, generate_example
from ckframe.linalg import DEFAULT_CHECK_TOL
from helpers import random_unitary

TOL = DEFAULT_CHECK_TOL


def _outcome(call):
    try:
        return call()
    except CkFrameError as exc:
        return type(exc).__name__


def verdicts(f, k) -> dict:
    """Each face's answer to whether f reproduces k."""
    b = whitened_synthesis_matrix(f)
    return {
        "bounds": _outcome(lambda: ckframe_check(f, k).is_ck_frame),
        "atoms": _outcome(
            lambda: verify_atomic_decomposition(f, k, atom_coefficient_map(f, k)) <= TOL
        ),
        "range_included": _outcome(lambda: range_included(k, b)),
        "douglas_factor": _outcome(lambda: douglas_factor(k, b).included),
        "minimal_multiplier": _outcome(lambda: minimal_multiplier(k, b) is not None),
        "dual": _outcome(lambda: canonical_dual(f, k).pair.holds),
        "sandwich": _outcome(lambda: sandwich_check(f, k) >= -TOL),
    }


def one_verdict(f, k) -> dict:
    """verdicts(f, k), after checking that the faces agree."""
    out = verdicts(f, k)
    assert len({v is True for v in out.values()}) == 1, out
    return out


@st.composite
def problems(draw):
    """(f, k) of a generator kind at small sizes and a drawn seed."""
    kind = draw(st.sampled_from(GENERATOR_KINDS))
    sizes = st.integers(1, 5)
    if kind == "scaled_onb":
        scale = st.sampled_from([1.0, -2.0, 0.5, 1e-2, 1e-4])
        params = {"scales": draw(st.lists(scale, min_size=1, max_size=4))}
    elif kind in ("random_ckframe", "random_bessel_pair"):
        # with fewer atoms than n, a random k escapes the synthesis range
        n = draw(st.integers(2, 5))
        atoms = draw(st.sampled_from([n - 1, n, 2 * n]))
        # n0 = n and n0 > n: with n atoms or more, k is onto H, and the
        # faces read range(k) = H off B's own factors
        n0 = draw(st.one_of(sizes, st.just(n), st.integers(n + 1, n + 3)))
        params = {"n": n, "n0": n0, "atoms": atoms}
    elif kind == "interval_fourier":
        n = draw(sizes)
        params = {"n": n, "atoms": draw(st.integers(n, 3 * n))}
    else:
        params = {"n": draw(sizes)}
    spec = generate_example(kind, params, seed=draw(st.integers(0, 2**16)))
    return spec.field_f, spec.operator_k


unitary_seeds = st.integers(0, 2**16)
magnitudes = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
phases = st.floats(0.0, 2 * np.pi).map(lambda t: np.exp(1j * t))


def in_basis_h(f, k, u):
    """f -> u f pointwise and k -> u k, for u unitary on H."""
    return map_field(u, f), u @ k


@given(problems(), unitary_seeds)
def test_a_change_of_basis_in_h_keeps_the_verdict(problem, seed):
    f, k = problem
    u = random_unitary(np.random.default_rng(seed), f.dim)
    assert one_verdict(*in_basis_h(f, k, u)) == one_verdict(f, k)


@given(problems(), unitary_seeds)
def test_a_change_of_basis_in_h0_keeps_the_verdict(problem, seed):
    f, k = problem
    v = random_unitary(np.random.default_rng(seed), k.shape[1])
    assert one_verdict(f, k @ v) == one_verdict(f, k)


@pytest.mark.parametrize("seed", range(5))
def test_a_change_of_basis_keeps_the_dual_of_an_ill_conditioned_frame(seed):
    # kappa(B) = 1e4: a dual built through a Gram inverse loses 1e8 * eps
    # once the bases are no longer the ones f is diagonal in
    spec = generate_example("scaled_onb", {"scales": [1.0, 1e-4]})
    rng = np.random.default_rng(seed)
    u, v = random_unitary(rng, 2), random_unitary(rng, 2)
    f, k = in_basis_h(spec.field_f, spec.operator_k @ v, u)
    assert one_verdict(f, k) == one_verdict(spec.field_f, spec.operator_k)


@given(problems(), magnitudes, phases, magnitudes, phases, magnitudes)
def test_rescaling_f_k_and_the_weights_keeps_the_verdict(problem, cf, pf, ck, pk, cw):
    f, k = problem
    space = make_measure_space(f.space.labels, cw * f.space.weight_array)
    scaled = SampleField(space, cf * pf * f.samples)
    assert one_verdict(scaled, ck * pk * k) == one_verdict(f, k)


@given(problems(), st.integers(0, 2**16))
def test_splitting_an_atom_into_half_weight_copies_keeps_the_verdict(problem, which):
    f, k = problem
    i = which % f.space.n_atoms
    w = f.space.weight_array
    weights = np.concatenate([w[:i], [w[i] / 2, w[i] / 2], w[i + 1 :]])
    space = make_measure_space([f"x{j}" for j in range(weights.size)], weights)
    split = SampleField(space, np.insert(f.samples, i, f.samples[i], axis=0))
    assert one_verdict(split, k) == one_verdict(f, k)


@given(problems())
def test_the_conjugated_coefficient_map_is_a_dual_field_of_f(problem):
    # k h = T_f(m h) = sum_x w_x f_x (m h)_x for every h, so k is
    # sum_x w_x f_x g_x* with g_x the conjugated row x of m
    f, k = problem
    assume(ckframe_check(f, k).is_ck_frame)
    m = atom_coefficient_map(f, k)
    assert verify_dual_pair(f, SampleField(f.space, m.matrix.conj()), k).holds
