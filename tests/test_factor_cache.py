"""The left SVD factor of a field's whitened synthesis matrix B, kept per
field: a second question about the same field takes no SVD of B, gets
bit-identical answers, and still raises what a cold field raises.

A spec read back with parse_problem holds new field objects, so nothing
is kept for them yet (a "cold" field), as in one CLI process."""

import dataclasses
import gc
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ckframe import (
    CkFrameError,
    NotRepresentable,
    RankAmbiguous,
    SampleField,
    make_measure_space,
)
from ckframe.atoms_duals import (
    atom_coefficient_map,
    canonical_dual,
    inverse_on_range,
    sandwich_check,
    subspace_cframe_margin,
)
from ckframe.frame_ops import (
    _LEFT_FACTORS,
    cframe_bounds,
    ckframe_check,
    whitened_synthesis_matrix,
)
from ckframe.harness import GENERATOR_KINDS, emit_spec, generate_example, parse_problem
from ckframe.linalg import DEFAULT_RANK_TOL
from helpers import ckframe_instance, counted_factorizations

#: Every public entry point that factors the B of the field it is given.
ENTRY_POINTS = {
    "ckframe_check": ckframe_check,
    "cframe_bounds": lambda f, k: cframe_bounds(f),
    "atom_coefficient_map": atom_coefficient_map,
    "inverse_on_range": inverse_on_range,
    "sandwich_check": sandwich_check,
    "subspace_cframe_margin": subspace_cframe_margin,
    "canonical_dual": canonical_dual,
}

SCALES = [[1.0, 2.0], [1.0, 1e-6], [1e-5, 1e-5], [1.0, 3e-5], [1.0, 3e-9]]


def bits(x):
    """x as nested tuples of exact bytes, so == means bit-identical."""
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, SampleField):
        return ("field", x.space, bits(x.samples))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, float):
        return ("float", struct.pack("<d", x))
    if isinstance(x, dict):
        return tuple(sorted((key, bits(value)) for key, value in x.items()))
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    return x


def outcome(name, f, k):
    try:
        return bits(ENTRY_POINTS[name](f, k))
    except CkFrameError as exc:
        return (type(exc).__name__, str(exc))


def counted_svd_shapes(monkeypatch) -> list:
    """Shapes of the matrices np.linalg.svd is called on from now on."""
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


def test_a_second_call_on_a_field_takes_no_svd_of_b(monkeypatch):
    spec = parse_problem(emit_spec(generate_example("random_ckframe", {})))
    f, k = spec.field_f, spec.operator_k
    b_shape = whitened_synthesis_matrix(f).shape
    counts = counted_factorizations(monkeypatch)
    shapes = counted_svd_shapes(monkeypatch)

    ckframe_check(f, k)
    assert shapes.count(b_shape) == 1
    # the sandwich command alone takes 7 on a cold field
    counts.clear()
    shapes.clear()
    sandwich_check(f, k)
    assert sum(counts.values()) == 6, dict(counts)
    assert b_shape not in shapes

    for name in ("cframe_bounds", "inverse_on_range", "subspace_cframe_margin", "canonical_dual"):
        shapes.clear()
        ENTRY_POINTS[name](f, k)
        assert b_shape not in shapes, name


def test_atoms_takes_its_own_full_svd_and_reseeds(monkeypatch):
    # the coefficient map is read off vh, which is never kept
    spec = parse_problem(emit_spec(generate_example("random_ckframe", {})))
    f, k = spec.field_f, spec.operator_k
    b_shape = whitened_synthesis_matrix(f).shape
    shapes = counted_svd_shapes(monkeypatch)
    ckframe_check(f, k)
    atom_coefficient_map(f, k)
    assert shapes.count(b_shape) == 2
    shapes.clear()
    sandwich_check(f, k)
    assert b_shape not in shapes
    assert _LEFT_FACTORS[f][DEFAULT_RANK_TOL].vh is None


@given(
    kind=st.sampled_from(GENERATOR_KINDS),
    seed=st.integers(0, 2**16),
    scales=st.sampled_from(SCALES),
    order=st.permutations(sorted(ENTRY_POINTS)),
)
def test_warm_and_cold_fields_give_bit_identical_results(kind, seed, scales, order):
    params = {"scales": scales} if kind == "scaled_onb" else {}
    text = emit_spec(generate_example(kind, params, seed))
    cold = {}
    for name in ENTRY_POINTS:
        spec = parse_problem(text)
        cold[name] = outcome(name, spec.field_f, spec.operator_k)
    warm = parse_problem(text)
    for name in order:
        outcome(name, warm.field_f, warm.operator_k)
    for name in ENTRY_POINTS:
        assert outcome(name, warm.field_f, warm.operator_k) == cold[name], name


def test_rank_ambiguity_is_raised_again_on_a_warm_field():
    # sigma = (1, 3e-9): clearly rank 2 at rank_tol 1e-12, ambiguous at 1e-10
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    f = SampleField(space, np.diag([1.0, 3e-9]))
    k = np.eye(2)
    assert ckframe_check(f, k, rank_tol=1e-12).is_ck_frame
    for _ in range(2):
        with pytest.raises(RankAmbiguous):
            ckframe_check(f, k)
        with pytest.raises(RankAmbiguous):
            sandwich_check(f, k)
    assert set(_LEFT_FACTORS[f]) == {1e-12}


def test_unrepresentable_inputs_are_raised_again_on_a_warm_field():
    # A = 1 / ||pinv(B) k||^2 = 1e400 for k = 1e-200 I, on a field that a
    # well-scaled k has already warmed
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    f = SampleField(space, np.eye(2))
    assert ckframe_check(f, np.eye(2)).is_ck_frame
    for _ in range(2):
        with pytest.raises(NotRepresentable):
            ckframe_check(f, 1e-200 * np.eye(2))
        with pytest.raises(NotRepresentable):
            atom_coefficient_map(f, 1e-200 * np.eye(2))
    # S_f = B B* overflows: nothing is kept, every call raises
    huge = SampleField(make_measure_space(["a", "b"], [1e308, 1e308]), 1e200 * np.eye(2))
    for _ in range(2):
        with pytest.raises(NotRepresentable):
            ckframe_check(huge, np.eye(2))
    assert huge not in _LEFT_FACTORS


def test_kept_factor_owns_small_arrays_and_dies_with_its_field():
    f, k = ckframe_instance(np.random.default_rng(3), 3, 2, 16)
    ckframe_check(f, k)
    atom_coefficient_map(f, k)
    ckframe_check(f, k, rank_tol=1e-12)
    entries = _LEFT_FACTORS[f]
    assert set(entries) == {DEFAULT_RANK_TOL, 1e-12}
    for entry in entries.values():
        assert entry.vh is None
        for array in (entry.u, entry.s):
            assert array.base is None
            assert not array.flags.writeable
            assert f.space.n_atoms not in array.shape
        assert entry.u.shape == (3, 3) and entry.s.shape == (3,)
    refs = [weakref.ref(entry) for entry in entries.values()]
    del f, entries, entry
    gc.collect()
    assert all(ref() is None for ref in refs)
