"""Metamorphic properties (Chen et al., "Metamorphic Testing", ACM CSUR
2018): the faces of one theorem give one verdict on a problem, and that
verdict does not move when H or H0 gets a unitary change of basis, when
f, k or the weights are rescaled, or when an atom is split into two
half-weight copies.  Beside the verdicts, inequalities and identities of
the theory hold on the same problems: the lower bound A is the largest
PSD multiplier of k k* under S_f; raising a weight, or joining a second
field over a disjoint space, lowers neither frame bound; composing k
with v divides A by at most ||v||^2; the inverse on range(k) inverts
S_f there; and the canonical pair, and f with the dual field of its
conjugated atom map, enjoy the reciprocal lower bounds.

A verdict is whether f reproduces k, as each face decides it: the frame
check, the atom coefficient map, the three Douglas faces, the canonical
dual and the eigenvalue sandwich.  A face that raises gives the name of
its error.  Problems come from the existing generator kinds."""

import dataclasses
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from ckframe import CkFrameError, SampleField, make_measure_space
from ckframe.atoms_duals import (
    CoefficientMap,
    atom_coefficient_map,
    canonical_dual,
    dual_frame_bounds_check,
    inverse_on_range,
    sandwich_check,
    verify_atomic_decomposition,
    verify_dual_pair,
)
from ckframe.douglas import douglas_factor, minimal_multiplier, range_included
from ckframe.frame_ops import ckframe_check, frame_operator, map_field, whitened_synthesis_matrix
from ckframe.harness import GENERATOR_KINDS, ProblemSpec, generate_example, run_command
from ckframe.linalg import DEFAULT_CHECK_TOL, DEFAULT_RANK_TOL
from helpers import crandn, fresh_copy, max_psd_multiplier, random_unitary

TOL = DEFAULT_CHECK_TOL
EPS = np.finfo(float).eps


def _outcome(call):
    try:
        return call()
    except CkFrameError as exc:
        return type(exc).__name__


def answers(f, k) -> dict:
    """Each face's answer to whether f reproduces k, or the name of the
    error it raises."""

    def atoms():
        m = atom_coefficient_map(f, k)
        return m, verify_atomic_decomposition(f, k, m)

    return {
        "bounds": _outcome(lambda: ckframe_check(f, k)),
        "atoms": _outcome(atoms),
        "range_included": _outcome(lambda: range_included(k, whitened_synthesis_matrix(f))),
        "douglas_factor": _outcome(lambda: douglas_factor(k, whitened_synthesis_matrix(f))),
        "minimal_multiplier": _outcome(lambda: minimal_multiplier(k, whitened_synthesis_matrix(f))),
        "dual": _outcome(lambda: canonical_dual(f, k)),
        "sandwich": _outcome(lambda: sandwich_check(f, k)),
    }


#: How each face's answer reads as a verdict.
VERDICTS = {
    "bounds": lambda report: report.is_ck_frame,
    # the map is built exactly on inclusion; its residual measures rounding
    "atoms": lambda atoms: isinstance(atoms[0], CoefficientMap),
    "range_included": bool,
    "douglas_factor": lambda result: result.included,
    "minimal_multiplier": lambda lam: lam is not None,
    "dual": lambda dual: dual.pair.holds,
    "sandwich": lambda margin: margin >= -TOL,
}


def verdicts(f, k) -> dict:
    """Each face's verdict on whether f reproduces k, or the name of the
    error it raises."""
    out = answers(f, k)
    return {face: a if isinstance(a, str) else VERDICTS[face](a) for face, a in out.items()}


def one_verdict(f, k) -> dict:
    """verdicts(f, k), after checking that the faces agree and, where they
    hold, that the atom bound x = ||pinv(B) k||, the Douglas multiplier
    x^2 and the lower bound A = x^-2 are one number, bit for bit."""
    out = verdicts(f, k)
    assert len({v is True for v in out.values()}) == 1, out
    if out["bounds"] is True:
        bound = atom_coefficient_map(f, k).bound
        assert bound**2 == minimal_multiplier(k, whitened_synthesis_matrix(f))
        assert float(np.float64(bound) ** -2) == ckframe_check(f, k).bounds.lower
    return out


def hairline_spec(rng, s) -> ProblemSpec:
    """Two unit-weight atoms spanning 2 of 3 dimensions in a random complex
    unitary basis, and k one unit column at relative distance TOL (1 + u s)
    from their span, u uniform in [-1, 1]."""
    basis = random_unitary(rng, 3)
    d = TOL * (1.0 + rng.uniform(-1.0, 1.0) * s)
    inside = crandn(rng, 2)
    column = np.append(np.sqrt(1.0 - d * d) * inside / np.linalg.norm(inside), d)
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    f = SampleField(space, basis[:, :2].T)
    return ProblemSpec(space=space, field_f=f, operator_k=(basis @ column)[:, None])


@pytest.mark.parametrize("s", [1e-15, 1e-9])
def test_the_five_commands_give_one_status_at_the_inclusion_hairline(s):
    # atoms once graded its reconstruction residual, a second computation of
    # the distance, and said failed on about one k in five here
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(200):
        spec = hairline_spec(rng, s)
        statuses = {c: run_command(spec, c).status for c in ("bounds", "atoms", "douglas", "dual", "sandwich")}
        assert len(set(statuses.values())) == 1, statuses
        seen |= set(statuses.values())
    assert seen == {"ok", "failed"}


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


def reported_numbers(answer) -> np.ndarray:
    """Every number in a face's answer, flattened, as complex."""
    if isinstance(answer, SampleField):
        answer = answer.samples
    if dataclasses.is_dataclass(answer):
        answer = [getattr(answer, field.name) for field in dataclasses.fields(answer)]
    if isinstance(answer, dict):
        answer = list(answer.values())
    if isinstance(answer, (list, tuple)):
        return np.concatenate([reported_numbers(a) for a in answer] + [np.zeros(0)])
    if answer is None or isinstance(answer, (bool, str)):
        return np.zeros(0)
    return np.ravel(np.asarray(answer, dtype=complex))


#: Exponents of the powers of two that rescale f, the weights and k.
two_exponents = st.integers(-500, 500)


@given(problems(), two_exponents, two_exponents, two_exponents)
# the dual's certified upper bound, (1e7 * 1e150)^2, read inf
@example(
    problem=(SampleField(make_measure_space(["a", "b"], [1.0, 1.0]), 1e-150 * np.eye(2)), np.diag([1.0, 1e-7])),
    a=0,
    b=0,
    c=0,
)
def test_at_extreme_scales_every_face_answers_in_range_or_refuses(problem, a, b, c):
    # each face raises, NotRepresentable where a number it reports is
    # outside double range, or answers with finite numbers, but for the
    # vacuous lower bound inf of k = 0; no numpy warning escapes
    f, k = problem
    space = make_measure_space(f.space.labels, 2.0**b * f.space.weight_array)
    f, k = SampleField(space, 2.0**a * f.samples), 2.0**c * k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = answers(f, k)
    report = out["bounds"]
    if not isinstance(report, str) and report.degenerate:
        out["bounds"] = dataclasses.replace(report, bounds=dataclasses.replace(report.bounds, lower=0.0))
    for face, answer in out.items():
        assert np.isfinite(reported_numbers(answer)).all(), (face, answer)


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
    # sum_x w_x f_x g_x* with g_x the conjugated row x of m; as in every
    # dual pair, g is then a frame for k* with bound 1 / B_f, and f one
    # for k with 1 / B_g
    f, k = problem
    assume(ckframe_check(f, k).is_ck_frame)
    g = SampleField(f.space, atom_coefficient_map(f, k).matrix.conj())
    assert verify_dual_pair(f, g, k).holds
    if k.any():
        margins = dual_frame_bounds_check(f, g, k)
        assert min(margins) >= -TOL, margins


# ---------------------------------------------------------------------------
# inequalities of the theory


def condition(f) -> float:
    """kappa(B), sigma_max over the least singular value the rank keeps."""
    s = np.linalg.svd(whitened_synthesis_matrix(f), compute_uv=False)
    s = s[s > DEFAULT_RANK_TOL * s[0]]
    return float(s[0] / s[-1])


def ck_frame_report(f, k):
    """ckframe_check(f, k) of a ck-frame with k != 0; other problems and
    those the check refuses are not drawn."""
    try:
        report = ckframe_check(f, k)
    except CkFrameError:
        report = None
    assume(report is not None and report.is_ck_frame and not report.degenerate)
    return report


def within(a, b, rel) -> bool:
    return abs(a - b) <= rel * max(a, b)


@given(problems())
def test_the_lower_bound_is_the_largest_psd_multiplier(problem):
    # A = 1 / ||pinv(B) k||^2 is the largest a with a k k* <= S_f; the PSD
    # pencil finds it through S_f, whose eigenvalues square those of B, so
    # the two agree to c eps kappa(B)^2 (the worst c seen is about 9)
    f, k = problem
    a = ck_frame_report(f, k).bounds.lower
    c = k @ k.conj().T
    try:
        best = max_psd_multiplier(frame_operator(f), 0.5 * (c + c.conj().T))
    except CkFrameError:
        best = None
    assume(best is not None)
    slack = 64 * EPS * condition(f) ** 2
    assert within(a, best, slack), (a, best)
    if slack < 1e-7:
        assert not within(a * (1 + 1e-6), best, slack)


@given(problems(), st.integers(0, 2**16), st.floats(1.0, 4.0))
def test_raising_a_weight_lowers_neither_frame_bound(problem, which, factor):
    # S_f gains the PSD term (factor - 1) w_i f_i f_i*, so no h loses energy
    f, k = problem
    before = ck_frame_report(f, k).bounds
    w = np.array(f.space.weight_array)
    w[which % w.size] *= factor
    after = ck_frame_report(SampleField(make_measure_space(f.space.labels, w), f.samples), k).bounds
    assert after.lower >= before.lower * (1 - 64 * EPS * condition(f) ** 2)
    assert after.upper >= before.upper * (1 - 16 * EPS)


@given(problems(), unitary_seeds, st.integers(1, 4), magnitudes)
def test_composing_k_with_v_divides_the_lower_bound_by_at_most_its_norm_squared(problem, seed, m, c):
    # ||v* k* h|| <= ||v|| ||k* h||, so A ||v||^-2 k v (k v)* <= A k k* <= S_f
    f, k = problem
    before = ck_frame_report(f, k).bounds.lower
    v = c * crandn(np.random.default_rng(seed), k.shape[1], m)
    after = ck_frame_report(f, k @ v).bounds.lower
    norm_v = float(np.linalg.norm(v, 2))
    assert after >= before / norm_v**2 * (1 - 64 * EPS * condition(f) ** 2)


@given(problems(), unitary_seeds, st.integers(1, 6), magnitudes)
def test_joining_a_field_over_a_disjoint_space_lowers_neither_frame_bound(problem, seed, atoms, c):
    # the join's S is S_f + S_e, and S_e is PSD, so no h loses energy
    f, k = problem
    before = ck_frame_report(f, k).bounds
    rng = np.random.default_rng(seed)
    extra = c * crandn(rng, atoms, f.dim)
    weights = np.concatenate([f.space.weight_array, rng.uniform(0.1, 2.0, atoms)])
    labels = [f"x{j}" for j in range(weights.size)]
    joined = SampleField(make_measure_space(labels, weights), np.vstack([f.samples, extra]))
    after = ck_frame_report(joined, k).bounds
    kappa = max(condition(f), condition(joined))
    assert after.lower >= before.lower * (1 - 64 * EPS * kappa**2)
    assert after.upper >= before.upper * (1 - 16 * EPS)


@given(problems())
def test_the_inverse_on_range_inverts_the_frame_operator_there(problem):
    # G S_f u = u for u in range(k), here for u = k x; G is of size
    # 1/sigma_min(B)^2 and S_f of size ||B||^2, so the residual is eps kappa^2
    f, k = problem
    ck_frame_report(f, k)
    try:
        g = inverse_on_range(f, k)
    except CkFrameError:
        g = None
    assume(g is not None)
    residual = np.linalg.norm(g @ frame_operator(f) @ k - k, 2)
    assert residual <= 64 * EPS * condition(f) ** 2 * np.linalg.norm(k, 2)


@given(problems())
def test_the_canonical_pair_enjoys_the_reciprocal_lower_bounds(problem):
    # g is a frame for k* with bound 1 / B_f and f one for k with 1 / B_g;
    # both Bessel bounds are read off the fields' kept SVDs, so the margins
    # on fresh copies of the fields are the same bits
    f, k = problem
    try:
        dual = canonical_dual(f, k)
    except CkFrameError:
        dual = None
    assume(dual is not None)
    margins = dual_frame_bounds_check(dual.projected_frame, dual.dual_field, k)
    assert min(margins) >= -TOL, margins
    cold = dual_frame_bounds_check(fresh_copy(dual.projected_frame), fresh_copy(dual.dual_field), k)
    assert [struct.pack("<d", m) for m in cold] == [struct.pack("<d", m) for m in margins]


# ---------------------------------------------------------------------------
# Douglas's algebra: x(k) = ||pinv(B) k|| is a norm on the operators whose
# range sits inside range(B) (Douglas, Proc. AMS 17, 1966)

#: How each command reports x = ||pinv(B) k||.
X_OF = {
    "bounds": lambda results: results["lower"] ** -0.5,
    "douglas": lambda results: results["lambda_min"] ** 0.5,
    "atoms": lambda results: results["bound_constant"],
}


def x_by_command(f, k) -> dict:
    """x as bounds (A = x^-2), douglas (lambda_min = x^2) and atoms (the
    atom bound) each report it, after checking that each finds f a
    ck-frame for k."""
    spec = ProblemSpec(space=f.space, field_f=f, operator_k=k)
    out = {}
    for command, x in X_OF.items():
        report = run_command(spec, command)
        assert report.status == "ok", (command, report.results)
        out[command] = x(report.results)
    return out


def second_operator(f, k1, seed, c):
    """A k2 of k1's shape with range inside range(B), the synthesis of
    random coefficients scaled by c, of which f is a ck-frame; other draws
    are not taken."""
    b = whitened_synthesis_matrix(f)
    k2 = c * (b @ crandn(np.random.default_rng(seed), b.shape[1], k1.shape[1]))
    ck_frame_report(f, k2)
    return k2


@given(problems(), unitary_seeds, magnitudes)
def test_x_of_a_sum_is_at_most_the_sum_of_the_xs(problem, seed, c):
    # pinv(B) (k1 + k2) = pinv(B) k1 + pinv(B) k2, so x is subadditive, and
    # the sum's range sits inside range(B): f is a ck-frame for it
    f, k1 = problem
    ck_frame_report(f, k1)
    k2 = second_operator(f, k1, seed, c)
    x1, x2, x12 = (x_by_command(f, k) for k in (k1, k2, k1 + k2))
    slack = 64 * EPS * condition(f) ** 2
    for command in X_OF:
        assert x12[command] <= (x1[command] + x2[command]) * (1 + slack), command


@given(problems(), unitary_seeds, magnitudes)
def test_x_of_a_concatenation_lies_between_the_larger_x_and_the_root_sum_of_squares(problem, seed, c):
    # pinv(B) [k1 k2] = [pinv(B) k1  pinv(B) k2], whose norm is at least
    # either block's and at most the root of the sum of their squares; f
    # is a ck-frame for the concatenation, whose range is the span of both
    f, k1 = problem
    ck_frame_report(f, k1)
    k2 = second_operator(f, k1, seed, c)
    x1, x2, x12 = (x_by_command(f, k) for k in (k1, k2, np.hstack([k1, k2])))
    slack = 64 * EPS * condition(f) ** 2
    for command in X_OF:
        assert max(x1[command], x2[command]) <= x12[command] * (1 + slack), command
        assert x12[command] ** 2 <= (x1[command] ** 2 + x2[command] ** 2) * (1 + slack), command
