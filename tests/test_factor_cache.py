"""What ckframe.linalg keeps for a live field (linalg._Kept): the one thin
SVD of its whitened synthesis matrix B, taken once before any rank is
decided (u, s and the small right factor w, with vh = w Q.T formed once
atom_coefficient_map, canonical_dual or douglas_factor reads it), of
which every rank_tol reads a slice and every caller reads ||B|| = s[0],
and, for one operator k at a time, held beside a copy of that k: k's thin
SVD (||k|| is its top singular value); per rank_tol, U_r* k, the
inclusion distance (only when B is not onto: otherwise it is 0.0), the
minimal-norm factor pinv(B) k (once atom_coefficient_map or
douglas_factor asks for it) and its norm; the compression of S_f to
range(k); and the dual-pair report of the last (g, tol, rank_tol), with a
weak reference to g, so one g at a time, told by identity.  A k is told
from the held one by comparing bytes.  whitened_synthesis_matrix
hands out a read-only B and records it by identity, so a Douglas face
whose l2 is that very array asks as its field; any other l2, a copy with
the same bytes included, is answered from scratch and registers nothing.
A second question about the same (f, k) takes no factorization of B,
gets bit-identical answers, and still raises what a cold field raises.
No kept array is handed to a caller.

A spec read back with parse_problem holds new field objects, so nothing
is kept for them yet (a "cold" field), as in one CLI process."""

import ast
import dataclasses
import gc
import struct
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ckframe import (
    CkFrameError,
    NotRepresentable,
    RankAmbiguous,
    SampleField,
    atoms_duals,
    frame_ops,
    make_measure_space,
)
from ckframe.atoms_duals import (
    atom_coefficient_map,
    canonical_dual,
    inverse_on_range,
    sandwich_check,
    subspace_cframe_margin,
    verify_atomic_decomposition,
    verify_dual_pair,
)
from ckframe.douglas import douglas_factor, minimal_multiplier, range_included
from ckframe.frame_ops import (
    cframe_bounds,
    ckframe_check,
    synthesis_matrix,
    whitened_synthesis_matrix,
)
from ckframe.harness import GENERATOR_KINDS, emit_spec, generate_example, parse_problem
from ckframe.linalg import (
    _HANDED,
    _KEPT,
    DEFAULT_CHECK_TOL,
    DEFAULT_RANK_TOL,
    _kept_like,
    _same_bytes,
    _thin_svd,
    operator_norm,
)
import helpers
from helpers import (
    ckframe_instance,
    counted_factorizations,
    crandn,
    diagnose,
    excluded_instance,
    fresh_copy,
    parseval_field,
    random_space,
    random_unitary,
    range_projector,
    with_rank,
)

#: Every public entry point that factors the B of the field it is given,
#: and the Douglas faces, which ask as the field whose handed-out B is
#: their l2.
ENTRY_POINTS = {
    "ckframe_check": ckframe_check,
    "cframe_bounds": lambda f, k: cframe_bounds(f),
    "atom_coefficient_map": atom_coefficient_map,
    "verify_atomic_decomposition": lambda f, k: verify_atomic_decomposition(
        f, k, atom_coefficient_map(f, k)
    ),
    "inverse_on_range": inverse_on_range,
    "sandwich_check": sandwich_check,
    "subspace_cframe_margin": subspace_cframe_margin,
    "canonical_dual": canonical_dual,
    "range_included": lambda f, k: range_included(k, whitened_synthesis_matrix(f)),
    "douglas_factor": lambda f, k: douglas_factor(k, whitened_synthesis_matrix(f)),
    "minimal_multiplier": lambda f, k: minimal_multiplier(k, whitened_synthesis_matrix(f)),
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


def kept_factor(f):
    """The one thin SVD of the whitened synthesis matrix kept for f, or None."""
    kept = _KEPT.get(f)
    return None if kept is None else kept.svd


def arrays_in(x):
    """Every ndarray reachable from a kept entry."""
    if isinstance(x, np.ndarray):
        return [x]
    if dataclasses.is_dataclass(x):
        x = [getattr(x, f.name) for f in dataclasses.fields(x)]
    if isinstance(x, (tuple, list)):
        return [a for v in x for a in arrays_in(v)]
    return []


def qr_modes(monkeypatch, b=None) -> list:
    """The mode of each np.linalg.qr from now on of the transpose of the
    wide matrix b (of any matrix when b is None), which is how a wide B is
    factored: "r" for its left factor alone, "reduced" when vh is formed."""
    modes = []
    qr = np.linalg.qr

    def recording(a, mode="reduced"):
        if b is None or (np.shape(a) == b.T.shape and np.array_equal(a, b.T)):
            modes.append(mode)
        return qr(a, mode)

    monkeypatch.setattr(np.linalg, "qr", recording)
    return modes


def counted_builds(monkeypatch) -> list:
    """The field of each B built from now on, by frame_ops._whitened_rows,
    patched in both modules that hold it."""
    built = []
    rows = frame_ops._whitened_rows

    def counted_rows(field):
        built.append(field)
        return rows(field)

    for module in (frame_ops, atoms_duals):
        monkeypatch.setattr(module, "_whitened_rows", counted_rows)
    return built


def test_a_second_call_on_a_field_takes_no_svd_of_b(monkeypatch):
    spec = parse_problem(emit_spec(generate_example("random_ckframe", {})))
    f, k = spec.field_f, spec.operator_k
    b = whitened_synthesis_matrix(f)
    counts = counted_factorizations(monkeypatch)
    modes = qr_modes(monkeypatch, b)

    ckframe_check(f, k)
    assert modes == ["r"]
    # the sandwich command alone takes 7 and a qr on a cold field: after the
    # check, only the SVDs of k, of its compression and of the sandwich remain
    counts.clear()
    modes.clear()
    sandwich_check(f, k)
    assert dict(counts) == {"svd": 3}
    assert not modes

    for name in ("cframe_bounds", "inverse_on_range", "subspace_cframe_margin"):
        ENTRY_POINTS[name](f, k)
        assert not modes, name
    # the dual is read off vh: the first call forms it with the Q of one
    # reduced QR, and f keeps it
    canonical_dual(f, k)
    assert modes == ["reduced"]
    modes.clear()
    canonical_dual(f, k)
    assert not modes


def test_atoms_takes_its_own_full_svd_and_reseeds(monkeypatch):
    # the coefficient map is read off vh: atoms forms it once from the kept
    # w and the Q of one more QR, f keeps it, and douglas_factor reads it;
    # the checks never form it
    text = emit_spec(generate_example("random_ckframe", {}))
    spec = parse_problem(text)
    f, k = spec.field_f, spec.operator_k
    b = whitened_synthesis_matrix(f)
    modes = qr_modes(monkeypatch, b)
    ckframe_check(f, k)
    assert kept_factor(f).vh is None
    assert kept_factor(f).w.shape == (f.dim, f.dim)
    counts = counted_factorizations(monkeypatch)
    atom_coefficient_map(f, k)
    assert dict(counts) == {"qr": 1}
    assert modes == ["r", "reduced"]
    modes.clear()
    atom_coefficient_map(f, k)
    douglas_factor(k, b)
    sandwich_check(f, k)
    assert not modes
    assert kept_factor(f).vh.shape == (f.dim, f.space.n_atoms)
    # on a cold field the factorization with vh also gives the left factor
    cold = parse_problem(text)
    atom_coefficient_map(cold.field_f, cold.operator_k)
    ckframe_check(cold.field_f, cold.operator_k)
    cframe_bounds(cold.field_f)
    assert modes == ["reduced"]
    assert bits(kept_factor(cold.field_f)) == bits(kept_factor(f))


@pytest.mark.parametrize("shape", [(3, 8), (5, 5), (8, 3), (4, 12)])
def test_the_left_factor_is_the_same_bits_with_or_without_vh(shape):
    rng = np.random.default_rng(sum(shape))
    full = crandn(rng, *shape)
    # and a rank-deficient b, whose rank is decided on the same singular values
    for b in (full, full[:, :1] @ full[:1, :]):
        left = _thin_svd(b).ranked(DEFAULT_RANK_TOL, "b")
        with_vh = _thin_svd(b, right=True).ranked(DEFAULT_RANK_TOL, "b")
        assert (left.vh is None) == (shape[0] < shape[1])
        assert bits((left.u, left.s, left.top, left.w)) == bits(
            (with_vh.u, with_vh.s, with_vh.top, with_vh.w)
        )
        # vh formed later from the kept w is the one formed at once
        assert bits(left.with_vh(b)) == bits(with_vh)
        r = with_vh.s.size
        assert np.allclose(with_vh.vh @ with_vh.vh.conj().T, np.eye(r), atol=1e-13)
        assert np.allclose((with_vh.u * with_vh.s) @ with_vh.vh, b, atol=1e-13 * with_vh.top)


SMALL = {"n": 8, "n0": 8, "atoms": 32}
#: The sizes of the benchmark's lib_dense problems.
DENSE = {"n": 96, "n0": 96, "atoms": 384}


def problem_arrays(seed, params=SMALL):
    """(labels, weights, samples, k) of a random_ckframe, at n = n0 = 8,
    atoms = 32 by default, as the benchmark holds its problems: plain
    arrays, with no field built from them left alive."""
    spec = generate_example("random_ckframe", params, seed)
    f = spec.field_f
    return f.space.labels, f.space.weight_array, np.array(f.samples), spec.operator_k


def assert_diagnosis_budget(arrays, monkeypatch) -> tuple[dict, dict]:
    """Diagnose arrays, asserting its exact factorizations; return the
    diagnosis and the counts.

    The SVDs of f's B, of k and of the dual's B; ||pinv(B) k|| for f and
    for the dual.  Both B are onto, so no inclusion residual and no ||k||
    are taken.  k is onto too (n0 = n), so U_r is a basis of range(k):
    the compression needs no SVD, the sandwich reads B's singular values,
    and the projected frame is f itself, whose ||B|| is sigma_max.
    verify_dual_pair then asks as f and reads k's kept SVD.  Without the
    memo one lib_dense diagnosis took 14 SVDs and 29 norm(., 2), and
    without the onto rule 6 SVDs.

    B is built 6 times: f's for its SVD and again for its Q, f's and the
    dual's for the pair mismatch, the dual's for its SVD and f's handed out
    for the Douglas faces.  The second pair check reads the report kept for
    (f, g, k); it took 8 builds when it was checked again."""
    counts = counted_factorizations(monkeypatch)
    modes = qr_modes(monkeypatch)
    built = counted_builds(monkeypatch)
    diagnosis = diagnose(*arrays)
    assert dict(counts) == {"svd": 3, "qr": 3, "norm2": 2}
    # f's B for the check, its Q for atom_coefficient_map's vh, and the
    # dual's B once
    assert modes == ["r", "reduced", "r"]
    assert len(built) == 6
    return diagnosis, counts


def test_a_lib_dense_diagnosis_takes_exactly_its_factorization_budget(monkeypatch):
    # 384 atoms against 96 dimensions: wide enough that a norm of the
    # projected frame's B would take a QR of its own
    assert_diagnosis_budget(problem_arrays(4, DENSE), monkeypatch)


def test_a_diagnosis_stays_within_its_factorization_budget(monkeypatch):
    arrays = problem_arrays(seed=4)
    first, counts = assert_diagnosis_budget(arrays, monkeypatch)
    # fresh objects on the same arrays: what the first diagnosis kept died
    # with its fields, so the second takes exactly the same work
    once = dict(counts)
    counts.clear()
    second = diagnose(*arrays)
    assert dict(counts) == once
    assert bits(second) == bits(first)


def ckframe_calls(path) -> list:
    """The names of the ckframe.<name> calls in the body of the function
    diagnose defined in the module at path, in source order, which is their
    call order in a body without branches, loops or lambdas."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    body = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "diagnose"
    )
    branches = (ast.If, ast.IfExp, ast.For, ast.While, ast.Try, ast.Lambda, ast.comprehension)
    assert not any(isinstance(node, branches) for node in ast.walk(body)), path
    calls = [
        node
        for node in ast.walk(body)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "ckframe"
    ]
    return [call.func.attr for call in sorted(calls, key=lambda c: (c.lineno, c.col_offset))]


def test_the_budget_diagnosis_asks_what_the_benchmarked_one_asks():
    # the pins above describe the benchmark's lib_dense op only while
    # helpers.diagnose makes the same public calls in the same order; the
    # benchmark's module is read, not imported
    bench = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    asked = ckframe_calls(helpers.__file__)
    assert len(asked) == 13 and asked[:2] == ["make_measure_space", "SampleField"]
    assert ckframe_calls(bench) == asked


def test_nested_asks_on_a_cold_field_keep_their_answers(monkeypatch):
    # the compression is asked for first; the frame check and k's SVD it
    # asks for inside fill the same answer set, so none is lost when the
    # compression is stored
    spec = parse_problem(emit_spec(generate_example("random_bessel_pair", {}, 0)))
    f, k = spec.field_f, spec.operator_k
    sandwich_check(f, k)
    assert set(_KEPT[f].about_k[1]) == {
        "k_svd",
        ("proj", DEFAULT_RANK_TOL),
        ("coords_norm", DEFAULT_RANK_TOL),
        ("on_range", DEFAULT_RANK_TOL, DEFAULT_CHECK_TOL),
    }
    counts = counted_factorizations(monkeypatch)
    ckframe_check(f, k)
    assert not counts, dict(counts)


#: Specs whose k is onto H (the first four) and specs whose k is not, the
#: last with a B that is not onto either.
PAIR_SPECS = {
    "scaled_onb": ("scaled_onb", {}),
    "interval_fourier": ("interval_fourier", {}),
    "square": ("random_ckframe", {"n": 4, "n0": 4, "atoms": 16}),
    "wide": ("random_ckframe", {"n": 3, "n0": 6, "atoms": 9}),
    "tall": ("random_ckframe", {}),
    "few_atoms": ("random_ckframe", {"n": 5, "n0": 3, "atoms": 3}),
}


@pytest.mark.parametrize("name", sorted(PAIR_SPECS))
@pytest.mark.parametrize("seed", range(3))
def test_the_dual_pair_report_is_that_of_verify_dual_pair_bit_for_bit(name, seed, monkeypatch):
    kind, params = PAIR_SPECS[name]
    spec = parse_problem(emit_spec(generate_example(kind, params, seed)))
    f, k = spec.field_f, spec.operator_k
    dual = canonical_dual(f, k)
    onto = np.linalg.matrix_rank(k) == f.dim
    assert (dual.projected_frame is f) == onto
    counts = counted_factorizations(monkeypatch)
    pair = verify_dual_pair(dual.projected_frame, dual.dual_field, k)
    assert bits(pair) == bits(dual.pair)
    # k's SVD and ||P B|| are read off what P f (which is f when k is
    # onto) holds
    assert not counts, dict(counts)
    # and on fresh copies, which hold nothing, the report has the same bits
    cold = verify_dual_pair(fresh_copy(dual.projected_frame), fresh_copy(dual.dual_field), k)
    assert bits(cold) == bits(dual.pair)


def dual_pair(seed=0):
    """(f, g, k): the projected frame and the canonical dual of a random
    ck-frame, a pair that verifies, whose report is kept for f."""
    spec = parse_problem(emit_spec(generate_example("random_ckframe", {}, seed)))
    dual = canonical_dual(spec.field_f, spec.operator_k)
    return dual.projected_frame, dual.dual_field, spec.operator_k


def test_a_second_pair_check_builds_no_b_and_reads_the_kept_report(monkeypatch):
    f, g, k = dual_pair()
    args = (f, g, k, 1e-9, 1e-12)
    cold = bits(verify_dual_pair(*map(fresh_copy, args[:2]), *args[2:]))
    first = verify_dual_pair(*args)
    built = counted_builds(monkeypatch)
    counts = counted_factorizations(monkeypatch)
    second = verify_dual_pair(*args)
    assert not built and not counts, (built, dict(counts))
    assert bits(second) == bits(first) == cold
    # each caller gets its own report, never the kept one
    kept = _KEPT[f].about_k[1]["pair"][1]
    assert second is not first and kept is not first and kept is not second


@pytest.mark.parametrize("change", ["copy_of_g", "tol", "rank_tol", "collected_g"])
def test_a_pair_check_of_another_g_or_tolerance_is_computed_afresh(change, monkeypatch):
    f, g, k = dual_pair()
    g = fresh_copy(g)
    tol, rank_tol = DEFAULT_CHECK_TOL, DEFAULT_RANK_TOL
    verify_dual_pair(f, g, k, tol, rank_tol)
    old = _KEPT[f].about_k[1]["pair"]
    if change == "copy_of_g":
        # same bytes, another object: told apart by identity
        g = fresh_copy(g)
    elif change == "tol":
        tol = 1e-6
    elif change == "rank_tol":
        rank_tol = 1e-12
    else:
        samples, collected = g.samples, weakref.ref(g)
        g = None
        gc.collect()
        assert collected() is None and old[0][0]() is None
        g = SampleField(f.space, samples)
    cold = bits(verify_dual_pair(fresh_copy(f), fresh_copy(g), k, tol, rank_tol))
    built = counted_builds(monkeypatch)
    assert bits(verify_dual_pair(f, g, k, tol, rank_tol)) == cold
    assert built == [f, g]
    # the new report replaced the old one: one g at a time, and asking
    # again reads it
    kept = _KEPT[f].about_k[1]["pair"]
    assert kept is not old and kept[0] == (weakref.ref(g), tol, rank_tol)
    built.clear()
    assert bits(verify_dual_pair(f, g, k, tol, rank_tol)) == cold
    assert not built


def test_a_pair_check_that_raises_keeps_nothing(monkeypatch):
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    f = SampleField(space, np.ones((2, 2)))
    g = SampleField(space, np.eye(2))
    # sigma(k) = (1, 1e-9) sits in the ambiguous band of rank(k), cold and warm
    ambiguous = np.diag([1.0, 1e-9]).astype(complex)
    for _ in range(2):
        with pytest.raises(RankAmbiguous, match="^rank of k"):
            verify_dual_pair(f, g, ambiguous)
        assert "pair" not in _KEPT[f].about_k[1]
    # a mismatch k - B_f B_g* past double range, after a report was kept:
    # the kept report stays, and asking for it again builds nothing
    k = np.eye(2, dtype=complex)
    report = bits(verify_dual_pair(f, g, k))
    kept = _KEPT[f].about_k[1]["pair"]
    huge = SampleField(space, np.full((2, 2), 1e308))
    for _ in range(2):
        with pytest.raises(NotRepresentable, match="pair mismatch"):
            verify_dual_pair(f, huge, k)
        assert _KEPT[f].about_k[1]["pair"] is kept
    built = counted_builds(monkeypatch)
    assert bits(verify_dual_pair(f, g, k)) == report
    assert not built


def test_a_field_reads_only_its_own_entries(monkeypatch):
    # a second field over the same arrays (one CLI command run in-process
    # beside the spec it was parsed from) asks its first question cold
    text = emit_spec(generate_example("random_ckframe", {}))
    warm, fresh = parse_problem(text), parse_problem(text)
    ckframe_check(warm.field_f, warm.operator_k)
    counts = counted_factorizations(monkeypatch)
    ckframe_check(fresh.field_f, fresh.operator_k)
    assert dict(counts) == {"qr": 1, "svd": 1, "norm2": 1}


def test_warm_cframe_bounds_takes_no_factorization(monkeypatch):
    # cframe_bounds is the check of k = I: after a check of another k it
    # reads the SVD of B that the check kept, and takes only ||pinv(B)||
    text = emit_spec(generate_example("random_ckframe", {}))
    spec = parse_problem(text)
    f = spec.field_f
    ckframe_check(f, spec.operator_k)
    counts = counted_factorizations(monkeypatch)
    cframe_bounds(f)
    assert dict(counts) == {"norm2": 1}
    # asked again, or after a check of I itself, it takes nothing
    counts.clear()
    cframe_bounds(f)
    assert not counts, dict(counts)
    checked = parse_problem(text).field_f
    ckframe_check(checked, np.eye(checked.dim))
    counts.clear()
    cframe_bounds(checked)
    assert not counts, dict(counts)


@pytest.mark.parametrize("kind", ["interval_fourier", "scaled_onb"])
def test_warm_inverse_on_range_takes_no_factorization(kind, monkeypatch):
    # k and B are onto H, so p is square and unitary: pinv(Sigma_r p) is
    # p* Sigma_r^-1, with no SVD of Sigma_r p
    spec = parse_problem(emit_spec(generate_example(kind, {})))
    sandwich_check(spec.field_f, spec.operator_k)
    counts = counted_factorizations(monkeypatch)
    inverse_on_range(spec.field_f, spec.operator_k)
    assert not counts, dict(counts)


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
    del spec
    warm = parse_problem(text)
    for name in order:
        outcome(name, warm.field_f, warm.operator_k)
    for name in ENTRY_POINTS:
        assert outcome(name, warm.field_f, warm.operator_k) == cold[name], name
    # ||B|| is read one way: the frame bounds' upper bound is the check's
    try:
        check = ckframe_check(parse_problem(text).field_f, warm.operator_k)
    except CkFrameError:
        return
    assert bits(cframe_bounds(parse_problem(text).field_f).upper) == bits(check.bounds.upper)


def test_operands_mutated_in_place_get_the_cold_answer_for_their_new_bytes():
    # f spans a proper subspace: k_out escapes it, k_in does not
    rng = np.random.default_rng(11)
    f, k_out = excluded_instance(rng, 4, 3, 12)
    k_in = synthesis_matrix(f) @ crandn(rng, 12, 3)
    l2_new = crandn(rng, 4, 12)
    # cold answers: the temporary field and what it kept die with the call
    cold_check = bits(ckframe_check(SampleField(f.space, f.samples), k_out))
    cold_douglas = bits(
        (douglas_factor(k_out, l2_new), range_included(k_out, l2_new), minimal_multiplier(k_out, l2_new))
    )

    k = k_in.copy()
    assert ckframe_check(f, k).is_ck_frame
    k[...] = k_out
    assert bits(ckframe_check(f, k)) == cold_check

    # a writable copy of f's B, answered for its bytes before and after
    # they change
    l2 = np.array(whitened_synthesis_matrix(f))
    assert not douglas_factor(k_out, l2).included
    l2[...] = l2_new
    assert bits(
        (douglas_factor(k_out, l2), range_included(k_out, l2), minimal_multiplier(k_out, l2))
    ) == cold_douglas


def douglas_answers(k, l2):
    return bits((douglas_factor(k, l2), range_included(k, l2), minimal_multiplier(k, l2)))


def test_operands_are_recognised_by_their_bytes(monkeypatch):
    rng = np.random.default_rng(17)
    f, k = ckframe_instance(rng, 4, 3, 12)
    k[0, 0] = 0.0
    signed = k.copy()
    signed[0, 0] = complex(-0.0, 0.0)
    b = whitened_synthesis_matrix(f)
    # a copy of B with one flipped bit in a middle atom
    flipped = np.ascontiguousarray(b)
    flipped.view(np.uint64)[1, 12] ^= 1
    # cold answers, taken while nothing is kept for f
    cold_signed = bits(ckframe_check(SampleField(f.space, f.samples), signed))
    cold_flipped = douglas_answers(k, flipped)

    ckframe_check(f, k)
    atom_coefficient_map(f, k)
    counts = counted_factorizations(monkeypatch)
    # a k that differs from the held one only in the sign of a zero asks
    # its own questions: ||pinv(B) k|| again (B is onto, so no distance
    # and no ||k|| are taken)
    assert bits(ckframe_check(f, signed)) == cold_signed
    assert dict(counts) == {"norm2": 1}
    assert bits(_KEPT[f].about_k[0]) == bits(signed)
    ckframe_check(f, k)
    counts.clear()
    # each of the three faces factors the flipped copy itself, and its
    # answers are its own
    assert douglas_answers(k, flipped) == cold_flipped != douglas_answers(k, b)
    assert counts["svd"] == 3, dict(counts)


def test_arrays_handed_to_callers_cannot_change_later_answers():
    rng = np.random.default_rng(12)
    f, k = ckframe_instance(rng, 4, 3, 12)
    cold = {name: outcome(name, SampleField(f.space, f.samples), k) for name in ENTRY_POINTS}
    # the Douglas factor and the atom map both come from the pinv(B) k kept
    # for f: each is a fresh writable array the caller owns, so writing
    # into one changes neither the other nor the next one handed out
    handed = {
        "douglas_factor": lambda field: douglas_factor(k, whitened_synthesis_matrix(field)).factor,
        "atom_coefficient_map": lambda field: atom_coefficient_map(field, k).matrix,
        "inverse_on_range": lambda field: inverse_on_range(field, k),
    }
    cold_arrays = {name: bits(hand(fresh_copy(f))) for name, hand in handed.items()}
    for name in [*handed, *reversed(handed)]:
        array = handed[name](f)
        assert array.flags.writeable and array.flags.owndata, name
        array[...] = 7.0
        again = handed[name](f)
        assert again is not array and bits(again) == cold_arrays[name], name
    for name in ENTRY_POINTS:
        assert outcome(name, f, k) == cold[name], name


def test_a_factor_is_read_off_one_factorization_when_lapack_rotates_its_basis(monkeypatch):
    # f is a Parseval frame: every singular value of B is 1, so any U Q, Q* W*
    # with Q unitary is an SVD of the triangular factor R.T of B = R.T Q.T,
    # and another SVD of it may return another one.  The one SVD the check
    # takes is rotated here and any later one is not: vh and the
    # coordinates paired with it must both come from the rotated one.
    f = parseval_field(3, 8, seed=5)
    k = crandn(np.random.default_rng(5), 3, 2)
    b = whitened_synthesis_matrix(f)
    q = random_unitary(np.random.default_rng(6), 3)
    svd = np.linalg.svd
    seen = []

    def rotating(a, *args, **kwargs):
        # the SVD of the lower triangular factor R.T of the wide B
        out = svd(a, *args, **kwargs)
        if np.shape(a) != (3, 3) or np.triu(a, 1).any() or not kwargs.get("compute_uv", True):
            return out
        seen.append(a)
        if len(seen) > 1:
            return out
        u, sigma, vh = out
        return u @ q, sigma, q.conj().T @ vh

    monkeypatch.setattr(np.linalg, "svd", rotating)
    assert ckframe_check(f, k).is_ck_frame
    cmap = atom_coefficient_map(f, k)
    assert verify_atomic_decomposition(f, k, cmap) < 1e-12
    assert len(seen) == 1
    # what f keeps is the rotated factorization, vh included, and
    # douglas_factor reads its coordinates and vh together
    plain_u, _, plain_w = svd(seen[0], full_matrices=False)
    kept = kept_factor(f)
    assert not np.allclose(kept.u, plain_u)
    assert np.allclose(kept.u, plain_u @ q) and np.allclose(kept.w, q.conj().T @ plain_w)
    factor = douglas_factor(k, b).factor
    assert np.linalg.norm(b @ factor - k) < 1e-12 * np.linalg.norm(k)
    assert len(seen) == 1


def test_a_field_keeps_the_answers_about_one_k_at_a_time():
    rng = np.random.default_rng(13)
    f, k = ckframe_instance(rng, 4, 3, 12)
    synth = synthesis_matrix(f)
    for _ in range(100):
        k = synth @ crandn(rng, 12, 3)
        ckframe_check(f, k)
        sandwich_check(f, k)
        ckframe_check(f, k, rank_tol=1e-12)
        # and one pair report, for the last g checked
        for _ in range(2):
            g = SampleField(f.space, crandn(rng, 12, 3))
            verify_dual_pair(f, g, k)
    kept = _KEPT[f]
    held, answers = kept.about_k
    assert held is not k and bits(held) == bits(k)
    # one unranked SVD of B serves both rank_tols
    assert set(answers) == {
        "k_svd",
        "pair",
        *(("proj", rank_tol) for rank_tol in (DEFAULT_RANK_TOL, 1e-12)),
        *(("coords_norm", rank_tol) for rank_tol in (DEFAULT_RANK_TOL, 1e-12)),
        ("on_range", DEFAULT_RANK_TOL, DEFAULT_CHECK_TOL),
    }
    assert kept.svd.s.shape == (f.dim,)
    assert answers["pair"][0] == (weakref.ref(g), DEFAULT_CHECK_TOL, DEFAULT_RANK_TOL)


def test_the_douglas_faces_ask_as_a_live_field_and_register_nothing(monkeypatch):
    rng = np.random.default_rng(15)
    f, k = ckframe_instance(rng, 4, 3, 12)
    ckframe_check(f, k)
    kept = _KEPT[f]
    b = whitened_synthesis_matrix(f)
    registered = (len(_KEPT), len(_HANDED))
    counts = counted_factorizations(monkeypatch)
    assert range_included(k, b) and minimal_multiplier(k, b) > 0.0
    assert not counts
    other = crandn(rng, 4, 3)
    douglas_factor(other, b)
    minimal_multiplier(other, b)
    # douglas_factor forms vh from f's w and the Q of one QR, taking no
    # SVD; minimal_multiplier reads f's factorization
    assert counts["qr"] == 1 and "svd" not in counts, dict(counts)
    # they asked as f: f now holds other, and asking again takes nothing
    assert bits(kept.about_k[0]) == bits(other)
    counts.clear()
    douglas_factor(other, b)
    assert not counts, dict(counts)
    # a raw l2 that is no live field's B is answered, but registers nothing
    assert douglas_factor(other, crandn(rng, 4, 12)).included
    assert (len(_KEPT), len(_HANDED)) == registered


# ---------------------------------------------------------------------------
# a handed-out B: read-only, found by its identity, never keeping its field


def test_a_cold_check_builds_b_once(monkeypatch):
    f, k = ckframe_instance(np.random.default_rng(18), 4, 3, 12)
    built = counted_builds(monkeypatch)
    ckframe_check(f, k)
    assert len(built) == 1
    # and handing B out builds it once more, for the caller
    whitened_synthesis_matrix(f)
    assert len(built) == 2


def test_the_handed_out_b_is_read_only():
    f, k = ckframe_instance(np.random.default_rng(19), 4, 3, 12)
    b = whitened_synthesis_matrix(f)
    assert not b.flags.writeable and not b.base.flags.writeable
    with pytest.raises(ValueError):
        b.setflags(write=True)
    with pytest.raises(ValueError):
        b[0, 0] = 1.0
    assert _kept_like(b) is _KEPT[f]
    # the array it views made writable again: b no longer stands for f
    b.base.setflags(write=True)
    assert _kept_like(b) is not _KEPT[f]


@pytest.mark.parametrize("order", ["C", "F"])
def test_a_copy_of_b_is_answered_cold_and_registers_nothing(order, monkeypatch):
    rng = np.random.default_rng(20)
    f, k = ckframe_instance(rng, 4, 3, 12)
    b = whitened_synthesis_matrix(f)
    ckframe_check(f, k)
    warm = douglas_answers(k, b)
    registered = (len(_KEPT), len(_HANDED))
    copy = np.array(b, order=order)
    assert copy.flags.writeable and _same_bytes(copy, b)
    counts = counted_factorizations(monkeypatch)
    # each of the three faces factors the copy itself, to the warm bits
    assert douglas_answers(k, copy) == warm
    assert counts["svd"] == 3, dict(counts)
    # a read-only copy is no handed-out B either
    copy.setflags(write=False)
    counts.clear()
    assert douglas_answers(k, copy) == warm
    assert counts["svd"] == 3, dict(counts)
    assert (len(_KEPT), len(_HANDED)) == registered


def test_a_b_that_outlives_its_field_keeps_nothing_alive():
    rng = np.random.default_rng(21)
    f, k = ckframe_instance(rng, 4, 3, 12)
    cold = douglas_answers(k, np.array(whitened_synthesis_matrix(fresh_copy(f))))
    ckframe_check(f, k)
    b = whitened_synthesis_matrix(f)
    kept = weakref.ref(_KEPT[f])
    assert _HANDED[id(b)][0]() is b and _HANDED[id(b)][1]() is kept()
    del f
    gc.collect()
    assert kept() is None
    # b is answered as a raw l2, to the cold bits
    assert douglas_answers(k, b) == cold
    # and its entry goes with it
    key = id(b)
    del b
    assert key not in _HANDED


def test_concurrent_diagnoses_match_serial_ones():
    problems = [problem_arrays(seed) for seed in range(4)]
    serial = [bits(diagnose(*p)) for p in problems]
    # threads asking about the same and about different fields at once
    jobs = problems * 100
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = list(pool.map(lambda p: bits(diagnose(*p)), jobs, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert concurrent == serial * 100


def test_threads_asking_one_field_about_different_k_get_their_own_answers():
    rng = np.random.default_rng(16)
    f, _ = ckframe_instance(rng, 4, 3, 12)
    synth = synthesis_matrix(f)
    ks = [synth @ crandn(rng, 12, 3) for _ in range(6)] + [crandn(rng, 4, 3) for _ in range(2)]

    def answers(field, k):
        # the frame check and the compression on range(k), both kept per k
        return (outcome("ckframe_check", field, k), outcome("sandwich_check", field, k))

    cold = [answers(SampleField(f.space, f.samples), k) for k in ks]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            warm = list(pool.map(lambda k: answers(f, k), ks * 25, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert warm == cold * 25


def test_threads_checking_one_field_against_different_g_get_their_own_reports():
    # f keeps one pair report at a time, which each thread may replace
    f, g, k = dual_pair()
    gs = [SampleField(f.space, g.samples * (1.0 + 1e-3 * i)) for i in range(6)]
    cold = [bits(verify_dual_pair(fresh_copy(f), fresh_copy(g), k)) for g in gs]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            warm = list(pool.map(lambda g: bits(verify_dual_pair(f, g, k)), gs * 25, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert warm == cold * 25


def test_rank_ambiguity_is_raised_again_on_a_warm_field():
    # sigma = (1, 3e-9): clearly rank 2 at rank_tol 1e-12, ambiguous at 1e-10
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    f = SampleField(space, np.diag([1.0, 3e-9]))
    k = np.eye(2)
    assert ckframe_check(f, k, rank_tol=1e-12).is_ck_frame
    atom_coefficient_map(f, k, rank_tol=1e-12)
    # the one SVD, vh included, is kept; each rank_tol decides on it anew
    held = kept_factor(f)
    assert held.vh is not None
    for _ in range(2):
        for entry_point in (ckframe_check, sandwich_check, atom_coefficient_map):
            with pytest.raises(RankAmbiguous, match="rank of B of f"):
                entry_point(f, k)
    assert kept_factor(f) is held


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
    # S_f = B B* overflows: no B is handed out, no answer is kept, and
    # every call raises
    huge = SampleField(make_measure_space(["a", "b"], [1e308, 1e308]), 1e200 * np.eye(2))
    handed = len(_HANDED)
    for _ in range(2):
        with pytest.raises(NotRepresentable):
            ckframe_check(huge, np.eye(2))
        with pytest.raises(NotRepresentable):
            whitened_synthesis_matrix(huge)
    assert _KEPT[huge].svd is None and _KEPT[huge].about_k == (None, {})
    assert len(_HANDED) == handed


def test_kept_factor_owns_small_arrays_and_dies_with_its_field():
    rng = np.random.default_rng(3)
    f, k = ckframe_instance(rng, 3, 2, 16)
    g = SampleField(f.space, crandn(rng, 16, 2))
    ckframe_check(f, k)
    atom_coefficient_map(f, k)
    sandwich_check(f, k)
    ckframe_check(f, k, rank_tol=1e-12)
    verify_dual_pair(f, g, k)
    # one SVD for both rank_tols, and vh, one column per atom, formed once
    entry = kept_factor(f)
    assert entry.u.shape == (3, 3) and entry.s.shape == (3,) and entry.w.shape == (3, 3)
    vh = entry.vh
    assert vh.shape == (3, 16)
    kept = _KEPT[f]
    held, answers = kept.about_k
    # B is onto, so no distance is kept: it is 0.0 without being formed;
    # pinv(B) k is kept at the one rank_tol the atoms were asked at
    assert set(answers) == {
        "k_svd",
        ("proj", DEFAULT_RANK_TOL),
        ("proj", 1e-12),
        ("coords_norm", DEFAULT_RANK_TOL),
        ("coords_norm", 1e-12),
        ("pinv_k", DEFAULT_RANK_TOL),
        ("on_range", DEFAULT_RANK_TOL, DEFAULT_CHECK_TOL),
        "pair",
    }
    pinv_k = answers[("pinv_k", DEFAULT_RANK_TOL)]
    assert pinv_k.shape == (16, 2)
    # the pair report is kept beside a weak reference to g, not g itself
    (g_ref, *_), report = answers["pair"]
    assert g_ref() is g
    # k's SVD and the compression keep k's left factor and singular
    # values, not its right factor, which nothing reads
    k_right = _thin_svd(k).w
    compression = answers[("on_range", DEFAULT_RANK_TOL, DEFAULT_CHECK_TOL)]
    assert len(answers["k_svd"]) == 2
    for answer in (answers["k_svd"], compression):
        assert all(bits(array) != bits(k_right) for array in arrays_in(answer))
    entries = {"svd": entry, **answers, "k": held}
    assert _kept_like(whitened_synthesis_matrix(f)) is kept
    for value in entries.values():
        for array in arrays_in(value):
            assert array.base is None
            assert not array.flags.writeable
            assert f.space.n_atoms not in array.shape or array is vh or array is pinv_k
    refs = [weakref.ref(entry) for entry in entries.values() if dataclasses.is_dataclass(entry)]
    refs += [weakref.ref(kept), weakref.ref(report)]
    del g
    gc.collect()
    assert g_ref() is None
    del f, kept, entries, entry, answer, vh, held, answers, compression, pinv_k, report
    gc.collect()
    assert all(ref() is None for ref in refs)


# ---------------------------------------------------------------------------
# what a diagnosis reads off factors it already holds: ||k|| off k's one SVD,
# a distance of exactly 0.0 when B is onto, and ||P B|| off P B's own SVD


def reproducing_instance(seed, rank):
    """(f, k) in H = C^5 with B of the given rank (5: onto H) and range(k)
    inside range(B)."""
    rng = np.random.default_rng(seed)
    space = random_space(rng, 12)
    f = SampleField(space, with_rank(rng, 12, 5, rank))
    return f, synthesis_matrix(f) @ crandn(rng, 12, 3)


@pytest.mark.parametrize("rank", [5, 3], ids=["onto", "rank_deficient"])
@pytest.mark.parametrize("seed", range(3))
def test_the_pair_report_is_that_of_fresh_copies_bit_for_bit(rank, seed):
    # k is not onto H = C^5, so the projected frame P f is not f: its ||P B||
    # is sigma_max of its own kept SVD, whether B is onto or not, and a pair
    # check on fresh copies of P f and g, warm or cold, has the same bits
    f, k = reproducing_instance(seed, rank)
    dual = canonical_dual(f, k)
    assert dual.projected_frame is not f
    projected = fresh_copy(dual.projected_frame)
    assert bits(verify_dual_pair(projected, fresh_copy(dual.dual_field), k)) == bits(dual.pair)
    assert bits(verify_dual_pair(dual.projected_frame, dual.dual_field, k)) == bits(dual.pair)
    top = kept_factor(projected).top
    assert bits(dual.pair.lower_bound_cert) == bits(1.0 / top**2)
    cold = operator_norm(whitened_synthesis_matrix(projected))
    assert top == pytest.approx(cold, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("rank", [5, 3], ids=["onto", "rank_deficient"])
@pytest.mark.parametrize("seed", range(3))
def test_the_inclusion_distance_is_exactly_zero_only_for_an_onto_b(rank, seed):
    f, k = reproducing_instance(seed, rank)
    escaping = k + crandn(np.random.default_rng(seed), 5, 3)
    for kk in (k, escaping):
        # cold, and warm after the compression and the atoms read k's SVD
        cold = ckframe_check(fresh_copy(f), kk).residuals["range_inclusion"]
        warm_f = fresh_copy(f)
        for name in ("sandwich_check", "verify_atomic_decomposition", "canonical_dual"):
            outcome(name, warm_f, kk)
        warm = ckframe_check(warm_f, kk).residuals["range_inclusion"]
        assert bits(warm) == bits(cold)
        # and the compression ranks the SVD of k that the check kept
        checked_f = fresh_copy(f)
        ckframe_check(checked_f, kk)
        cold_sandwich = outcome("sandwich_check", fresh_copy(f), kk)
        assert outcome("sandwich_check", checked_f, kk) == cold_sandwich
        reference = np.linalg.norm(
            kk - range_projector(whitened_synthesis_matrix(f)) @ kk, 2
        ) / np.linalg.norm(kk, 2)
        if rank == 5:
            assert cold == 0.0
        else:
            assert cold != 0.0
            assert cold == pytest.approx(reference, rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("rank", [2, 1], ids=["onto", "rank_deficient"])
def test_only_the_commands_that_rank_k_find_it_ambiguous(rank):
    # sigma(k) = (1, 1e-9), in the ambiguous band (1e-10, 1e-8) of rank(k);
    # range(k) sits inside range(B) in H = C^2 (B = I) and in H = C^3 (B of
    # rank 2), so the frame check, which reads only ||k|| off k's SVD, passes
    k = np.diag([1.0, 1e-9]).astype(complex)
    if rank == 1:
        k = np.vstack([k, np.zeros((1, 2))])
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    f = SampleField(space, np.eye(2, k.shape[0]))
    for _ in range(2):
        # cold the first time, warm the second
        assert ckframe_check(f, k).is_ck_frame
        for entry_point in (sandwich_check, canonical_dual):
            with pytest.raises(RankAmbiguous, match="^rank of k: singular value 1.000e-09"):
                entry_point(f, k)
