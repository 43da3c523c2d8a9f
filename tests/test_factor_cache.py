"""What a live field keeps (f._kept, a linalg._Kept): the one thin SVD of
its whitened synthesis matrix B, taken once before any rank is decided,
and the answers about the last operator k asked about, told by its bytes:
k's singular values and left vectors, k read against B per rank, the
compression of S_f to range(k) and the last dual-pair report, told by g's
identity.  A Douglas face given the very B that whitened_synthesis_matrix
handed out asks as its field; any other l2 is answered from scratch.

One hypothesis state machine (CallHistory, at the end) asks every public
face in drawn orders and checks each answer against the same call on
fresh copies, bit for bit; the tests before it pin what is factored and
built, and what the property cannot see.  A spec read back with
parse_problem holds new field objects, so nothing is kept for them yet (a
"cold" field), as in one CLI process."""

import ast
import contextlib
import copy
import dataclasses
import gc
import itertools
import pickle
import struct
import sys
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from ckframe import (
    CkFrameError,
    NotRepresentable,
    RangeNotIncluded,
    RankAmbiguous,
    SampleField,
    atoms_duals,
    cli,
    frame_ops,
    linalg,
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
    DEFAULT_CHECK_TOL,
    DEFAULT_RANK_TOL,
    _AboutK,
    _kept_like,
    _same_bytes,
    _separated_rank,
    _thin_svd,
    operator_norm,
)
import helpers
from helpers import (
    ckframe_instance,
    counted_builds,
    counted_factorizations,
    crandn,
    diagnose,
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
    return f._kept.svd


def kept_objects(x) -> list:
    """x and every object reachable from it through the slots of the kept
    answers (ckframe.linalg's slotted classes), the fields of dataclasses
    and the items of dicts and tuples."""
    if isinstance(x, dict):
        parts = list(x.values())
    elif isinstance(x, tuple):
        parts = list(x)
    elif dataclasses.is_dataclass(x):
        parts = [getattr(x, f.name) for f in dataclasses.fields(x)]
    elif type(x).__module__ == "ckframe.linalg" and hasattr(type(x), "__slots__"):
        parts = [getattr(x, name) for name in type(x).__slots__ if name != "__weakref__"]
    else:
        parts = []
    return [x, *(y for part in parts for y in kept_objects(part))]


def assert_read_only_as_built(svd) -> None:
    """Every array of the _RankedSVD svd is read-only as it was built and
    owns its data, but the reflectors' h, which by design views the one
    array the Householder factorization wrote (see linalg._thin_svd)."""
    h = svd.reflectors[0] if svd.reflectors else None
    for array in (svd.u, svd.s, svd.w, svd.vh, *(svd.reflectors or ())):
        if array is not None:
            assert not array.flags.writeable
            assert array.base is None or array is h


def qr_modes(monkeypatch, b=None) -> list:
    """The mode of each np.linalg.qr from now on of the transpose of the
    wide matrix b (of any matrix when b is None), which is how a wide B is
    factored: "raw", once, whose reflectors later form vh without a QR."""
    modes = []
    qr = np.linalg.qr

    def recording(a, mode="reduced"):
        if b is None or (np.shape(a) == b.T.shape and np.array_equal(a, b.T)):
            modes.append(mode)
        return qr(a, mode)

    monkeypatch.setattr(np.linalg, "qr", recording)
    return modes


def svd_modes(monkeypatch, a=None) -> list:
    """The mode of each np.linalg.svd from now on of the matrix a (of any
    matrix when a is None): "vectors" when it took singular vectors,
    "values" when it took the singular values alone."""
    modes = []
    svd = np.linalg.svd

    def recording(m, *args, **kwargs):
        if a is None or (np.shape(m) == np.shape(a) and np.array_equal(m, a)):
            modes.append("vectors" if kwargs.get("compute_uv", True) else "values")
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return modes


def svd_shapes(monkeypatch) -> list:
    """The shape of the matrix of each np.linalg.svd from now on."""
    shapes = []
    svd = np.linalg.svd

    def recording(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


def test_a_second_call_on_a_field_takes_no_svd_of_b(monkeypatch):
    spec = parse_problem(emit_spec(generate_example("random_ckframe", {})))
    f, k = spec.field_f, spec.operator_k
    b = whitened_synthesis_matrix(f)
    counts = counted_factorizations(monkeypatch)
    modes = qr_modes(monkeypatch, b)

    ckframe_check(f, k)
    assert modes == ["raw"]
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
    # the dual is read off vh: the first call forms it from the reflectors
    # kept by the check, with no QR and no build of B, and f keeps it
    built = counted_builds(monkeypatch)
    canonical_dual(f, k)
    assert not modes
    assert f not in built
    canonical_dual(f, k)
    assert not modes


def test_atoms_takes_its_own_full_svd_and_reseeds(monkeypatch):
    # the coefficient map is read off vh: atoms forms it once from the kept
    # w and reflectors, with no second QR, f keeps it, and douglas_factor
    # reads it; the checks never form it
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
    assert not counts
    assert modes == ["raw"]
    assert kept_factor(f).reflectors is None
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
    assert modes == ["raw"]
    assert bits(kept_factor(cold.field_f)) == bits(kept_factor(f))


@pytest.mark.parametrize("shape", [(3, 8), (5, 5), (8, 3), (4, 12)])
def test_the_left_factor_is_the_same_bits_with_or_without_vh(shape):
    rng = np.random.default_rng(sum(shape))
    full = crandn(rng, *shape)
    # and a rank-deficient b, whose rank is decided on the same singular values
    for b in (full, full[:, :1] @ full[:1, :]):
        unranked, formed = _thin_svd(b), _thin_svd(b).with_vh()
        assert (unranked.vh is None) == (shape[0] < shape[1])
        # read-only when built, before vh is formed and after, with no copy
        assert_read_only_as_built(unranked)
        assert_read_only_as_built(formed)
        left, with_vh = (svd.ranked(DEFAULT_RANK_TOL, "b") for svd in (unranked, formed))
        # a ranked slice views read-only factors, and is read-only itself
        for svd in (left, with_vh):
            assert not any(a.flags.writeable for a in (svd.u, svd.s, svd.w))
        assert bits((left.u, left.s, left.top, left.w)) == bits(
            (with_vh.u, with_vh.s, with_vh.top, with_vh.w)
        )
        # vh formed later from the kept reflectors and the unranked w, as a
        # field's _Kept forms it from its read-only factors, is the one
        # formed at once, ranked or not
        later = _thin_svd(b).with_vh()
        assert_read_only_as_built(later)
        assert bits(later) == bits(formed)
        assert bits(later.ranked(DEFAULT_RANK_TOL, "b")) == bits(with_vh)
        # a ranked slice holds no vh; its reader slices the unranked one
        r = with_vh.s.size
        vh = formed.vh[:r]
        assert np.allclose(vh @ vh.conj().T, np.eye(r), atol=1e-13)
        assert np.allclose((with_vh.u * with_vh.s) @ vh, b, atol=1e-13 * with_vh.top)


def wide_b(case: str) -> np.ndarray:
    """A wide B whose Householder factorization of B.T is a corner case."""
    rng = np.random.default_rng(len(case))
    if case == "zero column":
        b = crandn(rng, 3, 8)
        b[:, 2] = 0.0
        return b
    if case == "zero":
        return np.zeros((3, 8), dtype=complex)
    if case == "duplicated atoms":
        # an orthonormal basis with its last atom split into two half-weight
        # copies: the first reflectors meet zero subcolumns, so tau = 0
        f = SampleField(make_measure_space("abcd", [1.0, 1.0, 0.5, 0.5]), np.eye(3)[[0, 1, 2, 2]])
        return np.array(whitened_synthesis_matrix(f))
    if case == "one row":
        return crandn(rng, 1, 7)
    return crandn(rng, 4, 1) @ crandn(rng, 1, 10)  # rank 1


@pytest.mark.parametrize("case", ["zero column", "zero", "duplicated atoms", "one row", "rank 1"])
def test_vh_is_formed_from_the_kept_reflectors_of_a_wide_b(case):
    b = wide_b(case)
    svd = _thin_svd(b)
    h, tau = svd.reflectors
    assert svd.vh is None and h.shape == b.shape
    assert (tau == 0).any() == (case in ("zero", "duplicated atoms"))
    # a field keeps them as factored, read-only, not copied
    kept = svd.reflectors
    assert kept[0] is h and kept[1] is tau and not h.flags.writeable
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        formed = svd.with_vh()
    assert formed.reflectors is None and bits(formed.w) == bits(svd.w)
    vh, m = formed.vh, b.shape[0]
    assert np.abs(vh @ vh.conj().T - np.eye(m)).max() <= 1e-13
    assert np.abs((formed.u * formed.s) @ vh - b).max() <= 1e-13 * formed.top
    # the Q of a reduced QR of B.T, as vh was formed before
    assert np.abs(vh - svd.w @ np.linalg.qr(b.T)[0].T).max() <= 1e-14


def test_a_cold_dual_takes_one_qr_of_b(monkeypatch, tmp_path):
    text = emit_spec(generate_example("random_ckframe", {}))
    spec = parse_problem(text)
    modes = qr_modes(monkeypatch, whitened_synthesis_matrix(parse_problem(text).field_f))
    canonical_dual(spec.field_f, spec.operator_k)
    assert modes == ["raw"]
    modes.clear()
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert cli.main(["dual", str(path), "--out", str(tmp_path / "report.json")]) == 0
    assert modes == ["raw"]


def test_a_refused_face_forms_no_vh_and_the_first_reader_forms_it_once(monkeypatch):
    # a wide B of rank 1 whose range, the first axis, misses half of k = I
    f = SampleField(make_measure_space("abc", [1.0, 1.0, 1.0]), np.array([[1.0, 0], [1, 0], [2, 0]]))
    b, k = whitened_synthesis_matrix(f), np.eye(2, dtype=complex)
    with pytest.raises(RangeNotIncluded):
        atom_coefficient_map(f, k)
    assert not douglas_factor(k, b).included
    # as after a check, the kept SVD holds the reflectors and no vh
    assert kept_factor(f).vh is None and kept_factor(f).reflectors is not None
    formed = []
    with_vh = linalg._RankedSVD.with_vh
    monkeypatch.setattr(linalg._RankedSVD, "with_vh", lambda svd: formed.append(svd) or with_vh(svd))
    # the first face to read vh on an included k forms it, once, for all
    included = np.array([[1.0], [0.0]], dtype=complex)
    atom_coefficient_map(f, included)
    assert len(formed) == 1 and kept_factor(f).reflectors is None
    douglas_factor(included, b)
    canonical_dual(f, included)
    assert len(formed) == 1 and kept_factor(f).vh.shape == (2, 3)


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
    the compression needs no SVD and no left vector of k, the sandwich
    reads B's singular values, and the projected frame is f itself, whose
    ||B|| is sigma_max.  So k's SVD takes its singular values alone, which
    verify_dual_pair then reads as f, while each B's (of its triangular
    factor R.T) takes vectors.  Without the memo one lib_dense diagnosis
    took 14 SVDs and 29 norm(., 2), and without the onto rule 6 SVDs.

    B is built 5 times: f's for its SVD, f's and the dual's for the pair
    mismatch, the dual's for its SVD and f's handed out for the Douglas
    faces.  f's vh is formed from the reflectors of its one QR, with no
    build of B.  The second pair check reads the report kept for (f, g, k);
    it took 8 builds when it was checked again."""
    counts = counted_factorizations(monkeypatch)
    modes = qr_modes(monkeypatch)
    svds = svd_modes(monkeypatch)
    built = counted_builds(monkeypatch)
    diagnosis = diagnose(*arrays)
    assert dict(counts) == {"svd": 3, "qr": 2, "norm2": 2}
    # f's B once, whose reflectors form atom_coefficient_map's vh, and the
    # dual's B once
    assert modes == ["raw", "raw"]
    # f's R.T, k, and the dual's R.T
    assert svds == ["vectors", "values", "vectors"]
    assert len(built) == 5
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
    # asks for inside fill the same answers about k, so none is lost when
    # the compression is stored.  k has fewer columns than rows, so its left
    # vectors come with its singular values, from one SVD
    spec = parse_problem(emit_spec(generate_example("random_bessel_pair", {}, 0)))
    f, k = spec.field_f, spec.operator_k
    sandwich_check(f, k)
    counts = counted_factorizations(monkeypatch)
    ckframe_check(f, k)
    assert not counts, dict(counts)


# ---------------------------------------------------------------------------
# k's singular values, taken without its vectors when k may be onto H


@pytest.mark.parametrize("shape", [(5, 3), (4, 4), (3, 6)], ids=["narrow", "square", "wide"])
@pytest.mark.parametrize("rank", ["full", "deficient"])
def test_k_keeps_the_singular_values_of_the_svd_its_shape_calls_for(shape, rank):
    rng = np.random.default_rng(sum(shape))
    k = with_rank(rng, *shape, min(shape) - (rank == "deficient"))
    about = _AboutK(k)
    sigma = about.values()
    if shape[1] < shape[0]:
        # never onto: the vectors of the same SVD are kept beside the values
        u, values, _ = np.linalg.svd(k, full_matrices=False)
        assert bits(about.u) == bits(u)
    else:
        values = np.linalg.svd(k, compute_uv=False)
        assert about.u is None
    assert bits(sigma) == bits(values)
    assert not sigma.flags.writeable and sigma.base is None


def rank_deficient_wide_instance(seed=0):
    """(f, k): f a frame in H = C^3 over 12 atoms, k (3 x 4) of rank 2."""
    rng = np.random.default_rng(seed)
    f = SampleField(random_space(rng, 12), crandn(rng, 12, 3))
    return f, with_rank(rng, 3, 4, 2)


RANGE_K_FACES = ("sandwich_check", "subspace_cframe_margin", "inverse_on_range", "canonical_dual")


@pytest.mark.parametrize("first", [None, "verify_atomic_decomposition", "verify_dual_pair"])
def test_a_rank_deficient_wide_k_takes_its_vectors_once_whatever_asked_first(first, monkeypatch):
    f, k = rank_deficient_wide_instance()
    g = SampleField(f.space, crandn(np.random.default_rng(1), 12, 4))
    # each face answers (raises nothing), cold
    cold = {name: bits(ENTRY_POINTS[name](fresh_copy(f), k)) for name in RANGE_K_FACES}
    modes = svd_modes(monkeypatch, k)
    if first == "verify_dual_pair":
        verify_dual_pair(f, g, k)
    elif first is not None:
        outcome(first, f, k)
    answers = {name: outcome(name, f, k) for name in RANGE_K_FACES}
    # the values for ||k|| and rank(k), then the vectors once, on the first
    # question that needs a basis of range(k)
    assert modes == ["values", "vectors"]
    assert answers == cold
    assert f._kept.about.u.shape == (3, 3)


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
    assert bits(f._kept.about.k) == bits(signed)
    ckframe_check(f, k)
    counts.clear()
    # each of the three faces factors the flipped copy itself, and its
    # answers are its own
    assert douglas_answers(k, flipped) == cold_flipped != douglas_answers(k, b)
    assert counts["svd"] == 3, dict(counts)


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


def test_the_douglas_faces_ask_as_a_live_field_and_register_nothing(monkeypatch):
    rng = np.random.default_rng(15)
    f, k = ckframe_instance(rng, 4, 3, 12)
    ckframe_check(f, k)
    kept = f._kept
    b = whitened_synthesis_matrix(f)
    registered = len(_HANDED)
    counts = counted_factorizations(monkeypatch)
    assert range_included(k, b) and minimal_multiplier(k, b) > 0.0
    assert not counts
    other = crandn(rng, 4, 3)
    douglas_factor(other, b)
    minimal_multiplier(other, b)
    # douglas_factor forms vh from f's w and the reflectors of f's one QR,
    # taking no QR and no SVD of B, only x's norm(., 2); minimal_multiplier
    # reads f's factorization and that x
    assert dict(counts) == {"norm2": 1}, dict(counts)
    # they asked as f: f now holds other, and asking again takes nothing
    assert bits(kept.about.k) == bits(other)
    counts.clear()
    douglas_factor(other, b)
    assert not counts, dict(counts)
    # a raw l2 that is no live field's B is answered, but registers nothing
    assert douglas_factor(other, crandn(rng, 4, 12)).included
    assert len(_HANDED) == registered


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


def test_a_fields_arrays_cannot_be_rewritten_under_its_kept_answers():
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    f = SampleField(space, np.eye(2))
    k = np.eye(2)
    bounds = ckframe_check(f, k).bounds
    assert (bounds.lower, bounds.upper) == (1.0, 1.0)
    g = SampleField(space, np.eye(2))
    report = bits(verify_dual_pair(f, g, k))
    for field in (f, g):
        for array in (field.samples, field.samples.base):
            with pytest.raises(ValueError):
                array.setflags(write=True)
            with pytest.raises(ValueError):
                array[...] = 3.0
    # so the kept answers are those of the fields' own bytes, as a fresh
    # field's, and another field's answers are its own
    assert bits(ckframe_check(f, k)) == bits(ckframe_check(fresh_copy(f), k))
    assert bits(verify_dual_pair(f, g, k)) == report
    threes = ckframe_check(SampleField(space, np.full((2, 2), 3.0)), k).bounds
    assert threes.lower == 0.0 and threes.upper == pytest.approx(36.0, rel=1e-14)


def test_the_handed_out_b_is_read_only():
    f, k = ckframe_instance(np.random.default_rng(19), 4, 3, 12)
    b = whitened_synthesis_matrix(f)
    assert not b.flags.writeable and not b.base.flags.writeable
    with pytest.raises(ValueError):
        b.setflags(write=True)
    with pytest.raises(ValueError):
        b[0, 0] = 1.0
    # nor can the array it views be made writable: b stands for f while it lives
    with pytest.raises(ValueError):
        b.base.setflags(write=True)
    assert _kept_like(b) is f._kept


def test_a_handed_out_b_cannot_be_rewritten_under_its_answers():
    f, k = ckframe_instance(np.random.default_rng(22), 4, 3, 12)
    b = whitened_synthesis_matrix(f)
    ckframe_check(f, k)
    for array in (b, b.base):
        with pytest.raises(ValueError):
            array.setflags(write=True)
    # so the Douglas faces on b read f's kept answers, those of a fresh field
    assert douglas_answers(k, b) == douglas_answers(k, whitened_synthesis_matrix(fresh_copy(f)))


def test_a_rewrite_of_a_handed_out_b_leaves_no_stale_answer():
    f = SampleField(make_measure_space(["a", "b"], [1.0, 1.0]), np.eye(2))
    b, k = whitened_synthesis_matrix(f), np.eye(2)
    assert douglas_factor(k, b).lambda_min == 1.0
    # the base made writable, doubled and frozen again, were that possible
    with contextlib.suppress(ValueError):
        b.base.setflags(write=True)
        b.base[...] *= 2
        b.base.setflags(write=False)
    assert bits(douglas_factor(k, b)) == bits(douglas_factor(k, np.array(b)))


@pytest.mark.parametrize("order", ["C", "F"])
def test_a_copy_of_b_is_answered_cold_and_registers_nothing(order, monkeypatch):
    rng = np.random.default_rng(20)
    f, k = ckframe_instance(rng, 4, 3, 12)
    b = whitened_synthesis_matrix(f)
    ckframe_check(f, k)
    warm = douglas_answers(k, b)
    registered = len(_HANDED)
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
    assert len(_HANDED) == registered


def test_a_b_that_outlives_its_field_keeps_nothing_alive():
    rng = np.random.default_rng(21)
    f, k = ckframe_instance(rng, 4, 3, 12)
    cold = douglas_answers(k, np.array(whitened_synthesis_matrix(fresh_copy(f))))
    ckframe_check(f, k)
    b = whitened_synthesis_matrix(f)
    kept = weakref.ref(f._kept)
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
        # the frame check, kept per k, and the compression on range(k), built
        # from what the check kept
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


def test_unrepresentable_inputs_are_raised_again_on_a_warm_field(monkeypatch):
    # A = 1 / ||pinv(B) k||^2 = 1e400 for k = 1e-200 I, on a field that a
    # well-scaled k has already warmed
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    f, k = SampleField(space, np.eye(2)), np.eye(2, dtype=complex)
    assert ckframe_check(f, k).is_ck_frame
    for _ in range(2):
        for entry_point in (ckframe_check, atom_coefficient_map):
            with pytest.raises(NotRepresentable, match="lower frame bound"):
                entry_point(f, 1e-200 * k)
    # a mismatch k - B_f B_g* past double range, after a report was kept:
    # the kept report stays, and asking for it again builds nothing
    f, g = SampleField(space, np.ones((2, 2))), SampleField(space, np.eye(2))
    report = bits(verify_dual_pair(f, g, k))
    kept = f._kept.about.pair
    huge = SampleField(space, np.full((2, 2), 1e308))
    for _ in range(2):
        with pytest.raises(NotRepresentable, match="pair mismatch"):
            verify_dual_pair(f, huge, k)
        assert f._kept.about.pair is kept
    built = counted_builds(monkeypatch)
    assert bits(verify_dual_pair(f, g, k)) == report and not built
    # S_f = B B* overflows: no B is handed out, no answer is kept, and
    # every call raises
    huge = SampleField(make_measure_space(["a", "b"], [1e308, 1e308]), 1e200 * np.eye(2))
    handed = len(_HANDED)
    for _ in range(2):
        with pytest.raises(NotRepresentable, match="frame operator"):
            ckframe_check(huge, k)
        with pytest.raises(NotRepresentable, match="frame operator"):
            whitened_synthesis_matrix(huge)
    assert huge._kept.svd is None and huge._kept.about is None
    assert len(_HANDED) == handed


@pytest.mark.parametrize("n0", [2, 3, 5])
def test_kept_answers_fill_every_slot_own_small_arrays_and_die_with_their_field(n0):
    rng = np.random.default_rng(3)
    f, k = ckframe_instance(rng, 3, n0, 16)
    g = SampleField(f.space, crandn(rng, 16, n0))
    ckframe_check(f, k)
    # before vh is formed, every kept array is read-only and owns its data,
    # but the reflectors' h, a view by design
    h, _ = kept_factor(f).reflectors
    for array in kept_objects(f._kept):
        if isinstance(array, np.ndarray):
            assert not array.flags.writeable and (array.base is None or array is h)
    atom_coefficient_map(f, k)
    sandwich_check(f, k)
    ckframe_check(f, k, rank_tol=1e-12)
    verify_dual_pair(f, g, k)
    kept = f._kept
    objects = kept_objects(kept)
    # every slot of every kept answer is filled: B is of rank 3 at both
    # rank_tols, so they read one _Coords, and the atoms formed its factor
    slotted = [x for x in objects if hasattr(type(x), "__slots__") and type(x).__module__ == "ckframe.linalg"]
    assert {type(x).__name__ for x in slotted} == {"_Kept", "_AboutK", "_Coords"}
    # but k's left vectors when k (3 x n0) is onto H: no question needs them
    onto = n0 >= 3
    for x in slotted:
        unfilled = {"__weakref__", "u"} if onto and isinstance(x, _AboutK) else {"__weakref__"}
        assert all(getattr(x, name) is not None for name in type(x).__slots__ if name not in unfilled)
    about = kept.about
    assert len(about.coords) == 1
    # one SVD, vh included, with one column per atom
    assert kept.svd.u.shape == (3, 3) and kept.svd.w.shape == (3, 3) and kept.svd.vh.shape == (3, 16)
    # the pair report is kept beside a weak reference to g, not g itself
    (g_ref, *_), report = about.pair
    assert g_ref() is g
    # a narrow k (3 x 2) keeps its singular values and the left vectors of
    # the same SVD, which the compression reads, not its right factor; a k
    # onto H keeps its singular values alone
    u, sigma, k_right = np.linalg.svd(k, full_matrices=False)
    if onto:
        assert about.u is None and bits(about.s) == bits(np.linalg.svd(k, compute_uv=False))
    else:
        assert bits(about.s) == bits(sigma) and bits(about.u) == bits(u)
    arrays = [x for x in objects if isinstance(x, np.ndarray)]
    (pinv_k,) = [coords.pinv_k for coords in about.coords.values()]
    for array in arrays:
        assert array.base is None and not array.flags.writeable
        assert f.space.n_atoms not in array.shape or array is kept.svd.vh or array is pinv_k
        assert bits(array) != bits(k_right)
    refs = [weakref.ref(x) for x in [kept, kept.svd, report, *arrays]]
    del g
    gc.collect()
    assert g_ref() is None
    del f, kept, objects, slotted, about, report, arrays, array, pinv_k, x
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_a_field_pickles_as_its_value_without_its_kept_answers():
    f, g, k = dual_pair()
    report = bits(verify_dual_pair(f, g, k))
    for unpickled in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert f._kept.about is not None and unpickled._kept is not f._kept
        assert unpickled._kept.svd is None and unpickled._kept.about is None
        assert bits(unpickled.samples) == bits(f.samples)
        # its samples are frozen anew, so no write can make its answers stale
        for array in (unpickled.samples, unpickled.samples.base):
            with pytest.raises(ValueError):
                array.setflags(write=True)
        with pytest.raises(ValueError):
            unpickled.samples[...] = 3.0
        assert bits(verify_dual_pair(unpickled, fresh_copy(g), k)) == report


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


# ---------------------------------------------------------------------------
# one call history against fresh copies: whatever a field was asked before,
# every answer is the same call's on fresh copies of its operands, bit for bit

#: The public faces, each of which reads what its field keeps.
HISTORY_FACES = [
    "ckframe_check", "douglas_factor", "atom_coefficient_map", "canonical_dual",
    "verify_dual_pair", "sandwich_check", "subspace_cframe_margin", "inverse_on_range",
]
#: The faces whose every answer is kept, so that the same question asked
#: again factors nothing and builds no B.  A failure is never kept.
ASKED_AGAIN_FOR_FREE = {"ckframe_check", "douglas_factor", "atom_coefficient_map", "verify_dual_pair"}
TOLERANCES = st.lists(
    st.tuples(st.sampled_from([DEFAULT_CHECK_TOL, 1e-6, 1e-12]), st.sampled_from([DEFAULT_RANK_TOL, 1e-12, 1e-6])),
    min_size=1,
    max_size=3,
)
K_NAMES = st.sampled_from(["inside", "leaky", "escaping", "zero", "rank_one", "ambiguous"])


def answer(face, f, g, k, b, tol, rank_tol):
    """bits of face's answer on these operands, after each array it handed
    out was overwritten (a kept one would be read-only, or change later
    answers), or "raised" with the type and message of its library error."""
    try:
        if face == "douglas_factor":
            result = douglas_factor(k, b, rank_tol, tol)
            handed = [result.factor]
            result = (result, range_included(k, b, rank_tol, tol), minimal_multiplier(k, b, rank_tol, tol))
        elif face == "verify_dual_pair":
            result, handed = verify_dual_pair(f, g, k, tol, rank_tol), []
        elif face == "atom_coefficient_map":
            result = atom_coefficient_map(f, k, rank_tol, tol)
            handed = [result.matrix]
            result = (result, verify_atomic_decomposition(f, k, result))
        else:
            result = getattr(atoms_duals, face, getattr(frame_ops, face, None))(f, k, rank_tol, tol)
            handed = [result] if isinstance(result, np.ndarray) else []
    except CkFrameError as exc:
        return ("raised", type(exc).__name__, str(exc))
    answered = bits(result)
    for array in handed:
        if array is not None:
            array[...] = 7.0
    return answered


class CallHistory(RuleBasedStateMachine):
    """One field f in C^n over a few atoms, whose B may have a singular
    value of 1e-7 sigma_max (a rank that the drawn rank_tol decides) or be
    of rank n - 1, asked every public question in a drawn order, at drawn
    tolerances, about a k drawn from a pool of shape (n, n0) (inside
    range(B), 1e-7 outside it, escaping it, zero, rank one, and with a
    singular value in the rank band of the default rank_tol), which may be
    copied, written in place or replaced, and a g (random, the canonical
    dual of (f, k), or that dual off by 1e-7) that may be copied or dropped
    and collected.  The Douglas faces get f's handed-out B, a read-only
    copy of it, or a writable copy that may be rewritten in place."""

    @initialize(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 4),
        extra=st.integers(-1, 3),
        wide=st.sampled_from([-1, 0, 2]),
        deficient=st.booleans(),
        small=st.booleans(),
        k=K_NAMES,
    )
    def setup(self, seed, n, extra, wide, deficient, small, k):
        rng = self.rng = np.random.default_rng(seed)
        atoms, n0 = n + extra, max(1, n + wide)
        space = random_space(rng, atoms)
        u, s, vh = np.linalg.svd(crandn(rng, n, atoms), full_matrices=False)
        s[s.size - 1] *= 0.0 if deficient else 1.0
        s[s.size - 1 - deficient] *= 1e-7 if small and s.size > 1 + deficient else 1.0
        b = (u * s) @ vh
        self.f = SampleField(space, b.T / np.sqrt(space.weight_array)[:, None])
        inside = b @ crandn(rng, atoms, n0)
        u, s, vh = np.linalg.svd(inside, full_matrices=False)
        r = int(np.count_nonzero(s > 1e-6 * s[0]))
        s[r:] = 0.0
        s[r - 1] = 1e-9 * s[0] if r > 1 else s[r - 1]
        escaping = crandn(rng, n, n0)
        self.pool = {
            "inside": inside,
            "leaky": inside + 1e-7 * np.linalg.norm(inside, 2) * (escaping - range_projector(b) @ escaping),
            "escaping": escaping,
            "zero": np.zeros((n, n0), dtype=complex),
            "rank_one": b @ with_rank(rng, atoms, n0, 1),
            "ambiguous": (u * s) @ vh,
        }
        self.k = self.pool[k].copy()
        self.g = SampleField(space, crandn(rng, atoms, n0))
        self.b = whitened_synthesis_matrix(self.f)
        self.writable = np.array(self.b)

    @rule(name=K_NAMES, how=st.sampled_from(["replace", "write_in_place", "copy"]))
    def change_k(self, name, how):
        if how == "replace":
            self.k = self.pool[name].copy()
        elif how == "write_in_place":
            self.k[...] = self.pool[name]
        else:
            self.k = self.k.copy()

    @rule(kind=st.sampled_from(["random", "dual", "near_dual", "copy"]), collect=st.booleans(),
          tolerances=TOLERANCES)
    def change_g(self, kind, collect, tolerances):
        samples = self.g.samples
        if kind == "random":
            samples = crandn(self.rng, *samples.shape)
        elif kind != "copy":
            # the canonical dual of fresh copies, which leaves f cold
            try:
                dual = canonical_dual(fresh_copy(self.f), self.k).dual_field.samples
                samples = dual * (1.0 if kind == "dual" else 1.0 + 1e-7)
            except CkFrameError:
                pass
        if collect:
            # g is freed at once, so that the new g may take its address: a
            # pair report kept for g must not be read as the new g's
            self.ask(["verify_dual_pair"], "handed", tolerances[:1])
            self.g = None
        self.g = SampleField(self.f.space, samples)
        if collect:
            # g holds no cycle and was freed at once, so the young generation
            # is enough: a full collection of hypothesis's heap takes 30 ms
            gc.collect(0)
            self.ask(["verify_dual_pair"], "handed", tolerances[:1])

    @rule(scale=st.sampled_from([1.0, 2.0, -1.0]))
    def rewrite_writable_b(self, scale):
        self.writable[...] = scale * self.b

    @rule(order=st.permutations(HISTORY_FACES), l2=st.sampled_from(["handed", "copy", "writable"]),
          tolerances=TOLERANCES)
    def ask(self, order, l2, tolerances):
        """Every face in the drawn order at each drawn (tol, rank_tol), each
        asked twice in a row."""
        f, g, k = self.f, self.g, self.k
        fresh_f, fresh_g = fresh_copy(f), fresh_copy(g)
        if l2 == "handed":
            b, cold_b = self.b, whitened_synthesis_matrix(fresh_f)
        else:
            b = self.writable if l2 == "writable" else np.array(self.b)
            b.flags.writeable = l2 == "writable"
            cold_b = np.array(b)
        for (tol, rank_tol), face in itertools.product(tolerances, order):
            cold = answer(face, fresh_f, fresh_g, k.copy(), cold_b, tol, rank_tol)
            assert answer(face, f, g, k, b, tol, rank_tol) == cold, face
            with pytest.MonkeyPatch.context() as patch:
                counts, built = counted_factorizations(patch), counted_builds(patch)
                shapes = svd_shapes(patch)
                assert answer(face, f, g, k, b, tol, rank_tol) == cold, face
            # asked again, a kept answer is read off what f kept
            kept = face in ASKED_AGAIN_FOR_FREE and cold[0] != "raised"
            if kept and (face != "douglas_factor" or l2 == "handed"):
                assert not counts and not built, (face, dict(counts), len(built))
            elif face == "subspace_cframe_margin" and cold[0] != "raised":
                # the compression is built again off what f kept: no B and no
                # QR, and one SVD, of c (rank(B) x rank(k)), unless k and B
                # are both onto H
                c = (kept_factor(f).ranked(rank_tol, "B").s.size, _separated_rank(f._kept.about.s, rank_tol, "k"))
                assert not built and set(counts) <= {"svd"}, (dict(counts), len(built))
                assert shapes == ([] if c == (f.dim, f.dim) else [c]), (shapes, c)


CallHistory.TestCase.settings = settings(max_examples=50, stateful_step_count=25, deadline=None)
test_every_answer_is_that_of_fresh_copies_whatever_was_asked_before = CallHistory.TestCase
