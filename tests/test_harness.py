"""Problem-spec JSON schema, example generators, and command dispatch."""

import dataclasses
import gc
import hashlib
import json
import math
import tracemalloc
import types
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ckframe import (
    BadParams,
    CkFrameError,
    DimMismatch,
    ParseError,
    SampleField,
    SpaceMismatch,
    UnknownKind,
    ValidationError,
    make_measure_space,
)
from ckframe import atoms_duals, harness, linalg
from ckframe.atoms_duals import (
    DualPairReport,
    atom_coefficient_map,
    canonical_dual,
    inverse_on_range,
    sandwich_check,
    subspace_cframe_margin,
    verify_dual_pair,
)
from ckframe.douglas import DouglasResult, douglas_factor, minimal_multiplier, range_included
from ckframe.frame_ops import CkFrameReport, FrameBounds, ckframe_check, frame_operator, whitened_synthesis_matrix
from ckframe.harness import (
    COMMANDS,
    GENERATOR_KINDS,
    ProblemSpec,
    RunReport,
    STATUS_DEGENERATE,
    STATUS_FAILED,
    STATUS_OK,
    emit_report,
    emit_spec,
    generate_example,
    parse_problem,
    run_command,
    spec_digest,
)
from ckframe.linalg import pseudoinverse
from helpers import (
    counted_builds,
    counted_factorizations,
    oracle_spec_text,
    reference_emit_report,
    strip_wall_time,
)

MINIMAL_SPEC = """
{
  "space": {"labels": ["a", "b"], "weights": [1.0, 1.0]},
  "dim_h": 2,
  "dim_h0": 2,
  "field_f": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
  "operator_k": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
}
"""


def minimal_spec():
    return parse_problem(MINIMAL_SPEC)


def spec_with(**overrides):
    doc = json.loads(MINIMAL_SPEC)
    doc.update(overrides)
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# parsing and validation


def test_parse_minimal_spec():
    spec = minimal_spec()
    assert spec.dim_h == 2
    assert spec.dim_h0 == 2
    assert spec.space.n_atoms == 2
    assert spec.field_g is None
    assert np.array_equal(spec.operator_k, np.eye(2))


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError):
        parse_problem("{not json")


def test_parse_rejects_non_object_top_level():
    with pytest.raises(ValidationError):
        parse_problem("[1, 2]")


def test_parse_rejects_zero_weight_with_path():
    text = spec_with(space={"labels": ["a", "b"], "weights": [0.0, 1.0]})
    with pytest.raises(ValidationError) as exc:
        parse_problem(text)
    assert exc.value.path == "space.weights[0]"


def test_parse_rejects_row_length_mismatch():
    text = spec_with(field_f=[[[1, 0]], [[0, 0], [1, 0]]])
    with pytest.raises(ValidationError) as exc:
        parse_problem(text)
    assert exc.value.path == "field_f[0]"


def test_parse_rejects_unknown_key():
    with pytest.raises(ValidationError) as exc:
        parse_problem(spec_with(banana=1))
    assert exc.value.path == "banana"


def test_parse_rejects_missing_required_key():
    doc = json.loads(MINIMAL_SPEC)
    del doc["operator_k"]
    with pytest.raises(ValidationError) as exc:
        parse_problem(json.dumps(doc))
    assert exc.value.path == "operator_k"


def test_parse_rejects_bad_tolerances():
    with pytest.raises(ValidationError) as exc:
        parse_problem(spec_with(tolerances={"check_tol": 0.0}))
    assert exc.value.path == "tolerances.check_tol"
    with pytest.raises(ValidationError):
        parse_problem(spec_with(tolerances={"typo_tol": 1e-8}))
    # a null tolerance is no number, where a spec's None is an absent one
    with pytest.raises(ValidationError) as exc:
        parse_problem(spec_with(tolerances={"rank_tol": None}))
    assert str(exc.value) == "expected a number, got NoneType at 'tolerances.rank_tol'"
    # a rank_tol from 1 up counts no direction, caught when the spec is read
    for rank_tol in (1, 2):
        with pytest.raises(ValidationError) as exc:
            parse_problem(spec_with(tolerances={"rank_tol": rank_tol}))
        assert exc.value.path == "tolerances.rank_tol"


def test_parse_rejects_bool_and_bad_dims():
    with pytest.raises(ValidationError) as exc:
        parse_problem(spec_with(dim_h=True))
    assert exc.value.path == "dim_h"
    with pytest.raises(ValidationError):
        parse_problem(spec_with(dim_h0=0))


def test_parse_rejects_bad_field_g():
    text = spec_with(field_g=[[[1, 0]], [[0, 0]]], dim_h0=2)
    with pytest.raises(ValidationError) as exc:
        parse_problem(text)
    assert exc.value.path.startswith("field_g")


def test_parse_rejects_non_finite_entries():
    with pytest.raises(ValidationError):
        parse_problem(spec_with(operator_k=[[[1, 0], [0, 0]], [[0, 0], ["nan", 0]]]))


def test_parse_runs_no_collection_over_the_json_tree():
    # field_f alone has 2 * 800 * 64 = 102,400 leaves
    text = emit_spec(generate_example("random_ckframe", {"n": 64, "n0": 32, "atoms": 800}))
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        parse_problem(text)
    finally:
        gc.callbacks.remove(count)
    assert starts == []


@pytest.mark.parametrize(
    "text,error",
    [(MINIMAL_SPEC, None), ("{not json", ParseError), (spec_with(dim_h=0), ValidationError)],
    ids=["parsed", "parse-error", "validation-error"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_parse_leaves_the_collector_as_it_found_it(text, error, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            parse_problem(text)
        else:
            with pytest.raises(error):
                parse_problem(text)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_parse_accepts_tolerances():
    spec = parse_problem(spec_with(tolerances={"check_tol": 1e-6, "rank_tol": 1e-9}))
    assert spec.check_tol == 1e-6
    assert spec.rank_tol == 1e-9


#: Tolerance values of every kind a caller may hand ProblemSpec: floats
#: (non-finite included), ints, bools, 400-digit ints and numpy scalars.
tolerance_values = st.one_of(
    st.floats(),
    st.floats(min_value=5e-324, max_value=1.0),
    st.integers(-3, 3),
    st.booleans(),
    st.integers(10**399, 10**400 - 1).map(lambda i: -i if i % 2 else i),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)


def outcome(call):
    """What call() returns, or the path of the ValidationError it raises."""
    try:
        return call()
    except ValidationError as exc:
        return exc.path


@given(st.none() | tolerance_values, st.none() | tolerance_values)
@example(5.0, None)
@example(None, True)
@example(None, 1)
def test_a_spec_holds_exactly_the_tolerances_its_text_may_hold(rank_tol, check_tol):
    # the tolerances as the constructor is handed them, and as a document spells them
    tols = {"rank_tol": rank_tol, "check_tol": check_tol}
    spelled = {key: v.item() if isinstance(v, np.generic) else v for key, v in tols.items() if v is not None}
    base = minimal_spec()
    built = outcome(lambda: ProblemSpec(base.space, base.field_f, base.operator_k, **tols))
    parsed = outcome(lambda: parse_problem(spec_with(tolerances=spelled)))
    if isinstance(built, ProblemSpec):
        assert parsed == built
        assert parse_problem(emit_spec(built)) == built
        assert all(type(getattr(built, key)) is float for key in spelled)
    else:
        assert built == parsed
        assert built in {f"tolerances.{key}" for key in spelled}


# ---------------------------------------------------------------------------
# serialization round trips


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_round_trip_all_kinds(kind):
    spec = generate_example(kind, {}, seed=3)
    again = parse_problem(emit_spec(spec))
    assert again == spec
    assert spec_digest(again) == spec_digest(spec)


def test_digest_format_and_sensitivity():
    a = generate_example("onb", {"n": 2})
    b = generate_example("onb", {"n": 3})
    assert spec_digest(a).startswith("sha256:")
    assert len(spec_digest(a)) == len("sha256:") + 64
    assert spec_digest(a) != spec_digest(b)
    assert spec_digest(a) == spec_digest(generate_example("onb", {"n": 2}))


def test_a_spec_walks_its_chunks_once_for_every_digest(monkeypatch):
    # every field of a spec is immutable, so its digest is kept with it:
    # five commands on one spec walk the spec text once, and each report is
    # the bytes of the same command on a spec of its own
    text = emit_spec(generate_example("random_ckframe", {}, seed=5))
    spec = parse_problem(text)
    walks = []
    chunks = harness._spec_chunks

    def counted_chunks(spec):
        walks.append(spec)
        return chunks(spec)

    monkeypatch.setattr(harness, "_spec_chunks", counted_chunks)
    commands = ("bounds", "atoms", "dual", "douglas", "sandwich")
    reports = {command: run_command(spec, command) for command in commands}
    assert walks == [spec]
    assert spec_digest(spec) == "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    for command, report in reports.items():
        assert report.inputs_digest == spec_digest(spec)
        own = run_command(parse_problem(text), command)
        for fmt in ("json", "text"):
            assert strip_wall_time(emit_report(report, fmt)) == strip_wall_time(emit_report(own, fmt))
    assert len(walks) == 1 + len(commands)


def test_a_generated_spec_holds_no_kept_answers(monkeypatch):
    # generate_example checks a random_ckframe on a field of its own, so
    # the first check of the spec it returns builds B, as for a parsed spec
    spec = generate_example("random_ckframe", {})
    assert spec.field_f._kept.svd is None and spec.field_f._kept.about is None
    built = counted_builds(monkeypatch)
    ckframe_check(spec.field_f, spec.operator_k)
    assert built == [spec.field_f]


TWO_ATOMS = make_measure_space(["a", "b"], [1.0, 1.0])
THREE_ATOMS = make_measure_space(["a", "b", "c"], [1.0, 1.0, 1.0])


def test_a_spec_refuses_a_field_over_another_space():
    # its text would write two sample rows where three atoms ask for three,
    # and parse_problem would refuse it at field_f
    f = SampleField(TWO_ATOMS, np.eye(2))
    with pytest.raises(SpaceMismatch):
        ProblemSpec(space=THREE_ATOMS, field_f=f, operator_k=np.eye(2))
    with pytest.raises(SpaceMismatch):
        ProblemSpec(space=TWO_ATOMS, field_f=f, operator_k=np.eye(2), field_g=SampleField(THREE_ATOMS, np.eye(3, 2)))
    # a field over an equal space is over the spec's space
    spec = ProblemSpec(space=make_measure_space(["a", "b"], [1.0, 1.0]), field_f=f, operator_k=np.eye(2))
    assert parse_problem(emit_spec(spec)) == spec


def test_a_spec_refuses_an_operator_of_another_shape():
    f = SampleField(TWO_ATOMS, np.eye(2))
    g = SampleField(TWO_ATOMS, np.ones((2, 3)))
    # three rows for a 2-dimensional field would be refused at operator_k
    for k in (np.eye(3, 2), np.ones(2), np.ones((2, 2, 1))):
        with pytest.raises(DimMismatch, match=r"begin with \(2,\)$"):
            ProblemSpec(space=TWO_ATOMS, field_f=f, operator_k=k)
    with pytest.raises(DimMismatch, match=r"begin with \(2, 3\)$"):
        ProblemSpec(space=TWO_ATOMS, field_f=f, operator_k=np.eye(2), field_g=g)
    # without a g, any column count is written and read back
    spec = ProblemSpec(space=TWO_ATOMS, field_f=f, operator_k=np.ones((2, 3)))
    assert parse_problem(emit_spec(spec)) == spec
    spec = ProblemSpec(space=TWO_ATOMS, field_f=f, operator_k=np.ones((2, 3)), field_g=g)
    assert parse_problem(emit_spec(spec)) == spec


# ---------------------------------------------------------------------------
# canonical spec bytes against the whole-document json.dumps oracle

#: Cell and weight values whose spelling is easy to get wrong: signed
#: zero, subnormals, large exponents and integer-valued floats.
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e-300, 0.1, 1.0, 2.0, -7.0, 1e16, 3e20]


positive_floats = st.floats(min_value=5e-324, max_value=1e300)
#: A spec's rank_tol lies in (0, 1).
rank_tols = st.floats(min_value=5e-324, max_value=1.0, exclude_max=True)


@st.composite
def edited_specs(draw):
    """A generated spec of any kind with random labels (non-ASCII and
    control characters included), special cell and weight values and
    tolerances."""
    kind = draw(st.sampled_from(GENERATOR_KINDS))
    spec = generate_example(kind, {}, seed=draw(st.integers(0, 20)))
    n = spec.space.n_atoms

    def edited(values, choices):
        out = np.array(values)
        flat = out.reshape(-1).view(float)
        edits = st.tuples(st.integers(0, flat.size - 1), st.sampled_from(choices))
        for index, value in draw(st.lists(edits, max_size=6)):
            flat[index] = value
        return out

    labels = draw(st.lists(st.text(max_size=6), min_size=n, max_size=n))
    weights = edited(spec.space.weights, [w for w in SPECIAL_FLOATS if w > 0.0])
    space = make_measure_space(labels, weights)
    field_g = spec.field_g
    if field_g is not None:
        field_g = SampleField(space, edited(field_g.samples, SPECIAL_FLOATS))
    tols = draw(st.fixed_dictionaries({}, optional={"rank_tol": rank_tols, "check_tol": positive_floats}))
    return ProblemSpec(
        space=space,
        field_f=SampleField(space, edited(spec.field_f.samples, SPECIAL_FLOATS)),
        operator_k=edited(spec.operator_k, SPECIAL_FLOATS),
        field_g=field_g,
        rank_tol=tols.get("rank_tol"),
        check_tol=tols.get("check_tol"),
    )


@given(edited_specs())
def test_spec_text_and_digest_match_the_whole_document_oracle(spec):
    text = oracle_spec_text(spec)
    assert emit_spec(spec) == text
    assert spec_digest(spec) == "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    assert parse_problem(text) == spec


class NonStandardToken(Exception):
    pass


def is_rfc_8259(text):
    """Whether text decodes as JSON without the NaN and Infinity tokens."""

    def refuse(token):
        raise NonStandardToken(token)

    try:
        json.loads(text, parse_constant=refuse)
    except NonStandardToken:
        return False
    return True


def set_weight(doc, value):
    doc["space"]["weights"][0] = value


def set_cell(doc, value):
    doc["field_f"][0][0][1] = value


def set_tolerance(doc, value):
    doc["tolerances"] = {"check_tol": value}


non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@given(edited_specs(), st.sampled_from([None, set_weight, set_cell, set_tolerance]), non_finite)
def test_every_accepted_spec_is_written_back_as_rfc_8259_json(spec, place, value):
    # a valid spec, maybe with a non-finite weight, cell or tolerance
    doc = json.loads(emit_spec(spec))
    if place is not None:
        place(doc, value)
    text = json.dumps(doc)
    try:
        accepted = parse_problem(text)
    except ValidationError:
        accepted = None
    assert (accepted is not None) == is_rfc_8259(text)
    if accepted is not None:
        assert is_rfc_8259(emit_spec(accepted))


def test_spec_text_matches_the_oracle_on_fixed_labels_and_values():
    base = minimal_spec()
    space = make_measure_space(["\u00e9\u96ea", "\x00\n\t\u2028\"\\"], [1e-300, 3e20])
    spec = ProblemSpec(
        space=space,
        field_f=SampleField(space, np.array([[-0.0, 1e-300j], [3e20, 2.0 - 0.0j]])),
        operator_k=base.operator_k,
        rank_tol=1e-9,
    )
    assert emit_spec(spec) == oracle_spec_text(spec)
    assert '"\\u00e9\\u96ea"' in emit_spec(spec)


@pytest.mark.parametrize(
    "k, error",
    [
        (np.array([[np.nan, 1.0], [0.0, 1.0]]), ValueError),
        (np.array([[1.0, np.inf], [-np.inf, 1.0]]), ValueError),
        (np.zeros((2, 0)), DimMismatch),
    ],
    ids=["nan", "infinite", "no-columns"],
)
def test_a_spec_refuses_an_operator_that_its_text_could_not_carry(k, error):
    # parse_problem refuses such a k in a spec text, so no spec may hold one
    base = minimal_spec()
    with pytest.raises(error) as refused:
        ProblemSpec(space=base.space, field_f=base.field_f, operator_k=k)
    assert type(refused.value) is error


def test_a_spec_keeps_operator_k_read_only():
    # as a field keeps its samples: parsed, generated or built, k cannot be
    # written through the spec, nor the spec through the caller's array
    base = minimal_spec()
    k = np.eye(2)
    built = ProblemSpec(space=base.space, field_f=base.field_f, operator_k=k)
    for spec in (base, generate_example("random_ckframe", {}), built):
        with pytest.raises(ValueError):
            spec.operator_k[0, 0] = 5.0
        with pytest.raises(ValueError):
            spec.operator_k.flags.writeable = True
    k[0, 0] = 5.0
    assert built.operator_k[0, 0] == 1.0


# ---------------------------------------------------------------------------
# the one-conversion matrix parser against the cell walk

GOOD_CELLS = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
#: A 64 x 32 field_f as a spec file spells it.
GENERATED_CELLS = json.loads(
    emit_spec(generate_example("random_ckframe", {"n": 32, "n0": 8, "atoms": 64}))
)["field_f"]


def matrix_outcome(value, rows, cols):
    try:
        m = harness._as_matrix(value, rows, cols, "field_f")
    except ValidationError as exc:
        return ("rejected", exc.path, str(exc))
    return ("accepted", m.shape, m.dtype, m.tobytes())


def fast_and_walked(value, rows, cols, monkeypatch):
    """Outcomes of _as_matrix as it stands and with the cell walk forced."""
    fast = matrix_outcome(value, rows, cols)
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_matrix_from_lists", lambda *args: None)
        walked = matrix_outcome(value, rows, cols)
    return fast, walked


def with_cell(i, j, cell):
    value = json.loads(json.dumps(GOOD_CELLS))
    value[i][j] = cell
    return value


@pytest.mark.parametrize(
    "value,path",
    [
        (with_cell(0, 0, [True, 0]), "field_f[0][0][0]"),
        (with_cell(1, 1, ["nan", 0]), "field_f[1][1][0]"),
        (with_cell(0, 1, [0, 10**400]), "field_f[0][1][1]"),
        (with_cell(1, 0, [float("nan"), 0]), "field_f[1][0][0]"),
        ([[[1, 0]], [[0, 0], [1, 0]]], "field_f[0]"),
        (with_cell(0, 0, [1, 0, 0]), "field_f[0][0]"),
        (with_cell(1, 0, 5), "field_f[1][0]"),
        (with_cell(0, 1, ["1.5", 0]), "field_f[0][1][0]"),
        (with_cell(1, 1, [None, 0]), "field_f[1][1][0]"),
        (with_cell(0, 1, [-0.0, 2**60 + 1]), None),
        (with_cell(1, 1, [1e-300, -7]), None),
        (GENERATED_CELLS, None),
    ],
    ids=[
        "bool", "nan-string", "huge-int", "nan-float", "ragged-row", "triple", "non-list",
        "numeric-string", "null", "ints", "floats", "generated",
    ],
)
def test_matrix_parser_and_cell_walk_agree(value, path, monkeypatch):
    # the last row has the expected length in every case
    rows, cols = len(value), len(value[-1])
    fast, walked = fast_and_walked(value, rows, cols, monkeypatch)
    assert fast == walked
    if path is None:
        assert fast[0] == "accepted"
        assert harness._matrix_from_lists(value, rows, cols) is not None
    else:
        assert fast[:2] == ("rejected", path)


leaves = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.booleans(),
    st.sampled_from(["nan", "1", None, 10**400]),
)
numbers = st.integers(-(2**70), 2**70) | st.floats(allow_nan=False, allow_infinity=False)
cells = st.one_of(
    st.lists(numbers, min_size=2, max_size=2),
    st.lists(leaves, min_size=2, max_size=2),
    st.lists(leaves, max_size=3),
    leaves,
)


@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_matrix_parser_and_cell_walk_agree_on_random_cells(rows, cols, data):
    value = data.draw(st.lists(st.lists(cells, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    with pytest.MonkeyPatch.context() as monkeypatch:
        fast, walked = fast_and_walked(value, rows, cols, monkeypatch)
    assert fast == walked


# ---------------------------------------------------------------------------
# generators


def test_generator_determinism():
    a = generate_example("random_ckframe", {"n": 3, "n0": 2, "atoms": 9}, seed=5)
    b = generate_example("random_ckframe", {"n": 3, "n0": 2, "atoms": 9}, seed=5)
    c = generate_example("random_ckframe", {"n": 3, "n0": 2, "atoms": 9}, seed=6)
    assert a == b
    assert a != c


def test_random_ckframe_is_sound_across_seeds():
    for seed in range(10):
        spec = generate_example("random_ckframe", {"n": 3, "n0": 2, "atoms": 10}, seed=seed)
        assert ckframe_check(spec.field_f, spec.operator_k).is_ck_frame


def test_random_bessel_pair_carries_second_field():
    spec = generate_example("random_bessel_pair", {"n": 3, "n0": 2, "atoms": 8}, seed=1)
    assert spec.field_g is not None
    assert spec.field_g.samples.shape == (8, 2)


def test_interval_fourier_is_parseval():
    spec = generate_example("interval_fourier", {"n": 4, "atoms": 16})
    s = frame_operator(spec.field_f)
    assert np.allclose(s, np.eye(4), atol=1e-12)


def test_generator_defaults_fill_in():
    spec = generate_example("scaled_onb", {})
    assert np.array_equal(spec.field_f.samples, np.diag([1.0, 2.0]).astype(complex))


def test_generator_rejections():
    with pytest.raises(UnknownKind):
        generate_example("mystery", {})
    with pytest.raises(BadParams):
        generate_example("onb", [1, 2])
    with pytest.raises(BadParams):
        generate_example("onb", {"m": 2})
    with pytest.raises(BadParams):
        generate_example("onb", {"n": 0})
    with pytest.raises(BadParams):
        generate_example("interval_fourier", {"n": 8, "atoms": 4})
    with pytest.raises(BadParams):
        generate_example("scaled_onb", {"scales": [1.0, 0.0]})
    with pytest.raises(BadParams):
        generate_example("scaled_onb", {"scales": []})
    # a seed is an integer: True is no seed 1
    for seed in ("3", None, 1.5, True):
        with pytest.raises(BadParams, match="^seed must be an integer, got "):
            generate_example("random_ckframe", {}, seed)
    assert generate_example("random_ckframe", {}, np.int64(3)) == generate_example("random_ckframe", {}, 3)


# ---------------------------------------------------------------------------
# command dispatch


def test_bounds_on_onb():
    report = run_command(generate_example("onb", {"n": 2}), "bounds")
    assert report.status == STATUS_OK
    assert report.results["lower"] == pytest.approx(1.0)
    assert report.results["upper"] == pytest.approx(1.0)
    assert report.results["kind"] == "ckFrame"
    assert report.results["is_ck_frame"] is True


def test_bounds_degenerate_zero_k():
    spec = minimal_spec()
    zero_k = ProblemSpec(
        space=spec.space,
        field_f=spec.field_f,
        operator_k=np.zeros((2, 2), dtype=complex),
    )
    report = run_command(zero_k, "bounds")
    assert report.status == STATUS_DEGENERATE
    assert report.results["degenerate"] is True


def assert_same_array(actual, expected):
    """Same dtype, shape and values, each zero with the same sign."""
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual.view(float)), np.signbit(expected.view(float)))


def test_dual_on_scaled_onb():
    report = run_command(generate_example("scaled_onb", {}), "dual")
    assert report.status == STATUS_OK
    assert_same_array(report.results["dual_field"], np.diag([1.0, 0.5]).astype(complex))
    assert report.results["lower_bound"] == pytest.approx(0.25)
    assert report.results["upper_bound"] == pytest.approx(1.0)


def test_atoms_failure_reports_error_class():
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    f = SampleField(space, np.array([[1.0, 0.0], [1.0, 0.0]]))
    spec = ProblemSpec(space=space, field_f=f, operator_k=np.eye(2, dtype=complex))
    report = run_command(spec, "atoms")
    assert report.status == STATUS_FAILED
    assert report.results["error"] == "RangeNotIncluded"
    assert "message" in report.results


def test_verify_pair_needs_field_g():
    with pytest.raises(ValidationError) as exc:
        run_command(minimal_spec(), "verify-pair")
    assert exc.value.path == "field_g"


def test_verify_pair_on_generated_pair():
    spec = generate_example("random_ckframe", {"n": 3, "n0": 2, "atoms": 9}, seed=2)
    from ckframe.atoms_duals import canonical_dual

    dual = canonical_dual(spec.field_f, spec.operator_k)
    paired = ProblemSpec(
        space=spec.space,
        field_f=dual.projected_frame,
        operator_k=spec.operator_k,
        field_g=dual.dual_field,
    )
    report = run_command(paired, "verify-pair")
    assert report.status == STATUS_OK
    assert report.results["holds"] is True
    for i in range(1, 6):
        assert report.results[f"residual_c{i}"] <= 1e-8


def test_douglas_on_onb():
    report = run_command(generate_example("onb", {"n": 2}), "douglas")
    assert report.status == STATUS_OK
    assert report.results["included"] is True
    assert report.results["lambda_min"] == pytest.approx(1.0)
    assert report.results["predicates_agree"] is True


def test_douglas_marginal_fails():
    # k leaks out of the synthesis range by 3e-8: inside the (tol, 100 tol) band
    space = make_measure_space(["a"], [1.0])
    f = SampleField(space, np.array([[1.0, 0.0]]))
    k = np.array([[1.0], [3e-8]])
    spec = ProblemSpec(space=space, field_f=f, operator_k=k)
    report = run_command(spec, "douglas")
    assert report.status == STATUS_FAILED
    assert report.results["marginal"] is True
    assert report.results["included"] is False


@pytest.mark.parametrize("leak", [3e-8, 1.0])
def test_range_escape_fails_on_every_face(leak):
    # marginal (inside the (tol, 100 tol) band) or far, an escaping k is
    # one failed verdict for all five inclusion-dependent commands
    space = make_measure_space(["a"], [1.0])
    f = SampleField(space, np.array([[1.0, 0.0]]))
    spec = ProblemSpec(space=space, field_f=f, operator_k=np.array([[1.0], [leak]]))
    statuses = {
        cmd: run_command(spec, cmd).status
        for cmd in ("bounds", "atoms", "douglas", "dual", "sandwich")
    }
    assert statuses == dict.fromkeys(statuses, STATUS_FAILED)


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 1e3])
def test_inclusion_gets_one_verdict_at_every_scale(c):
    # k leaks out of the synthesis range by 1e-6 of its norm, at any scale
    space = make_measure_space(["a"], [1.0])
    f = SampleField(space, np.array([[1.0, 0.0]]))
    spec = ProblemSpec(space=space, field_f=f, operator_k=c * np.array([[1.0], [1e-6]]))
    bounds = run_command(spec, "bounds").results
    douglas = run_command(spec, "douglas").results
    assert douglas["included"] is bounds["range_included"] is False
    assert douglas["residual"] == bounds["residuals"]["range_inclusion"]
    assert douglas["residual"] == pytest.approx(1e-6, rel=1e-6)
    assert run_command(spec, "atoms").results["error"] == "RangeNotIncluded"


def test_rank_of_k_is_decided_once_for_every_command():
    # sigma = 1e-9 lies in the ambiguous band (1e-10, 1e-8) of rank(k); the
    # pair (f, g) reproduces k exactly, so only the rank decision can fail
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    k = np.diag([1.0, 1e-9]).astype(complex)
    spec = ProblemSpec(
        space=space,
        field_f=SampleField(space, np.eye(2)),
        operator_k=k,
        field_g=SampleField(space, k.conj()),
    )
    for command in ("verify-pair", "dual", "sandwich"):
        report = run_command(spec, command)
        assert report.status == STATUS_FAILED
        assert report.results["error"] == "RankAmbiguous"
        assert report.results["message"].startswith("rank of k: singular value 1.000e-09")


#: The ranks each command decides, by the name of the matrix they are of:
#: dual decides k's again in verify_dual_pair, which checks P f on its own.
RANKS_DECIDED = {
    "bounds": {"B of f": 1},
    "atoms": {"B of f": 1},
    "dual": {"B of f": 1, "k": 2, "B of the dual field g": 1},
    "douglas": {"l2": 1},
    "sandwich": {"B of f": 1, "k": 1},
}


@pytest.mark.parametrize("n, n0", [(4, 2), (3, 3), (2, 4)], ids=["n0<n", "n0=n", "n0>n"])
@pytest.mark.parametrize("command", sorted(RANKS_DECIDED))
def test_each_command_decides_each_rank_as_often_as_pinned(command, n, n0, monkeypatch):
    # a spec read from its text keeps nothing its generation factored
    spec = parse_problem(emit_spec(generate_example("random_ckframe", {"n": n, "n0": n0, "atoms": 12}, seed=1)))
    decided = Counter()
    separated_rank = linalg._separated_rank

    def counted(sigma, rank_tol, name):
        decided[name] += 1
        return separated_rank(sigma, rank_tol, name)

    for module in (linalg, atoms_duals):
        monkeypatch.setattr(module, "_separated_rank", counted)
    assert run_command(spec, command).status == STATUS_OK
    assert decided == RANKS_DECIDED[command]


def test_an_ambiguous_rank_names_its_matrix():
    # sigma(B) = (1, 3e-9): the Douglas faces take B as their raw l2
    spec = generate_example("scaled_onb", {"scales": [1.0, 3e-9]})
    for command in ("bounds", "atoms", "dual", "douglas", "sandwich"):
        results = run_command(spec, command).results
        assert results["error"] == "RankAmbiguous"
        name = "l2" if command == "douglas" else "B of f"
        assert results["message"].startswith(f"rank of {name}: singular value 3.000e-09")


def test_sandwich_command():
    report = run_command(generate_example("scaled_onb", {}), "sandwich")
    assert report.status == STATUS_OK
    assert report.results["sandwich_margin"] == 0.0
    assert report.results["restricted_margin"] >= -1e-12


def test_unknown_command_rejected():
    with pytest.raises(ValidationError):
        run_command(minimal_spec(), "polish")
    assert set(COMMANDS) == {"bounds", "atoms", "dual", "verify-pair", "douglas", "sandwich"}


def test_tolerance_resolution_order():
    # pair broken at the 1e-5 level: passes at loose tol, fails at tight tol
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    f = SampleField(space, np.eye(2))
    g = SampleField(space, np.eye(2) * (1.0 + 1e-5))
    base = ProblemSpec(space=space, field_f=f, operator_k=np.eye(2, dtype=complex), field_g=g)
    assert run_command(base, "verify-pair").status == STATUS_FAILED
    loose = ProblemSpec(
        space=space,
        field_f=f,
        operator_k=np.eye(2, dtype=complex),
        field_g=g,
        check_tol=1e-3,
    )
    assert run_command(loose, "verify-pair").status == STATUS_OK
    # explicit override beats the spec's own tolerance
    assert run_command(loose, "verify-pair", tol_override=1e-8).status == STATUS_FAILED
    # caller default applies only when the spec is silent
    assert run_command(base, "verify-pair", default_tol=1e-3).status == STATUS_OK
    assert run_command(loose, "verify-pair", default_tol=1e-8).status == STATUS_OK


def leaky_spec():
    """f = diag(1, 0), whose synthesis range misses half of range(k) for k = I."""
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    f = SampleField(space, np.diag([1.0, 0.0]))
    return ProblemSpec(space=space, field_f=f, operator_k=np.eye(2, dtype=complex), field_g=f)


#: Each entry point that grades a verdict by a tolerance, and the name of
#: the argument a bad tolerance is reported under.
TOLERANCE_TAKERS = {
    "run_command-tol_override": (lambda s, tol: run_command(s, "bounds", tol_override=tol), "tol_override"),
    "run_command-default_tol": (lambda s, tol: run_command(s, "bounds", default_tol=tol), "default_tol"),
    "ckframe_check": (lambda s, tol: ckframe_check(s.field_f, s.operator_k, tol=tol), "tol"),
    "range_included": (
        lambda s, tol: range_included(s.operator_k, whitened_synthesis_matrix(s.field_f), tol=tol),
        "tol",
    ),
    "verify_dual_pair": (lambda s, tol: verify_dual_pair(s.field_f, s.field_g, s.operator_k, tol=tol), "tol"),
    "atom_coefficient_map": (lambda s, tol: atom_coefficient_map(s.field_f, s.operator_k, tol=tol), "tol"),
    "sandwich_check": (lambda s, tol: sandwich_check(s.field_f, s.operator_k, tol=tol), "tol"),
    "inverse_on_range": (lambda s, tol: inverse_on_range(s.field_f, s.operator_k, tol=tol), "tol"),
    "subspace_cframe_margin": (lambda s, tol: subspace_cframe_margin(s.field_f, s.operator_k, tol=tol), "tol"),
    "canonical_dual": (lambda s, tol: canonical_dual(s.field_f, s.operator_k, tol=tol), "tol"),
    "douglas_factor": (
        lambda s, tol: douglas_factor(s.operator_k, whitened_synthesis_matrix(s.field_f), tol=tol),
        "tol",
    ),
    "minimal_multiplier": (
        lambda s, tol: minimal_multiplier(s.operator_k, whitened_synthesis_matrix(s.field_f), tol=tol),
        "tol",
    ),
}

#: Values that are no tolerance, nor rank tolerance: not finite and > 0, a
#: bool, not a number, or past double precision.
NOT_TOLERANCES = [float("inf"), float("nan"), 0.0, -1.0, True, "1e-8", None, [1e-8], 10**400]
NOT_TOLERANCE_IDS = ["inf", "nan", "zero", "negative", "true", "string", "none", "list", "huge-int"]


@pytest.mark.parametrize("tol", NOT_TOLERANCES, ids=NOT_TOLERANCE_IDS)
@pytest.mark.parametrize("taker", sorted(TOLERANCE_TAKERS))
def test_a_tolerance_must_be_finite_and_positive(taker, tol):
    # at tol = inf every check would pass and diag(1, 0) would be a ck-frame
    assert run_command(leaky_spec(), "bounds").results["is_ck_frame"] is False
    call, name = TOLERANCE_TAKERS[taker]
    if tol is None and name == "tol_override":
        # None is no override: the default tolerance grades
        assert call(leaky_spec(), tol).results["is_ck_frame"] is False
        return
    with pytest.raises(ValidationError) as exc:
        call(leaky_spec(), tol)
    assert exc.value.path == name


def dual_pair_spec():
    """f = diag(1, 2) and g = diag(1, 1/2), a dual pair for k = I."""
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    f = SampleField(space, np.diag([1.0, 2.0]))
    g = SampleField(space, np.diag([1.0, 0.5]))
    return ProblemSpec(space=space, field_f=f, operator_k=np.eye(2, dtype=complex), field_g=g)


def verdict(call, spec, tol):
    """What call(spec, tol) returns, or the library error it raises, as text."""
    try:
        out = call(spec, tol)
    except CkFrameError as exc:
        return type(exc).__name__, str(exc)
    return repr((out.status, out.results) if isinstance(out, RunReport) else out)


@pytest.mark.parametrize(
    "tol", [np.float32(1e-6), np.int64(1), Fraction(1, 10**8)], ids=["float32", "int64", "fraction"]
)
@pytest.mark.parametrize("spec", [leaky_spec, dual_pair_spec], ids=["leaky", "pair"])
@pytest.mark.parametrize("taker", sorted(TOLERANCE_TAKERS))
def test_a_numpy_or_fraction_tolerance_grades_as_the_equal_float(taker, spec, tol):
    call = TOLERANCE_TAKERS[taker][0]
    expected = verdict(call, spec(), float(tol))
    # an integer tolerance is 1 or more, which only the pair check takes
    refused = tol >= 1 and taker != "verify_dual_pair"
    assert (expected[0] == "ValidationError") == refused, expected
    assert verdict(call, spec(), tol) == expected


@pytest.mark.parametrize("tol", [1.0, 2.0], ids=["one", "above-one"])
@pytest.mark.parametrize("taker", sorted(TOLERANCE_TAKERS))
def test_an_inclusion_tolerance_must_lie_below_one(taker, tol):
    # the relative distance of k from range(B) is at most 1, so from 1 up
    # every k would count as included; the pair residuals can exceed 1
    call, name = TOLERANCE_TAKERS[taker]
    if taker == "verify_dual_pair":
        assert call(dual_pair_spec(), tol).holds
        assert run_command(dual_pair_spec(), "verify-pair", tol_override=tol).status == STATUS_OK
        return
    with pytest.raises(ValidationError, match=r"^tolerance must lie in \(0, 1\)") as exc:
        call(leaky_spec(), tol)
    assert exc.value.path == name


#: The library faces that grade range(k) inside range(B) by their tol.
INCLUSION_FACES = sorted(
    set(TOLERANCE_TAKERS) - {"run_command-tol_override", "run_command-default_tol", "verify_dual_pair"}
)


@pytest.mark.parametrize("shape", ["right", "wrong"])
@pytest.mark.parametrize("taker", INCLUSION_FACES)
def test_every_inclusion_face_refuses_a_bad_tolerance_alike(taker, shape):
    # one inclusion decision checks tol, after the dimension check, so a
    # wrong-shape k is a DimMismatch whatever tol is, and a right-shape k
    # with a bad tol is refused against (0, 1) by every face
    call = TOLERANCE_TAKERS[taker][0]
    spec = leaky_spec()
    if shape == "wrong":
        # a ProblemSpec refuses a k of the wrong shape, so hand one over bare
        wrong = np.eye(3, 2, dtype=complex)
        with pytest.raises(DimMismatch):
            call(types.SimpleNamespace(field_f=spec.field_f, operator_k=wrong), -1.0)
        return
    with pytest.raises(ValidationError, match=r"^tolerance must lie in \(0, 1\), got -1\.0 at 'tol'$") as exc:
        call(spec, -1.0)
    assert exc.value.path == "tol"


#: Each entry point that decides a rank by rank_tol, called on f = diag(1, 2)
#: and k = I.
RANK_TOL_TAKERS = {
    "ckframe_check": lambda f, k, t: ckframe_check(f, k, rank_tol=t),
    "douglas_factor": lambda f, k, t: douglas_factor(k, whitened_synthesis_matrix(f), rank_tol=t),
    "verify_dual_pair": lambda f, k, t: verify_dual_pair(f, f, k, rank_tol=t),
    "canonical_dual": lambda f, k, t: canonical_dual(f, k, rank_tol=t),
    "pseudoinverse": lambda f, k, t: pseudoinverse(whitened_synthesis_matrix(f), rank_tol=t),
}


@pytest.mark.parametrize(
    "rank_tol",
    [*NOT_TOLERANCES, 1.0, 2.0],
    ids=[*NOT_TOLERANCE_IDS, "one", "above-one"],
)
@pytest.mark.parametrize("taker", sorted(RANK_TOL_TAKERS))
def test_a_rank_tolerance_must_be_finite_and_positive(taker, rank_tol):
    # at rank_tol = nan or from 1 up no direction counts, not even
    # sigma_max, and diag(1, 2) would not reproduce I
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    f = SampleField(space, np.diag([1.0, 2.0]))
    assert ckframe_check(f, np.eye(2)).is_ck_frame
    with pytest.raises(ValidationError) as exc:
        RANK_TOL_TAKERS[taker](f, np.eye(2), rank_tol)
    assert exc.value.path == "rank_tol"


# ---------------------------------------------------------------------------
# report rendering


def test_report_json_is_deterministic_up_to_wall_time():
    spec = generate_example("scaled_onb", {})
    first = emit_report(run_command(spec, "dual"))
    second = emit_report(run_command(spec, "dual"))
    assert strip_wall_time(first) == strip_wall_time(second)


def test_report_json_shape():
    report = run_command(generate_example("onb", {"n": 2}), "bounds")
    doc = json.loads(emit_report(report, "json"))
    assert set(doc) == {"command", "inputs_digest", "status", "results", "wall_time"}
    assert doc["command"] == "bounds"
    assert doc["inputs_digest"].startswith("sha256:")
    assert isinstance(doc["wall_time"], float)
    # a result matrix is a complex array, which the report writes as nested
    # [re, im] pairs, each zero keeping its sign
    signed = np.array([[-0.0, complex(0.0, -0.0)], [complex(1.5, -0.0), complex(-0.0, -2.0)]])
    matrices = RunReport(
        command="atoms",
        inputs_digest="sha256:0",
        status=STATUS_OK,
        results={"m": signed, "real": np.array([[-0.0, 1.0]])},
        wall_time=0.0,
    )
    results = json.loads(emit_report(matrices, "json"))["results"]
    assert repr(results["m"]) == repr([[[-0.0, 0.0], [0.0, -0.0]], [[1.5, -0.0], [-0.0, -2.0]]])
    assert repr(results["real"]) == repr([[[-0.0, 0.0], [1.0, 0.0]]])


def test_report_json_renders_unbounded():
    spec = minimal_spec()
    zero_k = ProblemSpec(
        space=spec.space,
        field_f=spec.field_f,
        operator_k=np.zeros((2, 2), dtype=complex),
    )
    doc = json.loads(emit_report(run_command(zero_k, "bounds"), "json"))
    assert doc["results"]["lower"] == "unbounded"


def test_report_text_lists_five_conditions():
    spec = generate_example("scaled_onb", {})
    paired = ProblemSpec(
        space=spec.space,
        field_f=spec.field_f,
        operator_k=spec.operator_k,
        field_g=SampleField(spec.space, np.diag([1.0, 0.5]).astype(complex)),
    )
    text = emit_report(run_command(paired, "verify-pair"), "text")
    for i in range(1, 6):
        assert f"c{i}" in text
    assert "condition" in text
    assert "status: ok" in text


def test_report_rejects_unknown_format_and_nan():
    report = run_command(generate_example("onb", {"n": 2}), "bounds")
    with pytest.raises(ValueError):
        emit_report(report, "yaml")
    poisoned = RunReport(
        command="bounds",
        inputs_digest="sha256:0",
        status=STATUS_OK,
        results={"x": float("nan")},
        wall_time=0.0,
    )
    with pytest.raises(ValueError):
        emit_report(poisoned, "json")


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", ["dual", "atoms"])
def test_the_report_writer_holds_little_more_than_the_report(command, fmt):
    # the chunks that "".join holds and the joined text, ~2x; writing each
    # matrix as nested lists, or as a list of lines, goes past 2.5x
    spec = generate_example("random_ckframe", {"n": 32, "n0": 16, "atoms": 256})
    report = run_command(spec, command)
    tracemalloc.start()
    try:
        text = emit_report(report, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


# ---------------------------------------------------------------------------
# report bytes against the element-by-element writer

#: Matrix parts whose spelling is easy to get wrong: signed zeros,
#: subnormals and the largest exponents.
SPECIAL_PARTS = [-0.0, 0.0, 5e-324, -2.5e-310, 1e-300, 1e308, -1e308, 1.0, -0.5]


@st.composite
def complex_matrices(draw, rows=st.integers(0, 4), cols=st.integers(0, 4), finite=False):
    """A complex matrix of special and arbitrary finite parts; unless
    finite is set, one in three gets a few infinite or NaN parts."""
    shape = (draw(rows), draw(cols))
    parts = st.sampled_from(SPECIAL_PARTS) | st.floats(allow_nan=False, allow_infinity=False)
    values = np.array(draw(st.lists(parts, min_size=2 * math.prod(shape), max_size=2 * math.prod(shape))))
    if values.size and not finite and draw(st.integers(0, 2)) == 0:
        bad = st.tuples(st.integers(0, values.size - 1), st.sampled_from([math.inf, -math.inf, math.nan]))
        for index, value in draw(st.lists(bad, min_size=1, max_size=2)):
            values[index] = value
    return values.view(complex).reshape(shape)


#: Every leaf and every inline rule of both report formats: empty dict,
#: list and tuple, a tuple of floats, a list of strings, a float beside
#: None, ints, both infinities, a list of dicts and a list holding a matrix.
WRITTEN_SHAPES = {
    "empty_dict": {},
    "empty_list": [],
    "empty_tuple": (),
    "floats": (1.5, -0.0, 5e-324),
    "notes": ["a note", "\u00e9 \"quoted\""],
    "onto": [0.25, None],
    "count": -7,
    "counts": [3, 10**20],
    "floor": -math.inf,
    "upper": math.inf,
    "items": [{"x": 1.0, "y": [2, -math.inf]}, {}, {"z": None}],
    "matrices": [np.eye(2, dtype=complex), 0.5],
}


@st.composite
def matrix_results(draw):
    """A results dict with the scalars a runner returns, values of the kinds
    in WRITTEN_SHAPES, and one to three matrices, each at a depth of 0 to 3
    nested dicts."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    results = {
        "lower": draw(st.floats(allow_nan=False)),
        "upper": math.inf,
        "holds": draw(st.booleans()),
        "factor": None,
        "kind": "ckFrame",
        "onto": [draw(st.floats(allow_nan=False)), None],
        "count": draw(st.integers()),
        "floats": tuple(draw(st.lists(finite, max_size=3))),
        "notes": draw(st.lists(st.text(max_size=5), max_size=3)),
        "empty": draw(st.sampled_from([{}, [], ()])),
        "items": draw(st.lists(st.dictionaries(st.sampled_from("xyz"), finite | st.none()), max_size=2)),
    }
    for _ in range(draw(st.integers(1, 3))):
        node = results
        for level in range(draw(st.integers(0, 3))):
            node = node.setdefault(f"d{level}", {})
        node[draw(st.sampled_from(["m", "n"]))] = draw(complex_matrices())
    return results


def written(write, report, fmt):
    """write(report, fmt), or ValueError if it raises one."""
    try:
        return write(report, fmt)
    except ValueError:
        return ValueError


def assert_written_as_reference(results):
    report = RunReport("dual", "sha256:0", STATUS_OK, results, 0.125)
    for fmt in ("json", "text"):
        assert written(emit_report, report, fmt) == written(reference_emit_report, report, fmt)


@given(matrix_results())
@example(WRITTEN_SHAPES)
@example({"shapes": WRITTEN_SHAPES, "m": np.eye(2, dtype=complex), "list": [WRITTEN_SHAPES]})
def test_report_bytes_match_the_element_by_element_writer(results):
    assert_written_as_reference(results)


#: A dual pair whose k = e1 maps H0 = C into H = C^2: k* is onto and k is
#: not, so onto_variant_residuals holds a None beside a residual.
HALF_ONTO_PAIR = {
    "space": {"labels": ["a", "b"], "weights": [2.0, 0.5]},
    "dim_h": 2,
    "dim_h0": 1,
    "field_f": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    "operator_k": [[[1, 0]], [[0, 0]]],
    "field_g": [[[0.5, 0]], [[0, 0]]],
}


def field_names(cls) -> set:
    return {field.name for field in dataclasses.fields(cls)}


#: Each report's keys: its result object's fields and the one key it adds.
REPORT_KEYS = {
    "bounds": field_names(CkFrameReport) - {"bounds"} | field_names(FrameBounds),
    "douglas": field_names(DouglasResult) | {"predicates_agree"},
    "verify-pair": field_names(DualPairReport) | {"tolerance"},
}


@pytest.mark.parametrize("command", sorted(REPORT_KEYS))
def test_a_report_takes_its_keys_from_its_result_object(command):
    report = run_command(parse_problem(json.dumps(HALF_ONTO_PAIR)), command)
    assert report.status == STATUS_OK
    assert set(report.results) == REPORT_KEYS[command]
    if command == "verify-pair":
        assert report.results["onto_variant_residuals"][0] is None
    for fmt in ("json", "text"):
        assert emit_report(report, fmt) == reference_emit_report(report, fmt)


@pytest.mark.parametrize(
    "m",
    [
        np.zeros((0, 3), dtype=complex),
        np.zeros((3, 0), dtype=complex),
        np.array([[complex(-0.0, 5e-324)]]),
        np.array([[complex(1e308, -1e308), complex(-2.5e-310, -0.0)]]),
        np.array([[1.0, complex(math.inf, 0.0)]]),
        np.array([[1.0], [complex(0.0, math.nan)]]),
    ],
    ids=["0xn", "nx0", "1x1", "extremes", "inf", "nan"],
)
def test_report_bytes_of_odd_matrices_match_the_element_by_element_writer(m):
    assert_written_as_reference({"m": m, "d0": {"d1": {"m": m}}})
    report = RunReport("dual", "sha256:0", STATUS_OK, {"m": m}, 0.0)
    if np.isnan(m.view(float)).any():
        with pytest.raises(ValueError):
            emit_report(report)
    elif np.isinf(m.view(float)).any():
        assert '"unbounded"' in emit_report(report)


@given(complex_matrices(rows=st.just(2), cols=st.integers(1, 3), finite=True), st.data())
def test_spec_text_matches_the_oracle_on_random_odd_matrices(f_samples, data):
    # k has one row per dimension of the field, as a spec refuses any other
    # shape; a k with no columns or a non-finite part is refused too
    k = data.draw(complex_matrices(rows=st.just(f_samples.shape[1])))
    base = minimal_spec()
    field_f = SampleField(base.space, f_samples)
    if k.shape[1] == 0 or not np.isfinite(k).all():
        with pytest.raises(DimMismatch if k.shape[1] == 0 else ValueError):
            ProblemSpec(space=base.space, field_f=field_f, operator_k=k)
        return
    spec = ProblemSpec(space=base.space, field_f=field_f, operator_k=k)
    text = oracle_spec_text(spec)
    assert emit_spec(spec) == text
    assert spec_digest(spec) == "sha256:" + hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# factorization budget

#: Dense factorizations per command on a gen-default spec, as (svd, eig
#: and norm(., 2) together, qr): the SVD of the whitened synthesis matrix,
#: of k and of small compressions, plus norm(., 2), which runs an SVD of
#: its own.  A wide B is factored through the QR of its transpose and the
#: SVD of the square triangular factor.  Every B here is onto, so no
#: inclusion residual is formed and ||k|| is read off k's one SVD.  ||B||
#: is sigma_max of B's one SVD: verify-pair factors f's B, and dual, whose
#: k is not onto H, factors the B of the projected frame P f.
FACTORIZATIONS = {
    "atoms": (3, 1),
    "dual": (7, 3),
    "verify-pair": (2, 1),
    "douglas": (2, 1),
    "sandwich": (5, 1),
}


#: The same on a gen-default interval_fourier spec, whose k = I and B are
#: onto H: U_r is then a basis of range(k), so neither the compression nor
#: the sandwich takes an SVD, and the projected frame is f, whose ||B||
#: the pair report reads off B's SVD.
ONTO_FACTORIZATIONS = {
    "dual": (5, 2),
    "sandwich": (3, 1),
}


def cold_spec(kind: str) -> ProblemSpec:
    """A gen-default spec read back from its text, as the CLI reads it: its
    fields are new objects, so none has a kept factorization yet."""
    return parse_problem(emit_spec(generate_example(kind, {})))


def dense_and_qr(counts) -> tuple[int, int]:
    """(svd, eig and norm(., 2) together, qr) of counted_factorizations."""
    return sum(counts.values()) - counts["qr"], counts["qr"]


def test_bounds_factorization_budget(monkeypatch):
    spec = cold_spec("random_ckframe")
    counts = counted_factorizations(monkeypatch)
    assert run_command(spec, "bounds").status == STATUS_OK
    assert dense_and_qr(counts) == (2, 1), dict(counts)


@pytest.mark.parametrize("command", sorted(FACTORIZATIONS))
def test_command_factorization_counts_are_pinned(command, monkeypatch):
    kind = "random_bessel_pair" if command == "verify-pair" else "random_ckframe"
    spec = cold_spec(kind)
    counts = counted_factorizations(monkeypatch)
    run_command(spec, command)
    assert dense_and_qr(counts) == FACTORIZATIONS[command], dict(counts)


#: B built per command on a cold gen-default spec (random_bessel_pair for
#: verify-pair, random_ckframe otherwise): f's, once, for its SVD, which
#: douglas takes of the B it hands out itself, and whose reflectors form
#: vh.  dual also builds the projected frame's once, for the pair mismatch
#: and for its SVD, and the dual's for the mismatch and for its SVD;
#: verify-pair builds f's once, for the mismatch and for its SVD, and g's
#: for the mismatch.
B_BUILDS = {"bounds": 1, "atoms": 1, "dual": 4, "verify-pair": 2, "douglas": 1, "sandwich": 1}


@pytest.mark.parametrize("command", sorted(B_BUILDS))
def test_command_b_builds_are_pinned(command, monkeypatch):
    kind = "random_bessel_pair" if command == "verify-pair" else "random_ckframe"
    spec = cold_spec(kind)
    built = counted_builds(monkeypatch)
    run_command(spec, command)
    assert len(built) == B_BUILDS[command]


@pytest.mark.parametrize("command", sorted(ONTO_FACTORIZATIONS))
def test_onto_factorization_counts_are_pinned(command, monkeypatch):
    spec = cold_spec("interval_fourier")
    counts = counted_factorizations(monkeypatch)
    assert run_command(spec, command).status == STATUS_OK
    assert dense_and_qr(counts) == ONTO_FACTORIZATIONS[command], dict(counts)
