"""Problem-spec parsing, example generation, command dispatch, reports.

A problem spec is a single JSON document describing a weighted space, a
field over it, the operator k, and optionally a second field.  Complex
scalars are [re, im] pairs; matrices are row-major nested arrays.  Spec
files serialize floats at full precision (parse/emit round-trips), while
reports use fixed %.12e formatting so identical runs are byte-identical
apart from the wall_time entry.  The spec text and both report formats are
written by one walk over the value tree, _walk, each from a layout table of
its own; finite matrices go a row at a time, straight from their arrays.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Iterator, NamedTuple, Optional

import numpy as np

from . import atoms_duals, douglas, frame_ops
from .errors import (
    BadParams,
    CkFrameError,
    DimMismatch,
    ParseError,
    UnknownKind,
    ValidationError,
)
from .linalg import DEFAULT_CHECK_TOL, DEFAULT_RANK_TOL, _as_number, _check_tol, as_operator
from .measure import MeasureSpace, SampleField, _same_space, make_measure_space

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_DEGENERATE = "degenerate"

#: The tolerances a spec may hold, each in (0, upper): from 1 up a rank_tol counts no direction.
_TOLERANCE_UPPERS = {"rank_tol": 1.0, "check_tol": math.inf}


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Parsed problem instance: its fields live over space, else
    SpaceMismatch; operator_k is field_f.dim x field_g.dim (at least one
    column without a g), else DimMismatch, and finite, else ValueError, as
    a field's samples are; a tolerance given is kept as the float
    linalg._check_tol makes of it, rank_tol in (0, 1) and check_tol in
    (0, inf), else ValidationError at tolerances.<name>; so
    parse(emit(s)) == s."""

    space: MeasureSpace
    field_f: SampleField
    operator_k: np.ndarray
    field_g: Optional[SampleField] = None
    rank_tol: Optional[float] = None
    check_tol: Optional[float] = None

    def __post_init__(self):
        fields = [field for field in (self.field_f, self.field_g) if field is not None]
        for field in fields:
            _same_space(self, field)
        shape, dims = self.operator_k.shape, tuple(field.dim for field in fields)
        if len(shape) != 2 or shape[: len(dims)] != dims:
            raise DimMismatch(f"operator_k has shape {shape}; it must be 2-D and begin with {dims}")
        if shape[1] == 0:
            raise DimMismatch("operator_k must have at least one column")
        if not np.isfinite(self.operator_k).all():
            raise ValueError("operator_k must be finite")
        for key, upper in _TOLERANCE_UPPERS.items():
            if getattr(self, key) is not None:
                object.__setattr__(self, key, _check_tol(getattr(self, key), f"tolerances.{key}", upper))

    @property
    def dim_h(self) -> int:
        return self.field_f.dim

    @property
    def dim_h0(self) -> int:
        return int(self.operator_k.shape[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProblemSpec):
            return NotImplemented
        return emit_spec(self) == emit_spec(other)


@dataclass(frozen=True)
class RunReport:
    """Result envelope for one command run.

    results holds the command's values as its runner returned them: dicts,
    lists, floats, bools, strings and None, with each matrix a 2-D complex
    ndarray.  A vacuously infinite bound is math.inf, which both writers
    print as "unbounded".  emit_report serializes them.
    """

    command: str
    inputs_digest: str
    status: str
    results: dict
    wall_time: float


# ---------------------------------------------------------------------------
# JSON plumbing


def _require(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise ValidationError(message, path)


def _as_complex(value, path: str) -> complex:
    _require(
        isinstance(value, list) and len(value) == 2,
        "complex scalar must be a [re, im] pair",
        path,
    )
    return complex(_as_number(value[0], f"{path}[0]"), _as_number(value[1], f"{path}[1]"))


def _as_matrix(value, rows: int, cols: int, path: str) -> np.ndarray:
    _require(isinstance(value, list), "expected a nested array", path)
    _require(len(value) == rows, f"expected {rows} rows, got {len(value)}", path)
    # check the shape against the data present before allocating for it; a
    # row names the key cols is read from, as cols may have thousands of digits
    name = "dim_h" if path == "field_f" else "dim_h0"
    for i, row in enumerate(value):
        _require(
            isinstance(row, list) and len(row) == cols,
            f"expected a row of {name} complex pairs",
            f"{path}[{i}]",
        )
    fast = _matrix_from_lists(value, rows, cols)
    if fast is not None:
        return fast
    # something is wrong with a cell: walk them to name its path
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(value):
        for j, cell in enumerate(row):
            out[i, j] = _as_complex(cell, f"{path}[{i}][{j}]")
    return out


def _matrix_from_lists(value: list, rows: int, cols: int) -> Optional[np.ndarray]:
    """The matrix in one conversion when every cell is a pair of finite
    int/float leaves (so no bool and no numeric string), else None.

    The leaf-type sweep must come before np.fromiter, which reads "1.5"
    and True as numbers and None as NaN."""
    flat = chain.from_iterable
    if set(map(type, flat(value))) != {list} or set(map(len, flat(value))) != {2}:
        return None
    if not set(map(type, flat(flat(value)))) <= {int, float}:
        return None
    try:
        pairs = np.fromiter(flat(flat(value)), dtype=float, count=2 * rows * cols)
    except OverflowError:
        return None
    if not np.isfinite(pairs).all():
        return None
    return pairs.view(complex).reshape(rows, cols)


def parse_problem(text: str) -> ProblemSpec:
    """Parse and validate a problem-spec JSON document.

    Raises ParseError for text _decode_json refuses and ValidationError
    (carrying the JSON path) for schema violations: tolerances must be an
    object ({} when absent or null) and its values ProblemSpec's.

    The cyclic garbage collector is paused, process-wide, until the
    parsed JSON tree is dropped, and switched back on on the way out only
    if it was on: the tree holds one list per [re, im] pair, and JSON
    values form no reference cycles, so passes over it find nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _spec_from_text(text)
    finally:
        if was_enabled:
            gc.enable()


def _decode_json(text: str, what: str):
    """text as JSON, else ParseError "what: ..." (the decoder's ValueError
    covers malformed text and integer literals past Python's digit limit)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{what}: {exc}") from exc


def _spec_from_text(text: str) -> ProblemSpec:
    doc = _decode_json(text, "invalid JSON")
    _require(isinstance(doc, dict), "top level must be an object", "")

    known = {"space", "dim_h", "dim_h0", "field_f", "operator_k", "field_g", "tolerances"}
    for key in doc:
        _require(key in known, f"unknown key '{key}'", key)
    for key in ("space", "dim_h", "dim_h0", "field_f", "operator_k"):
        _require(key in doc, f"missing required key '{key}'", key)

    sp = doc["space"]
    _require(isinstance(sp, dict), "expected an object", "space")
    _require("labels" in sp and "weights" in sp, "space needs labels and weights", "space")
    labels = sp["labels"]
    weights = sp["weights"]
    _require(
        isinstance(labels, list) and all(isinstance(x, str) for x in labels),
        "labels must be an array of strings",
        "space.labels",
    )
    _require(isinstance(weights, list), "weights must be an array", "space.weights")
    _require(len(labels) > 0, "a measure space needs at least one atom", "space.labels")
    _require(
        len(labels) == len(weights),
        f"{len(labels)} labels but {len(weights)} weights",
        "space.weights",
    )
    ws = []
    for i, w in enumerate(weights):
        wv = _as_number(w, f"space.weights[{i}]")
        _require(wv > 0.0, f"weight must be > 0, got {wv!r}", f"space.weights[{i}]")
        ws.append(wv)
    space = make_measure_space(labels, ws)
    n_atoms = space.n_atoms

    dim_h = doc["dim_h"]
    dim_h0 = doc["dim_h0"]
    _require(isinstance(dim_h, int) and not isinstance(dim_h, bool) and dim_h >= 1,
             "dim_h must be a positive integer", "dim_h")
    _require(isinstance(dim_h0, int) and not isinstance(dim_h0, bool) and dim_h0 >= 1,
             "dim_h0 must be a positive integer", "dim_h0")

    f_samples = _as_matrix(doc["field_f"], n_atoms, dim_h, "field_f")
    k = _as_matrix(doc["operator_k"], dim_h, dim_h0, "operator_k")

    field_g = None
    if doc.get("field_g") is not None:
        g_samples = _as_matrix(doc["field_g"], n_atoms, dim_h0, "field_g")
        field_g = SampleField(space, g_samples)

    tols = {} if doc.get("tolerances") is None else doc["tolerances"]  # absent or null reads as {}
    _require(isinstance(tols, dict), "expected an object", "tolerances")
    for key, tol in tols.items():  # a null tolerance is no number, where an absent one is None
        _require(key in _TOLERANCE_UPPERS, f"unknown key '{key}'", f"tolerances.{key}")
        _require(tol is not None, "expected a number, got NoneType", f"tolerances.{key}")

    return ProblemSpec(
        space=space,
        field_f=SampleField(space, f_samples),
        operator_k=k,
        field_g=field_g,
        rank_tol=tols.get("rank_tol"),
        check_tol=tols.get("check_tol"),
    )


def _spec_chunks(spec: ProblemSpec) -> Iterator[str]:
    """The canonical spec text, piece by piece: what
    json.dumps(doc, sort_keys=True, indent=2) + "\n" gives for the spec as
    a JSON document, its matrices written a row at a time from their arrays."""
    doc: dict[str, Any] = {
        "space": {"labels": list(spec.space.labels), "weights": list(spec.space.weights)},
        "dim_h": spec.dim_h,
        "dim_h0": spec.dim_h0,
        "field_f": spec.field_f.samples,
        "operator_k": spec.operator_k,
        "field_g": spec.field_g.samples if spec.field_g is not None else None,
    }
    tols = {key: getattr(spec, key) for key in _TOLERANCE_UPPERS if getattr(spec, key) is not None}
    if tols:
        doc["tolerances"] = tols
    yield from _walk(doc, _SPEC, 0)
    yield "\n"


def emit_spec(spec: ProblemSpec) -> str:
    """Serialize a spec at full float precision; parse(emit(s)) == s."""
    return "".join(_spec_chunks(spec))


def spec_digest(spec: ProblemSpec) -> str:
    """sha256 of the canonical spec text, hashed chunk by chunk."""
    digest = hashlib.sha256()
    for chunk in _spec_chunks(spec):
        digest.update(chunk.encode())
    return "sha256:" + digest.hexdigest()


# ---------------------------------------------------------------------------
# writing: one walk over a value tree, one layout table per output


class _Layout(NamedTuple):
    """How one output spells a value tree; _walk reads nothing else."""

    leaf: Callable[[Any], str]  # a scalar
    inline: Callable[[Any], bool]  # whether a list or tuple is written as one leaf, [a, b]
    key: Callable[[Any], str]  # a dict key, before its value
    index: Callable[[int], str]  # a list index, before its item
    lead: str  # between a key or an index and a leaf
    brackets: dict[type, tuple[str, str]]  # a dict's and a list's; a "\n" puts the closing on its own line
    separator: str  # after every item but the last
    cell: str  # the template of a matrix cell's real or imaginary part


def _json_leaf(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            raise ValueError("NaN is not serializable in a report")
        return '"unbounded"' if math.isinf(value) else f"{value:.12e}"
    if value is None or isinstance(value, (int, str)):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def _text_leaf(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return "unbounded" if math.isinf(value) else f"{value:.12e}"
    return str(value)


_BRACKETS = {dict: ("{", "\n}"), list: ("[", "\n]")}
#: The spec text: json.dumps(sort_keys=True, indent=2)'s layout, floats at full precision.
_SPEC = _Layout(
    leaf=json.dumps, inline=lambda items: False, key=lambda key: json.dumps(str(key)) + ": ",
    index=lambda i: "", lead="", brackets=_BRACKETS, separator=",", cell="%r",
)
#: The report layouts, by the name --format gives them.  A vacuously
#: infinite bound is spelled unbounded; JSON writes numbers-only lists inline.
_WRITERS = {
    "json": _SPEC._replace(
        leaf=_json_leaf,
        inline=lambda items: all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items),
        cell="%.12e",
    ),
    "text": _Layout(
        leaf=_text_leaf,
        inline=lambda items: not any(isinstance(v, (list, tuple, dict, np.ndarray)) for v in items),
        key=lambda key: f"{key}:", index=lambda i: f"[{i}]:", lead=" ",
        brackets=dict.fromkeys((dict, list), ("", "")), separator="", cell="%.12e",
    ),
}


def _walk(value, layout: _Layout, depth: int, head: str = "") -> Iterator[str]:
    """value in layout at depth, chunk by chunk, the first chunk led by head.

    The one recursive writer.  A dict's items come sorted by str key.  A
    complex array is its rows of [re, im] pairs: _matrix_chunks writes it
    when it is finite and not empty, and it is walked as nested lists when
    not.  Any other value, and a list or tuple that layout.inline takes
    whole, is a leaf."""
    if isinstance(value, np.ndarray):
        pairs = np.ascontiguousarray(value, dtype=complex).view(float).reshape(*value.shape, 2)
        if pairs.size and np.isfinite(pairs).all():  # the first row, layout.cell for every part
            row = "".join(_walk(pairs[0].tolist(), layout._replace(leaf=lambda part: layout.cell), depth + 1))
            yield from _matrix_chunks(pairs, row, layout, depth, head)
            return
        value = pairs.tolist()
    if isinstance(value, dict):
        kind, items = dict, [(layout.key(key), value[key]) for key in sorted(value, key=str)]
    elif not isinstance(value, (list, tuple)):
        yield head + layout.lead + layout.leaf(value)
        return
    elif layout.inline(value):
        yield head + layout.lead + "[" + ", ".join(map(layout.leaf, value)) + "]"
        return
    else:
        kind, items = list, [(layout.index(i), item) for i, item in enumerate(value)]
    opening, closing = layout.brackets[kind]
    if not items:
        yield head + opening + closing.strip()
        return
    pad = "  " * (depth + 1)
    for label, item in items:
        yield from _walk(item, layout, depth + 1, f"{head}{opening}\n{pad}{label}")
        head, opening = layout.separator, ""
    yield closing.replace("\n", "\n" + "  " * depth)


def _matrix_chunks(pairs: np.ndarray, row: str, layout: _Layout, depth: int, head: str) -> Iterator[str]:
    """A matrix, given as its [re, im] pairs, in layout at depth, one row
    per chunk: each row's parts fill the template row."""
    opening, closing = layout.brackets[list]
    pad = "  " * (depth + 1)
    for i, parts in enumerate(pairs):
        yield f"{head}{opening}\n{pad}{layout.index(i)}" + row % tuple(parts.ravel().tolist())
        head, opening = layout.separator, ""
    yield closing.replace("\n", "\n" + "  " * depth)


def emit_report(report: RunReport, fmt: str = "json") -> str:
    """Render a report deterministically as canonical JSON or text.

    JSON writes the report as one object.  Text writes a header of its
    own, with a table of the five conditions for verify-pair, and then
    the other results one per line."""
    if fmt not in _WRITERS:
        raise ValueError(f"unknown format {fmt!r}")
    tree, depth, head = vars(report), 0, ""  # the report's five fields as one object
    if fmt == "text":
        tree, lines = report.results, [
            "ckframe report",
            f"command: {report.command}",
            f"status: {report.status}",
            f"inputs_digest: {report.inputs_digest}",
            f"wall_time: {report.wall_time:.3e}s",
        ]
        if report.command == "verify-pair" and "residual_c1" in tree:
            lines += ["conditions:", "  condition  residual            pass"]
            for i in range(1, 6):
                r = tree[f"residual_c{i}"]
                ok = "yes" if r <= tree.get("tolerance", DEFAULT_CHECK_TOL) else "no"
                lines.append(f"  c{i}         {r:.12e}  {ok}")
            tree = {k: v for k, v in tree.items() if not k.startswith("residual_c")}
        depth, head = -1, "\n".join(lines)
    return "".join([*_walk(tree, _WRITERS[fmt], depth, head), "\n"])


# ---------------------------------------------------------------------------
# command dispatch


def _bounds_results(spec: ProblemSpec, rank_tol: float, tol: float) -> tuple[str, dict]:
    """Optimal frame bounds and range inclusion for (field_f, operator_k)."""
    report = frame_ops.ckframe_check(spec.field_f, spec.operator_k, rank_tol, tol)
    results = {
        "lower": report.bounds.lower,
        "upper": report.bounds.upper,
        "kind": report.bounds.kind,
        "range_included": report.range_included,
        "is_ck_frame": report.is_ck_frame,
        "degenerate": report.degenerate,
        "residuals": report.residuals,
    }
    if report.degenerate:
        return STATUS_DEGENERATE, results
    return (STATUS_OK if report.is_ck_frame else STATUS_FAILED), results


def _atoms_results(spec: ProblemSpec, rank_tol: float, tol: float) -> tuple[str, dict]:
    """Minimal-norm atomic coefficient map and reconstruction residual."""
    cmap = atoms_duals.atom_coefficient_map(spec.field_f, spec.operator_k, rank_tol, tol)
    residual = atoms_duals.verify_atomic_decomposition(spec.field_f, spec.operator_k, cmap)
    results = {
        "coefficients": cmap.matrix,
        "bound_constant": cmap.bound,
        "reconstruction_residual": residual,
    }
    return (STATUS_OK if residual <= tol else STATUS_FAILED), results


def _dual_results(spec: ProblemSpec, rank_tol: float, tol: float) -> tuple[str, dict]:
    """Canonical dual field with certified bound interval."""
    dual = atoms_duals.canonical_dual(spec.field_f, spec.operator_k, rank_tol, tol)
    results = {
        "projected_frame": dual.projected_frame.samples,
        "dual_field": dual.dual_field.samples,
        "lower_bound": dual.lower_bound,
        "upper_bound": dual.upper_bound,
        "max_pair_residual": dual.pair.max_residual(),
    }
    return STATUS_OK, results


def _verify_pair_results(spec: ProblemSpec, rank_tol: float, tol: float) -> tuple[str, dict]:
    """Check the five dual-pair identities for (field_f, field_g, operator_k)."""
    if spec.field_g is None:
        raise ValidationError("verify-pair requires field_g", "field_g")
    pair = atoms_duals.verify_dual_pair(
        spec.field_f, spec.field_g, spec.operator_k, tol, rank_tol
    )
    onto = pair.onto_variant_residuals
    results = {
        "residual_c1": pair.residual_c1,
        "residual_c2": pair.residual_c2,
        "residual_c3": pair.residual_c3,
        "residual_c4": pair.residual_c4,
        "residual_c5": pair.residual_c5,
        "holds": pair.holds,
        "lower_bound_cert": pair.lower_bound_cert,
        "onto_variant_residuals": list(onto) if onto is not None else None,
        "notes": list(pair.notes),
        "tolerance": tol,
    }
    return (STATUS_OK if pair.holds else STATUS_FAILED), results


def _douglas_results(spec: ProblemSpec, rank_tol: float, tol: float) -> tuple[str, dict]:
    """Range inclusion / factorization / majorization for (operator_k, synthesis)."""
    l2 = frame_ops.whitened_synthesis_matrix(spec.field_f)
    result = douglas.douglas_factor(spec.operator_k, l2, rank_tol, tol)
    agree = result.included == (result.factor is not None) == (result.lambda_min is not None)
    results = {
        "included": result.included,
        "residual": result.residual,
        "marginal": result.marginal,
        "factor": result.factor,
        "lambda_min": result.lambda_min,
        "predicates_agree": agree,
    }
    return (STATUS_OK if agree and result.included else STATUS_FAILED), results


def _sandwich_results(spec: ProblemSpec, rank_tol: float, tol: float) -> tuple[str, dict]:
    """sandwich_check's and subspace_cframe_margin's margins, off one compression."""
    on = atoms_duals._on_range(spec.field_f, as_operator(spec.operator_k), rank_tol, tol)
    sandwich = atoms_duals._least_margin(on.sandwich_margins)
    restricted = atoms_duals._least_margin(on.restricted_margins)
    results = {"sandwich_margin": sandwich, "restricted_margin": restricted}
    ok = sandwich >= -tol and restricted >= -tol
    return (STATUS_OK if ok else STATUS_FAILED), results


_RUNNERS = {
    "bounds": _bounds_results,
    "atoms": _atoms_results,
    "dual": _dual_results,
    "verify-pair": _verify_pair_results,
    "douglas": _douglas_results,
    "sandwich": _sandwich_results,
}
COMMANDS = tuple(_RUNNERS)


def run_command(
    spec: ProblemSpec,
    command: str,
    tol_override: Optional[float] = None,
    default_tol: float = DEFAULT_CHECK_TOL,
) -> RunReport:
    """Execute one command against a spec and wrap the outcome.

    Tolerance resolution: explicit override, else the spec's check_tol,
    else the supplied default; a tol_override or default_tol that
    linalg._check_tol refuses raises ValidationError naming it.  Library
    errors become status=failed with the originating error class name in
    the results; schema errors (e.g. verify-pair without field_g) propagate.
    """
    if command not in _RUNNERS:
        raise ValidationError(f"unknown command '{command}'", "command")
    default_tol = _check_tol(default_tol, "default_tol")
    tol = _check_tol(tol_override, "tol_override") if tol_override is not None else (
        spec.check_tol if spec.check_tol is not None else default_tol
    )
    rank_tol = spec.rank_tol if spec.rank_tol is not None else DEFAULT_RANK_TOL
    digest = spec_digest(spec)
    start = time.perf_counter()
    try:
        status, results = _RUNNERS[command](spec, rank_tol, tol)
    except ValidationError:
        raise
    except CkFrameError as exc:
        status = STATUS_FAILED
        results = {"error": type(exc).__name__, "message": str(exc)}
    elapsed = time.perf_counter() - start
    return RunReport(
        command=command,
        inputs_digest=digest,
        status=status,
        results=results,
        wall_time=elapsed,
    )


# ---------------------------------------------------------------------------
# example generation


#: Per-kind parameter defaults, so every kind runs bare from the CLI.
PARAM_DEFAULTS = {
    "onb": {"n": 2},
    "scaled_onb": {"scales": [1.0, 2.0]},
    "random_ckframe": {"n": 4, "n0": 2, "atoms": 16},
    "random_bessel_pair": {"n": 4, "n0": 2, "atoms": 16},
    "interval_fourier": {"n": 4, "atoms": 16},
}
GENERATOR_KINDS = tuple(PARAM_DEFAULTS)


#: Most complex cells a generated matrix may hold (2**24 cells is 256 MiB).
MAX_GENERATED_CELLS = 2**24


def _check_cells(kind: str, *shapes: tuple[int, int]) -> None:
    """Reject sizes whose largest generated matrix would exceed the cell limit."""
    if max(rows * cols for rows, cols in shapes) > MAX_GENERATED_CELLS:
        raise BadParams(f"{kind} would generate a matrix of more than {MAX_GENERATED_CELLS} cells")


def _param_int(params: dict, key: str) -> int:
    v = params[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise BadParams(f"parameter '{key}' must be an integer >= 1, got {v!r}")
    return v


def _with_defaults(kind: str, params: dict) -> dict:
    defaults = PARAM_DEFAULTS[kind]
    extra = set(params) - set(defaults)
    if extra:
        raise BadParams(f"unknown parameters: {sorted(extra)}")
    merged = dict(defaults)
    merged.update(params)
    return merged


def _counting_space(n: int) -> MeasureSpace:
    return make_measure_space([f"x{i}" for i in range(n)], [1.0] * n)


def generate_example(kind: str, params: dict, seed: int = 0) -> ProblemSpec:
    """Produce a deterministic problem spec of the requested kind.

    Kinds: onb (orthonormal basis, k = identity), scaled_onb (diagonal
    frame s_i e_i, k = identity), random_ckframe (random field with k
    factored through the synthesis operator so inclusion holds by
    construction), random_bessel_pair (independent random f, g, k), and
    interval_fourier (uniform grid on [0, 1) with modulation vectors,
    a Parseval frame).  Sizes whose largest matrix would hold more than
    MAX_GENERATED_CELLS cells raise BadParams before anything is built.
    """
    if kind not in GENERATOR_KINDS:
        raise UnknownKind(f"unknown generator kind '{kind}'")
    if not isinstance(params, dict):
        raise BadParams("params must be an object")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise BadParams(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise BadParams(f"seed must be >= 0, got {seed}")
    params = _with_defaults(kind, params)
    rng = np.random.default_rng(seed)

    if kind == "onb":
        n = _param_int(params, "n")
        _check_cells(kind, (n, n))
        kind, params = "scaled_onb", {"scales": [1.0] * n}

    if kind == "scaled_onb":
        if not isinstance(params["scales"], list) or not params["scales"]:
            raise BadParams("parameter 'scales' must be a non-empty array of numbers")
        n = len(params["scales"])
        _check_cells(kind, (n, n))
        scales = []
        for i, s in enumerate(params["scales"]):
            try:
                scale = _as_number(s, f"scales[{i}]")
            except ValidationError:
                raise BadParams(f"scales[{i}] must be a finite number") from None
            if scale == 0.0:
                raise BadParams(f"scales[{i}] must be nonzero")
            scales.append(scale)
        space = _counting_space(n)
        samples = np.diag(np.asarray(scales, dtype=complex))
        return ProblemSpec(
            space=space,
            field_f=SampleField(space, samples),
            operator_k=np.eye(n, dtype=complex),
        )

    if kind in ("random_ckframe", "random_bessel_pair"):
        n = _param_int(params, "n")
        n0 = _param_int(params, "n0")
        atoms = _param_int(params, "atoms")
        _check_cells(kind, (atoms, n), (atoms, n0), (n, n0))
        weights = rng.uniform(0.5, 1.5, size=atoms)
        space = make_measure_space([f"x{i}" for i in range(atoms)], weights)
        f_samples = rng.standard_normal((atoms, n)) + 1j * rng.standard_normal((atoms, n))
        field_f = SampleField(space, f_samples)
        if kind == "random_ckframe":
            mix = rng.standard_normal((atoms, n0)) + 1j * rng.standard_normal((atoms, n0))
            k = frame_ops.synthesis_matrix(field_f) @ mix
            spec = ProblemSpec(space=space, field_f=field_f, operator_k=k)
            check = frame_ops.ckframe_check(field_f, k)
            if not check.is_ck_frame:
                raise BadParams(
                    "generated instance failed its own frame check; "
                    "try different dims or another seed"
                )
            return spec
        g_samples = rng.standard_normal((atoms, n0)) + 1j * rng.standard_normal((atoms, n0))
        k = rng.standard_normal((n, n0)) + 1j * rng.standard_normal((n, n0))
        return ProblemSpec(
            space=space,
            field_f=field_f,
            operator_k=k,
            field_g=SampleField(space, g_samples),
        )

    # interval_fourier
    n = _param_int(params, "n")
    atoms = _param_int(params, "atoms")
    if atoms < n:
        raise BadParams(f"interval_fourier needs atoms >= n, got {atoms} < {n}")
    _check_cells(kind, (atoms, n))
    grid = np.arange(atoms) / atoms
    samples = np.exp(2j * np.pi * np.outer(grid, np.arange(n)))
    space = make_measure_space([f"t{j}" for j in range(atoms)], [1.0 / atoms] * atoms)
    return ProblemSpec(
        space=space,
        field_f=SampleField(space, samples),
        operator_k=np.eye(n, dtype=complex),
    )
