"""Problem-spec parsing, example generation, command dispatch, reports.

A problem spec is a single JSON document describing a weighted space, a
field over it, the operator k, and optionally a second field.  Complex
scalars are [re, im] pairs; matrices are row-major nested arrays.  Spec
files serialize floats at full precision (parse/emit round-trips), while
reports use fixed %.12e formatting so identical runs are byte-identical
apart from the wall_time entry.  Specs and JSON reports write their
matrices through one row writer, _matrix_chunks, straight from the arrays.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from dataclasses import dataclass, field as dc_field
from itertools import chain
from typing import Any, Iterator, Optional

import numpy as np

from . import atoms_duals, douglas, frame_ops
from .errors import (
    BadParams,
    CkFrameError,
    ParseError,
    UnknownKind,
    ValidationError,
)
from .linalg import DEFAULT_CHECK_TOL, DEFAULT_RANK_TOL, _as_number, _check_tol
from .measure import MeasureSpace, SampleField, make_measure_space

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_DEGENERATE = "degenerate"


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Parsed problem instance."""

    space: MeasureSpace
    field_f: SampleField
    operator_k: np.ndarray
    field_g: Optional[SampleField] = None
    rank_tol: Optional[float] = None
    check_tol: Optional[float] = None
    options: dict = dc_field(default_factory=dict)

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
    # check the shape against the data present before allocating for it
    for i, row in enumerate(value):
        _require(
            isinstance(row, list) and len(row) == cols,
            f"expected a row of {cols} complex pairs",
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


# json.dumps writes options back recursing once per level: keep well inside 1000
MAX_OPTIONS_DEPTH = 500


def parse_problem(text: str) -> ProblemSpec:
    """Parse and validate a problem-spec JSON document.

    Raises ParseError for text _decode_json refuses and ValidationError
    (carrying the JSON path) for schema violations: tolerances and options
    must be objects ({} when absent or null), and options may nest at most
    MAX_OPTIONS_DEPTH levels deep and hold finite numbers only.

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

    known = {"space", "dim_h", "dim_h0", "field_f", "operator_k", "field_g", "tolerances", "options"}
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

    for key in ("tolerances", "options"):  # optional objects: absent or null reads as {}
        doc[key] = {} if doc.get(key) is None else doc[key]
        _require(isinstance(doc[key], dict), "expected an object", key)
    tols, options = doc["tolerances"], doc["options"]
    uppers = {"rank_tol": 1.0, "check_tol": math.inf}  # each tolerance lies in (0, upper)
    for key in tols:
        _require(key in uppers, f"unknown key '{key}'", f"tolerances.{key}")
        tols[key] = _check_tol(tols[key], f"tolerances.{key}", uppers[key])

    level = [options]  # its arrays and objects a level deeper each pass, without recursion
    for _ in range(MAX_OPTIONS_DEPTH):
        if not level:
            break
        values = [c for v in level for c in (v.values() if isinstance(v, dict) else v)]
        _require(all(math.isfinite(c) for c in values if isinstance(c, float)),
                 "numbers in options must be finite", "options")
        level = [c for c in values if isinstance(c, (dict, list))]
    _require(not level, f"options nest deeper than {MAX_OPTIONS_DEPTH} levels", "options")

    return ProblemSpec(
        space=space,
        field_f=SampleField(space, f_samples),
        operator_k=k,
        field_g=field_g,
        rank_tol=tols.get("rank_tol"),
        check_tol=tols.get("check_tol"),
        options=options,
    )


def _spec_chunks(spec: ProblemSpec) -> Iterator[str]:
    """The canonical spec text, piece by piece.

    The text is what json.dumps(doc, sort_keys=True, indent=2) + "\n"
    gives for the spec as a JSON document.  json.dumps writes the small
    entries; the matrices are written one row at a time from their float
    arrays in the same layout.
    """
    doc: dict[str, Any] = {
        "space": {"labels": list(spec.space.labels), "weights": list(spec.space.weights)},
        "dim_h": spec.dim_h,
        "dim_h0": spec.dim_h0,
        "field_f": spec.field_f.samples,
        "operator_k": spec.operator_k,
        "field_g": spec.field_g.samples if spec.field_g is not None else None,
    }
    tols = {key: tol for key, tol in (("rank_tol", spec.rank_tol), ("check_tol", spec.check_tol))
            if tol is not None}
    if tols:
        doc["tolerances"] = tols
    if spec.options:
        doc["options"] = spec.options
    separator = "{\n  "
    for key in sorted(doc):
        yield f"{separator}{json.dumps(key)}: "
        separator = ",\n  "
        value = doc[key]
        if isinstance(value, np.ndarray):
            yield from _matrix_chunks(value, "[\n        %r,\n        %r\n      ]", "  ", _spec_entry)
        else:
            yield _spec_entry(value)
    yield "\n}\n"


def _spec_entry(value) -> str:
    """value as json.dumps(indent=2) lays it out at the depth of a top-level entry."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


def _pairs(m: np.ndarray) -> np.ndarray:
    """A complex matrix's cells as [re, im] float pairs, shape m.shape + (2,)."""
    return np.ascontiguousarray(m, dtype=complex).view(float).reshape(*m.shape, 2)


def _matrix_chunks(m: np.ndarray, cell: str, pad: str, nested) -> Iterator[str]:
    """A complex matrix as nested [re, im] pairs closing at indent pad, one
    row per chunk, each pair laid out by the template cell.  An empty or
    non-finite matrix goes whole to nested(pairs as lists), the writer's
    own walk, which spells empty rows, NaN and infinities its way."""
    pairs = _pairs(m)
    if pairs.size == 0 or not np.isfinite(pairs).all():
        yield nested(pairs.tolist())
        return
    row_text = f"{pad}  [\n" + ",\n".join([pad + "    " + cell] * m.shape[1]) + f"\n{pad}  ]"
    separator = "[\n"
    for row in pairs:
        yield separator + row_text % tuple(row.ravel().tolist())
        separator = ",\n"
    yield f"\n{pad}]"


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
# canonical report serialization


def _canonical_fragment(value, indent: int) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            raise ValueError("NaN is not serializable in a report")
        return '"unbounded"' if math.isinf(value) else f"{value:.12e}"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        return "".join(
            _matrix_chunks(value, "[%.12e, %.12e]", pad, lambda pairs: _canonical_fragment(pairs, indent))
        )
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        scalars = all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        )
        if scalars:
            return "[" + ", ".join(_canonical_fragment(v, 0) for v in value) + "]"
        inner = ",\n".join(pad + "  " + _canonical_fragment(v, indent + 1) for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            pad + "  " + json.dumps(str(k)) + ": " + _canonical_fragment(value[k], indent + 1)
            for k in sorted(value, key=str)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def report_to_json(report: RunReport) -> str:
    doc = {
        "command": report.command,
        "inputs_digest": report.inputs_digest,
        "status": report.status,
        "results": report.results,
        "wall_time": report.wall_time,
    }
    return _canonical_fragment(doc, 0) + "\n"


def _text_value(value, indent: int, lines: list[str], label: str) -> None:
    pad = "  " * indent
    if isinstance(value, np.ndarray):
        value = _pairs(value).tolist()
    if isinstance(value, dict):
        lines.append(f"{pad}{label}:")
        for k in sorted(value, key=str):
            _text_value(value[k], indent + 1, lines, str(k))
    elif isinstance(value, (list, tuple)) and any(isinstance(v, (list, tuple, dict)) for v in value):
        lines.append(f"{pad}{label}:")
        for i, v in enumerate(value):
            _text_value(v, indent + 1, lines, f"[{i}]")
    else:
        lines.append(f"{pad}{label}: {_text_scalar(value)}")


def _text_scalar(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return "unbounded" if math.isinf(value) else f"{value:.12e}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_text_scalar(v) for v in value) + "]"
    return str(value)


def report_to_text(report: RunReport) -> str:
    lines = [
        "ckframe report",
        f"command: {report.command}",
        f"status: {report.status}",
        f"inputs_digest: {report.inputs_digest}",
        f"wall_time: {report.wall_time:.3e}s",
    ]
    results = report.results
    if report.command == "verify-pair" and "residual_c1" in results:
        lines.append("conditions:")
        lines.append("  condition  residual            pass")
        for i in range(1, 6):
            r = results[f"residual_c{i}"]
            ok = "yes" if r <= results.get("tolerance", DEFAULT_CHECK_TOL) else "no"
            lines.append(f"  c{i}         {r:.12e}  {ok}")
        rest = {k: v for k, v in results.items() if not k.startswith("residual_c")}
    else:
        rest = results
    for k in sorted(rest, key=str):
        _text_value(rest[k], 0, lines, str(k))
    return "\n".join(lines) + "\n"


#: The report writers, by the name --format gives them.
_WRITERS = {"json": report_to_json, "text": report_to_text}


def emit_report(report: RunReport, fmt: str = "json") -> str:
    """Render a report deterministically as canonical JSON or text."""
    if fmt not in _WRITERS:
        raise ValueError(f"unknown format {fmt!r}")
    return _WRITERS[fmt](report)


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
    """Two-sided bounds of the inverted frame operator on range(operator_k)."""
    sandwich = atoms_duals.sandwich_check(spec.field_f, spec.operator_k, rank_tol, tol)
    # reads the compression to range(k) that sandwich_check kept
    restricted = atoms_duals.subspace_cframe_margin(spec.field_f, spec.operator_k, rank_tol, tol)
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
