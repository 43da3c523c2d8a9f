"""Problem-spec parsing, example generation, command dispatch, reports.

A problem spec is a single JSON document describing a weighted space, a
field over it, the operator k, and optionally a second field.  Complex
scalars are [re, im] pairs; matrices are row-major nested arrays.  Spec
files serialize floats at full precision (parse/emit round-trips), while
reports use fixed %.12e formatting so identical runs are byte-identical
apart from the wall_time entry.
"""

from __future__ import annotations

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
from .linalg import DEFAULT_CHECK_TOL, DEFAULT_RANK_TOL, Unbounded
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
    """Result envelope for one command run."""

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


def _as_number(value, path: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"expected a number, got {type(value).__name__}",
        path,
    )
    try:
        number = float(value)
    except OverflowError:
        raise ValidationError("number is too large for double precision", path) from None
    _require(math.isfinite(number), "number must be finite", path)
    return number


def _as_tolerance(value, path: str) -> float:
    """value as a tolerance: a finite number > 0.  path names where it came
    from, a spec's JSON path or the CLI's --tol or CKFRAME_TOL."""
    tol = _as_number(value, path)
    _require(tol > 0.0, "tolerance must be > 0", path)
    return tol


def _as_complex(value, path: str) -> complex:
    _require(
        isinstance(value, list) and len(value) == 2,
        "complex scalar must be a [re, im] pair",
        path,
    )
    re = _as_number(value[0], f"{path}[0]")
    im = _as_number(value[1], f"{path}[1]")
    return complex(re, im)


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
    int/float leaves (so no bool and no numeric string), else None."""
    flat = chain.from_iterable
    if set(map(type, flat(value))) != {list} or set(map(len, flat(value))) != {2}:
        return None
    if not set(map(type, flat(flat(value)))) <= {int, float}:
        return None
    try:
        pairs = np.array(value, dtype=float)
    except OverflowError:
        return None
    if not np.isfinite(pairs).all():
        return None
    return pairs.view(complex).reshape(rows, cols)


def parse_problem(text: str) -> ProblemSpec:
    """Parse and validate a problem-spec JSON document.

    Raises ParseError for malformed JSON and ValidationError (carrying
    the JSON path) for schema violations.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
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

    rank_tol = None
    check_tol = None
    if "tolerances" in doc and doc["tolerances"] is not None:
        tols = doc["tolerances"]
        _require(isinstance(tols, dict), "expected an object", "tolerances")
        checked = {}
        for key in tols:
            _require(key in ("rank_tol", "check_tol"), f"unknown key '{key}'", f"tolerances.{key}")
            checked[key] = _as_tolerance(tols[key], f"tolerances.{key}")
        rank_tol = checked.get("rank_tol")
        check_tol = checked.get("check_tol")

    options = doc.get("options") or {}
    _require(isinstance(options, dict), "expected an object", "options")

    return ProblemSpec(
        space=space,
        field_f=SampleField(space, f_samples),
        operator_k=k,
        field_g=field_g,
        rank_tol=rank_tol,
        check_tol=check_tol,
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
    tols = {}
    if spec.rank_tol is not None:
        tols["rank_tol"] = spec.rank_tol
    if spec.check_tol is not None:
        tols["check_tol"] = spec.check_tol
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
            yield from _matrix_chunks(value)
        else:
            yield json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
    yield "\n}\n"


#: One complex cell of a spec matrix, as json.dumps(indent=2) lays it out
#: at the depth of a top-level entry.
_CELL = "      [\n        %r,\n        %r\n      ]"


def _matrix_chunks(m: np.ndarray) -> Iterator[str]:
    """A complex matrix as nested [re, im] pairs, one row per chunk."""
    parts = np.ascontiguousarray(m, dtype=complex).view(float)
    if parts.size == 0 or not np.isfinite(parts).all():
        # json's own spelling of empty rows and of NaN / Infinity
        nested = parts.reshape(*m.shape, 2).tolist()
        yield json.dumps(nested, indent=2).replace("\n", "\n  ")
        return
    row_text = "    [\n" + ",\n".join([_CELL] * m.shape[1]) + "\n    ]"
    separator = "[\n"
    for row in parts:
        yield separator + row_text % tuple(row.tolist())
        separator = ",\n"
    yield "\n  ]"


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


def _jsonable(value):
    """Convert results to JSON-ready structures (complex -> [re, im])."""
    if isinstance(value, Unbounded):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        pairs = np.ascontiguousarray(value, dtype=complex).view(float)
        return pairs.reshape(*value.shape, 2).tolist()
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return [z.real, z.imag]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _canonical_fragment(value, indent: int) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Unbounded):
        return '"unbounded"'
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            raise ValueError("NaN is not serializable in a report")
        if math.isinf(value):
            return '"unbounded"'
        return f"{value:.12e}"
    if isinstance(value, str):
        return json.dumps(value)
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
    if isinstance(value, Unbounded) or (isinstance(value, float) and math.isinf(value)):
        return "unbounded"
    if isinstance(value, float):
        return f"{value:.12e}"
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


def emit_report(report: RunReport, fmt: str = "json") -> str:
    """Render a report deterministically as canonical JSON or text."""
    if fmt == "json":
        return report_to_json(report)
    if fmt == "text":
        return report_to_text(report)
    raise ValueError(f"unknown format {fmt!r}")


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
    else the supplied default.  Library errors become status=failed with
    the originating error class name in the results; schema errors
    (e.g. verify-pair without field_g) propagate to the caller.
    """
    if command not in _RUNNERS:
        raise ValidationError(f"unknown command '{command}'", "command")
    tol = tol_override if tol_override is not None else (
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
        results=_jsonable(results),
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
    if seed < 0:
        raise BadParams(f"seed must be >= 0, got {seed}")
    params = _with_defaults(kind, params)
    rng = np.random.default_rng(seed)

    if kind == "onb":
        n = _param_int(params, "n")
        _check_cells(kind, (n, n))
        space = _counting_space(n)
        eye = np.eye(n, dtype=complex)
        return ProblemSpec(space=space, field_f=SampleField(space, eye), operator_k=eye.copy())

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
