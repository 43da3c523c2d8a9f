"""Synthesis, analysis, and frame-bound diagnostics for sampled fields.

A field f over a weighted space X induces three operators:

* synthesis  T_f : L2(X) -> H,   g |-> sum_i w_i g_i f_i
* analysis   T_f*: H -> L2(X),   h |-> (<h, f_i>)_i
* frame op   S_f = T_f T_f* = sum_i w_i f_i f_i*

Note the weights live in the L2 inner product, so analysis carries no
weight factor; the pair is adjoint with respect to the weighted metric.
A bounded operator k into H is "reproduced" by f when the lower frame
inequality holds against ||k* h||^2 and range(k) sits inside range(T_f).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimMismatch, NotRepresentable, SpaceMismatch
from .linalg import (
    DEFAULT_CHECK_TOL,
    DEFAULT_RANK_TOL,
    OperatorMatrix,
    _hand_out,
    as_operator,
)
from .measure import SampleField, ScalarField, _frozen_array

C_BESSEL = "cBessel"
C_FRAME = "cFrame"
CK_FRAME = "ckFrame"


@dataclass(frozen=True)
class FrameBounds:
    """Optimal constants of a frame-type inequality.

    lower is math.inf exactly in the vacuous k = 0 case; otherwise a
    nonnegative finite float.  kind records which inequality the bounds certify.
    """

    lower: float
    upper: float
    kind: str


@dataclass(frozen=True)
class CkFrameReport:
    """Outcome of the reproducing-operator frame check."""

    bounds: FrameBounds
    range_included: bool
    is_ck_frame: bool
    residuals: dict[str, float] = field(default_factory=dict)
    degenerate: bool = False


def synthesis(f: SampleField, g: ScalarField) -> np.ndarray:
    """T_f g = sum_i w_i g_i f_i, a vector in H."""
    if f.space != g.space:
        raise SpaceMismatch("field and coefficients live over different spaces")
    w = f.space.weight_array
    return (w * g.values) @ f.samples


def analysis(f: SampleField, h) -> ScalarField:
    """Adjoint of synthesis: the coefficient function x -> <h, f(x)>."""
    hv = np.asarray(h, dtype=complex)
    if hv.ndim != 1 or hv.shape[0] != f.dim:
        raise DimMismatch(f"expected vector of length {f.dim}, got shape {hv.shape}")
    return ScalarField(f.space, f.samples.conj() @ hv)


def synthesis_matrix(f: SampleField) -> OperatorMatrix:
    """Matrix of T_f acting on raw atom values: column i is w_i * f_i."""
    w = f.space.weight_array
    return (f.samples * w[:, None]).T.copy()


def whitened_synthesis_matrix(f: SampleField) -> OperatorMatrix:
    """Matrix of T_f in orthonormal coordinates for weighted L2.

    The isometry g -> sqrt(w) * g turns the weighted space into plain C^N;
    in those coordinates T_f has column i equal to sqrt(w_i) * f_i.  Ranks,
    norms, and pseudoinverses of T_f are computed through this matrix.

    The B returned is frozen, as a field's samples are, over bytes of its
    own, so neither it nor its base can be made writable; a Douglas face
    given this very array asks as f (see linalg._kept_like).  Raises
    NotRepresentable when the trace of S_f = B B* overflows, or underflows
    for a nonzero B, in doubles.
    """
    return _hand_out(_frozen_array(_whitened_matrix(f), complex), f._kept)


def _whitened_matrix(f: SampleField) -> OperatorMatrix:
    """f's B, built as whitened_synthesis_matrix builds it but not copied
    and never handed out: a read-only view of rows that nothing else holds."""
    rows = _whitened_rows(f)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        energy = np.vdot(rows, rows).real
    if not (np.isfinite(energy) and (energy >= np.finfo(float).tiny or not rows.any())):
        raise NotRepresentable("the frame operator is outside double precision range")
    rows.setflags(write=False)
    return rows.T


def _whitened_rows(f: SampleField) -> np.ndarray:
    """B.T, the rows sqrt(w_i) f_i of f's whitened synthesis matrix, with
    no check of S_f: a product of B with another field's B can be in range
    where S_f is not."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return f.samples * np.sqrt(f.space.weight_array)[:, None]


def frame_operator(f: SampleField) -> OperatorMatrix:
    """S_f = sum_i w_i f_i f_i*, Hermitian PSD on H."""
    w = f.space.weight_array
    s = (f.samples.T * w) @ f.samples.conj()
    return 0.5 * (s + s.conj().T)


def map_field(u, f: SampleField) -> SampleField:
    """Apply an operator atomwise: (u f)(x) = u(f(x))."""
    a = as_operator(u)
    if a.shape[1] != f.dim:
        raise DimMismatch(f"operator expects dim {a.shape[1]}, field has {f.dim}")
    return SampleField(f.space, f.samples @ a.T)


def cframe_bounds(f: SampleField) -> FrameBounds:
    """Optimal plain frame bounds of f: ckframe_check's bounds, bit for bit,
    for k = I on H at the default tolerances.  f is a frame when H sits
    inside range(B); the lower bound is then ||pinv(B)||^-2, else 0.0 (a
    Bessel field), and the upper bound is sigma_max(B)^2."""
    report = _frame_check(f, np.eye(f.dim, dtype=complex), DEFAULT_RANK_TOL, DEFAULT_CHECK_TOL)
    return replace(report.bounds, kind=C_FRAME if report.range_included else C_BESSEL)


def ckframe_check(
    f: SampleField,
    k,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_CHECK_TOL,
) -> CkFrameReport:
    """Decide whether f reproduces the operator k.

    Everything is read off one SVD B = U Sigma V* of the whitened
    synthesis matrix, with the rank r decided on the singular values of B:

    * bounds.upper = sigma_max^2, the largest eigenvalue of S_f = B B*;
    * range_included: ||(I - U_r U_r*) k|| <= tol * ||k||;
    * bounds.lower: the largest A with A k k* <= S_f, which is
      1 / ||Sigma_r^-1 U_r* k||^2 = 1 / ||pinv(B) k||^2 on inclusion and
      0.0 otherwise (math.inf when k = 0).

    A is positive exactly when range(k) is included, so is_ck_frame is
    the inclusion verdict.  The k = 0 case is vacuously a frame and
    flagged ``degenerate``.
    """
    return _frame_check(f, as_operator(k), rank_tol, tol)


def _ask(f: SampleField, kk: OperatorMatrix, rank_tol: float, tol: float, name: str = "B of f") -> tuple:
    """(svd, coords, included): linalg._Kept.ask of f about the operator k,
    after the dimension check, with f's B called name in a RankAmbiguous
    message.  On inclusion coords.x = ||pinv(B) k|| (0.0 when k = 0), of
    which the lower frame bound is A = x^-2, is range-checked here, once
    per ask (see linalg._Coords.pinv_norm).  B's SVD and the answers about
    k are kept for f (see linalg._Kept): asking again factors nothing."""
    if kk.shape[0] != f.dim:
        raise DimMismatch(f"k maps into dim {kk.shape[0]}, field has dim {f.dim}")
    svd, coords, included, _ = f._kept.ask(lambda: _whitened_matrix(f), kk, rank_tol, tol, name)
    if included:
        coords.pinv_norm("the lower frame bound")
    return svd, coords, included


def _frame_check(
    f: SampleField, kk: OperatorMatrix, rank_tol: float, tol: float, name: str = "B of f"
) -> CkFrameReport:
    """ckframe_check of the operator k, read off _ask (name as there)."""
    svd, coords, included = _ask(f, kk, rank_tol, tol, name)
    lower = math.inf if coords.zero else float(np.float64(coords.x) ** -2) if included else 0.0
    return CkFrameReport(
        bounds=FrameBounds(lower=lower, upper=svd.top**2, kind=CK_FRAME),
        range_included=included,
        is_ck_frame=included,
        residuals={"range_inclusion": coords.distance},
        degenerate=coords.zero,
    )
