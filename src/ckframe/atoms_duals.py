"""Atomic decompositions, inverse-on-range bounds, and dual pairs.

Everything here concerns a field f over X reproducing a bounded operator
k : H0 -> H.  The central objects:

* a coefficient map m : H0 -> L2(X) with k h = T_f(m h)  (atoms);
* the inverse of the frame operator on range(k), with the two-sided
  eigenvalue sandwich it must satisfy;
* dual pairs (f, g, k): five equivalent reproducing identities, plus the
  canonical dual construction g = k* (S_f|_{range k})^{-1} P f.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    CanonicalDualFailed,
    DegenerateOperator,
    DimMismatch,
    NotADualPair,
    NotInvertibleOnRange,
    NotRepresentable,
    RangeNotIncluded,
    SpaceMismatch,
)
from .frame_ops import (
    _ask,
    _frame_check,
    _whitened_matrix,
    _whitened_rows,
    frame_operator,
    map_field,
)
from .linalg import (
    DEFAULT_CHECK_TOL,
    DEFAULT_RANK_TOL,
    OperatorMatrix,
    _AboutK,
    _RankedSVD,
    _check_finite,
    _check_tol,
    _separated_rank,
    adjoint,
    as_operator,
    pseudoinverse,
)
from .measure import SampleField


@dataclass(frozen=True)
class CoefficientMap:
    """Linear map sending h in H0 to a coefficient function on the atoms.

    matrix has one row per atom and one column per H0 coordinate, so its
    shape (n_atoms, dim H0) is the map's dimensions.  bound is
    the operator norm from H0 into weighted L2: the constant a with
    ||m h||_{L2} <= a ||h|| for every h.
    """

    matrix: OperatorMatrix
    bound: float


@dataclass(frozen=True)
class DualPairReport:
    """Residuals of the five equivalent dual-pair identities.

    c1: k h0 recovered by synthesizing f against <h0, g(.)>;
    c2: k* h recovered by synthesizing g against <h, f(.)>;
    c3, c4: the two bilinear-form identities;
    c5: the c4 identity in coordinates.
    Each is read in the standard bases of H and H0 (see verify_dual_pair
    for other bases), so c3, c4 and c5 are all the largest entry of the
    mismatch k - sum_x w_x f_x g_x*.
    c1-c5 are relative to ||k|| and the squared norm identities to
    ||k||^2 (both to 1 when k = 0), so rescaling g and k together leaves
    them unchanged.  onto_variant_residuals carries the norm-identity
    residuals (k onto, k* onto) when the respective surjectivity holds,
    None entries otherwise; rank(k) is decided as everywhere else, so a
    singular value of k in the ambiguous band raises RankAmbiguous.
    """

    residual_c1: float
    residual_c2: float
    residual_c3: float
    residual_c4: float
    residual_c5: float
    holds: bool
    onto_variant_residuals: Optional[tuple[Optional[float], Optional[float]]]
    lower_bound_cert: float
    notes: tuple[str, ...] = ()

    def max_residual(self) -> float:
        return max(
            self.residual_c1,
            self.residual_c2,
            self.residual_c3,
            self.residual_c4,
            self.residual_c5,
        )


@dataclass(frozen=True)
class CanonicalDual:
    """Canonical dual field of (f, k), with its certified bound interval
    and the dual-pair report it was verified by."""

    projected_frame: SampleField
    dual_field: SampleField
    lower_bound: float
    upper_bound: float
    pair: DualPairReport


# ---------------------------------------------------------------------------
# atoms


def atom_coefficient_map(
    f: SampleField,
    k,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_CHECK_TOL,
) -> CoefficientMap:
    """Minimal-norm coefficient map m with T_f (m h) = k h.

    Solves the weighted least-norm problem columnwise: writing B for the
    whitened synthesis matrix (columns sqrt(w_i) f_i), the solution is
    m = diag(1/sqrt(w)) pinv(B) k, and the recorded bound constant is
    ||pinv(B) k|| (the operator norm of m into weighted L2), which is
    1 / sqrt(A) for the ck-frame lower bound A.

    Raises
    ------
    RangeNotIncluded
        If range(k) is not contained in range(T_f); no coefficient map
        can reproduce k in that case.
    NotRepresentable
        If an entry of m is outside double precision range.
    """
    # pinv(B) k and its norm, kept for f, are read off the same SVD, and tol
    # is checked by the inclusion decision (see linalg._Kept.ask)
    _, coords, included = _ask(f, as_operator(k), rank_tol, tol)
    if not included:
        raise RangeNotIncluded(
            f"range inclusion residual {coords.distance:.3e} exceeds tolerance {float(tol):.1e}"
        )
    # the bound is finite, but m is sqrt(w) m divided by sqrt(w), which can overflow
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = coords.factor(f._kept.right_factor()) / np.sqrt(f.space.weight_array)[:, None]
    matrix = _check_finite(matrix, "the atom coefficient map")
    return CoefficientMap(matrix=matrix, bound=coords.x)


def verify_atomic_decomposition(
    f: SampleField,
    k,
    m: CoefficientMap,
) -> float:
    """Worst reconstruction error of k over a basis of H0, relative to ||k||.

    Also checks the recorded bound constant against the actual weighted
    coefficient norms; any excess, relative to the bound, is folded into
    the returned residual.  A zero k or bound divides by 1.  Norms are taken
    as in _scaled_mismatch; a mismatch k - T_f m or weighted coefficients
    sqrt(w) m that are not finite raise NotRepresentable.
    """
    kk = as_operator(k)
    if m.matrix.ndim != 2:
        raise DimMismatch("coefficient map shape does not match field")
    n_atoms, dim0 = m.matrix.shape
    if kk.shape != (f.dim, dim0):
        raise DimMismatch(f"k has shape {kk.shape}, expected {(f.dim, dim0)}")
    if n_atoms != f.space.n_atoms:
        raise DimMismatch("coefficient map shape does not match field")

    w = f.space.weight_array
    # ||k|| is read as a frame check of the same k kept it for f
    _, mismatch, _, k_norm = _scaled_mismatch(
        f._kept.about_k(kk), lambda: f.samples.T @ (w[:, None] * m.matrix), "the atomic mismatch"
    )
    worst = _max_column_norm(mismatch) / k_norm
    # the weighted L2 norm of m h is the plain norm of sqrt(w) m h, whose
    # entries are of the size of the bound, where those of m can overflow;
    # it and the bound are scaled as the mismatch is
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.sqrt(w)[:, None] * m.matrix
        top = _check_finite(np.max(np.abs(coeffs), initial=0.0), "the weighted coefficients")
    e = -math.frexp(max(top, m.bound))[1]
    coeffs, bound = _times_two_to(e, coeffs, m.bound)
    excess = max(0.0, _max_column_norm(coeffs) - bound)
    return max(worst, excess / bound if m.bound else _times_two_to(-e, excess)[0])


def _scaled_mismatch(about: _AboutK, product, what: str) -> tuple:
    """(max|D| / ||k||, D, k, ||k||) for D = k - product(), k from about,
    and ||k|| read as 1 when k = 0, the last three times the power of two
    that brings the larger of ||k|| and max|D| into [1/2, 1), so that no
    square in a norm of them overflows, exactly but where a value is
    subnormal.  A D or max|D| / ||k|| that is not finite raises
    NotRepresentable naming what."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = about.k - product()
        d_max = float(np.max(np.abs(d), initial=0.0))
    scale = about.norm() or 1.0
    if not math.isfinite(d_max / scale):
        raise NotRepresentable(f"{what} is outside double precision range")
    return d_max / scale, *_times_two_to(-math.frexp(max(d_max, scale))[1], d, about.k, scale)


def _max_column_norm(m: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(m, axis=0), initial=0.0))


def _times_two_to(e: int, *values) -> list:
    """values times 2^e, in two steps, so that 2^e may lie outside double
    range: exact but where a product is subnormal."""
    halves = math.ldexp(1.0, e // 2), math.ldexp(1.0, e - e // 2)
    return [value * halves[0] * halves[1] for value in values]


# ---------------------------------------------------------------------------
# inverse on range(k) and the bound sandwiches


@dataclass(frozen=True)
class _OnRange:
    """S_f restricted to range(k), read off the SVDs of B and of k.

    With U_k = k_u an orthonormal basis of range(k), k_s the retained
    singular values of k (k_s[0] = ||k||) and B = U Sigma V*,
    c = Sigma_r U_r* U_k = p diag(sc) qh is B* restricted to range(k), so
    the compression M = U_k* S_f U_k = c* c has eigenvalues sc^2 and
    S_f U_k = U_r Sigma_r c.  x = ||pinv(B) k|| is A^-1/2 for the ck-frame
    lower bound A: the margins read x, so none squares a ratio of the size
    of x before it divides by A.  Built on each ask (see _on_range).
    """

    x: float
    b: _RankedSVD
    k_u: np.ndarray
    k_s: np.ndarray
    p: np.ndarray
    sc: np.ndarray
    qh: np.ndarray

    def sandwich_margins(self) -> tuple[np.float64, np.float64]:
        """sandwich_check's two margins, read off this factorization."""
        # h = S_f u with u = U_k qh* diag(1/sc) z gives <G h, h> = <u, S_f u> /
        # ||S_f u||^2 = ||z||^2 / ||Sigma_r p z||^2.  A square p is unitary,
        # so Sigma_r p then has the singular values sigma of B
        sv = self.b.s
        if self.p.shape[0] != self.p.shape[1]:
            sv = np.linalg.svd(sv[:, None] * self.p, compute_uv=False)
        lo_margin = (self.b.top / sv[0]) ** 2 - 1.0
        hi_margin = 1.0 - (self.k_s[-1] / sv[-1] / self.x) ** 2
        return lo_margin, hi_margin

    def restricted_margins(self) -> tuple[np.float64, np.float64]:
        """subspace_cframe_margin's two margins, read off this factorization."""
        lo_margin = (self.sc[-1] / self.k_s[-1] * self.x) ** 2 - 1.0
        hi_margin = 1.0 - (self.sc[0] / self.b.top) ** 2
        return lo_margin, hi_margin


def _least_margin(margins) -> float:
    """The lesser of the margins that margins() returns, each relative to
    its bound, in doubles; NotRepresentable when a ratio inside overflows,
    as it can where the bounds do not."""
    with np.errstate(over="ignore", invalid="ignore"):
        both = np.array(margins())
    return float(_check_finite(both, "a bound margin").min())


def _on_range(f: SampleField, kk: OperatorMatrix, rank_tol: float, tol: float) -> _OnRange:
    """The _OnRange of (f, k), built from what f keeps: B's ranked SVD, x
    and k's singular values and left vectors, which only _AboutK factors.
    When k and B are onto H, U_k is U_r and c = Sigma_r, so p = qh = I and
    sc = sigma, with no factorization; otherwise U_k is _AboutK.left sliced
    to the rank of k, and c takes one SVD."""
    b, coords, included = _ask(f, kk, rank_tol, tol)
    if coords.zero:
        raise DegenerateOperator("k = 0 holds vacuously; no closed-range certificate")
    if not included:
        raise NotInvertibleOnRange(f"f does not reproduce k: range inclusion residual {coords.distance:.3e}")
    about = f._kept.about_k(kk)
    k_s = about.values()
    r = _separated_rank(k_s, rank_tol, "k")
    k_s = k_s[:r]
    if r == f.dim and b.onto:
        eye = np.eye(r, dtype=complex)
        k_u, p, sc, qh = b.u, eye, b.s, eye
    else:
        k_u = about.left()[:, :r]
        c = b.s[:, None] * (b.u.conj().T @ k_u)
        p, sc, qh = np.linalg.svd(c, full_matrices=False)
    # a passed check leaves this only when tol lets a retained direction of
    # k escape range(B); rank is judged by the cutoff that decided B's rank
    if sc.size < r or sc[-1] <= rank_tol * b.top:
        raise NotInvertibleOnRange("frame operator drops rank on range(k)")
    return _OnRange(coords.x, b, k_u, k_s, p, sc, qh)


def inverse_on_range(
    f: SampleField,
    k,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_CHECK_TOL,
) -> OperatorMatrix:
    """Inverse of the frame operator on range(k), as a matrix G on H.

    G satisfies G S_f u = u for u in range(k) and annihilates the
    orthogonal complement of S_f(range(k)).  Realized as U pinv(S_f U)
    for U an orthonormal basis of range(k).

    Raises
    ------
    DegenerateOperator for k = 0; NotInvertibleOnRange when S_f drops
    rank on range(k) or (f, k) fails the frame check; RankAmbiguous when
    the rank of k is numerically ill-determined.
    """
    on = _on_range(f, as_operator(k), rank_tol, tol)
    # S_f U = (U_r Sigma_r p) diag(sc) qh; the singular values of Sigma_r p
    # lie in [sigma_r, sigma_max], so its pseudoinverse keeps them all.  A
    # square p is unitary, and then pinv(Sigma_r p) = p* Sigma_r^-1
    if on.p.shape[0] == on.p.shape[1]:
        left = on.p.conj().T / on.b.s
    else:
        left = pseudoinverse(on.b.s[:, None] * on.p, rank_tol)
    left = left @ on.b.u.conj().T
    return on.k_u @ (on.qh.conj().T / on.sc) @ left


def sandwich_check(
    f: SampleField,
    k,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_CHECK_TOL,
) -> float:
    """Worst relative slack of the two-sided bound on the inverted frame operator.

    For G = inverse_on_range(f, k) and unit test vectors h in
    S_f(range(k)), the quadratic form <G h, h> must lie between 1/B and
    ||pinv(k)||^2 / A, where (A, B) are the ck-frame bounds.  The exact
    extrema over the subspace are computed from one SVD, or from the
    singular values of B when rank(k) = rank(B) (see _OnRange), and each
    side's slack is taken relative to its bound, so rescaling f or k
    leaves it unchanged; the return value is negative iff some h
    violates a side.
    """
    return _least_margin(_on_range(f, as_operator(k), rank_tol, tol).sandwich_margins)


def subspace_cframe_margin(
    f: SampleField,
    k,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_CHECK_TOL,
) -> float:
    """Worst relative slack of the frame inequality for f restricted to range(k).

    On unit h in range(k), <S_f h, h> must lie in
    [A / ||pinv(k)||^2, B]; computed exactly from the eigenvalues of the
    compression of S_f to an orthonormal basis of range(k), with each
    side's slack taken relative to its bound.
    """
    return _least_margin(_on_range(f, as_operator(k), rank_tol, tol).restricted_margins)


# ---------------------------------------------------------------------------
# dual pairs


def verify_dual_pair(
    f: SampleField,
    g: SampleField,
    k,
    tol: float = DEFAULT_CHECK_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> DualPairReport:
    """Check the five equivalent identities that make (f, g) a dual pair
    for k, and report each residual separately.

    By linearity each identity holds for all vectors iff it holds on one
    orthonormal basis (pair); the standard coordinate bases of H and H0
    are checked.  The residuals in other orthonormal bases E of H and
    Gamma of H0 are those of the transformed triple (E* f, Gamma* g,
    E* k Gamma) in the standard bases.  When k (resp. k*) is surjective,
    the corresponding norm identity is evaluated as well; the
    adjoint-side identity is checked in squared form, which is the only
    scaling consistent with c4.

    Every residual is a norm of the one mismatch D = k - sum_x w_x f_x g_x*:
    c1 and c2 are the worst column norms of D and D*, and c3, c4 and c5
    the largest entry of D (which is that of D*).  The norms are taken
    of D and k scaled by the power of two that brings the larger of ||k||
    and D's largest entry into [1/2, 1), so no square or product of
    entries overflows; the scaling is exact, so a residual in range keeps
    its bits.  g's B enters D unchecked, as S_g may underflow where D
    does not; a D, a residual or a lower_bound_cert that is not finite
    raises NotRepresentable (a zero f's cert is the vacuous inf).
    ||k||, rank(k) and ||B_f|| of lower_bound_cert = 1 / ||B_f||^2 are
    read off k's singular values and B_f's SVD, kept for f (see
    linalg._Kept), as is the report of the last (g, tol, rank_tol) checked
    against f and k, with g told by identity while it lives: asked again,
    the frozen report kept is returned, and a copy of g is checked afresh.
    """
    kk, tol = as_operator(k), _check_tol(tol, "tol")
    if f.space != g.space:
        raise SpaceMismatch("f and g must live over the same measure space")
    if kk.shape != (f.dim, g.dim):
        raise DimMismatch(f"k has shape {kk.shape}, expected {(f.dim, g.dim)}")
    # checked before it keys the kept report
    rank_tol = _check_tol(rank_tol, "rank_tol", 1.0)
    about = f._kept.about_k(kk)
    tag = (weakref.ref(g), tol, rank_tol)
    kept = about.pair
    if kept is None or kept[0] != tag:
        kept = about.pair = (tag, _pair_report(f, g, about, tol, rank_tol))
    return kept[1]


def _pair_report(
    f: SampleField, g: SampleField, about: _AboutK, tol: float, rank_tol: float
) -> DualPairReport:
    """verify_dual_pair's report on checked operands, computed; about holds
    the answers about k that f keeps."""
    n, n0 = f.dim, g.dim
    rank = _separated_rank(about.values(), rank_tol, "k")
    # c3: <k h0, h> = integral of <h0, g(x)> <f(x), h>; c4, its adjoint
    # identity, and c5, the c4 identity in standard coordinates, read the
    # entries of the same residual matrix, relative to ||k|| (1 when k = 0),
    # squared ones to its square.  f's B, built once, is factored too if f
    # keeps no SVD; g's is unchecked, as S_g can underflow where D cannot
    b = _whitened_matrix(f)
    c3, d, kk, scale = _scaled_mismatch(about, lambda: b @ _whitened_rows(g).conj(), "the pair mismatch")
    c4 = c5 = c3

    # c1: k h0 = T_f <h0, g(.)>;  c2: k* h = T_g <h, f(.)>
    d_adj = d.conj().T
    c1 = _max_column_norm(d) / scale
    c2 = _max_column_norm(d_adj) / scale

    # surjectivity-conditional norm identities: ||k h0||^2 minus the
    # integral of <h0, g(x)> <f(x), k h0> is <D h0, k h0>, and likewise
    # on the adjoint side
    notes: list[str] = []
    onto_res: Optional[tuple[Optional[float], Optional[float]]] = None
    if rank in (n, n0):
        res_k: Optional[float] = None
        res_k_star: Optional[float] = None
        if rank == n:
            res_k = _max_column_inner(d, kk) / scale / scale
        if rank == n0:
            res_k_star = _max_column_inner(d_adj, kk.conj().T) / scale / scale
            notes.append(
                "adjoint-side norm identity verified in squared form ||k* h||^2; "
                "the unsquared form is dimensionally inconsistent with c4"
            )
        onto_res = (res_k, res_k_star)

    if not all(r is None or math.isfinite(r) for r in (c1, c2, *(onto_res or ()))):
        raise NotRepresentable("a pair residual is outside double precision range")
    # ||B_f||^2 can be subnormal: its reciprocal is refused, as inf reads as vacuous
    upper_f = f._kept.b_svd(lambda: b).top ** 2
    cert = _check_finite(1.0 / upper_f, "the lower bound certificate") if upper_f else math.inf
    return DualPairReport(
        residual_c1=c1,
        residual_c2=c2,
        residual_c3=c3,
        residual_c4=c4,
        residual_c5=c5,
        holds=max(c1, c2, c3, c4, c5) <= tol,
        onto_variant_residuals=onto_res,
        lower_bound_cert=cert,
        notes=tuple(notes),
    )


def _max_column_inner(u: np.ndarray, v: np.ndarray) -> float:
    """max_j |<u_j, v_j>| over the columns of two equal-shape matrices."""
    return float(np.max(np.abs(np.sum(u * v.conj(), axis=0)), initial=0.0))


def canonical_dual(
    f: SampleField,
    k,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_CHECK_TOL,
) -> CanonicalDual:
    """Construct the canonical dual of (f, k) and verify it.

    The dual is g = k* G f pointwise, where G = U_k (U_k* S_f U_k)^-1 U_k*
    inverts the compression of S_f to range(k); unlike the one-sided
    inverse_on_range, G maps range(k) into itself, which keeps g's bounds
    inside the certified interval.  The projected frame is P f for P the
    orthogonal projector onto range(k).  G is never formed:
    with B = U_r Sigma_r vh and c = Sigma_r U_r* U_k = p diag(sc) qh (see
    _OnRange), g's whitened synthesis matrix is
    k* U_k qh* diag(1/sc) p* vh, read off factors already held, so its
    error grows like eps * cond(B) rather than cond(B)^2.  vh is then
    kept for f, as after atom_coefficient_map.  When k is onto H, P = I:
    the projected frame is f itself and no projector is formed.  The pair
    (P f, g) must verify as a dual pair for k by verify_dual_pair, on g's
    own samples; P f is handed only k's singular values, the same bits
    whichever field keeps them, so the report is that of fresh copies of
    P f and g, bit for bit.  The optimal bounds of g (as a frame against
    k*), decided on g's own B, must land inside
    [1/B, ||k||^2 ||pinv(k)||^2 / A], to a relative tolerance tol.

    Raises CanonicalDualFailed if either verification fails and
    NotRepresentable if a sample of g is outside double precision range;
    degenerate and non-frame inputs raise as in inverse_on_range.
    """
    kk = as_operator(k)  # tol is checked by the inclusion decision (see linalg._Kept.ask)
    on = _on_range(f, kk, rank_tol, tol)
    # k* G B = k* U_k qh* diag(1/sc) p* vh, since G B = U_k (c* c)^-1 c* vh;
    # the small factors are multiplied first
    vh = f._kept.right_factor()[: on.b.s.size]  # the rank of B is on.b's
    kk_star = adjoint(kk)
    left = kk_star @ on.k_u @ (on.qh.conj().T / on.sc) @ on.p.conj().T
    if on.k_s.size == f.dim:
        # k onto H: range(k) is H and P = I
        projected = f
    else:
        projected = map_field(on.k_u @ on.k_u.conj().T, f)
        # k's singular values are the same bits whichever field keeps them
        projected._kept.about_k(kk).s = f._kept.about_k(kk).values()
    # g's samples are its whitened rows divided by sqrt(w), which can overflow
    with np.errstate(over="ignore", invalid="ignore"):
        samples = (vh.T @ left.T) / np.sqrt(f.space.weight_array)[:, None]
    dual = SampleField(f.space, _check_finite(samples, "the canonical dual field"))

    pair = verify_dual_pair(projected, dual, kk, tol, rank_tol)
    if not pair.holds:
        raise CanonicalDualFailed(
            f"constructed dual fails the pair identities (max residual "
            f"{pair.max_residual():.3e} > {float(tol):.1e})"
        )

    lower_bound = 1.0 / on.b.top**2
    # checked as a margin is: the square can overflow where A does not
    with np.errstate(over="ignore"):
        upper_bound = float(_check_finite((on.k_s[0] / on.k_s[-1] * on.x) ** 2, "the upper bound"))

    # the dual's optimal bounds as a frame against k*, decided on its own B
    best = _frame_check(dual, kk_star, rank_tol, tol, name="B of the dual field g")
    best_lower = best.bounds.lower
    best_upper = best.bounds.upper
    if best_lower < lower_bound * (1.0 - tol):
        raise CanonicalDualFailed(
            f"dual lower bound {best_lower:.6e} under the certified {lower_bound:.6e}"
        )
    if best_upper > upper_bound * (1.0 + tol):
        raise CanonicalDualFailed(
            f"dual upper bound {best_upper:.6e} over the certified {upper_bound:.6e}"
        )

    return CanonicalDual(
        projected_frame=projected,
        dual_field=dual,
        lower_bound=lower_bound,
        upper_bound=upper_bound,
        pair=pair,
    )


def dual_frame_bounds_check(
    f: SampleField,
    g: SampleField,
    k,
    tol: float = DEFAULT_CHECK_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> tuple[float, float]:
    """Margins of the reciprocal lower bounds enjoyed by a dual pair.

    For a verified pair, g satisfies the lower frame inequality against
    k with constant 1/B_f, and f the mirrored one against k* with
    constant 1/B_g (B_* the Bessel bounds).  Returns (margin_f,
    margin_g), the smallest eigenvalues of the two defect forms
    S_f - k k* / B_g and S_g - k* k / B_f, each divided by its form's
    Bessel bound (B_f and B_g), so rescaling f -> c f, g -> g / c leaves
    them unchanged.  They lie in [-1, 1], and both must be >= -tol for a
    genuine pair.  Each Bessel bound is sigma_max^2 of the field's kept SVD.

    Raises NotADualPair when the pair identities fail or a field is
    identically zero.
    """
    kk = as_operator(k)
    pair = verify_dual_pair(f, g, kk, tol, rank_tol)
    if not pair.holds:
        raise NotADualPair(
            f"pair identities fail (max residual {pair.max_residual():.3e})"
        )
    b_f, b_g = (field._kept.b_svd(lambda: _whitened_matrix(field)).top ** 2 for field in (f, g))
    if b_f <= 0.0 or b_g <= 0.0:
        raise NotADualPair("a zero field cannot certify reciprocal bounds")
    s_f = frame_operator(f)
    s_g = frame_operator(g)
    defect_f = s_f - (kk @ adjoint(kk)) / b_g
    defect_g = s_g - (adjoint(kk) @ kk) / b_f
    margin_f = float(np.linalg.eigvalsh(0.5 * (defect_f + defect_f.conj().T))[0]) / b_f
    margin_g = float(np.linalg.eigvalsh(0.5 * (defect_g + defect_g.conj().T))[0]) / b_g
    return margin_f, margin_g
