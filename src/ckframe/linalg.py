"""Dense operator-matrix helpers.

Operators between finite-dimensional Hilbert spaces are plain 2-D complex
``numpy`` arrays (row index = output coordinate).  All rank decisions use a
relative singular-value cutoff, and spectra that land in the gray zone
between "zero" and "clearly nonzero" are rejected rather than guessed at.
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import NotRepresentable, RankAmbiguous, ValidationError

OperatorMatrix = np.ndarray

#: Relative singular-value cutoff below which a direction counts as zero.
DEFAULT_RANK_TOL = 1e-10

#: Singular values in (rank_tol, GRAY_ZONE_FACTOR * rank_tol) times sigma_max
#: are neither clearly zero nor clearly nonzero.
GRAY_ZONE_FACTOR = 100.0

#: Default relative tolerance for the residual and range-inclusion checks.
DEFAULT_CHECK_TOL = 1e-8


def as_operator(m) -> OperatorMatrix:
    """Coerce to a 2-D complex array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"operator must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("operator entries must be finite")
    return a


def adjoint(m) -> OperatorMatrix:
    """Conjugate transpose."""
    return as_operator(m).conj().T


def operator_norm(m) -> float:
    """Largest singular value, norm(m, 2); 0.0 for an all-zero matrix,
    without an SVD.  The norm of a field's B is not taken here: it is
    sigma_max of B's one kept SVD (see _Kept)."""
    a = as_operator(m)
    return float(np.linalg.norm(a, 2)) if a.any() else 0.0


def _as_number(value, path: str) -> float:
    """value, a real number but not a bool, as a finite double, else
    ValidationError at path, where value came from."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValidationError(f"expected a number, got {type(value).__name__}", path)
    try:
        number = float(value)
    except OverflowError:
        raise ValidationError("number is too large for double precision", path) from None
    if not math.isfinite(number):
        raise ValidationError("number must be finite", path)
    return number


def _check_tol(value, name: str, upper: float = math.inf) -> float:
    """value as a tolerance: its _as_number, if in (0, upper), else
    ValidationError at name.  upper is inf for a pair's tol; 1 for a rank_tol
    and an inclusion's tol, as from 1 up no sigma counts, every k is included."""
    tol = _as_number(value, name)
    if not 0.0 < tol < upper:
        raise ValidationError(f"tolerance must lie in (0, {upper:g}), got {tol!r}", name)
    return tol


def _separated_rank(sigma: np.ndarray, rank_tol: float, name: str) -> int:
    """Numerical rank of a singular-value vector, rejecting gray zones.

    Rank counts sigma_i > rank_tol * sigma_max.  Any sigma_i strictly inside
    (rank_tol, GRAY_ZONE_FACTOR * rank_tol) * sigma_max makes the rank
    ill-determined and raises RankAmbiguous, whose message names the
    matrix the singular values are of as name.  rank_tol must pass
    _check_tol with upper 1, else ValidationError at 'rank_tol'.
    """
    rank_tol = _check_tol(rank_tol, "rank_tol", 1.0)
    if sigma.size == 0:
        return 0
    top = float(sigma[0])
    if top == 0.0:
        return 0
    lo = rank_tol * top
    hi = GRAY_ZONE_FACTOR * rank_tol * top
    gray = (sigma > lo) & (sigma < hi)
    if np.any(gray):
        worst = float(sigma[gray][0])
        raise RankAmbiguous(
            f"rank of {name}: singular value {worst:.3e} lies in the ambiguous band "
            f"({lo:.3e}, {hi:.3e}); rank-dependent output would be unstable"
        )
    return int(np.count_nonzero(sigma > lo))


def _check_finite(a: np.ndarray, what: str) -> np.ndarray:
    """a, if its entries are all finite; else raise NotRepresentable naming what."""
    if not np.isfinite(a).all():
        raise NotRepresentable(f"{what} is outside double precision range")
    return a


@dataclass(frozen=True)
class _RankedSVD:
    """Thin SVD of a matrix m, or a slice of it to a separated rank r.

    u (rows, ·), s (·,) descending and w (·, ·) are the factors of the one
    SVD taken (see _thin_svd): of m itself when m is square or tall, where
    w is also m's right factor vh; of the triangular factor R.T of a wide
    m = R.T Q.T, where vh = w Q.T is None until with_vh forms it, and
    reflectors holds Q as the Householder factorization left it, (h, tau)
    of np.linalg.qr(m.T, mode="raw"), until then.  u, s and w are the same
    bits whether or not vh was formed.  ranked slices u, s and w to the
    rank decided on s, so every rank_tol reads the one SVD; a slice holds
    no vh, which is formed on the unranked w only and sliced by its reader
    (see _Coords.factor).
    """

    u: np.ndarray
    s: np.ndarray
    w: np.ndarray
    vh: Optional[np.ndarray] = None
    reflectors: Optional[tuple[np.ndarray, np.ndarray]] = None

    @property
    def top(self) -> float:
        """sigma_max = ||m||, which every rank decision keeps; 0.0 for m = 0."""
        return float(self.s[0]) if self.s.size else 0.0

    @property
    def onto(self) -> bool:
        """Whether the rank of m is its row count: u u* is the identity."""
        return self.s.size == self.u.shape[0]

    def ranked(self, rank_tol: float, name: str) -> _RankedSVD:
        """u, s and w sliced to the _separated_rank r of s (name is what a
        RankAmbiguous message calls m); at full rank, m's own factors."""
        r = _separated_rank(self.s, rank_tol, name)
        return self if r == self.s.size else _RankedSVD(self.u[:, :r], self.s[:r], self.w[:r])

    def owned(self) -> _RankedSVD:
        """The same factorization with owned read-only arrays: holding it
        keeps none of LAPACK's output buffers alive but the reflectors,
        which are not copied: h views the one array the factorization wrote
        them to, which holds nothing else."""
        w = _owned(self.w)
        vh = w if self.vh is self.w else None if self.vh is None else _owned(self.vh)
        for a in self.reflectors or ():
            a.setflags(write=False)
        return _RankedSVD(_owned(self.u), _owned(self.s), w, vh, self.reflectors)

    def with_vh(self) -> _RankedSVD:
        """This factorization with vh formed, and its reflectors dropped.

        A wide m's vh.T = Q w.T is the product of the kept Householder
        reflectors in compact-WY form (Joffrain et al., "Accumulating
        Householder transformations, revisited", ACM TOMS 32(2), 2006):
        Q = I - V T V*, with V the unit lower-trapezoidal reflector block,
        V_1 its top square, and T = (I + diag(tau) striu(V* V))^-1 diag(tau),
        so that vh.T = [w.T; 0] - V T (V_1* w.T).  Its one solve, of a unit
        upper-triangular system, divides by no tau, which LAPACK sets to 0
        for a zero subcolumn."""
        if self.vh is not None:
            return self
        h, tau = self.reflectors
        rows = h.shape[0]  # h is V.T above its diagonal, R.T on and below it
        vt = np.triu(h, 1)
        vt[:, :rows] += np.eye(rows)
        unit = np.eye(rows) + tau[:, None] * np.triu(vt.conj() @ vt.T, 1)
        y = np.linalg.solve(unit, tau[:, None] * (vt[:, :rows].conj() @ self.w.T))
        vh = -(y.T @ vt)
        vh[:, :rows] += self.w
        return replace(self, vh=vh, reflectors=None)


def _thin_svd(a: np.ndarray) -> _RankedSVD:
    """The one SVD taken of the complex matrix a, before any rank is
    decided.

    A wide a (more columns than rows) is factored through the QR of its
    transpose, as in Chan's R-SVD (Golub and Van Loan, Matrix Computations,
    4th ed., 8.6): a.T = Q R gives a = R.T Q.T, whose rows of Q.T are
    orthonormal, so the SVD U Sigma W* of the square R.T gives a's u and s.
    The one Householder factorization is kept in raw form, R in its upper
    triangle and Q's reflectors below it, so vh = W* Q.T is formed from
    them only when it is asked for (see _RankedSVD.with_vh): u, s and w
    are the same bits either way.
    """
    if a.shape[0] >= a.shape[1]:
        u, s, w = np.linalg.svd(a, full_matrices=False)
        return _RankedSVD(u, s, w, w)
    h, tau = np.linalg.qr(a.T, mode="raw")
    # R is the upper triangle of h.T's top square, bit for bit mode "r"'s
    u, s, w = np.linalg.svd(np.triu(h.T[: a.shape[0]]).T, full_matrices=False)
    return _RankedSVD(u, s, w, None, (h, tau))


def _owned(a: np.ndarray) -> np.ndarray:
    """a made read-only, copied first if it is a view into another array."""
    out = a if a.base is None else np.array(a, copy=True)
    out.setflags(write=False)
    return out


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether complex arrays a and b have one shape, dtype and raw bytes,
    so that -0.0 and 0.0 differ, compared 8 bytes at a time: how a _Kept
    tells the k it is asked about from the held one."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return np.array_equal(*(np.ascontiguousarray(x).view(np.uint64) for x in (a, b)))


class _Kept:
    """What the questions about one matrix B found out, so that asking
    again factors nothing.  Each live field owns one, made with it (see
    measure.SampleField), which a Douglas face given the B handed out for
    it reads (see _kept_like).  svd is B's one thin SVD (see _thin_svd),
    taken before any rank is decided: each rank_tol's ranked SVD is a
    slice of it, and ||B|| is its sigma_max for every caller.  For a wide B
    it holds the reflectors of its one QR, the size of B, until the first
    face to read vh on an included k forms vh from them (see
    right_factor); a refused face forms none.  B is not held: whoever asks
    passes a function that builds it, which only the first ask calls.
    about holds the answers about the last operator k asked about.  The
    same LAPACK call on the same bytes returns the same bits, so a kept
    answer is bit-identical to computing it again; a computation that
    raises keeps nothing.  Threads asking at once can at worst compute an
    answer twice, as each fills only the _AboutK of its own k, which
    another k replaces whole.  No kept array is handed out.
    """

    __slots__ = ("svd", "about", "__weakref__")

    def __init__(self) -> None:
        self.svd: Optional[_RankedSVD] = None
        self.about: Optional[_AboutK] = None

    def b_svd(self, build) -> _RankedSVD:
        """B's one thin SVD, unranked; build() returns B to factor, which
        only the first ask does."""
        svd = self.svd
        if svd is None:
            svd = self.svd = _thin_svd(build()).owned()
        return svd

    def right_factor(self) -> np.ndarray:
        """B's right factor vh, unranked, read after an ask: formed on first
        read from the kept w and reflectors (see _RankedSVD.with_vh), with
        which it replaces svd whole, the same bits whichever face reads first."""
        svd = self.svd
        if svd.vh is None:
            svd = self.svd = svd.with_vh().owned()
        return svd.vh

    def about_k(self, k: np.ndarray) -> _AboutK:
        """The answers about the operator k: the held ones when k has their
        k's bytes, else new ones, which replace them."""
        about = self.about
        if about is None or not _same_bytes(about.k, k):
            about = self.about = _AboutK(k)
        return about

    def ask(self, build, k, rank_tol: float, tol: float, name: str) -> tuple:
        """(svd, coords, included, marginal): B's SVD ranked at rank_tol
        (build() returns B to factor, and name is what a RankAmbiguous
        message calls it), k read against it, and the inclusion
        decision every face reads: range(k) sits inside range(B) when
        coords.distance <= tol, in (0, 1) and checked first, and is marginal
        when it does not but coords.distance < GRAY_ZONE_FACTOR * tol."""
        tol = _check_tol(tol, "tol", 1.0)
        svd = self.b_svd(build).ranked(rank_tol, name)
        # kept by the rank, all that tells one rank_tol's slice from another's
        about, r = self.about_k(k), svd.s.size
        coords = about.coords.get(r) or about.coords.setdefault(r, _Coords(svd, about))
        included = coords.distance <= tol
        return svd, coords, included, not included and coords.distance < GRAY_ZONE_FACTOR * tol


class _AboutK:
    """The answers about one operator k, beside k, a read-only C-ordered
    copy of it, so that they do not hang on the layout of the k a caller
    passed, each made on first need: s and u, k's singular values and left
    vectors (see values and left), which the compression of S_f to range(k)
    reads (see atoms_duals._on_range); coords, k read against each ranked SVD
    of B, by its rank (see _Kept.ask); and pair, the DualPairReport of the
    last g, tol and rank_tol checked with B's field as f, tagged with a
    weak reference to g (see verify_dual_pair)."""

    __slots__ = ("k", "s", "u", "coords", "pair")

    def __init__(self, k: np.ndarray) -> None:
        self.k = _owned(np.array(k, order="C"))
        self.s = self.u = self.pair = None
        self.coords: dict[int, _Coords] = {}

    def values(self) -> np.ndarray:
        """k's singular values, with no rank decided, which every reader of
        ||k|| and rank(k) reads.  A k with at least as many columns as rows
        may be onto H, and then no question needs a basis of range(k), so
        its values are taken alone; a narrower k is never onto, and its
        values come with u, from one SVD (see left)."""
        if self.s is None:
            if self.k.shape[1] >= self.k.shape[0]:
                self.s = _owned(np.linalg.svd(self.k, compute_uv=False))
            else:
                self.left()
        return self.s

    def left(self) -> np.ndarray:
        """k's left singular vectors, unranked, of its one SVD with vectors,
        which also gives a narrow k's s, set first, so that a thread that
        sees u sees s; a wider k's s is taken alone (see values)."""
        if self.u is None:
            u, s, _ = np.linalg.svd(self.k, full_matrices=False)
            if self.k.shape[1] < self.k.shape[0]:
                self.s = _owned(s)
            self.u = _owned(u)
        return self.u

    def norm(self) -> float:
        """||k||; 0.0 for an all-zero k, without an SVD.  NotRepresentable
        when it overflows, as it can for finite entries."""
        return float(_check_finite(self.values()[:1], "||k||")[0]) if self.k.any() else 0.0


class _Coords:
    """k read against B = U_r Sigma_r vh: coords = Sigma_r^-1 U_r* k, zero,
    whether k = 0, and distance = ||k - U_r U_r* k|| / ||k||, the relative
    distance of k from range(B) (0.0 when k = 0, and exactly 0.0, with no
    residual formed, when B is onto); once asked for, x = ||pinv(B) k|| =
    ||coords|| and the minimal-norm factor pinv(B) k = vh* coords."""

    __slots__ = ("distance", "coords", "zero", "x", "pinv_k")

    def __init__(self, svd: _RankedSVD, about: _AboutK) -> None:
        k_norm = 0.0 if svd.onto else about.norm()
        # a sum in either product, or a quotient, can overflow where ||k|| does not
        with np.errstate(over="ignore", invalid="ignore"):
            proj = svd.u.conj().T @ about.k
            residual = about.k - svd.u @ proj if k_norm > 0.0 else None
            self.coords = _owned(proj / svd.s[:, None])
        self.distance = k_norm and operator_norm(_check_finite(residual, "k - U_r U_r* k")) / k_norm
        self.zero, self.x, self.pinv_k = not about.k.any(), None, None

    def pinv_norm(self, what: str) -> float:
        """x, which the lower frame bound A = x^-2, the Douglas multiplier
        lambda_min = x^2 and the atom bound all read: NotRepresentable,
        naming what, the lower frame bound or the Douglas multiplier,
        unless k = 0 or x^2 and x^-2 are both finite normal doubles, so
        that each face reporting a function of x (not range_included)
        refuses the same (f, k).  x is inf when coords overflow."""
        if self.x is None:
            self.x = operator_norm(self.coords) if np.isfinite(self.coords).all() else math.inf
        tiny = np.finfo(float).tiny
        if not (self.zero or tiny <= self.x * self.x <= 1.0 / tiny):
            raise NotRepresentable(f"{what} is outside double precision range")
        return self.x

    def factor(self, vh: np.ndarray) -> np.ndarray:
        """pinv(B) k, read-only; vh is the unranked right factor of the SVD
        that coords were read off (see _Kept.right_factor), sliced here to
        its rank, as vh formed on a sliced w would differ in its bits."""
        if self.pinv_k is None:
            self.pinv_k = _owned(vh[: self.coords.shape[0]].conj().T @ self.coords)
        return self.pinv_k


#: By id(B), each B that whitened_synthesis_matrix handed out: weak refs to
#: B and to its field's _Kept, so nothing is kept alive; it goes with B.
_HANDED: dict[int, tuple[weakref.ref, weakref.ref]] = {}


def _hand_out(b: np.ndarray, kept: _Kept) -> np.ndarray:
    """b, the frozen B of the field whose _Kept is kept, recorded in
    _HANDED so that a Douglas face given b itself asks as that field."""
    key, forget = id(b), _HANDED.pop
    _HANDED[key] = (weakref.ref(b, lambda _: forget(key, None)), weakref.ref(kept))
    return b


def _kept_like(b: np.ndarray) -> _Kept:
    """The _Kept of the live field whose handed-out B is b itself, which,
    frozen over bytes of its own, has that B's bytes for as long as it
    lives; else a throwaway _Kept, as for a copy of a B, whatever its bytes."""
    ref, kept = _HANDED.get(id(b), (None, None))
    return ref is not None and ref() is b and kept() or _Kept()


def pseudoinverse(m, rank_tol: float = DEFAULT_RANK_TOL) -> OperatorMatrix:
    """Moore-Penrose pseudoinverse with a relative rank cutoff.

    Singular values <= rank_tol * sigma_max are treated as exact zeros.
    A zero matrix maps to the (transposed-shape) zero matrix.

    Raises
    ------
    RankAmbiguous
        If some singular value falls in the gray zone where the rank
        decision would be unstable.
    """
    svd = _thin_svd(as_operator(m)).with_vh()
    ranked = svd.ranked(rank_tol, "m")
    return (svd.vh[: ranked.s.size].conj().T / ranked.s) @ ranked.u.conj().T
