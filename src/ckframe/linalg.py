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
    ValidationError at name.  upper is inf for a tol, which grades a verdict,
    and 1 for a rank_tol, which decides a rank: from 1 up none would count."""
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


def _check_multiplier(coords_norm: float, what: str) -> None:
    """Raise NotRepresentable, naming what, unless the Douglas multiplier
    lambda_min = x^2 of x = coords_norm = ||pinv(B) k|| > 0 and the lower
    bound A = x^-2 are both finite normal doubles.  They are one number,
    so every face that reports either refuses the same (f, k)."""
    with np.errstate(over="ignore", under="ignore"):
        square = np.float64(coords_norm) ** 2
    tiny = np.finfo(float).tiny
    if not tiny <= square <= 1.0 / tiny:
        raise NotRepresentable(f"{what} is outside double precision range")


@dataclass(frozen=True)
class _RankedSVD:
    """Thin SVD of a matrix m, or a slice of it to a separated rank r.

    u (rows, ·), s (·,) descending and w (·, ·) are the factors of the one
    SVD taken (see _thin_svd): of m itself when m is square or tall, where
    w is also m's right factor vh; of the triangular factor R.T of a wide
    m = R.T Q.T, where vh = w Q.T is None until it is asked for.  u, s and
    w are the same bits whether or not vh was formed.  ranked slices all
    four to the rank decided on s, so every rank_tol reads the one SVD.
    """

    u: np.ndarray
    s: np.ndarray
    w: np.ndarray
    vh: Optional[np.ndarray] = None

    @property
    def top(self) -> float:
        """sigma_max = ||m||, which every rank decision keeps; 0.0 for m = 0."""
        return float(self.s[0]) if self.s.size else 0.0

    @property
    def onto(self) -> bool:
        """Whether the rank of m is its row count: u u* is the identity."""
        return self.s.size == self.u.shape[0]

    def ranked(self, rank_tol: float, name: str) -> _RankedSVD:
        """The factors sliced to the _separated_rank r of s (name is what a
        RankAmbiguous message calls m).  vh is sliced too: a product of the
        sliced w would differ in its bits at r = 1 (gemv, not gemm)."""
        r = _separated_rank(self.s, rank_tol, name)
        if r == self.s.size:
            return self
        vh = None if self.vh is None else self.vh[:r]
        return _RankedSVD(self.u[:, :r], self.s[:r], self.w[:r], vh)

    def owned(self) -> _RankedSVD:
        """The same factorization with owned read-only arrays: holding it
        keeps none of LAPACK's output buffers alive."""
        w = _owned(self.w)
        vh = w if self.vh is self.w else None if self.vh is None else _owned(self.vh)
        return _RankedSVD(_owned(self.u), _owned(self.s), w, vh)

    def with_vh(self, m) -> _RankedSVD:
        """This factorization of m with vh formed.  A wide m takes only the
        reduced QR of its transpose, for Q: its R is the same bits as the
        one factored before (see _thin_svd), so w Q.T pairs with u."""
        if self.vh is not None:
            return self
        q = np.linalg.qr(as_operator(m).T)[0]
        return replace(self, vh=self.w @ q.T)


def _thin_svd(a: np.ndarray, right: bool = False) -> _RankedSVD:
    """The one SVD taken of the complex matrix a, before any rank is
    decided, with vh when right is set.

    A wide a (more columns than rows) is factored through the QR of its
    transpose, as in Chan's R-SVD (Golub and Van Loan, Matrix Computations,
    4th ed., 8.6): a.T = Q R gives a = R.T Q.T, whose rows of Q.T are
    orthonormal, so the SVD U Sigma W* of the square R.T gives a's u and s,
    and vh = W* Q.T costs the orthogonal factor Q only when right is set.
    R comes off the same Householder factorization in both modes, so u, s
    and w are bit-identical whether or not vh is formed.
    """
    if a.shape[0] >= a.shape[1]:
        u, s, w = np.linalg.svd(a, full_matrices=False)
        return _RankedSVD(u, s, w, w)
    q, tri = np.linalg.qr(a.T) if right else (None, np.linalg.qr(a.T, mode="r"))
    u, s, w = np.linalg.svd(tri.T, full_matrices=False)
    return _RankedSVD(u, s, w, None if q is None else w @ q.T)


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
    again factors nothing.  Each live field owns one (see SampleField._kept),
    which a Douglas face given the B handed out for it reads (see
    _kept_like).  svd is B's one thin SVD (see _thin_svd), taken before any
    rank is decided, whose vh is formed from the kept w once a caller reads
    it: each rank_tol's ranked SVD is a slice of it, and ||B|| is its
    sigma_max for every caller.  B is not held: whoever asks passes a
    function that builds it.  about holds the answers about the last
    operator k asked about.  The same LAPACK call on the same bytes returns
    the same bits, so a kept answer is bit-identical to computing it again;
    a computation that raises keeps nothing.  Threads asking at once can at
    worst compute an answer twice, as each fills only the _AboutK of its
    own k, which another k replaces whole.  No kept array is handed out.
    """

    __slots__ = ("svd", "about", "__weakref__")

    def __init__(self) -> None:
        self.svd: Optional[_RankedSVD] = None
        self.about: Optional[_AboutK] = None

    def b_svd(self, build, right: bool = False) -> _RankedSVD:
        """B's one thin SVD, unranked, with vh when right is set, formed from
        the kept w (see _RankedSVD.with_vh); build() returns B to factor."""
        svd = self.svd
        if svd is None or (right and svd.vh is None):
            b = build()
            svd = (_thin_svd(b, right) if svd is None else svd.with_vh(b)).owned()
            if self.svd is None or self.svd.vh is None:
                self.svd = svd
        return svd

    def about_k(self, k: np.ndarray) -> _AboutK:
        """The answers about the operator k: the held ones when k has their
        k's bytes, else new ones, which replace them."""
        about = self.about
        if about is None or not _same_bytes(about.k, k):
            about = self.about = _AboutK(k)
        return about

    def inclusion(self, svd: _RankedSVD, k: np.ndarray, tol: float) -> tuple[_Coords, bool]:
        """(coords, included): k read against svd, a ranked slice of B's
        SVD, and whether range(k) sits inside range(B) at the checked tol,
        by Douglas's lemma."""
        # kept by the rank, all that tells one rank_tol's slice from another's
        about, r = self.about_k(k), svd.s.size
        coords = about.coords.get(r) or about.coords.setdefault(r, _Coords(svd, about))
        return coords, coords.distance <= tol


class _AboutK:
    """The answers about one operator k, beside k, a read-only C-ordered
    copy of it, so that they do not hang on the layout of the k a caller
    passed, each made on first need: s and u, k's singular values and left
    vectors (see values); coords, k read against each ranked SVD of B, by
    its rank (see _Kept.inclusion); on_range, the compression of S_f to range(k) per
    (rank_tol, tol) (see atoms_duals._on_range); and pair, the
    DualPairReport of the last g, tol and rank_tol checked with B's field
    as f, tagged with a weak reference to g (see verify_dual_pair)."""

    __slots__ = ("k", "s", "u", "coords", "on_range", "pair")

    def __init__(self, k: np.ndarray) -> None:
        self.k = _owned(np.array(k, order="C"))
        self.s = self.u = self.pair = None
        self.coords: dict[int, _Coords] = {}
        self.on_range: dict = {}

    def values(self) -> np.ndarray:
        """k's singular values, with no rank decided, which every reader of
        ||k|| and rank(k) reads.  A k with at least as many columns as rows
        may be onto H, and then no question needs a basis of range(k), so
        its values are taken alone; a narrower k is never onto, and its
        values come with u, from one SVD."""
        if self.s is None:
            k = self.k
            if k.shape[1] >= k.shape[0]:
                self.s = _owned(np.linalg.svd(k, compute_uv=False))
            else:
                u, s, _ = np.linalg.svd(k, full_matrices=False)
                self.u, self.s = _owned(u), _owned(s)
        return self.s

    def norm(self) -> float:
        """||k||; 0.0 for an all-zero k, without an SVD.  NotRepresentable
        when it overflows, as it can for finite entries."""
        return float(_check_finite(self.values()[:1], "||k||")[0]) if self.k.any() else 0.0



class _Coords:
    """k read against B = U_r Sigma_r vh: proj = U_r* k, s = Sigma_r and
    distance = ||k - U_r U_r* k|| / ||k||, the relative distance of k from
    range(B) (0.0 when k = 0, and exactly 0.0, with no residual formed,
    when B is onto); once asked for, x = ||pinv(B) k|| and the minimal-norm
    factor pinv(B) k = vh* coords, of coords = Sigma_r^-1 U_r* k."""

    __slots__ = ("distance", "proj", "s", "x", "pinv_k")

    def __init__(self, svd: _RankedSVD, about: _AboutK) -> None:
        k_norm = 0.0 if svd.onto else about.norm()
        # a sum in either product can overflow where ||k|| does not
        with np.errstate(over="ignore", invalid="ignore"):
            self.proj = _owned(svd.u.conj().T @ about.k)
            residual = about.k - svd.u @ self.proj if k_norm > 0.0 else None
        self.distance = 0.0
        if k_norm > 0.0:
            self.distance = operator_norm(_check_finite(residual, "k - U_r U_r* k")) / k_norm
        self.s, self.x, self.pinv_k = _owned(svd.s), None, None

    def pinv_norm(self) -> float:
        """x; inf when coords overflow, which _check_multiplier refuses."""
        if self.x is None:
            with np.errstate(over="ignore", invalid="ignore"):
                coords = self.proj / self.s[:, None]
            self.x = operator_norm(coords) if np.isfinite(coords).all() else math.inf
        return self.x

    def factor(self, vh: np.ndarray) -> np.ndarray:
        """pinv(B) k, read-only; vh is the right factor of the SVD that proj
        was read off."""
        if self.pinv_k is None:
            self.pinv_k = _owned(vh.conj().T @ (self.proj / self.s[:, None]))
        return self.pinv_k


#: By id(B), each B that whitened_synthesis_matrix handed out: weak refs to
#: B and to its field's _Kept, so nothing is kept alive; it goes with B.
_HANDED: dict[int, tuple[weakref.ref, weakref.ref]] = {}


def _hand_out(b: np.ndarray, kept: _Kept) -> np.ndarray:
    """b, the read-only B of the field whose _Kept is kept, recorded in
    _HANDED so that a Douglas face given b itself asks as that field."""
    key, forget = id(b), _HANDED.pop
    _HANDED[key] = (weakref.ref(b, lambda _: forget(key, None)), weakref.ref(kept))
    return b


def _kept_like(b: np.ndarray) -> _Kept:
    """The _Kept of the live field whose handed-out B is b itself while b
    and the array it views are read-only, so b has that B's bytes; else a
    throwaway _Kept, as for a copy of a B, whatever its bytes."""
    ref, kept = _HANDED.get(id(b), (None, None))
    if ref is None or ref() is not b or b.flags.writeable or b.base.flags.writeable:
        return _Kept()
    return kept() or _Kept()


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
    svd = _thin_svd(as_operator(m), right=True).ranked(rank_tol, "m")
    return (svd.vh.conj().T / svd.s) @ svd.u.conj().T
