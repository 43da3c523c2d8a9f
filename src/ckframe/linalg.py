"""Dense operator-matrix helpers.

Operators between finite-dimensional Hilbert spaces are plain 2-D complex
``numpy`` arrays (row index = output coordinate).  All rank decisions use a
relative singular-value cutoff, and spectra that land in the gray zone
between "zero" and "clearly nonzero" are rejected rather than guessed at.
"""

from __future__ import annotations

import copy
import threading
import weakref
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import NotHermitian, NotPSD, NotRepresentable, RankAmbiguous, ValidationError

OperatorMatrix = np.ndarray

#: Relative singular-value cutoff below which a direction counts as zero.
DEFAULT_RANK_TOL = 1e-10

#: Singular values in (rank_tol, GRAY_ZONE_FACTOR * rank_tol) times sigma_max
#: are neither clearly zero nor clearly nonzero.
GRAY_ZONE_FACTOR = 100.0

#: Default relative tolerance for residual / symmetry / PSD checks.
DEFAULT_CHECK_TOL = 1e-8


class Unbounded:
    """Sentinel for a vacuously infinite bound (e.g. lower bound when k = 0).

    Kept distinct from float('inf') so reports serialize to the string
    "unbounded" instead of a non-standard JSON token.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNBOUNDED"


UNBOUNDED = Unbounded()


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
    """Largest singular value; 0.0 for an all-zero matrix, without an SVD.

    A matrix at least twice as wide as it is tall, with 16 rows or more, is
    normed through the triangular factor R of its transpose, as _ranked_svd
    factors it (m = R.T Q.T, so ||m|| = ||R||): from about those sizes on
    that is cheaper than norm(m, 2), below them the extra call costs more.
    """
    a = as_operator(m)
    if not a.any():
        return 0.0
    if a.shape[1] >= 2 * a.shape[0] >= 32:
        a = np.linalg.qr(a.T, mode="r")
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class HermitianEig:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are ascending; eigenvector columns are orthonormal and
    phase-fixed so the first non-negligible component of each is real
    positive, making the decomposition deterministic for a fixed input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Each column times the conjugate phase of its first entry above 1e-8
    of its largest magnitude.  The columns are eigenvectors: unit, never zero."""
    if not vectors.size:
        return np.array(vectors, copy=True)
    mags = np.abs(vectors)
    first = np.argmax(mags > 1e-8 * mags.max(axis=0), axis=0)
    pivot = vectors[first, np.arange(vectors.shape[1])]
    # hypot is abs() of one complex number; np.abs of an array can differ in the last bit
    return vectors * np.conj(pivot / np.hypot(pivot.real, pivot.imag))


def hermitian_eig(m, tol: float = DEFAULT_CHECK_TOL) -> HermitianEig:
    """Eigendecomposition of a (numerically) Hermitian matrix.

    Parameters
    ----------
    m : array_like
        Square matrix with ``norm(m - m*) <= tol * max(1, norm(m))``.
    tol : float
        Relative symmetry tolerance.

    Raises
    ------
    NotHermitian
        If the symmetry defect exceeds the tolerance.
    """
    a = as_operator(m)
    if a.shape[0] != a.shape[1]:
        raise NotHermitian(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    defect = operator_norm(a - a.conj().T)
    # a defect within tol passes whatever ||m|| is, so ||m|| is taken only
    # when it can decide
    if defect > tol and defect > tol * max(1.0, operator_norm(a)):
        raise NotHermitian(f"symmetry defect {defect:.3e} exceeds tolerance")
    # symmetrize before factoring so roundoff asymmetry cannot leak through
    sym = 0.5 * (a + a.conj().T)
    vals, vecs = np.linalg.eigh(sym)
    return HermitianEig(eigenvalues=vals, eigenvectors=_fix_phases(vecs))


def _check_tol(tol: float, name: str) -> None:
    """Raise ValidationError at name unless the tolerance tol, which grades
    a verdict or a rank, is finite and > 0: inf would pass every check (or
    count no direction), NaN fail all."""
    if not 0.0 < tol < np.inf:
        raise ValidationError(f"tolerance must be finite and > 0, got {tol!r}", name)


def _separated_rank(sigma: np.ndarray, rank_tol: float, name: str) -> int:
    """Numerical rank of a singular-value vector, rejecting gray zones.

    Rank counts sigma_i > rank_tol * sigma_max.  Any sigma_i strictly inside
    (rank_tol, GRAY_ZONE_FACTOR * rank_tol) * sigma_max makes the rank
    ill-determined and raises RankAmbiguous, whose message names the
    matrix the singular values are of as name.  A rank_tol that is not
    finite and > 0 raises ValidationError at 'rank_tol'.
    """
    _check_tol(rank_tol, "rank_tol")
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
    """Thin SVD of a matrix m, truncated to its separated numerical rank r.

    u (rows, r), s (r,) descending and w (r, ·) are the retained factors of
    the one SVD taken (see _ranked_svd): of m itself when m is square or
    tall, where w is also m's right factor vh (r, cols); of the triangular
    factor R.T of a wide m = R.T Q.T, where vh = w Q.T is None until it is
    asked for.  top is the largest singular value before truncation.  u, s
    and w are the same bits whether or not vh was formed.
    """

    u: np.ndarray
    s: np.ndarray
    top: float
    w: np.ndarray
    vh: Optional[np.ndarray] = None

    def owned(self) -> _RankedSVD:
        """The same factorization with owned read-only arrays: holding it
        keeps none of LAPACK's output buffers alive."""
        w = _owned(self.w)
        vh = w if self.vh is self.w else None if self.vh is None else _owned(self.vh)
        return _RankedSVD(_owned(self.u), _owned(self.s), self.top, w, vh)

    def with_vh(self, m) -> _RankedSVD:
        """This factorization of m with vh formed.  A wide m takes only the
        reduced QR of its transpose, for Q: its R is the same bits as the
        one factored before (see _ranked_svd), so w Q.T pairs with u."""
        if self.vh is not None:
            return self
        q = np.linalg.qr(as_operator(m).T)[0]
        return replace(self, vh=self.w @ q.T)


def _ranked_svd(
    m, rank_tol: float = DEFAULT_RANK_TOL, right: bool = False, name: str = "m"
) -> _RankedSVD:
    """One SVD of m with the _separated_rank decision applied to it (name
    is what a RankAmbiguous message calls m), with vh when right is set.

    A wide m (more columns than rows) is factored through the QR of its
    transpose, as in Chan's R-SVD (Golub and Van Loan, Matrix Computations,
    4th ed., 8.6): m.T = Q R gives m = R.T Q.T, whose rows of Q.T are
    orthonormal, so the SVD U Sigma W* of the square R.T gives m's u and s,
    and vh = W* Q.T costs the orthogonal factor Q only when right is set.
    R comes off the same Householder factorization in both modes, so u, s
    and w are bit-identical whether or not vh is formed.
    """
    a = as_operator(m)
    u, s, w, q = _thin_svd(a, right)
    r = _separated_rank(s, rank_tol, name)
    w = w[:r]
    vh = (None if q is None else w @ q.T) if a.shape[0] < a.shape[1] else w
    return _RankedSVD(u[:, :r], s[:r], float(s[0]) if s.size else 0.0, w, vh)


def _thin_svd(a: np.ndarray, right: bool = False):
    """The one SVD _ranked_svd takes of the complex matrix a, before any
    rank is decided: (u, s, w, q) with a = u diag(s) w, or, for a wide a,
    a = u diag(s) w q.T with q the orthogonal factor of the QR of a.T,
    which is formed only when right is set (else None)."""
    if a.shape[0] >= a.shape[1]:
        return (*np.linalg.svd(a, full_matrices=False), None)
    q, tri = np.linalg.qr(a.T) if right else (None, np.linalg.qr(a.T, mode="r"))
    return (*np.linalg.svd(tri.T, full_matrices=False), q)


def _owned(a: np.ndarray) -> np.ndarray:
    """a made read-only, copied first if it is a view into another array."""
    out = a if a.base is None else np.array(a, copy=True)
    out.setflags(write=False)
    return out


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether complex arrays a and b have one shape, dtype and raw bytes,
    so that -0.0 and 0.0 differ.  F-ordered operands, such as the B that
    whitened_synthesis_matrix returns, are compared without a copy, and
    8 bytes at a time."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.flags.f_contiguous and b.flags.f_contiguous:
        a, b = a.T, b.T
    return np.array_equal(*(np.ascontiguousarray(x).view(np.uint64) for x in (a, b)))


class _Kept:
    """What is kept about a matrix B, which b() returns: per rank_tol its
    ranked SVD, whose vh is formed from the kept w once a caller reads it,
    and ||B||; and, in about_k, an owned read-only copy of one operator k
    with the answers about it (k's thin SVD before its rank is decided,
    the distance of k from range(B), ||pinv(B) k||, the compression of
    S_f to range(k)).  Three quantities are read off factors already
    held rather than computed again: ||k|| is the top singular value of
    k's one SVD, which the compression also ranks; the distance is
    exactly 0.0, with no residual formed, when B is onto (its rank is its
    row count, so U_r U_r* is the identity); and canonical_dual hands its
    projected frame P f the norm ||P B|| that its compression holds (see
    atoms_duals._OnRange), when B is onto.  When k is onto too, P f is f
    itself and that norm is sigma_max of B's kept SVD, held unless f
    already holds an ||B||: it and operator_norm(B) agree to rounding,
    not always to the bit, so the first one held is the one read.  A
    live field's _Kept is registered (see _kept_for), and a Douglas face
    whose l2 has the bytes of its B asks as that field; any other B gets
    a throwaway _Kept.  An asker tells its k from the held one by
    comparing raw bytes once, so a k changed in place, or differing only
    in the sign of a zero, gets answers for its own bytes; asking about
    another k drops the previous k's answers.  The same LAPACK call on
    the same bytes returns the same bits, so an answer is bit-identical
    to computing it again; a compute() that raises keeps no answer.
    Threads asking at once can at worst compute an answer twice, as each
    asker only reads and fills the answers about its own k.
    """

    __slots__ = ("b", "of_b", "about_k", "__weakref__")

    def __init__(self, b) -> None:
        self.b = b
        self.of_b: dict = {}
        self.about_k: tuple[Optional[np.ndarray], dict] = (None, {})

    def asker(self, k: np.ndarray):
        """ask(name, compute): the answer about the operator k kept under
        name, else compute(), kept there."""
        about = self.about_k
        if about[0] is None or not _same_bytes(about[0], k):
            # published at once, so that the askers a compute() makes about
            # the same k fill this answer set rather than a set of their own
            about = self.about_k = (_owned(np.array(k, copy=True)), {})

        def ask(name, compute):
            kept = about[1].get(name)
            if kept is None:
                kept = compute()
                with _LOCK:
                    kept = about[1].setdefault(name, kept)
                    self.about_k = about
            return kept

        return ask

    def k_svd(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u and s of k's one thin SVD (see _k_svd)."""
        return _k_svd(self.asker(k), k)

    def k_norm(self, k: np.ndarray) -> float:
        """||k||, read off k's one thin SVD (see _k_norm)."""
        return _k_norm(self.asker(k), k)

    def b_norm(self, b: np.ndarray) -> float:
        """||B||, for b the B that b() returns, unless one was handed over
        first (see atoms_duals.canonical_dual)."""
        return self.of_b.get("b_norm") or self.of_b.setdefault("b_norm", operator_norm(b))

    def factor(self, name: str, rank_tol: float, right: bool = False) -> _RankedSVD:
        """The ranked SVD of B, with vh when right is set (name is what a
        RankAmbiguous message calls B).  One factorization per rank_tol is
        kept; a caller that reads vh has it formed from that
        factorization's w (see _RankedSVD.with_vh), so B's SVD is taken
        once whether or not vh is ever read."""
        key = ("svd", rank_tol)
        svd = self.of_b.get(key)
        if svd is not None and (svd.vh is not None or not right):
            return svd
        b = self.b()
        svd = (_ranked_svd(b, rank_tol, right, name) if svd is None else svd.with_vh(b)).owned()
        with _LOCK:
            held = self.of_b.get(key)
            if held is None or held.vh is None:
                self.of_b[key] = svd
        return svd

    def inclusion(self, k: np.ndarray, name: str, rank_tol: float, tol: float, right: bool):
        """Whether range(k) sits inside range(B), by Douglas's lemma.

        Returns (svd, distance, coords, coords_norm): the ranked SVD of B
        that decided it (see factor); ||k - U_r U_r* k|| / ||k||, the
        relative distance of k from range(B) (0.0 when k = 0, and exactly
        0.0, with no residual formed, when B is onto, as U_r U_r* is then
        the identity); when that is within tol, the coordinates
        Sigma_r^-1 U_r* k of pinv(B) k in the orthonormal basis vh, read
        off that SVD so they match its vh (else None); and a thunk for
        ||coords|| = ||pinv(B) k||.  The distance and the norm are kept
        with the other answers about k.
        """
        _check_tol(tol, "tol")
        svd = self.factor(name, rank_tol, right)
        ask = self.asker(k)
        proj = svd.u.conj().T @ k

        def residual() -> float:
            k_norm = _k_norm(ask, k)
            return operator_norm(k - svd.u @ proj) / k_norm if k_norm > 0.0 else 0.0

        onto = svd.s.size == svd.u.shape[0]
        distance = 0.0 if onto else ask(("residual", rank_tol), residual)
        coords = proj / svd.s[:, None] if distance <= tol else None
        return svd, distance, coords, lambda: ask(
            ("coords_norm", rank_tol), lambda: operator_norm(coords)
        )


def _k_svd(ask, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u and s of the thin SVD that _ranked_svd takes of k, owned and
    read-only, kept through ask (a _Kept.asker of k) with the other answers
    about k.  No rank is decided on it here, so a question that needs only
    ||k|| raises no RankAmbiguous about k; a caller that ranks k applies
    _separated_rank to s."""
    return ask("k_svd", lambda: tuple(_owned(x) for x in _thin_svd(k)[:2]))


def _k_norm(ask, k: np.ndarray) -> float:
    """||k||, the top singular value of k's kept SVD (see _k_svd); 0.0 for
    an all-zero k, without an SVD."""
    return float(_k_svd(ask, k)[1][0]) if k.any() else 0.0


#: The _Kept of each live field, and the same objects by the probe of the
#: field's B for callers that hold only a raw matrix (the Douglas faces).
#: Both entries go when the field is collected.  Fields whose B share a
#: probe share a slot, the last one registered holding it.
_KEPT: weakref.WeakKeyDictionary[object, _Kept] = weakref.WeakKeyDictionary()
_BY_PROBE: weakref.WeakValueDictionary[tuple, _Kept] = weakref.WeakValueDictionary()
#: Makes storing an answer and publishing the k it is about atomic.
_LOCK = threading.Lock()


def _probe(b: np.ndarray) -> tuple:
    """Shape, dtype and the bytes of the first and last columns of b (of B,
    the first and last atoms): cheap to take, and enough to tell most
    fields apart.  A match is confirmed on all of b's bytes."""
    return (b.shape, b.dtype.str, b[:, :1].tobytes(), b[:, -1:].tobytes())


def _kept_for(field, b_of) -> _Kept:
    """The _Kept of a live field, made on first use and registered under
    the probe of its B, which b_of(field) computes.  Its b() builds B from
    a shallow copy of field, which shares the field's read-only parts: the
    field itself would never be collected, and a weak reference to it could
    not build B for a Douglas face still asking as it after it is gone."""
    kept = _KEPT.get(field)
    if kept is None:
        twin = copy.copy(field)
        probe = _probe(b_of(twin))
        kept = _BY_PROBE[probe] = _KEPT.setdefault(field, _Kept(lambda: b_of(twin)))
    return kept


def _kept_like(b: np.ndarray) -> _Kept:
    """The _Kept of a live field whose B has the bytes of b, else a throwaway
    one of b.  The field is looked up by the probe of b and counts only once
    its B matches b byte for byte."""
    kept = _BY_PROBE.get(_probe(b))
    return kept if kept is not None and _same_bytes(kept.b(), b) else _Kept(lambda: b)


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
    svd = _ranked_svd(m, rank_tol, right=True)
    return (svd.vh.conj().T / svd.s) @ svd.u.conj().T


def range_basis(m, rank_tol: float = DEFAULT_RANK_TOL) -> OperatorMatrix:
    """Orthonormal basis of the column space, as columns of a matrix.

    Shape is (rows, rank); rank 0 gives a (rows, 0) matrix.
    """
    return _ranked_svd(m, rank_tol).u


def range_projector(m, rank_tol: float = DEFAULT_RANK_TOL) -> OperatorMatrix:
    """Orthogonal projector onto the column space of m."""
    u = range_basis(m, rank_tol)
    return u @ u.conj().T


def _check_psd(a: OperatorMatrix, tol: float, name: str) -> np.ndarray:
    """Validate Hermitian PSD; return ascending eigenvalues."""
    scale = max(1.0, operator_norm(a))
    try:
        eig = hermitian_eig(a, tol)
    except NotHermitian as exc:
        raise NotPSD(f"{name}: {exc}") from exc
    lo = float(eig.eigenvalues[0]) if eig.eigenvalues.size else 0.0
    if lo < -tol * scale:
        raise NotPSD(f"{name}: smallest eigenvalue {lo:.3e} is negative")
    return eig.eigenvalues


def max_psd_multiplier(
    s,
    c,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_CHECK_TOL,
) -> float | Unbounded:
    """Largest a >= 0 such that s - a*c remains positive semidefinite.

    Parameters
    ----------
    s, c : array_like
        Hermitian PSD matrices of equal size (checked to ``tol``).
    rank_tol : float
        Relative cutoff for the rank decisions inside the computation.
    tol : float
        Relative tolerance for the PSD and range-inclusion checks.

    Returns
    -------
    float or Unbounded
        0.0 when range(c) is not contained in range(s) (no positive
        multiplier exists); UNBOUNDED when c = 0 (every multiplier works);
        otherwise 1 / lambda_max(s^{+/2} c s^{+/2}).

    Raises
    ------
    NotPSD
        If either input fails the Hermitian PSD check.
    """
    a = as_operator(s)
    b = as_operator(c)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise NotPSD(f"expected equal square shapes, got {a.shape} and {b.shape}")
    _check_psd(a, tol, "s")
    _check_psd(b, tol, "c")

    if not b.any():
        return UNBOUNDED
    # for PSD s = U Sigma U*, one SVD gives both range(s) and s^{+/2}
    svd, _, coords, _ = _Kept(lambda: a).inclusion(b, "s", rank_tol, tol, False)
    # range(c) must sit inside range(s), otherwise some h has c-energy but
    # no s-energy and only a = 0 survives
    if coords is None:
        return 0.0
    root = svd.u / np.sqrt(svd.s)
    w = root.conj().T @ b @ root
    lam = float(np.linalg.eigvalsh(0.5 * (w + w.conj().T))[-1])
    if lam <= 0.0:
        # c vanishes on range(s); with the range check passed this means
        # c is numerically zero relative to s
        return UNBOUNDED
    return 1.0 / lam
