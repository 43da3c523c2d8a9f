"""Dense operator-matrix helpers.

Operators between finite-dimensional Hilbert spaces are plain 2-D complex
``numpy`` arrays (row index = output coordinate).  All rank decisions use a
relative singular-value cutoff, and spectra that land in the gray zone
between "zero" and "clearly nonzero" are rejected rather than guessed at.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import NotHermitian, NotPSD, RankAmbiguous

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
    """Largest singular value; 0.0 for an all-zero matrix, without an SVD."""
    a = as_operator(m)
    if not a.any():
        return 0.0
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
    out = np.array(vectors, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        i0 = int(np.argmax(mags > 1e-8 * top))
        phase = col[i0] / abs(col[i0])
        out[:, j] = col * np.conj(phase)
    return out


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
    if defect > tol * max(1.0, operator_norm(a)):
        raise NotHermitian(f"symmetry defect {defect:.3e} exceeds tolerance")
    # symmetrize before factoring so roundoff asymmetry cannot leak through
    sym = 0.5 * (a + a.conj().T)
    vals, vecs = np.linalg.eigh(sym)
    return HermitianEig(eigenvalues=vals, eigenvectors=_fix_phases(vecs))


def _separated_rank(sigma: np.ndarray, rank_tol: float, name: str) -> int:
    """Numerical rank of a singular-value vector, rejecting gray zones.

    Rank counts sigma_i > rank_tol * sigma_max.  Any sigma_i strictly inside
    (rank_tol, GRAY_ZONE_FACTOR * rank_tol) * sigma_max makes the rank
    ill-determined and raises RankAmbiguous, whose message names the
    matrix the singular values are of as name.
    """
    if rank_tol <= 0.0:
        raise ValueError("rank_tol must be positive")
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


def _fresh(name, compute):
    """An ask (see _Kept.asker) that keeps nothing."""
    return compute()


@dataclass(frozen=True)
class _RankedSVD:
    """Thin SVD of a matrix, truncated to its separated numerical rank r.

    u (rows, r), s (r,) descending and vh (r, cols) are the retained
    factors of one factorization; top is the largest singular value before
    truncation and rank_tol the cutoff that decided r.  vh is None unless
    it was asked for (see _ranked_svd); u and s are the same bits either way.
    """

    u: np.ndarray
    s: np.ndarray
    top: float
    rank_tol: float
    vh: Optional[np.ndarray] = None

    def owned(self) -> _RankedSVD:
        """The same factorization with owned read-only arrays: holding it
        keeps none of LAPACK's output buffers alive."""
        vh = None if self.vh is None else _owned(self.vh)
        return _RankedSVD(_owned(self.u), _owned(self.s), self.top, self.rank_tol, vh)

    def inclusion(self, l1, tol: float, ask=_fresh) -> tuple[float, Optional[np.ndarray]]:
        """The range-inclusion decision for l1 against range(m).

        Returns ||l1 - U_r U_r* l1|| / ||l1||, the relative distance of l1
        from range(m) (0.0 when l1 = 0), and, when that distance is within
        tol, the coordinates Sigma_r^-1 U_r* l1 of pinv(m) l1 in the
        orthonormal basis vh (else None).  ask supplies ||l1|| and the
        distance when they are kept for l1; the coordinates are always
        read off this factorization, so they match its vh.
        """
        proj = self.u.conj().T @ l1

        def residual() -> float:
            l1_norm = ask("k_norm", lambda: operator_norm(l1))
            return operator_norm(l1 - self.u @ proj) / l1_norm if l1_norm > 0.0 else 0.0

        distance = ask(("residual", self.rank_tol), residual)
        return distance, (proj / self.s[:, None] if distance <= tol else None)

    def coords_norm(self, coords: np.ndarray, ask) -> float:
        """||coords|| for the coordinates inclusion returned, as ask keeps it."""
        return ask(("coords_norm", self.rank_tol), lambda: operator_norm(coords))


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
    R comes off the same Householder factorization in both modes, so u and
    s are bit-identical whether or not vh is formed.
    """
    a = as_operator(m)
    wide = a.shape[0] < a.shape[1]
    if wide and right:
        q, tri = np.linalg.qr(a.T)
    elif wide:
        tri = np.linalg.qr(a.T, mode="r")
    u, s, vh = np.linalg.svd(tri.T if wide else a, full_matrices=False)
    r = _separated_rank(s, rank_tol, name)
    vh = (vh[:r] @ q.T if wide else vh[:r]) if right else None
    return _RankedSVD(u[:, :r], s[:r], float(s[0]) if s.size else 0.0, rank_tol, vh)


def _owned(a: np.ndarray) -> np.ndarray:
    """a made read-only, copied first if it is a view into another array."""
    out = a if a.base is None else np.array(a, copy=True)
    out.setflags(write=False)
    return out


class _Kept:
    """What is kept for one live field: answers about its whitened synthesis
    matrix B (per rank_tol its ranked left factor and, once a caller has
    read vh, its ranked SVD with vh; ||B||) and answers about one operator
    k at a time (||k||, the inclusion distance, ||pinv(B) k||, the
    compression of S_f to range(k)), keyed by k's content key and dropped
    when another k is asked about.  The same LAPACK call on the same bytes
    returns the same bits, so an answer is bit-identical to computing it
    again; a compute() that raises keeps nothing.  Coordinates paired with
    a vh are read off the factorization that holds it (see
    _RankedSVD.inclusion).  Threads asking at once can at worst compute an
    answer twice, never read one about another k.
    """

    __slots__ = ("of_b", "k_key", "of_k", "__weakref__")

    def __init__(self) -> None:
        self.of_b, self.k_key, self.of_k = {}, None, {}

    def answer(self, name, compute, k_key: Optional[tuple] = None, keep: bool = True):
        """The answer under name (about the k with content key k_key, if
        given), else compute(), kept unless keep is false."""
        key = name if k_key is None else (k_key, name)
        kept = (self.of_b if k_key is None else self.of_k).get(key)
        if kept is None:
            kept = compute()
            if keep:
                with _LOCK:
                    if k_key is not None and k_key != self.k_key:
                        self.k_key, self.of_k = k_key, {}
                    kept = (self.of_b if k_key is None else self.of_k).setdefault(key, kept)
        return kept

    def asker(self, k, keep: bool = True):
        """ask(name, compute) for answers about the operator k."""
        k_key = _content_key(k)
        return lambda name, compute: self.answer(name, compute, k_key, keep)

    def factor(
        self, b_of, name: str, rank_tol: float, right: bool = False, keep: bool = True
    ) -> _RankedSVD:
        """The ranked SVD of the field's B, which b_of() computes, with vh
        when right is set (name is what a RankAmbiguous message calls B).
        The factorization with vh is kept apart from the left-only one, so
        only a caller that reads vh forms it; making it also gives the left
        factor, whose u and s are the same bits (see _ranked_svd)."""

        def factored():
            return _ranked_svd(b_of(), rank_tol, right, name).owned()

        if not right:
            return self.answer(("svd", rank_tol), factored, keep=keep)
        svd = self.answer(("svd_vh", rank_tol), factored, keep=keep)
        if keep:
            self.answer(("svd", rank_tol), lambda: replace(svd, vh=None))
        return svd


#: The _Kept of each live field, and the same objects by the content key of
#: the field's B for callers that hold only a raw matrix (the Douglas
#: faces).  Both entries go when the field is collected.
_KEPT: weakref.WeakKeyDictionary[object, _Kept] = weakref.WeakKeyDictionary()
_BY_CONTENT: weakref.WeakValueDictionary[tuple, _Kept] = weakref.WeakValueDictionary()
#: Makes dropping the previous k's answers and keeping a new one atomic.
_LOCK = threading.Lock()


def _content_key(a: np.ndarray) -> tuple:
    """Shape, dtype and a blake2b digest of a's bytes.  An F-ordered a (a
    transpose, such as whitened_synthesis_matrix returns) is hashed through
    its C-ordered transpose rather than through a contiguous copy."""
    if a.flags.f_contiguous and not a.flags.c_contiguous:
        return (a.shape, a.dtype.str, "F", hashlib.blake2b(a.T).digest())
    return (a.shape, a.dtype.str, "C", hashlib.blake2b(np.ascontiguousarray(a)).digest())


def _kept_for(field, b_of) -> _Kept:
    """The _Kept of a live field, made on first use and registered under
    the content key of its B, which b_of() computes."""
    kept = _KEPT.get(field)
    if kept is None:
        key = _content_key(b_of())
        kept = _BY_CONTENT[key] = _KEPT.setdefault(field, _Kept())
    return kept


def _kept_of(field) -> _Kept:
    """The _Kept of field, else an empty one that nothing else holds."""
    return _KEPT.get(field) or _Kept()


def _kept_like(b: np.ndarray) -> _Kept:
    """The _Kept of a live field whose B has the bytes of b, else an empty
    one that nothing else holds."""
    return _BY_CONTENT.get(_content_key(b)) or _Kept()


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
    svd = _ranked_svd(a, rank_tol, name="s")
    # range(c) must sit inside range(s), otherwise some h has c-energy but
    # no s-energy and only a = 0 survives
    if svd.inclusion(b, tol)[1] is None:
        return 0.0
    root = svd.u / np.sqrt(svd.s)
    w = root.conj().T @ b @ root
    lam = float(np.linalg.eigvalsh(0.5 * (w + w.conj().T))[-1])
    if lam <= 0.0:
        # c vanishes on range(s); with the range check passed this means
        # c is numerically zero relative to s
        return UNBOUNDED
    return 1.0 / lam
