"""Dense operator-matrix helpers.

Operators between finite-dimensional Hilbert spaces are plain 2-D complex
``numpy`` arrays (row index = output coordinate).  All rank decisions use a
relative singular-value cutoff, and spectra that land in the gray zone
between "zero" and "clearly nonzero" are rejected rather than guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Largest singular value; 0.0 for an all-zero matrix."""
    a = as_operator(m)
    if a.size == 0:
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


def _separated_rank(sigma: np.ndarray, rank_tol: float) -> int:
    """Numerical rank of a singular-value vector, rejecting gray zones.

    Rank counts sigma_i > rank_tol * sigma_max.  Any sigma_i strictly inside
    (rank_tol, GRAY_ZONE_FACTOR * rank_tol) * sigma_max makes the rank
    ill-determined and raises RankAmbiguous.
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
            f"singular value {worst:.3e} lies in the ambiguous band "
            f"({lo:.3e}, {hi:.3e}); rank-dependent output would be unstable"
        )
    return int(np.count_nonzero(sigma > lo))


@dataclass(frozen=True)
class _RankedSVD:
    """Thin SVD of a matrix, truncated to its separated numerical rank r.

    u (rows, r), s (r,) descending and vh (r, cols) are the retained
    factors; top is the largest singular value before truncation.  vh is
    None when only the left factor was kept (see left_factor).
    """

    u: np.ndarray
    s: np.ndarray
    top: float
    vh: Optional[np.ndarray] = None

    def left_factor(self) -> _RankedSVD:
        """u, s and top as owned read-only copies, without vh: holding it
        keeps neither the right factor nor LAPACK's output buffers alive."""
        return _RankedSVD(_owned_copy(self.u), _owned_copy(self.s), self.top)

    def inclusion(self, l1, tol: float) -> tuple[float, Optional[np.ndarray]]:
        """The range-inclusion decision for l1 against range(m).

        Returns ||l1 - U_r U_r* l1|| / ||l1||, the relative distance of l1
        from range(m) (0.0 when l1 = 0), and, when that distance is within
        tol, the coordinates Sigma_r^-1 U_r* l1 of pinv(m) l1 in the
        orthonormal basis vh (else None).
        """
        proj = self.u.conj().T @ l1
        l1_norm = operator_norm(l1)
        residual = operator_norm(l1 - self.u @ proj) / l1_norm if l1_norm > 0.0 else 0.0
        return residual, (proj / self.s[:, None] if residual <= tol else None)


def _ranked_svd(m, rank_tol: float = DEFAULT_RANK_TOL) -> _RankedSVD:
    """One SVD of m with the _separated_rank decision applied to it."""
    a = as_operator(m)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    r = _separated_rank(s, rank_tol)
    return _RankedSVD(u[:, :r], s[:r], float(s[0]) if s.size else 0.0, vh[:r])


def _owned_copy(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


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
    svd = _ranked_svd(m, rank_tol)
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
    svd = _ranked_svd(a, rank_tol)
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
