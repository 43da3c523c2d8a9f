"""Range inclusion, majorization, and factorization for operator pairs.

For bounded L1, L2 into a common space, three statements are equivalent:
range(L1) is contained in range(L2); L1 L1* <= lam * L2 L2* for some
lam >= 0; and L1 = L2 X for some bounded X.  The functions here decide the
inclusion numerically, produce the minimal-norm factor, and compute the
least admissible multiplier, all with the same rank conventions so the
three answers agree away from tolerance hairlines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DimMismatch
from .linalg import (
    DEFAULT_CHECK_TOL,
    DEFAULT_RANK_TOL,
    GRAY_ZONE_FACTOR,
    OperatorMatrix,
    _check_multiplier,
    _check_tol,
    _kept_like,
    as_operator,
)


@dataclass(frozen=True)
class DouglasResult:
    """Outcome of a factorization attempt.

    factor and lambda_min are present exactly when included is True.
    residual is min over X of ||L1 - L2 X|| / ||L1|| (0.0 for L1 = 0),
    i.e. the relative distance of L1 from the achievable range; for an
    included pair it equals the factorization residual.  marginal flags
    inclusion residuals that fail but sit within 100x of the tolerance.
    """

    included: bool
    factor: Optional[OperatorMatrix]
    lambda_min: Optional[float]
    residual: float
    marginal: bool = False


def range_included(
    l1,
    l2,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_CHECK_TOL,
) -> bool:
    """True iff range(l1) sits inside range(l2) at the given tolerance."""
    return _inclusion(l1, l2, rank_tol, tol, False)[2]


def minimal_multiplier(
    l1,
    l2,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_CHECK_TOL,
) -> Optional[float]:
    """Least lam >= 0 with l1 l1* <= lam * l2 l2*, or None if none exists.

    On inclusion this is ||pinv(l2) l1||^2, which equals 1 / a for the
    largest a with a l1 l1* <= l2 l2*; l1 = 0 gives 0.0.  Raises
    NotRepresentable for a nonzero l1 unless it and its reciprocal, the
    frame check's lower bound, are both finite normal doubles.
    """
    _, coords, included, a = _inclusion(l1, l2, rank_tol, tol, False)
    return _multiplier(a, coords) if included else None


def douglas_factor(
    l1,
    l2,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_CHECK_TOL,
) -> DouglasResult:
    """Factor l1 through l2 when possible.

    On inclusion, factor is the minimal-norm X = pinv(l2) l1 and lambda_min
    the least admissible majorization multiplier (NotRepresentable as in
    minimal_multiplier).  Otherwise both are None and the result records
    how far l1 is from range(l2).
    """
    tol = _check_tol(tol, "tol")
    svd, coords, included, a = _inclusion(l1, l2, rank_tol, tol, True)
    return DouglasResult(
        included=included,
        # before the factor, which it refuses past double precision range
        lambda_min=_multiplier(a, coords) if included else None,
        # a copy the caller owns of the factor kept for l2's field
        factor=coords.factor(svd.vh).copy() if included else None,
        residual=coords.distance,
        marginal=not included and coords.distance < GRAY_ZONE_FACTOR * tol,
    )


def _inclusion(l1, l2, rank_tol: float, tol: float, right: bool):
    """(svd, coords, included, l1): l2's SVD ranked at rank_tol, with vh
    when right is set, and linalg._Kept.inclusion of l1 against it, asked
    as the field whose handed-out B is l2 itself, if any (see
    linalg._kept_like), with l2 factored as it is."""
    a, b = as_operator(l1), as_operator(l2)
    if a.shape[0] != b.shape[0]:
        raise DimMismatch(
            f"operators map into different spaces: {a.shape[0]} vs {b.shape[0]} rows"
        )
    tol, kept = _check_tol(tol, "tol"), _kept_like(b)
    svd = kept.b_svd(lambda: b, right).ranked(rank_tol, "l2")
    return (svd, *kept.inclusion(svd, a, tol), a)


def _multiplier(l1: OperatorMatrix, coords) -> float:
    """||pinv(l2) l1||^2 off coords, l1 read against l2's SVD: it raises
    NotRepresentable for a nonzero l1 where the frame check's lower bound,
    its reciprocal, does (see linalg._check_multiplier)."""
    x = coords.pinv_norm()
    if l1.any():
        _check_multiplier(x, "the Douglas multiplier")
    return x**2
