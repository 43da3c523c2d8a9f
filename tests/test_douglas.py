"""Range inclusion, minimal-norm factorization, and least majorization
multiplier for operator pairs."""

import numpy as np
import pytest

from ckframe import DimMismatch, NotRepresentable, SampleField, make_measure_space
from ckframe.douglas import douglas_factor, minimal_multiplier, range_included
from ckframe.frame_ops import ckframe_check, whitened_synthesis_matrix
from ckframe.linalg import operator_norm
from helpers import bisect_max_multiplier, counted_factorizations, crandn, with_rank


def stacked_rank_oracle(l1, l2):
    """Inclusion via rank([l2]) == rank([l2 | l1]) on raw singular values."""
    l1 = np.asarray(l1, dtype=complex)
    l2 = np.asarray(l2, dtype=complex)
    stacked = np.hstack([l2, l1])

    def numrank(m):
        s = np.linalg.svd(m, compute_uv=False)
        return int(np.count_nonzero(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0

    return numrank(stacked) == numrank(l2)


def lam_majorizes(lam, l1, l2, slack=0.0):
    m = lam * (l2 @ l2.conj().T) - l1 @ l1.conj().T
    m = 0.5 * (m + m.conj().T)
    return float(np.linalg.eigvalsh(m)[0]) >= -slack


# ---------------------------------------------------------------------------
# examples


def test_included_column_in_full_plane():
    assert range_included(np.array([[1.0], [0.0]]), np.eye(2))


def test_not_included_when_target_drops_rank():
    assert not range_included(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))


def test_included_equal_rank_one_ranges():
    l1 = np.ones((2, 2))
    l2 = np.array([[1.0], [1.0]])
    assert range_included(l1, l2)
    assert stacked_rank_oracle(l1, l2)


def test_dim_mismatch_rejected():
    for predicate in (range_included, minimal_multiplier, douglas_factor):
        with pytest.raises(DimMismatch):
            predicate(np.ones((2, 1)), np.ones((3, 1)))


def test_factor_diagonal_solve():
    l1 = np.array([[1.0], [0.0]])
    l2 = np.diag([2.0, 1.0])
    result = douglas_factor(l1, l2)
    assert result.included
    oracle = np.linalg.solve(l2, l1)  # invertible target: direct solve
    assert np.allclose(result.factor, np.array([[0.5], [0.0]]))
    assert np.allclose(result.factor, oracle, atol=1e-14)
    assert result.residual <= 1e-12
    assert not result.marginal


def test_self_factor_is_row_space_projector():
    rng = np.random.default_rng(31)
    l2 = with_rank(rng, 4, 5, 2)
    result = douglas_factor(l2, l2)
    # minimal-norm self factor: the orthogonal projector onto range(l2*)
    _, _, vh = np.linalg.svd(l2)
    proj = vh[:2].conj().T @ vh[:2]
    assert result.included
    assert np.allclose(result.factor, proj, atol=1e-10)


def test_factor_absent_when_not_included():
    result = douglas_factor(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))
    assert not result.included
    assert result.factor is None
    assert result.lambda_min is None
    assert result.residual == pytest.approx(1.0)
    assert not result.marginal  # far beyond the gray zone


def test_multiplier_diagonal_example_with_bisection_oracle():
    l1 = np.array([[1.0], [0.0]])
    l2 = np.diag([2.0, 1.0])
    lam = minimal_multiplier(l1, l2)
    assert lam == pytest.approx(0.25, abs=1e-12)
    # oracle: bisect the largest a with l2 l2* - a l1 l1* PSD, invert
    a = bisect_max_multiplier(l2 @ l2.conj().T, l1 @ l1.conj().T)
    assert lam == pytest.approx(1.0 / a, rel=1e-9)


def test_multiplier_self_pair_is_one():
    rng = np.random.default_rng(32)
    l2 = crandn(rng, 3, 4)
    assert minimal_multiplier(l2, l2) == pytest.approx(1.0, rel=1e-10)


def test_multiplier_absent_when_not_included():
    assert minimal_multiplier(np.diag([1.0, 1.0]), np.diag([1.0, 0.0])) is None


def test_predicates_take_only_the_factorizations_they_read(monkeypatch):
    # one factorization of the wide l2 (the QR of its transpose and the SVD
    # of the triangular factor, without vh); l2 is onto, so no inclusion
    # residual and no ||l1|| are taken; only minimal_multiplier adds
    # ||coords||, and neither builds the factor
    rng = np.random.default_rng(5)
    l2 = with_rank(rng, 6, 20, 6)
    l1 = l2 @ crandn(rng, 20, 3)
    expected = douglas_factor(l1, l2)
    counts = counted_factorizations(monkeypatch)
    assert range_included(l1, l2) is True
    assert dict(counts) == {"qr": 1, "svd": 1}
    counts.clear()
    assert minimal_multiplier(l1, l2) == expected.lambda_min
    assert dict(counts) == {"qr": 1, "svd": 1, "norm2": 1}


# ---------------------------------------------------------------------------
# gray-zone diagnostic


def test_marginal_flag_tracks_residual_band():
    base = np.array([[1.0], [0.0]])
    inside = douglas_factor(np.array([[1.0], [1e-9]]), np.diag([1.0, 0.0]))
    assert inside.included and not inside.marginal

    nearly = douglas_factor(np.array([[1.0], [3e-8]]), np.diag([1.0, 0.0]))
    assert not nearly.included
    assert nearly.marginal  # fails, but within 100x of tolerance

    far = douglas_factor(np.array([[1.0], [1e-3]]), np.diag([1.0, 0.0]))
    assert not far.included and not far.marginal
    assert douglas_factor(base, np.diag([1.0, 0.0])).included


# ---------------------------------------------------------------------------
# equivalence battery


def instance_stream(rng, count):
    """Mixed stream: included by construction, generically excluded,
    rank-deficient on both sides, rectangular, and zero operators."""
    for i in range(count):
        style = i % 5
        rows = int(rng.integers(2, 6))
        if style == 0:
            l2 = crandn(rng, rows, int(rng.integers(1, 5)))
            l1 = l2 @ crandn(rng, l2.shape[1], int(rng.integers(1, 4)))
        elif style == 1:
            l2 = with_rank(rng, rows, rows, max(1, rows - 1))
            l1 = crandn(rng, rows, int(rng.integers(1, 4)))
        elif style == 2:
            r = int(rng.integers(1, rows))
            l2 = with_rank(rng, rows, rows + 1, r)
            l1 = l2 @ crandn(rng, rows + 1, 2)
        elif style == 3:
            l2 = np.zeros((rows, 2), dtype=complex)
            l1 = crandn(rng, rows, 1) if i % 2 else np.zeros((rows, 1), dtype=complex)
        else:
            l2 = crandn(rng, rows, rows + 2)  # onto: everything included
            l1 = with_rank(rng, rows, 3, min(rows, 2))
        yield l1, l2


def test_three_way_equivalence_on_200_instances():
    rng = np.random.default_rng(33)
    seen_included = seen_excluded = 0
    for l1, l2 in instance_stream(rng, 200):
        included = range_included(l1, l2)
        result = douglas_factor(l1, l2)
        lam = minimal_multiplier(l1, l2)
        assert included == result.included
        assert included == (result.factor is not None)
        assert included == (lam is not None)
        if included:
            seen_included += 1
            assert operator_norm(l1 - l2 @ result.factor) <= 1e-8 * max(
                1.0, operator_norm(l1)
            )
            gram = l1 @ l1.conj().T
            assert lam_majorizes(lam, l1, l2, slack=1e-8 * max(1.0, operator_norm(gram)))
        else:
            seen_excluded += 1
    assert seen_included >= 50 and seen_excluded >= 50


def test_multiplier_minimality():
    rng = np.random.default_rng(34)
    checked = 0
    for l1, l2 in instance_stream(rng, 60):
        if not range_included(l1, l2):
            continue
        lam = minimal_multiplier(l1, l2)
        if lam == 0.0:
            assert operator_norm(l1) == 0.0
            continue
        assert lam_majorizes(lam, l1, l2, slack=1e-8 * max(1.0, lam))
        assert not lam_majorizes(lam * (1.0 - 1e-6), l1, l2)
        assert not lam_majorizes(lam - 1e-6, l1, l2)
        checked += 1
    assert checked >= 20


def test_zero_through_zero_is_included():
    z = np.zeros((3, 2), dtype=complex)
    result = douglas_factor(z, np.zeros((3, 3), dtype=complex))
    assert result.included
    assert result.lambda_min == 0.0
    assert np.all(result.factor == 0)


#: ||pinv(B) k|| = c for B = I and k = c I: values on both sides of where
#: c^2 or c^-2 leaves the normal doubles (c = 2^-511, 2^511).
EXTREME_SCALES = [1e-160, 7.5e-155, 1.2e-154, 2.0**-511, 1.6e-154, 1e-100]
EXTREME_SCALES += [1e100, 6e153, 2.0**511, 6.8e153, 1.3e154, 1.4e154, 1e160]


@pytest.mark.parametrize("scale", EXTREME_SCALES)
def test_every_face_refuses_the_same_unrepresentable_multiplier(scale):
    # lambda_min = c^2 and the lower bound A = c^-2 are one number: each
    # face either reports it or raises NotRepresentable, all alike, and
    # the python ** of the multiplier never raises OverflowError
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    f = SampleField(space, np.eye(2))
    k = scale * np.eye(2, dtype=complex)
    b = whitened_synthesis_matrix(f)
    # range_included reports no number of the size of c, so it refuses no
    # scale: range(c I) sits inside range(I) at every one
    assert range_included(k, b) is True
    faces = {
        "bounds": lambda: ckframe_check(SampleField(space, np.eye(2)), k).bounds.lower,
        "minimal_multiplier": lambda: minimal_multiplier(k, b),
        "douglas_factor": lambda: douglas_factor(k, b).lambda_min,
    }
    outcomes = {}
    for name, face in faces.items():
        try:
            outcomes[name] = face()
        except NotRepresentable:
            outcomes[name] = None
    assert len({value is None for value in outcomes.values()}) == 1, outcomes
    tiny = np.finfo(float).tiny
    representable = tiny <= scale * scale <= 1.0 / tiny
    assert (outcomes["bounds"] is not None) == representable, outcomes
    if representable:
        assert outcomes["minimal_multiplier"] == outcomes["douglas_factor"]
        assert outcomes["bounds"] * outcomes["minimal_multiplier"] == pytest.approx(1.0, rel=1e-14)
