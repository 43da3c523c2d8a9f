"""Operator-matrix primitives: adjoints, eigendecompositions, pseudoinverses,
range projectors, and the PSD pencil extremizer."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ckframe import NotHermitian, NotPSD, RankAmbiguous, ValidationError
from ckframe.linalg import (
    _fix_phases,
    _thin_svd,
    adjoint,
    as_operator,
    hermitian_eig,
    max_psd_multiplier,
    operator_norm,
    pseudoinverse,
    range_basis,
    range_projector,
)
from helpers import (
    bisect_max_multiplier,
    char_poly_eigenvalues_2x2,
    counted_factorizations,
    crandn,
    min_quotient,
    random_unitary,
    reference_fix_phases,
)

complex_entries = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def square_matrices(n):
    return arrays(np.complex128, (n, n), elements=complex_entries)


# ---------------------------------------------------------------------------
# adjoint


def test_adjoint_conjugates_scalar():
    assert adjoint([[1j]]) == np.array([[-1j]])


def test_adjoint_identity_fixed():
    assert np.array_equal(adjoint(np.eye(3)), np.eye(3))


def test_adjoint_transposes_real_matrix():
    out = adjoint([[1, 2], [3, 4]])
    assert np.array_equal(out, np.array([[1, 3], [2, 4]], dtype=complex))


@given(square_matrices(3))
def test_adjoint_involution(m):
    assert np.array_equal(adjoint(adjoint(m)), as_operator(m))


def test_as_operator_rejects_non_2d_and_nonfinite():
    with pytest.raises(ValueError):
        as_operator([1.0, 2.0])
    with pytest.raises(ValueError):
        as_operator([[np.inf, 0.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# hermitian_eig


def test_eig_diagonal():
    eig = hermitian_eig(np.diag([4.0, 1.0]))
    assert np.allclose(eig.eigenvalues, [1.0, 4.0])


def test_eig_zero_matrix():
    eig = hermitian_eig(np.zeros((2, 2)))
    assert np.array_equal(eig.eigenvalues, [0.0, 0.0])


def test_eig_matches_characteristic_polynomial():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    expected = char_poly_eigenvalues_2x2(m)  # (1, 3) by hand
    eig = hermitian_eig(m)
    assert np.allclose(expected, [1.0, 3.0])
    assert np.allclose(eig.eigenvalues, expected, atol=1e-12)


def test_eig_rejects_asymmetric():
    with pytest.raises(NotHermitian):
        hermitian_eig([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian):
        hermitian_eig(np.ones((2, 3)))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_eig_reconstruction_and_orthonormality(n):
    rng = np.random.default_rng(100 + n)
    a = crandn(rng, n, n)
    m = a + a.conj().T
    eig = hermitian_eig(m)
    u = eig.eigenvectors
    recon = (u * eig.eigenvalues) @ u.conj().T
    scale = operator_norm(m)
    assert operator_norm(recon - m) <= 1e-10 * scale
    assert operator_norm(u.conj().T @ u - np.eye(n)) <= 1e-12
    for i in range(n):
        defect = np.linalg.norm(m @ u[:, i] - eig.eigenvalues[i] * u[:, i])
        assert defect <= 1e-10 * max(1.0, scale)
    assert np.all(np.diff(eig.eigenvalues) >= 0)


def test_eig_deterministic_with_positive_leading_phase():
    rng = np.random.default_rng(7)
    a = crandn(rng, 5, 5)
    m = a + a.conj().T
    first = hermitian_eig(m)
    second = hermitian_eig(m)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    for j in range(5):
        col = first.eigenvectors[:, j]
        lead = col[np.abs(col) > 1e-8 * np.abs(col).max()][0]
        assert lead.real > 0
        assert abs(lead.imag) <= 1e-12 * abs(lead)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 16])
def test_phase_fixing_matches_the_column_loop(n):
    # random and repeated spectra in a random basis, whose eigenvectors
    # LAPACK may mix, and diagonal matrices, whose have exact zeros
    rng = np.random.default_rng(n)
    u = random_unitary(rng, n) if n else np.eye(0)
    matrices = [np.diag(rng.integers(0, 3, n)).astype(complex)]
    for spectrum in (rng.standard_normal(n), np.repeat([1.0, 2.0], n)[:n], np.zeros(n)):
        matrices.append((u * spectrum) @ u.conj().T)
    if n >= 5:
        # eigenvectors spread evenly over n - 1 entries, two of them turned
        # towards e0 so their first entry sits just above and just below
        # 1e-8 of their own largest one, which is below 1e-8 of e0's
        v = np.eye(n, dtype=complex)
        v[1:, 1:] = np.exp(2j * np.pi * np.outer(range(n - 1), range(n - 1)) / (n - 1))
        v[1:, 1:] /= np.sqrt(n - 1)
        for j, angle in ((1, 7e-9), (2, 1e-9)):
            turn = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
            v[:, [0, j]] = v[:, [0, j]] @ turn
        matrices.append((v * np.arange(1.0, n + 1)) @ v.conj().T)
    for m in matrices:
        vectors = np.linalg.eigh(0.5 * (m + m.conj().T))[1]
        fixed = _fix_phases(vectors)
        assert fixed.shape == (n, n)
        assert fixed.tobytes() == reference_fix_phases(vectors).tobytes()


# ---------------------------------------------------------------------------
# pseudoinverse


def test_pinv_diagonal():
    assert np.allclose(pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))


def test_pinv_identity():
    assert np.allclose(pseudoinverse(np.eye(4)), np.eye(4))


def test_pinv_column_against_direct_formula():
    m = np.array([[3.0], [4.0]])
    # full column rank: pinv = (m* m)^{-1} m*
    oracle = np.linalg.inv(m.conj().T @ m) @ m.conj().T
    out = pseudoinverse(m)
    assert np.allclose(oracle, [[3.0 / 25.0, 4.0 / 25.0]])
    assert np.allclose(out, oracle, atol=1e-14)


def test_pinv_zero_matrix_gives_transposed_zero():
    out = pseudoinverse(np.zeros((2, 3)))
    assert out.shape == (3, 2)
    assert np.all(out == 0)


@pytest.mark.parametrize("shape,rank", [((3, 3), 3), ((4, 2), 2), ((2, 5), 2), ((5, 4), 2)])
def test_pinv_moore_penrose_identities(shape, rank):
    from helpers import with_rank

    rng = np.random.default_rng(sum(shape) + rank)
    m = with_rank(rng, shape[0], shape[1], rank)
    p = pseudoinverse(m)
    tol = 1e-10
    assert operator_norm(m @ p @ m - m) <= tol * max(1.0, operator_norm(m))
    assert operator_norm(p @ m @ p - p) <= tol * max(1.0, operator_norm(p))
    assert operator_norm(m @ p - (m @ p).conj().T) <= tol
    assert operator_norm(p @ m - (p @ m).conj().T) <= tol


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_pinv_reciprocity(n):
    rng = np.random.default_rng(n)
    m = crandn(rng, n, max(1, n - 1))
    back = pseudoinverse(pseudoinverse(m))
    assert operator_norm(back - m) <= 1e-10 * max(1.0, operator_norm(m))


def test_rank_gray_zone_rejected_and_escapable():
    m = np.diag([1.0, 5e-10])
    with pytest.raises(RankAmbiguous):
        pseudoinverse(m)
    # moving the cutoff to either side of the ambiguous value resolves it
    treated_zero = pseudoinverse(m, rank_tol=1e-6)
    assert np.allclose(treated_zero, np.diag([1.0, 0.0]))
    treated_full = pseudoinverse(m, rank_tol=1e-12)
    assert np.allclose(treated_full, np.diag([1.0, 2e9]))
    with pytest.raises(RankAmbiguous, match="^rank of m: singular value 5.000e-10"):
        range_projector(m)
    with pytest.raises(RankAmbiguous, match="^rank of s: singular value 5.000e-10"):
        max_psd_multiplier(m, m)
    with pytest.raises(ValidationError):
        pseudoinverse(m, rank_tol=0.0)


# ---------------------------------------------------------------------------
# range projector


def test_projector_single_column():
    out = range_projector(np.array([[1.0], [0.0]]))
    assert np.allclose(out, np.diag([1.0, 0.0]))


def test_projector_full_rank_is_identity():
    rng = np.random.default_rng(3)
    m = crandn(rng, 2, 2)
    assert np.allclose(range_projector(m), np.eye(2), atol=1e-12)


def test_projector_rank_one_against_uu_oracle():
    m = np.ones((2, 2))
    u = np.array([1.0, 1.0])
    oracle = np.outer(u, u.conj()) / np.vdot(u, u).real
    out = range_projector(m)
    assert np.allclose(oracle, 0.5 * np.ones((2, 2)))
    assert np.allclose(out, oracle, atol=1e-14)


@pytest.mark.parametrize("shape,rank", [((4, 4), 2), ((5, 3), 3), ((3, 6), 1)])
def test_projector_properties_and_pinv_identity(shape, rank):
    from helpers import with_rank

    rng = np.random.default_rng(13 + rank)
    m = with_rank(rng, shape[0], shape[1], rank)
    p = range_projector(m)
    assert operator_norm(p - p.conj().T) <= 1e-12
    assert operator_norm(p @ p - p) <= 1e-12
    assert operator_norm(p @ m - m) <= 1e-10 * max(1.0, operator_norm(m))
    assert abs(np.trace(p).real - rank) <= 1e-8
    # independent route: the projector is M @ pinv(M)
    assert operator_norm(p - m @ pseudoinverse(m)) <= 1e-10
    basis = range_basis(m)
    assert basis.shape == (shape[0], rank)
    assert operator_norm(basis.conj().T @ basis - np.eye(rank)) <= 1e-12


# ---------------------------------------------------------------------------
# max_psd_multiplier


def test_pencil_diag_example_against_bisection():
    s = np.diag([1.0, 4.0])
    c = np.diag([1.0, 0.0])
    out = max_psd_multiplier(s, c)
    assert out == pytest.approx(1.0, abs=1e-12)
    assert bisect_max_multiplier(s, c) == pytest.approx(out, abs=1e-9)


def test_pencil_identity_pair():
    assert max_psd_multiplier(np.eye(2), np.eye(2)) == pytest.approx(1.0, abs=1e-14)


def test_pencil_range_escape_gives_zero():
    assert max_psd_multiplier(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == 0.0


def test_pencil_zero_c_is_unbounded():
    assert max_psd_multiplier(np.eye(3), np.zeros((3, 3))) == math.inf


def test_pencil_rejects_bad_inputs():
    with pytest.raises(NotPSD):
        max_psd_multiplier(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(NotPSD):
        max_psd_multiplier(np.eye(2), np.diag([1.0, -1.0]))
    with pytest.raises(NotPSD):
        max_psd_multiplier(np.eye(2), np.eye(3))


@pytest.mark.parametrize("n,rank_s,rank_c", [(2, 2, 1), (3, 3, 3), (4, 3, 2), (5, 5, 1)])
def test_pencil_matches_bisection_on_random_instances(n, rank_s, rank_c):
    from helpers import with_rank

    rng = np.random.default_rng(1000 * n + 10 * rank_s + rank_c)
    a = with_rank(rng, n, n, rank_s)
    s = a @ a.conj().T
    # keep range(c) inside range(s) so a positive multiplier exists
    b = a @ crandn(rng, n, rank_c)
    c = b @ b.conj().T
    out = max_psd_multiplier(s, c)
    oracle = bisect_max_multiplier(s, c)
    assert out == pytest.approx(oracle, rel=1e-8, abs=1e-10)


def test_pencil_agrees_with_monte_carlo_infimum():
    # the multiplier is the infimum of <S h, h> / <C h, h>; the sampled
    # minimum converges from above
    for seed, n in [(0, 2), (1, 2), (2, 3)]:
        rng = np.random.default_rng(seed)
        a = crandn(rng, n, n + 2)
        s = a @ a.conj().T
        b = crandn(rng, n, n)
        c = b @ b.conj().T
        out = float(max_psd_multiplier(s, c))
        sampled = min_quotient(rng, s, c, budget=10**4)
        assert sampled >= out - 1e-9
        assert sampled <= out * (1.0 + 1e-6)


def test_pencil_exact_on_proportional_forms():
    rng = np.random.default_rng(5)
    a = crandn(rng, 3, 3)
    s = a @ a.conj().T
    out = max_psd_multiplier(4.0 * s, s)
    assert out == pytest.approx(4.0, rel=1e-12)


def test_operator_norm_largest_singular_value():
    assert operator_norm(np.diag([3.0, -7.0])) == pytest.approx(7.0)
    assert operator_norm(np.zeros((2, 2))) == 0.0


def test_operator_norm_of_a_zero_matrix_takes_no_svd(monkeypatch):
    # the symmetry defect of an exactly Hermitian matrix is such a matrix
    counts = counted_factorizations(monkeypatch)
    assert operator_norm(np.zeros((3, 4))) == 0.0
    assert operator_norm(np.zeros((0, 2))) == 0.0
    s = np.array([[2.0, 1j], [-1j, 1.0]])
    assert operator_norm(s - s.conj().T) == 0.0
    assert not counts


@pytest.mark.parametrize(
    "shape,right",
    [((16, 32), True), ((96, 384), True), ((15, 32), False), ((16, 31), False)],
)
def test_operator_norm_of_a_wide_matrix_through_its_triangular_factor(shape, right, monkeypatch):
    # operator_norm takes norm(m, 2) of a wide m as it is, with no QR; the
    # one SVD that _thin_svd takes of it goes through the R of m.T = Q R,
    # and its sigma_max agrees with that norm, with vh formed or not
    m = crandn(np.random.default_rng(shape[0] * shape[1]), *shape)
    direct = float(np.linalg.norm(m, 2))
    counts = counted_factorizations(monkeypatch)
    norm = operator_norm(m)
    assert norm == direct
    assert dict(counts) == {"norm2": 1}
    svd = _thin_svd(m, right)
    assert counts["qr"] == 1 and counts["svd"] == 1 and counts["norm2"] == 1
    assert svd.top == pytest.approx(direct, rel=1e-13)
    assert (svd.vh is not None) == right
    if right:
        np.testing.assert_allclose((svd.u * svd.s) @ svd.vh, m, atol=1e-12)
