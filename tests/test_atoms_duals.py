"""Atomic coefficient maps, the inverse of the frame operator on range(k),
dual-pair verification, and the canonical dual construction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ckframe import (
    DegenerateOperator,
    DimMismatch,
    NotADualPair,
    NotInvertibleOnRange,
    NotRepresentable,
    RangeNotIncluded,
    RankAmbiguous,
    SampleField,
    make_measure_space,
)
from ckframe.atoms_duals import (
    CoefficientMap,
    atom_coefficient_map,
    canonical_dual,
    dual_frame_bounds_check,
    inverse_on_range,
    sandwich_check,
    subspace_cframe_margin,
    verify_atomic_decomposition,
    verify_dual_pair,
)
from ckframe.douglas import douglas_factor
from ckframe.frame_ops import (
    analysis,
    ckframe_check,
    frame_operator,
    map_field,
    synthesis,
    synthesis_matrix,
    whitened_synthesis_matrix,
)
from ckframe.harness import generate_example
from ckframe.linalg import DEFAULT_RANK_TOL, _separated_rank, operator_norm
from helpers import (
    HAIRLINE_SIDES,
    ckframe_instance,
    counted_factorizations,
    crandn,
    excluded_instance,
    k_on_the_rank_hairline,
    max_psd_multiplier,
    parseval_field,
    random_field,
    random_space,
    random_unitary,
    range_basis,
    reference_atomic_residual,
    reference_dual_pair_residuals,
    with_rank,
)

TOL = 1e-8


def onb_field():
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    return SampleField(space, np.eye(2))


def scaled_field():
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    return SampleField(space, np.diag([1.0, 2.0]))


def doubled_atom_field():
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    return SampleField(space, np.array([[1.0, 0.0], [1.0, 0.0]]))


def lstsq_coefficients(f, k):
    """Independent minimal-norm solve of T_f M = k in the weighted metric."""
    b = whitened_synthesis_matrix(f)
    sol, *_ = np.linalg.lstsq(b, np.asarray(k, dtype=complex), rcond=None)
    return sol / np.sqrt(f.space.weight_array)[:, None]


# ---------------------------------------------------------------------------
# atom coefficient maps


def test_atoms_onb_identity():
    cmap = atom_coefficient_map(onb_field(), np.eye(2))
    assert np.allclose(cmap.matrix, np.eye(2), atol=1e-14)
    assert cmap.matrix.shape == (2, 2)


def test_atoms_onb_diagonal_k():
    k = np.diag([1.0, 2.0])
    cmap = atom_coefficient_map(onb_field(), k)
    assert np.allclose(cmap.matrix, k, atol=1e-14)
    assert np.allclose(cmap.matrix, lstsq_coefficients(onb_field(), k), atol=1e-12)


def test_atoms_minimal_norm_splits_duplicate_atoms():
    f = doubled_atom_field()
    k = np.array([[1.0], [0.0]])
    cmap = atom_coefficient_map(f, k)
    assert np.allclose(cmap.matrix, np.array([[0.5], [0.5]]), atol=1e-14)
    assert np.allclose(cmap.matrix, lstsq_coefficients(f, k), atol=1e-12)
    assert cmap.bound == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert verify_atomic_decomposition(f, k, cmap) <= 1e-10


def test_atoms_rejects_range_escape():
    with pytest.raises(RangeNotIncluded):
        atom_coefficient_map(doubled_atom_field(), np.eye(2))


def test_atoms_random_instances_match_lstsq():
    rng = np.random.default_rng(41)
    for _ in range(10):
        f, k = ckframe_instance(rng, 3, 2, 9)
        cmap = atom_coefficient_map(f, k)
        assert np.allclose(cmap.matrix, lstsq_coefficients(f, k), atol=1e-9)
        assert verify_atomic_decomposition(f, k, cmap) <= 1e-10
        # recorded constant is the norm in the whitened coordinates
        whitened = cmap.matrix * np.sqrt(f.space.weight_array)[:, None]
        assert cmap.bound == pytest.approx(operator_norm(whitened), rel=1e-12)


def conditioned_instance(seed, kappa):
    """(f, k) with B = U diag(geomspace(1, 1/kappa, 6)) V[:6] for random
    unitaries U, V, 10 atoms of random weight, and a unitary k."""
    rng = np.random.default_rng(seed)
    u, v = random_unitary(rng, 6), random_unitary(rng, 10)
    space = random_space(rng, 10)
    b = (u * np.geomspace(1.0, 1.0 / kappa, 6)) @ v[:6]
    f = SampleField(space, (b / np.sqrt(space.weight_array)).T)
    return f, random_unitary(rng, 6)


@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e7])
@pytest.mark.parametrize("seed", range(4))
def test_atoms_and_douglas_residuals_grow_like_kappa_not_kappa_squared(kappa, seed):
    # pinv(B) k read off B's SVD leaves residuals of order eps * kappa, while
    # the normal-equation shortcut B* U Sigma^-2 U* k, which needs no vh,
    # leaves eps * kappa^2 and fails this from kappa = 1e4
    f, k = conditioned_instance(seed, kappa)
    bound = 100 * np.finfo(float).eps * kappa
    assert verify_atomic_decomposition(f, k, atom_coefficient_map(f, k)) <= bound
    b = whitened_synthesis_matrix(f)
    factor = douglas_factor(k, b).factor
    assert operator_norm(b @ factor - k) / operator_norm(k) <= bound


def test_verify_zero_map_against_nonzero_k():
    f = onb_field()
    k = np.eye(2)
    zero = CoefficientMap(matrix=np.zeros((2, 2), dtype=complex), bound=0.0)
    assert verify_atomic_decomposition(f, k, zero) == pytest.approx(1.0)


def test_verify_kernel_perturbation_leaves_residual_unchanged():
    rng = np.random.default_rng(42)
    f, k = ckframe_instance(rng, 3, 2, 8)
    cmap = atom_coefficient_map(f, k)
    base = verify_atomic_decomposition(f, k, cmap)

    b = whitened_synthesis_matrix(f)
    _, s, vh = np.linalg.svd(b)
    assert s[-1] > 1e-6  # full row rank, kernel is the trailing right space
    z = vh[3].conj()  # a kernel vector of the whitened synthesis
    assert np.linalg.norm(b @ z) <= 1e-12

    shift = 1e-3 * (z / np.sqrt(f.space.weight_array))[:, None]
    perturbed_matrix = cmap.matrix + shift @ np.ones((1, 2))
    whitened = perturbed_matrix * np.sqrt(f.space.weight_array)[:, None]
    perturbed = CoefficientMap(
        matrix=perturbed_matrix,
        bound=operator_norm(whitened),
    )
    after = verify_atomic_decomposition(f, k, perturbed)
    assert abs(after - base) <= 1e-12


def test_verify_shape_guards():
    f = onb_field()
    cmap = atom_coefficient_map(f, np.eye(2))
    with pytest.raises(DimMismatch):
        verify_atomic_decomposition(f, np.ones((3, 2)), cmap)
    for matrix in (np.zeros((3, 2), dtype=complex), np.zeros(4, dtype=complex)):
        bad = CoefficientMap(matrix=matrix, bound=0.0)
        with pytest.raises(DimMismatch):
            verify_atomic_decomposition(f, np.eye(2), bad)


def test_atoms_equivalence_no_third_outcome():
    rng = np.random.default_rng(43)
    for i in range(40):
        if i % 2 == 0:
            f, k = ckframe_instance(rng, 3, 2, 8)
        else:
            f, k = excluded_instance(rng, 3, 2, 8)
        passes = ckframe_check(f, k).is_ck_frame
        if passes:
            cmap = atom_coefficient_map(f, k)
            assert verify_atomic_decomposition(f, k, cmap) <= 1e-8
        else:
            with pytest.raises(RangeNotIncluded):
                atom_coefficient_map(f, k)


# ---------------------------------------------------------------------------
# inverse on range


def test_inverse_full_range_is_matrix_inverse():
    g = inverse_on_range(scaled_field(), np.eye(2))
    oracle = np.linalg.inv(np.diag([1.0, 4.0]))
    assert np.allclose(g, oracle, atol=1e-14)


def test_inverse_on_line():
    g = inverse_on_range(scaled_field(), np.array([[1.0], [0.0]]))
    # restrict S to span(e1), invert the 1x1 block, annihilate the rest
    assert np.allclose(g, np.diag([1.0, 0.0]), atol=1e-14)


def test_inverse_parseval_acts_as_identity_on_range():
    f = parseval_field(3, 6, seed=44)
    k = crandn(np.random.default_rng(45), 3, 2)
    g = inverse_on_range(f, k)
    u = range_basis(np.asarray(k, dtype=complex))
    s = frame_operator(f)
    assert np.allclose(g @ s @ u, u, atol=1e-10)


def test_inverse_annihilates_complement():
    rng = np.random.default_rng(46)
    f, k = ckframe_instance(rng, 4, 2, 10)
    g = inverse_on_range(f, k)
    u = range_basis(np.asarray(k))
    su = frame_operator(f) @ u
    v = range_basis(su)
    comp = np.eye(4) - v @ v.conj().T
    assert operator_norm(g @ comp) <= 1e-9 * max(1.0, operator_norm(g))
    assert np.allclose(g @ frame_operator(f) @ u, u, atol=1e-9)


def test_inverse_rejects_degenerate_and_non_frames():
    with pytest.raises(DegenerateOperator):
        inverse_on_range(scaled_field(), np.zeros((2, 2)))
    with pytest.raises(NotInvertibleOnRange):
        inverse_on_range(doubled_atom_field(), np.eye(2))
    # a loose tol passes the frame check while a retained direction of k
    # (singular value 1e-5) lies outside range(T_f)
    k = np.diag([1.0, 1e-5])
    assert ckframe_check(doubled_atom_field(), k, tol=1e-3).is_ck_frame
    with pytest.raises(NotInvertibleOnRange):
        inverse_on_range(doubled_atom_field(), k, tol=1e-3)


# ---------------------------------------------------------------------------
# two-sided bound checks


def test_sandwich_tight_at_both_ends():
    # eigenvalues of the inverse hit 1/B and ||pinv(k)||^2/A exactly
    assert sandwich_check(scaled_field(), np.eye(2)) == 0.0


def test_sandwich_parseval_exact():
    assert sandwich_check(onb_field(), np.eye(2)) == 0.0
    assert abs(sandwich_check(parseval_field(3, 6, seed=47), np.eye(3))) <= 1e-12


def test_sandwich_nonnegative_on_random_instances():
    rng = np.random.default_rng(48)
    for _ in range(20):
        f, k = ckframe_instance(rng, 3, 2, 9)
        assert sandwich_check(f, k) >= -1e-9


def test_restricted_margin_identity_k_reduces_to_cframe_bounds():
    rng = np.random.default_rng(49)
    f, _ = ckframe_instance(rng, 3, 3, 9)
    assert abs(subspace_cframe_margin(f, np.eye(3))) <= 1e-10


def test_restricted_margin_scaled_column_attained():
    # k = column 2 e1: ||pinv(k)|| = 1/2, lower A/||pinv||^2 = 1 is attained
    assert subspace_cframe_margin(scaled_field(), np.array([[2.0], [0.0]])) == 0.0


def test_restricted_margin_nonnegative_on_random_instances():
    rng = np.random.default_rng(50)
    for _ in range(20):
        f, k = ckframe_instance(rng, 4, 2, 10)
        assert subspace_cframe_margin(f, k) >= -1e-9


def test_margins_match_raw_frame_operator_oracle():
    # extrema of <G h, h> on S_f(range(k)) (a generalized problem, not the
    # reciprocal spectrum of the compression) and of the compression itself,
    # from S_f and the one-sided inverse U pinv(S_f U)
    rng = np.random.default_rng(59)
    for n, n0, atoms in ((6, 3, 12), (4, 2, 10), (3, 3, 9)):
        f, k = ckframe_instance(rng, n, n0, atoms)
        check = ckframe_check(f, k)
        a, b = check.bounds.lower, check.bounds.upper
        sigma = np.linalg.svd(k, compute_uv=False)
        u = np.linalg.svd(k, full_matrices=False)[0][:, : np.count_nonzero(sigma > 1e-10 * sigma[0])]
        s = frame_operator(f)
        su = s @ u
        v = np.linalg.svd(su, full_matrices=False)[0]
        g = u @ np.linalg.pinv(su)
        inverted = np.linalg.eigvalsh(0.5 * (v.conj().T @ g @ v + (v.conj().T @ g @ v).conj().T))
        dagger2 = 1.0 / sigma[u.shape[1] - 1] ** 2
        expected = min(inverted[0] * b - 1.0, 1.0 - inverted[-1] * a / dagger2)
        assert sandwich_check(f, k) == pytest.approx(expected, abs=1e-9)
        compressed = np.linalg.eigvalsh(u.conj().T @ s @ u)
        expected = min(compressed[0] * dagger2 / a - 1.0, 1.0 - compressed[-1] / b)
        assert subspace_cframe_margin(f, k) == pytest.approx(expected, abs=1e-9)


def test_margins_reject_zero_operator():
    with pytest.raises(DegenerateOperator):
        sandwich_check(scaled_field(), np.zeros((2, 1)))
    with pytest.raises(DegenerateOperator):
        subspace_cframe_margin(scaled_field(), np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# dual pairs


def test_parseval_self_dual():
    f = onb_field()
    report = verify_dual_pair(f, f, np.eye(2))
    assert report.holds
    assert report.max_residual() <= 1e-12
    assert report.lower_bound_cert == pytest.approx(1.0)


def test_diagonal_dual_pair_holds():
    f = scaled_field()
    space = f.space
    g = SampleField(space, np.diag([1.0, 0.5]))
    report = verify_dual_pair(f, g, np.eye(2))
    assert report.holds
    # reconstruction oracle: sum_i w_i <h, g_i> f_i = h for a test vector
    h = np.array([0.3, -2.0 + 1j])
    recon = synthesis(f, analysis(g, h))
    assert np.allclose(recon, h, atol=1e-12)


def test_zero_dual_fails_with_unit_residual():
    f = onb_field()
    g = SampleField(f.space, np.zeros((2, 2)))
    report = verify_dual_pair(f, g, np.eye(2))
    assert not report.holds
    assert report.residual_c1 == 1.0
    assert report.max_residual() >= 1.0


def in_bases(f, g, k, basis_h, basis_h0):
    """(E* f, Gamma* g, E* k Gamma): the triple whose standard-basis
    residuals are those of (f, g, k) in the orthonormal bases E of H and
    Gamma of H0."""
    e_adj = basis_h.conj().T
    return map_field(e_adj, f), map_field(basis_h0.conj().T, g), e_adj @ k @ basis_h0


def test_dual_pair_respects_unitary_basis_choice():
    rng = np.random.default_rng(51)
    f, k = ckframe_instance(rng, 3, 2, 9)
    dual = canonical_dual(f, k)
    basis_h = random_unitary(rng, 3)
    basis_h0 = random_unitary(rng, 2)
    report = verify_dual_pair(
        *in_bases(dual.projected_frame, dual.dual_field, k, basis_h, basis_h0)
    )
    assert report.holds
    assert report.max_residual() <= TOL


def test_dual_pair_onto_variants():
    # square invertible k: both surjectivity variants evaluated
    f = scaled_field()
    g = SampleField(f.space, np.diag([1.0, 0.5]))
    report = verify_dual_pair(f, g, np.eye(2))
    assert report.onto_variant_residuals is not None
    res_k, res_k_star = report.onto_variant_residuals
    assert res_k is not None and res_k <= 1e-12
    assert res_k_star is not None and res_k_star <= 1e-12
    assert any("squared form" in note for note in report.notes)

    # tall k (rank = dim H0): only the adjoint side is onto
    rng = np.random.default_rng(52)
    f2, k2 = ckframe_instance(rng, 4, 2, 10)
    d2 = canonical_dual(f2, k2)
    r2 = verify_dual_pair(d2.projected_frame, d2.dual_field, k2)
    assert r2.onto_variant_residuals is not None
    assert r2.onto_variant_residuals[0] is None
    assert r2.onto_variant_residuals[1] <= TOL

    # wide k (rank = dim H): only k itself is onto
    f3, k3 = ckframe_instance(rng, 2, 4, 8)
    d3 = canonical_dual(f3, k3)
    r3 = verify_dual_pair(d3.projected_frame, d3.dual_field, k3)
    assert r3.onto_variant_residuals is not None
    assert r3.onto_variant_residuals[0] <= TOL
    assert r3.onto_variant_residuals[1] is None


def test_vectorized_residuals_match_per_basis_loops():
    rel = 1e-12
    rng = np.random.default_rng(58)
    for n, n0, atoms in ((3, 3, 7), (4, 2, 9), (2, 4, 8)):
        space = random_space(rng, atoms)
        f = random_field(rng, space, n)
        g = random_field(rng, space, n0)
        k = crandn(rng, n, n0)
        basis_h = random_unitary(rng, n)
        basis_h0 = random_unitary(rng, n0)
        triple = in_bases(f, g, k, basis_h, basis_h0)
        report = verify_dual_pair(*triple)
        *residuals, onto = reference_dual_pair_residuals(*triple, np.eye(n), np.eye(n0))
        # c1-c4 are the residuals of (f, g, k) in the bases themselves (the
        # reference's c5 stays in the standard bases)
        in_basis = reference_dual_pair_residuals(f, g, k, basis_h, basis_h0)[:4]
        assert in_basis == pytest.approx(residuals[:4], rel=rel)
        actual = [getattr(report, f"residual_c{i}") for i in range(1, 6)]
        assert actual == pytest.approx(residuals, rel=rel)
        assert (report.onto_variant_residuals[0] is None) == (onto[0] is None)
        assert (report.onto_variant_residuals[1] is None) == (onto[1] is None)
        for got, want in zip(report.onto_variant_residuals, onto):
            if want is not None:
                assert got == pytest.approx(want, rel=rel)
        for bound in (0.5, 1e3):
            m = CoefficientMap(crandn(rng, atoms, n0), bound=bound)
            assert verify_atomic_decomposition(f, k, m) == pytest.approx(
                reference_atomic_residual(f, k, m), rel=rel
            )


@pytest.mark.parametrize("scale", [1.0, 1e-5])
def test_pair_residuals_do_not_depend_on_the_scale_of_k(scale):
    # g = (1 + 1e-5) I misses k = I by 1e-5 of ||k||; scaling g and k
    # together keeps that relative defect, so the verdict must not move
    f = onb_field()
    g = SampleField(f.space, scale * (1 + 1e-5) * np.eye(2))
    report = verify_dual_pair(f, g, scale * np.eye(2))
    assert report.holds is False
    assert report.residual_c1 == pytest.approx(1e-5, rel=1e-6)
    assert report.onto_variant_residuals[0] == pytest.approx(1e-5, rel=1e-6)


def pair_residuals(report):
    onto = [r for r in report.onto_variant_residuals or () if r is not None]
    return [getattr(report, f"residual_c{i}") for i in range(1, 6)] + onto


@pytest.mark.parametrize("s", [1e160, 1e-160])
def test_pair_residuals_of_a_scaled_k_are_those_of_inversely_scaled_fields(s):
    # D = s k - B_f B_g* is s times the D of (f, g / s, k), and residuals
    # are relative to ||s k||; at 1e160 the squares of D's entries overflow.
    # g / s would leave g's frame operator under the normal doubles, so
    # f and g share the scaling, each taking 1 / sqrt(s)
    spec = generate_example("random_bessel_pair", {})
    f, g, k = spec.field_f, spec.field_g, spec.operator_k
    root = s**0.5
    scaled_k = verify_dual_pair(f, g, s * k)
    scaled_fields = verify_dual_pair(
        SampleField(f.space, f.samples / root), SampleField(g.space, g.samples / root), k
    )
    assert pair_residuals(scaled_k) == pytest.approx(pair_residuals(scaled_fields), rel=1e-12)


def test_a_pair_mismatch_outside_double_precision_is_refused():
    # g's B is formed without a check of S_g, but its entries sqrt(w) g
    # overflow here, so D = k - B_f B_g* is not finite and no residual is read
    space = make_measure_space(["a", "b"], [1e20, 1e20])
    f = SampleField(space, np.eye(2))
    g = SampleField(space, 1e300 * np.eye(2))
    with pytest.raises(NotRepresentable, match="pair mismatch"):
        verify_dual_pair(f, g, np.eye(2))


def test_atomic_residual_does_not_depend_on_the_scale_of_k():
    rng = np.random.default_rng(61)
    f, k = ckframe_instance(rng, 3, 2, 8)
    m = atom_coefficient_map(f, k)
    # a relative defect of 1e-5 in the coefficients, then k and the map
    # rescaled together
    noisy = CoefficientMap(m.matrix * (1 + 1e-5), m.bound)
    residual = verify_atomic_decomposition(f, k, noisy)
    assert residual > TOL
    for c in (1e-6, 1e3):
        scaled = CoefficientMap(c * noisy.matrix, c * m.bound)
        assert verify_atomic_decomposition(f, c * k, scaled) == pytest.approx(residual, rel=1e-9)


def test_dual_pair_shape_guards():
    f = onb_field()
    other_space = make_measure_space(["a", "b"], [2.0, 1.0])
    with pytest.raises(Exception):
        verify_dual_pair(f, SampleField(other_space, np.eye(2)), np.eye(2))
    with pytest.raises(DimMismatch):
        verify_dual_pair(f, f, np.ones((3, 2)))


def test_conditions_never_split_at_margin():
    rng = np.random.default_rng(53)
    for i in range(20):
        f, k = ckframe_instance(rng, 3, 2, 8)
        dual = canonical_dual(f, k)
        g = dual.dual_field
        if i % 2:
            g = SampleField(g.space, g.samples + crandn(rng, *g.samples.shape))
        report = verify_dual_pair(dual.projected_frame, g, k)
        residuals = [
            report.residual_c1,
            report.residual_c2,
            report.residual_c3,
            report.residual_c4,
            report.residual_c5,
        ]
        if report.holds:
            assert all(r <= TOL for r in residuals)
        else:
            assert sum(r > 10 * TOL for r in residuals) >= 2
        assert not (min(residuals) <= TOL and max(residuals) >= 10 * TOL)


# ---------------------------------------------------------------------------
# canonical dual


def test_canonical_dual_parseval_identity_k_returns_frame():
    f = parseval_field(3, 7, seed=54)
    dual = canonical_dual(f, np.eye(3))
    assert np.max(np.abs(dual.dual_field.samples - f.samples)) <= 1e-12
    assert np.max(np.abs(dual.projected_frame.samples - f.samples)) <= 1e-12


def test_canonical_dual_scaled_onb():
    dual = canonical_dual(scaled_field(), np.eye(2))
    assert np.array_equal(dual.dual_field.samples, np.diag([1.0, 0.5]))
    assert dual.lower_bound == pytest.approx(0.25)
    assert dual.upper_bound == pytest.approx(1.0)


def test_canonical_dual_on_a_line():
    f = scaled_field()
    k = np.array([[1.0], [0.0]])
    dual = canonical_dual(f, k)
    assert np.allclose(dual.projected_frame.samples, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(dual.dual_field.samples, np.array([[1.0], [0.0]]))
    report = verify_dual_pair(dual.projected_frame, dual.dual_field, k)
    assert report.holds


def test_canonical_dual_reconstructs_k_on_basis():
    rng = np.random.default_rng(55)
    for _ in range(10):
        f, k = ckframe_instance(rng, 4, 2, 10)
        dual = canonical_dual(f, k)
        w = f.space.weight_array
        for j in range(2):
            h0 = np.zeros(2, dtype=complex)
            h0[j] = 1.0
            coeff = dual.dual_field.samples.conj() @ h0
            recon = (w * coeff) @ dual.projected_frame.samples
            assert np.linalg.norm(np.asarray(k)[:, j] - recon) <= 1e-8 * max(
                1.0, operator_norm(np.asarray(k))
            )


def test_canonical_dual_bound_interval():
    rng = np.random.default_rng(56)
    for _ in range(10):
        f, k = ckframe_instance(rng, 3, 2, 9)
        dual = canonical_dual(f, k)
        kk = np.asarray(k, dtype=complex)
        s_dual = frame_operator(dual.dual_field)
        best_lower = float(max_psd_multiplier(s_dual, kk.conj().T @ kk))
        best_upper = float(np.linalg.eigvalsh(s_dual)[-1])
        assert best_lower >= dual.lower_bound - TOL
        assert best_upper <= dual.upper_bound + TOL


@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e5, 1e6, 1e7])
@pytest.mark.parametrize("seed", range(4))
def test_canonical_dual_residual_grows_like_kappa_not_kappa_squared(kappa, seed):
    # a dual built through the inverse of U_k* S_f U_k, a Gram matrix,
    # leaves pair residuals of order eps * kappa^2 and fails its own
    # verification from kappa = 1e4
    f, k = conditioned_instance(seed, kappa)
    assert canonical_dual(f, k).pair.max_residual() <= 1e-15 * kappa


def onto_instance(seed, n0_extra=None):
    """(f, k) in H = C^n, n in 2..6, with B onto H (4n atoms of random
    weight) and k an n x n0 Gaussian, onto H for n0 >= n."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    f = random_field(rng, random_space(rng, 4 * n), n)
    extra = int(rng.integers(0, 4)) if n0_extra is None else n0_extra
    return f, crandn(rng, n, n + extra)


@pytest.mark.parametrize("seed", range(10))
def test_an_onto_k_and_b_give_the_classical_dual_of_f_itself(seed):
    # range(k) = H, so P = I and G = S_f^-1: g(x) = k* S_f^-1 f(x), the
    # classical canonical dual carried through k*
    f, k = onto_instance(seed)
    dual = canonical_dual(f, k)
    classical = f.samples @ np.linalg.solve(frame_operator(f), k).conj()
    error = np.max(np.abs(dual.dual_field.samples - classical))
    assert error <= 1e-12 * np.max(np.abs(classical))
    assert dual.projected_frame is f
    # the sides that the compression makes tight are exactly tight: the
    # singular values of Sigma_r p and of c are those of B, read as they are
    assert sandwich_check(f, k) == 0.0
    assert subspace_cframe_margin(f, k) == 0.0


def b_of_rank(seed, rank):
    """(f, k) in H = C^4 with B of the given rank over 16 atoms and an
    onto-as-possible k = T_f mix with six columns: rank(k) = rank(B)."""
    rng = np.random.default_rng(seed)
    space = random_space(rng, 16)
    f = SampleField(space, with_rank(rng, 16, 4, rank))
    return f, synthesis_matrix(f) @ crandn(rng, 16, 6)


@pytest.mark.parametrize(
    "case, expected",
    [
        # B's QR and the SVD of its triangular factor, k's singular values
        # alone (k is wide) and ||pinv(B) k||: nothing of the compression
        # or sandwich
        ("both onto", {"qr": 1, "svd": 2, "norm2": 1}),
        # rank(k) = 2 < 4: k's left vectors, the compression's SVD and the
        # sandwich's, as p is 4 x 2
        ("k not onto", {"qr": 1, "svd": 5, "norm2": 1}),
        # rank(k) = rank(B) = 3 < 4: the inclusion distance, k's left
        # vectors and the compression's SVD; p is square, so the sandwich
        # takes none
        ("B not onto", {"qr": 1, "svd": 4, "norm2": 2}),
    ],
)
def test_the_onto_rule_is_taken_only_when_k_and_b_are_both_onto(case, expected, monkeypatch):
    if case == "both onto":
        f, k = onto_instance(3, n0_extra=2)
    elif case == "k not onto":
        f, k = ckframe_instance(np.random.default_rng(3), 4, 6, 16)
        k = k[:, :2] @ crandn(np.random.default_rng(4), 2, 6)
    else:
        f, k = b_of_rank(3, 3)
    counts = counted_factorizations(monkeypatch)
    margin = sandwich_check(f, k)
    assert dict(counts) == expected
    assert margin >= -TOL
    dual = canonical_dual(f, k)
    assert (dual.projected_frame is f) == (case == "both onto")


@given(side=st.sampled_from(sorted(HAIRLINE_SIDES)), data=st.data())
def test_on_the_rank_hairline_of_k_every_face_agrees_or_names_k(side, data):
    # k's singular values are taken alone when k is square, and with its
    # vectors by other paths: either way they decide one rank, outside the
    # band, and raise about k inside it
    k = data.draw(k_on_the_rank_hairline(side))
    n = k.shape[0]
    rng = np.random.default_rng(n)
    f = random_field(rng, random_space(rng, 4 * n), n)
    g = SampleField(f.space, crandn(rng, 4 * n, n))
    sigmas = (np.linalg.svd(k, compute_uv=False), np.linalg.svd(k, full_matrices=False)[1])
    faces = {
        "sandwich_check": sandwich_check,
        "subspace_cframe_margin": subspace_cframe_margin,
        "inverse_on_range": inverse_on_range,
        "canonical_dual": canonical_dual,
        "verify_dual_pair": lambda f, k: verify_dual_pair(f, g, k),
    }
    if side == "inside":
        for sigma in sigmas:
            with pytest.raises(RankAmbiguous, match="^rank of k"):
                _separated_rank(sigma, DEFAULT_RANK_TOL, "k")
        for name, face in faces.items():
            with pytest.raises(RankAmbiguous, match="^rank of k"):
                face(f, k)
        return
    rank = n if side == "above" else n - 1
    assert [_separated_rank(sigma, DEFAULT_RANK_TOL, "k") for sigma in sigmas] == [rank, rank]
    # each face reads that rank: the projector, the onto variants, the
    # basis of range(k) that G inverts S_f on, and both sandwiches hold
    dual = canonical_dual(f, k)
    assert (dual.projected_frame is f) == (rank == n)
    onto = rank == n
    assert (dual.pair.onto_variant_residuals is not None) == onto
    assert (verify_dual_pair(f, g, k).onto_variant_residuals is not None) == onto
    u_k = range_basis(k)
    assert u_k.shape[1] == rank
    np.testing.assert_allclose(inverse_on_range(f, k) @ frame_operator(f) @ u_k, u_k, atol=1e-10)
    assert sandwich_check(f, k) >= -TOL and subspace_cframe_margin(f, k) >= -TOL


def test_canonical_dual_propagates_degeneracy():
    with pytest.raises(DegenerateOperator):
        canonical_dual(scaled_field(), np.zeros((2, 2)))
    with pytest.raises(NotInvertibleOnRange):
        canonical_dual(doubled_atom_field(), np.eye(2))


# ---------------------------------------------------------------------------
# reciprocal lower bounds of a dual pair


def test_reciprocal_margins_parseval():
    f = onb_field()
    assert dual_frame_bounds_check(f, f, np.eye(2)) == (0.0, 0.0)


def test_reciprocal_margins_diagonal_pair():
    f = scaled_field()
    g = SampleField(f.space, np.diag([1.0, 0.5]))
    margin_f, margin_g = dual_frame_bounds_check(f, g, np.eye(2))
    assert margin_f == pytest.approx(0.0, abs=1e-14)
    assert margin_g == pytest.approx(0.0, abs=1e-14)


def test_reciprocal_margins_random_pairs():
    rng = np.random.default_rng(57)
    for _ in range(20):
        f, k = ckframe_instance(rng, 3, 2, 9)
        dual = canonical_dual(f, k)
        margin_f, margin_g = dual_frame_bounds_check(
            dual.projected_frame, dual.dual_field, k
        )
        assert margin_f >= -1e-9
        assert margin_g >= -1e-9


@pytest.mark.parametrize("scale", [1e5, 1e-5])
def test_reciprocal_margins_are_scale_invariant(scale):
    # each margin is relative to its form's Bessel bound; absolute margins
    # read -4.2e-4 at scale 1e5, the roundoff of 1e10-sized forms
    spec = generate_example("random_ckframe", {"n": 3, "n0": 2, "atoms": 8}, seed=1)

    def margins(c):
        f = SampleField(spec.space, c * spec.field_f.samples)
        dual = canonical_dual(f, spec.operator_k)
        return dual_frame_bounds_check(dual.projected_frame, dual.dual_field, spec.operator_k)

    base, scaled = margins(1.0), margins(scale)
    assert [m >= -1e-8 for m in scaled] == [m >= -1e-8 for m in base] == [True, True]
    assert scaled == pytest.approx(base, abs=1e-12)


def test_reciprocal_margins_reject_non_pairs():
    f = scaled_field()
    g = SampleField(f.space, np.diag([1.0, 0.7]))  # wrong dual
    with pytest.raises(NotADualPair):
        dual_frame_bounds_check(f, g, np.eye(2))
    zero = SampleField(f.space, np.zeros((2, 2)))
    with pytest.raises(NotADualPair):
        dual_frame_bounds_check(zero, zero, np.zeros((2, 2)))
