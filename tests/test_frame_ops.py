"""Synthesis/analysis/frame operators, optimal bounds, and the
reproducing-operator check."""

import math
import struct

import numpy as np
import pytest

from ckframe import (
    DimMismatch,
    NotRepresentable,
    SampleField,
    ScalarField,
    SpaceMismatch,
    make_measure_space,
)
from ckframe.frame_ops import (
    analysis,
    cframe_bounds,
    ckframe_check,
    frame_operator,
    map_field,
    synthesis,
    synthesis_matrix,
    whitened_synthesis_matrix,
)
from ckframe.harness import GENERATOR_KINDS, generate_example
from ckframe.linalg import operator_norm
from ckframe.measure import hilbert_inner, l2_inner, l2_norm
from helpers import (
    bisect_max_multiplier,
    ckframe_instance,
    crandn,
    excluded_instance,
    fresh_copy,
    min_quotient,
    random_field,
    random_space,
)


def onb_field(weights=(1.0, 1.0)):
    space = make_measure_space(["a", "b"], weights)
    return SampleField(space, np.eye(2))


def scaled_field():
    # atoms e1 and 2 e2 over counting measure
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    return SampleField(space, np.diag([1.0, 2.0]))


def doubled_atom_field():
    # the same direction twice: rank-deficient synthesis
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    return SampleField(space, np.array([[1.0, 0.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# synthesis / analysis


def test_synthesis_onb_coordinates():
    f = onb_field()
    g = ScalarField(f.space, [1.0, 1j])
    assert np.array_equal(synthesis(f, g), np.array([1.0, 1j]))


def test_synthesis_weighted_sum_against_loop():
    f = onb_field(weights=(2.0, 1.0))
    g = ScalarField(f.space, [1.0, 1.0])
    out = synthesis(f, g)
    oracle = sum(
        w * gv * fv
        for w, gv, fv in zip(f.space.weights, g.values, f.samples)
    )
    assert np.array_equal(out, np.array([2.0, 1.0]))
    assert np.allclose(out, oracle, atol=1e-15)


def test_synthesis_zero_coefficients():
    f = onb_field()
    g = ScalarField(f.space, [0.0, 0.0])
    assert np.array_equal(synthesis(f, g), np.zeros(2))


def test_synthesis_space_mismatch():
    f = onb_field()
    other = make_measure_space(["a", "b"], [2.0, 1.0])
    with pytest.raises(SpaceMismatch):
        synthesis(f, ScalarField(other, [1.0, 1.0]))


def test_analysis_onb_coordinates():
    f = onb_field()
    out = analysis(f, [2.0, 3j])
    assert np.array_equal(out.values, np.array([2.0, 3j]))


def test_analysis_zero_vector():
    f = onb_field()
    assert np.all(analysis(f, [0.0, 0.0]).values == 0)


def test_analysis_hand_inner_products():
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    f = SampleField(space, np.array([[1.0, 0.0], [1.0, 1.0]]))
    out = analysis(f, [0.0, 1.0])  # <e2, f_i>
    assert np.array_equal(out.values, np.array([0.0, 1.0]))


def test_analysis_dim_mismatch():
    with pytest.raises(DimMismatch):
        analysis(onb_field(), [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# matrices


def test_synthesis_matrix_examples():
    assert np.array_equal(synthesis_matrix(onb_field()), np.eye(2))

    single = make_measure_space(["a"], [2.0])
    f = SampleField(single, np.array([[1.0, 0.0]]))
    assert np.array_equal(synthesis_matrix(f), np.array([[2.0], [0.0]]))

    assert np.array_equal(
        synthesis_matrix(doubled_atom_field()),
        np.array([[1.0, 1.0], [0.0, 0.0]]),
    )


def test_synthesis_matrix_applies_coefficients():
    rng = np.random.default_rng(4)
    space = random_space(rng, 5)
    f = random_field(rng, space, 3)
    g = ScalarField(space, crandn(rng, 5))
    assert np.allclose(synthesis_matrix(f) @ g.values, synthesis(f, g), atol=1e-13)


def test_whitened_matrix_norm_matches_weighted_metric():
    rng = np.random.default_rng(9)
    space = random_space(rng, 6)
    f = random_field(rng, space, 3)
    b = whitened_synthesis_matrix(f)
    # ||T_f g||_H <= ||B|| ||g||_{L2,w} with equality for the top pair
    g = ScalarField(space, crandn(rng, 6))
    assert np.linalg.norm(synthesis(f, g)) <= operator_norm(b) * l2_norm(g) * (1 + 1e-12)
    assert np.allclose(b @ b.conj().T, frame_operator(f), atol=1e-12)


def test_frame_operator_examples():
    assert np.array_equal(frame_operator(onb_field()), np.eye(2))
    assert np.array_equal(frame_operator(scaled_field()), np.diag([1.0, 4.0]))
    assert np.array_equal(frame_operator(doubled_atom_field()), np.diag([2.0, 0.0]))


def test_frame_operator_against_accumulation_oracle():
    rng = np.random.default_rng(11)
    space = random_space(rng, 7)
    f = random_field(rng, space, 4)
    oracle = np.zeros((4, 4), dtype=complex)
    for w, fv in zip(space.weights, f.samples):
        oracle += w * np.outer(fv, fv.conj())
    assert np.allclose(frame_operator(f), oracle, atol=1e-12)


def test_map_field_examples():
    f = onb_field()
    assert np.array_equal(map_field(np.eye(2), f).samples, f.samples)
    assert np.all(map_field(np.zeros((2, 2)), f).samples == 0)
    out = map_field(np.diag([2.0, 3.0]), f)
    assert np.array_equal(out.samples, np.diag([2.0, 3.0]))
    with pytest.raises(DimMismatch):
        map_field(np.eye(3), f)


# ---------------------------------------------------------------------------
# bounds


def test_cframe_bounds_parseval():
    b = cframe_bounds(onb_field())
    assert (b.lower, b.upper, b.kind) == (1.0, 1.0, "cFrame")


def test_cframe_bounds_scaled():
    b = cframe_bounds(scaled_field())
    assert (b.lower, b.upper) == (1.0, 4.0)
    assert b.kind == "cFrame"


def test_cframe_bounds_rank_deficient_is_bessel():
    b = cframe_bounds(doubled_atom_field())
    assert b.lower == 0.0 and b.kind == "cBessel"
    # sigma_max(B)^2, the bits of the check's upper bound, and 2 to rounding
    assert struct.pack("<d", b.upper) == struct.pack(
        "<d", ckframe_check(doubled_atom_field(), np.eye(2)).bounds.upper
    )
    assert b.upper == pytest.approx(2.0, rel=4 * np.finfo(float).eps)


def test_cframe_bounds_tiny_orthogonal_basis_is_a_frame():
    # the kind is the rank decision on B, not lower > tol: this basis has
    # lower = upper = 1e-10, below the default tol of 1e-8
    b = cframe_bounds(generate_example("scaled_onb", {"scales": [1e-5, 1e-5]}).field_f)
    assert b.kind == "cFrame"
    assert b.lower == pytest.approx(1e-10, rel=1e-12)
    assert b.upper == pytest.approx(1e-10, rel=1e-12)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_cframe_bounds_are_the_check_of_the_identity_bit_for_bit(kind, seed):
    # the optimal lower bound is read one way, ||pinv(B)||^-2, not also as
    # sigma_min(B)^2, which differs in the last bits; on fresh copies, so
    # neither reads what the other kept
    f = generate_example(kind, {}, seed).field_f
    bounds = cframe_bounds(fresh_copy(f))
    check = ckframe_check(fresh_copy(f), np.eye(f.dim)).bounds
    assert struct.pack("<d", bounds.lower) == struct.pack("<d", check.lower)
    assert struct.pack("<d", bounds.upper) == struct.pack("<d", check.upper)


def test_cframe_bounds_refuse_the_lower_bound_the_check_of_the_identity_refuses():
    # sigma_min(B)^2 = 1e-314 is subnormal, so the lower bound is not a
    # normal double, though S_f is in range and B is clearly onto
    f = SampleField(make_measure_space(["a", "b"], [1.0, 1.0]), np.diag([1e-150, 1e-157]))
    for bounds in (cframe_bounds, lambda f: ckframe_check(f, np.eye(2)).bounds):
        with pytest.raises(NotRepresentable, match="lower frame bound"):
            bounds(f)


def test_ckframe_check_scaled_with_one_column():
    f = scaled_field()
    k = np.array([[1.0], [0.0]])
    report = ckframe_check(f, k)
    assert report.bounds.lower == pytest.approx(1.0, abs=1e-12)
    assert report.bounds.upper == pytest.approx(4.0)
    assert report.range_included
    assert report.is_ck_frame
    assert not report.degenerate
    assert report.residuals["range_inclusion"] <= 1e-12
    # independent check of the optimal constant
    oracle = bisect_max_multiplier(frame_operator(f), k @ k.conj().T)
    assert report.bounds.lower == pytest.approx(oracle, abs=1e-9)


def test_ckframe_check_zero_operator_degenerate():
    report = ckframe_check(scaled_field(), np.zeros((2, 2)))
    assert report.degenerate
    assert report.is_ck_frame
    assert report.range_included
    assert report.bounds.lower == math.inf


def test_ckframe_check_range_escape():
    report = ckframe_check(doubled_atom_field(), np.eye(2))
    assert not report.range_included
    assert report.bounds.lower == 0.0
    assert not report.is_ck_frame


def test_ckframe_check_unrepresentable_lower_bound():
    # A = 1 / ||pinv(B) k||^2 = 1e400 for k = 1e-200 I
    with pytest.raises(NotRepresentable):
        ckframe_check(onb_field(), 1e-200 * np.eye(2))


def test_ckframe_check_dim_mismatch():
    with pytest.raises(DimMismatch):
        ckframe_check(onb_field(), np.ones((3, 1)))


# ---------------------------------------------------------------------------
# operator identities


def test_adjoint_identity_nonuniform_weights():
    # <T_f g, h> = <g, T_f* h>_{L2,w}; fails for misplaced weights
    rng = np.random.default_rng(21)
    for _ in range(100):
        space = random_space(rng, 6)
        f = random_field(rng, space, 3)
        g = ScalarField(space, crandn(rng, 6))
        h = crandn(rng, 3)
        lhs = hilbert_inner(synthesis(f, g), h)
        rhs = l2_inner(g, analysis(f, h))
        assert abs(lhs - rhs) <= 1e-10 * (l2_norm(g) * np.linalg.norm(h))


def test_frame_operator_equals_synthesis_of_analysis():
    rng = np.random.default_rng(22)
    space = random_space(rng, 8)
    f = random_field(rng, space, 4)
    s = frame_operator(f)
    for i in range(4):
        e = np.zeros(4, dtype=complex)
        e[i] = 1.0
        column = synthesis(f, analysis(f, e))
        assert np.linalg.norm(s[:, i] - column) <= 1e-10 * max(1.0, operator_norm(s))


def test_quadratic_form_is_analysis_norm_squared():
    rng = np.random.default_rng(23)
    space = random_space(rng, 7)
    f = random_field(rng, space, 3)
    s = frame_operator(f)
    for _ in range(20):
        h = crandn(rng, 3)
        lhs = hilbert_inner(s @ h, h).real
        rhs = l2_norm(analysis(f, h)) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_composition_rule_operator_through_synthesis():
    # u T_f = T_{u f}
    rng = np.random.default_rng(24)
    space = random_space(rng, 5)
    f = random_field(rng, space, 3)
    for _ in range(20):
        u = crandn(rng, 4, 3)
        g = ScalarField(space, crandn(rng, 5))
        lhs = synthesis(map_field(u, f), g)
        rhs = u @ synthesis(f, g)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_lower_bound_is_optimal_monte_carlo():
    rng = np.random.default_rng(25)
    f, k = ckframe_instance(rng, 3, 2, 12)
    report = ckframe_check(f, k)
    lower = float(report.bounds.lower)
    s = frame_operator(f)
    c = np.asarray(k) @ np.asarray(k).conj().T
    sampled = min_quotient(rng, s, c, budget=10**3)
    assert sampled >= lower - 1e-9  # valid
    assert sampled <= 1.05 * lower  # tight


def test_lower_bound_positivity_iff_range_included():
    rng = np.random.default_rng(26)
    for i in range(100):
        if i % 2 == 0:
            f, k = ckframe_instance(rng, 3, 2, 8)
        else:
            f, k = excluded_instance(rng, 3, 2, 8)
        report = ckframe_check(f, k)
        lower_positive = report.bounds.lower > 1e-8
        assert lower_positive == report.range_included
