"""End-to-end acceptance gate.

One test per shipped guarantee, each at its stated tolerance, so a
verbose run prints one pass/fail line per criterion.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ckframe import RangeNotIncluded, SampleField, ScalarField
from ckframe.atoms_duals import (
    atom_coefficient_map,
    canonical_dual,
    dual_frame_bounds_check,
    sandwich_check,
    verify_atomic_decomposition,
    verify_dual_pair,
)
from ckframe.cli import main
from ckframe.douglas import douglas_factor, minimal_multiplier, range_included
from ckframe.frame_ops import (
    analysis,
    ckframe_check,
    frame_operator,
    synthesis,
)
from ckframe.linalg import operator_norm, pseudoinverse
from ckframe.measure import hilbert_inner, l2_inner, l2_norm
from helpers import (
    ckframe_instance,
    crandn,
    excluded_instance,
    max_psd_multiplier,
    min_quotient,
    parseval_field,
    random_field,
    random_space,
    strip_wall_time,
    with_rank,
)

TOL = 1e-8
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_dual_report.json"


def test_criterion_1_adjoint_identity():
    rng = np.random.default_rng(101)
    for _ in range(100):
        atoms = int(rng.integers(2, 12))
        n = int(rng.integers(1, 6))
        space = random_space(rng, atoms)
        f = random_field(rng, space, n)
        g = ScalarField(space, crandn(rng, atoms))
        h = crandn(rng, n)
        lhs = hilbert_inner(synthesis(f, g), h)
        rhs = l2_inner(g, analysis(f, h))
        bound = 1e-10 * (l2_norm(g) * np.linalg.norm(h))
        assert abs(lhs - rhs) <= bound
    print("ACCEPTANCE 1: PASS - weighted adjoint identity on 100 instances")


def _douglas_instances(rng, count):
    for i in range(count):
        n = int(rng.integers(2, 6))
        style = i % 5
        if style == 0:
            l2 = crandn(rng, n, n + 2)
            l1 = l2 @ crandn(rng, n + 2, 2)
        elif style == 1:
            l2 = with_rank(rng, n, n + 1, max(1, n - 1))
            l1 = crandn(rng, n, 2)
        elif style == 2:
            l2 = with_rank(rng, n, n + 2, max(1, n - 2))
            l1 = l2 @ crandn(rng, n + 2, 1)
        elif style == 3:
            l2 = crandn(rng, n, n)
            l1 = np.zeros((n, 2), dtype=complex)
        else:
            l2 = crandn(rng, n, 2 * n)
            l1 = crandn(rng, n, 3)
        yield l1, l2


def test_criterion_2_douglas_equivalence():
    rng = np.random.default_rng(102)
    for l1, l2 in _douglas_instances(rng, 200):
        included = range_included(l1, l2)
        result = douglas_factor(l1, l2)
        lam = minimal_multiplier(l1, l2)
        assert included == result.included
        assert result.included == (result.factor is not None)
        assert (result.factor is not None) == (lam is not None)
        if not included:
            continue
        assert operator_norm(l1 - l2 @ result.factor) <= TOL * max(1.0, operator_norm(l1))
        if lam > 0.0:
            shrunk = lam * (1.0 - 1e-6)
            gram1 = l1 @ l1.conj().T
            gram2 = l2 @ l2.conj().T
            defect = np.linalg.eigvalsh(shrunk * gram2 - gram1)[0]
            assert defect < 0.0
    print("ACCEPTANCE 2: PASS - inclusion/factorization/majorization agree on 200 instances")


def test_criterion_3_bound_optimality_monte_carlo():
    rng = np.random.default_rng(103)
    for i in range(10):
        n = 2 + i % 3
        n0 = 1 + i % 2
        f, k = ckframe_instance(rng, n, n0, 3 * n)
        report = ckframe_check(f, k)
        lower = report.bounds.lower
        kk = np.asarray(k, dtype=complex)
        sampled = min_quotient(rng, frame_operator(f), kk @ kk.conj().T, budget=10**4)
        assert sampled >= lower - 1e-9
        assert sampled <= 1.05 * lower
    print("ACCEPTANCE 3: PASS - 1e4-sample Rayleigh minimum brackets the lower bound")


def test_criterion_4_atomic_decomposition_equivalence():
    rng = np.random.default_rng(104)
    passing = failing = 0
    for i in range(100):
        if i % 2 == 0:
            f, k = ckframe_instance(rng, 3, 2, 9)
        else:
            f, k = excluded_instance(rng, 3, 2, 9)
        holds = ckframe_check(f, k).is_ck_frame
        try:
            cmap = atom_coefficient_map(f, k)
        except RangeNotIncluded:
            assert not holds
            failing += 1
            continue
        assert holds
        assert verify_atomic_decomposition(f, k, cmap) <= TOL
        passing += 1
    assert passing == 50 and failing == 50
    print("ACCEPTANCE 4: PASS - atomic decompositions exist exactly for ck-frames (100 instances)")


def test_criterion_5_sandwich_bounds():
    rng = np.random.default_rng(105)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        n0 = int(rng.integers(1, n + 1))
        f, k = ckframe_instance(rng, n, n0, 3 * n)
        assert sandwich_check(f, k) >= -1e-9
    space_field = SampleField(
        random_space(np.random.default_rng(0), 2, uniform=True), np.diag([1.0, 2.0])
    )
    assert sandwich_check(space_field, np.eye(2)) == 0.0
    print("ACCEPTANCE 5: PASS - inverse frame operator sandwich holds on 50 instances, tight case exact")


def test_criterion_6_canonical_dual():
    rng = np.random.default_rng(106)
    for i in range(50):
        n = 2 + i % 3
        n0 = 1 + i % 2
        f, k = ckframe_instance(rng, n, n0, 3 * n)
        dual = canonical_dual(f, k)
        pair = verify_dual_pair(dual.projected_frame, dual.dual_field, k)
        assert pair.holds and pair.max_residual() <= TOL

        check = ckframe_check(f, k)
        kk = np.asarray(k, dtype=complex)
        norm_k = operator_norm(kk)
        norm_k_dag = operator_norm(pseudoinverse(kk))
        assert dual.lower_bound == pytest.approx(1.0 / check.bounds.upper, rel=1e-9)
        assert dual.upper_bound == pytest.approx(
            norm_k**2 * norm_k_dag**2 / check.bounds.lower, rel=1e-9
        )
        s_dual = frame_operator(dual.dual_field)
        actual_lower = float(max_psd_multiplier(s_dual, kk.conj().T @ kk))
        actual_upper = float(np.linalg.eigvalsh(s_dual)[-1])
        assert actual_lower >= dual.lower_bound - TOL
        assert actual_upper <= dual.upper_bound + TOL
    for n, atoms in ((2, 5), (3, 7), (4, 4)):
        f = parseval_field(n, atoms, seed=n)
        dual = canonical_dual(f, np.eye(n))
        assert np.max(np.abs(dual.dual_field.samples - f.samples)) <= 1e-12
    print("ACCEPTANCE 6: PASS - canonical duals verified with certified bound interval (50 instances)")


def _pair_instances(rng, count):
    for i in range(count):
        shape = i % 3
        if shape == 0:
            f, k = ckframe_instance(rng, 3, 3, 9)
        elif shape == 1:
            f, k = ckframe_instance(rng, 4, 2, 10)
        else:
            f, k = ckframe_instance(rng, 2, 4, 8)
        dual = canonical_dual(f, k)
        yield dual.projected_frame, dual.dual_field, k


def test_criterion_7_five_condition_coherence():
    rng = np.random.default_rng(107)
    for field_f, field_g, k in _pair_instances(rng, 50):
        report = verify_dual_pair(field_f, field_g, k)
        residuals = [
            report.residual_c1,
            report.residual_c2,
            report.residual_c3,
            report.residual_c4,
            report.residual_c5,
        ]
        assert report.holds and all(r <= TOL for r in residuals)
        res_k, res_k_star = report.onto_variant_residuals
        if res_k is not None:
            assert res_k <= TOL
        if res_k_star is not None:
            assert res_k_star <= TOL
    for field_f, field_g, k in _pair_instances(rng, 50):
        broken = SampleField(
            field_g.space, field_g.samples + crandn(rng, *field_g.samples.shape)
        )
        report = verify_dual_pair(field_f, broken, k)
        residuals = [
            report.residual_c1,
            report.residual_c2,
            report.residual_c3,
            report.residual_c4,
            report.residual_c5,
        ]
        assert not report.holds
        assert all(r > TOL for r in residuals)
        assert not (min(residuals) <= TOL and max(residuals) >= 10 * TOL)
        res_k, res_k_star = report.onto_variant_residuals
        if res_k is not None:
            assert res_k > TOL
        if res_k_star is not None:
            assert res_k_star > TOL
    print("ACCEPTANCE 7: PASS - five dual-pair conditions never split (50 good + 50 broken pairs)")


def test_criterion_8_reciprocal_lower_bound():
    rng = np.random.default_rng(108)
    for field_f, field_g, k in _pair_instances(rng, 50):
        _, margin_g = dual_frame_bounds_check(field_f, field_g, k)
        assert margin_g >= -1e-9
    print("ACCEPTANCE 8: PASS - dual field clears 1/B lower bound on 50 verified pairs")


def test_criterion_9_golden_pipeline(tmp_path):
    spec_path = tmp_path / "spec.json"
    report_path = tmp_path / "report.json"
    assert main(["gen", "--kind", "scaled_onb", "--out", str(spec_path)]) == 0
    assert main(["dual", str(spec_path), "--out", str(report_path)]) == 0
    actual = report_path.read_text()
    golden = GOLDEN.read_text()
    assert strip_wall_time(actual) == strip_wall_time(golden)
    doc = json.loads(actual)
    assert doc["results"]["dual_field"] == [
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.5, 0.0]],
    ]
    print("ACCEPTANCE 9: PASS - generated example reproduces the golden dual report byte for byte")
