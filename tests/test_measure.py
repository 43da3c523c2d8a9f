"""Weighted measure spaces, fields, and the weighted L2 geometry."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ckframe import (
    DimMismatch,
    EmptySpace,
    LengthMismatch,
    MeasureSpace,
    NonPositiveWeight,
    SampleField,
    ScalarField,
    SpaceMismatch,
    make_measure_space,
)
from ckframe.measure import hilbert_inner, l2_inner, l2_norm

# O(1) scales keep the absolute 1e-12 cushions meaningful
finite_complex = st.complex_numbers(
    max_magnitude=1.0, allow_nan=False, allow_infinity=False
)
positive_weight = st.floats(min_value=0.01, max_value=2.0)


def scalar_pair(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    ws = draw(st.lists(positive_weight, min_size=n, max_size=n))
    space = make_measure_space([f"p{i}" for i in range(n)], ws)
    phi = draw(st.lists(finite_complex, min_size=n, max_size=n))
    psi = draw(st.lists(finite_complex, min_size=n, max_size=n))
    return space, ScalarField(space, phi), ScalarField(space, psi)


scalar_pairs = st.composite(scalar_pair)()


# ---------------------------------------------------------------------------
# construction


def test_counting_measure_on_two_points():
    space = make_measure_space(["a", "b"], [1, 1])
    assert space.n_atoms == 2


def test_single_atom_space():
    space = make_measure_space(["a"], [0.5])
    assert space.weights == (0.5,)


def test_zero_weight_rejected():
    with pytest.raises(NonPositiveWeight):
        make_measure_space(["a"], [0])


def test_negative_and_nonfinite_weights_rejected():
    with pytest.raises(NonPositiveWeight):
        make_measure_space(["a", "b"], [1.0, -2.0])
    with pytest.raises(NonPositiveWeight):
        make_measure_space(["a"], [float("inf")])


@pytest.mark.parametrize(
    "weights,message",
    [
        ([1.0, 0.0, -1.0], "weight[1] = 0.0 must be finite and > 0"),
        ([1.0, 2.0, float("nan"), 0.0], "weight[2] = nan must be finite and > 0"),
        ([-0.0, float("inf")], "weight[0] = -0.0 must be finite and > 0"),
        ([3.0, float("-inf")], "weight[1] = -inf must be finite and > 0"),
    ],
)
def test_the_first_bad_weight_is_named(weights, message):
    with pytest.raises(NonPositiveWeight) as exc:
        make_measure_space(["x"] * len(weights), weights)
    assert str(exc.value) == message


def test_empty_space_rejected():
    with pytest.raises(EmptySpace):
        make_measure_space([], [])


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatch):
        make_measure_space(["a", "b"], [1.0])


def test_structural_equality_makes_spaces_interoperable():
    s1 = make_measure_space(["a", "b"], [1.0, 2.0])
    s2 = make_measure_space(["a", "b"], [1.0, 2.0])
    assert s1 == s2
    assert s1 is not s2
    phi = ScalarField(s1, [1.0, 0.0])
    psi = ScalarField(s2, [1.0, 1.0])
    assert l2_inner(phi, psi) == 1.0  # no SpaceMismatch across copies
    assert s1 != make_measure_space(["a", "c"], [1.0, 2.0])
    assert s1 != make_measure_space(["a", "b"], [1.0, 3.0])
    assert isinstance(s1, MeasureSpace)


def test_field_validation():
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    with pytest.raises(LengthMismatch):
        ScalarField(space, [1.0])
    with pytest.raises(DimMismatch):
        ScalarField(space, [[1.0], [2.0]])
    with pytest.raises(LengthMismatch):
        SampleField(space, np.ones((3, 2)))
    with pytest.raises(DimMismatch):
        SampleField(space, np.ones(2))
    with pytest.raises(DimMismatch):
        SampleField(space, np.ones((2, 0)))
    with pytest.raises(ValueError):
        ScalarField(space, [np.nan, 0.0])


def test_field_values_are_frozen():
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    f = SampleField(space, np.eye(2))
    with pytest.raises(ValueError):
        f.samples[0, 0] = 5.0
    assert f.dim == 2


@pytest.mark.parametrize("order", ["C", "F"])
def test_field_values_cannot_be_made_writable(order):
    # each field array views one immutable copy of its values, so neither
    # it nor its base can be made writable again; it keeps their memory
    # order and alignment
    space = make_measure_space(["a", "b", "c"], [1.0, 2.0, 3.0])
    samples = np.array(np.arange(6.0).reshape(3, 2), order=order)
    f = SampleField(space, samples)
    phi = ScalarField(space, samples[:, 0])
    assert np.shares_memory(f.samples, f.samples.base)
    for array in (f.samples, f.samples.base, phi.values, phi.values.base):
        assert not array.flags.writeable and array.flags.aligned
        with pytest.raises(ValueError):
            array.setflags(write=True)
    assert f.samples.flags.f_contiguous == (order == "F")
    assert np.array_equal(f.samples, samples) and np.array_equal(phi.values, samples[:, 0])
    # and the caller's array is not frozen with it
    samples[0, 0] = 7.0
    assert f.samples[0, 0] == 0.0


# ---------------------------------------------------------------------------
# inner products


def test_l2_inner_weighted_sum():
    space = make_measure_space(["a", "b"], [1.0, 2.0])
    phi = ScalarField(space, [1.0, 1j])
    psi = ScalarField(space, [1.0, 1.0])
    assert l2_inner(phi, psi) == 1.0 + 2.0j


def test_l2_inner_real_case():
    space = make_measure_space(["a", "b"], [3.0, 5.0])
    phi = ScalarField(space, [1.0, 0.0])
    assert l2_inner(phi, phi) == 3.0


def test_l2_inner_orthogonal():
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    phi = ScalarField(space, [1.0, 1.0])
    psi = ScalarField(space, [1.0, -1.0])
    assert l2_inner(phi, psi) == 0.0


def test_l2_inner_space_mismatch():
    phi = ScalarField(make_measure_space(["a"], [1.0]), [1.0])
    psi = ScalarField(make_measure_space(["b"], [1.0]), [1.0])
    with pytest.raises(SpaceMismatch):
        l2_inner(phi, psi)


def test_l2_norm_examples():
    space = make_measure_space(["a", "b"], [1.0, 1.0])
    assert l2_norm(ScalarField(space, [3.0, 4.0])) == 5.0
    assert l2_norm(ScalarField(space, [0.0, 0.0])) == 0.0
    space2 = make_measure_space(["a", "b"], [2.0, 2.0])
    assert l2_norm(ScalarField(space2, [1.0, 1.0])) == 2.0


def test_hilbert_inner_first_slot_linear():
    assert hilbert_inner([1j, 0.0], [1.0, 0.0]) == 1j
    assert hilbert_inner([1.0, 0.0], [1j, 0.0]) == -1j
    with pytest.raises(DimMismatch):
        hilbert_inner([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# weighted-geometry properties


@given(scalar_pairs)
def test_conjugate_symmetry(data):
    _, phi, psi = data
    lhs = l2_inner(phi, psi)
    rhs = np.conj(l2_inner(psi, phi))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@given(scalar_pairs)
def test_cauchy_schwarz(data):
    _, phi, psi = data
    assert abs(l2_inner(phi, psi)) <= l2_norm(phi) * l2_norm(psi) + 1e-12


@given(scalar_pairs)
def test_doubling_weights_doubles_inner_product(data):
    space, phi, psi = data
    doubled = make_measure_space(space.labels, [2.0 * w for w in space.weights])
    phi2 = ScalarField(doubled, phi.values)
    psi2 = ScalarField(doubled, psi.values)
    assert l2_inner(phi2, psi2) == 2.0 * l2_inner(phi, psi)
