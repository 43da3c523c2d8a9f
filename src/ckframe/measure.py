"""Finite weighted measure spaces and the fields living over them.

A space is a finite list of labeled atoms with strictly positive weights;
integration is the weighted sum.  Inner products are linear in the FIRST
slot and conjugate-linear in the second, everywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimMismatch,
    EmptySpace,
    LengthMismatch,
    NonPositiveWeight,
    SpaceMismatch,
)
from .linalg import _Kept


@dataclass(frozen=True)
class MeasureSpace:
    """Finite discretized measure space.

    Identity is structural: two spaces with the same labels and weights
    compare equal, so fields built independently over "the same" space
    interoperate.
    """

    labels: tuple[str, ...]
    weights: tuple[float, ...]

    @property
    def n_atoms(self) -> int:
        return len(self.labels)

    @property
    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


def make_measure_space(labels, weights) -> MeasureSpace:
    """Validated constructor.

    Raises EmptySpace for zero atoms, LengthMismatch when the two lists
    disagree, NonPositiveWeight for weights <= 0 or non-finite.
    """
    labs = tuple(str(x) for x in labels)
    ws = tuple(float(w) for w in weights)
    if len(labs) == 0:
        raise EmptySpace("a measure space needs at least one atom")
    if len(labs) != len(ws):
        raise LengthMismatch(f"{len(labs)} labels but {len(ws)} weights")
    arr = np.array(ws)
    bad = ~(np.isfinite(arr) & (arr > 0.0))
    if bad.any():
        i = int(bad.argmax())
        raise NonPositiveWeight(f"weight[{i}] = {ws[i]!r} must be finite and > 0")
    return MeasureSpace(labels=labs, weights=ws)


def _frozen_array(values, dtype) -> np.ndarray:
    """values as a dtype array, in their memory order, over the bytes of
    one immutable copy: neither the array nor its base can be made
    writable, so what a field keeps about its values never goes stale."""
    a = np.asarray(values, dtype=dtype)
    if not np.all(np.isfinite(a)):
        raise ValueError("field values must be finite")
    order = "F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"
    return np.frombuffer(a.tobytes(order), dtype).reshape(a.shape, order=order)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Complex-valued function on the atoms: one value per atom."""

    space: MeasureSpace
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = _frozen_array(self.values, complex)
        if a.ndim != 1:
            raise DimMismatch(f"scalar field values must be 1-D, got {a.shape}")
        if a.shape[0] != self.space.n_atoms:
            raise LengthMismatch(
                f"{a.shape[0]} values for {self.space.n_atoms} atoms"
            )
        object.__setattr__(self, "values", a)


@dataclass(frozen=True, eq=False)
class SampleField:
    """Vector-valued function on the atoms: one length-dim vector per atom.

    ``samples`` has shape (n_atoms, dim); row i is the value at atom i.
    """

    space: MeasureSpace
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = _frozen_array(self.samples, complex)
        if a.ndim != 2:
            raise DimMismatch(f"samples must be 2-D, got shape {a.shape}")
        if a.shape[0] != self.space.n_atoms:
            raise LengthMismatch(
                f"{a.shape[0]} sample rows for {self.space.n_atoms} atoms"
            )
        if a.shape[1] == 0:
            raise DimMismatch("sample vectors must have positive dimension")
        object.__setattr__(self, "samples", a)

    @property
    def dim(self) -> int:
        return int(self.samples.shape[1])

    @cached_property
    def _kept(self) -> _Kept:
        """What the questions about this field found out (see linalg._Kept),
        made on first use; no dataclass field, so fields() and repr skip it."""
        return _Kept()

    def __reduce__(self):
        # a field is its value: a copy or an unpickled field is made anew, its
        # samples frozen, without the kept answers, which hold weak references
        return SampleField, (self.space, self.samples)


def hilbert_inner(u, v) -> complex:
    """<u, v> = sum_j u_j * conj(v_j): linear in u, conjugate-linear in v."""
    uu = np.asarray(u, dtype=complex)
    vv = np.asarray(v, dtype=complex)
    if uu.shape != vv.shape:
        raise DimMismatch(f"vector shapes {uu.shape} and {vv.shape} differ")
    return complex(np.sum(uu * vv.conj()))


def _same_space(a, b) -> None:
    if a.space != b.space:
        raise SpaceMismatch("fields live over different measure spaces")


def l2_inner(phi: ScalarField, psi: ScalarField) -> complex:
    """Weighted inner product sum_i w_i phi_i conj(psi_i)."""
    _same_space(phi, psi)
    w = phi.space.weight_array
    return complex(np.sum(w * phi.values * psi.values.conj()))


def l2_norm(phi: ScalarField) -> float:
    """Weighted 2-norm sqrt(sum_i w_i |phi_i|^2)."""
    w = phi.space.weight_array
    return float(np.sqrt(np.sum(w * np.abs(phi.values) ** 2)))
