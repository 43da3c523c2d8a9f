"""Numerical continuous-frame diagnostics on finite weighted measure spaces.

The package decides, for a sampled field f and a bounded operator k,
whether f reproduces k (optimal bounds, range inclusion), builds the
minimal-norm atomic decomposition and the canonical dual, and verifies
the dual-pair identities, all with explicit tolerances and deterministic
output.
"""

from .atoms_duals import (
    CanonicalDual,
    CoefficientMap,
    DualPairReport,
    atom_coefficient_map,
    canonical_dual,
    dual_frame_bounds_check,
    inverse_on_range,
    sandwich_check,
    subspace_cframe_margin,
    verify_atomic_decomposition,
    verify_dual_pair,
)
from .douglas import DouglasResult, douglas_factor, minimal_multiplier, range_included
from .errors import (
    BadParams,
    CanonicalDualFailed,
    CkFrameError,
    DegenerateOperator,
    DimMismatch,
    EmptySpace,
    LengthMismatch,
    NonPositiveWeight,
    NotADualPair,
    NotInvertibleOnRange,
    NotRepresentable,
    ParseError,
    RangeNotIncluded,
    RankAmbiguous,
    SpaceMismatch,
    UnknownKind,
    ValidationError,
)
from .frame_ops import (
    CkFrameReport,
    FrameBounds,
    analysis,
    cframe_bounds,
    ckframe_check,
    frame_operator,
    map_field,
    synthesis,
    synthesis_matrix,
    whitened_synthesis_matrix,
)
from .harness import (
    ProblemSpec,
    RunReport,
    emit_report,
    emit_spec,
    generate_example,
    parse_problem,
    run_command,
)
from .linalg import adjoint, operator_norm, pseudoinverse
from .measure import (
    MeasureSpace,
    SampleField,
    ScalarField,
    hilbert_inner,
    l2_inner,
    l2_norm,
    make_measure_space,
)

__version__ = "0.1.0"
