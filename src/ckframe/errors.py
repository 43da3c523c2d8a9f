"""Exception taxonomy for ckframe.

Every error raised by the library derives from CkFrameError so callers
(and the CLI harness) can map failures to report entries by class name.
"""

from __future__ import annotations


class CkFrameError(Exception):
    """Base class for all ckframe errors."""


# ---------------------------------------------------------------------------
# linear algebra


class RankAmbiguous(CkFrameError):
    """Some singular value sits in the gray zone between 'zero' and
    'clearly nonzero', so rank-dependent outputs would be unstable."""


class NotRepresentable(CkFrameError):
    """A valid input whose operators overflow double precision."""


# ---------------------------------------------------------------------------
# measure spaces and fields


class EmptySpace(CkFrameError):
    """A measure space needs at least one atom."""


class LengthMismatch(CkFrameError):
    """Labels, weights, or sample counts disagree in length."""


class NonPositiveWeight(CkFrameError):
    """Atom weights must be strictly positive and finite."""


class SpaceMismatch(CkFrameError):
    """Two fields live over structurally different measure spaces."""


class DimMismatch(CkFrameError):
    """Vector or operator dimensions are incompatible."""


# ---------------------------------------------------------------------------
# atoms and duals


class RangeNotIncluded(CkFrameError):
    """range(k) is not contained in the range of the synthesis operator."""


class NotInvertibleOnRange(CkFrameError):
    """The frame operator is not invertible on the requested subspace."""


class DegenerateOperator(CkFrameError):
    """k = 0: every statement holds vacuously, no closed-range certificate."""


class CanonicalDualFailed(CkFrameError):
    """The constructed canonical dual failed its own verification."""


class NotADualPair(CkFrameError):
    """The supplied (f, g, k) triple fails the dual-pair identities."""


# ---------------------------------------------------------------------------
# harness


class ParseError(CkFrameError):
    """Input document is not syntactically valid."""


class ValidationError(CkFrameError):
    """Input document is well-formed but violates the schema.

    Carries the JSON path of the offending field in ``path``.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{message} at '{path}'" if path else message)


class UnknownKind(CkFrameError):
    """Generator kind is not one of the supported names."""


class BadParams(CkFrameError):
    """Generator parameters are missing, mistyped, or out of range."""
