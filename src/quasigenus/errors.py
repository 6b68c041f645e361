"""Exception hierarchy shared by all modules.

The command line front end maps these onto exit codes:

    2  InputError           malformed input (manifests, shapes, arguments)
    3  PreconditionError    a documented hypothesis of an operation fails
    1  PropertyViolationError  an internal cross-check failed (a bug)
"""


class WorkbenchError(Exception):
    """Base class for every error raised by this package."""


class InputError(WorkbenchError):
    """Malformed input: bad manifest, shape mismatch, invalid argument."""


class PreconditionError(WorkbenchError):
    """A documented precondition of the requested operation is violated."""


class PropertyViolationError(WorkbenchError):
    """An internal consistency check failed; treat as an implementation bug."""


class SpinObstructionError(PreconditionError):
    """A spin structure was required but w2 is non-zero.

    Carries the violated mod-2 relation in `obstruction`.
    """

    def __init__(self, message, obstruction=None):
        super().__init__(message)
        self.obstruction = obstruction


class BundleSpinError(PreconditionError):
    """The W part of a bundle specification is not a spin bundle."""


class DegenerateCircleError(PreconditionError):
    """Some tangent weight vanishes for the chosen circle subgroup."""


class ParityError(PreconditionError):
    """Half-character parities are inconsistent across fixed points."""


class RankHypothesisError(PreconditionError):
    """The rank T > b2(M) hypothesis of the circle finder fails.

    `kernel` holds a kernel vector if one happens to exist anyway, so the
    two failure flavours stay distinguishable.
    """

    def __init__(self, message, kernel=None):
        super().__init__(message)
        self.kernel = kernel


class WellDefinednessError(PreconditionError):
    """Per-fixed-point values that must agree do not.

    Expected exactly when the Pontryagin hypothesis behind the computation
    fails; `values` maps each fixed point to its local value.
    """

    def __init__(self, message, values=None):
        super().__init__(message)
        self.values = values


class RingShapeError(PreconditionError):
    """The cohomology ring does not have the connected-sum shape."""

