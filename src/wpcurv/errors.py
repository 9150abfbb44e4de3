"""Exception hierarchy shared by all pipeline stages."""


class WpcurvError(Exception):
    """Base class for all package-specific failures."""


class UnsupportedGenus(WpcurvError):
    """Requested a surface genus for which no validated model exists."""


class BudgetExceeded(WpcurvError):
    """Word enumeration would exceed its element cap (`fuchsian.WORD_CAP`)."""


class NearPole(WpcurvError):
    """Moebius evaluation too close to the pole of the transformation."""


class ConvergenceFailure(WpcurvError):
    """The automorphy solve of the quadratic-differential basis is not
    certified: no isolated null vector, or a residual above tolerance."""


class DegenerateBasis(WpcurvError):
    """Gram matrix numerically singular: candidate fields not independent."""


class MeshBudget(WpcurvError, ValueError):
    """Mesh level above `surface.MAX_LEVEL`."""


class ReductionFailure(WpcurvError, ValueError):
    """A point off the open disk, or outside the polygon after `fuchsian.REDUCE_STEPS` steps."""


class SingularMass(WpcurvError):
    """A lumped quadrature weight is non-positive."""


class SolverFailure(WpcurvError):
    """A linear solve missed its residual tolerance."""


class KernelBudget(WpcurvError, ValueError):
    """Mesh level above the Green kernel's `surface.GREEN_MAX_LEVEL`, or its
    dense expansion would exceed `surface.GREEN_BYTES_CAP`."""


class SymmetryViolation(WpcurvError):
    """A curvature-tensor index symmetry residual exceeds tolerance."""


class TypeImbalance(WpcurvError):
    """Internal consistency failure in the holomorphic-type bookkeeping."""


class KernelDimMismatch(WpcurvError):
    """Wedge-operator kernel dimension differs from the predicted n(n-1)."""


class DimensionMismatch(WpcurvError):
    """Tangent vectors have the wrong dimension for the requested model."""
