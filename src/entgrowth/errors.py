"""Exception types shared across the package.

All package errors derive from :class:`EntgrowthError` so pipelines can
convert them into structured report failures.  Input-validation failures
also subclass ValueError; runtime/convergence failures also subclass
RuntimeError, so callers can distinguish "fix your matrix" from "raise the
horizon / cutoff".
"""


class EntgrowthError(Exception):
    """Common base of every error this package raises deliberately.

    An error raised for one sample of a stack of matrices carries that
    sample's ``index`` and its message without the sample, ``detail``.
    """

    index = None
    detail = None


class NotSymmetric(EntgrowthError, ValueError):
    """Matrix expected to be symmetric is not."""


class NotPositiveDefinite(EntgrowthError, ValueError):
    """Matrix expected to be positive definite is not."""


class UncertaintyViolated(EntgrowthError, ValueError):
    """Covariance matrix violates the uncertainty bound (some eigenvalue of -J^2 below 1)."""


class DimensionMismatch(EntgrowthError, ValueError):
    """Operands have incompatible shapes."""


class NotDarboux(EntgrowthError, ValueError):
    """Row set does not preserve the symplectic form."""


class NonSymmetricH(EntgrowthError, ValueError):
    """Quadratic-form matrix h(t) is not symmetric."""


class SingularM(EntgrowthError, ValueError):
    """Transformation matrix is numerically singular (or has overflowed)."""


class NoRealLogarithm(EntgrowthError, ValueError):
    """Matrix has an eigenvalue on the closed negative real axis; no real log exists."""


class StepTooLarge(EntgrowthError, RuntimeError):
    """Symplectic defect exceeded its ceiling during propagation; reduce dt."""


class NotConverged(EntgrowthError, RuntimeError):
    """Finite-horizon estimate has not converged; raise the horizon."""


class RankDeficient(EntgrowthError, ValueError):
    """Fewer independent columns than required at the given tolerance."""

    def __init__(self, message, margins=None):
        super().__init__(message)
        self.margins = margins


class TruncationLeak(EntgrowthError, RuntimeError):
    """Population at the top Fock levels exceeded the configured ceiling."""


class WindowTooShort(EntgrowthError, RuntimeError):
    """Not enough trusted samples between transient end and truncation leak."""


class ConfigError(EntgrowthError, ValueError):
    """Scenario configuration failed to parse or validate."""

    def __init__(self, message, field=None):
        if field:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field
