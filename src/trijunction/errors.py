"""Typed failures raised across the package.

Numerical routines never return sentinel values on failure; they raise one of
these so callers (and the CLI) can distinguish bad input from a computation
that left its domain of validity.
"""


class TriJunctionError(Exception):
    """Base class for all package errors."""


class TensionsDegenerate(TriJunctionError):
    """Surface tensions violate the strict triangle inequality."""


class NotOnBoundary(TriJunctionError):
    """Point handed to a boundary routine does not lie on the zero level set."""


class SingularGradient(TriJunctionError):
    """Level-set gradient vanishes where it must not."""


class NoIntersection(TriJunctionError):
    """Ray does not cross the boundary inside the search box."""


class RootSearchFailed(TriJunctionError):
    """Brent's root search met a NaN value, an unbracketed interval or its iteration limit."""


class OffsetMissesBoundary(TriJunctionError):
    """Offset reference line has no boundary crossing near the expected one."""


class DegenerateMetric(TriJunctionError):
    """Graph metric J dropped below the admissible floor."""


class NonFiniteState(TriJunctionError):
    """A state's offsets rho or junction offsets mu hold NaN or infinity."""


class MatrixMNotInvertible(TriJunctionError):
    """Junction coupling matrix M left its invertibility region."""


class SingularJacobian(TriJunctionError):
    """Newton Jacobian is numerically rank deficient (symmetry gauge missing)."""


class NoConvergence(TriJunctionError):
    """Iteration stalled or exhausted its cap without meeting its tolerance."""

    def __init__(self, iterations, residual, stalled=False):
        self.iterations = iterations
        self.residual = residual
        self.stalled = stalled
        super().__init__(f"stalled at residual {residual:.3e} on iteration {iterations}"
                         if stalled else f"no convergence within {iterations} iterations "
                         f"(residual {residual:.3e})")


class EigenSolveFailed(TriJunctionError):
    """No certified eigenvalue of the discretized pencil (bracket, solve or Rayleigh check)."""


class ZeroFunction(TriJunctionError):
    """Rayleigh quotient of the zero function requested."""


class CompatibilityFailed(TriJunctionError):
    """Initial data could not be corrected to satisfy boundary conditions."""


class CflViolation(TriJunctionError):
    """Time step exceeds the diffusive step-size guard."""


class NewtonDiverged(TriJunctionError):
    """Boundary-condition sweep failed to reach its tolerance."""


class DegenerateCurve(TriJunctionError):
    """Curve sample too degenerate to resample by arc length."""


class NonPositiveSeries(TriJunctionError):
    """Log-linear fit requested on a series with non-positive entries."""


class ParseError(TriJunctionError):
    """Config text could not be parsed."""

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class ValidationError(TriJunctionError):
    """Config parsed but a field violates a precondition."""

    def __init__(self, field, reason):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class IoError(TriJunctionError):
    """Trajectory or network file unreadable or malformed."""
