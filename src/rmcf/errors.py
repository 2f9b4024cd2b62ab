"""Exception types shared across the package."""


class RmcfError(Exception):
    """Base class for all library errors."""


class InvalidInputError(RmcfError, ValueError):
    """Inputs are malformed: non-finite entries, wrong shapes, broken preconditions."""


class DomainError(RmcfError, ValueError):
    """A query lies outside the mathematical domain of the operation."""


class NumericalError(RmcfError, RuntimeError):
    """A numerical procedure failed (eigensolver, quadrature, integrator)."""


class SingularPointError(NumericalError):
    """Chart point is singular: rank-deficient Jacobian or non-positive metric."""


class NearOriginError(NumericalError):
    """Distance-based quantity evaluated too close to its singular locus."""


class DegenerateODEError(NumericalError):
    """The algebraic solve for the profile second derivative has a vanishing coefficient."""


class StiffFailureError(NumericalError):
    """Profile integration stalled; carries the last radius that was reached."""

    def __init__(self, message, last_good_R=None):
        super().__init__(message)
        self.last_good_R = last_good_R
