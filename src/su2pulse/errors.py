"""Exception types raised across the package."""


class Su2PulseError(Exception):
    """Base class for all package errors."""


class DomainError(Su2PulseError, ValueError):
    """Input outside the declared domain of an operation."""


class NonUnitary(Su2PulseError, ValueError):
    """Matrix is not unitary within tolerance."""


class NonUnitDeterminant(Su2PulseError, ValueError):
    """Matrix is unitary but det != 1; strip the global phase before calling."""


class StepTooLarge(Su2PulseError):
    """Integrator step fails the local truncation bound."""


class NoConvergence(Su2PulseError):
    """Scalar solve failed to converge; indicates a bracketing bug."""


class TargetUnreached(Su2PulseError):
    """The z-family scan of a detuned z-rotation found no control arriving
    at the target."""


class NoStationaryPoint(Su2PulseError):
    """Expected stationary point of the end-point map is absent."""
