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
    """No root of a detuned z-rotation's quadratic passes its validity
    test, which exact arithmetic rules out: a numerical fault."""


class NoStationaryPoint(Su2PulseError):
    """Expected stationary point of the end-point map is absent."""
