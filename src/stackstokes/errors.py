"""Exception hierarchy shared across the toolkit."""


class ConfigurationError(ValueError):
    """Invalid grid, geometry, or parameter configuration."""


class GeometryError(ConfigurationError):
    """A region constraint (disjointness, containment, coverage) is violated."""


class NumericalError(RuntimeError):
    """A solver failed to produce a usable result."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class ConvergenceError(NumericalError):
    """An iterative solve stopped without reaching its tolerance."""


class BlowupError(NumericalError):
    """A time integration or sweep blew up (norm growth beyond the safety
    bound, or a non-finite iterate)."""


class CflError(NumericalError):
    """Explicit advection step violates the CFL bound; reduce dt."""


class PoleError(ValueError):
    """A singular weight was evaluated at one of its poles."""
