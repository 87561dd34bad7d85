"""Exception types shared across the package."""


class WignerlabError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(WignerlabError, ValueError):
    """Invalid ensemble or fluctuation parameters."""


class ConfigError(WignerlabError, ValueError):
    """Malformed or inconsistent run configuration."""


class DomainError(WignerlabError, ValueError):
    """Evaluation point outside the admissible domain (e.g. real z)."""


class SolverError(WignerlabError, RuntimeError):
    """Fixed-point / Newton solver failed to reach its residual target."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class EdgeSingularityError(WignerlabError, RuntimeError):
    """Subordination derivative denominator vanishes (spectral edge)."""


class SingularityError(WignerlabError, RuntimeError):
    """A closed-form denominator is numerically singular."""


class DegenerateTruncationError(WignerlabError, ValueError):
    """Truncation level removed all variance from an entry law."""


class AccuracyError(WignerlabError, RuntimeError):
    """Extrapolation or quadrature failed to reach the accuracy target."""


class RepresentationError(WignerlabError, RuntimeError):
    """Test function could not be represented on the resolvent span."""


class SampleError(WignerlabError, RuntimeError):
    """A Monte Carlo sample failed; carries the failing sample index."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index

    def __reduce__(self):
        # the default rebuilds from args alone, which lack the index; a
        # failure raised in a worker process must reach the caller whole
        return type(self), (self.args[0], self.index)
