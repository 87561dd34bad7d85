"""Exception types shared across the package, and the config checks of several modules."""

import math


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


def check_block(block, key: str) -> dict:
    """``block``, the config block ``key``, which must be a JSON object."""
    if not isinstance(block, dict):
        raise ConfigError(f"block {key!r} must be a JSON object, not {type(block).__name__}")
    return block


def check_count(value, name: str, least: int = 1) -> int:
    """``value`` as a count: a JSON integer (not a bool) of at least
    ``least``, which is 1 for a count and 0 for a seed."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        kind = "positive" if least == 1 else "non-negative"
        raise ConfigError(f"{name} must be a {kind} integer, not {value!r}")
    return value


def check_real(value, name: str, positive: bool = False) -> float:
    """``value`` as a float: a finite JSON number (not a bool, not a numeric
    string), and above 0 when ``positive`` is set."""
    if not (is_number(value) and math.isfinite(value)) or (positive and value <= 0):
        kind = "positive finite" if positive else "finite"
        raise ConfigError(f"{name} must be a {kind} number, not {value!r}")
    return float(value)


def check_numbers(values, name: str, length: int | None = None) -> list[float]:
    """``values`` as floats: a nonempty JSON list of finite JSON numbers (no
    bools, no numeric strings), of exactly ``length`` items when given."""
    if not (isinstance(values, list) and values and length in (None, len(values))
            and all(map(is_number, values))):
        size = f"a list of {length} finite" if length else "a nonempty list of"
        raise ConfigError(f"{name} must be {size} numbers")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{name} must be finite")
    return [float(v) for v in values]


def is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_z(pair) -> complex:
    """``pair``, a config's z: a list of two finite JSON numbers [re, im], off
    the real axis."""
    z = complex(*check_numbers(pair, f"z {pair!r}", 2))
    if z.imag == 0.0:
        raise ConfigError(f"z={z} lies on the real axis (Im z must be nonzero)")
    return z
