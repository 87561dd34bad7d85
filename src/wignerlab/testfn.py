"""Test functions shared by the spectral, theory and Monte Carlo modules.

The module covers resolvent kernels phi_z(x) = 1/(z - x), their real
combinations, compactly supported bumps of explicit finite smoothness and
grid-sampled functions. Bumps are polynomial-based on purpose: an order-k
bump has exactly k continuous derivatives, so smoothness-class claims stay
falsifiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import check_count, check_numbers, check_real, check_z

__all__ = [
    "TestFunction",
    "resolvent",
    "real_resolvent_pair",
    "smooth_bump",
    "capped_polynomial",
    "from_grid",
    "from_callable",
    "from_spec",
]


@dataclass(frozen=True)
class TestFunction:
    """Evaluable test function with metadata used by the extension pipeline.

    ``poles`` carries an exact resolvent representation
    phi(x) = sum_j coeff_j / (z_j - x) when one exists (then the variance
    needs no quadrature); ``regularity`` is the claimed smoothness order.
    """

    fn_id: str
    fn: Callable[[np.ndarray], np.ndarray]
    is_real: bool
    regularity: float | None = None
    poles: tuple[tuple[complex, complex], ...] | None = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def resolvent(z: complex, fn_id: str | None = None) -> TestFunction:
    """phi_z(x) = 1/(z - x) for Im z != 0."""
    z = complex(z)
    if z.imag == 0.0:
        raise ValueError("resolvent test function requires Im z != 0")
    return TestFunction(
        fn_id=fn_id or f"resolvent({z:.6g})",
        fn=lambda x: 1.0 / (z - x),
        is_real=False,
        regularity=math.inf,
        poles=((z, 1.0 + 0.0j),),
    )


def real_resolvent_pair(z: complex, fn_id: str | None = None) -> TestFunction:
    """2 Re phi_z = phi_z + phi_conj(z); real on the real line."""
    z = complex(z)
    if z.imag == 0.0:
        raise ValueError("real_resolvent_pair requires Im z != 0")
    return TestFunction(
        fn_id=fn_id or f"real_resolvent_pair({z:.6g})",
        fn=lambda x: (2.0 * (z.real - x)) / ((z.real - x) ** 2 + z.imag**2),
        is_real=True,
        regularity=math.inf,
        poles=((z, 1.0 + 0.0j), (z.conjugate(), 1.0 + 0.0j)),
    )


def smooth_bump(center: float, width: float, order: int, fn_id: str | None = None) -> TestFunction:
    """Bump ((1 - u^2)_+)^(order+1), u = (x-center)/width.

    Has exactly ``order`` continuous derivatives; the next one jumps at the
    support boundary.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if order < 0:
        raise ValueError("order must be nonnegative")
    power = order + 1

    def fn(x):
        u = (x - center) / width
        core = np.clip(1.0 - u * u, 0.0, None)
        return core**power

    return TestFunction(
        fn_id=fn_id or f"bump(c={center:g},w={width:g},k={order})",
        fn=fn,
        is_real=True,
        regularity=float(order),
    )


def _plateau(u: np.ndarray, order: int) -> np.ndarray:
    """Monotone C^order transition from 0 at u<=0 to 1 at u>=1."""
    uu = np.clip(u, 0.0, 1.0)
    # regularized incomplete beta with integer parameters, evaluated stably
    k = order + 1
    total = np.zeros_like(uu)
    for j in range(k, 2 * k):
        total += math.comb(2 * k - 1, j) * uu**j * (1.0 - uu) ** (2 * k - 1 - j)
    return total


def capped_polynomial(
    coeffs,
    window: tuple[float, float],
    order: int = 2,
    ramp: float | None = None,
    fn_id: str | None = None,
) -> TestFunction:
    """Polynomial on ``window`` taken smoothly to zero outside it.

    ``coeffs`` are ascending powers; the cutoff ramp has C^order regularity
    and width ``ramp`` (default: a tenth of the window).
    """
    a, b = float(window[0]), float(window[1])
    if b <= a:
        raise ValueError("window must be increasing")
    if order < 0:
        raise ValueError("order must be nonnegative")
    w = ramp if ramp is not None else 0.1 * (b - a)
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coeffs must be a nonempty list")

    def fn(x):
        p = np.polynomial.polynomial.polyval(x, c)
        left = _plateau((x - (a - w)) / w, order)
        right = _plateau(((b + w) - x) / w, order)
        return p * left * right

    return TestFunction(
        fn_id=fn_id or f"capped_poly(deg={len(c)-1},[{a:g},{b:g}],k={order})",
        fn=fn,
        is_real=True,
        regularity=float(order),
    )


def from_grid(xs, values, fn_id: str, is_real: bool = True) -> TestFunction:
    """Piecewise-linear interpolant of samples at strictly increasing x, zero
    outside the grid."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.shape != values.shape or xs.size < 2:
        raise ValueError("need matching 1-d arrays with at least two samples")
    if np.any(np.diff(xs) <= 0.0):
        raise ValueError("grid x must be strictly increasing")

    def fn(x):
        return np.interp(x, xs, values, left=0.0, right=0.0)

    return TestFunction(
        fn_id=fn_id,
        fn=fn,
        is_real=is_real,
        regularity=0.0,
    )


def from_callable(
    f: Callable,
    fn_id: str,
    is_real: bool = True,
    regularity: float | None = None,
) -> TestFunction:
    """A test function from ``f``, which maps an array of x to an array of
    the same shape, as numpy's ufuncs do."""
    return TestFunction(fn_id=fn_id, fn=f, is_real=is_real, regularity=regularity)


def from_spec(spec: dict) -> TestFunction:
    """Build a test function from a config dictionary (CLI entry point); its
    numbers are finite JSON numbers, and its order a JSON integer >= 0."""
    kind, fn_id = spec.get("kind"), spec.get("id")
    if not isinstance(fn_id, (str, type(None))):
        raise ValueError(f"test function id must be a string, got {fn_id!r}")
    if kind == "resolvent":
        return resolvent(check_z(spec["z"]), fn_id)
    if kind == "real_resolvent_pair":
        return real_resolvent_pair(check_z(spec["z"]), fn_id)
    if kind == "smooth_bump":
        return smooth_bump(check_real(spec["center"], "smooth_bump center"),
                           check_real(spec["width"], "smooth_bump width", positive=True),
                           check_count(spec["order"], "smooth_bump order", least=0), fn_id)
    if kind == "capped_polynomial":
        ramp = spec.get("ramp")
        return capped_polynomial(
            check_numbers(spec["coeffs"], "capped_polynomial coeffs"),
            tuple(check_numbers(spec["window"], "capped_polynomial window", 2)),
            check_count(spec.get("order", 2), "capped_polynomial order", least=0),
            None if ramp is None else check_real(ramp, "capped_polynomial ramp", positive=True),
            fn_id)
    if kind == "grid":
        return from_grid(check_numbers(spec["x"], "grid x"),
                         check_numbers(spec["values"], "grid values"), spec.get("id", "grid"))
    raise ValueError(f"unknown test function kind {kind!r}")
