"""Closed-form limit quantities for fluctuations of linear spectral statistics.

Implements the limiting bias beta(z), the covariance kernel Gamma(z1, z2),
their specializations to the undeformed (semicircle) case, the finite-N bias
bound, and the bias and variance of a general real test function, integrated
over the spectral support. The functions of z take a scalar z, giving a
Python number, or an array of z, giving an array of its shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AccuracyError, DomainError, ParameterError, RepresentationError,
                     SingularityError)
from .freeconv import AtomicMeasure, SubordinationSolution, SupportPieces, solve_pastur_array

__all__ = [
    "FluctuationParams",
    "KernelValue",
    "beta",
    "beta_tilde",
    "gamma_kernel",
    "gamma_primitive",
    "semicircle_transform",
    "bao_xie_b0",
    "bao_xie_c0",
    "bias_bound",
    "ExtensionValue",
    "extend_bias",
    "extend_variance",
]

KERNEL_MARGIN = 1e-6
_DENOM_GUARD = 1e-10
# rows of the variance's kernel matrix held at once, which bounds its memory
_ROW_BLOCK = 128


@dataclass(frozen=True, eq=False)
class FluctuationParams:
    """Moment parameters and deformation measure entering the limit formulas.

    ``mode`` records whether ``nu`` plays the role of a limiting measure or of
    the empirical measure of a concrete N-dimensional deformation; in the
    latter case ``n`` must be set (the bias bound needs it). The four moment
    parameters are always the N-rescaled ones, so the same numbers serve both
    modes.
    """

    sigma2: float
    s2: float
    tau: float
    kappa: float
    nu: AtomicMeasure
    mode: str = "limit"
    n: int | None = None

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.sigma2, self.s2, self.tau, self.kappa)):
            raise ParameterError("sigma2, s2, tau and kappa must be finite")
        if self.sigma2 <= 0:
            raise ParameterError("sigma2 must be positive")
        if self.s2 <= 0:
            raise ParameterError("s2 must be positive")
        if self.mode not in ("limit", "finite_N"):
            raise ParameterError("mode must be 'limit' or 'finite_N'")
        if self.mode == "finite_N" and (self.n is None or self.n < 1):
            raise ParameterError("finite_N mode requires the dimension n")

    @classmethod
    def from_ensemble(cls, params) -> "FluctuationParams":
        """Finite-N parameters of a concrete ensemble (nu = deformation ESD)."""
        return cls(
            sigma2=params.sigma2,
            s2=params.s2,
            tau=params.tau,
            kappa=params.kappa,
            nu=params.nu(),
            mode="finite_N",
            n=params.n,
        )

    def solve(self, z) -> SubordinationSolution:
        """Fixed point at every point of z, flattened to one dimension."""
        return solve_pastur_array(self.nu, self.sigma2, np.ravel(z))


def _shaped(value: np.ndarray, shape: tuple):
    """Flat values as a Python number for a scalar input, else in its shape.

    Computing on flat arrays either way keeps a scalar call bitwise equal to
    the same point of an array call."""
    return value.item() if shape == () else value.reshape(shape)


def _bias_bracket(p: FluctuationParams, sol: SubordinationSolution):
    """Bracket of the bias formula, elementwise over the solution's z."""
    w1 = sol.omega1
    denom = p.tau + (p.sigma2 - p.tau) * w1
    near = np.abs(denom) < _DENOM_GUARD
    if np.any(near):
        z = sol.z[near][0]
        raise SingularityError(f"bias denominator tau+(sigma2-tau)*omega' ~ 0 at z={z}")
    return p.s2 - p.sigma2 + p.tau**2 * (w1 - 1.0) / denom - p.kappa * sol.G1 / w1


def beta(params: FluctuationParams, z):
    """Limiting bias of the trace of the resolvent at a scalar z or an array of z."""
    sol = params.solve(z)
    return _shaped(sol.G2 / (2.0 * sol.omega1**2) * _bias_bracket(params, sol), np.shape(z))


def beta_tilde(params: FluctuationParams, z):
    """Companion bias with one extra omega' factor, beta = omega' * beta_tilde; z as in beta."""
    sol = params.solve(z)
    return _shaped(sol.G2 / (2.0 * sol.omega1**3) * _bias_bracket(params, sol), np.shape(z))


@dataclass(frozen=True)
class KernelValue:
    """Covariance kernel values with their branch-distance diagnostic."""

    z1: complex
    z2: complex
    I: complex
    gamma: complex
    branch_margin: float

    @property
    def valid(self):
        return self.branch_margin > KERNEL_MARGIN


def _flat_pairs(z1, z2):
    """The broadcast shape of (z1, z2) and both arguments flattened to it."""
    z1, z2 = np.broadcast_arrays(np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex))
    return z1.shape, z1.ravel(), z2.ravel()


def _side(params: FluctuationParams, omega, omega1):
    """One side of ``_kernel`` for a 1-d array of points, given by omega and
    omega' there: (1 / (omega - d_i), 1 / (omega - d_i)^2, omega')."""
    inv = 1.0 / (omega[:, None] - params.nu.locations)
    return inv, inv * inv, omega1


def _kernel(params: FluctuationParams, a, b):
    """I = J_11, Gamma and its distance to the branch points at every pair of
    a point of side a and a point of side b (each from ``_side``), as matrices
    with a row per a and a column per b, where
    J_pq = sum_i nu_i (omega_a - d_i)^-p (omega_b - d_i)^-q.
    """
    p, w = params, params.nu.weights
    inv_a, inv_a2, omega1_a = a
    inv_b, inv_b2, omega1_b = b
    i00 = (w * inv_a) @ inv_b.T
    d1 = -omega1_a[:, None] * ((w * inv_a2) @ inv_b.T)
    d2 = -omega1_b[None, :] * ((w * inv_a) @ inv_b2.T)
    d12 = omega1_a[:, None] * omega1_b[None, :] * ((w * inv_a2) @ inv_b2.T)
    den_s = 1.0 - p.sigma2 * i00
    den_t = 1.0 - p.tau * i00
    gamma = (p.s2 - p.sigma2 - p.tau) * d12
    gamma += p.kappa * (d1 * d2 + i00 * d12)
    gamma += p.sigma2 * d12 / den_s + p.sigma2**2 * d1 * d2 / den_s**2
    gamma += p.tau * d12 / den_t + p.tau**2 * d1 * d2 / den_t**2
    return i00, gamma, np.minimum(np.abs(den_s), np.abs(den_t))


def gamma_kernel(params: FluctuationParams, z1, z2) -> KernelValue:
    """Limiting covariance kernel of traces of resolvents at (z1, z2).

    ``z1`` and ``z2`` are scalars or arrays that broadcast together; one
    fixed-point solve serves all their distinct points. The mixed derivative
    of the primitive is evaluated analytically through the pair integrals
    J_pq; values closer than ``KERNEL_MARGIN`` to either logarithmic branch
    point are flagged invalid rather than continued.
    """
    shape, z1, z2 = _flat_pairs(z1, z2)
    distinct, index = np.unique(np.concatenate([z1, z2]), return_inverse=True)
    sol = params.solve(distinct)
    a, b = index[:z1.size], index[z1.size:]
    side = _side(params, sol.omega, sol.omega1)
    kernel = _kernel(params, side, side)
    i00, gamma, margin = (m[a, b] for m in kernel)
    return KernelValue(z1=_shaped(z1, shape), z2=_shaped(z2, shape), I=_shaped(i00, shape),
                       gamma=_shaped(gamma, shape), branch_margin=_shaped(margin, shape))


def gamma_primitive(params: FluctuationParams, z1, z2):
    """Primitive whose mixed (z1, z2)-derivative is the covariance kernel.

    Takes z1, z2 as ``gamma_kernel``. Uses principal branches for both logarithms.
    """
    shape, z1, z2 = _flat_pairs(z1, z2)
    kv = gamma_kernel(params, z1, z2)
    if not np.all(kv.valid):
        k = np.flatnonzero(~kv.valid)[0]
        raise SingularityError(f"primitive too close to a branch point at {z1[k]}, {z2[k]}")
    i00 = kv.I
    value = (params.s2 - params.sigma2 - params.tau) * i00
    value += 0.5 * params.kappa * i00**2
    value -= np.log(1.0 - params.sigma2 * i00) + np.log(1.0 - params.tau * i00)
    return _shaped(value, shape)


def semicircle_transform(z, v: float, order: int = 0):
    """Closed-form Stieltjes transform of the semicircle law of variance v.

    Branch chosen so G(z) ~ 1/z at infinity; order 1 gives the derivative.
    """
    shape = np.shape(z)
    z = np.ravel(np.asarray(z, dtype=complex))
    if np.any(z.imag == 0.0):
        raise ValueError("semicircle transform evaluated off the real axis only")
    sq = np.sqrt(z * z - 4.0 * v)
    sq = np.where((z.conj() * sq).real < 0.0, -sq, sq)
    g = 2.0 / (z + sq)
    if order == 0:
        return _shaped(g, shape)
    if order == 1:
        return _shaped(-g * g / (1.0 - v * g * g), shape)
    raise ValueError("order must be 0 or 1")


def bao_xie_b0(sigma2: float, s2: float, tau: float, kappa: float, z):
    """Undeformed-case bias, written directly in the semicircle transform."""
    shape = np.shape(z)
    z = np.ravel(np.asarray(z, dtype=complex))
    g = semicircle_transform(z, sigma2)
    g1 = semicircle_transform(z, sigma2, 1)
    den = 1.0 - tau * g * g
    near = np.abs(den) < _DENOM_GUARD
    if np.any(near):
        raise SingularityError(f"1 - tau*G^2 ~ 0 at z={z[near][0]}")
    return _shaped(-g1 * g * (s2 - sigma2 + tau**2 * g * g / den + kappa * g * g), shape)


def bao_xie_c0(sigma2: float, s2: float, tau: float, kappa: float, z1, z2):
    """Undeformed-case covariance of traces of resolvents at (z1, z2)."""
    shape, z1, z2 = _flat_pairs(z1, z2)
    g1 = semicircle_transform(z1, sigma2)
    g2 = semicircle_transform(z2, sigma2)
    gg = g1 * g2
    den_s = 1.0 - sigma2 * gg
    den_t = 1.0 - tau * gg
    near = np.minimum(np.abs(den_s), np.abs(den_t)) < _DENOM_GUARD
    if np.any(near):
        k = np.flatnonzero(near)[0]
        raise SingularityError(f"C0 denominator ~ 0 at {z1[k]}, {z2[k]}")
    bracket = s2 - sigma2 - tau + 2.0 * kappa * gg
    bracket += sigma2 / den_s**2 + tau / den_t**2
    value = semicircle_transform(z1, sigma2, 1) * semicircle_transform(z2, sigma2, 1) * bracket
    return _shaped(value, shape)


def bias_bound(params: FluctuationParams, z):
    """Explicit finite-N envelope for the bias of the trace of the resolvent.

    Assembled from the degree-3 polynomial bound times the (1 + 2*v*y^2)
    amplification, with the diagonal of the deterministic-equivalent resolvent
    approximated through the subordination point. Takes a scalar z (giving a
    float) or an array of z.
    """
    if params.mode != "finite_N":
        raise ParameterError("bias_bound requires finite_N mode")
    sol = params.solve(z)
    n = params.n
    y = 1.0 / np.abs(sol.z.imag)
    # N-rescaled coefficients: degree 1 carries N(sigma_N^2 + s_N^2),
    # degree 3 carries N^2 m_N + N(3N+1) sigma_N^4.
    a1 = params.sigma2 + params.s2
    a3 = params.kappa + 2.0 * params.sigma2**2 + params.tau**2
    a3 += (3.0 * n + 1.0) * params.sigma2**2 / n
    poly = a1 * y + a3 * y**3
    amplification = 1.0 + 2.0 * params.sigma2 * y * y
    distance2 = np.abs(sol.omega[:, None] - params.nu.locations) ** 2
    diag_sum = n * np.sum(params.nu.weights / distance2, axis=1)
    return _shaped(amplification * poly * diag_sum / n, np.shape(z))


@dataclass(frozen=True)
class ExtensionValue:
    """Value of an extension to a general test function, with its error."""

    value: float
    error: float


def _doubling(rule, rate: float = 0.0) -> ExtensionValue:
    """Run a quadrature rule(n) -> (value, sum of |terms|) at n = 32, 64, ... nodes per
    support piece until a value's error is within 1e-9 * max(1, |value|), and return
    both. The error is the change from the value before; or ``rate`` (a bound on how
    far the rule's error shrinks per doubling) times the change before that; or, as
    kernels lose digits near their singularities, n * eps * sum |terms|: whichever is
    largest. Raises RepresentationError past 1024 nodes."""
    n, (last, _) = 32, rule(32)
    change = math.inf if rate else 0.0  # nothing before the first change bounds it
    while n < 1024:
        n *= 2
        value, magnitude = rule(n)
        change, before = abs(value - last), change
        error = max(change, rate * before, n * np.finfo(float).eps * magnitude)
        if error <= 1e-9 * max(1.0, abs(value)):
            return ExtensionValue(value=value, error=error)
        last = value
    raise RepresentationError(
        f"values at {n // 2} and {n} nodes per support piece still differ by {change:.3e}")


def _bias_primitive(params: FluctuationParams, omega):
    """B = [(s2 - sigma2 - tau) q + log(1 + tau q) - kappa q^2 / 2] / 2 at q = G_nu'(omega),
    elementwise over an array of omega = omega(z); dB/dz = beta(z), as omega' = 1/(1 + sigma2 q).
    """
    p = params
    q = -np.sum(p.nu.weights / (omega[..., None] - p.nu.locations) ** 2, axis=-1)
    return 0.5 * ((p.s2 - p.sigma2 - p.tau) * q + np.log(1.0 + p.tau * q) - 0.5 * p.kappa * q * q)


def extend_bias(params: FluctuationParams, phi,
                window: tuple[float, float] | None = None) -> ExtensionValue:
    """Bias functional on a general real test function.

    b(phi) = (1/pi) integral over the spectral support S of
    phi'(x) Im B(x + i0) dx, where B (``_bias_primitive``) has dB/dz = beta
    and is real off S, so the edge masses of the bias are included. On each
    piece of ``freeconv.SupportPieces``, found once per call, s = cos theta; the
    integral runs over theta by n-point Gauss-Legendre, and
    phi'(x) dx = d(phi o psi_t) comes from the Chebyshev interpolant of
    phi o psi_t at n points, so ``phi`` (called on arrays of points) needs
    no derivative. n doubles as ``_doubling`` says. ``window``, if given,
    sets no range: it must contain S, else DomainError is raised.
    """
    pieces = SupportPieces.of(params.nu, params.sigma2)
    if window is not None:
        x = pieces.nodes([-1.0, 1.0])[0]
        lo, hi = x[0, 0], x[-1, -1]
        if not (window[0] <= lo and hi <= window[1]):
            raise DomainError(f"window {tuple(window)} does not contain the support [{lo}, {hi}]")

    def rule(n):
        m = np.arange(n)
        cheb = np.pi * (m + 0.5) / n
        g, w = np.polynomial.legendre.leggauss(n)
        theta = 0.5 * np.pi * (g + 1.0)
        x, omega, _, _ = pieces.nodes(np.cos(np.concatenate([cheb, theta])))
        # phi o psi_t = sum_j c_j cos(j theta) at s = cos theta;
        # up the piece theta runs from pi to 0, so d(phi o psi_t) there is
        # sum_j j c_j sin(j theta) d theta over theta from 0 to pi
        c = (2.0 / n) * np.real(phi(x[:, :n])) @ np.cos(np.outer(cheb, m))
        slope = c @ (m[:, None] * np.sin(np.outer(m, theta)))
        terms = 0.5 * w * slope * _bias_primitive(params, omega[:, n:]).imag
        return float(np.sum(terms)), float(np.sum(np.abs(terms)))

    return _doubling(rule)


def extend_variance(params: FluctuationParams, phi) -> ExtensionValue:
    """Variance functional on a real test function.

    A function that carries exact resolvent poles gets the bilinear
    evaluation V = sum_jk c_j c_k Gamma(z_j, z_k) from one ``gamma_kernel``
    matrix, with error 0. Any other gets

        V = (1/4 pi^2) integral over S x S of (phi(x) - phi(y))^2
            Re[Gamma(x + i0, y + i0) - Gamma(x + i0, y - i0)] dx dy,

    S the spectral support. On each piece of ``freeconv.SupportPieces``,
    found once per call and flattened at the ends that are not edges,
    s = cos theta, and the midpoint rule in theta takes x on n nodes and y
    on n + 2, which share no node: the diagonal, where the kernel is
    singular, is never evaluated. At a flattened end the rule converges
    like n^-4, and its error may change sign on the way, so n doubles as
    ``_doubling`` says at a rate of 1/16; a function of infinite variance
    raises RepresentationError.
    """
    exact = getattr(phi, "poles", None)
    if exact is None:
        pieces = SupportPieces.of(params.nu, params.sigma2)
        return _doubling(lambda n: _axis_variance(params, pieces, phi, n), rate=1.0 / 16.0)
    zs, cs = np.array(exact, dtype=complex).T
    kv = gamma_kernel(params, zs[:, None], zs[None, :])
    invalid = ~kv.valid
    if invalid.any():
        k = np.flatnonzero(invalid)[0]
        raise SingularityError(
            f"kernel invalid (branch margin {kv.branch_margin.flat[k]:.2e}) "
            f"at {kv.z1.flat[k]}, {kv.z2.flat[k]}"
        )
    weights = cs[:, None] * cs[None, :]
    total = complex(np.sum(weights * kv.gamma))
    rounding_scale = float(np.sum(np.abs(weights) * np.abs(kv.gamma)))
    if abs(total.imag) > 1e-12 * rounding_scale + 1e-10 * max(1.0, abs(total.real)):
        raise AccuracyError(f"variance has non-negligible imaginary part {total.imag:.3e}")
    return ExtensionValue(value=total.real, error=0.0)


def _axis_variance(params: FluctuationParams, pieces: SupportPieces, phi,
                   n: int) -> tuple[float, float]:
    """``extend_variance``'s double integral with x on n nodes per support
    piece, and the sum of the absolute values of its terms."""

    def grid(k):
        theta = np.pi * (np.arange(k) + 0.5) / k
        x, omega, omega1, dxds = pieces.nodes(np.cos(theta), flatten=True)
        dx = np.sin(theta) * dxds / (2.0 * k)  # each measure carries 1/(2 pi)
        side = _side(params, omega.ravel(), omega1.ravel())
        return np.real(phi(x)).ravel(), side, dx.ravel()

    fx, x_side, dx = grid(n)
    fy, upper, dy = grid(n + 2)
    lower = tuple(q.conj() for q in upper)
    total = magnitude = 0.0
    for r in range(0, fx.size, _ROW_BLOCK):
        rows = slice(r, r + _ROW_BLOCK)
        a = tuple(q[rows] for q in x_side)
        kernel = _kernel(params, a, upper)[1] - _kernel(params, a, lower)[1]
        terms = dx[rows, None] * (fx[rows, None] - fy) ** 2 * kernel.real * dy
        total += terms.sum()
        magnitude += np.abs(terms).sum()
    return float(total), float(magnitude)
