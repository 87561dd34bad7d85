"""Closed-form limit quantities for fluctuations of linear spectral statistics.

Implements the limiting bias beta(z), the covariance kernel Gamma(z1, z2),
their specializations to the undeformed (semicircle) case, the finite-N bias
bound, and the extension of bias/variance functionals from the resolvent span
to more general test functions. The functions of z take a scalar z, giving a
Python number, or an array of z, giving an array of its shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ParameterError, RepresentationError, SingularityError
from .freeconv import (
    AtomicMeasure,
    SubordinationSolution,
    gauss_kronrod_rounds,
    solve_pastur_array,
    support_window,
)

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
    "ExtrapolatedValue",
    "extend_bias",
    "VarianceExtension",
    "extend_variance",
]

KERNEL_MARGIN = 1e-6
_DENOM_GUARD = 1e-10
# extend_bias integrates at these heights, halving down to 1e-3
_Y_SCHEDULE = (0.256, 0.128, 0.064, 0.032, 0.016, 0.008, 0.004, 0.002, 0.001)
# extend_variance's resolvent-span fit: poles at each height over
# _POLE_COLUMNS real parts, _FIT_POINTS points of the support window and a
# ridge; a fit whose residual exceeds _MAX_FIT_RESIDUAL * max(1, max |phi|)
# there is rejected
_POLE_COLUMNS = 16
_POLE_HEIGHTS = (0.25, 0.5, 1.0)
_FIT_POINTS = 801
_FIT_RIDGE = 1e-7
_MAX_FIT_RESIDUAL = 5e-2


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


def _pair_terms(params: FluctuationParams, z1: np.ndarray, z2: np.ndarray):
    """I = J_11, D1 = -omega'(z1) J_21, D2 = -omega'(z2) J_12, D12 = omega'(z1) omega'(z2) J_22.

    J_pq = sum_i nu_i (w1 - d_i)^-p (w2 - d_i)^-q at each pair of two flat
    arrays of z, from one solve and matrix products over their distinct z.
    """
    distinct, index = np.unique(np.concatenate([z1, z2]), return_inverse=True)
    sol = params.solve(distinct)
    a, b = index[:z1.size], index[z1.size:]
    inv = 1.0 / (sol.omega[:, None] - params.nu.locations)
    inv2 = inv * inv
    w = params.nu.weights
    i00 = ((w * inv) @ inv.T)[a, b]
    d1 = -sol.omega1[a] * ((w * inv2) @ inv.T)[a, b]
    d2 = -sol.omega1[b] * ((w * inv) @ inv2.T)[a, b]
    d12 = sol.omega1[a] * sol.omega1[b] * ((w * inv2) @ inv2.T)[a, b]
    return i00, d1, d2, d12


def gamma_kernel(params: FluctuationParams, z1, z2) -> KernelValue:
    """Limiting covariance kernel of traces of resolvents at (z1, z2).

    ``z1`` and ``z2`` are scalars or arrays that broadcast together; one
    fixed-point solve serves all their distinct points. The mixed derivative
    of the primitive is evaluated analytically through the pair integrals
    J_pq; values closer than ``KERNEL_MARGIN`` to either logarithmic branch
    point are flagged invalid rather than continued.
    """
    shape, z1, z2 = _flat_pairs(z1, z2)
    i00, d1, d2, d12 = _pair_terms(params, z1, z2)
    p = params
    den_s = 1.0 - p.sigma2 * i00
    den_t = 1.0 - p.tau * i00
    gamma = (p.s2 - p.sigma2 - p.tau) * d12
    gamma += p.kappa * (d1 * d2 + i00 * d12)
    gamma += p.sigma2 * d12 / den_s + p.sigma2**2 * d1 * d2 / den_s**2
    gamma += p.tau * d12 / den_t + p.tau**2 * d1 * d2 / den_t**2
    margin = np.minimum(np.abs(den_s), np.abs(den_t))
    return KernelValue(z1=_shaped(z1, shape), z2=_shaped(z2, shape), I=_shaped(i00, shape),
                       gamma=_shaped(gamma, shape), branch_margin=_shaped(margin, shape))


def gamma_primitive(params: FluctuationParams, z1, z2):
    """Primitive whose mixed (z1, z2)-derivative is the covariance kernel.

    Takes z1, z2 as ``gamma_kernel``. Uses principal branches for both logarithms.
    """
    shape, z1, z2 = _flat_pairs(z1, z2)
    i00, _, _, _ = _pair_terms(params, z1, z2)
    den_s = 1.0 - params.sigma2 * i00
    den_t = 1.0 - params.tau * i00
    near = np.minimum(np.abs(den_s), np.abs(den_t)) < KERNEL_MARGIN
    if np.any(near):
        k = np.flatnonzero(near)[0]
        raise SingularityError(f"primitive too close to a branch point at {z1[k]}, {z2[k]}")
    value = (params.s2 - params.sigma2 - params.tau) * i00
    value += 0.5 * params.kappa * i00**2
    value -= np.log(den_s) + np.log(den_t)
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
class ExtrapolatedValue:
    value: float
    error: float


def _neville_zero(steps, values):
    n = len(values)
    p = list(values)
    estimates = [p[-1]]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            s_i, s_prev = steps[i], steps[i - level]
            p[i] = (s_prev * p[i] - s_i * p[i - 1]) / (s_prev - s_i)
        estimates.append(p[-1])
    return estimates


def _integration_window(params: FluctuationParams, phi) -> tuple[float, float]:
    support = getattr(phi, "support", None)
    if support is not None:
        return float(support[0]), float(support[1])
    lo, hi = params.nu.support
    pad = 2.0 * math.sqrt(params.sigma2) + 50.0
    return lo - pad, hi + pad


def extend_bias(
    params: FluctuationParams,
    phi,
    window: tuple[float, float] | None = None,
) -> ExtrapolatedValue:
    """Bias functional on a general real test function.

    Extends the bias from the resolvent span by Stieltjes inversion of the
    limiting bias: b(phi) = -(1/pi) lim_y integral phi(x) Im beta(x+iy) dx,
    extrapolated to y = 0 in sqrt(y) from heights y = 0.256 halving down to
    1e-3. Each height's integral is its own adaptive 21-point Gauss-Kronrod
    quadrature (``freeconv.gauss_kronrod_rounds``: absolute tolerance 1e-10,
    relative 1e-9, at most 300 subintervals), and the heights run in
    lockstep: each round solves the fixed point at the new nodes of every
    height still refining in one ``beta`` call, which gives every node the
    bits a solve of that height alone would. ``phi`` is called on arrays of
    points. Returns the value and its ``error``, the larger of the last two
    Neville corrections: an estimate of the error of extrapolating to y = 0,
    which leaves out the quadratures' own error (about 1e-9 relative).
    """
    a, b = window if window is not None else _integration_window(params, phi)
    lo, hi = params.nu.support
    left, right = support_window(params.nu, params.sigma2)
    breaks = [x for x in (left, lo, hi, right) if a < x < b]
    edges = np.array([a, *breaks, b])

    rounds = {y: gauss_kronrod_rounds(edges[:-1], edges[1:], epsabs=1e-10, epsrel=1e-9, limit=300)
              for y in _Y_SCHEDULE}
    nodes = {y: next(g) for y, g in rounds.items()}
    integrals = {}
    while nodes:
        x = np.concatenate(list(nodes.values()))
        heights = np.concatenate([np.full(xs.size, y) for y, xs in nodes.items()])
        values = np.real(phi(x)) * beta(params, x + 1j * heights).imag
        ends = np.cumsum([xs.size for xs in nodes.values()])
        for y, fx in zip(list(nodes), np.split(values, ends[:-1])):
            try:
                nodes[y] = rounds[y].send(fx)
            except StopIteration as done:
                integrals[y], _ = done.value
                del nodes[y]
    levels = [-integrals[y] / math.pi for y in _Y_SCHEDULE]
    steps = [math.sqrt(y) for y in _Y_SCHEDULE]
    estimates = _neville_zero(steps, levels)
    corrections = [abs(estimates[k] - estimates[k - 1]) for k in range(1, len(estimates))]
    err = max(corrections[-2:], default=0.0)
    scale = max(abs(estimates[-1]), 1.0)
    if len(corrections) >= 3 and corrections[-1] > 10.0 * corrections[-3] + 1e-12 * scale:
        raise AccuracyError("bias extrapolation diverges along the y schedule")
    return ExtrapolatedValue(value=estimates[-1], error=err)


@dataclass(frozen=True)
class VarianceExtension:
    """Variance of a general test function via its resolvent-span projection."""

    value: float
    fit_residual: float


def extend_variance(params: FluctuationParams, phi) -> VarianceExtension:
    """Variance functional on a real test function.

    If the function carries an exact resolvent representation it is used
    directly; otherwise phi is least-squares fitted on the resolvent span
    over a pole grid (conjugate poles included so the combination is real)
    at points of ``support_window``, since the limit variance depends on phi
    only on the spectral support. The variance is the non-conjugated
    bilinear evaluation V = sum_jk c_j c_k Gamma(z_j, z_k), summed from one
    ``gamma_kernel`` matrix over all pole pairs.

    The fit is ridge-regularized: a representation is only meaningful for
    the bilinear form when its coefficients stay bounded, otherwise huge
    cancelling resolvent combinations match phi pointwise while their
    variance diverges.
    """
    exact = getattr(phi, "poles", None)
    if exact is not None:
        zs, cs = np.array(exact, dtype=complex).T
        residual = 0.0
    else:
        left, right = support_window(params.nu, params.sigma2)
        grid = (np.linspace(left - 0.5, right + 0.5, _POLE_COLUMNS)
                + 1j * np.array(_POLE_HEIGHTS)[:, None]).ravel()
        xs = np.linspace(left, right, _FIT_POINTS)
        target = np.real(np.asarray(phi(xs), dtype=complex))
        gz = 1.0 / (grid - xs[:, None])
        design = np.stack([2.0 * gz.real, -2.0 * gz.imag], axis=2).reshape(xs.size, -1)
        col_scale = np.linalg.norm(design, axis=0)
        n_cols = design.shape[1]
        augmented = np.vstack([design / col_scale, math.sqrt(_FIT_RIDGE) * np.eye(n_cols)])
        rhs = np.concatenate([target, np.zeros(n_cols)])
        sol = np.linalg.lstsq(augmented, rhs, rcond=None)[0] / col_scale
        residual = float(np.max(np.abs(design @ sol - target)))
        scale = max(1.0, float(np.max(np.abs(target))))
        if residual > _MAX_FIT_RESIDUAL * scale:
            raise RepresentationError(
                f"resolvent-span fit residual {residual:.3e} exceeds "
                f"{_MAX_FIT_RESIDUAL:.1e} * {scale:.3g}"
            )
        # each grid pole followed by its conjugate, with conjugate coefficients
        c = sol.view(complex)
        zs = np.stack([grid, grid.conj()], axis=1).ravel()
        cs = np.stack([c, c.conj()], axis=1).ravel()

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
    return VarianceExtension(value=total.real, fit_residual=residual)
