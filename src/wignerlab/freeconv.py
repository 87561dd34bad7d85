"""Free additive convolution of a semicircular law with an atomic measure.

Everything here works with the subordination fixed point

    G(z) = G_nu(z - v*G(z)),        omega(z) = z - v*G(z),

solved off the real axis for whole arrays of z at once, plus the exact
real-axis parametrisation of the convolution's density (P. Biane, Indiana
Univ. Math. J. 46, 1997) and quadrature against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import AccuracyError, DomainError, EdgeSingularityError, SolverError

__all__ = [
    "AtomicMeasure",
    "SubordinationSolution",
    "DensityEstimate",
    "solve_pastur",
    "solve_pastur_array",
    "density",
    "integrate_against_rho",
    "gauss_kronrod",
    "SupportPieces",
    "support_window",
]

_WEIGHT_TOL = 1e-12
_PASTUR_TOL = 1e-13
_NEWTON_SWITCH = 1e-3
_MAX_ITER = 10_000
_EDGE_GUARD = 1e-10
_ROOT_STEPS = 200  # cap on the steps of _newton; roots at a cusp take about 60
_SPREAD = 17  # points at which density checks its value across the preimage's uncertainty
_PSI_ROUNDING = 16 * np.finfo(float).eps  # relative rounding bound on psi_t
_CUSP_ROUNDING = 1e-12  # t f(end) - 1 at an end of a support piece that counts as 0
_FLAT_ORDER = 3  # SupportPieces.nodes: 1 - h' ~ (1 - r)^3 away from an end it flattens at
_END_STEPS = 4  # Newton steps of _biane_v2_from_end
_MAX_NEWTON = 100
_RHO_TOL = 1e-8  # absolute and relative target of integrate_against_rho
_RHO_INTERVALS = 2000  # its interval limit

@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finite atomic probability measure on the real line.

    Atoms are stored sorted by location with aggregated weights; weights must
    sum to one within 1e-12.
    """

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if loc.ndim != 1 or wts.shape != loc.shape or loc.size == 0:
            raise ValueError("locations and weights must be matching 1-d arrays")
        if not np.all(np.isfinite(loc)):
            raise ValueError("atom locations must be finite")
        if not np.all(np.isfinite(wts) & (wts > 0)):
            raise ValueError("atom weights must be positive and finite")
        if abs(wts.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights sum to {wts.sum()!r}, not 1")
        order = np.argsort(loc, kind="stable")
        loc, wts = loc[order], wts[order]
        # aggregate duplicate locations so the representation is canonical
        uniq, inverse = np.unique(loc, return_inverse=True)
        agg = np.zeros_like(uniq)
        np.add.at(agg, inverse, wts)
        object.__setattr__(self, "locations", uniq)
        object.__setattr__(self, "weights", agg)
        self.locations.setflags(write=False)
        self.weights.setflags(write=False)

    @classmethod
    def point_mass(cls, x: float = 0.0) -> "AtomicMeasure":
        return cls(np.array([float(x)]), np.array([1.0]))

    @classmethod
    def from_atoms(cls, atoms) -> "AtomicMeasure":
        """Build from an iterable of (location, weight) pairs."""
        locs = np.array([a[0] for a in atoms], dtype=float)
        wts = np.array([a[1] for a in atoms], dtype=float)
        return cls(locs, wts)

    @classmethod
    def from_values(cls, values) -> "AtomicMeasure":
        """Empirical measure of a sample (equal weights, duplicates merged)."""
        vals = np.asarray(values, dtype=float).ravel()
        return cls(vals, np.full(vals.size, 1.0 / vals.size))

    @property
    def support(self) -> tuple[float, float]:
        return float(self.locations[0]), float(self.locations[-1])


@dataclass(frozen=True)
class SubordinationSolution:
    """Pastur fixed point at a spectral parameter, with derivatives.

    Fields G1/G2 and omega1/omega2 are first and second z-derivatives of the
    transform G and the subordination map omega, filled by the closed-form
    chain rule, never by numerical differentiation. ``solve_pastur`` fills
    every field but ``v`` with a scalar, ``solve_pastur_array`` with an array
    of the shape of its z; ``at(k)`` takes the scalar solution at index k.
    """

    z: complex
    v: float
    G: complex
    omega: complex
    G1: complex
    G2: complex
    omega1: complex
    omega2: complex
    iterations: int
    residual: float

    def at(self, k: int) -> "SubordinationSolution":
        """Scalar solution at index k of an array-valued solution."""
        picked = {f.name: getattr(self, f.name)[k].item() for f in fields(self) if f.name != "v"}
        return SubordinationSolution(v=self.v, **picked)


def _transform(nu: AtomicMeasure, omega: np.ndarray, power: int) -> np.ndarray:
    """sum_i w_i (omega - d_i)^-power at every point of a 1-d array omega."""
    return np.add.reduce(nu.weights / (omega[:, None] - nu.locations) ** power, axis=1)


def _pastur_upper(nu: AtomicMeasure, v: float, z: np.ndarray, g: np.ndarray):
    """Solve G = G_nu(z - vG) at every point of a 1-d array z with Im z > 0.

    Starts from g and runs each point's own iteration: damped fixed-point
    steps until the residual |G - G_nu(z - vG)| drops below _NEWTON_SWITCH,
    then Newton steps for as long as each one lowers it, with a damped step
    whenever one does not. Each point keeps the map's value G_nu(z - vG) at
    its current G, which its residual, its next damped step and its next
    Newton step all read, so an accepted iterate costs one evaluation of the
    map (and a Newton step one of G_nu' as well). Returns (G, iterations,
    residual) arrays.
    """
    g = np.where(g.imag > 0.0, g.conj(), g)

    def fixed_map(idx, gg):
        return _transform(nu, z[idx] - v * gg, 1)

    mapped = fixed_map(slice(None), g)
    residual = np.abs(g - mapped)
    iterations = np.zeros(z.size, dtype=int)
    newton = np.zeros(z.size, dtype=bool)
    active = np.flatnonzero(residual > _PASTUR_TOL)
    for _ in range(_MAX_ITER):
        if active.size == 0:
            break
        tried = newton[active] | (residual[active] < _NEWTON_SWITCH)
        accepted = np.zeros(active.size, dtype=bool)
        if tried.any():
            idx = active[tried]
            g_old = g[idx]
            deriv = 1.0 - v * _transform(nu, z[idx] - v * g_old, 2)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                g_new = g_old - (g_old - mapped[idx]) / deriv
            ok = (np.abs(deriv) > 1e-14) & (g_new.imag < 0.0)
            m_new = np.zeros(idx.size, dtype=complex)
            m_new[ok] = fixed_map(idx[ok], g_new[ok])
            r_new = np.full(idx.size, np.inf)
            r_new[ok] = np.abs(g_new[ok] - m_new[ok])
            better = r_new < residual[idx]
            took = idx[better]
            g[took], residual[took], mapped[took] = g_new[better], r_new[better], m_new[better]
            newton[idx] = better
            accepted[tried] = better
        idx = active[~accepted]
        if idx.size:
            g[idx] = 0.5 * g[idx] + 0.5 * mapped[idx]
            mapped[idx] = fixed_map(idx, g[idx])
            residual[idx] = np.abs(g[idx] - mapped[idx])
        iterations[active] += 1
        active = active[residual[active] > _PASTUR_TOL]
    if active.size:
        k = active[np.argmax(residual[active])]
        raise SolverError(
            f"Pastur iteration did not converge at z={z[k]} (residual {residual[k]:.3e})",
            residual=float(residual[k]),
        )
    return g, iterations, residual


def solve_pastur_array(nu: AtomicMeasure, v: float, z) -> SubordinationSolution:
    """Solve the subordination fixed point at every point of an array of z.

    Returns one SubordinationSolution whose fields are arrays of the shape
    of z. Points below the real axis are solved at their conjugate and
    reflected, so G(conj z) = conj G(z) holds exactly. Points start from
    1/z; those with Im z < 0.05 first walk their height down from 0.2,
    halving it and warm-starting each solve from the last, so the iteration
    never leaves the basin near a spectral edge. Any failing point raises:
    SolverError when its iteration does not converge, EdgeSingularityError
    when 1 + v*G_nu'(omega) vanishes there, and SolverError also when a
    field overflows to a value that is not finite.
    """
    if v <= 0:
        raise ValueError("semicircular variance v must be positive")
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    z = z.ravel()
    if np.any(z.imag == 0.0):
        raise DomainError("solve_pastur requires Im z != 0")
    lower = z.imag < 0.0
    zu = np.where(lower, z.conj(), z)
    g = 1.0 / zu
    walk = np.flatnonzero(zu.imag < 0.05)
    chain = 1.0 / (zu.real[walk] + 0.2j)
    eta = 0.2
    while walk.size:
        chain, _, _ = _pastur_upper(nu, v, zu.real[walk] + 1j * eta, chain)
        g[walk] = chain
        eta *= 0.5
        still = eta > zu.imag[walk]
        walk, chain = walk[still], chain[still]

    g, iterations, residual = _pastur_upper(nu, v, zu, g)
    omega = zu - v * g
    g1_nu = -_transform(nu, omega, 2)
    denom = 1.0 + v * g1_nu
    edge = np.abs(denom) < _EDGE_GUARD
    if edge.any():
        raise EdgeSingularityError(f"1 + v*G_nu'(omega) ~ 0 at z={z[edge][0]}")
    omega1 = 1.0 / denom
    g1 = g1_nu * omega1
    g2_nu = 2.0 * _transform(nu, omega, 3)
    omega2 = -v * g2_nu * omega1**3
    g2 = g2_nu * omega1**2 + g1_nu * omega2
    for field in (g, omega, g1, g2, omega1, omega2):
        if not np.isfinite(field).all():
            k = np.argmin(np.isfinite(field))
            raise SolverError(f"the fixed point or its derivatives are not finite at z={z[k]}")

    def reflect(a):
        return np.where(lower, a.conj(), a).reshape(shape)

    return SubordinationSolution(
        z=z.reshape(shape), v=v, G=reflect(g), omega=reflect(omega), G1=reflect(g1),
        G2=reflect(g2), omega1=reflect(omega1), omega2=reflect(omega2),
        iterations=iterations.reshape(shape), residual=residual.reshape(shape),
    )


def solve_pastur(nu: AtomicMeasure, v: float, z: complex) -> SubordinationSolution:
    """Solve the subordination fixed point at one z and fill all derivatives.

    ``solve_pastur_array`` at a single point: the same iteration, reflection
    and errors.
    """
    return solve_pastur_array(nu, v, [z]).at(0)


# --------------------------------------------------------------- Biane

def _newton(fn, target: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Solution u of fn(u) = target in [lo, hi], elementwise, for fn increasing there.

    fn maps a 1-d array of points to (values, slopes). Each point starts at
    the middle of its bracket and takes Newton steps, moving the end of the
    bracket on the side its value shows; it bisects instead whenever a step
    would leave the bracket or would not halve the step before last (rtsafe
    of Press et al., Numerical Recipes), so it converges wherever fn is
    monotone. A point stops where fn hits the target or its Newton step
    rounds to nothing, or once a step is within eps (|lo| + |hi|) of its
    initial bracket, which is never below an ulp of a point inside it.
    Points iterate independently, so a point's root has the same bits in
    any array.
    """
    lo, hi = lo.astype(float), hi.astype(float)
    u = 0.5 * (lo + hi)
    tol = np.finfo(float).eps * (np.abs(lo) + np.abs(hi))
    step = hi - lo
    before = step.copy()
    active = np.arange(u.size)
    for _ in range(_ROOT_STEPS):
        if active.size == 0:
            return u
        x = u[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            value, slope = fn(x)
            g = value - target[active]
            newton = x - g / slope
        below = g < 0.0
        lo[active[below]] = x[below]
        hi[active[~below]] = x[~below]
        a, b = lo[active], hi[active]
        bisect = ~((a < newton) & (newton < b))
        bisect |= 2.0 * np.abs(newton - x) > np.abs(before[active])
        nxt = np.where((g == 0.0) | (newton == x), x, np.where(bisect, 0.5 * (a + b), newton))
        before[active], step[active] = step[active], nxt - x
        u[active] = nxt
        active = active[np.abs(nxt - x) > tol[active]]
    raise SolverError(f"root of an increasing function not found in {_ROOT_STEPS} steps "
                      f"at target {target[active[0]]!r}")


def _biane_v2(nu: AtomicMeasure, t: float, u: np.ndarray) -> np.ndarray:
    """v_t(u)^2 at every point of a 1-d array u.

    v_t(u) is the root v > 0 of sum_i w_i / ((u - d_i)^2 + v^2) = 1/t, and 0
    where sum_i w_i / (u - d_i)^2 <= 1/t. In s = v^2 the map
    q(s) = 1 / sum_i w_i / ((u - d_i)^2 + s) is increasing and concave, so
    Newton's method for q(s) = t, started below the root, climbs to it
    without overshooting. The start is the largest one-atom lower bound,
    max(0, max_i (w_i t - (u - d_i)^2)).
    """
    a2 = (u[:, None] - nu.locations) ** 2
    s = np.maximum(np.max(nu.weights * t - a2, axis=1), 0.0)
    # where s = 0 no atom sits at u, so the sum below is finite
    inside = (s > 0.0) | (np.sum(nu.weights / (a2 + s[:, None]), axis=1) > 1.0 / t)
    idx = np.flatnonzero(inside)
    # at extreme scales a step overflows: s then stops, or climbs to inf;
    # density and integrate_against_rho refuse a value that is not finite
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_MAX_NEWTON):
            if idx.size == 0:
                return s
            r = a2[idx] + s[idx, None]
            f = np.sum(nu.weights / r, axis=1)
            step = f * (t * f - 1.0) / np.sum(nu.weights / (r * r), axis=1)
            climbs = s[idx] + step > s[idx]
            idx = idx[climbs]
            s[idx] += step[climbs]
    raise SolverError(f"v_t(u) did not converge at u={u[idx[0]]}")


def _biane_slope(nu: AtomicMeasure, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """s S_2 + S_a^2 / S_2 with S_2 = sum_i w_i / r_i^2, S_a = sum_i w_i (u - d_i) / r_i^2,
    r_i = (u - d_i)^2 + s and s = v_t(u)^2: on the support, dpsi_t/du = 2t times this."""
    a = u[:, None] - nu.locations
    r2 = (a * a + s[:, None]) ** 2
    s_2 = np.sum(nu.weights / r2, axis=1)
    s_a = np.sum(nu.weights * a / r2, axis=1)
    return s * s_2 + s_a * s_a / s_2


def _biane_psi(nu: AtomicMeasure, t: float, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """psi_t(u) = u + t sum_i w_i (u - d_i) / ((u - d_i)^2 + v_t(u)^2), s = v_t(u)^2."""
    a = u[:, None] - nu.locations
    return u + t * np.sum(nu.weights * a / (a * a + s[:, None]), axis=1)


@dataclass(frozen=True)
class DensityEstimate:
    """Density of the free convolution at x, from Biane's parametrisation.

    ``error`` is the largest change of the density between the preimages of
    x - slack and x + slack, slack a bound on the rounding of psi_t, so it
    covers every u that rounding of psi_t cannot tell from the preimage of
    x. Fields are floats for a scalar x and arrays of its shape otherwise.
    """

    x: float
    value: float
    error: float


def _psi_and_slope(nu: AtomicMeasure, t: float, u: np.ndarray):
    """psi_t(u) and dpsi_t/du at every point of a 1-d array u: 2t ``_biane_slope``
    where v_t(u) > 0, and 1 - t f(u), f(u) = sum_i w_i / (u - d_i)^2, off the support."""
    s = _biane_v2(nu, t, u)
    on = s > 0.0
    slope = np.empty(u.size)
    slope[on] = 2.0 * t * _biane_slope(nu, u[on], s[on])
    slope[~on] = 1.0 - t * np.sum(nu.weights / (u[~on, None] - nu.locations) ** 2, axis=1)
    return _biane_psi(nu, t, u, s), slope


def density(nu: AtomicMeasure, v: float, x) -> DensityEstimate:
    """Density of nu boxplus sigma_v at real x (a float or an array).

    psi_t is an increasing bijection of the real line with
    |psi_t(u) - u| <= sqrt(t), and the density at psi_t(u) is v_t(u)/(pi t)
    (P. Biane, Indiana Univ. Math. J. 46, 1997). The preimage of x, and of
    x -+ slack, is found by safeguarded Newton (``_newton``) on
    [x - sqrt(t), x + sqrt(t)] with the analytic slope of psi_t, so the
    value is exact to rounding in the bulk and vanishes outside the support.
    Near a cusp, where the density grows like |x - x_c|^(1/3), rounding of
    psi_t leaves u uncertain, and the error says by how much that moves the
    density: its largest change over _SPREAD points from the preimage of
    x - slack to that of x + slack. Raises AccuracyError when a value or an
    error is not finite.
    """
    if v <= 0:
        raise ValueError("v must be positive")
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    n = flat.size
    reach = math.sqrt(v) * (1.0 + 1e-9)
    # psi_t(u) = u + t S with |t S| <= sqrt(t), so its rounding is below slack
    slack = _PSI_ROUNDING * (np.abs(flat) + 2.0 * math.sqrt(v))
    targets = np.concatenate([flat - slack, flat, flat + slack])
    roots = _newton(lambda u: _psi_and_slope(nu, v, u), targets, targets - reach, targets + reach)
    low, u, high = roots[:n], roots[n:2 * n], roots[2 * n:]
    spread = low[:, None] + (high - low)[:, None] * np.linspace(0.0, 1.0, _SPREAD)
    rho = np.sqrt(_biane_v2(nu, v, np.concatenate([u, spread.ravel()]))) / (math.pi * v)
    value = rho[:n].reshape(xs.shape)
    with np.errstate(invalid="ignore"):  # inf - inf: refused just below
        error = np.max(np.abs(rho[n:].reshape(n, -1) - rho[:n, None]), axis=1).reshape(xs.shape)
    finite = np.isfinite(value) & np.isfinite(error)
    if not finite.all():
        k = np.flatnonzero(~finite.ravel())[0]
        raise AccuracyError(f"density at x={flat[k].item()!r} is not finite: "
                            f"{value.flat[k].item()!r} with error {error.flat[k].item()!r}")
    if xs.ndim == 0:
        return DensityEstimate(x=float(xs), value=float(value), error=float(error))
    return DensityEstimate(x=xs, value=value, error=error)


def _support_in_u(nu: AtomicMeasure, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starts and ends of the intervals of u where v_t(u) > 0, and the minima of f inside them.

    That is where f(u) = sum_i w_i / (u - d_i)^2 exceeds 1/t. Left of the
    first atom f increases from 0 and f(d_1 - sqrt t) <= 1/t, so the support
    starts in [d_1 - sqrt t, d_1); it ends symmetrically right of the last
    atom. Between consecutive atoms f is convex and infinite at both ends:
    where its minimum falls below 1/t the support has a gap between the two
    roots around that minimum. Elsewhere the minimum lies inside the
    support; where it equals 1/t, v_t vanishes there, at a cusp of the
    density, and where it is close to 1/t, v_t has branch points close to
    the real axis there. Every root is found by ``_newton`` with the slopes
    f' and f'': first the minima, where f' = 0, then the starts, where f
    rises through 1/t, then the ends, where -f rises through -1/t.
    """
    d, w = nu.locations, nu.weights
    inv_t = 1.0 / t
    reach = math.sqrt(t) * (1.0 + 1e-9)

    def f_and_slope(u):
        a = u[:, None] - d
        return np.sum(w / a**2, axis=1), -2.0 * np.sum(w / a**3, axis=1)

    def neg_f_and_slope(u):
        f, f1 = f_and_slope(u)
        return -f, -f1

    def half_slope_and_slope(u):  # f'/2 and f''/2
        a = u[:, None] - d
        return -np.sum(w / a**3, axis=1), 3.0 * np.sum(w / a**4, axis=1)

    left, right = d[:-1], d[1:]
    lowest = _newton(half_slope_and_slope, np.zeros(left.size), left, right)
    gap = f_and_slope(lowest)[0] < inv_t
    minima = lowest[~gap]
    left, right, lowest = left[gap], right[gap], lowest[gap]
    starts = _newton(f_and_slope, np.full(lowest.size + 1, inv_t),
                     np.concatenate([d[:1] - reach, lowest]), np.concatenate([d[:1], right]))
    ends = _newton(neg_f_and_slope, np.full(lowest.size + 1, -inv_t),
                   np.concatenate([left, d[-1:]]), np.concatenate([lowest, d[-1:] + reach]))
    return starts, ends, minima


def _biane_v2_from_end(nu: AtomicMeasure, t: float, u: np.ndarray, end: np.ndarray,
                       s: np.ndarray) -> np.ndarray:
    """v_t(u)^2 refined from the start s by Newton steps on
    R(s) = t sum_i w_i / ((u - d_i)^2 + s) - 1, taken relative to ``end``.

    Next to a piece end where t f(end) - 1 is (near) 0, t f(u) - 1 loses
    its digits to cancellation, and v_t with them: at a cusp
    v_t^2 ~ 3 (u - end)^2 sinks below the rounding of t f(u). Here
    R(s) = (t f(end) - 1) - t sum_i w_i (delta (2 a_i + delta) + s) / (((u - d_i)^2 + s) a_i^2),
    a_i = end - d_i, delta = u - end, and t f(end) - 1 within _CUSP_ROUNDING
    of 0 counts as 0. R is decreasing, convex and nearly linear in s where
    s is small, so a few steps from any start settle there, and a start
    already solved in the bulk stays.
    """
    a_end = end[:, None] - nu.locations
    delta = (u - end)[:, None]
    at_end = t * np.sum(nu.weights / a_end**2, axis=1) - 1.0
    at_end = np.where(at_end <= _CUSP_ROUNDING, 0.0, at_end)
    for _ in range(_END_STEPS):
        r = (a_end + delta) ** 2 + s[:, None]
        lift = (delta * (2.0 * a_end + delta) + s[:, None]) / (r * a_end**2)
        residual = at_end - t * np.sum(nu.weights * lift, axis=1)
        s = np.maximum(s + residual / (t * np.sum(nu.weights / (r * r), axis=1)), 0.0)
    return s


@dataclass(frozen=True, eq=False)
class SupportPieces:
    """The support of nu boxplus sigma_t cut into pieces [a, b] in Biane's variable u.

    The pieces are the intervals of the support, split at every minimum of
    f inside them (``minima``), so that a cusp, or the branch points of v_t
    near one, sit at an end of a piece. ``SupportPieces.of(nu, t)`` finds
    them, so a caller that needs nodes at several resolutions finds them
    once; ``nodes`` places nodes on them.
    """

    nu: AtomicMeasure
    t: float
    a: np.ndarray
    b: np.ndarray
    minima: np.ndarray

    @classmethod
    def of(cls, nu: AtomicMeasure, t: float) -> "SupportPieces":
        starts, ends, minima = _support_in_u(nu, t)
        return cls(nu=nu, t=t, a=np.sort(np.concatenate([starts, minima])),
                   b=np.sort(np.concatenate([minima, ends])), minima=minima)

    def nodes(self, s, flatten: bool = False):
        """Boundary values of the subordination map at nodes s of every piece.

        Node s in [-1, 1] sits at u = a + (b - a) h(r), r = (1 + s) / 2, of
        each piece, with h(r) = r. With ``flatten``, h' falls to 0 like
        1 - (1 - r)^3 at an end that is a minimum of f, so u meets it
        quadratically in s, as it meets an edge quadratically in theta for
        s = cos theta: the midpoint rule in theta then suits both. Returns
        (x, omega, omega1, dxds), each with a row per piece and a column per
        node: x = psi_t(u), omega = omega(x + i0) = u + i v_t(u),
        omega1 = omega'(x + i0) and dxds = dpsi_t/du du/ds.
        """
        nu, t, a, b = self.nu, self.t, self.a, self.b
        # 1.0 at the ends to flatten, 0.0 elsewhere
        flat_a, flat_b = (float(flatten) * np.isin(e, self.minima)[:, None] for e in (a, b))
        k, r = _FLAT_ORDER, 0.5 * (1.0 + np.asarray(s, dtype=float))
        norm = 1.0 - (flat_a + flat_b) / (k + 1)
        h = (r - flat_a * (1.0 - (1.0 - r) ** (k + 1)) / (k + 1)
             - flat_b * r ** (k + 1) / (k + 1)) / norm
        duds = 0.5 * (b - a)[:, None] * (1.0 - flat_a * (1.0 - r) ** k - flat_b * r**k) / norm
        duds = duds.ravel()
        u = (a[:, None] + (b - a)[:, None] * h).ravel()
        end = np.where(r < 0.5, a[:, None], b[:, None]).ravel()
        v2 = _biane_v2_from_end(nu, t, u, end, _biane_v2(nu, t, u))
        omega = u + 1j * np.sqrt(v2)
        # 1 - t G_nu'(omega) = 2 i t v_t sum_i w_i / (|omega - d_i|^2 (omega - d_i)), since
        # sum_i w_i / |omega - d_i|^2 = 1/t: no cancellation near an edge or a cusp.
        # At an end itself (s = -1 or 1) v_t = 0 and omega' is infinite.
        a_u = omega[:, None] - nu.locations
        with np.errstate(divide="ignore", invalid="ignore"):
            omega1 = 1.0 / (2j * t * omega.imag
                            * np.sum(nu.weights / (abs(a_u) ** 2 * a_u), axis=1))
        dxds = 2.0 * t * duds * _biane_slope(nu, u, v2)
        return tuple(q.reshape(a.size, -1) for q in (_biane_psi(nu, t, u, v2), omega, omega1, dxds))


def support_window(nu: AtomicMeasure, v: float) -> tuple[float, float]:
    """Interval certainly containing the support of the free convolution."""
    lo, hi = nu.support
    half = 2.0 * math.sqrt(v)
    return lo - half, hi + half


def integrate_against_rho(nu: AtomicMeasure, v: float, phi) -> float:
    """Integral of phi against the density of the free convolution.

    Integrates in Biane's variable u over the exact support intervals, with
    x = psi_t(u) and, by implicit differentiation of v_t,
    rho(x) dx = (2/pi) v_t (v_t^2 S_2 + S_a^2 / S_2) du (``_biane_slope``).
    ``phi`` is called on arrays of points. Raises AccuracyError when the
    quadrature's error estimate is still above max(1e-8, 1e-8 |value|) at
    2000 intervals, or when the value or the estimate is not finite.
    """
    if v <= 0:
        raise ValueError("v must be positive")

    def integrand(u):
        s = _biane_v2(nu, v, u)
        weight = (2.0 / math.pi) * np.sqrt(s) * _biane_slope(nu, u, s)
        return weight * np.asarray(phi(_biane_psi(nu, v, u, s)), dtype=float)

    starts, ends, _ = _support_in_u(nu, v)
    value, error = gauss_kronrod(integrand, starts, ends, epsabs=_RHO_TOL, epsrel=_RHO_TOL,
                                 limit=_RHO_INTERVALS)
    if not (math.isfinite(value) and error <= max(_RHO_TOL, _RHO_TOL * abs(value))):
        raise AccuracyError(f"integral against rho did not converge: {value!r} with "
                            f"error estimate {error:.3g} at {_RHO_INTERVALS} intervals")
    return value


# --------------------------------------------------------------- quadrature

# QUADPACK's 21-point Gauss-Kronrod rule (Piessens et al., 1983), the rule
# SciPy's adaptive integrator applies: nodes on [0, 1] and their Kronrod
# weights; the odd entries are the positive nodes of the 10-point Gauss rule,
# weighted _WG.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208034046080, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[11:20:2] = _WG[::-1]


def _gk21_nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 21 nodes of QUADPACK's qk21 on every interval [a_k, b_k], flat."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    return (centre[:, None] + half[:, None] * _NODES).ravel()


def _gk21(fx: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QUADPACK's qk21 on every interval [a_k, b_k] from the values at its
    ``_gk21_nodes``: (integrals, error estimates)."""
    half = 0.5 * (b - a)
    fx = np.reshape(fx, (a.size, 21))
    resk = np.sum(fx * _KRONROD, axis=1)
    resg = np.sum(fx * _GAUSS, axis=1)
    resabs = np.sum(np.abs(fx) * _KRONROD, axis=1) * np.abs(half)
    resasc = np.sum(np.abs(fx - 0.5 * resk[:, None]) * _KRONROD, axis=1) * np.abs(half)
    err = np.abs((resk - resg) * half)
    scaled = (resasc != 0.0) & (err != 0.0)
    err[scaled] = resasc[scaled] * np.minimum(1.0, (200.0 * err[scaled] / resasc[scaled]) ** 1.5)
    err = np.maximum(err, 50.0 * np.finfo(float).eps * resabs)
    return resk * half, err


def gauss_kronrod(f, a, b, epsabs: float, epsrel: float, limit: int) -> tuple[float, float]:
    """Adaptive 21-point Gauss-Kronrod quadrature of ``f`` over the intervals [a_k, b_k].

    ``f`` maps a 1-d array of points to the array of its values. Each
    interval gets QUADPACK's rule and error estimate; each round then
    bisects together the fewest largest-error intervals whose errors must go
    for the rest to meet max(epsabs, epsrel * |integral|), and ``f`` sees all
    new nodes of a round in one call. Rounds stop when the summed error meets
    that tolerance or there are ``limit`` intervals. Returns the integral
    over the union of the intervals and its error estimate.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    value, err = _gk21(f(_gk21_nodes(a, b)), a, b)
    while a.size < limit:
        tol = max(epsabs, epsrel * abs(value.sum()))
        total = err.sum()
        if total <= tol:
            break
        order = np.argsort(-err, kind="stable")
        left_over = total - np.cumsum(err[order])
        count = int(np.argmax(left_over <= tol)) + 1 if left_over[-1] <= tol else order.size
        pick = order[: min(count, limit - a.size)]
        keep = np.ones(a.size, dtype=bool)
        keep[pick] = False
        mid = 0.5 * (a[pick] + b[pick])
        new_a, new_b = np.concatenate([a[pick], mid]), np.concatenate([mid, b[pick]])
        new_value, new_err = _gk21(f(_gk21_nodes(new_a, new_b)), new_a, new_b)
        a, b = np.concatenate([a[keep], new_a]), np.concatenate([b[keep], new_b])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])
    return float(value.sum()), float(err.sum())
