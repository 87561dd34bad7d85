"""Exact references the benchmark checks the program's outputs against.

Both are independent of the package: they import nothing from ``wignerlab``.

* Biane's real-axis parametrisation of nu boxplus sigma_t for an atomic nu
  (P. Biane, Indiana Univ. Math. J. 46, 1997). For real u let v_t(u) >= 0 be
  the root of sum_i w_i / ((u - d_i)^2 + v^2) = 1/t, or 0 when there is none,
  and psi_t(u) = u + t sum_i w_i (u - d_i) / ((u - d_i)^2 + v_t(u)^2).
  psi_t is an increasing bijection of the real line, and the density of the
  convolution at psi_t(u) is v_t(u) / (pi t). In double precision the
  density is exact to rounding in the bulk, good to ~1e-8 at square-root
  edges and to ~1e-6 within 1e-5 of a cusp, where it grows like |x|^(1/3).
* The Harer-Zagier recursion for b_k = E Tr H^(2k), H an N x N GUE matrix with
  E|H_ij|^2 = 1 (J. Harer and D. Zagier, Invent. Math. 85, 1986):
  (k + 2) b_{k+1} = (4k + 2) N b_k + k (4k^2 - 1) b_{k-1}, b_0 = N, b_1 = N^2.
"""

from __future__ import annotations

import math

import numpy as np

_BISECTIONS = 64


def _bisect(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorised bisection for the root of an increasing f on [lo, hi]."""
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        below = f(mid) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def biane_v(u, locations, weights, t: float) -> np.ndarray:
    """v_t(u) for an array of u."""
    u = np.asarray(u, dtype=float)
    d = np.asarray(locations, dtype=float)
    w = np.asarray(weights, dtype=float)
    sq = (u[..., None] - d) ** 2

    def excess(v):  # increasing in v: 1/t - sum_i w_i / ((u - d_i)^2 + v^2)
        return 1.0 / t - np.sum(w / (sq + v[..., None] ** 2), axis=-1)

    with np.errstate(divide="ignore"):
        at_zero = excess(np.zeros_like(u))
    # sum_i w_i / v^2 <= 1/t at v = sqrt(t), so the root lies in [0, sqrt(t)]
    root = _bisect(excess, np.zeros_like(u), np.full_like(u, math.sqrt(t)))
    return np.where(at_zero < 0.0, root, 0.0)


def biane_psi(u, locations, weights, t: float) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    d = np.asarray(locations, dtype=float)
    w = np.asarray(weights, dtype=float)
    v = biane_v(u, d, w, t)
    diff = u[..., None] - d
    return u + t * np.sum(w * diff / (diff**2 + v[..., None] ** 2), axis=-1)


def biane_density(x, locations, weights, t: float) -> np.ndarray:
    """Density of nu boxplus sigma_t at the points x.

    Inverts psi_t by bisection: |psi_t(u) - u| <= sqrt(t) for every u, so the
    preimage of x lies in [x - sqrt(t), x + sqrt(t)].
    """
    x = np.asarray(x, dtype=float)
    r = math.sqrt(t) * (1.0 + 1e-9) + 1e-12
    u = _bisect(lambda uu: biane_psi(uu, locations, weights, t) - x, x - r, x + r)
    return biane_v(u, locations, weights, t) / (math.pi * t)


def _graded_edges(a: float, b: float, panels: int, levels: int) -> np.ndarray:
    """Panel edges on [a, b]: uniform, with the end panels split geometrically.

    Halving the panels next to each end ``levels`` times keeps Gauss-Legendre
    accurate for integrands like |x - a|^(1/3) or sqrt(x - a) at either end.
    """
    h = 1.0 / panels
    fine = h * 0.5 ** np.arange(levels, 0, -1)
    unit = np.concatenate([[0.0], fine, np.linspace(h, 1.0 - h, panels - 1), 1.0 - fine[::-1], [1.0]])
    return a + (b - a) * unit


def integrate_against_density(phi, breakpoints, locations, weights, t: float,
                              panels: int = 16, levels: int = 40, order: int = 10) -> float:
    """Integral of phi against the Biane density over [min, max] of breakpoints.

    Composite Gauss-Legendre between consecutive breakpoints, on panels graded
    towards each breakpoint. Callers put a breakpoint on every point where the
    density or phi is not smooth (support edges, cusps, the ends of phi's
    support).
    """
    nodes, wts = np.polynomial.legendre.leggauss(order)
    pts = sorted(set(float(b) for b in breakpoints))
    xs, ws = [], []
    for a, b in zip(pts, pts[1:]):
        edges = _graded_edges(a, b, panels, levels)
        half = 0.5 * np.diff(edges)[:, None]
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        xs.append((mid + half * nodes).ravel())
        ws.append((half * wts).ravel())
    x = np.concatenate(xs)
    return float(np.sum(np.concatenate(ws) * phi(x) * biane_density(x, locations, weights, t)))


def harer_zagier(k: int, n: int) -> int:
    """b_k = E Tr H^(2k) for the N x N GUE with E|H_ij|^2 = 1, exactly."""
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    prev, cur = n, n * n
    if k == 0:
        return prev
    for j in range(1, k):
        num = (4 * j + 2) * n * cur + j * (4 * j * j - 1) * prev
        nxt, rem = divmod(num, j + 2)
        if rem:
            raise ArithmeticError("Harer-Zagier recursion left a remainder")
        prev, cur = cur, nxt
    return cur


def one_colour_moment(k: int, n: int, v: float) -> float:
    """E (1/N) Tr X^(2k) for X = sqrt(v/N) H, the value xi_exact must return."""
    return (v / n) ** k * harer_zagier(k, n) / n


def self_check() -> list[str]:
    """Checks of the oracles against closed forms; returns failure messages."""
    failures = []
    # In the bulk the oracle is exact to rounding. Where the density vanishes
    # (support edges, cusps) v_t solves an equation whose excess is O(v^2), so
    # rounding of 1e-16 leaves v_t off by up to ~1e-8: the oracle's own limit.
    for xs, tol in (([-1.9, -1.0, 0.0, 0.3, 1.5, 1.99], 1e-12), ([-2.5, -2.0, 2.0, 3.0], 2e-8)):
        xs = np.array(xs)
        got = biane_density(xs, [0.0], [1.0], 1.0)
        want = np.sqrt(np.clip(4.0 - xs**2, 0.0, None)) / (2.0 * math.pi)
        err = float(np.max(np.abs(got - want)))
        if err > tol:
            failures.append(f"Biane density for nu=delta_0 is off the semicircle by {err:.3e}")
    for n in range(1, 12):
        if harer_zagier(2, n) != 2 * n**3 + n:
            failures.append(f"Harer-Zagier b_2 != 2N^3 + N at N={n}")
    return failures
