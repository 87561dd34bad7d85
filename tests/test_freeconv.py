import cmath
import math
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

import wignerlab.freeconv as freeconv
from wignerlab import testfn
from wignerlab.errors import AccuracyError, DomainError, EdgeSingularityError, SolverError
from wignerlab.freeconv import (
    _GAUSS,
    _KRONROD,
    _NODES,
    AtomicMeasure,
    density,
    gauss_kronrod,
    integrate_against_rho,
    solve_pastur,
    solve_pastur_array,
    support_nodes,
    support_window,
)


def stieltjes(nu, w, order=0):
    """Reference transform the solver tests compare against: the order-k
    derivative (-1)^k k! sum_i w_i (w - d_i)^(-k-1) of G_nu(w)."""
    w = complex(w)
    coeff = (-1.0) ** order * math.factorial(order)
    return complex(coeff * np.sum(nu.weights / (w - nu.locations) ** (order + 1)))


CUSP = AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])  # (d-1 + d1)/2 boxplus s1 has a cusp at 0


def semicircle_g(z, v=1.0):
    # independent closed form: G = (z - sqrt(z^2 - 4v)) / (2v), branch G ~ 1/z
    sq = cmath.sqrt(z * z - 4.0 * v)
    if (z.conjugate() * sq).real < 0.0:
        sq = -sq
    return (z - sq) / (2.0 * v)


@pytest.mark.parametrize("v", [0.0, -1.0])
@pytest.mark.parametrize("call", [
    lambda v: solve_pastur_array(CUSP, v, np.array([1j])),
    lambda v: density(CUSP, v, [0.0]),
    lambda v: integrate_against_rho(CUSP, v, testfn.smooth_bump(0.0, 1.0, 3)),
], ids=["solve_pastur_array", "density", "integrate_against_rho"])
def test_nonpositive_variance_rejected(call, v):
    with pytest.raises(ValueError, match="must be positive"):
        call(v)


class TestAtomicMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            AtomicMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.6]))

    def test_duplicates_aggregate(self):
        nu = AtomicMeasure.from_values([1.0, 1.0, -1.0, 0.0])
        assert nu.locations.tolist() == [-1.0, 0.0, 1.0]
        assert nu.weights.tolist() == [0.25, 0.25, 0.5]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure(np.array([np.inf]), np.array([1.0]))

    @pytest.mark.parametrize("weights", [[np.nan], [0.5, np.nan], [np.inf], [1.5, -np.inf]])
    def test_nonfinite_weights_rejected(self, weights):
        # NaN passes both `w <= 0` and `|sum - 1| > tol`, so it needs its own check
        with pytest.raises(ValueError, match="finite"):
            AtomicMeasure(np.arange(float(len(weights))), np.array(weights))

    def test_moments(self):
        nu = AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
        assert nu.weights @ nu.locations**1 == 0.0
        assert nu.weights @ nu.locations**2 == 1.0


class TestStieltjes:
    """Checks of the reference transform itself."""

    def test_point_mass_at_2i(self):
        nu = AtomicMeasure.point_mass(0.0)
        assert stieltjes(nu, 2j) == pytest.approx(-0.5j)

    def test_two_atoms(self):
        # 0.5*(1/(2i+1) + 1/(2i-1)) = -0.4i by direct rational arithmetic
        nu = AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
        assert stieltjes(nu, 2j) == pytest.approx(-0.4j)

    def test_first_derivative_point_mass(self):
        nu = AtomicMeasure.point_mass(0.0)
        for w in (2j, 1 + 1j, -0.5 + 0.3j):
            assert stieltjes(nu, w, 1) == pytest.approx(-1.0 / w**2)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_derivatives_match_finite_differences(self, order):
        nu = AtomicMeasure.from_atoms([(-1.5, 0.3), (0.2, 0.5), (2.0, 0.2)])
        w = 0.7 + 1.3j
        h = 1e-5
        lower = stieltjes(nu, w - h, order - 1)
        upper = stieltjes(nu, w + h, order - 1)
        fd = (upper - lower) / (2 * h)
        assert stieltjes(nu, w, order) == pytest.approx(fd, rel=1e-7)

    def test_real_evaluation_away_from_atoms(self):
        nu = AtomicMeasure.point_mass(0.0)
        assert stieltjes(nu, 2.0 + 0.0j) == pytest.approx(0.5)


class TestSolvePastur:
    def test_semicircle_value_at_2i(self):
        sol = solve_pastur(AtomicMeasure.point_mass(0.0), 1.0, 2j)
        assert sol.G == pytest.approx(1j * (1 - math.sqrt(2)), abs=1e-12)

    def test_semicircle_grid(self):
        nu = AtomicMeasure.point_mass(0.0)
        for re in np.linspace(-5, 5, 11):
            for im in (0.1, 0.5, 1.0, 4.0):
                z = complex(re, im)
                sol = solve_pastur(nu, 1.0, z)
                assert abs(sol.G - semicircle_g(z)) < 1e-10

    def test_omega_times_g_is_one(self):
        nu = AtomicMeasure.point_mass(0.0)
        for z in (2j, 1 + 1j, -3 + 0.2j, 0.5 + 0.1j):
            sol = solve_pastur(nu, 1.7, z)
            assert abs(sol.omega * sol.G - 1.0) < 1e-10

    def test_reflection_exact(self):
        nu = AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
        up = solve_pastur(nu, 1.0, 1 + 2j)
        down = solve_pastur(nu, 1.0, 1 - 2j)
        assert down.G == up.G.conjugate()
        assert down.omega == up.omega.conjugate()
        assert down.G2 == up.G2.conjugate()

    def test_small_variance_limit(self):
        # v -> 0 proxy: convolution with a near-point-mass changes little
        nu = AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
        for z in (2j, 1 + 1j):
            sol = solve_pastur(nu, 1e-8, z)
            assert abs(sol.G - stieltjes(nu, z)) < 1e-6

    def test_derivatives_match_finite_differences(self):
        nu = AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
        h = 1e-5
        for z in (2j, 1 + 1j, -0.7 + 0.4j):
            sol = solve_pastur(nu, 1.0, z)
            gp = (solve_pastur(nu, 1.0, z + h).G - solve_pastur(nu, 1.0, z - h).G) / (2 * h)
            gpp = (
                solve_pastur(nu, 1.0, z + h).G1 - solve_pastur(nu, 1.0, z - h).G1
            ) / (2 * h)
            wp = (
                solve_pastur(nu, 1.0, z + h).omega - solve_pastur(nu, 1.0, z - h).omega
            ) / (2 * h)
            wpp = (
                solve_pastur(nu, 1.0, z + h).omega1 - solve_pastur(nu, 1.0, z - h).omega1
            ) / (2 * h)
            assert sol.G1 == pytest.approx(gp, rel=1e-5)
            assert sol.G2 == pytest.approx(gpp, rel=1e-5)
            assert sol.omega1 == pytest.approx(wp, rel=1e-5)
            assert sol.omega2 == pytest.approx(wpp, rel=1e-5)

    def test_subordination_self_map(self):
        nu = AtomicMeasure.from_atoms([(-2.0, 0.25), (0.0, 0.5), (2.0, 0.25)])
        for z in (0.3 + 0.1j, 2j, -1 + 0.5j, 4 + 1j):
            sol = solve_pastur(nu, 1.3, z)
            assert sol.omega.imag >= z.imag
            assert sol.G.imag < 0

    def test_pastur_residual_invariant(self):
        nu = AtomicMeasure.from_atoms([(-1.0, 0.3), (0.5, 0.7)])
        for z in (0.2j, 1 + 0.15j, -2 + 3j):
            sol = solve_pastur(nu, 0.8, z)
            assert abs(sol.G - stieltjes(nu, sol.omega)) <= 1e-12

    def test_real_z_rejected(self):
        with pytest.raises(DomainError):
            solve_pastur(AtomicMeasure.point_mass(0.0), 1.0, 2.0)

    def test_derivative_consistency_invariant(self):
        nu = AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
        sol = solve_pastur(nu, 1.0, 0.4 + 0.9j)
        g1_nu = stieltjes(nu, sol.omega, 1)
        assert sol.omega1 == pytest.approx(1.0 / (1.0 + 1.0 * g1_nu), rel=1e-10)
        assert sol.G1 == pytest.approx(g1_nu * sol.omega1, rel=1e-10)


def _reference_upper(nu, v, z, g0):
    """The scalar Pastur iteration that solve_pastur_array runs per point."""
    g = g0 if g0 is not None else 1.0 / z
    if g.imag > 0.0:
        g = g.conjugate()

    def fixed_map(gg):
        return stieltjes(nu, z - v * gg, 0)

    residual = abs(g - fixed_map(g))
    newton = False
    for _ in range(10_000):
        if residual <= 1e-13:
            return g
        if newton or residual < 1e-3:
            omega = z - v * g
            deriv = 1.0 + v * stieltjes(nu, omega, 1)
            if abs(deriv) > 1e-14:
                g_new = g - (g - stieltjes(nu, omega, 0)) / deriv
                r_new = abs(g_new - fixed_map(g_new)) if g_new.imag < 0.0 else math.inf
                if r_new < residual:
                    g, residual, newton = g_new, r_new, True
                    continue
            newton = False
        g = 0.5 * g + 0.5 * fixed_map(g)
        residual = abs(g - fixed_map(g))
    raise AssertionError(f"reference iteration did not converge at z={z}")


def reference_g(nu, v, z):
    """Reference G(z): reflection, the eta walk below Im z = 0.05, then the loop."""
    if z.imag < 0.0:
        return reference_g(nu, v, z.conjugate()).conjugate()
    warm = None
    if z.imag < 0.05:
        eta = 0.2
        while eta > z.imag:
            warm = _reference_upper(nu, v, complex(z.real, eta), warm)
            eta *= 0.5
    return _reference_upper(nu, v, z, warm)


@st.composite
def measures(draw):
    n = draw(st.integers(1, 6))
    locations = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return AtomicMeasure(np.array(locations), weights / weights.sum())


variances = st.floats(0.1, 3.0)


@st.composite
def points(draw):
    """z above the real axis, near it (inside the eta walk) or below it."""
    height = draw(st.one_of(st.floats(0.05, 5.0), st.floats(1e-4, 0.05)))
    z = complex(draw(st.floats(-5.0, 5.0)), height)
    return z.conjugate() if draw(st.booleans()) else z


class TestSolverProperties:
    @given(measures(), variances, points())
    def test_matches_reference_iteration(self, nu, v, z):
        ref = reference_g(nu, v, z)
        assert abs(solve_pastur(nu, v, z).G - ref) <= 1e-12 * abs(ref)

    @given(measures(), variances, points())
    def test_transform_maps_upper_to_lower_half_plane(self, nu, v, z):
        g = solve_pastur(nu, v, z).G
        assert math.copysign(1.0, g.imag) == -math.copysign(1.0, z.imag)

    @given(measures(), variances, points())
    def test_norm_bound(self, nu, v, z):
        assert abs(solve_pastur(nu, v, z).G) <= (1.0 + 1e-12) / abs(z.imag)

    @given(measures(), variances, points())
    def test_reflection_exact(self, nu, v, z):
        assert solve_pastur(nu, v, z.conjugate()).G == solve_pastur(nu, v, z).G.conjugate()

    @given(measures(), variances, points())
    def test_fixed_point_residual(self, nu, v, z):
        sol = solve_pastur(nu, v, z)
        assert sol.residual <= 1e-13
        assert abs(sol.G - stieltjes(nu, z - v * sol.G)) <= 1e-13

    @given(measures(), variances, st.lists(points(), min_size=1, max_size=8))
    def test_array_solver_matches_scalar(self, nu, v, zs):
        batch = solve_pastur_array(nu, v, zs)
        assert batch.G.shape == (len(zs),)
        for k, z in enumerate(zs):
            assert batch.at(k) == solve_pastur(nu, v, z)


def _recomputing_upper(nu, v, z, g):
    """The array Pastur loop as it ran before each point kept its map value:
    it evaluates G_nu(z - vG) afresh for every residual, damped step and
    Newton step. solve_pastur_array must reproduce it bit for bit."""

    def transform(omega, power):
        return np.sum(nu.weights / (omega[:, None] - nu.locations) ** power, axis=1)

    g = np.where(g.imag > 0.0, g.conj(), g)

    def fixed_map(idx, gg):
        return transform(z[idx] - v * gg, 1)

    residual = np.abs(g - fixed_map(slice(None), g))
    iterations = np.zeros(z.size, dtype=int)
    newton = np.zeros(z.size, dtype=bool)
    active = np.flatnonzero(residual > 1e-13)
    for _ in range(10_000):
        if active.size == 0:
            break
        tried = newton[active] | (residual[active] < 1e-3)
        accepted = np.zeros(active.size, dtype=bool)
        if tried.any():
            idx = active[tried]
            omega = z[idx] - v * g[idx]
            deriv = 1.0 - v * transform(omega, 2)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                g_new = g[idx] - (g[idx] - transform(omega, 1)) / deriv
            r_new = np.full(idx.size, np.inf)
            ok = (np.abs(deriv) > 1e-14) & (g_new.imag < 0.0)
            r_new[ok] = np.abs(g_new[ok] - fixed_map(idx[ok], g_new[ok]))
            better = r_new < residual[idx]
            g[idx[better]], residual[idx[better]] = g_new[better], r_new[better]
            newton[idx] = better
            accepted[tried] = better
        idx = active[~accepted]
        g[idx] = 0.5 * g[idx] + 0.5 * fixed_map(idx, g[idx])
        residual[idx] = np.abs(g[idx] - fixed_map(idx, g[idx]))
        iterations[active] += 1
        active = active[residual[active] > 1e-13]
    if active.size:
        raise SolverError("reference iteration did not converge")
    return g, iterations, residual


@st.composite
def atomic_measures(draw):
    n = draw(st.integers(1, 40))
    locations = draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return AtomicMeasure(np.array(locations), weights / weights.sum())


@st.composite
def low_points(draw):
    """z in either half-plane, often under the eta walk's start height 0.05."""
    height = draw(st.one_of(st.floats(1e-3, 0.05), st.floats(0.05, 3.0)))
    z = complex(draw(st.floats(-6.0, 6.0)), height)
    return z.conjugate() if draw(st.booleans()) else z


@settings(max_examples=150, deadline=None)
@given(atomic_measures(), variances, st.lists(low_points(), min_size=1, max_size=12))
def test_solver_bitwise_equals_recomputing_loop(nu, v, zs):
    def solve():
        try:
            return solve_pastur_array(nu, v, zs)
        except (SolverError, EdgeSingularityError) as exc:
            return repr(exc)

    with mock.patch.object(freeconv, "_pastur_upper", _recomputing_upper):
        expected = solve()
    got = solve()
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    for f in fields(got):
        if f.name != "v":
            assert getattr(got, f.name).tobytes() == getattr(expected, f.name).tobytes(), f.name


class TestDensity:
    def test_semicircle_center(self):
        est = density(AtomicMeasure.point_mass(0.0), 1.0, 0.0)
        assert est.value == pytest.approx(1.0 / math.pi, abs=1e-6)

    def test_outside_support(self):
        est = density(AtomicMeasure.point_mass(0.0), 1.0, 3.0)
        assert est.value <= 1e-6

    def test_semicircle_profile(self):
        nu = AtomicMeasure.point_mass(0.0)
        for x in (-1.5, -0.5, 0.7, 1.9):
            expected = math.sqrt(max(4.0 - x * x, 0.0)) / (2.0 * math.pi)
            assert density(nu, 1.0, x).value == pytest.approx(expected, abs=1e-6)

    def test_normalization_two_atoms(self):
        nu = AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
        lo, hi = support_window(nu, 0.5)
        total, _ = integrate.quad(
            lambda x: density(nu, 0.5, x).value, lo, hi, limit=200,
            points=[-1.0, 1.0],
        )
        assert total == pytest.approx(1.0, abs=1e-4)


class TestBianeDensity:
    def test_cusp_regression(self):
        # the exact density vanishes at the cusp; the error must cover the value
        est = density(CUSP, 1.0, 0.0)
        assert est.value <= 1e-5
        assert est.value <= est.error

    @pytest.mark.parametrize("x", [-1.6, -0.7, 0.4, 1.3])
    def test_poisson_smoothing_is_stieltjes_inversion(self, x):
        # integral of rho(y) * eta / (pi ((y - x)^2 + eta^2)) dy = -Im G(x + i eta) / pi
        eta = 1e-2

        def kernel(y):
            return eta / math.pi / ((y - x) ** 2 + eta**2)

        g = solve_pastur(CUSP, 1.0, complex(x, eta)).G
        assert integrate_against_rho(CUSP, 1.0, kernel) == pytest.approx(-g.imag / math.pi, abs=1e-8)

    @pytest.mark.parametrize("v", [1.0, 0.5])  # one interval with a cusp; two intervals
    def test_total_mass(self, v):
        assert integrate_against_rho(CUSP, v, lambda x: 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_array_matches_scalar(self):
        xs = np.linspace(-3.0, 3.0, 13)
        est = density(CUSP, 0.5, xs)
        assert est.value.shape == xs.shape
        for x, value, error in zip(xs, est.value, est.error):
            scalar = density(CUSP, 0.5, x)
            assert (scalar.value, scalar.error) == (value, error)


def bisected_density(nu, t, x):
    """Density of nu boxplus sigma_t at a float x by plain-float bisection:
    v_t(u)^2 as the root s in [0, t] of t sum_i w_i / ((u - d_i)^2 + s) = 1
    and u as the root of psi_t(u) = x in [x - sqrt t, x + sqrt t], each to
    rounding by 64 halvings."""
    d, w = nu.locations.tolist(), nu.weights.tolist()

    def v2(u):
        a2 = [(u - di) ** 2 for di in d]
        if min(a2) > 0.0 and t * sum(wi / ai for wi, ai in zip(w, a2)) <= 1.0:
            return 0.0
        lo, hi = 0.0, t
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if t * sum(wi / (ai + mid) for wi, ai in zip(w, a2)) > 1.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def psi(u):
        s = v2(u)
        return u + t * sum(wi * (u - di) / ((u - di) ** 2 + s) for wi, di in zip(w, d))

    reach = math.sqrt(t) * (1.0 + 1e-9)
    lo, hi = x - reach, x + reach
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if psi(mid) < x:
            lo = mid
        else:
            hi = mid
    return math.sqrt(v2(0.5 * (lo + hi))) / (math.pi * t)


@st.composite
def density_cases(draw):
    """1 to 4 atoms, a variance, and points across and beyond the support."""
    n = draw(st.integers(1, 4))
    locations = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    nu = AtomicMeasure(np.array(locations), weights / weights.sum())
    t = draw(st.floats(0.05, 2.0))
    lo, hi = support_window(nu, t)
    xs = draw(st.lists(st.floats(lo - 0.5, hi + 0.5), min_size=1, max_size=6))
    return nu, t, xs


@settings(max_examples=60, deadline=None)
@example(case=(CUSP, 1.0, [0.0, 1e-12, -1e-9, 1e-6, -0.03, 0.5, 2.598]))
@example(case=(CUSP, 1.0005, [0.0, 1e-9, -1e-6, 0.01, -2.6]))
@example(case=(CUSP, 0.9995, [0.0, 1e-6, -0.01, 0.05]))
@given(case=density_cases())
def test_density_within_its_error_of_bisection(case):
    # the error covers how far the preimage can move; the value itself is
    # rounded, which the allowance of 16 eps of the value covers
    nu, t, xs = case
    est = density(nu, t, np.array(xs))
    for x, value, error in zip(xs, est.value, est.error):
        oracle = bisected_density(nu, t, x)
        rounding = 16 * np.finfo(float).eps * oracle
        assert abs(value - oracle) <= error + rounding, (x, value, oracle)


class TestSupportNodes:
    def test_semicircle_closed_forms(self):
        # at nu = delta_0, t = 1: u = x/2 on [-1, 1] and omega(x + i0) = (x + i sqrt(4 - x^2))/2
        s = np.linspace(-0.95, 0.95, 9)
        x, omega, omega1, dxds = support_nodes(AtomicMeasure.point_mass(0.0), 1.0, s)
        np.testing.assert_allclose(x, [2.0 * s], atol=1e-12)
        np.testing.assert_allclose(omega, [s + 1j * np.sqrt(1.0 - s * s)], atol=1e-12)
        np.testing.assert_allclose(omega1, 1.0 / (1.0 - omega**-2), rtol=1e-12)
        np.testing.assert_allclose(dxds, 2.0, rtol=1e-12)

    def test_cusp_splits_the_support(self):
        x, omega, _, _ = support_nodes(CUSP, 1.0, np.array([-1.0, 1.0]))
        assert omega.shape == (2, 2)
        assert omega[0, 1].real == pytest.approx(0.0, abs=1e-12)
        assert omega[1, 0].real == pytest.approx(0.0, abs=1e-12)
        # the support of (d-1 + d1)/2 boxplus s1 is [-3 sqrt(3)/2, 3 sqrt(3)/2]
        edge = 1.5 * math.sqrt(3.0)
        assert (x[0, 0], x[-1, -1]) == pytest.approx((-edge, edge))

    @pytest.mark.parametrize("nu,t", [(CUSP, 0.5), (CUSP, 1.0), (AtomicMeasure.from_atoms(
        [(-2.0, 0.3), (0.5, 0.2), (1.5, 0.5)]), 0.3)], ids=["gap", "cusp", "three_atoms"])
    def test_boundary_values_of_the_fixed_point(self, nu, t):
        s = np.linspace(-0.9, 0.9, 7)
        x, omega, omega1, dxds = support_nodes(nu, t, s)
        # omega(x + i0) solves x = omega + t G_nu(omega), and omega' = 1 / (1 + t G_nu'(omega));
        # the solver just above the axis picks the branch (near a cusp it is off by
        # omega' * 1e-10, which the nodes next to the cusp end make large)
        inv = 1.0 / (omega[..., None] - nu.locations)
        np.testing.assert_allclose(omega + t * np.sum(nu.weights * inv, axis=-1), x, atol=1e-12)
        np.testing.assert_allclose(omega1, 1.0 / (1.0 - t * np.sum(nu.weights * inv**2, axis=-1)),
                                   rtol=1e-9)
        sol = solve_pastur_array(nu, t, x + 1e-10j)
        np.testing.assert_allclose(omega, sol.omega, atol=1e-5)
        # dx/ds against a central difference of x along the nodes, whose rounding
        # is about eps |x| / h
        h = 1e-6
        slope = (support_nodes(nu, t, s + h)[0] - support_nodes(nu, t, s - h)[0]) / (2.0 * h)
        np.testing.assert_allclose(dxds, slope, rtol=1e-7, atol=1e-9)


class TestGaussKronrod:
    def test_kronrod_rule_exact_to_degree_31(self):
        for k in range(32):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert np.sum(_KRONROD * _NODES**k) == pytest.approx(exact, abs=1e-14)

    def test_embedded_rule_is_gauss_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        embedded = _GAUSS > 0.0
        np.testing.assert_allclose(_NODES[embedded], nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(_GAUSS[embedded], weights, rtol=0, atol=1e-15)

    def test_adaptive_endpoint_singularity(self):
        value, error = gauss_kronrod(np.sqrt, [0.0], [1.0], epsabs=1e-10, epsrel=1e-10, limit=300)
        assert abs(value - 2.0 / 3.0) <= 1e-10
        assert error <= 1e-10

    def test_union_of_intervals(self):
        value, _ = gauss_kronrod(np.cos, [0.0, 2.0], [1.0, 3.0], epsabs=1e-12, epsrel=1e-12,
                                 limit=50)
        assert value == pytest.approx(math.sin(1.0) + math.sin(3.0) - math.sin(2.0), abs=1e-12)


class TestIntegrateAgainstRho:
    def test_total_mass(self):
        nu = AtomicMeasure.point_mass(0.0)
        assert integrate_against_rho(nu, 1.0, lambda x: 1.0) == pytest.approx(1.0, abs=1e-4)

    def test_odd_function_vanishes(self):
        nu = AtomicMeasure.point_mass(0.0)
        assert integrate_against_rho(nu, 1.0, lambda x: x) == pytest.approx(0.0, abs=1e-4)

    def test_second_moment_is_variance(self):
        nu = AtomicMeasure.point_mass(0.0)
        assert integrate_against_rho(nu, 1.0, lambda x: x * x) == pytest.approx(1.0, abs=1e-3)

    @staticmethod
    def jagged(k):
        """A piecewise-linear function on k points of [-2.5, 2.5] that jumps
        by 1 between neighbours: its k - 2 kinks are what the quadrature must
        resolve. Returns the grid and the function."""
        xs = np.linspace(-2.5, 2.5, k)
        return xs, testfn.from_grid(xs, np.abs(np.sin(7 * xs)) + np.arange(k) % 2, "jagged")

    @staticmethod
    def oracle(xs, phi, nodes, tol):
        """The integral of phi against the density of CUSP boxplus s1 by
        Gauss-Legendre in x between consecutive grid points: ``nodes`` nodes
        on each piece, checked against nodes - 2 to ``tol``. The grid is split
        at the cusp at 0, and the two pieces that end there get 20 nodes in
        s, x = x_far s^3, under which the density's |x|^(1/3) is smooth."""
        ends = np.union1d(xs, [0.0])
        a, b = ends[:-1], ends[1:]
        cusp = (a == 0.0) | (b == 0.0)
        far = np.where(a[cusp] == 0.0, b[cusp], a[cusp])

        def legendre(n, start, stop, power):
            s, w = np.polynomial.legendre.leggauss(n)
            s, w = 0.5 * (s[:, None] + 1.0), 0.5 * w[:, None]
            x = start + (stop - start) * s**power
            dx = power * np.abs(stop - start) * s ** (power - 1)
            return float(np.sum(density(CUSP, 1.0, x).value * phi(x) * dx * w))

        at_cusp = legendre(20, 0.0, far, 3)
        coarse, fine = (legendre(n, a[~cusp], b[~cusp], 1) for n in (nodes - 2, nodes))
        assert abs(fine - coarse) < tol
        return fine + at_cusp

    def test_many_kinks_converge_to_the_target(self):
        # 250 intervals leave it 4e-5 off the oracle
        xs, phi = self.jagged(100)
        value = integrate_against_rho(CUSP, 1.0, phi)
        assert abs(value - self.oracle(xs, phi, 8, 1e-10)) <= 1e-8

    def test_unresolved_kinks_raise(self):
        xs, phi = self.jagged(400)
        with pytest.raises(AccuracyError, match="at 2000 intervals") as err:
            integrate_against_rho(CUSP, 1.0, phi)
        # the value it refused is off by more than the target
        refused = float(str(err.value).split(": ")[1].split(" ")[0])
        assert abs(refused - self.oracle(xs, phi, 6, 1e-9)) > 1e-7
