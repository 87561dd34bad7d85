import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.fft import dct
from scipy.integrate import quad

from wignerlab import testfn
from wignerlab.errors import DomainError, ParameterError, RepresentationError, SingularityError
from wignerlab.freeconv import AtomicMeasure, solve_pastur, solve_pastur_array, support_nodes
from wignerlab.theory import (
    FluctuationParams,
    bao_xie_b0,
    bao_xie_c0,
    beta,
    beta_tilde,
    bias_bound,
    extend_bias,
    extend_variance,
    gamma_kernel,
    gamma_primitive,
    semicircle_transform,
)
from wignerlab.theory import _bias_primitive

DELTA0 = AtomicMeasure.point_mass(0.0)


def gue_params(nu=DELTA0):
    return FluctuationParams(sigma2=1.0, s2=1.0, tau=0.0, kappa=0.0, nu=nu)


def goe_params(nu=DELTA0):
    return FluctuationParams(sigma2=1.0, s2=2.0, tau=1.0, kappa=0.0, nu=nu)


def rademacher_params(nu=DELTA0):
    return FluctuationParams(sigma2=1.0, s2=1.0, tau=1.0, kappa=-2.0, nu=nu)


def random_param_draws(count, seed=20240817):
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        sigma2 = rng.uniform(0.5, 2.0)
        s2 = rng.uniform(0.5, 3.0)
        tau = rng.uniform(-1.0, 1.0) * sigma2
        kappa = rng.uniform(-1.5, 1.5) * sigma2**2
        z = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.5, 3.0))
        draws.append((sigma2, s2, tau, kappa, z))
    return draws


class TestBeta:
    def test_gue_bias_vanishes_identically(self):
        p = gue_params()
        for z in (2j, 1 + 1j, -1 + 0.5j, 3 - 2j):
            assert beta(p, z) == 0.0

    def test_goe_type_frozen_value(self):
        # hand derivation: beta = -G'(z) G(z) / (1 - G(z)^2) at sigma2=1;
        # with G(2i) = i(1 - sqrt(2)) this is 0.0517767j
        value = beta(goe_params(), 2j)
        assert value == pytest.approx(0.0517766952966369j, abs=1e-9)

    def test_goe_type_against_independent_closed_form(self):
        for z in (2j, 1 + 1j, -2 + 0.7j):
            g = semicircle_transform(z, 1.0)
            g1 = semicircle_transform(z, 1.0, 1)
            expected = -g1 * g / (1.0 - g * g)
            assert beta(goe_params(), z) == pytest.approx(expected, rel=1e-10)

    def test_beta_is_omega1_times_beta_tilde(self):
        p = rademacher_params(AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)]))
        for z in (2j, 1 + 1j, -0.5 + 0.8j):
            sol = solve_pastur(p.nu, p.sigma2, z)
            b, bt = beta(p, z), beta_tilde(p, z)
            assert b == pytest.approx(sol.omega1 * bt, rel=1e-12)

    def test_reflection(self):
        p = rademacher_params()
        for z in (2j, 1 + 1j):
            assert beta(p, z.conjugate()) == pytest.approx(beta(p, z).conjugate(), rel=1e-12)

    def test_dual_path_b0(self):
        for sigma2, s2, tau, kappa, z in random_param_draws(50):
            p = FluctuationParams(sigma2=sigma2, s2=s2, tau=tau, kappa=kappa, nu=DELTA0)
            direct = bao_xie_b0(sigma2, s2, tau, kappa, z)
            scale = max(abs(direct), 1e-12)
            assert abs(beta(p, z) - direct) / scale < 1e-9


class TestGammaKernel:
    def test_symmetry(self):
        p = rademacher_params(AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)]))
        pairs = [(2j, 1 + 1j), (0.5 + 0.7j, -1 - 0.6j), (3j, 3j)]
        for z1, z2 in pairs:
            a = gamma_kernel(p, z1, z2).gamma
            b = gamma_kernel(p, z2, z1).gamma
            assert a == pytest.approx(b, rel=1e-12)

    def test_tau_zero_drops_tau_terms(self):
        p = gue_params(AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)]))
        kv = gamma_kernel(p, 2j, 1 + 1j)
        # independent reassembly without any tau contribution
        s1 = solve_pastur(p.nu, p.sigma2, 2j)
        s2 = solve_pastur(p.nu, p.sigma2, 1 + 1j)
        w = p.nu.weights
        d1 = s1.omega - p.nu.locations
        d2 = s2.omega - p.nu.locations
        i00 = np.sum(w / (d1 * d2))
        di = -s1.omega1 * np.sum(w / (d1**2 * d2))
        dj = -s2.omega1 * np.sum(w / (d1 * d2**2))
        dij = s1.omega1 * s2.omega1 * np.sum(w / (d1**2 * d2**2))
        den = 1.0 - p.sigma2 * i00
        expected = p.sigma2 * dij / den + p.sigma2**2 * di * dj / den**2
        assert kv.gamma == pytest.approx(complex(expected), rel=1e-12)

    def test_dual_path_c0(self):
        draws = random_param_draws(50, seed=999)
        rng = np.random.default_rng(1)
        for sigma2, s2, tau, kappa, z1 in draws:
            z2 = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.5, 3.0))
            p = FluctuationParams(sigma2=sigma2, s2=s2, tau=tau, kappa=kappa, nu=DELTA0)
            direct = bao_xie_c0(sigma2, s2, tau, kappa, z1, z2)
            scale = max(abs(direct), 1e-12)
            assert abs(gamma_kernel(p, z1, z2).gamma - direct) / scale < 1e-9

    def test_mixed_finite_difference_of_primitive(self):
        p = rademacher_params(AtomicMeasure.from_atoms([(-1.0, 0.4), (0.5, 0.6)]))
        h = 1e-4
        points = [(2j, 1 + 1j), (1 + 2j, -1 + 1.5j), (0.5 + 0.9j, 0.5 - 0.9j)]
        for z1, z2 in points:
            fd = (
                gamma_primitive(p, z1 + h, z2 + h)
                - gamma_primitive(p, z1 + h, z2 - h)
                - gamma_primitive(p, z1 - h, z2 + h)
                + gamma_primitive(p, z1 - h, z2 - h)
            ) / (4 * h * h)
            kv = gamma_kernel(p, z1, z2)
            assert abs(kv.gamma - fd) / abs(kv.gamma) < 1e-5

    def test_reflection(self):
        p = goe_params()
        kv = gamma_kernel(p, 2j, 1 + 1j)
        kc = gamma_kernel(p, -2j, 1 - 1j)
        assert kc.gamma == pytest.approx(kv.gamma.conjugate(), rel=1e-12)

    def test_branch_margin_guard_interior(self):
        p = gue_params(AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)]))
        for z in (0.5j, 1 + 0.5j, 2 + 0.6j):
            kv = gamma_kernel(p, z, z.conjugate())
            assert abs(p.sigma2 * kv.I) < 1.0
            assert kv.valid

    def test_c0_conjugate_pair_real_positive(self):
        for z in (2j, 1 + 1j, -1 + 0.8j):
            c0 = bao_xie_c0(1.0, 2.0, 1.0, 0.0, z, z.conjugate())
            assert abs(c0.imag) < 1e-12 * abs(c0)
            assert c0.real > 0


class TestBiasBound:
    def params(self, n=500):
        atoms = np.concatenate([np.full(n // 2, -1.0), np.full(n - n // 2, 1.0)])
        return FluctuationParams(
            sigma2=1.0, s2=1.0, tau=0.0, kappa=0.0,
            nu=AtomicMeasure.from_values(atoms), mode="finite_N", n=n,
        )

    def test_nonnegative_and_decreasing_in_imz(self):
        p = self.params()
        values = [bias_bound(p, complex(1.0, y)) for y in (0.5, 1.0, 2.0, 4.0)]
        assert all(v >= 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_growth_rate_down_to_half(self):
        p = self.params()
        # along z = iy the bound is a polynomial of degree <= 5 in 1/y times
        # the diagonal sum; check the ratio stays within that envelope
        b_half = bias_bound(p, 0.5j)
        b_one = bias_bound(p, 1.0j)
        assert b_half / b_one <= 2.0**5 * 10.0

    def test_requires_finite_n_mode(self):
        with pytest.raises(ParameterError):
            bias_bound(gue_params(), 2j)


class TestExtendBias:
    def test_gue_zero(self):
        p = gue_params(AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)]))
        phi = testfn.real_resolvent_pair(2j)
        result = extend_bias(p, phi, window=(-60.0, 60.0))
        assert abs(result.value) <= 1e-4 + result.error

    def test_exact_span_combination(self):
        p = rademacher_params()
        z0 = 1.0 + 1.5j
        phi = testfn.real_resolvent_pair(z0)
        exact = (beta(p, z0) + beta(p, z0.conjugate())).real
        result = extend_bias(p, phi, window=(-60.0, 60.0))
        assert abs(result.value - exact) <= 1e-4 + result.error

    def test_linearity(self):
        p = rademacher_params()
        phi1 = testfn.real_resolvent_pair(2j)
        phi2 = testfn.real_resolvent_pair(1 + 1j)
        both = testfn.from_callable(lambda x: phi1(x) + phi2(x), "sum")
        w = (-60.0, 60.0)
        r1 = extend_bias(p, phi1, window=w)
        r2 = extend_bias(p, phi2, window=w)
        r12 = extend_bias(p, both, window=w)
        assert abs(r12.value - r1.value - r2.value) <= r1.error + r2.error + r12.error + 1e-6


def goe_bias(phi):
    """Limit GOE bias at nu = delta_0: (phi(2) + phi(-2))/4 - <phi(2 cos t)>_t / 2,
    the mean taken over t in [0, pi]."""
    mean, _ = quad(lambda t: float(phi(2.0 * math.cos(t))), 0.0, math.pi,
                   epsabs=1e-14, epsrel=1e-14, limit=200)
    return (float(phi(2.0)) + float(phi(-2.0))) / 4.0 - mean / (2.0 * math.pi)


@pytest.mark.parametrize("center,width", [(0.0, 1.5), (1.5, 1.0), (2.5, 1.0), (-1.9, 0.3),
                                          (1.8, 0.5), (0.3, 0.8)])
def test_extend_bias_error_covers_goe_closed_form(center, width):
    phi = testfn.smooth_bump(center, width, 7)
    got = extend_bias(goe_params(), phi)
    assert abs(got.value - goe_bias(phi)) <= min(got.error, 1e-10)


@pytest.mark.parametrize("phi,tol", [
    pytest.param(testfn.capped_polynomial([0.0, 0.0, 0.0, 0.0, 1.0], (-2.5, 2.5), order=7,
                                          ramp=1.0), 1e-10, id="capped_x4"),
    # measured 8.6e-12
    pytest.param(testfn.smooth_bump(0.3, 0.8, 2), 2e-11, id="bump_order2"),
])
def test_extend_bias_goe_closed_form_beyond_bumps(phi, tol):
    got = extend_bias(goe_params(), phi)
    assert abs(got.value - goe_bias(phi)) <= min(got.error, tol)


CUSP_NU = AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
THREE_ATOMS = AtomicMeasure.from_atoms([(-2.0, 0.3), (0.5, 0.2), (1.5, 0.5)])
# relative rounding of an exact-pole variance near the axis: up to 3e-13 at
# Im z = 0.1 against a 40-digit evaluation of the same formula
POLE_ROUNDING = 1e-12


@pytest.mark.parametrize("center", [0.0, 0.05])
def test_extend_bias_error_covers_quad_at_a_cusp(center):
    # nu = (delta_-1 + delta_1)/2 at sigma2 = 1: the density vanishes like
    # |x|^(1/3) at 0. Oracle: quad in x of phi'(x) Im B(x + i0) / pi, with
    # a break at the cusp and omega from the fixed point at Im z = 1e-12
    p = FluctuationParams(sigma2=1.0, s2=1.4, tau=0.6, kappa=-0.5, nu=CUSP_NU)
    width = 0.1

    def integrand(x):
        u = (x - center) / width
        slope = -16.0 * u / width * (1.0 - u * u) ** 7
        omega = solve_pastur_array(p.nu, p.sigma2, np.array([x + 1e-12j])).omega
        return slope * _bias_primitive(p, omega)[0].imag

    breaks = sorted({center - width, 0.0, center + width})
    oracle = sum(quad(integrand, a, b, epsabs=1e-13, epsrel=1e-10, limit=200)[0]
                 for a, b in zip(breaks, breaks[1:])) / math.pi
    got = extend_bias(p, testfn.smooth_bump(center, width, 7))
    assert abs(got.value - oracle) <= got.error


@pytest.mark.parametrize("sigma2", [1.0005, 1.000001, 0.9995])
def test_extend_bias_error_covers_quad_near_a_cusp(sigma2):
    # above sigma2 = 1 the density of (delta_-1 + delta_1)/2 boxplus s_sigma2 has a
    # small positive minimum at 0, and v_t branch points close to the axis there;
    # below it, a gap around 0. Oracle as at the cusp, with breaks at the gap's ends.
    p = FluctuationParams(sigma2=sigma2, s2=1.4, tau=0.6, kappa=-0.5, nu=CUSP_NU)
    width = 0.1

    def integrand(x):
        u = x / width
        slope = -16.0 * u / width * (1.0 - u * u) ** 7
        omega = solve_pastur_array(p.nu, p.sigma2, np.array([x + 1e-12j])).omega
        return slope * _bias_primitive(p, omega)[0].imag

    x = support_nodes(p.nu, p.sigma2, [-1.0, 1.0])[0]
    breaks = sorted({-width, width, *(e for e in x.ravel() if abs(e) < width)})
    oracle = sum(quad(integrand, a, b, epsabs=1e-13, epsrel=1e-10, limit=200)[0]
                 for a, b in zip(breaks, breaks[1:])) / math.pi
    got = extend_bias(p, testfn.smooth_bump(0.0, width, 7))
    assert abs(got.value - oracle) <= got.error


def test_extend_bias_window_must_contain_the_support():
    p = goe_params()
    phi = testfn.smooth_bump(0.0, 1.0, 7)
    assert extend_bias(p, phi, window=(-2.5, 2.5)) == extend_bias(p, phi)
    with pytest.raises(DomainError, match="does not contain the support"):
        extend_bias(p, phi, window=(-1.5, 3.0))


class TestNonFiniteParameters:
    @pytest.mark.parametrize("name", ["sigma2", "s2", "tau", "kappa"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejected(self, name, value):
        kw = dict(sigma2=1.0, s2=1.0, tau=0.0, kappa=0.0, nu=DELTA0)
        kw[name] = value
        with pytest.raises(ParameterError, match="finite"):
            FluctuationParams(**kw)


@pytest.mark.parametrize("edit,match", [
    ({"sigma2": 0.0}, "sigma2 must be positive"),
    ({"s2": -1.0}, "s2 must be positive"),
    ({"mode": "asymptotic"}, "mode must be"),
    ({"mode": "finite_N"}, "requires the dimension"),
    ({"mode": "finite_N", "n": 0}, "requires the dimension"),
])
def test_fluctuation_params_reject_invalid_values(edit, match):
    kw = {"sigma2": 1.0, "s2": 1.0, "tau": 0.0, "kappa": 0.0, "nu": DELTA0, **edit}
    with pytest.raises(ParameterError, match=match):
        FluctuationParams(**kw)


@pytest.mark.parametrize("z,order,match", [
    (1.0, 0, "off the real axis"),
    (np.array([2j, -0.5]), 1, "off the real axis"),
    (2j, 2, "order must be 0 or 1"),
])
def test_semicircle_transform_domain(z, order, match):
    with pytest.raises(ValueError, match=match):
        semicircle_transform(z, 1.0, order)


class TestExtendVariance:
    def test_exact_pair_formula(self):
        p = rademacher_params(AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)]))
        z = 1.0 + 1.2j
        phi = testfn.real_resolvent_pair(z)
        result = extend_variance(p, phi)
        g = lambda a, b: gamma_kernel(p, a, b).gamma
        expected = g(z, z) + 2.0 * g(z, z.conjugate()) + g(z.conjugate(), z.conjugate())
        assert abs(result.imag if hasattr(result, "imag") else 0.0) == 0.0
        assert result.value == pytest.approx(expected.real, rel=1e-12)
        assert result.error == 0.0

    def test_quadratic_scaling(self):
        p = gue_params()
        phi = testfn.smooth_bump(0.0, 1.5, 4)
        double = testfn.from_callable(lambda x: 2.0 * phi(x), "2bump")
        v1 = extend_variance(p, phi)
        v2 = extend_variance(p, double)
        assert v2.value == pytest.approx(4.0 * v1.value, rel=1e-9)

    def test_nonnegativity_on_fitted_suite(self):
        p = rademacher_params(AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)]))
        functions = [
            testfn.smooth_bump(0.0, 2.0, 3),
            testfn.smooth_bump(0.5, 1.0, 5),
            testfn.capped_polynomial([0.0, 1.0], (-2.0, 2.0), order=3),
        ]
        for phi in functions:
            res = extend_variance(p, phi)
            assert res.value >= -1e-8 * max(1.0, abs(res.value))

    def test_fit_recovers_exact_span_value(self):
        # a resolvent pair without its poles goes through the quadrature
        p = rademacher_params(AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)]))
        z0 = 0.4 + 0.8j
        pair = testfn.real_resolvent_pair(z0)
        exact = extend_variance(p, pair).value
        masked = testfn.from_callable(lambda x: pair(x), "masked_pair")
        fitted = extend_variance(p, masked)
        assert fitted.value == pytest.approx(exact, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("nu", [
        DELTA0,
        AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)]),
        AtomicMeasure.from_atoms([(-2.0, 0.3), (0.5, 0.2), (1.5, 0.5)]),
    ], ids=["delta0", "two_atoms", "three_atoms"])
    @pytest.mark.parametrize("s2,tau,kappa", [(1.0, 0.0, 0.0), (2.0, 1.0, 0.0), (1.0, 1.0, -2.0),
                                              (1.4, 0.6, -0.5), (0.7, -0.4, 1.2)])
    def test_fit_recovers_exact_pair_values(self, nu, s2, tau, kappa):
        p = FluctuationParams(sigma2=1.0, s2=s2, tau=tau, kappa=kappa, nu=nu)
        for z0 in (0.4 + 0.8j, 1.0 + 1.2j, -1.5 + 0.8j, 2.5 + 1.0j, -3.0 + 1.5j):
            pair = testfn.real_resolvent_pair(z0)
            masked = testfn.from_callable(lambda x: pair(x), "masked_pair")
            exact = extend_variance(p, pair).value
            got = extend_variance(p, masked)
            assert got.value == pytest.approx(exact, rel=1e-9, abs=1e-9)
            assert abs(got.value - exact) <= got.error + POLE_ROUNDING * exact

    @pytest.mark.parametrize("nu", [
        DELTA0,
        AtomicMeasure.from_atoms([(-0.9, 0.5), (0.9, 0.5)]),
        THREE_ATOMS,
        AtomicMeasure.from_atoms([(-3.0, 0.5), (3.0, 0.5)]),
        CUSP_NU,
    ], ids=["delta0", "pm0.9", "three_atoms", "gapped_pm3", "cusp"])
    def test_quadrature_matches_exact_pairs_near_the_axis(self, nu):
        # at Im z = 0.1 a pair is steep on the support: the hardest smooth case
        p = FluctuationParams(sigma2=1.0, s2=1.4, tau=0.6, kappa=-0.5, nu=nu)
        for z0 in (-2.5 + 0.1j, -0.5 + 0.1j, 0.95 + 0.1j, 1.5 + 0.3j):
            pair = testfn.real_resolvent_pair(z0)
            exact = extend_variance(p, pair).value
            got = extend_variance(p, testfn.from_callable(lambda x: pair(x), "masked_pair"))
            assert abs(got.value - exact) <= min(got.error, 1e-9 * exact) + POLE_ROUNDING * exact

    @pytest.mark.parametrize("sigma2", [1.0005, 1.000001, 0.9995])
    def test_quadrature_matches_exact_pairs_near_a_cusp(self, sigma2):
        # branch points of v_t close to the axis (above sigma2 = 1) or a narrow
        # gap (below it) at 0; a bump across 0 must converge as well
        p = FluctuationParams(sigma2=sigma2, s2=1.4, tau=0.6, kappa=-0.5, nu=CUSP_NU)
        for z0 in (0.1j, 0.05 + 0.1j, -0.5 + 0.1j, 0.3 + 0.5j):
            pair = testfn.real_resolvent_pair(z0)
            exact = extend_variance(p, pair).value
            got = extend_variance(p, testfn.from_callable(lambda x: pair(x), "masked_pair"))
            assert abs(got.value - exact) <= min(got.error, 1e-9 * exact) + POLE_ROUNDING * exact
        bump = extend_variance(p, testfn.smooth_bump(0.0, 0.1, 7))
        assert bump.value > 0.0 and bump.error <= 1e-9

    @pytest.mark.parametrize("z0", [-3.5 + 0.3j, -0.5 + 0.3j, -3.5 + 0.6j])
    def test_quadrature_matches_exact_pairs_where_the_fit_was_off(self, z0):
        # pairs near the left edge and in the bulk of a two-piece support
        p = gue_params(THREE_ATOMS)
        pair = testfn.real_resolvent_pair(z0)
        exact = extend_variance(p, pair).value
        got = extend_variance(p, testfn.from_callable(lambda x: pair(x), "masked_pair"))
        assert abs(got.value - exact) <= min(got.error, 1e-9 * exact) + POLE_ROUNDING * exact

    @pytest.mark.parametrize("phi,rel", [
        pytest.param(testfn.smooth_bump(0.0, 1.5, 7), 1e-10, id="bump_bulk"),
        pytest.param(testfn.smooth_bump(1.5, 1.0, 7), 1e-10, id="bump_right"),
        # measured 1.1e-10: the order-2 bump converges like n^-3
        pytest.param(testfn.smooth_bump(0.3, 0.8, 2), 2e-10, id="bump_order2"),
        pytest.param(testfn.smooth_bump(2.5, 1.0, 7), 1e-10, id="bump_past_edge"),
        pytest.param(testfn.smooth_bump(-1.9, 0.3, 7), 1e-10, id="bump_narrow_edge"),
        pytest.param(testfn.capped_polynomial([0.0, 0.0, 0.0, 0.0, 1.0], (-2.5, 2.5),
                                              order=7, ramp=1.0), 1e-10, id="capped_x4"),
        pytest.param(testfn.capped_polynomial([1.0, -2.0, 0.0, 3.0], (-2.5, 2.5),
                                              order=7, ramp=0.5), 1e-10, id="capped_cubic"),
    ])
    def test_semicircle_closed_form(self, phi, rel):
        # Johansson: with phi(2 cos t) = sum_k a_k cos kt, the limit variance
        # at nu = delta_0 is sum_k k a_k^2 / 4 for GUE and twice that for GOE;
        # the a_k come from the DCT of phi(2 cos t) at m midpoints t
        m = 1 << 14
        t = math.pi * (np.arange(m) + 0.5) / m
        a = dct(phi(2.0 * np.cos(t)), type=2) / m
        chebyshev = float(np.sum(np.arange(m) * a * a))
        for params, exact in ((gue_params(), chebyshev / 4), (goe_params(), chebyshev / 2)):
            got = extend_variance(params, phi)
            assert got.value == pytest.approx(exact, rel=rel)
            assert abs(got.value - exact) <= got.error

    def test_representation_error_for_rough_function(self):
        p = gue_params()
        indicator = testfn.from_callable(
            lambda x: np.where(np.abs(x) <= 1.0, 1.0, 0.0), "indicator")
        with pytest.raises(RepresentationError):
            extend_variance(p, indicator)


def test_guard_sigma2_I_below_one():
    # asymptotic well-definedness: |sigma2 * I(z, conj z)| < 1 for Im z >= 0.5
    configs = [
        gue_params(AtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])),
        rademacher_params(AtomicMeasure.from_atoms([(-2.0, 0.3), (1.0, 0.7)])),
        goe_params(),
    ]
    for p in configs:
        for re in np.linspace(-3, 3, 7):
            kv = gamma_kernel(p, complex(re, 0.5), complex(re, -0.5))
            assert abs(p.sigma2 * kv.I) < 1.0


def test_extend_variance_names_the_invalid_pair():
    # Im z = 1e-9 puts (z, conj z) inside KERNEL_MARGIN of the branch point
    p = gue_params()
    z = complex(0.0, 1e-9)
    with pytest.raises(SingularityError, match=r"at 1e-09j, -1e-09j"):
        extend_variance(p, testfn.real_resolvent_pair(z))


def test_gamma_primitive_names_the_pair_at_a_branch_point():
    p = gue_params()
    zs = np.array([2j, 1e-9j])
    with pytest.raises(SingularityError, match=r"at 1e-09j, -1e-09j"):
        gamma_primitive(p, zs, zs.conj())


# --------------------------------------------------------------- properties

def reference_gamma(p, z1, z2):
    """Reference kernel: one scalar solve per z and np.sum over the atoms per pair."""
    s1, s2 = solve_pastur(p.nu, p.sigma2, z1), solve_pastur(p.nu, p.sigma2, z2)
    inv1, inv2 = 1.0 / (s1.omega - p.nu.locations), 1.0 / (s2.omega - p.nu.locations)
    w = p.nu.weights
    i00 = complex(np.sum(w * inv1 * inv2))
    d1 = -s1.omega1 * complex(np.sum(w * inv1**2 * inv2))
    d2 = -s2.omega1 * complex(np.sum(w * inv1 * inv2**2))
    d12 = s1.omega1 * s2.omega1 * complex(np.sum(w * inv1**2 * inv2**2))
    den_s = 1.0 - p.sigma2 * i00
    den_t = 1.0 - p.tau * i00
    gamma = (p.s2 - p.sigma2 - p.tau) * d12
    gamma += p.kappa * (d1 * d2 + i00 * d12)
    gamma += p.sigma2 * d12 / den_s + p.sigma2**2 * d1 * d2 / den_s**2
    gamma += p.tau * d12 / den_t + p.tau**2 * d1 * d2 / den_t**2
    return gamma, min(abs(den_s), abs(den_t))


@st.composite
def fluctuation_params(draw, finite_n=False):
    n = draw(st.integers(1, 6))
    locations = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    sigma2 = draw(st.floats(0.5, 2.0))
    return FluctuationParams(
        sigma2=sigma2,
        s2=draw(st.floats(0.5, 3.0)),
        tau=draw(st.floats(-1.0, 1.0)) * sigma2,
        kappa=draw(st.floats(-1.5, 1.5)) * sigma2**2,
        nu=AtomicMeasure(np.array(locations), weights / weights.sum()),
        mode="finite_N" if finite_n else "limit",
        n=draw(st.integers(1, 1000)) if finite_n else None,
    )


@st.composite
def spectral_points(draw):
    """z above or below the real axis, at heights where the kernel is valid."""
    z = complex(draw(st.floats(-4.0, 4.0)), draw(st.floats(0.2, 3.0)))
    return z.conjugate() if draw(st.booleans()) else z


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


class TestKernelProperties:
    @given(fluctuation_params(), spectral_points(), spectral_points())
    def test_symmetric(self, p, z1, z2):
        assert _close(gamma_kernel(p, z1, z2).gamma, gamma_kernel(p, z2, z1).gamma, 1e-12)

    @given(fluctuation_params(), spectral_points(), spectral_points())
    def test_conjugation(self, p, z1, z2):
        kv = gamma_kernel(p, z1, z2)
        kc = gamma_kernel(p, z1.conjugate(), z2.conjugate())
        assert _close(kc.gamma, kv.gamma.conjugate(), 1e-12)

    @given(fluctuation_params(), st.lists(spectral_points(), min_size=1, max_size=6))
    def test_array_kernel_matches_scalar_reference(self, p, zs):
        z = np.array(zs)
        kv = gamma_kernel(p, z[:, None], z[None, :])
        assert kv.gamma.shape == kv.branch_margin.shape == (len(zs), len(zs))
        for j, z1 in enumerate(zs):
            for k, z2 in enumerate(zs):
                gamma, margin = reference_gamma(p, z1, z2)
                assert _close(kv.gamma[j, k], gamma, 1e-12)
                assert _close(kv.branch_margin[j, k], margin, 1e-12)
                assert kv.z1[j, k] == z1 and kv.z2[j, k] == z2

    @given(fluctuation_params(), spectral_points(), spectral_points())
    def test_scalar_kernel_is_a_python_number(self, p, z1, z2):
        kv = gamma_kernel(p, z1, z2)
        assert type(kv.gamma) is complex and type(kv.I) is complex
        assert type(kv.branch_margin) is float and type(kv.valid) is bool

    @given(fluctuation_params(finite_n=True), st.lists(spectral_points(), min_size=1, max_size=6))
    def test_array_bias_equals_scalar_calls(self, p, zs):
        z = np.array(zs).reshape(-1, 1)
        for fn in (beta, beta_tilde, bias_bound):
            values = fn(p, z)
            assert values.shape == z.shape
            for k, zk in enumerate(zs):
                scalar = fn(p, zk)
                assert type(scalar) is (float if fn is bias_bound else complex)
                assert values[k, 0] == scalar


@given(fluctuation_params(), spectral_points())
def test_bias_primitive_differentiates_to_beta(p, z):
    # fourth-order central differences along the real axis, step 1e-4
    h = 1e-4
    b = [_bias_primitive(p, p.solve(z + k * h).omega)[0] for k in (-2, -1, 1, 2)]
    derivative = (b[0] - 8.0 * b[1] + 8.0 * b[2] - b[3]) / (12.0 * h)
    expected = beta(p, z)
    assert abs(derivative - expected) <= 1e-9 * max(1.0, abs(expected))
