import numpy as np
import pytest

from wignerlab import testfn


class TestEvaluation:
    def test_resolvent_at_zero(self):
        phi = testfn.resolvent(2j)
        assert complex(phi(0.0)) == pytest.approx(-0.5j)

    def test_real_pair_at_zero(self):
        phi = testfn.real_resolvent_pair(2j)
        assert float(phi(0.0)) == pytest.approx(0.0)

    def test_bump_outside_support(self):
        phi = testfn.smooth_bump(0.0, 1.0, 7)
        assert float(phi(2.0)) == 0.0
        assert float(phi(0.0)) == 1.0

    def test_real_pair_equals_conjugate_sum(self):
        z = 0.7 + 1.3j
        pair = testfn.real_resolvent_pair(z)
        xs = np.linspace(-5, 5, 101)
        direct = 1.0 / (z - xs) + 1.0 / (z.conjugate() - xs)
        assert np.max(np.abs(pair(xs) - direct.real)) < 1e-15
        assert np.max(np.abs(direct.imag)) < 1e-15

    def test_resolvent_requires_complex_z(self):
        with pytest.raises(ValueError):
            testfn.resolvent(1.0)

    def test_capped_polynomial_plateau(self):
        phi = testfn.capped_polynomial([1.0], (-1.0, 1.0), order=2, ramp=0.5)
        assert float(phi(0.0)) == pytest.approx(1.0)
        assert float(phi(-2.0)) == 0.0
        assert float(phi(2.0)) == 0.0

    def test_grid_function_interpolates(self):
        xs = np.linspace(-1, 1, 21)
        phi = testfn.from_grid(xs, xs**2, "sq")
        assert float(phi(0.5)) == pytest.approx(0.25, abs=5e-3)
        assert float(phi(3.0)) == 0.0

    @pytest.mark.parametrize("make,match", [
        (lambda: testfn.real_resolvent_pair(1.0), "requires Im z"),
        (lambda: testfn.smooth_bump(0.0, 0.0, 3), "width must be positive"),
        (lambda: testfn.smooth_bump(0.0, 1.0, -1), "order must be nonnegative"),
        (lambda: testfn.capped_polynomial([1.0], (1.0, -1.0)), "window must be increasing"),
        (lambda: testfn.capped_polynomial([1.0], (-1.0, 1.0), order=-1),
         "order must be nonnegative"),
        (lambda: testfn.capped_polynomial([], (-1.0, 1.0)), "coeffs must be a nonempty"),
        (lambda: testfn.from_grid([0.0], [1.0], "one"), "at least two samples"),
        (lambda: testfn.from_grid([0.0, 1.0], [1.0], "short"), "at least two samples"),
    ], ids=["pair-real-z", "bump-width", "bump-order", "poly-window", "poly-order",
            "poly-coeffs", "grid-one-point", "grid-mismatch"])
    def test_invalid_arguments_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    @pytest.mark.parametrize("xs", [[1.0, 0.0, -1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 1.0]])
    def test_grid_x_must_increase_strictly(self, xs):
        with pytest.raises(ValueError, match="strictly increasing"):
            testfn.from_grid(xs, [0.0, 1.0, 0.0], "unsorted")


class TestBumpSmoothness:
    @pytest.mark.parametrize("order", [2, 7])
    def test_derivatives_continuous_up_to_order(self, order):
        # one-sided j-th divided differences at the support boundary scale like
        # h^(order+1-j): halving h shrinks them for j <= order, while the
        # (order+1)-th difference stays put (the jump)
        phi = testfn.smooth_bump(0.0, 1.0, order)

        def onesided(j, h):
            xs = 1.0 - h * np.arange(j + 1)
            vals = phi(xs)
            for _ in range(j):
                vals = np.diff(vals) / (-h)
            return abs(vals[0])

        h = 1e-3
        for j in range(1, order + 1):
            ratio = onesided(j, h / 2) / onesided(j, h)
            assert ratio <= 0.75
        jump_ratio = onesided(order + 1, h / 2) / onesided(order + 1, h)
        assert jump_ratio >= 0.3

    def test_order_zero_bump_is_continuous_only(self):
        phi = testfn.smooth_bump(0.0, 1.0, 0)
        h = 1e-8
        assert float(phi(1.0 - h)) == pytest.approx(0.0, abs=1e-7)
        slope_in = (phi(1.0 - h) - phi(1.0 - 2 * h)) / h
        assert abs(slope_in) > 1e-9  # first derivative jumps


class TestRegistryAndSpecs:
    def test_from_spec_all_kinds(self):
        specs = [
            {"kind": "resolvent", "z": [0.0, 2.0]},
            {"kind": "real_resolvent_pair", "z": [1.0, 1.0]},
            {"kind": "smooth_bump", "center": 0.0, "width": 2.0, "order": 3},
            {"kind": "capped_polynomial", "coeffs": [0, 1], "window": [-1, 1]},
            {"kind": "grid", "x": [-1, 0, 1], "values": [0, 1, 0]},
        ]
        for spec in specs:
            phi = testfn.from_spec(spec)
            assert phi(np.array([0.0])).shape == (1,)

    def test_from_spec_unknown_kind(self):
        with pytest.raises(ValueError):
            testfn.from_spec({"kind": "wavelet"})

    def test_pole_metadata(self):
        z = 1 + 1j
        pair = testfn.real_resolvent_pair(z)
        assert pair.poles == ((z, 1.0 + 0.0j), (z.conjugate(), 1.0 + 0.0j))
        bump = testfn.smooth_bump(0.0, 1.0, 2)
        assert bump.poles is None
