import math

import numpy as np
import pytest

from wignerlab.ensemble import EnsembleParams, sample
from wignerlab.errors import DomainError
from wignerlab.spectral import (
    Spectrum,
    eigenvalues,
    linear_statistic,
    resolvent_identity_tolerance,
    trace_resolvent,
    verify_resolvent_identity,
    verify_schur,
)
from wignerlab import testfn


def gue_sample(n=50, seed=5, atoms=None):
    atoms = np.zeros(n) if atoms is None else atoms
    return sample(EnsembleParams.create(n, "gaussian_complex", atoms), seed, 0)


class TestEigenvalues:
    def test_diagonal(self):
        spec = eigenvalues(np.diag([1.0, -1.0]))
        assert spec.eigenvalues.tolist() == [-1.0, 1.0]

    def test_swap_matrix(self):
        spec = eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = 0.5 * (m + m.conj().T)
        evals, evecs = np.linalg.eigh(m)
        recomposed = evecs @ np.diag(evals) @ evecs.conj().T
        assert np.max(np.abs(recomposed - m)) < 1e-10
        spec = eigenvalues(m)
        assert np.allclose(spec.eigenvalues, np.sort(evals), atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_trace_consistency(self):
        smp = gue_sample(80)
        spec = eigenvalues(smp)
        scale = np.max(np.abs(spec.eigenvalues))
        assert abs(spec.eigenvalues.sum() - np.trace(smp.matrix).real) <= 1e-8 * 80 * scale


class TestTraceResolvent:
    def test_two_point_spectrum(self):
        # 1/(2i-1) + 1/(2i+1) = 4i/(-5) = -0.8i
        spec = Spectrum(np.array([1.0, -1.0]))
        assert trace_resolvent(spec, 2j) == pytest.approx(-0.8j)

    def test_zero_spectrum(self):
        spec = Spectrum(np.zeros(7))
        for z in (1 + 1j, 2j, -0.5 - 0.25j):
            assert trace_resolvent(spec, z) == pytest.approx(7.0 / z)

    def test_schwarz_reflection(self):
        spec = eigenvalues(gue_sample(30))
        for z in (2j, 1 + 1j, -2 + 0.3j):
            assert trace_resolvent(spec, z.conjugate()) == pytest.approx(
                trace_resolvent(spec, z).conjugate()
            )

    def test_norm_bound_and_sign(self):
        spec = eigenvalues(gue_sample(40))
        for z in (0.5j, 1 - 0.7j, 3 + 2j):
            tr = trace_resolvent(spec, z)
            assert abs(tr) <= 40 / abs(z.imag) + 1e-12
            assert math.copysign(1.0, tr.imag) == -math.copysign(1.0, z.imag)

    def test_imaginary_part_identity(self):
        # Im Tr R(z) = -Im z * sum |z - lambda|^-2, exactly
        spec = eigenvalues(gue_sample(40))
        for z in (2j, 1 + 0.5j, -1 - 0.8j):
            tr = trace_resolvent(spec, z)
            rhs = -z.imag * np.sum(1.0 / np.abs(z - spec.eigenvalues) ** 2)
            assert tr.imag == pytest.approx(rhs, rel=1e-10)

    def test_resolvent_norm_bound_per_eigenvalue(self):
        spec = eigenvalues(gue_sample(40))
        z = 0.3 + 0.4j
        assert np.all(np.abs(1.0 / (z - spec.eigenvalues)) <= 1.0 / abs(z.imag) + 1e-12)

    def test_real_z_rejected(self):
        with pytest.raises(DomainError):
            trace_resolvent(Spectrum(np.array([0.0])), 1.0)

    def test_scalar_z_gives_python_complex(self):
        spec = eigenvalues(gue_sample(20))
        assert type(trace_resolvent(spec, 1 + 1j)) is complex
        assert type(trace_resolvent(spec, np.complex128(2j))) is complex

    @pytest.mark.parametrize("n", [1, 7, 60, 400])
    def test_array_equals_scalar_calls_bitwise(self, n):
        spec = eigenvalues(gue_sample(n, atoms=np.linspace(-1, 1, n)))
        zs = np.array([2j, 1 + 1j, -1 + 0.5j, 0.3 - 0.1j, -2 - 3j, 1e-3j]).reshape(2, 3)
        tr = trace_resolvent(spec, zs)
        assert tr.shape == zs.shape and tr.dtype == np.complex128
        want = np.array([trace_resolvent(spec, complex(z)) for z in zs.ravel()]).reshape(2, 3)
        assert tr.tobytes() == want.tobytes()

    def test_real_z_in_array_is_named(self):
        spec = Spectrum(np.array([0.0, 1.0]))
        with pytest.raises(DomainError, match=r"z=\(0\.5\+0j\)"):
            trace_resolvent(spec, np.array([1j, 0.5, 2.0, 1 - 1j]))


class TestLinearStatistic:
    def test_constant(self):
        spec = Spectrum(np.linspace(-1, 1, 9))
        assert linear_statistic(spec, lambda x: np.ones_like(x)) == 9

    def test_identity_function_gives_trace(self):
        smp = gue_sample(30)
        spec = eigenvalues(smp)
        stat = linear_statistic(spec, lambda x: x)
        assert stat == pytest.approx(np.trace(smp.matrix).real, abs=1e-10)

    def test_resolvent_kernel_matches_trace_resolvent(self):
        spec = eigenvalues(gue_sample(30))
        z = 1 + 2j
        stat = linear_statistic(spec, testfn.resolvent(z))
        assert stat == pytest.approx(trace_resolvent(spec, z), rel=1e-14)

    def test_real_function_value_real(self):
        spec = eigenvalues(gue_sample(30))
        stat = linear_statistic(spec, testfn.real_resolvent_pair(2j))
        assert stat.imag == 0.0


class TestSchur:
    def test_two_by_two_exact(self):
        m = np.array([[1.0, 2.0], [2.0, -1.0]])
        rep = verify_schur(m, 1, 1j)
        assert rep.diag_residual <= 1e-12
        assert rep.trace_residual <= 1e-12

    def test_gue_sample(self):
        smp = gue_sample(50)
        rep = verify_schur(smp, 13, 0.5j)
        assert rep.ok

    def test_minor_trace_bound_many_samples(self):
        rng = np.random.default_rng(0)
        for i in range(20):
            smp = gue_sample(20, seed=i)
            z = complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.3, 2))
            k = int(rng.integers(0, 20))
            rep = verify_schur(smp, k, z)
            assert rep.ok
            assert rep.trace_gap <= 1.0 / abs(z.imag) + 1e-12

    def test_real_z_rejected(self):
        with pytest.raises(DomainError):
            verify_schur(np.eye(3), 0, 2.0)


class TestResolventIdentity:
    def test_same_matrix_same_point(self):
        m = np.diag([1.0, 2.0, 3.0])
        assert verify_resolvent_identity(m, m, 1j, 1j) == 0.0

    def test_zero_matrices_scalar_case(self):
        # both sides equal (z2 - z1)/(z1 z2) I
        z1, z2 = 1 + 1j, 2j
        residual = verify_resolvent_identity(np.zeros((4, 4)), np.zeros((4, 4)), z1, z2)
        assert residual <= 1e-15
        direct = 1.0 / z1 - 1.0 / z2
        assert direct == pytest.approx((z2 - z1) / (z1 * z2))

    def test_random_pair(self):
        rng = np.random.default_rng(5)
        m1 = rng.standard_normal((10, 10))
        m1 = 0.5 * (m1 + m1.T)
        m2 = m1 + 0.3 * np.diag(rng.standard_normal(10))
        z1, z2 = 0.7 + 0.9j, -1 + 0.6j
        assert verify_resolvent_identity(m1, m2, z1, z2) <= resolvent_identity_tolerance(z1, z2)


def test_lipschitz_trace_bound_arctan():
    # |Tr phi(M1) - Tr phi(M2)| <= sum |lambda_i(M1) - lambda_i(M2)| for 1-Lipschitz phi
    rng = np.random.default_rng(9)
    base = gue_sample(30, seed=1)
    for trial in range(5):
        pert = base.matrix + 0.1 * np.diag(rng.standard_normal(30))
        s1 = eigenvalues(base.matrix)
        s2 = eigenvalues(pert)
        lhs = abs(np.sum(np.arctan(s1.eigenvalues)) - np.sum(np.arctan(s2.eigenvalues)))
        rhs = np.sum(np.abs(s1.eigenvalues - s2.eigenvalues))
        assert lhs <= rhs + 1e-12
