import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerlab import ensemble
from wignerlab.ensemble import (
    Discrete,
    Gaussian,
    EnsembleParams,
    choose_delta,
    deformation_from_config,
    law_from_config,
    sample,
    truncate_center_homogenize,
    truncated_moments,
)
from wignerlab.errors import DegenerateTruncationError, ParameterError
from wignerlab.theory import FluctuationParams, beta, gamma_kernel


def make_params(n=100, law="gaussian_complex", atoms=None, **kw):
    if atoms is None:
        atoms = np.zeros(n)
    return EnsembleParams.create(n, law, atoms, **kw)


def custom_law(offdiag, diag):
    """custom_discrete law from [re, im, weight] triples and [value, weight] pairs."""
    return law_from_config({"name": "custom_discrete", "offdiag": offdiag, "diag": diag})


PM1_HALVES = [[1.0, 0.5], [-1.0, 0.5]]


class TestEntryLawMoments:
    # analytic (tau, kappa) for each named law, derived from the moment
    # definitions: tau = sigma2 * E[u^2], kappa = sigma2^2 (E|u|^4 - 2 - E[u^2]^2)
    @pytest.mark.parametrize(
        "law,tau,kappa",
        [
            ("gaussian_complex", 0.0, 0.0),
            ("gaussian_real", 1.0, 0.0),
            ("rademacher_real", 1.0, -2.0),
            ("rademacher_complex_four_point", 0.0, -1.0),
        ],
    )
    def test_named_law_tau_kappa(self, law, tau, kappa):
        p = make_params(50, law)
        assert p.tau == pytest.approx(tau, abs=1e-12)
        assert p.kappa == pytest.approx(kappa, abs=1e-12)

    @pytest.mark.parametrize(
        "law,sigma2",
        [
            ("gaussian_complex", 1.7),
            ("gaussian_real", 0.6),
            ("rademacher_real", 2.3),
            ("rademacher_complex_four_point", 1.1),
        ],
    )
    def test_scaled_moments_match_implied_values(self, law, sigma2):
        p = make_params(64, law, sigma2=sigma2)
        u_sq = p.entry_law.offdiag_sq()
        u_abs4 = p.entry_law.offdiag_abs4()
        # E|W|^2 = sigma_n2, E W^2 = tau_n, E|W|^4 = m_n by construction
        assert abs(p.tau_n - p.sigma_n2 * u_sq) <= 1e-12 * max(1.0, abs(p.tau_n))
        m_n_law = p.sigma_n2**2 * u_abs4
        assert abs(p.m_n - m_n_law) <= 1e-12 * max(1.0, abs(p.m_n))

    def test_custom_discrete_matches_rademacher(self):
        law = custom_law([[1.0, 0.0, 0.5], [-1.0, 0.0, 0.5]], PM1_HALVES)
        assert law.offdiag_sq() == 1.0
        assert law.offdiag_abs4() == 1.0
        p = make_params(30, law)
        assert p.tau == 1.0 and p.kappa == -2.0

    def test_custom_discrete_rejects_biased_support(self):
        with pytest.raises(ParameterError):
            custom_law([[1.0, 0.0, 1.0]], PM1_HALVES)

    @pytest.mark.parametrize("offdiag,diag,match", [
        ([[1.0, 0.0, 0.6], [-1.0, 0.0, 0.6]], PM1_HALVES, "weights must be positive"),
        ([[1.0, 0.0, 1.5], [-1.0, 0.0, -0.5]], PM1_HALVES, "weights must be positive"),
        ([[2.0, 0.0, 0.5], [-2.0, 0.0, 0.5]], PM1_HALVES, "second moment"),
        # u = +-e^{i pi/4}: E u^2 = i
        ([[0.5**0.5, 0.5**0.5, 0.5], [-0.5**0.5, -0.5**0.5, 0.5]], PM1_HALVES, "must be real"),
        ([[1.0, 0.0, 0.5], [-1.0, 0.0, 0.5]], [[2.0, 0.5], [-2.0, 0.5]], "diagonal law"),
        ([[1.0, 0.0, 0.5], [-1.0, 0.0, 0.5]], [[1.0, 1.0]], "diagonal law"),
    ])
    def test_custom_discrete_rejects_bad_weights_and_moments(self, offdiag, diag, match):
        with pytest.raises(ParameterError, match=match):
            custom_law(offdiag, diag)

    def test_weightless_law_needs_unit_modulus_support(self):
        # the preset truncation closed form assumes every point has modulus 1
        with pytest.raises(ParameterError):
            Discrete("two_point", (-2.0, 2.0), (-1.0, 1.0))

    @staticmethod
    def config(law, **stated):
        return {"n": 20, "entry_law": law, "deformation": {"quantile_spec": {"kind": "zero"}},
                **stated}

    def test_inconsistent_tau_rejected(self):
        with pytest.raises(ParameterError, match="tau=0.5 inconsistent"):
            EnsembleParams.from_config(self.config("gaussian_complex", tau=0.5))

    def test_inconsistent_kappa_rejected(self):
        with pytest.raises(ParameterError, match="kappa=0.0 inconsistent"):
            EnsembleParams.from_config(self.config("rademacher_real", kappa=0.0))

    def test_goe_default_diagonal_scale(self):
        assert make_params(20, "gaussian_real").s2 == 2.0
        assert make_params(20, "gaussian_real", s2=1.3).s2 == 1.3
        assert make_params(20, "gaussian_complex").s2 == 1.0


class TestSampling:
    def test_determinism(self):
        p = make_params(24)
        a = sample(p, 123, 7)
        b = sample(p, 123, 7)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.seed_path == (123, 7)
        assert a.params is p

    def test_different_indices_differ(self):
        p = make_params(24)
        assert not np.array_equal(sample(p, 123, 0).matrix, sample(p, 123, 1).matrix)

    @pytest.mark.parametrize(
        "law", ["gaussian_complex", "gaussian_real", "rademacher_real",
                "rademacher_complex_four_point"]
    )
    def test_exact_hermiticity(self, law):
        p = make_params(40, law, atoms=np.linspace(-1, 1, 40))
        m = sample(p, 5, 0).matrix
        assert np.max(np.abs(m - m.conj().T)) == 0.0

    def test_rademacher_entries_exact_two_point(self):
        # sigma_n = sqrt(1/100) = 0.1 exactly representable
        p = make_params(100, "rademacher_real")
        smp = sample(p, 11, 0)
        off = smp.matrix[np.triu_indices(100, k=1)]
        assert set(np.unique(off)) == {-0.1, 0.1}

    def test_deformation_placed_sorted(self):
        atoms = np.array([3.0, -1.0, 2.0, 0.0])
        p = EnsembleParams.create(4, "rademacher_real", atoms, sigma2=1e-12, s2=1e-12)
        smp = sample(p, 0, 0)
        diag = np.real(np.diag(smp.matrix))
        assert np.all(np.diff(diag) > 0)  # sorted, tiny noise cannot reorder

    def test_offdiagonal_second_moment_lln(self):
        # law of large numbers on the sampler: mean |W_ij|^2 within 5 SE of 1/N
        n = 1000
        p = make_params(n, "gaussian_complex")
        smp = sample(p, 77, 0)
        off = np.abs(smp.matrix[np.triu_indices(n, k=1)]) ** 2
        mean = off.mean()
        se = off.std(ddof=1) / math.sqrt(off.size)
        assert abs(mean - 1.0 / n) <= 5 * se

    def test_quadratic_form_sanity(self):
        # E[C* A C] = sigma_n2 Tr A for a fixed deterministic A
        n = 40
        p = make_params(n, "gaussian_complex")
        rng = np.random.default_rng(3)
        a = rng.standard_normal((n - 1, n - 1))
        a = 0.5 * (a + a.T)
        draws = 10_000
        law = p.entry_law
        sigma_n = math.sqrt(p.sigma_n2)
        gen = np.random.Generator(np.random.Philox(1234))
        cols = law.sample_offdiag(gen, (draws, n - 1)) * sigma_n
        vals = np.real(np.einsum("mi,ij,mj->m", np.conj(cols), a, cols))
        se = vals.std(ddof=1) / math.sqrt(draws)
        assert abs(vals.mean() - p.sigma_n2 * np.trace(a)) <= 5 * se

    def test_deformation_count_mismatch(self):
        with pytest.raises(ParameterError):
            make_params(10, atoms=np.zeros(9))

    def test_deformation_bound(self):
        with pytest.raises(ParameterError):
            make_params(4, atoms=np.array([0.0, 0.0, 0.0, 1e6]))

    @pytest.mark.parametrize("n,atoms,match", [
        (0, [], "n must be a positive integer"),
        (-3, [], "n must be a positive integer"),
        (2, [0.0, np.nan], "must be finite"),
        (2, [-np.inf, 0.0], "must be finite"),
    ])
    def test_invalid_params_rejected(self, n, atoms, match):
        with pytest.raises(ParameterError, match=match):
            make_params(n, atoms=np.array(atoms))

    @pytest.mark.parametrize("delta", [0.0, -0.5, np.nan])
    def test_truncation_level_must_be_positive(self, delta):
        with pytest.raises(ParameterError, match="delta_n must be positive"):
            truncated_moments(make_params(8), delta)


class TestTruncation:
    def test_identity_when_support_inside_level(self):
        p = make_params(100, "rademacher_real")
        smp = sample(p, 7, 0)
        out = truncate_center_homogenize(smp, 0.5)
        assert out is smp  # exact no-op

    def test_gaussian_real_bounded_by_two_delta(self):
        n = 500
        p = make_params(n, "gaussian_real")
        smp = sample(p, 3, 0)
        delta = n ** -0.25
        out = truncate_center_homogenize(smp, delta)
        w = out.matrix - np.diag(p.deformation)
        assert np.max(np.abs(w)) <= 2.0 * delta
        assert np.max(np.abs(out.matrix - out.matrix.conj().T)) == 0.0

    def test_variance_restored(self):
        # after homogenization the law-level variance is exactly sigma_n2
        n = 400
        p = make_params(n, "gaussian_real")
        delta = 0.08
        mean, var = p.entry_law.truncated_offdiag(math.sqrt(p.sigma_n2), delta)
        assert mean == 0.0
        assert 0 < var < p.sigma_n2
        smp = sample(p, 9, 0)
        out = truncate_center_homogenize(smp, delta)
        off = out.matrix[np.triu_indices(n, k=1)]
        emp = np.mean(np.abs(off) ** 2)
        se = np.std(np.abs(off) ** 2, ddof=1) / math.sqrt(off.size)
        assert abs(emp - p.sigma_n2) <= 5 * se

    def test_degenerate_truncation_raises(self):
        p = make_params(100, "rademacher_real")
        smp = sample(p, 7, 0)
        with pytest.raises(DegenerateTruncationError):
            truncate_center_homogenize(smp, 0.05)  # below sigma_n = 0.1

    def test_complex_gaussian_truncated_second_moment(self):
        # closed form: E|W|^2 1_{|W|<=delta} = s^2 (1 - e^-u (1+u)), u = delta^2/s^2
        law = law_from_config("gaussian_complex")
        sigma_n, delta = 0.1, 0.15
        _, var = law.truncated_offdiag(sigma_n, delta)
        u = (delta / sigma_n) ** 2
        assert var == pytest.approx(sigma_n**2 * (1 - math.exp(-u) * (1 + u)), rel=1e-14)
        # Monte Carlo corroboration
        rng = np.random.default_rng(0)
        w = law.sample_offdiag(rng, 200_000) * sigma_n
        kept = np.where(np.abs(w) <= delta, np.abs(w) ** 2, 0.0)
        assert abs(kept.mean() - var) <= 5 * kept.std(ddof=1) / math.sqrt(kept.size)


class TestChooseDelta:
    def test_value_at_eight(self):
        assert choose_delta(8) == pytest.approx(1.0 / math.log(8.0), rel=1e-15)
        assert choose_delta(8) == pytest.approx(0.481, abs=5e-4)

    def test_decreasing(self):
        vals = [choose_delta(n) for n in range(2, 200)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_slower_than_any_power(self):
        # the local decay exponent -dlog(delta)/dlog(N) = 1/log N falls toward 0,
        # so delta eventually beats N^-eps for every eps; for eps = 0.2 the
        # growth of N^eps * delta_N is already visible past N = e^(1/eps)
        ns = np.unique(np.logspace(1, 6, 200).astype(int))
        deltas = np.array([choose_delta(int(n)) for n in ns])
        local_exponent = -np.diff(np.log(deltas)) / np.diff(np.log(ns))
        assert np.all(np.diff(local_exponent) < 1e-12)
        assert local_exponent[-1] < 0.08
        eps = 0.2
        tail = ns > math.e ** (1.0 / eps) * 1.5
        growth = ns[tail] ** eps * deltas[tail]
        assert np.all(np.diff(growth) > 0)

    def test_small_n_rejected(self):
        with pytest.raises(ParameterError):
            choose_delta(1)


class TestConfigRoundTrip:
    def test_params_config_round_trip(self):
        p = make_params(12, "rademacher_real", atoms=np.linspace(-1, 1, 12), sigma2=1.5)
        q = EnsembleParams.from_config(p.config())
        assert q.digest() == p.digest()
        assert np.array_equal(q.deformation, p.deformation)

    def test_custom_law_round_trip(self):
        law = custom_law(
            [[1.0, 0.0, 0.25], [-1.0, 0.0, 0.25], [0.0, 1.0, 0.25], [0.0, -1.0, 0.25]],
            PM1_HALVES,
        )
        p = make_params(8, law)
        q = EnsembleParams.from_config(p.config())
        assert q.digest() == p.digest()
        assert isinstance(q.entry_law, Discrete) and q.entry_law.name == "custom_discrete"

    def test_quantile_specs(self):
        two = deformation_from_config({"quantile_spec": {"kind": "two_point", "a": -1, "b": 1}}, 10)
        assert (two == -1).sum() == 5 and (two == 1).sum() == 5
        zero = deformation_from_config({"quantile_spec": {"kind": "zero"}}, 7)
        assert np.all(zero == 0)
        uni = deformation_from_config({"quantile_spec": {"kind": "uniform", "a": 0, "b": 1}}, 4)
        assert uni.tolist() == [0.125, 0.375, 0.625, 0.875]

    def test_unknown_law_rejected(self):
        with pytest.raises(ParameterError):
            law_from_config("levy_stable")


def test_four_point_law_support():
    law = law_from_config("rademacher_complex_four_point")
    rng = np.random.default_rng(1)
    vals = law.sample_offdiag(rng, 1000)
    assert set(np.unique(vals)) <= {1 + 0j, -1 + 0j, 1j, -1j}


def test_gaussian_real_law_is_real():
    law = law_from_config("gaussian_real")
    rng = np.random.default_rng(1)
    assert law.sample_offdiag(rng, 10).dtype == np.float64
    assert not law.is_complex


def test_rademacher_diag_law():
    law = law_from_config("rademacher_real")
    rng = np.random.default_rng(1)
    assert set(np.unique(law.sample_diag(rng, 500))) == {-1.0, 1.0}


# Recorded before the entry laws became data (Gaussian, Discrete): per law and
# n, params.digest(), then for sample indices 0 and 3 at master seed 2024 the
# first 16 hex digits of the sha256 of the sample matrix and of its truncation
# at choose_delta(n). n = 533 is one of the sizes where the generic discrete
# truncated variance is 1 ulp off the presets' closed form.
GOLDEN_LAWS = {
    "gaussian_complex": "gaussian_complex",
    "gaussian_real": "gaussian_real",
    "rademacher_real": "rademacher_real",
    "rademacher_complex_four_point": "rademacher_complex_four_point",
    "custom_weighted": {
        "name": "custom_discrete",
        "offdiag": [[0.5, 0.0, 0.2], [-0.5, 0.0, 0.2], [0.0, 0.5, 0.2], [0.0, -0.5, 0.2],
                    [2.0, 0.0, 0.05], [-2.0, 0.0, 0.05], [0.0, 2.0, 0.05], [0.0, -2.0, 0.05]],
        "diag": [[-2.0, 0.2], [0.5, 0.8]],
    },
    # equal explicit weights draw through p=weights, not like the preset
    "custom_equal": {
        "name": "custom_discrete",
        "offdiag": [[-1.0, 0.0, 0.5], [1.0, 0.0, 0.5]],
        "diag": [[-1.0, 0.5], [1.0, 0.5]],
    },
}
GOLDEN = {
    "gaussian_complex/30":
        "c5f2aafa210ff3df c6b974b0d1fcc1a9 56daa7ac8e7e2d9e 7541d42aa2fd62f3 6103e9cdda99c16b",
    "gaussian_complex/533":
        "1d9dcb39c9b33a2f ed8a80a6792eca2e 2890f478a0ae7c62 6ea54ed94585d48c a1ca01209b42d9f3",
    "gaussian_real/30":
        "8f6da60e85fb0ff4 073791615a2dbc17 55704b7f547aaa15 67e683f76839b56d abec33aaa5e696f4",
    "gaussian_real/533":
        "5c25e52e5c0f0972 6dcf5e75c71e8087 a64dbbf6d4e1f2dc 9318672dfefea0fd 4681df55e6dce84e",
    "rademacher_real/30":
        "aeadf8567d4047a5 6f78181b3283962c 6f78181b3283962c e23c6c10ccf9de60 e23c6c10ccf9de60",
    "rademacher_real/533":
        "50965b97355f79c0 c3623ca5af52d95d c3623ca5af52d95d 61fd66d248109b07 61fd66d248109b07",
    "rademacher_complex_four_point/30":
        "6d24d5c7bfa10390 c59f864d7b36778d c59f864d7b36778d 05caabc4964bc8b0 05caabc4964bc8b0",
    "rademacher_complex_four_point/533":
        "b86c9b759bd29db8 66a40b3d14b9be1e 66a40b3d14b9be1e bfe684ff0dfd070e bfe684ff0dfd070e",
    "custom_weighted/30":
        "696c334d76d61d7a d954ea0414c60a7f bc46bb4cfe952d59 95fdfe3c9261be49 94c4d13458f3ccdd",
    "custom_weighted/533":
        "3fbf591e4e5e5cb2 b8f080eda27eec95 b8f080eda27eec95 2378c50e2a8955c0 2378c50e2a8955c0",
    "custom_equal/30":
        "42912311967503d5 84591837b85e2b0b 84591837b85e2b0b bdade33889448609 bdade33889448609",
    "custom_equal/533":
        "4d1273f71c92630a c7e44ba89f9cd4ab c7e44ba89f9cd4ab e99ea867b67ecb9e e99ea867b67ecb9e",
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_digests_and_streams(key):
    name, n = key.split("/")
    n = int(n)
    atoms = np.where(np.arange(n) < n // 3, -1.0, 1.5)
    p = EnsembleParams.create(n, law_from_config(GOLDEN_LAWS[name]), atoms)

    def sha(a):
        return hashlib.sha256(a.tobytes()).hexdigest()[:16]

    got = [p.digest()]
    for i in (0, 3):
        smp = sample(p, 2024, i)
        got += [sha(smp.matrix), sha(truncate_center_homogenize(smp, choose_delta(n)).matrix)]
    assert " ".join(got) == GOLDEN[key]


DEFORMATIONS = {
    "zero": {"quantile_spec": {"kind": "zero"}},
    "two_point": {"quantile_spec": {"kind": "two_point", "a": -1.0, "b": 1.5, "weight_a": 0.3}},
    "uniform": {"quantile_spec": {"kind": "uniform", "a": -2.0, "b": 1.0}},
    "atoms": {"atoms": [0.7, -1.0, 0.0, 0.25, 0.25, 3.0, -0.5, 1.0, 2.0]},
}


@pytest.mark.parametrize("deformation", sorted(DEFORMATIONS))
@pytest.mark.parametrize("law", ["gaussian_complex", "gaussian_real", "rademacher_real",
                                 "rademacher_complex_four_point", "custom_weighted"])
def test_params_config_round_trip_keeps_the_theory(law, deformation):
    # compare rebuilds the ensemble of a report from its params_config, a
    # JSON copy of config(): the digest and the limit formulas keep their bits
    p = EnsembleParams.from_config({"n": 9, "sigma2": 1.5, "entry_law": GOLDEN_LAWS[law],
                                    "deformation": DEFORMATIONS[deformation]})
    q = EnsembleParams.from_config(json.loads(json.dumps(p.config())))
    assert q.digest() == p.digest()
    fp, fq = FluctuationParams.from_ensemble(p), FluctuationParams.from_ensemble(q)
    z = np.array([2j, 1.0 + 1j, -0.5 + 0.25j, 3.0 + 0.1j])
    z1, z2 = z[:, None], np.conj(z)[None, :]
    assert np.array_equal(beta(fp, z), beta(fq, z))
    assert np.array_equal(gamma_kernel(fp, z1, z2).gamma, gamma_kernel(fq, z1, z2).gamma)


# The assembly and truncation as they were before sampling went through one
# cached triangle mask, kept as references for the bits of the current code.
def reference_sample(params, master_seed, index):
    n = params.n
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=(int(master_seed), int(index)))))
    sigma_n = math.sqrt(params.sigma_n2)
    s_n = math.sqrt(params.s_n2)
    n_off = n * (n - 1) // 2
    law = params.entry_law
    if isinstance(law, Gaussian) and law.is_complex:
        re = rng.standard_normal(n_off)
        im = rng.standard_normal(n_off)
        off = (re + 1j * im) / math.sqrt(2.0) * sigma_n
    else:
        off = law.sample_offdiag(rng, n_off) * sigma_n
    diag = law.sample_diag(rng, n).real * s_n
    dtype = np.complex128 if law.is_complex else np.float64
    w = np.zeros((n, n), dtype=dtype)
    iu = np.triu_indices(n, k=1)
    w[iu] = off.astype(dtype)
    w[(iu[1], iu[0])] = np.conj(off).astype(dtype)
    w[np.diag_indices(n)] = diag + params.deformation
    return w


def reference_truncate(smp, delta_n):
    """The truncated matrix, or ``smp`` itself on the no-op path."""
    params = smp.params
    sigma_n = math.sqrt(params.sigma_n2)
    s_n = math.sqrt(params.s_n2)
    off_mean, off_var, diag_mean, diag_var = ensemble.truncated_moments(params, delta_n)
    w = smp.matrix - np.diag(params.deformation)
    off_scale = sigma_n / math.sqrt(off_var)
    diag_scale = s_n / math.sqrt(diag_var)
    if abs(off_scale - 1.0) < 5e-16:
        off_scale = 1.0
    if abs(diag_scale - 1.0) < 5e-16:
        diag_scale = 1.0
    if (off_mean == 0.0 and diag_mean == 0.0 and off_scale == 1.0 and diag_scale == 1.0
            and float(np.max(np.abs(w))) <= delta_n):
        return smp
    mean_off = off_mean if params.entry_law.is_complex else off_mean.real
    hat = np.where(np.abs(w) <= delta_n, w, w.dtype.type(0))
    out = (hat - mean_off) * off_scale
    diag = (np.real(np.diag(hat)) - diag_mean) * diag_scale
    out[np.diag_indices(smp.n)] = diag + params.deformation
    iu = np.triu_indices(smp.n, k=1)
    out[(iu[1], iu[0])] = np.conj(out[iu])
    return out


# 2i at weight 0.05 and +-a - ci at 0.475 each: mean 0, real E u^2, and
# cutting 2i leaves a purely imaginary truncated mean
_C = 0.1 / 0.95
_A = math.sqrt(0.8 / 0.95 - _C**2)
REFERENCE_LAWS = {
    **{name: name for name in ("gaussian_complex", "gaussian_real", "rademacher_real",
                               "rademacher_complex_four_point")},
    "custom_weighted_complex": GOLDEN_LAWS["custom_weighted"],
    "custom_equal_real": GOLDEN_LAWS["custom_equal"],
    "custom_imaginary_mean": {
        "name": "custom_discrete",
        "offdiag": [[0.0, 2.0, 0.05], [_A, -_C, 0.475], [-_A, -_C, 0.475]],
        "diag": PM1_HALVES,
    },
}


def truncated_or_error(fn, smp, delta):
    try:
        return fn(smp, delta)
    except DegenerateTruncationError as exc:
        return type(exc)


@settings(max_examples=120)
@given(
    n=st.integers(1, 48),
    law=st.sampled_from(sorted(REFERENCE_LAWS)),
    seed=st.integers(0, 2**31 - 1),
    index=st.integers(0, 1000),
    spread=st.floats(0.0, 3.0),
)
def test_sample_and_truncation_equal_the_references(n, law, seed, index, spread):
    atoms = spread * np.cos(np.arange(n))
    p = EnsembleParams.create(n, law_from_config(REFERENCE_LAWS[law]), atoms)
    smp = sample(p, seed, index)
    want = reference_sample(p, seed, index)
    assert smp.matrix.dtype == want.dtype and smp.matrix.tobytes() == want.tobytes()

    sigma_n = math.sqrt(p.sigma_n2)
    # the schedule, a level cutting most entries, a level between the two
    # smallest discrete moduli, and one past every entry (the no-op path)
    deltas = [0.3 * sigma_n, 0.9 * sigma_n, 1e3] + ([choose_delta(n)] if n >= 2 else [])
    for delta in deltas:
        got = truncated_or_error(truncate_center_homogenize, smp, delta)
        ref = truncated_or_error(reference_truncate, smp, delta)
        if isinstance(ref, type):
            assert got is ref
        elif ref is smp:
            assert got is smp
        else:
            assert got.matrix.dtype == ref.dtype and got.matrix.tobytes() == ref.tobytes()
    if law in ("gaussian_complex", "gaussian_real"):
        assert truncate_center_homogenize(smp, 1e3) is smp


def test_triangle_mask_is_built_once_per_n(monkeypatch):
    builds = []
    for name in ("triu", "tril", "tri", "triu_indices", "tril_indices", "diag_indices", "diag"):
        original = getattr(np, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            builds.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    ensemble.strict_upper.cache_clear()
    for n in (17, 23):
        p = make_params(n, "gaussian_real", atoms=np.linspace(-1, 1, n))
        for i in range(20):
            truncate_center_homogenize(sample(p, 5, i), choose_delta(n))
    assert len(builds) == 2
