import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wignerlab import parallel, testfn
from wignerlab.ensemble import EnsembleParams, choose_delta, sample
from wignerlab.errors import ParameterError, SampleError
from wignerlab.freeconv import solve_pastur
from wignerlab.montecarlo import (
    EstimatorReport,
    ExperimentPlan,
    NORMALITY_MIN_SAMPLES,
    covariance_check,
    crude_variance_bound,
    normality_check,
    refined_variance_bound,
    run,
    truncation_drift,
    variance_bound_check,
)
from wignerlab.theory import FluctuationParams, beta


def two_point_params(n, law="gaussian_complex"):
    atoms = np.concatenate([np.full(n // 2, -1.0), np.full(n - n // 2, 1.0)])
    return EnsembleParams.create(n, law, atoms)


def small_plan(n=40, m=60, law="gaussian_complex", seed=7, **kw):
    return ExperimentPlan(
        params=two_point_params(n, law),
        n_samples=m,
        z_grid=(2j, 1 + 1j),
        master_seed=seed,
        **kw,
    )


def patch_eigenvalues(monkeypatch, index, action):
    """Run action() before the eigensolve of sample ``index``; forked workers inherit it."""
    import wignerlab.montecarlo as mc

    original = mc.eigenvalues

    def patched(smp, *a, **kw):
        if smp.seed_path[1] == index:
            action()
        return original(smp, *a, **kw)

    monkeypatch.setattr(mc, "eigenvalues", patched)


def synthetic_failure():
    raise ArithmeticError("synthetic failure")


class TestPlanValidation:
    def test_minimum_samples(self):
        with pytest.raises(ParameterError):
            small_plan(m=1)

    def test_empty_z_grid_rejected(self):
        with pytest.raises(ParameterError, match="nonempty"):
            ExperimentPlan(params=two_point_params(10), n_samples=5, z_grid=(), master_seed=0)

    def test_z_floor(self):
        with pytest.raises(ParameterError):
            ExperimentPlan(
                params=two_point_params(10), n_samples=5,
                z_grid=(0.05j,), master_seed=0,
            )

    def test_duplicate_test_function_ids_rejected(self):
        # one id would key both functions' samples and means, losing one of them
        bumps = (testfn.smooth_bump(0.0, 1.0, 3, "b"), testfn.smooth_bump(1.0, 1.0, 3, "b"))
        with pytest.raises(ParameterError, match="distinct"):
            small_plan(test_functions=bumps)

    def test_truncation_resolution(self):
        plan = small_plan(truncation="auto")
        assert plan.resolved_delta() == choose_delta(40)
        assert small_plan(truncation=0.25).resolved_delta() == 0.25
        assert small_plan().resolved_delta() is None


class TestDeterminism:
    def test_tiny_plan_reproducible_across_runs_and_threads(self):
        plan = ExperimentPlan(
            params=EnsembleParams.create(2, "gaussian_complex", np.zeros(2)),
            n_samples=2, z_grid=(2j,), master_seed=3,
        )
        blobs = {run(plan, threads=t).to_json() for t in (1, 8)}
        blobs.add(run(plan, threads=1).to_json())
        assert len(blobs) == 1

    def test_moderate_plan_thread_invariance(self):
        plan = small_plan(n=60, m=40)
        assert run(plan, threads=1).to_json() == run(plan, threads=8).to_json()

    def test_uneven_ranges_byte_identical_across_workers(self):
        # 7 samples split unevenly; the lambda would fail any attempt to pickle it
        phi = testfn.from_callable(lambda x: np.arctan(x), "arctan")
        plan = small_plan(n=30, m=7, test_functions=(phi,))
        assert len({run(plan, threads=t).to_json() for t in (1, 2, 8)}) == 1

    def test_workers_keep_the_callers_blas_threads(self):
        # at N=400 a complex eigensolve's bits depend on the BLAS thread count,
        # which this process may have set above one before the variable
        plan = small_plan(n=400, m=4)
        assert run(plan, threads=1).to_json() == run(plan, threads=2).to_json()

    def test_rows_land_at_their_index_when_early_samples_finish_last(self, monkeypatch):
        plan = small_plan(n=20, m=8)
        serial = run(plan).to_json()
        patch_eigenvalues(monkeypatch, 0, lambda: time.sleep(0.5))
        assert run(plan, threads=2).to_json() == serial

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("fail", [False, True])
    def test_map_pins_one_blas_thread_and_restores_the_callers(self, fail, threads):
        get_threads, set_threads = parallel._openblas()
        before = get_threads()
        set_threads(2)
        caller = get_threads()  # 2, or 1 where numpy bundles no OpenBLAS

        def per_sample(i):
            if fail and i == 3:
                raise SampleError("synthetic failure", index=i)
            return float(get_threads())

        try:
            if fail:
                with pytest.raises(SampleError):
                    parallel.map_samples(per_sample, 6, threads)
            else:
                assert parallel.map_samples(per_sample, 6, threads).tolist() == [1.0] * 6
            assert get_threads() == caller
        finally:
            set_threads(before)

    def test_report_round_trip_lossless(self):
        report = run(small_plan(), threads=2)
        clone = EstimatorReport.from_json(report.to_json())
        assert clone.to_json() == report.to_json()
        assert np.array_equal(clone.tr_samples, report.tr_samples)


class TestEstimators:
    def test_gue_bias_within_band(self):
        # vanishing-bias configuration at reduced scale
        plan = small_plan(n=150, m=500, seed=2024)
        report = run(plan, threads=4)
        for s in report.per_z:
            assert abs(s.bias_hat) <= 4.0 * s.se_mean + 10.0 / plan.params.n

    def test_rademacher_bias_matches_beta(self):
        n, m = 150, 600
        params = EnsembleParams.create(n, "rademacher_real", np.zeros(n))
        plan = ExperimentPlan(params=params, n_samples=m, z_grid=(2j,), master_seed=5)
        report = run(plan, threads=4)
        fp = FluctuationParams.from_ensemble(params)
        th = beta(fp, 2j)
        s = report.per_z[0]
        assert abs(s.bias_hat - th) <= 4.0 * s.se_mean + 5.0 / n

    def test_empirical_covariance_symmetry(self):
        report = run(small_plan(m=80))
        z1, z2 = report.z_grid
        # one value is stored per unordered pair, so symmetry is exact
        assert len([p for p in report.pairs if {p.z1, p.z2} == {z1, z2}]) == 1
        # and the estimator itself is numerically commutative to rounding
        u = report.tr_samples[:, 0] - report.tr_samples[:, 0].mean()
        w = report.tr_samples[:, 1] - report.tr_samples[:, 1].mean()
        a = np.sum(u * w) / (len(u) - 1)
        b = np.sum(w * u) / (len(u) - 1)
        assert abs(a - b) <= 1e-14 * abs(a)

    def test_omega_tilde_definition(self):
        report = run(small_plan(m=50))
        p = two_point_params(40)
        for s in report.per_z:
            assert s.omega_tilde == s.z - p.sigma_n2 * s.mean_tr

    def test_covariance_check_table(self):
        plan = small_plan(n=100, m=400, seed=31)
        report = run(plan, threads=4)
        fp = FluctuationParams.from_ensemble(plan.params)
        rows = covariance_check(report, fp, band=4.0)
        assert len(rows) == 3
        assert all(r["ok"] for r in rows)

    def test_sample_failure_aborts_with_index(self, monkeypatch):
        patch_eigenvalues(monkeypatch, 5, synthetic_failure)
        with pytest.raises(SampleError) as err:
            run(small_plan(m=8))
        assert err.value.index == 5

    def test_sample_failure_in_worker_process_aborts_with_index(self, monkeypatch):
        patch_eigenvalues(monkeypatch, 5, synthetic_failure)
        with pytest.raises(SampleError) as err:
            run(small_plan(m=8), threads=2)
        assert err.value.index == 5


class TestNormality:
    def test_requires_enough_samples(self):
        report = run(small_plan(m=50))
        with pytest.raises(ParameterError):
            normality_check(report)

    def test_constant_statistic_flagged_degenerate(self):
        const = testfn.from_callable(lambda x: np.ones_like(x), "one")
        plan = small_plan(n=10, m=NORMALITY_MIN_SAMPLES, test_functions=(const,))
        flagged = [s for s in normality_check(run(plan)) if s.stat_id == "one"]
        assert len(flagged) == 1 and flagged[0].degenerate

    def test_rows_cover_the_z_grid_and_real_test_functions(self):
        # a complex test function has no normality row
        fns = (testfn.resolvent(1 + 1j), testfn.smooth_bump(0.0, 1.0, 3, "bump"))
        report = run(small_plan(n=10, m=NORMALITY_MIN_SAMPLES, test_functions=fns))
        assert [s.stat_id for s in normality_check(report)] == [
            "re_tr_resolvent(0+2j)", "im_tr_resolvent(0+2j)", "re_tr_resolvent(1+1j)",
            "im_tr_resolvent(1+1j)", "bump"]

    def test_gaussian_statistics_reasonable(self):
        plan = small_plan(n=100, m=600, seed=12)
        report = run(plan, threads=4)
        summaries = normality_check(report)
        for s in summaries:
            if s.degenerate:
                continue
            assert s.ks_pvalue > 1e-3
            assert abs(s.skewness) <= 5.0 * s.skew_se + 0.5


class TestVarianceBounds:
    def test_bounds_hold_empirically(self):
        plan = small_plan(n=120, m=300, seed=9)
        report = run(plan, threads=4)
        rows = variance_bound_check(report, plan.params)
        assert all(r["ok"] for r in rows)
        for r in rows:
            assert r["var_hat"] <= r["bound_crude"]
            assert r["var_hat"] <= r["bound_refined"]

    def test_refined_bound_imz_scaling(self):
        # |Im z|^-4 scaling: ratio at 0.5 vs 2 equals 2^8
        p = two_point_params(100)
        assert refined_variance_bound(p, 0.5j) / refined_variance_bound(p, 2j) == pytest.approx(2.0**8)

    def test_refined_bound_order_one_in_n(self):
        b200 = refined_variance_bound(two_point_params(200), 2j)
        b400 = refined_variance_bound(two_point_params(400), 2j)
        # N (s_N^2 + 2 m_N / sigma_N^2) is essentially constant in N
        assert b200 == pytest.approx(b400, rel=1e-12)

    def test_crude_bound_formula(self):
        p = two_point_params(64)
        assert crude_variance_bound(p, 0.5j) == pytest.approx(4 * 64 / 0.25)


class TestAgainstPasturDrift:
    def test_mean_drifts_toward_deterministic_equivalent(self):
        # |mean Tr R / N - G_rhoN| stays within the bias + noise envelope,
        # so the normalized drift is O(1/N)
        z = 2j
        for n in (60, 120, 240):
            params = EnsembleParams.create(n, "rademacher_real", np.zeros(n))
            plan = ExperimentPlan(params=params, n_samples=200, z_grid=(z,), master_seed=17)
            report = run(plan, threads=4)
            s = report.per_z[0]
            fp = FluctuationParams.from_ensemble(params)
            envelope = abs(beta(fp, z)) + 4.0 * s.se_mean + 5.0 / n
            assert abs(s.mean_tr / n - s.g_rho) <= envelope / n

    def test_omega_tilde_converges_to_subordination(self):
        z = 2j
        errors = []
        for n in (60, 120, 240):
            params = EnsembleParams.create(n, "gaussian_complex", np.zeros(n))
            plan = ExperimentPlan(params=params, n_samples=150, z_grid=(z,), master_seed=23)
            report = run(plan, threads=4)
            omega = solve_pastur(params.nu(), params.sigma2, z).omega
            errors.append(abs(report.per_z[0].omega_tilde - omega))
        assert errors[-1] <= errors[0] + 0.01
        assert errors[-1] < 0.01


@pytest.fixture(scope="module")
def bump_run():
    n, m = 300, 1000
    deform = np.concatenate([np.full(150, -1.0), np.full(150, 1.0)])
    params = EnsembleParams.create(n, "rademacher_real", deform)
    phi = testfn.smooth_bump(0.0, 2.0, 3)
    plan = ExperimentPlan(
        params=params, n_samples=m, z_grid=(2j,), master_seed=77,
        test_functions=(phi,),
    )
    return params, phi, run(plan, threads=8)


class TestCrossModuleConsistency:
    """One simulation validated against every theory-side prediction at once."""

    def test_mean_matches_deterministic_equivalent_plus_bias(self, bump_run):
        from wignerlab.freeconv import integrate_against_rho
        from wignerlab.theory import extend_bias

        params, phi, rep = bump_run
        samples = np.real(rep.fn_samples[phi.fn_id])
        m = samples.size
        se = samples.std(ddof=1) / math.sqrt(m)
        fp = FluctuationParams.from_ensemble(params)
        integral = integrate_against_rho(params.nu(), params.sigma2, phi)
        bias = extend_bias(fp, phi)
        gap = abs(samples.mean() - params.n * integral - bias.value)
        assert gap <= 4.0 * se + bias.error + 0.05

    def test_variance_matches_extension(self, bump_run):
        from wignerlab.theory import extend_variance

        params, phi, rep = bump_run
        samples = np.real(rep.fn_samples[phi.fn_id])
        m = samples.size
        var = samples.var(ddof=1)
        var_se = var * math.sqrt(2.0 / (m - 1))
        fp = FluctuationParams.from_ensemble(params)
        predicted = extend_variance(fp, phi)
        assert abs(var - predicted.value) <= 5.0 * var_se + 0.1 * predicted.value

    def test_empirical_bias_below_bias_bound(self, bump_run):
        from wignerlab.theory import bias_bound

        params, _, rep = bump_run
        fp = FluctuationParams.from_ensemble(params)
        s = rep.per_z[0]
        assert abs(s.bias_hat) <= bias_bound(fp, s.z) + 3.0 * s.se_mean


class TestCovarianceNSweep:
    def test_discrepancy_non_increasing(self):
        z1, z2 = 2j, 1 + 1j
        rows = []
        for n in (100, 200, 400):
            params = EnsembleParams.create(n, "rademacher_real", np.zeros(n))
            plan = ExperimentPlan(
                params=params, n_samples=800, z_grid=(z1, z2), master_seed=3,
            )
            rep = run(plan, threads=8)
            fp = FluctuationParams.from_ensemble(params)
            row = covariance_check(rep, fp)[1]
            assert (row["z1"], row["z2"]) == (z1, z2)
            rows.append((abs(row["cov_nc"] - row["gamma"]), row["se"]))
        for (d_prev, se_prev), (d_next, se_next) in zip(rows, rows[1:]):
            assert d_next <= d_prev + 2.0 * (se_prev + se_next)


class TestTruncationDrift:
    def test_drift_small_and_positive(self):
        params = EnsembleParams.create(80, "gaussian_real", np.zeros(80))
        phi = testfn.from_callable(np.arctan, "arctan")
        mean, se = truncation_drift(params, phi, choose_delta(80), 40, 3, threads=4)
        assert mean >= 0.0
        assert se > 0.0

    def test_worker_count_invariant(self):
        params = EnsembleParams.create(40, "gaussian_real", np.zeros(40))
        phi = testfn.from_callable(lambda x: np.arctan(x), "arctan")
        args = (params, phi, choose_delta(40), 12, 3)
        assert truncation_drift(*args, threads=1) == truncation_drift(*args, threads=4)

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_too_few_samples_rejected(self, n_samples):
        params = EnsembleParams.create(20, "gaussian_real", np.zeros(20))
        phi = testfn.from_callable(np.arctan, "arctan")
        with pytest.raises(ParameterError):
            truncation_drift(params, phi, choose_delta(20), n_samples, 3)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sample_failure_aborts_with_index(self, monkeypatch, threads):
        params = EnsembleParams.create(20, "gaussian_real", np.zeros(20))
        phi = testfn.from_callable(np.arctan, "arctan")
        patch_eigenvalues(monkeypatch, 5, synthetic_failure)
        with pytest.raises(SampleError) as err:
            truncation_drift(params, phi, choose_delta(20), 8, 3, threads=threads)
        assert err.value.index == 5
        assert str(err.value) == "sample 5 failed: synthetic failure"

    def test_identity_truncation_zero_drift(self):
        params = EnsembleParams.create(60, "rademacher_real", np.zeros(60))
        phi = testfn.from_callable(np.arctan, "arctan")
        mean, _ = truncation_drift(params, phi, 0.9, 20, 3)
        assert mean == 0.0


NAN, INF = math.nan, math.inf


def hand_built_reports():
    """Two small reports with no eigensolve behind them, so their bytes do
    not depend on the BLAS library."""
    edge = EstimatorReport(
        master_seed=11, n_samples=2, params_hash="0123456789abcdef",
        params_config={"n": 2, "sigma2": 1.0, "entry_law": {"name": "gaussian_complex"}},
        z_grid=(2j, complex(-0.0, 0.5)),
        truncation=None,
        tr_samples=np.array([[complex(-0.0, 1.0), complex(INF, NAN)],
                             [complex(0.1, -0.0), complex(-INF, 3.0)]]),
        fn_samples={},
        version="0.1.0",
    )
    complex_fn = EstimatorReport(
        master_seed=5, n_samples=2, params_hash="fedcba9876543210",
        params_config={"n": 3, "deformation": {"atoms": [-1.0, 0.0, 1.0]}},
        z_grid=(1 + 1j,),
        truncation=0.25,
        tr_samples=np.array([[-1.5 - 0.5j], [-1.5 - 1j]]),
        fn_samples={"resolvent(0+2j)": np.array([complex(-0.0, -0.375), -0.0625 - 0.625j])},
        version="0.1.0",
    )
    return {"edge_values": edge, "complex_test_function": complex_fn}


# the format of report.json, byte for byte
RECORDED_BYTES = {
    "edge_values": (
        '{"fn_samples":{},"master_seed":11,"n_samples":2,'
        '"params_config":{"entry_law":{"name":"gaussian_complex"},'
        '"n":2,"sigma2":1.0},"params_hash":"0123456789abcdef",'
        '"tr_samples":[[[-0.0,1.0],[Infinity,NaN]],[[0.1,-0.0],[-Infinity,3.0]]],'
        '"truncation":null,"version":"0.1.0","z_grid":[[0.0,2.0],[-0.0,0.5]]}'
    ),
    "complex_test_function": (
        '{"fn_samples":{"resolvent(0+2j)":[[-0.0,-0.375],[-0.0625,-0.625]]},"master_seed":5,'
        '"n_samples":2,"params_config":{"deformation":{"atoms":[-1.0,0.0,1.0]},"n":3},'
        '"params_hash":"fedcba9876543210",'
        '"tr_samples":[[[-1.5,-0.5]],[[-1.5,-1.0]]],"truncation":0.25,"version":"0.1.0",'
        '"z_grid":[[1.0,1.0]]}'
    ),
}

# the same reports in the format that stored per-z, pair and test function
# statistics beside the samples
WITH_STORED_STATISTICS = {
    "edge_values": (
        '{"fn_samples":{},"master_seed":11,"n_samples":2,'
        '"pairs":[{"cov_conj":[0.1,-0.0],"cov_conj_se":0.0,"cov_nc":[NaN,-Infinity],'
        '"cov_nc_se":NaN,"z1":[0.0,2.0],"z2":[-0.0,0.5]}],'
        '"params_config":{"entry_law":{"name":"gaussian_complex"},'
        '"n":2,"sigma2":1.0},"params_hash":"0123456789abcdef","per_z":[{"bias_hat":[Infinity,'
        '-Infinity],"g_rho":[0.0,-0.5],"mean_tr":[-0.0,-1.25],"omega_tilde":[NaN,'
        '2.0],"se_mean":0.5,"var_hat":NaN,"var_se":Infinity,"z":[0.0,2.0]},{"bias_hat":[-0.0,'
        '-0.0],"g_rho":[0.1,-0.2],"mean_tr":[1e-300,-2.5e+17],"omega_tilde":[0.3333333333333333,'
        '0.5],"se_mean":0.0,"var_hat":-0.0,"var_se":NaN,"z":[-0.0,0.5]}],"testfn_means":{},'
        '"tr_samples":[[[-0.0,1.0],[Infinity,NaN]],[[0.1,-0.0],[-Infinity,3.0]]],'
        '"truncation":null,"version":"0.1.0","z_grid":[[0.0,2.0],[-0.0,0.5]]}'
    ),
    "complex_test_function": (
        '{"fn_samples":{"resolvent(0+2j)":[[-0.0,-0.375],[-0.0625,-0.625]]},"master_seed":5,'
        '"n_samples":2,"pairs":[{"cov_conj":[2.0,0.0],"cov_conj_se":0.25,'
        '"cov_nc":[0.5,-0.25],"cov_nc_se":0.125,"z1":[1.0,1.0],"z2":[1.0,1.0]}],'
        '"params_config":{"deformation":{"atoms":[-1.0,0.0,1.0]},"n":3},'
        '"params_hash":"fedcba9876543210",'
        '"per_z":[{"bias_hat":[0.0,0.0625],"g_rho":[-0.25,-0.5],"mean_tr":[-1.5,'
        '-0.75],"omega_tilde":[2.5,1.75],"se_mean":0.03125,"var_hat":2.0,"var_se":0.5,'
        '"z":[1.0,1.0]}],"testfn_means":{"resolvent(0+2j)":{"mean":[-0.0,-0.5],"se":0.125}},'
        '"tr_samples":[[[-1.5,-0.5]],[[-1.5,-1.0]]],"truncation":0.25,"version":"0.1.0",'
        '"z_grid":[[1.0,1.0]]}'
    ),
}

# the same reports in the format that carried fitted normality rows
WITH_NORMALITY_ROWS = {
    "edge_values": (
        '{"fn_samples":{},"master_seed":11,"n_samples":2,"normality":[{"degenerate":false,'
        '"ex_kurtosis":0.0,"ks_pvalue":1.0,"ks_stat":0.125,"kurt_se":Infinity,"mean":0.25,'
        '"skew_se":NaN,"skewness":-0.0,"stat_id":"re_tr_resolvent(2j)","variance":0.001}],'
        '"pairs":[{"cov_conj":[0.1,-0.0],"cov_conj_se":0.0,"cov_nc":[NaN,-Infinity],'
        '"cov_nc_se":NaN,"z1":[0.0,2.0],"z2":[-0.0,0.5]}],'
        '"params_config":{"entry_law":{"name":"gaussian_complex"},'
        '"n":2,"sigma2":1.0},"params_hash":"0123456789abcdef","per_z":[{"bias_hat":[Infinity,'
        '-Infinity],"g_rho":[0.0,-0.5],"mean_tr":[-0.0,-1.25],"omega_tilde":[NaN,'
        '2.0],"se_mean":0.5,"var_hat":NaN,"var_se":Infinity,"z":[0.0,2.0]},{"bias_hat":[-0.0,'
        '-0.0],"g_rho":[0.1,-0.2],"mean_tr":[1e-300,-2.5e+17],"omega_tilde":[0.3333333333333333,'
        '0.5],"se_mean":0.0,"var_hat":-0.0,"var_se":NaN,"z":[-0.0,0.5]}],"testfn_means":{},'
        '"tr_samples":[[[-0.0,1.0],[Infinity,NaN]],[[0.1,-0.0],[-Infinity,3.0]]],'
        '"truncation":null,"version":"0.1.0","z_grid":[[0.0,2.0],[-0.0,0.5]]}'
    ),
    "complex_test_function": (
        '{"fn_samples":{"resolvent(0+2j)":[[-0.0,-0.375],[-0.0625,-0.625]]},"master_seed":5,'
        '"n_samples":2,"normality":[],"pairs":[{"cov_conj":[2.0,0.0],"cov_conj_se":0.25,'
        '"cov_nc":[0.5,-0.25],"cov_nc_se":0.125,"z1":[1.0,1.0],"z2":[1.0,1.0]}],'
        '"params_config":{"deformation":{"atoms":[-1.0,0.0,1.0]},"n":3},'
        '"params_hash":"fedcba9876543210",'
        '"per_z":[{"bias_hat":[0.0,0.0625],"g_rho":[-0.25,-0.5],"mean_tr":[-1.5,'
        '-0.75],"omega_tilde":[2.5,1.75],"se_mean":0.03125,"var_hat":2.0,"var_se":0.5,'
        '"z":[1.0,1.0]}],"testfn_means":{"resolvent(0+2j)":{"mean":[-0.0,-0.5],"se":0.125}},'
        '"tr_samples":[[[-1.5,-0.5]],[[-1.5,-1.0]]],"truncation":0.25,"version":"0.1.0",'
        '"z_grid":[[1.0,1.0]]}'
    ),
}

# -0.0 and the infinities come from st.floats; NaN only as float("nan"),
# the one NaN that JSON text can carry back
FLOATS = st.floats().filter(lambda x: not math.isnan(x)) | st.just(NAN)
COMPLEX = st.builds(complex, FLOATS, FLOATS)


def complex_array(shape):
    return st.lists(COMPLEX, min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda values: np.array(values, dtype=complex).reshape(shape))


@st.composite
def random_reports(draw):
    n_z, m = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    fn_ids = draw(st.lists(st.text("abf0", min_size=1, max_size=3), max_size=3, unique=True))
    return EstimatorReport(
        master_seed=draw(st.integers(0, 2**31)), n_samples=m, params_hash="0" * 16,
        params_config={"n": draw(st.integers(1, 9))},
        z_grid=tuple(draw(st.lists(COMPLEX, min_size=n_z, max_size=n_z))),
        truncation=draw(st.none() | FLOATS),
        tr_samples=draw(complex_array((m, n_z))),
        fn_samples={k: draw(complex_array((m,))) for k in fn_ids},
    )


def assert_same_samples(a: EstimatorReport, b: EstimatorReport):
    assert a.tr_samples.shape == b.tr_samples.shape
    assert a.tr_samples.tobytes() == b.tr_samples.tobytes()
    assert a.fn_samples.keys() == b.fn_samples.keys()
    for k in a.fn_samples:
        assert a.fn_samples[k].dtype == b.fn_samples[k].dtype
        assert a.fn_samples[k].tobytes() == b.fn_samples[k].tobytes()


class TestReportCodec:
    @pytest.mark.parametrize("name", sorted(RECORDED_BYTES))
    def test_bytes_match_the_recorded_format(self, name):
        report = hand_built_reports()[name]
        assert report.to_json() == RECORDED_BYTES[name]
        clone = EstimatorReport.from_json(RECORDED_BYTES[name])
        assert clone.to_json() == RECORDED_BYTES[name]
        assert_same_samples(clone, report)

    @pytest.mark.parametrize("name", sorted(RECORDED_BYTES))
    def test_reports_with_normality_rows_still_load(self, name):
        clone = EstimatorReport.from_json(WITH_NORMALITY_ROWS[name])
        assert clone.to_json() == RECORDED_BYTES[name]
        assert_same_samples(clone, hand_built_reports()[name])

    @pytest.mark.parametrize("name", sorted(RECORDED_BYTES))
    def test_reports_with_stored_statistics_still_load(self, name):
        clone = EstimatorReport.from_json(WITH_STORED_STATISTICS[name])
        assert clone.to_json() == RECORDED_BYTES[name]
        assert_same_samples(clone, hand_built_reports()[name])

    def test_statistics_are_computed_from_the_samples(self):
        report = run(small_plan(m=30))
        tampered = json.loads(report.to_json())
        # the stored rows of the older format, with a wrong value in each
        tampered["per_z"] = [{"bias_hat": [9.0, 9.0]}]
        tampered["pairs"] = [{"cov_nc": [9.0, 9.0]}]
        clone = EstimatorReport.from_json(json.dumps(tampered))
        assert clone.per_z == report.per_z and clone.pairs == report.pairs
        for j, s in enumerate(report.per_z):
            assert s.mean_tr == complex(report.tr_samples[:, j].mean())
        assert [(p.z1, p.z2) for p in report.pairs] == [(2j, 2j), (2j, 1 + 1j),
                                                        (1 + 1j, 1 + 1j)]

    @given(random_reports())
    def test_round_trip_keeps_every_bit(self, report):
        blob = report.to_json()
        clone = EstimatorReport.from_json(blob)
        assert clone.to_json() == blob
        assert_same_samples(clone, report)
