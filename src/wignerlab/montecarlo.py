"""Reproducible Monte Carlo estimation of bias, covariance and normality.

The sample pipeline (draw -> eigensolve -> per-z statistics) is pure in the
sample index, so it runs on ``parallel.map_samples``: ``threads`` asks for a
worker count, and more than one forks a process pool capped at the cores
that BLAS threads leave free. Results land in index-ordered arrays and every
reduction happens afterwards in a fixed order, which makes reports bitwise
identical across worker counts. They are bitwise identical only under one
BLAS thread setting: the number of threads a BLAS call uses can change the
last bits of an eigensolve.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__ as _version
from .ensemble import (
    EnsembleParams,
    choose_delta,
    sample,
    truncate_center_homogenize,
    truncated_moments,
)
from .errors import ParameterError, SampleError
from .freeconv import solve_pastur_array
from .parallel import map_samples
from .spectral import eigenvalues, linear_statistic, trace_resolvent
from .theory import FluctuationParams, gamma_kernel

__all__ = [
    "ExperimentPlan",
    "EstimatorReport",
    "ZStat",
    "PairStat",
    "NormalitySummary",
    "run",
    "covariance_check",
    "normality_check",
    "variance_bound_check",
    "truncation_drift",
    "crude_variance_bound",
    "refined_variance_bound",
]

DEGENERATE_VARIANCE = 1e-14
IM_FLOOR = 0.1  # every z of a plan has |Im z| >= IM_FLOOR
NORMALITY_MIN_SAMPLES = 500
# a variance estimate may exceed its bound by this many relative SEs
VARIANCE_SLACK = 5.0


@dataclass(frozen=True, eq=False)
class ExperimentPlan:
    """Monte Carlo experiment description.

    ``truncation`` is None (off), "auto" (delta = 1/log N) or an explicit
    truncation level applied to every sample; a level that leaves the entry
    law no variance is rejected here, before any sample is drawn.
    """

    params: EnsembleParams
    n_samples: int
    z_grid: tuple[complex, ...]
    master_seed: int
    test_functions: tuple = ()
    truncation: float | str | None = None

    def __post_init__(self):
        if self.n_samples < 2:
            raise ParameterError("n_samples must be at least 2")
        if not self.z_grid:
            raise ParameterError("z grid must be nonempty")
        zg = tuple(complex(z) for z in self.z_grid)
        if min(abs(z.imag) for z in zg) < IM_FLOOR:
            raise ParameterError(f"all z must satisfy |Im z| >= {IM_FLOOR}")
        object.__setattr__(self, "z_grid", zg)
        object.__setattr__(self, "test_functions", tuple(self.test_functions))
        delta = self.resolved_delta()
        if delta is not None:
            truncated_moments(self.params, delta)

    def resolved_delta(self) -> float | None:
        if self.truncation is None:
            return None
        if self.truncation == "auto":
            return choose_delta(self.params.n)
        return float(self.truncation)


@dataclass(frozen=True)
class ZStat:
    z: complex
    mean_tr: complex
    g_rho: complex
    bias_hat: complex
    se_mean: float
    var_hat: float
    var_se: float
    omega_tilde: complex


@dataclass(frozen=True)
class PairStat:
    z1: complex
    z2: complex
    cov_nc: complex
    cov_nc_se: float
    cov_conj: complex
    cov_conj_se: float


@dataclass(frozen=True)
class NormalitySummary:
    stat_id: str
    mean: float
    variance: float
    skewness: float
    skew_se: float
    ex_kurtosis: float
    kurt_se: float
    ks_stat: float
    ks_pvalue: float
    degenerate: bool


@dataclass(frozen=True, eq=False)
class EstimatorReport:
    """Full estimator output plus the raw per-sample statistics.

    Keeping the samples makes the report self-contained: normality and
    variance checks recompute from it, and serialization round-trips
    losslessly (complex numbers as [re, im] pairs, floats via repr).
    """

    master_seed: int
    n_samples: int
    params_hash: str
    params_config: dict
    z_grid: tuple[complex, ...]
    truncation: float | None
    per_z: tuple[ZStat, ...]
    pairs: tuple[PairStat, ...]
    normality: tuple[NormalitySummary, ...]
    testfn_means: dict
    tr_samples: np.ndarray  # (M, Z) complex
    fn_samples: dict        # fn_id -> (M,) complex array
    version: str = _version

    def to_json(self) -> str:
        def c2l(z):
            return [z.real, z.imag]

        payload = {
            "version": self.version,
            "master_seed": self.master_seed,
            "n_samples": self.n_samples,
            "params_hash": self.params_hash,
            "params_config": self.params_config,
            "z_grid": [c2l(z) for z in self.z_grid],
            "truncation": self.truncation,
            "per_z": [
                {**asdict(s), "z": c2l(s.z), "mean_tr": c2l(s.mean_tr),
                 "g_rho": c2l(s.g_rho), "bias_hat": c2l(s.bias_hat),
                 "omega_tilde": c2l(s.omega_tilde)}
                for s in self.per_z
            ],
            "pairs": [
                {**asdict(p), "z1": c2l(p.z1), "z2": c2l(p.z2),
                 "cov_nc": c2l(p.cov_nc), "cov_conj": c2l(p.cov_conj)}
                for p in self.pairs
            ],
            "normality": [asdict(s) for s in self.normality],
            "testfn_means": {
                k: {"mean": c2l(v["mean"]), "se": v["se"]} for k, v in self.testfn_means.items()
            },
            "tr_samples": [[c2l(v) for v in row] for row in self.tr_samples],
            "fn_samples": {k: [c2l(complex(v)) for v in arr] for k, arr in self.fn_samples.items()},
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "EstimatorReport":
        def l2c(pair):
            return complex(pair[0], pair[1])

        d = json.loads(text)
        per_z = tuple(
            ZStat(
                z=l2c(s["z"]), mean_tr=l2c(s["mean_tr"]), g_rho=l2c(s["g_rho"]),
                bias_hat=l2c(s["bias_hat"]), se_mean=s["se_mean"], var_hat=s["var_hat"],
                var_se=s["var_se"], omega_tilde=l2c(s["omega_tilde"]),
            )
            for s in d["per_z"]
        )
        pairs = tuple(
            PairStat(
                z1=l2c(p["z1"]), z2=l2c(p["z2"]), cov_nc=l2c(p["cov_nc"]),
                cov_nc_se=p["cov_nc_se"], cov_conj=l2c(p["cov_conj"]),
                cov_conj_se=p["cov_conj_se"],
            )
            for p in d["pairs"]
        )
        normality = tuple(NormalitySummary(**s) for s in d["normality"])
        tr = np.array(
            [[l2c(v) for v in row] for row in d["tr_samples"]], dtype=complex
        ).reshape(d["n_samples"], len(d["z_grid"]))
        return cls(
            master_seed=d["master_seed"],
            n_samples=d["n_samples"],
            params_hash=d["params_hash"],
            params_config=d["params_config"],
            z_grid=tuple(l2c(z) for z in d["z_grid"]),
            truncation=d["truncation"],
            per_z=per_z,
            pairs=pairs,
            normality=normality,
            testfn_means={
                k: {"mean": l2c(v["mean"]), "se": v["se"]}
                for k, v in d["testfn_means"].items()
            },
            tr_samples=tr,
            fn_samples={k: np.array([l2c(v) for v in arr]) for k, arr in d["fn_samples"].items()},
            version=d["version"],
        )


def _mean_and_se(values: np.ndarray) -> tuple[complex, float]:
    m = values.shape[0]
    mean = complex(values.mean())
    se = math.sqrt(float(np.sum(np.abs(values - mean) ** 2)) / (m - 1) / m)
    return mean, se


def _covariance_jackknife(u: np.ndarray, w: np.ndarray) -> tuple[complex, float]:
    """Non-conjugated sample covariance of two complex samples, jackknife SE."""
    m = u.shape[0]
    su, sw, suw = u.sum(), w.sum(), (u * w).sum()
    cov = (suw - su * sw / m) / (m - 1)
    mm = m - 1
    if mm < 2:
        return complex(cov), float("nan")
    loo = (suw - u * w - (su - u) * (sw - w) / mm) / (mm - 1)
    loo_mean = loo.mean()
    se = math.sqrt((m - 1) / m * float(np.sum(np.abs(loo - loo_mean) ** 2)))
    return complex(cov), se


def _variance_jackknife(u: np.ndarray) -> tuple[float, float]:
    var, se = _covariance_jackknife(u, np.conj(u))
    return float(var.real), se


def _central_moments_loo(x: np.ndarray):
    """Leave-one-out central moments (orders 2..4) from power sums."""
    m = x.shape[0]
    s1, s2, s3, s4 = x.sum(), (x**2).sum(), (x**3).sum(), (x**4).sum()
    mm = m - 1
    mu = (s1 - x) / mm
    r2 = (s2 - x**2) / mm
    r3 = (s3 - x**3) / mm
    r4 = (s4 - x**4) / mm
    c2 = r2 - mu**2
    c3 = r3 - 3.0 * mu * r2 + 2.0 * mu**3
    c4 = r4 - 4.0 * mu * r3 + 6.0 * mu**2 * r2 - 3.0 * mu**4
    return c2, c3, c4


def _jackknife_se(theta: np.ndarray) -> float:
    m = theta.shape[0]
    return math.sqrt((m - 1) / m * float(np.sum((theta - theta.mean()) ** 2)))


def _normality_summary(stat_id: str, x: np.ndarray) -> NormalitySummary:
    # imported here: scipy.stats costs about a second at import, and only this uses it
    from scipy import stats as sstats

    m = x.shape[0]
    mean = float(x.mean())
    c2 = float(np.mean((x - mean) ** 2))
    if c2 < DEGENERATE_VARIANCE * max(1.0, mean * mean):
        return NormalitySummary(
            stat_id=stat_id, mean=mean, variance=c2, skewness=0.0, skew_se=0.0,
            ex_kurtosis=0.0, kurt_se=0.0, ks_stat=0.0, ks_pvalue=0.0, degenerate=True,
        )
    c3 = float(np.mean((x - mean) ** 3))
    c4 = float(np.mean((x - mean) ** 4))
    skew = c3 / c2**1.5
    kurt = c4 / c2**2 - 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # leave-one-out moments degenerate for tiny m; NaN SEs are honest there
        l2, l3, l4 = _central_moments_loo(x)
        skew_se = _jackknife_se(l3 / l2**1.5)
        kurt_se = _jackknife_se(l4 / l2**2 - 3.0)
    ks = sstats.kstest(x, "norm", args=(mean, math.sqrt(c2 * m / (m - 1))))
    return NormalitySummary(
        stat_id=stat_id, mean=mean, variance=c2, skewness=skew, skew_se=skew_se,
        ex_kurtosis=kurt, kurt_se=kurt_se, ks_stat=float(ks.statistic),
        ks_pvalue=float(ks.pvalue), degenerate=False,
    )


def run(plan: ExperimentPlan, threads: int = 1) -> EstimatorReport:
    """Execute the plan: M independent samples, all estimators, one report.

    Deterministic in (plan, master_seed) regardless of ``threads``, the
    worker count (see the module docstring). Any sample failure aborts the
    run with the failing sample index.
    """
    params = plan.params
    n = params.n
    m = plan.n_samples
    zs = plan.z_grid
    z_array = np.array(zs)
    delta = plan.resolved_delta()

    def per_sample(index: int) -> np.ndarray:
        try:
            smp = sample(params, plan.master_seed, index)
            if delta is not None:
                smp = truncate_center_homogenize(smp, delta)
            spec = eigenvalues(smp)
            stats = [linear_statistic(spec, phi) for phi in plan.test_functions]
            return np.concatenate([trace_resolvent(spec, z_array), stats])
        except Exception as exc:  # abort, never skip: dropped samples bias estimators
            raise SampleError(f"sample {index} failed: {exc}", index=index) from exc

    rows = map_samples(per_sample, m, len(zs) + len(plan.test_functions), complex, threads)
    tr_samples = np.ascontiguousarray(rows[:, :len(zs)])
    fn_matrix = np.ascontiguousarray(rows[:, len(zs):])

    g_rhos = solve_pastur_array(params.nu(), params.sigma2, zs).G.tolist()
    per_z = []
    for j, (z, g_rho) in enumerate(zip(zs, g_rhos)):
        col = tr_samples[:, j]
        mean, se = _mean_and_se(col)
        var, var_se = _variance_jackknife(col)
        per_z.append(
            ZStat(
                z=z,
                mean_tr=mean,
                g_rho=g_rho,
                bias_hat=mean - n * g_rho,
                se_mean=se,
                var_hat=var,
                var_se=var_se,
                omega_tilde=z - params.sigma_n2 * mean,
            )
        )

    pairs = []
    for j1 in range(len(zs)):
        for j2 in range(j1, len(zs)):
            u, w = tr_samples[:, j1], tr_samples[:, j2]
            cov_nc, se_nc = _covariance_jackknife(u, w)
            cov_c, se_c = _covariance_jackknife(u, np.conj(w))
            pairs.append(
                PairStat(
                    z1=zs[j1], z2=zs[j2], cov_nc=cov_nc, cov_nc_se=se_nc,
                    cov_conj=cov_c, cov_conj_se=se_c,
                )
            )

    normality = []
    for j, z in enumerate(zs):
        col = tr_samples[:, j]
        normality.append(_normality_summary(f"re_tr_resolvent({z:.6g})", col.real.copy()))
        normality.append(_normality_summary(f"im_tr_resolvent({z:.6g})", col.imag.copy()))
    testfn_means = {}
    fn_samples = {}
    for k, phi in enumerate(plan.test_functions):
        col = fn_matrix[:, k]
        fn_id = getattr(phi, "fn_id", f"fn{k}")
        fn_samples[fn_id] = col.copy()
        mean, se = _mean_and_se(col)
        testfn_means[fn_id] = {"mean": mean, "se": se}
        if getattr(phi, "is_real", False):
            normality.append(_normality_summary(fn_id, col.real.copy()))

    return EstimatorReport(
        master_seed=plan.master_seed,
        n_samples=m,
        params_hash=params.digest(),
        params_config=params.config(),
        z_grid=zs,
        truncation=delta,
        per_z=tuple(per_z),
        pairs=tuple(pairs),
        normality=tuple(normality),
        testfn_means=testfn_means,
        tr_samples=tr_samples,
        fn_samples=fn_samples,
    )


def covariance_check(report: EstimatorReport, theory_params: FluctuationParams, band: float = 3.0):
    """Empirical non-conjugated covariances against the limit kernel.

    Returns one row per stored pair with the discrepancy/SE ratio and a flag
    when it exceeds ``band``.
    """
    kv = gamma_kernel(theory_params, [p.z1 for p in report.pairs], [p.z2 for p in report.pairs])
    rows = []
    for p, gamma in zip(report.pairs, kv.gamma.tolist()):
        ratio = abs(p.cov_nc - gamma) / p.cov_nc_se if p.cov_nc_se > 0 else math.inf
        rows.append(
            {
                "z1": p.z1,
                "z2": p.z2,
                "cov_nc": p.cov_nc,
                "gamma": gamma,
                "se": p.cov_nc_se,
                "ratio": ratio,
                "ok": ratio <= band,
                "cov_conj": p.cov_conj,
                "cov_conj_se": p.cov_conj_se,
            }
        )
    return rows


def normality_check(report: EstimatorReport):
    """Distributional summaries recomputed from the stored samples."""
    if report.n_samples < NORMALITY_MIN_SAMPLES:
        raise ParameterError(
            f"normality requires at least {NORMALITY_MIN_SAMPLES} samples, "
            f"got {report.n_samples}"
        )
    out = []
    for j, z in enumerate(report.z_grid):
        col = report.tr_samples[:, j]
        out.append(_normality_summary(f"re_tr_resolvent({z:.6g})", col.real.copy()))
        out.append(_normality_summary(f"im_tr_resolvent({z:.6g})", col.imag.copy()))
    for fn_id, col in report.fn_samples.items():
        out.append(_normality_summary(fn_id, np.real(col).copy()))
    return out


def crude_variance_bound(params: EnsembleParams, z: complex) -> float:
    """4N / |Im z|^2."""
    return 4.0 * params.n / abs(complex(z).imag) ** 2


def refined_variance_bound(params: EnsembleParams, z: complex) -> float:
    """2 |Im z|^-4 N (s_N^2 + 2 sigma_N^-2 m_N); O(1) in N."""
    y = 1.0 / abs(complex(z).imag)
    n_term = params.n * (params.s_n2 + 2.0 * params.m_n / params.sigma_n2)
    return 2.0 * y**4 * n_term


def variance_bound_check(report: EstimatorReport, params: EnsembleParams):
    """Empirical Var[Tr R(z)] against both proven envelopes."""
    rows = []
    for s in report.per_z:
        rel_se = s.var_se / s.var_hat if s.var_hat > 0 else 0.0
        allowance = 1.0 + VARIANCE_SLACK * rel_se
        crude = crude_variance_bound(params, s.z)
        refined = refined_variance_bound(params, s.z)
        rows.append(
            {
                "z": s.z,
                "var_hat": s.var_hat,
                "bound_crude": crude,
                "bound_refined": refined,
                "rel_se": rel_se,
                "ok": s.var_hat <= min(crude, refined) * allowance,
            }
        )
    return rows


def truncation_drift(
    params: EnsembleParams,
    phi,
    delta: float,
    n_samples: int,
    master_seed: int,
    threads: int = 1,
) -> tuple[float, float]:
    """Paired estimate of E|N(phi) - N_truncated(phi)| and its standard error.

    Each draw is evaluated before and after truncation-centering-
    homogenization, so the difference isolates the preprocessing effect.
    """

    def per_sample(index: int) -> tuple[float]:
        smp = sample(params, master_seed, index)
        raw = linear_statistic(eigenvalues(smp), phi)
        cooked = linear_statistic(eigenvalues(truncate_center_homogenize(smp, delta)), phi)
        return (abs(raw - cooked),)

    diffs = map_samples(per_sample, n_samples, 1, float, threads)[:, 0]
    mean = float(diffs.mean())
    se = float(diffs.std(ddof=1) / math.sqrt(n_samples))
    return mean, se
