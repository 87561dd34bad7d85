"""Reproducible Monte Carlo estimation of bias, covariance and normality.

The sample pipeline (draw -> eigensolve -> per-z statistics) is pure in the
sample index, so it runs on ``parallel.map_samples``: ``threads`` asks for a
worker count, and more than one forks a process pool. Every sample's BLAS
calls run on one thread whatever the caller's BLAS thread setting. Results
land in index-ordered arrays and every reduction happens afterwards in a
fixed order, which makes reports bitwise identical across worker counts and
BLAS thread settings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property

import numpy as np

from . import __version__ as _version
from .ensemble import (
    EnsembleParams,
    canonical_json,
    choose_delta,
    sample,
    truncate_center_homogenize,
    truncated_moments,
)
from .errors import ParameterError, check_real
from .parallel import map_samples, mean_and_se
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
    "discrepancy",
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
    truncation level applied to every sample, a positive finite number; a
    level that leaves the entry law no variance is rejected here, before
    any sample is drawn.
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
        if self.truncation not in (None, "auto"):
            object.__setattr__(self, "truncation",
                               check_real(self.truncation, "plan.truncation", positive=True))
        ids = _fn_ids(self.test_functions)
        if len(set(ids)) < len(ids):
            raise ParameterError(f"test function ids must be distinct, got {ids}")
        delta = self.resolved_delta()
        if delta is not None:
            truncated_moments(self.params, delta)

    def resolved_delta(self) -> float | None:
        if self.truncation is None:
            return None
        if self.truncation == "auto":
            return choose_delta(self.params.n)
        return self.truncation


def _fn_ids(test_functions) -> list[str]:
    """The report key of each test function: its fn_id, else fn<position>."""
    return [getattr(phi, "fn_id", f"fn{k}") for k, phi in enumerate(test_functions)]


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


@dataclass(frozen=True)
class NormalitySummary:
    """Moments and a Kolmogorov-Smirnov test of one real sample statistic.

    ``ks_pvalue`` is the exact p-value against N(mean, sd^2) with mean and sd
    fitted from the same sample, which the exact law does not allow for
    (Lilliefors). It is therefore conservative: for 2,000 exactly normal
    samples of 500, p < 0.05 occurred in none.
    """

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
    """Provenance and the raw per-sample statistics of one Monte Carlo run.

    The report is its samples: ``per_z`` and ``pairs`` are computed from
    ``tr_samples`` when first read, and normality and variance checks
    recompute from it too. Serialization follows the dataclass fields and
    round-trips the samples bit for bit (complex numbers as [re, im] pairs,
    floats via repr). ``from_json`` ignores keys that are not fields, such
    as the ``per_z``, ``pairs``, ``testfn_means`` and ``normality`` rows
    that older reports carry, so their stored statistics are never read.
    """

    master_seed: int
    n_samples: int
    params_hash: str
    params_config: dict
    z_grid: tuple[complex, ...]
    truncation: float | None
    tr_samples: np.ndarray  # (M, Z) complex
    fn_samples: dict        # fn_id -> (M,) complex array
    version: str = _version

    @cached_property
    def per_z(self) -> tuple[ZStat, ...]:
        """Mean, bias against N g_rho, variance and omega_tilde of Tr R(z) at
        each z, with standard errors."""
        params = EnsembleParams.from_config(self.params_config)
        g_rhos = FluctuationParams.from_ensemble(params).solve(self.z_grid).G.tolist()
        out = []
        for j, (z, g_rho) in enumerate(zip(self.z_grid, g_rhos)):
            col = self.tr_samples[:, j]
            mean, se = mean_and_se(col)
            var, var_se = _variance_jackknife(col)
            out.append(ZStat(z=z, mean_tr=mean, g_rho=g_rho, bias_hat=mean - params.n * g_rho,
                             se_mean=se, var_hat=var, var_se=var_se,
                             omega_tilde=z - params.sigma_n2 * mean))
        return tuple(out)

    @cached_property
    def pairs(self) -> tuple[PairStat, ...]:
        """Non-conjugated covariance of Tr R(z1) and Tr R(z2) for each pair
        of grid points z1 = z_grid[j1], z2 = z_grid[j2] with j1 <= j2."""
        zs, out = self.z_grid, []
        for j1 in range(len(zs)):
            for j2 in range(j1, len(zs)):
                cov, se = _covariance_jackknife(self.tr_samples[:, j1], self.tr_samples[:, j2])
                out.append(PairStat(z1=zs[j1], z2=zs[j2], cov_nc=cov, cov_nc_se=se))
        return tuple(out)

    def to_json(self) -> str:
        """``canonical_json`` of the encoded fields: ``report.json``'s bytes."""
        return canonical_json(_encode(self))

    @classmethod
    def from_json(cls, text: str) -> "EstimatorReport":
        d = json.loads(text)
        return cls(
            master_seed=d["master_seed"],
            n_samples=d["n_samples"],
            params_hash=d["params_hash"],
            params_config=d["params_config"],
            z_grid=tuple(complex(*z) for z in d["z_grid"]),
            truncation=d["truncation"],
            tr_samples=_complex_array(d["tr_samples"], (d["n_samples"], len(d["z_grid"]))),
            fn_samples={k: _complex_array(v, (-1,)) for k, v in d["fn_samples"].items()},
            version=d["version"],
        )


def _encode(value):
    """The JSON form of a report value: dataclasses as objects of their
    fields, every complex number (and complex array entry) as [re, im]."""
    if isinstance(value, np.ndarray):
        return np.stack([value.real, value.imag], -1).tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return value


def _complex_array(pairs, shape) -> np.ndarray:
    """Nested [re, im] pairs as a complex array, bit for bit."""
    return np.array(pairs, dtype=float).reshape(*shape, 2).view(complex)[..., 0]


def _covariance_jackknife(u: np.ndarray, w: np.ndarray) -> tuple[complex, float]:
    """Non-conjugated sample covariance of two complex samples, jackknife SE."""
    m = u.shape[0]
    su, sw, suw = u.sum(), w.sum(), (u * w).sum()
    cov = (suw - su * sw / m) / (m - 1)
    mm = m - 1
    if mm < 2:
        return complex(cov), float("nan")
    loo = (suw - u * w - (su - u) * (sw - w) / mm) / (mm - 1)
    return complex(cov), _jackknife_se(loo)


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
    """Jackknife standard error from the leave-one-out values ``theta``,
    real or complex."""
    m = theta.shape[0]
    return math.sqrt((m - 1) / m * float(np.sum(np.abs(theta - theta.mean()) ** 2)))


def _normality_summary(stat_id: str, x: np.ndarray) -> NormalitySummary:
    """Moments of ``x`` with jackknife SEs, and the exact KS test of ``x``
    against the normal law with its own mean and sd (ddof 1), so a
    conservative p-value (see ``NormalitySummary``)."""
    # imported here: scipy.special costs about 20 MB and 0.2 s at import, and
    # only the KS p-value needs it
    from ._kolmogorov import ks_normal

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
        # a leave-one-out variance can vanish (one value apart from all the
        # others); NaN SEs are honest there
        l2, l3, l4 = _central_moments_loo(x)
        skew_se = _jackknife_se(l3 / l2**1.5)
        kurt_se = _jackknife_se(l4 / l2**2 - 3.0)
    ks_stat, ks_pvalue = ks_normal(x, mean, math.sqrt(c2 * m / (m - 1)))
    return NormalitySummary(
        stat_id=stat_id, mean=mean, variance=c2, skewness=skew, skew_se=skew_se,
        ex_kurtosis=kurt, kurt_se=kurt_se, ks_stat=ks_stat, ks_pvalue=ks_pvalue,
        degenerate=False,
    )


def _normality_rows(z_grid, tr_samples, fn_samples: dict) -> list[NormalitySummary]:
    """Summaries of Re and Im Tr R(z) at each z, then of each linear
    statistic whose samples are real (every imaginary part exactly 0.0, as a
    real test function's always are)."""
    out = []
    for j, z in enumerate(z_grid):
        col = tr_samples[:, j]
        out.append(_normality_summary(f"re_tr_resolvent({z:.6g})", col.real.copy()))
        out.append(_normality_summary(f"im_tr_resolvent({z:.6g})", col.imag.copy()))
    out.extend(_normality_summary(fn_id, col.real.copy())
               for fn_id, col in fn_samples.items() if np.all(col.imag == 0.0))
    return out


def run(plan: ExperimentPlan, threads: int = 1) -> EstimatorReport:
    """Execute the plan: M independent samples of Tr R(z) on the grid and of
    each test function's linear statistic, in one report.

    Deterministic in (plan, master_seed) regardless of ``threads``, the
    worker count (see the module docstring). Any sample failure aborts the
    run with the failing sample index (``parallel.map_samples``). The
    estimators are the report's ``per_z`` and ``pairs``.
    """
    params = plan.params
    zs = plan.z_grid
    z_array = np.array(zs)
    delta = plan.resolved_delta()

    def per_sample(index: int) -> np.ndarray:
        smp = sample(params, plan.master_seed, index)
        if delta is not None:
            smp = truncate_center_homogenize(smp, delta)
        spec = eigenvalues(smp)
        stats = [linear_statistic(spec, phi) for phi in plan.test_functions]
        return np.concatenate([trace_resolvent(spec, z_array), stats])

    rows = map_samples(per_sample, plan.n_samples, threads)
    fn_ids = _fn_ids(plan.test_functions)
    return EstimatorReport(
        master_seed=plan.master_seed,
        n_samples=plan.n_samples,
        params_hash=params.digest(),
        params_config=params.config(),
        z_grid=zs,
        truncation=delta,
        tr_samples=np.ascontiguousarray(rows[:, :len(zs)]),
        fn_samples={fn_id: rows[:, len(zs) + k].copy() for k, fn_id in enumerate(fn_ids)},
    )


def discrepancy(estimate, theory, se: float, band: float) -> tuple[float, bool]:
    """|estimate - theory| / se (inf when se <= 0), and whether it is at
    most ``band``."""
    ratio = abs(estimate - theory) / se if se > 0 else math.inf
    return ratio, ratio <= band


def covariance_check(report: EstimatorReport, theory_params: FluctuationParams, band: float = 3.0):
    """Empirical non-conjugated covariances against the limit kernel.

    Returns one row per pair of ``report.pairs``, which are computed from the
    samples, with the discrepancy/SE ratio and a flag when it exceeds ``band``.
    """
    kv = gamma_kernel(theory_params, [p.z1 for p in report.pairs], [p.z2 for p in report.pairs])
    rows = []
    for p, gamma in zip(report.pairs, kv.gamma.tolist()):
        ratio, ok = discrepancy(p.cov_nc, gamma, p.cov_nc_se, band)
        rows.append(
            {
                "z1": p.z1,
                "z2": p.z2,
                "cov_nc": p.cov_nc,
                "gamma": gamma,
                "se": p.cov_nc_se,
                "ratio": ratio,
                "ok": ok,
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
    return _normality_rows(report.z_grid, report.tr_samples, report.fn_samples)


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
    if n_samples < 2:
        raise ParameterError("truncation drift needs at least 2 samples for its standard error")

    def per_sample(index: int) -> float:
        smp = sample(params, master_seed, index)
        raw = linear_statistic(eigenvalues(smp), phi)
        cooked = linear_statistic(eigenvalues(truncate_center_homogenize(smp, delta)), phi)
        return abs(raw - cooked)

    mean, se = mean_and_se(map_samples(per_sample, n_samples, threads))
    return mean.real, se
