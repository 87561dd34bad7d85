"""Deformed Wigner ensembles: entry laws, parameters, reproducible sampling.

A sample is X = W + D with W Hermitian, independent entries above the
diagonal at per-entry scale sigma_n = sqrt(sigma2/n), a real diagonal at
scale s_n = sqrt(s2/n), and a deterministic diagonal deformation D stored in
sorted order. Sampling is a pure function of (params, master_seed, index)
through a counter-keyed Philox stream, so parallel reruns are bitwise stable.

An entry law is data: ``Gaussian`` (real or complex) or ``Discrete`` (a
finite support with weights). ``law_from_config`` builds either from a preset
name (gaussian_complex, gaussian_real, rademacher_real,
rademacher_complex_four_point) or from a ``custom_discrete`` spec.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import (
    DegenerateTruncationError,
    ParameterError,
    check_block,
    check_count,
    check_numbers,
    check_real,
)
from .freeconv import AtomicMeasure

__all__ = [
    "Gaussian",
    "Discrete",
    "EnsembleParams",
    "WignerSample",
    "sample",
    "truncate_center_homogenize",
    "truncated_moments",
    "choose_delta",
    "law_from_config",
    "deformation_from_config",
    "rng_for",
]

MOMENT_RTOL = 1e-12
DEFORMATION_BOUND = 100.0


def canonical_json(value) -> str:
    """``value`` as JSON with sorted keys and no spaces: the one format of
    ``config_digest``, ``EnsembleParams.digest`` and ``report.json``."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def config_digest(value) -> str:
    """First 16 hex digits of the SHA-256 of ``canonical_json(value)``."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()[:16]


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _gauss_trunc_second_moment(c: float) -> float:
    """E[g^2 1_{|g|<=c}] for standard normal g."""
    return (2.0 * _norm_cdf(c) - 1.0) - 2.0 * c * _norm_pdf(c)


@dataclass(frozen=True)
class Gaussian:
    """Gaussian entries at unit scale, real Gaussian on the diagonal.

    Off the diagonal u is complex Gaussian with E u^2 = 0 (GUE type) when
    ``is_complex``, real Gaussian (GOE type) otherwise. Truncated moments are
    in closed form.
    """

    is_complex: bool

    @property
    def name(self) -> str:
        return "gaussian_complex" if self.is_complex else "gaussian_real"

    def offdiag_sq(self) -> float:
        return 0.0 if self.is_complex else 1.0

    def offdiag_abs4(self) -> float:
        return 2.0 if self.is_complex else 3.0

    def sample_offdiag(self, rng: np.random.Generator, size) -> np.ndarray:
        if not self.is_complex:
            return rng.standard_normal(size)
        u = np.empty(size, dtype=complex)
        u.real = rng.standard_normal(size)
        u.imag = rng.standard_normal(size)
        u /= math.sqrt(2.0)
        return u

    def sample_diag(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.standard_normal(size)

    def truncated_offdiag(self, sigma_n: float, delta: float) -> tuple[complex, float]:
        """(mean, variance) of sigma_n*u restricted to |entry| <= delta."""
        if not self.is_complex:
            return 0.0 + 0.0j, sigma_n**2 * _gauss_trunc_second_moment(delta / sigma_n)
        u0 = (delta / sigma_n) ** 2
        return 0.0 + 0.0j, sigma_n**2 * (1.0 - math.exp(-u0) * (1.0 + u0))

    def truncated_diag(self, s_n: float, delta: float) -> tuple[float, float]:
        return 0.0, s_n**2 * _gauss_trunc_second_moment(delta / s_n)

    def config(self) -> dict:
        return {"name": self.name}


class Discrete:
    """Finite-support law at unit scale.

    ``offdiag`` is the support of u and may be complex; ``diag`` is the real
    support of v. ``weights`` is the pair (offdiag weights, diag weights),
    which must give E u = 0, E|u|^2 = 1, real E u^2, E v = 0 and E v^2 = 1.
    ``weights=None`` marks a named preset: uniform weights on points of
    modulus 1, drawn by ``rng.choice`` without ``p`` (so its stream is not that
    of uniform ``p``) and truncated in closed form. Moments, truncated moments
    and ``is_complex`` all come from the support and the weights.
    """

    def __init__(self, name: str, offdiag: Iterable, diag: Iterable, weights=None):
        self.name = name
        self.offdiag = np.array(offdiag, dtype=complex)
        self.diag = np.array(diag, dtype=float)
        self.weighted = weights is not None
        if not self.weighted:
            if np.any(np.abs(self.offdiag) != 1.0) or np.any(np.abs(self.diag) != 1.0):
                raise ParameterError("a law without weights needs support points of modulus 1")
            self.off_weights = np.full(self.offdiag.size, 1.0 / self.offdiag.size)
            self.diag_weights = np.full(self.diag.size, 1.0 / self.diag.size)
        else:
            self.off_weights = np.array(weights[0], dtype=float)
            self.diag_weights = np.array(weights[1], dtype=float)
        for w in (self.off_weights, self.diag_weights):
            if np.any(w <= 0) or abs(w.sum() - 1.0) > MOMENT_RTOL:
                raise ParameterError("law weights must be positive and sum to 1")
        mean = np.sum(self.off_weights * self.offdiag)
        if abs(mean) > MOMENT_RTOL:
            raise ParameterError(f"off-diagonal law mean {mean} is not 0")
        abs2 = float(np.sum(self.off_weights * np.abs(self.offdiag) ** 2))
        if abs(abs2 - 1.0) > MOMENT_RTOL:
            raise ParameterError(f"off-diagonal law second moment {abs2} is not 1")
        sq = np.sum(self.off_weights * self.offdiag**2)
        if abs(sq.imag) > MOMENT_RTOL:
            raise ParameterError("E[u^2] must be real (uncorrelated Re/Im parts)")
        dmean = float(np.sum(self.diag_weights * self.diag))
        dabs2 = float(np.sum(self.diag_weights * self.diag**2))
        if abs(dmean) > MOMENT_RTOL or abs(dabs2 - 1.0) > MOMENT_RTOL:
            raise ParameterError("diagonal law must have mean 0 and second moment 1")
        self.is_complex = bool(np.any(np.abs(self.offdiag.imag) > 0))
        for a in (self.offdiag, self.diag, self.off_weights, self.diag_weights):
            a.setflags(write=False)

    def offdiag_sq(self) -> float:
        return float(np.sum(self.off_weights * self.offdiag**2).real)

    def offdiag_abs4(self) -> float:
        return float(np.sum(self.off_weights * np.abs(self.offdiag) ** 4))

    def sample_offdiag(self, rng: np.random.Generator, size) -> np.ndarray:
        vals = rng.choice(self.offdiag, size=size, p=self.off_weights if self.weighted else None)
        return vals if self.is_complex else vals.real

    def sample_diag(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.choice(self.diag, size=size, p=self.diag_weights if self.weighted else None)

    def _truncated(self, support, weights, scale, delta):
        if not self.weighted:
            # every point has modulus 1: all kept or all cut; the closed form
            # keeps the variance exactly scale**2
            mean, var = 0.0, (scale**2 if delta >= scale else 0.0)
        else:
            scaled = support * scale
            keep = np.abs(scaled) <= delta
            mean = np.sum(weights * scaled * keep)
            var = float(np.sum(weights * np.abs(scaled) ** 2 * keep)) - abs(mean) ** 2
        if var <= 0.0:
            raise DegenerateTruncationError(
                f"truncation at {delta} leaves no variance in the {self.name} law"
            )
        return mean, var

    def truncated_offdiag(self, sigma_n: float, delta: float) -> tuple[complex, float]:
        """(mean, variance) of sigma_n*u restricted to |entry| <= delta."""
        mean, var = self._truncated(self.offdiag, self.off_weights, sigma_n, delta)
        return complex(mean), var

    def truncated_diag(self, s_n: float, delta: float) -> tuple[float, float]:
        mean, var = self._truncated(self.diag, self.diag_weights, s_n, delta)
        return float(np.real(mean)), var

    def config(self) -> dict:
        if not self.weighted:
            return {"name": self.name}
        return {
            "name": self.name,
            "offdiag": [[v.real, v.imag, w] for v, w in zip(self.offdiag, self.off_weights)],
            "diag": [[float(v), w] for v, w in zip(self.diag, self.diag_weights)],
        }


_PM1 = (-1.0, 1.0)
_PRESETS = {
    "gaussian_complex": Gaussian(is_complex=True),
    "gaussian_real": Gaussian(is_complex=False),
    "rademacher_real": Discrete("rademacher_real", _PM1, _PM1),
    "rademacher_complex_four_point": Discrete(
        "rademacher_complex_four_point", (1.0, -1.0, 1j, -1j), _PM1
    ),
}


def law_from_config(spec) -> Gaussian | Discrete:
    """Entry law from a preset name, ``{"name": preset}``, or a
    ``custom_discrete`` spec with ``offdiag`` triples [re, im, weight] and
    ``diag`` pairs [value, weight]."""
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict):
        raise ParameterError("block 'entry_law' must be a preset name or a JSON object, "
                             f"not {type(spec).__name__}")
    name = spec["name"]
    if name in _PRESETS:
        return _PRESETS[name]
    if name == "custom_discrete":
        off = [check_numbers(a, f"custom_discrete offdiag entry {a!r}", 3) for a in spec["offdiag"]]
        diag = [check_numbers(a, f"custom_discrete diag entry {a!r}", 2) for a in spec["diag"]]
        return Discrete(
            name,
            [complex(a[0], a[1]) for a in off],
            [a[0] for a in diag],
            ([a[2] for a in off], [a[1] for a in diag]),
        )
    raise ParameterError(f"unknown entry law {name!r}")


def deformation_from_config(spec, n: int) -> np.ndarray:
    """Deformation atoms from an explicit list or a quantile description."""
    if "atoms" in check_block(spec, "deformation"):
        return np.sort(check_numbers(spec["atoms"], "deformation.atoms"))
    q = spec.get("quantile_spec")
    if q is None:
        raise ParameterError("deformation needs 'atoms' or 'quantile_spec'")
    kind = check_block(q, "quantile_spec").get("kind")
    if kind == "zero":
        return np.zeros(n)
    if kind == "two_point":
        a, b = check_real(q["a"], "quantile_spec.a"), check_real(q["b"], "quantile_spec.b")
        wa = check_real(q.get("weight_a", 0.5), "quantile_spec.weight_a")
        if not 0.0 <= wa <= 1.0:
            raise ParameterError(f"two_point weight_a must lie in [0, 1], got {wa}")
        count_a = int(round(wa * n))
        return np.sort(np.concatenate([np.full(count_a, a), np.full(n - count_a, b)]))
    if kind == "uniform":
        a, b = check_real(q["a"], "quantile_spec.a"), check_real(q["b"], "quantile_spec.b")
        # midpoint quantiles of the uniform law on [a, b]
        return a + (b - a) * (np.arange(n) + 0.5) / n
    raise ParameterError(f"unknown quantile_spec kind {kind!r}")


@dataclass(frozen=True, eq=False)
class EnsembleParams:
    """Moment parameters (N-rescaled) plus entry law and deformation.

    ``sigma2``, ``s2``, ``tau``, ``kappa`` are the large-N limits of
    N sigma_N^2, N s_N^2, N tau_N, N^2 kappa_N; per-entry values derive from
    them exactly, so the finite-N deterministic equivalent uses the same
    numbers. ``tau`` and ``kappa`` are not settable: the entry law and
    ``sigma2`` fix them. Deformation atoms are bounded by DEFORMATION_BOUND.
    """

    n: int
    sigma2: float
    s2: float
    entry_law: Gaussian | Discrete
    deformation: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("n must be a positive integer")
        if self.sigma2 <= 0 or self.s2 <= 0:
            raise ParameterError("sigma2 and s2 must be positive")
        d = np.sort(np.asarray(self.deformation, dtype=float).ravel())
        if d.size != self.n:
            raise ParameterError(f"deformation has {d.size} atoms, expected n={self.n}")
        if not np.all(np.isfinite(d)):
            raise ParameterError("deformation atoms must be finite")
        if np.max(np.abs(d), initial=0.0) > DEFORMATION_BOUND:
            raise ParameterError(f"deformation atoms exceed the bound {DEFORMATION_BOUND}")
        object.__setattr__(self, "deformation", d)
        self.deformation.setflags(write=False)

    @classmethod
    def create(
        cls,
        n: int,
        entry_law: Gaussian | Discrete | str,
        deformation,
        sigma2: float = 1.0,
        s2: float | None = None,
    ) -> "EnsembleParams":
        """Build params with law-implied defaults.

        Default diagonal scale is s2 = 2 sigma2 for the real Gaussian law
        (standard GOE diagonal) and s2 = sigma2 otherwise.
        """
        law = law_from_config(entry_law) if isinstance(entry_law, str) else entry_law
        if s2 is None:
            s2 = 2.0 * sigma2 if law.name == "gaussian_real" else sigma2
        return cls(n=n, sigma2=sigma2, s2=s2, entry_law=law,
                   deformation=np.asarray(deformation, dtype=float))

    @property
    def tau(self) -> float:
        return _implied_tau_kappa(self.entry_law, self.sigma2)[0]

    @property
    def kappa(self) -> float:
        return _implied_tau_kappa(self.entry_law, self.sigma2)[1]

    # per-entry moments
    @property
    def sigma_n2(self) -> float:
        return self.sigma2 / self.n

    @property
    def s_n2(self) -> float:
        return self.s2 / self.n

    @property
    def tau_n(self) -> float:
        return self.tau / self.n

    @property
    def kappa_n(self) -> float:
        return self.kappa / self.n**2

    @property
    def m_n(self) -> float:
        return self.kappa_n + 2.0 * self.sigma_n2**2 + self.tau_n**2

    def nu(self) -> AtomicMeasure:
        """Empirical spectral measure of the deformation."""
        return AtomicMeasure.from_values(self.deformation)

    def config(self) -> dict:
        return {
            "n": self.n,
            "sigma2": self.sigma2,
            "s2": self.s2,
            "tau": self.tau,
            "kappa": self.kappa,
            "entry_law": self.entry_law.config(),
            "deformation": {"atoms": self.deformation.tolist()},
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "EnsembleParams":
        """Params from a config block. ``tau`` and ``kappa`` may be stated, as
        ``config()`` writes them, but must be the values the law implies."""
        n = check_count(cfg["n"], "n")
        params = cls.create(
            n=n,
            entry_law=law_from_config(cfg["entry_law"]),
            deformation=deformation_from_config(cfg["deformation"], n),
            sigma2=check_real(cfg.get("sigma2", 1.0), "ensemble.sigma2"),
            s2=None if cfg.get("s2") is None else check_real(cfg["s2"], "ensemble.s2"),
        )
        for key in ("tau", "kappa"):
            stated, implied = cfg.get(key), getattr(params, key)
            if stated is not None and not _close(check_real(stated, f"ensemble.{key}"), implied):
                raise ParameterError(
                    f"{key}={stated} inconsistent with entry law (implies {implied})")
        return params

    def digest(self) -> str:
        """``config_digest(self.config())``, hashed at each call, not cached."""
        return config_digest(self.config())


def _implied_tau_kappa(law: Gaussian | Discrete, sigma2: float) -> tuple[float, float]:
    """tau = sigma2 E[u^2] and kappa = sigma2^2 (E|u|^4 - 2 - E[u^2]^2)."""
    sq = law.offdiag_sq()
    return sigma2 * sq, sigma2**2 * (law.offdiag_abs4() - 2.0 - sq**2)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= MOMENT_RTOL * max(1.0, abs(a), abs(b))


@dataclass(frozen=True, eq=False)
class WignerSample:
    """One realization X = W + D, drawn with ``params`` at ``seed_path``."""

    matrix: np.ndarray
    seed_path: tuple[int, int]
    params: EnsembleParams

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def rng_for(master_seed: int, index: int) -> np.random.Generator:
    # counter-keyed construction: one Philox stream per (seed, index)
    seq = np.random.SeedSequence(entropy=(int(master_seed), int(index)))
    return np.random.Generator(np.random.Philox(seq))


@lru_cache(maxsize=8)
def strict_upper(n: int) -> np.ndarray:
    """Read-only boolean mask of the strict upper triangle of an n x n matrix.

    Built once per n: ``w[mask]`` walks the upper triangle in row-major order,
    and ``w.T[mask]`` the mirrored lower triangle in the same order. The mask
    costs n^2 bytes; int64 index pairs would cost 8 n^2.
    """
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask.setflags(write=False)
    return mask


def hermitian(off: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The n x n Hermitian matrix with diagonal ``diag`` and strict upper
    triangle ``off`` (its n(n-1)/2 entries in row-major order, or an n x n
    array's), mirrored conjugated below through the cached triangle mask."""
    n = len(diag)
    mask = strict_upper(n)
    if off.ndim == 2:
        off = off[mask]
    w = np.zeros((n, n), dtype=off.dtype)
    w[mask] = off
    w.T[mask] = off.conj()
    w.flat[:: n + 1] = diag
    return w


def sample(params: EnsembleParams, master_seed: int, index: int = 0) -> WignerSample:
    """Draw X = W + D deterministically from (master_seed, index).

    The off-diagonal draws fill the upper triangle and, conjugated, the lower
    one (``hermitian``); the diagonal is written once, noise plus
    deformation. The golden digests in the tests pin the bits.
    """
    n = params.n
    rng = rng_for(master_seed, index)
    off = params.entry_law.sample_offdiag(rng, n * (n - 1) // 2)  # a fresh array
    off *= math.sqrt(params.sigma_n2)
    diag = params.entry_law.sample_diag(rng, n).real * math.sqrt(params.s_n2)
    return WignerSample(
        matrix=hermitian(off, diag + params.deformation),
        seed_path=(int(master_seed), int(index)),
        params=params,
    )


def choose_delta(n: int) -> float:
    """Default truncation schedule 1/log(n): slower than any power of n."""
    if n < 2:
        raise ParameterError("choose_delta requires n >= 2")
    return 1.0 / math.log(n)


def truncated_moments(params: EnsembleParams, delta_n: float):
    """Off-diagonal (mean, variance), then diagonal, of the scaled entries
    truncated at delta_n, from the entry law analytically.

    Raises when delta_n is not positive or a truncated variance vanishes.
    """
    if not delta_n > 0:
        raise ParameterError("delta_n must be positive")
    off_mean, off_var = params.entry_law.truncated_offdiag(math.sqrt(params.sigma_n2), delta_n)
    diag_mean, diag_var = params.entry_law.truncated_diag(math.sqrt(params.s_n2), delta_n)
    if not (off_var > 0.0 and diag_var > 0.0):
        raise DegenerateTruncationError(f"truncated variance vanished at delta={delta_n}")
    return off_mean, off_var, diag_mean, diag_var


def truncate_center_homogenize(smp: WignerSample, delta_n: float) -> WignerSample:
    """Truncate entries at delta_n, recenter and restore the variances.

    The truncated mean and variance come from the entry law analytically,
    never from the sample. When truncation provably does nothing (law support
    inside the level, zero mean, exact variance) the sample is returned
    unchanged. Otherwise one copy of the matrix is cut, recentered and
    rescaled in place, and ``hermitian`` assembles the result from its upper
    triangle and the new diagonal; the golden digests in the tests pin the
    bits.
    """
    params = smp.params
    n = smp.n
    sigma_n = math.sqrt(params.sigma_n2)
    s_n = math.sqrt(params.s_n2)
    off_mean, off_var, diag_mean, diag_var = truncated_moments(params, delta_n)

    w = smp.matrix.copy()
    w.flat[:: n + 1] -= params.deformation
    keep = np.abs(w) <= delta_n
    off_scale = sigma_n / math.sqrt(off_var)
    diag_scale = s_n / math.sqrt(diag_var)
    # snap rescalings that are 1 up to rounding so the no-op case is exact
    if abs(off_scale - 1.0) < 5e-16:
        off_scale = 1.0
    if abs(diag_scale - 1.0) < 5e-16:
        diag_scale = 1.0
    if (
        off_mean == 0.0
        and diag_mean == 0.0
        and off_scale == 1.0
        and diag_scale == 1.0
        and keep.all()
    ):
        return smp

    np.copyto(w, 0, where=~keep)
    # the diagonal is recentered from the cut entries, before the off-diagonal mean
    diag = (w.diagonal().real - diag_mean) * diag_scale
    w -= off_mean if params.entry_law.is_complex else off_mean.real
    w *= off_scale
    return WignerSample(
        matrix=hermitian(w, diag + params.deformation),
        seed_path=smp.seed_path,
        params=params,
    )
