"""Command-line front end: reproducible experiments from JSON configs.

Subcommands: theory, simulate, compare, density, infinitesimal, identities.
Every command first reads its whole config (and compare the report it
checks) and only then computes and writes, so a config error writes
nothing. Every output file embeds (config digest, seed, version) in
comment/meta fields, so tables are regenerable bit-exactly under the same
BLAS thread setting: the number of threads a BLAS call uses can change the
last bits of an eigensolve. Exit codes: 0 success, 1 acceptance violation
(or a failure while computing), 2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .ensemble import EnsembleParams, sample
from .errors import ConfigError, ParameterError, WignerlabError
from .freeconv import (
    AtomicMeasure,
    density as density_at,
    integrate_against_rho,
    support_window,
)
from .infinitesimal import (
    diag_pm1,
    infinitesimal_check,
    monte_carlo_cross_checks,
    parse_word,
)
from .montecarlo import (
    EstimatorReport,
    ExperimentPlan,
    covariance_check,
    run as run_plan,
    variance_bound_check,
)
from .spectral import (
    eigenvalues,
    resolvent_identity_tolerance,
    trace_resolvent,
    verify_resolvent_identity,
    verify_schur,
)
from .theory import (
    FluctuationParams,
    bao_xie_b0,
    bao_xie_c0,
    beta,
    beta_tilde,
    bias_bound,
    gamma_kernel,
)
from . import testfn

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
# an explicit fluctuation block matches a report's ensemble up to rounding of
# hand-written weights such as 1/3
REPORT_MATCH_RTOL = 1e-9


@contextmanager
def _reading_config():
    """Raise any exception from the block as one ConfigError.

    A command reads its whole config inside this block, before it computes
    or writes anything. Whatever fails there (a missing key, a value of the
    wrong type, a report that is not JSON, a constructor's ParameterError)
    is wrong input, so the exception is caught whatever its type. A missing
    key is named as such.
    """
    try:
        yield
    except Exception as exc:
        if isinstance(exc, WignerlabError):
            text = str(exc)
        elif isinstance(exc, KeyError):
            text = f"missing key {exc.args[0]!r}"
        else:
            text = f"{type(exc).__name__}: {exc}"
        raise ConfigError(" ".join(text.split())) from exc


def _block(cfg: dict, key: str) -> dict:
    """The top-level config block ``key``, which must be a JSON object."""
    block = cfg[key]
    if not isinstance(block, dict):
        raise ConfigError(f"block {key!r} must be a JSON object, not {type(block).__name__}")
    return block


def _config_digest(cfg: dict) -> str:
    payload = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _meta_lines(cfg: dict, seed) -> list[str]:
    return [
        f"# config_digest={_config_digest(cfg)}",
        f"# seed={seed}",
        f"# version={__version__}",
    ]


@dataclass
class _Table:
    """One output table: a CSV file and a list of JSON records."""

    header: list[str]
    rows: list[list]

    def records(self, **rename) -> list[dict]:
        """One dict per row, keyed by the header with ``rename`` applied."""
        keys = [rename.get(h, h) for h in self.header]
        return [dict(zip(keys, row)) for row in self.rows]


def _write_csv(path: Path, cfg: dict, seed, table: _Table) -> None:
    with open(path, "w") as fh:
        for line in _meta_lines(cfg, seed):
            fh.write(line + "\n")
        fh.write(",".join(table.header) + "\n")
        for row in table.rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _columns(*columns) -> list[list]:
    """Table rows, as Python numbers, from equal-length arrays of columns."""
    return np.column_stack(columns).tolist()


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_json(path: Path, cfg: dict, seed, payload: dict) -> None:
    payload = {
        "meta": {
            "config_digest": _config_digest(cfg),
            "seed": seed,
            "version": __version__,
        },
        **payload,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _parse_z(pair) -> complex:
    z = complex(float(pair[0]), float(pair[1]))
    if z.imag == 0.0:
        raise ConfigError(f"z={z} lies on the real axis (Im z must be nonzero)")
    return z


def _z_grid(block: dict, default=None) -> list[complex]:
    grid = block.get("z_grid", default)
    if not grid:
        raise ConfigError("missing or empty 'z_grid'")
    return [_parse_z(p) for p in grid]


def _fluctuation_params(block: dict) -> FluctuationParams:
    if "from_ensemble" in block:
        return FluctuationParams.from_ensemble(EnsembleParams.from_config(block["from_ensemble"]))
    return FluctuationParams(
        sigma2=float(block.get("sigma2", 1.0)),
        s2=float(block.get("s2", 1.0)),
        tau=float(block.get("tau", 0.0)),
        kappa=float(block.get("kappa", 0.0)),
        nu=AtomicMeasure.from_atoms(block["nu"]["atoms"]),
        mode=block.get("mode", "limit"),
        n=None if block.get("n") is None else int(block["n"]),
    )


def _single_atom(nu: AtomicMeasure) -> float | None:
    if nu.locations.size == 1:
        return float(nu.locations[0])
    return None


def cmd_theory(cfg: dict, args) -> int:
    with _reading_config():
        params = _fluctuation_params(_block(cfg, "fluctuation"))
        zs = _z_grid(cfg)
        pairs = cfg.get("pairs")
        if pairs is None:
            pairs = [(z1, z2) for i, z1 in enumerate(zs) for z2 in zs[i:]]
        else:
            pairs = [(_parse_z(p[0]), _parse_z(p[1])) for p in pairs]
    out_dir = Path(args.out_dir)
    shift = _single_atom(params.nu)
    z = np.array(zs)
    b = beta(params, z)
    bt = beta_tilde(params, z)
    bound = bias_bound(params, z) if params.mode == "finite_N" else np.full(z.size, np.nan)
    residual = np.full(z.size, np.nan)
    if shift is not None:
        b0 = bao_xie_b0(params.sigma2, params.s2, params.tau, params.kappa, z - shift)
        residual = np.abs(b - b0) / np.maximum(1.0, np.abs(b0))
    betas = _Table(["re_z", "im_z", "re_beta", "im_beta", "re_beta_tilde", "im_beta_tilde",
                    "bias_bound", "bao_xie_residual"], _columns(
        z.real, z.imag, b.real, b.imag, bt.real, bt.imag, bound, residual))

    z1, z2 = np.array(pairs, dtype=complex).reshape(-1, 2).T
    kv = gamma_kernel(params, z1, z2)
    kresidual = np.full(z1.size, np.nan)
    if shift is not None:
        c0 = bao_xie_c0(params.sigma2, params.s2, params.tau, params.kappa, z1 - shift, z2 - shift)
        kresidual = np.abs(kv.gamma - c0) / np.maximum(1.0, np.abs(c0))
    gammas = _Table(["re_z1", "im_z1", "re_z2", "im_z2", "re_gamma", "im_gamma",
                     "branch_margin", "bao_xie_residual"], _columns(
        z1.real, z1.imag, z2.real, z2.imag, kv.gamma.real, kv.gamma.imag, kv.branch_margin,
        kresidual))

    if args.format in ("csv", "both"):
        _write_csv(out_dir / "beta.csv", cfg, args.seed, betas)
        _write_csv(out_dir / "gamma.csv", cfg, args.seed, gammas)
    if args.format in ("json", "both"):
        _write_json(out_dir / "theory.json", cfg, args.seed, {
            "beta": betas.records(),
            "gamma": gammas.records(),
        })
    return EXIT_OK


def cmd_simulate(cfg: dict, args) -> int:
    with _reading_config():
        params = EnsembleParams.from_config(_block(cfg, "ensemble"))
        plan_cfg = _block(cfg, "plan")
        seed = args.seed if args.seed is not None else plan_cfg.get("master_seed")
        if seed is None:
            raise ConfigError("a master seed is required (config plan.master_seed or --seed)")
        plan = ExperimentPlan(
            params=params,
            n_samples=int(plan_cfg["n_samples"]),
            z_grid=tuple(_z_grid(plan_cfg)),
            master_seed=int(seed),
            test_functions=[testfn.from_spec(s) for s in plan_cfg.get("test_functions") or ()],
            truncation=plan_cfg.get("truncation"),
        )
    report = run_plan(plan, threads=args.threads)
    out_dir = Path(args.out_dir)
    (out_dir / "report.json").write_text(report.to_json() + "\n")
    if args.format in ("csv", "both"):
        fp = FluctuationParams.from_ensemble(params)
        zs = np.array(report.z_grid)
        th = beta(fp, zs).tolist()
        gamma = gamma_kernel(fp, zs, zs.conj()).gamma.real.tolist()
        rows = [
            [s.z.real, s.z.imag, s.mean_tr.real, s.mean_tr.imag, s.bias_hat.real,
             s.bias_hat.imag, b.real, b.imag, s.se_mean, s.var_hat, g,
             min(brow["bound_crude"], brow["bound_refined"])]
            for s, b, g, brow in zip(report.per_z, th, gamma, variance_bound_check(report, params))
        ]
        _write_csv(out_dir / "per_z.csv", cfg, seed, _Table(
            ["re_z", "im_z", "re_mean_tr", "im_mean_tr", "re_bias_hat", "im_bias_hat",
             "re_beta_theory", "im_beta_theory", "se", "var_hat", "gamma_theory", "bound"],
            rows,
        ))
    return EXIT_OK


def _check_matches_report(params: FluctuationParams, config: dict) -> None:
    """An explicit fluctuation block must describe the ensemble the report sampled."""
    def close(a, b):
        return np.allclose(a, b, rtol=REPORT_MATCH_RTOL, atol=REPORT_MATCH_RTOL)

    keys = ("sigma2", "s2", "tau", "kappa")
    mismatched = [k for k in keys if not close(getattr(params, k), config[k])]
    sampled = AtomicMeasure.from_values(config["deformation"]["atoms"])
    if params.nu.locations.shape != sampled.locations.shape or not (
        close(params.nu.locations, sampled.locations) and close(params.nu.weights, sampled.weights)
    ):
        mismatched.append("nu")
    if mismatched:
        raise ConfigError(f"fluctuation {', '.join(mismatched)} do not match the report's "
                          "params_config")


def cmd_compare(cfg: dict, args) -> int:
    with _reading_config():
        block = _block(cfg, "compare")
        report = EstimatorReport.from_json(Path(block["report"]).read_text())
        fluctuation = _block(cfg, "fluctuation")
        params = _fluctuation_params(fluctuation)
        if "from_ensemble" in fluctuation:
            digest = EnsembleParams.from_config(fluctuation["from_ensemble"]).digest()
            if digest != report.params_hash:
                raise ConfigError(f"report params_hash {report.params_hash} does not match "
                                  f"fluctuation.from_ensemble (digest {digest})")
        else:
            _check_matches_report(params, report.params_config)
        grid = cfg.get("z_grid")
        if grid is not None:
            wanted = [_parse_z(p) for p in grid]
            if sorted(wanted, key=lambda z: (z.real, z.imag)) != sorted(
                report.z_grid, key=lambda z: (z.real, z.imag)
            ):
                raise ConfigError("configured z grid does not match the report grid")
        thresholds = block.get("thresholds", {})
        bias_band = float(thresholds.get("bias_band", 3.0))
        cov_band = float(thresholds.get("cov_band", 3.0))

    violations = 0
    bias = _Table(["re_z", "im_z", "re_bias_hat", "im_bias_hat", "re_beta", "im_beta",
                   "se", "discrepancy_over_se", "ok"], [])
    for s, th in zip(report.per_z, beta(params, np.array(report.z_grid)).tolist()):
        ratio = abs(s.bias_hat - th) / s.se_mean if s.se_mean > 0 else float("inf")
        ok = ratio <= bias_band
        violations += 0 if ok else 1
        bias.rows.append([s.z.real, s.z.imag, s.bias_hat.real, s.bias_hat.imag,
                          th.real, th.imag, s.se_mean, ratio, int(ok)])
    cov = _Table(["re_z1", "im_z1", "re_z2", "im_z2", "re_cov", "im_cov",
                  "re_gamma", "im_gamma", "se", "discrepancy_over_se", "ok"], [])
    for row in covariance_check(report, params, band=cov_band):
        cov.rows.append([
            row["z1"].real, row["z1"].imag, row["z2"].real, row["z2"].imag,
            row["cov_nc"].real, row["cov_nc"].imag, row["gamma"].real, row["gamma"].imag,
            row["se"], row["ratio"], int(row["ok"]),
        ])
        violations += 0 if row["ok"] else 1
    out_dir = Path(args.out_dir)
    if args.format in ("csv", "both"):
        _write_csv(out_dir / "compare_bias.csv", cfg, report.master_seed, bias)
        _write_csv(out_dir / "compare_cov.csv", cfg, report.master_seed, cov)
    if args.format in ("json", "both"):
        _write_json(out_dir / "compare.json", cfg, report.master_seed, {
            "bias": bias.records(),
            "covariance": cov.records(),
            "violations": violations,
        })
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def cmd_density(cfg: dict, args) -> int:
    with _reading_config():
        block = _block(cfg, "density")
        nu = AtomicMeasure.from_atoms(block["nu"]["atoms"])
        v = float(block["v"])
        if not v > 0.0:
            raise ConfigError("density.v must be positive")
        xs = block.get("x_grid")
        if xs is not None:
            xs = np.atleast_1d(np.asarray(xs, dtype=float))
        points = xs.size if xs is not None else int(block.get("points", 201))
        if points < 1:
            raise ConfigError("density needs at least one point")
        fns = [testfn.from_spec(s) for s in block.get("test_functions") or ()]
    if xs is None:
        xs = np.linspace(*support_window(nu, v), points)
    est = density_at(nu, v, xs)
    # the warning column is always 0: the density is exact, not extrapolated
    table = _Table(["x", "density", "error_estimate", "warning"], [
        [x, value, error, 0]
        for x, value, error in zip(est.x.tolist(), est.value.tolist(), est.error.tolist())
    ])
    out_dir = Path(args.out_dir)
    if args.format in ("csv", "both"):
        _write_csv(out_dir / "density.csv", cfg, args.seed, table)
    payload = {"density": table.records(error_estimate="error")}
    if fns:
        payload["integrals"] = {
            phi.fn_id: integrate_against_rho(nu, v, phi) for phi in fns
        }
    if args.format in ("json", "both"):
        _write_json(out_dir / "density.json", cfg, args.seed, payload)
    return EXIT_OK


def _generators(spec, n_dim: int) -> dict[str, np.ndarray]:
    """The named generator matrices at one dimension."""
    out = {}
    for name, g in (spec or {}).items():
        kind = g["kind"]
        if kind == "diag_pm1":
            out[name] = diag_pm1(n_dim)
        elif kind == "diag_values":
            vals = np.asarray(g["values"], dtype=float)
            reps = int(np.ceil(n_dim / vals.size))
            out[name] = np.diag(np.tile(vals, reps)[:n_dim])
        elif kind == "identity":
            out[name] = np.eye(n_dim)
        else:
            raise ConfigError(f"unknown generator kind {kind!r}")
    return out


def cmd_infinitesimal(cfg: dict, args) -> int:
    with _reading_config():
        block = _block(cfg, "infinitesimal")
        words = block.get("words")
        if not words:
            raise ConfigError("infinitesimal.words must be a nonempty list")
        # each word is parsed once, so its pairing cycles are enumerated once
        parsed = [parse_word(text) for text in words]
        dims = [int(d) for d in block.get("dims", [8, 16, 32, 64])]
        v = float(block.get("v", 1.0))
        if not v > 0.0:
            raise ConfigError("infinitesimal.v must be positive")
        mc = block.get("mc")
        sizes = list(dims)
        if mc:
            n_dim = int(mc.get("n_dim", 50))
            n_samples = int(mc.get("n_samples", 5000))
            sizes.append(n_dim)
        if min(sizes, default=1) < 1:
            raise ConfigError("infinitesimal dimensions (dims, mc.n_dim) must be positive")
        generators = {n: _generators(block.get("generators"), n) for n in sizes}
    violations = 0
    results = []
    for text, word in zip(words, parsed):
        rep = infinitesimal_check(word, dims, v, generators.__getitem__)
        results.append({
            "word": text,
            "exact": rep.exact,
            "slope": rep.slope,
            "ok": rep.ok,
            "moments": [
                {"n": r.n_dim, "xi": [r.xi.real, r.xi.imag],
                 "free": [r.free.real, r.free.imag],
                 "correction": [r.correction.real, r.correction.imag]}
                for r in rep.results
            ],
        })
        violations += 0 if rep.ok else 1
    if mc:
        checks = monte_carlo_cross_checks(
            parsed, n_dim, n_samples, v / n_dim,
            generators[n_dim], seed=int(args.seed or 0), threads=args.threads,
        )
        for entry, cc in zip(results, checks):
            entry["mc"] = {
                "mean": [cc.mc_mean.real, cc.mc_mean.imag],
                "se": cc.mc_se,
                "exact": [cc.exact.real, cc.exact.imag],
                "ok": cc.ok,
            }
            violations += 0 if cc.ok else 1
    out_dir = Path(args.out_dir)
    _write_json(out_dir / "moments.json", cfg, args.seed, {"words": results})
    if args.format in ("csv", "both"):
        rows = []
        for entry in results:
            for mres in entry["moments"]:
                rows.append([entry["word"], mres["n"], mres["xi"][0], mres["xi"][1],
                             mres["free"][0], mres["free"][1],
                             mres["correction"][0], mres["correction"][1]])
        _write_csv(out_dir / "moments.csv", cfg, args.seed, _Table(
            ["word", "n", "re_xi", "im_xi", "re_free", "im_free",
             "re_correction", "im_correction"], rows))
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def cmd_identities(cfg: dict, args) -> int:
    with _reading_config():
        block = _block(cfg, "identities")
        params = EnsembleParams.from_config(_block(cfg, "ensemble"))
        seed = args.seed if args.seed is not None else block.get("seed", 0)
        master_seed = int(seed)
        count = int(block.get("count", 20))
        zs = _z_grid(block, default=[[0.0, 1.0]])
    rng = np.random.default_rng(master_seed)
    rows = []
    violations = 0
    for i in range(count):
        smp = sample(params, master_seed, i)
        spec = eigenvalues(smp)
        z = zs[i % len(zs)]
        k = int(rng.integers(0, params.n))
        rep = verify_schur(smp, k, z)
        norm_ok = bool(np.all(np.abs(1.0 / (z - spec.eigenvalues)) <= 1.0 / abs(z.imag) + 1e-12))
        tr = trace_resolvent(spec, z)
        im_identity = abs(tr.imag + z.imag * np.sum(1.0 / np.abs(z - spec.eigenvalues) ** 2))
        im_ok = im_identity <= 1e-10 * abs(tr.imag)
        other = sample(params, master_seed + 1, i)
        res_id = verify_resolvent_identity(smp.matrix, other.matrix, z, z + 0.5j)
        res_ok = res_id <= resolvent_identity_tolerance(z, z + 0.5j)
        ok = rep.ok and norm_ok and im_ok and res_ok
        violations += 0 if ok else 1
        rows.append([i, z.real, z.imag, k, rep.diag_residual, rep.trace_residual,
                     rep.trace_gap, res_id, int(ok)])
    out_dir = Path(args.out_dir)
    if args.format in ("csv", "both"):
        _write_csv(out_dir / "identities.csv", cfg, seed, _Table(
            ["sample", "re_z", "im_z", "k", "schur_diag_residual",
             "schur_trace_residual", "trace_gap", "resolvent_identity_residual",
             "ok"], rows))
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


_COMMANDS = {
    "theory": cmd_theory,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "density": cmd_density,
    "infinitesimal": cmd_infinitesimal,
    "identities": cmd_identities,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerlab",
        description="Deformed Wigner spectral statistics laboratory",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker processes for the Monte Carlo of simulate and "
                             "infinitesimal (default: the CPU count; capped at the "
                             "cores BLAS leaves free)")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument("--format", choices=["csv", "json", "both"], default="both")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _reading_config():
            cfg = json.loads(Path(args.config).read_text())
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        if not isinstance(cfg, dict):
            raise ConfigError(f"the config must be a JSON object, not {type(cfg).__name__}")
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WignerlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
