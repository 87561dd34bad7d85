"""Command-line front end: reproducible experiments from JSON configs.

Subcommands: theory, simulate, compare, density, infinitesimal, identities.
Every command reads its whole config (and compare the report it checks),
then computes and returns its tables; ``main`` alone writes them, as
``--format`` says, so a config error writes nothing, not even the output
directory. A config key that the command never read is such an error (an
unknown key). ``simulate`` also returns ``report.json``, which ``main``
writes under every format, because ``compare`` reads it.
Every output file embeds (config digest, seed, version) in comment/meta
fields, so tables are regenerable bit-exactly; Monte Carlo samples run their
BLAS calls on one thread, so their tables keep their bits under any BLAS
thread setting. Exit codes: 0 success, 1 acceptance violation (or a failure
while computing, a float overflow too), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .ensemble import EnsembleParams, config_digest, sample
from .errors import (
    ConfigError,
    ParameterError,
    WignerlabError,
    check_block,
    check_count,
    check_numbers,
    check_real,
    check_z,
)
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
    discrepancy,
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


class _Object(dict):
    """A JSON object of a config that records the keys read from it; the
    others are unknown, as a misspelt key would fall back to its default."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _unread(node, where="the config"):
    """'key' in where, for each key of the config's objects never read."""
    if isinstance(node, list):
        for item in node:
            yield from _unread(item, where)
    elif isinstance(node, _Object):
        for key, value in node.items():
            if key in node.read:
                yield from _unread(value, f"block {key!r}")
            else:
                yield f"{key!r} in {where}"


@contextmanager
def _reading_config(cfg=None):
    """Raise any exception from the block as one ConfigError.

    A command reads its whole config inside this block, before it computes
    or writes anything. Whatever fails there (a missing key, a value of the
    wrong type, a report that is not JSON, a constructor's ParameterError)
    is wrong input, so the exception is caught whatever its type. A missing
    key is named as such, and so is each key of ``cfg`` never read.
    """
    try:
        yield
        unknown = list(_unread(cfg))
        if unknown:
            raise ConfigError(f"unknown key{'s' * (len(unknown) > 1)} {', '.join(unknown)}")
    except Exception as exc:
        if isinstance(exc, WignerlabError):
            text = str(exc)
        elif isinstance(exc, KeyError):
            text = f"missing key {exc.args[0]!r}"
        else:
            text = f"{type(exc).__name__}: {exc}"
        raise ConfigError(" ".join(text.split())) from exc


def _block(cfg: dict, key: str, optional: bool = False) -> dict:
    """The config block ``key`` of ``cfg``, which must be a JSON object; an
    optional block that is absent or null reads as empty."""
    block = cfg.get(key) if optional else cfg[key]
    return {} if optional and block is None else check_block(block, key)


def _meta(cfg: dict, seed) -> dict:
    """The stamp every output file carries: config digest, seed, version."""
    return {"config_digest": config_digest(cfg), "seed": seed, "version": __version__}


@dataclass
class _Table:
    """One output table: a CSV file and a list of JSON records."""

    header: list[str]
    rows: list[tuple]

    @classmethod
    def of(cls, **columns) -> "_Table":
        """The table of equal-length named columns, as Python numbers and strings:
        a complex column X becomes the columns re_X and im_X, a boolean column
        0s and 1s, and real, integer and string columns pass through."""
        header, cells = [], []
        for name, column in columns.items():
            column = np.asarray(column)
            if np.iscomplexobj(column):
                header += [f"re_{name}", f"im_{name}"]
                cells += [column.real.tolist(), column.imag.tolist()]
            else:
                header.append(name)
                cells.append(column.astype(int).tolist() if column.dtype == bool
                             else column.tolist())
        return cls(header, list(zip(*cells)))

    def records(self, **rename) -> list[dict]:
        """One dict per row, keyed by the header with ``rename`` applied."""
        keys = [rename.get(h, h) for h in self.header]
        return [dict(zip(keys, row)) for row in self.rows]


@dataclass
class _Output:
    """What a command computed: CSV tables by file stem, one JSON file (none
    when ``json_name`` is None), the seed they are stamped with, the number of
    violated thresholds, and the files written under every format, by name."""

    seed: object
    tables: dict[str, _Table]
    json_name: str | None = None
    payload: dict = field(default_factory=dict)
    violations: int = 0
    files: dict[str, str] = field(default_factory=dict)


def _write_csv(path: Path, meta: dict, table: _Table) -> None:
    with open(path, "w") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(table.header) + "\n")
        for row in table.rows:
            fh.write(",".join(map(str, row)) + "\n")


def _write_json(path: Path, meta: dict, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"meta": meta, **payload}, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _pair(value: complex) -> list:
    """A complex value as the JSON pair [re, im]."""
    return [value.real, value.imag]


def _z_pair(pair) -> tuple[complex, complex]:
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ConfigError(f"a pair must be a list of two z values, not {pair!r}")
    return check_z(pair[0]), check_z(pair[1])


def _z_grid(block: dict, default=None) -> list[complex]:
    grid = block.get("z_grid", default)
    if not grid:
        raise ConfigError("missing or empty 'z_grid'")
    return [check_z(p) for p in grid]


def _measure(block: dict) -> AtomicMeasure:
    """The measure of the block's ``nu``: its atoms, pairs [location, weight]."""
    atoms = _block(block, "nu")["atoms"]
    return AtomicMeasure.from_atoms([check_numbers(a, f"atom {a!r} of nu", 2) for a in atoms])


def _fluctuation_params(block: dict) -> FluctuationParams:
    if "from_ensemble" in block:
        return FluctuationParams.from_ensemble(
            EnsembleParams.from_config(_block(block, "from_ensemble")))
    return FluctuationParams(
        sigma2=check_real(block.get("sigma2", 1.0), "fluctuation.sigma2"),
        s2=check_real(block.get("s2", 1.0), "fluctuation.s2"),
        tau=check_real(block.get("tau", 0.0), "fluctuation.tau"),
        kappa=check_real(block.get("kappa", 0.0), "fluctuation.kappa"),
        nu=_measure(block),
        mode=block.get("mode", "limit"),
        n=None if block.get("n") is None else check_count(block["n"], "fluctuation.n"),
    )


def _test_functions(block: dict, where: str) -> list[testfn.TestFunction]:
    """The block's ``test_functions``: a JSON list of specs, none when absent."""
    specs = block.get("test_functions", [])
    if not isinstance(specs, list):
        raise ConfigError(f"{where}.test_functions must be a JSON list, not {specs!r}")
    return [testfn.from_spec(s) for s in specs]


def _single_atom(nu: AtomicMeasure) -> float | None:
    if nu.locations.size == 1:
        return float(nu.locations[0])
    return None


def cmd_theory(cfg: dict, args) -> _Output:
    with _reading_config(cfg):
        params = _fluctuation_params(_block(cfg, "fluctuation"))
        zs = _z_grid(cfg)
        pairs = cfg.get("pairs")
        if pairs is None:
            pairs = [(z1, z2) for i, z1 in enumerate(zs) for z2 in zs[i:]]
        else:
            pairs = [_z_pair(p) for p in pairs]
    shift = _single_atom(params.nu)
    z = np.array(zs)
    b = beta(params, z)
    bt = beta_tilde(params, z)
    bound = bias_bound(params, z) if params.mode == "finite_N" else np.full(z.size, np.nan)
    residual = np.full(z.size, np.nan)
    if shift is not None:
        b0 = bao_xie_b0(params.sigma2, params.s2, params.tau, params.kappa, z - shift)
        residual = np.abs(b - b0) / np.maximum(1.0, np.abs(b0))
    betas = _Table.of(z=z, beta=b, beta_tilde=bt, bias_bound=bound, bao_xie_residual=residual)

    z1, z2 = np.array(pairs, dtype=complex).reshape(-1, 2).T
    kv = gamma_kernel(params, z1, z2)
    kresidual = np.full(z1.size, np.nan)
    if shift is not None:
        c0 = bao_xie_c0(params.sigma2, params.s2, params.tau, params.kappa, z1 - shift, z2 - shift)
        kresidual = np.abs(kv.gamma - c0) / np.maximum(1.0, np.abs(c0))
    gammas = _Table.of(z1=z1, z2=z2, gamma=kv.gamma, branch_margin=kv.branch_margin,
                       bao_xie_residual=kresidual)
    return _Output(args.seed, {"beta": betas, "gamma": gammas}, "theory.json",
                   {"beta": betas.records(), "gamma": gammas.records()})


def cmd_simulate(cfg: dict, args) -> _Output:
    with _reading_config(cfg):
        params = EnsembleParams.from_config(_block(cfg, "ensemble"))
        plan_cfg = _block(cfg, "plan")
        seed, stated = args.seed, plan_cfg.get("master_seed")
        if seed is None:
            if stated is None:
                raise ConfigError("a master seed is required (config plan.master_seed or --seed)")
            seed = check_count(stated, "plan.master_seed", least=0)
        plan = ExperimentPlan(
            params=params,
            n_samples=check_count(plan_cfg["n_samples"], "plan.n_samples"),
            z_grid=tuple(_z_grid(plan_cfg)),
            master_seed=seed,
            test_functions=_test_functions(plan_cfg, "plan"),
            truncation=plan_cfg.get("truncation"),
        )
    report = run_plan(plan, threads=args.threads)
    fp, zs, per_z = FluctuationParams.from_ensemble(params), np.array(report.z_grid), report.per_z
    table = _Table.of(
        z=zs, mean_tr=[s.mean_tr for s in per_z], bias_hat=[s.bias_hat for s in per_z],
        beta_theory=beta(fp, zs), se=[s.se_mean for s in per_z],
        var_hat=[s.var_hat for s in per_z],
        gamma_theory=gamma_kernel(fp, zs, zs.conj()).gamma.real,
        bound=[min(b["bound_crude"], b["bound_refined"])
               for b in variance_bound_check(report, params)])
    # compare reads the report, so it is written under every format
    return _Output(seed, {"per_z": table}, files={"report.json": report.to_json() + "\n"})


def _comparison(band: float, se: list, **columns) -> _Table:
    """A comparison table: ``columns`` ends with an estimate column and its
    theory column, and the table adds the standard error ``se``, their
    discrepancy over it and whether that is within ``band``."""
    *_, estimate, theory = columns.values()
    ratio, ok = zip(*(discrepancy(e, t, s, band) for e, t, s in zip(estimate, theory, se)))
    return _Table.of(**columns, se=se, discrepancy_over_se=ratio, ok=ok)


def cmd_compare(cfg: dict, args) -> _Output:
    with _reading_config(cfg):
        block = _block(cfg, "compare")
        report = EstimatorReport.from_json(Path(block["report"]).read_text())
        # the theory is that of the ensemble the report sampled, as its
        # params_config states it; a fluctuation block may state it again
        sampled = EnsembleParams.from_config(report.params_config)
        sources = {"its params_config": sampled}
        stated = _block(cfg, "fluctuation", optional=True)
        if "from_ensemble" in stated:
            sources["fluctuation.from_ensemble"] = EnsembleParams.from_config(
                _block(stated, "from_ensemble"))
        for source, ensemble in sources.items():
            if ensemble.digest() != report.params_hash:
                raise ConfigError(f"report params_hash {report.params_hash} does not match "
                                  f"{source} (digest {ensemble.digest()})")
        grid = cfg.get("z_grid")
        if grid is not None:
            wanted = [check_z(p) for p in grid]
            if sorted(wanted, key=lambda z: (z.real, z.imag)) != sorted(
                report.z_grid, key=lambda z: (z.real, z.imag)
            ):
                raise ConfigError("configured z grid does not match the report grid")
        thresholds = _block(block, "thresholds", optional=True)
        bias_band = check_real(thresholds.get("bias_band", 3.0), "thresholds.bias_band",
                               positive=True)
        cov_band = check_real(thresholds.get("cov_band", 3.0), "thresholds.cov_band",
                              positive=True)

    params = FluctuationParams.from_ensemble(sampled)
    per_z, checks = report.per_z, covariance_check(report, params, band=cov_band)
    bias = _comparison(bias_band, [s.se_mean for s in per_z], z=report.z_grid,
                       bias_hat=[s.bias_hat for s in per_z],
                       beta=beta(params, np.array(report.z_grid)).tolist())
    cov = _comparison(cov_band, [c["se"] for c in checks], z1=[c["z1"] for c in checks],
                      z2=[c["z2"] for c in checks], cov=[c["cov_nc"] for c in checks],
                      gamma=[c["gamma"] for c in checks])
    records = {"bias": bias.records(), "covariance": cov.records()}
    violations = sum(1 - row["ok"] for rows in records.values() for row in rows)
    return _Output(report.master_seed, {"compare_bias": bias, "compare_cov": cov},
                   "compare.json", {**records, "violations": violations}, violations)


def cmd_density(cfg: dict, args) -> _Output:
    with _reading_config(cfg):
        block = _block(cfg, "density")
        nu = _measure(block)
        v = check_real(block["v"], "density.v", positive=True)
        points = check_count(block.get("points", 201), "density.points")
        xs = block.get("x_grid")
        if xs is not None:
            xs = np.array(check_numbers(xs, "density.x_grid"))
        fns = _test_functions(block, "density")
    if xs is None:
        xs = np.linspace(*support_window(nu, v), points)
    est = density_at(nu, v, xs)
    # the warning column is always 0: the density is exact, not extrapolated
    table = _Table.of(x=est.x, density=est.value, error_estimate=est.error,
                      warning=np.zeros(est.x.size, dtype=int))
    payload = {"density": table.records(error_estimate="error")}
    if fns:
        payload["integrals"] = {
            phi.fn_id: integrate_against_rho(nu, v, phi) for phi in fns
        }
    return _Output(args.seed, {"density": table}, "density.json", payload)


def _generators(spec: dict, n_dim: int) -> dict[str, np.ndarray]:
    """The named generator matrices at one dimension."""
    out = {}
    for name in spec:
        g = _block(spec, name)
        kind = g["kind"]
        if kind == "diag_pm1":
            out[name] = diag_pm1(n_dim)
        elif kind == "diag_values":
            vals = np.array(check_numbers(g["values"], f"generator {name!r}: values"))
            reps = int(np.ceil(n_dim / vals.size))
            out[name] = np.diag(np.tile(vals, reps)[:n_dim])
        else:
            raise ConfigError(f"unknown generator kind {kind!r}")
    return out


def cmd_infinitesimal(cfg: dict, args) -> _Output:
    with _reading_config(cfg):
        block = _block(cfg, "infinitesimal")
        words = block.get("words")
        if not (isinstance(words, list) and words and all(isinstance(w, str) for w in words)):
            raise ConfigError("infinitesimal.words must be a nonempty list of strings")
        # each word is parsed once, so its pairing cycles are enumerated once
        parsed = [parse_word(text) for text in words]
        dims = [check_count(d, "infinitesimal.dims") for d in block.get("dims", [8, 16, 32, 64])]
        v = check_real(block.get("v", 1.0), "infinitesimal.v", positive=True)
        # a given mc block runs the cross-check, an empty one at its defaults
        run_mc = block.get("mc") is not None
        mc = _block(block, "mc", optional=True)
        sizes = list(dims)
        if run_mc:
            n_dim = check_count(mc.get("n_dim", 50), "infinitesimal.mc.n_dim")
            n_samples = check_count(mc.get("n_samples", 5000), "infinitesimal.mc.n_samples")
            sizes.append(n_dim)
        spec = _block(block, "generators", optional=True)
        generators = {n: _generators(spec, n) for n in sizes}
    reps = [infinitesimal_check(word, dims, v, generators.__getitem__) for word in parsed]
    violations = sum(not rep.ok for rep in reps)
    results = [
        {"word": text, "exact": rep.exact, "slope": rep.slope, "ok": rep.ok,
         "moments": [{"n": r.n_dim, "xi": _pair(r.xi), "free": _pair(r.free),
                      "correction": _pair(r.correction)} for r in rep.results]}
        for text, rep in zip(words, reps)
    ]
    if run_mc:
        checks = monte_carlo_cross_checks(
            parsed, n_dim, n_samples, v / n_dim,
            generators[n_dim], seed=int(args.seed or 0), threads=args.threads,
        )
        for entry, cc in zip(results, checks):
            entry["mc"] = {"mean": _pair(cc.mc_mean), "se": cc.mc_se,
                           "exact": _pair(cc.exact), "ok": cc.ok}
            violations += not cc.ok
    moments = [(text, r) for text, rep in zip(words, reps) for r in rep.results]
    table = _Table.of(word=[text for text, _ in moments], n=[r.n_dim for _, r in moments],
                      xi=[r.xi for _, r in moments], free=[r.free for _, r in moments],
                      correction=[r.correction for _, r in moments])
    return _Output(args.seed, {"moments": table}, "moments.json", {"words": results},
                   violations)


def cmd_identities(cfg: dict, args) -> _Output:
    with _reading_config(cfg):
        block = _block(cfg, "identities")
        params = EnsembleParams.from_config(_block(cfg, "ensemble"))
        master_seed, stated = args.seed, block.get("seed", 0)
        if master_seed is None:
            master_seed = check_count(stated, "identities.seed", least=0)
        count = check_count(block.get("count", 20), "identities.count")
        zs = _z_grid(block, default=[[0.0, 1.0]])
    rng = np.random.default_rng(master_seed)
    rows = []
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
        rows.append((z, k, rep.diag_residual, rep.trace_residual, rep.trace_gap, res_id, ok))
    z, k, diag, trace, gap, res_id, ok = zip(*rows)
    table = _Table.of(sample=range(count), z=z, k=k, schur_diag_residual=diag,
                      schur_trace_residual=trace, trace_gap=gap,
                      resolvent_identity_residual=res_id, ok=ok)
    return _Output(master_seed, {"identities": table}, "identities.json",
                   {"identities": table.records()}, ok.count(False))


_COMMANDS = {
    "theory": cmd_theory,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "density": cmd_density,
    "infinitesimal": cmd_infinitesimal,
    "identities": cmd_identities,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerlab",
        description="Deformed Wigner spectral statistics laboratory",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1,
                        help="worker processes for the Monte Carlo of simulate and "
                             "infinitesimal, each sample on one BLAS thread (default "
                             "and cap: the CPU count)")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument("--format", choices=["csv", "json", "both"], default="both")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _reading_config():
            cfg = json.loads(Path(args.config).read_text(), object_pairs_hook=_Object)
        if not isinstance(cfg, dict):
            raise ConfigError(f"the config must be a JSON object, not {type(cfg).__name__}")
        out = _COMMANDS[args.command](cfg, args)
        meta = _meta(cfg, out.seed)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in out.files.items():
            (out_dir / name).write_text(text)
        if args.format in ("csv", "both"):
            for stem, table in out.tables.items():
                _write_csv(out_dir / f"{stem}.csv", meta, table)
        if args.format in ("json", "both") and out.json_name is not None:
            _write_json(out_dir / out.json_name, meta, out.payload)
        return EXIT_OK if out.violations == 0 else EXIT_VIOLATION
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (WignerlabError, ArithmeticError) as exc:
        text = exc if isinstance(exc, WignerlabError) else f"{type(exc).__name__}: {exc}"
        print(f"error: {text}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
