"""wignerlab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``monte_carlo`` (phases mc_large, mc_small), ``theory`` (phases
theory_grid, theory_inversion, pairings), or ``all`` to run both workloads
in turn. The seed generates every input; the program sees
only the generated JSON configs, and every output is checked against the
phase's reference (see ``workloads.py``).

The work runs in fresh interpreters (``bench/child.py``) that import the
package from ``src/`` and run each phase's CLI commands (or a public API call
where the CLI has no command), repeating the whole sequence until the next
repetition would end after S seconds in all; at least one repetition runs.

With ``--trace 0`` the end-to-end metrics are reported: the median set-up
time (a fresh interpreter until the first workload call) over five
interpreters, four of which stop after set-up; the median work time and items
per second over the repetitions; and the peak resident memory of one CLI run.
With ``--trace 1`` every phase of every workload runs, whatever NAME is, so
that each per-layer metric is measured in each traced run: one interpreter
repeats all five phases traced for half the time and another untraced for
the rest. Layer metrics are computed per phase from the spans of that
phase's steps and reported as ``<phase>.<layer key>`` for the layers the
phase exercises (``PHASE_LAYERS``); they are medians over the traced
repetitions (see ``tracer.py``). ``<phase>.s`` is the phase's median time
over the untraced repetitions and ``<phase>.max_err`` its largest deviation
from its reference; ``trace_overhead_s`` is the difference of the two median
work times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed. Without ``src/wignerlab`` next to this
directory the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "ensemble.sample.calls": "count",
    "ensemble.sample.s": "s",
    "ensemble.sample.ms_p50": "ms",
    "ensemble.digest.calls": "count",
    "ensemble.truncate.s": "s",
    "spectral.eigenvalues.calls": "count",
    "spectral.eigenvalues.s": "s",
    "spectral.eigenvalues.ms_p50": "ms",
    "spectral.reduce.s": "s",
    "montecarlo.run.self_s": "s",
    "montecarlo.busy_frac": "fraction",
    "montecarlo.sample_ms_p50": "ms",
    "montecarlo.sample_ms_tail": "ms",
    "montecarlo.report_io.s": "s",
    "montecarlo.report.bytes": "B",
    "freeconv.solve_pastur.calls": "count",
    "freeconv.solve_pastur.iterations": "count",
    "freeconv.solve_pastur.us_p50": "us",
    "freeconv.solves_per_z": "ratio",
    "freeconv.density.calls": "count",
    "freeconv.density.s": "s",
    "freeconv.integrate_against_rho.s": "s",
    "theory.beta.calls": "count",
    "theory.gamma_kernel.calls": "count",
    "theory.extend_bias.s": "s",
    "theory.self_s": "s",
    "testfn.evals": "count",
    "testfn.s": "s",
    "infinitesimal.pairings": "count",
    "infinitesimal.exact.s": "s",
    "infinitesimal.mc_cross_check.s": "s",
    "cli.self_s": "s",
}
# Layers each phase exercises, by key prefix. The Monte Carlo phases call
# freeconv and theory only for compare's handful of predictions.
PHASE_LAYERS = {
    "mc_large": ("ensemble.", "spectral.", "montecarlo.", "cli."),
    "mc_small": ("ensemble.", "spectral.", "montecarlo.", "cli."),
    "theory_grid": ("freeconv.", "theory.", "testfn.", "cli."),
    "theory_inversion": ("freeconv.", "theory.", "testfn.", "cli."),
    "pairings": ("infinitesimal.", "cli."),
}
# Layers within those a phase never calls, so their figures would always
# be 0: mc_large has no truncation, theory_grid computes no density, bias
# or test function, and theory_inversion no covariance kernel.
UNUSED_LAYERS = {
    "mc_large": ("ensemble.truncate.s",),
    "theory_grid": ("freeconv.density.calls", "freeconv.density.s",
                    "freeconv.integrate_against_rho.s", "theory.extend_bias.s",
                    "testfn.evals", "testfn.s"),
    "theory_inversion": ("theory.gamma_kernel.calls",),
}


def _phase_layers(phase: str) -> list[str]:
    return [k for k in LAYER_UNITS
            if k.startswith(PHASE_LAYERS[phase]) and k not in UNUSED_LAYERS.get(phase, ())]


PER_LAYER = {
    **{f"{p}.{k}": LAYER_UNITS[k] for p in PHASE_LAYERS for k in _phase_layers(p)},
    **{f"{p}.{m}": u for p in workloads.PHASES for m, u in (("s", "s"), ("max_err", "err"))},
    "trace_overhead_s": "s",
}
SETUP_SAMPLES = 5
TRACE_SETUP_GUESS = 1.5  # seconds a child needs before its work starts
DEADLINE = 140.0  # no child starts later than this after the run began
CHILD_TIMEOUT = 170.0


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.phases = tuple(workloads.PHASES) if trace else workloads.WORKLOADS[name]
        self.work = WORK / f"{name}-{seed}-{os.getpid()}"
        self.checks: list[tuple[str, bool, str]] = []
        self.reps: list[dict] = []
        self.setups: list[float] = []
        self.rss_mb: list[float] = []
        self.outcomes: dict = {}
        self.env: dict = {}
        self.t_start = time.monotonic()

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start

    def child(self, tag: str, spec: dict) -> dict | None:
        """Run one child interpreter; returns its result with ``setup`` filled in."""
        spec_path = self.work / f"{tag}.spec.json"
        result_path = self.work / f"{tag}.result.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
        timeout = max(CHILD_TIMEOUT - self.elapsed(), 1.0)
        t_launch = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(spec_path), str(result_path)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.check(f"{tag} finished in time", False, f"killed after {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not result_path.exists():
            self.check(f"{tag} child exited cleanly", False,
                       f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return None
        result = json.loads(result_path.read_text())
        package = Path(result["package"]).resolve()
        self.check("package imported from src/", package.is_relative_to(SRC.resolve()), str(package))
        result["setup"] = result["t_ready"] - t_launch
        return result

    def work_child(self, plans: dict, steps: list, traced: bool, budget: float) -> None:
        """One child that repeats every phase in turn for ``budget`` seconds of work."""
        tag = "traced" if traced else "plain"
        for plan in plans.values():
            shutil.rmtree(plan.out_dir, ignore_errors=True)
            plan.out_dir.mkdir(parents=True)
        spans_path = self.work / f"{tag}.spans.json"
        spec = {"steps": steps, "trace": traced, "setup_only": False, "budget": budget,
                "out_dirs": [str(plan.out_dir) for plan in plans.values()],
                "spans": str(spans_path), "post_checks": not traced}
        result = self.child(tag, spec)
        if result is None:
            return
        if not traced:
            self.setups.append(result["setup"])
            self.rss_mb.append(result["rss_kb"] / 1024.0)
        items = sum(plan.items for plan in plans.values())
        spans_per_rep = json.loads(spans_path.read_text()) if traced else []
        for i, rep in enumerate(result["repetitions"]):
            for step in rep["steps"]:
                if "error" in step:
                    self.check(f"{step['name']} ran", False, step["error"])
                elif "rc" in step:
                    self.check(f"{step['name']} exit code 0", step["rc"] == 0, f"exit {step['rc']}")
            phase_s = {p: sum(s["s"] for s, st in zip(rep["steps"], steps) if st["phase"] == p)
                       for p in plans}
            values = [s.get("value") for s in rep["steps"]]
            record = {"traced": traced, "wall": rep["s"], "items_per_s": items / rep["s"],
                      "phases": phase_s,
                      "outputs": json.dumps([rep["digests"], values], sort_keys=True)}
            if traced:
                spans = spans_per_rep[i]
                problems = tracer.check_spans(spans)
                self.check("traced spans nest inside their parents", not problems, "; ".join(problems))
                record["layers"] = {}
                for p in plans:
                    own = [s for step, st in zip(rep["steps"], steps) if st["phase"] == p
                           for s in spans[slice(*step["spans"])]]
                    layers = tracer.layer_metrics(own, workloads.THREADS)
                    record["layers"].update({f"{p}.{k}": layers[k] for k in _phase_layers(p)})
            self.reps.append(record)
        last = result["repetitions"][-1]["steps"]
        for p, plan in plans.items():
            check = workloads.PHASES[p][1]
            try:
                outcome = check(plan, [s for s, st in zip(last, steps) if st["phase"] == p])
            except (KeyError, IndexError, TypeError, ValueError) as exc:  # outputs in another shape
                outcome = workloads.Outcome(checks=[("outputs readable", False, repr(exc))],
                                            max_err=float("nan"), max_err_detail="unreadable outputs")
            self.outcomes[p] = outcome
            for name, ok, detail in outcome.checks:
                self.check(f"{p}: {name}", ok, detail)
        if "post" in result:
            self.env.update(result["env"])
            worst = max(abs(xi - (2 * n**3 + n) / n) / ((2 * n**3 + n) / n) for n, xi in result["post"])
            self.check("Harer-Zagier b_2 = 2N^3 + N matches xi_exact('w1 w1 w1 w1')",
                       worst <= 1e-12, f"worst relative {worst:.1e}")

    def execute(self) -> dict:
        for name, failures in (("oracles", oracles.self_check()), ("tracer", tracer.self_check())):
            self.check(f"{name} self-check", not failures, "; ".join(failures))
        plans = {}
        for p in self.phases:
            (self.work / p).mkdir(parents=True, exist_ok=True)
            plans[p] = workloads.PHASES[p][0](self.seed, self.work / p)
        steps = [{**step, "phase": p} for p, plan in plans.items() for step in plan.steps]
        self.t_start = time.monotonic()
        if self.trace:
            half = max(self.seconds / 2.0 - TRACE_SETUP_GUESS, 0.0)
            self.work_child(plans, steps, True, half)
            self.work_child(plans, steps, False, min(half, DEADLINE - self.elapsed()))
        else:
            while len(self.setups) < SETUP_SAMPLES - 1:
                result = self.child(f"setup{len(self.setups)}",
                                    {"steps": steps, "trace": False, "setup_only": True})
                if result is None:
                    break
                self.setups.append(result["setup"])
            left = self.seconds - self.elapsed() - statistics.median(self.setups or [0.0])
            self.work_child(plans, steps, False, min(left, DEADLINE - self.elapsed()))
        outputs = {r["outputs"] for r in self.reps}
        self.check("outputs byte-identical across repetitions", len(outputs) <= 1,
                   f"{len(outputs)} distinct output sets over {len(self.reps)} repetitions")
        return self.summarise(plans)

    def summarise(self, plans) -> dict:
        failed = sum(1 for _, ok, _ in self.checks if not ok)
        plain = [r for r in self.reps if not r["traced"]]
        traced = [r for r in self.reps if r["traced"]]

        def median(values):
            values = list(values)
            return statistics.median(values) if values else float("nan")

        phase_s = {p: median(r["phases"][p] for r in plain) for p in self.phases}
        if self.trace:
            metrics = {key: median(r["layers"][key] for r in traced)
                       for key in (traced[0]["layers"] if traced else ())}
            for p in self.phases:
                metrics[f"{p}.s"] = phase_s[p]
                metrics[f"{p}.max_err"] = self.outcomes[p].max_err if p in self.outcomes else float("nan")
            metrics["trace_overhead_s"] = median(r["wall"] for r in traced) - median(r["wall"] for r in plain)
            units = PER_LAYER
        else:
            metrics = {
                "setup_s": median(self.setups),
                "wall_s": median(r["wall"] for r in plain),
                "items_per_s": median(r["items_per_s"] for r in plain),
                "peak_rss_mb": median(self.rss_mb),
            }
            units = END_TO_END
        env = {
            **self.env,
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "OPENBLAS_NUM_THREADS": "1",
            "threads": workloads.THREADS if any(p.startswith("mc_") for p in self.phases) else None,
        }
        items = sum(plan.items for plan in plans.values())
        print(f"workload {self.name}: seed {self.seed}, trace {int(self.trace)}, "
              f"{len(self.reps)} repetitions ({len(traced)} traced) of {items} items, "
              f"{len(self.setups)} set-ups, in {self.elapsed():.1f} s")
        print("env " + json.dumps(env, sort_keys=True))
        seen = {}
        for name, ok, detail in self.checks:
            if name not in seen or not ok:
                seen[name] = (ok, detail)
        for name, (ok, detail) in seen.items():
            print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
        for p, outcome in self.outcomes.items():
            print(f"{p}: max_err = {outcome.max_err:.6g} ({outcome.max_err_detail}); "
                  f"median time {phase_s[p]:.4f} s for {plans[p].items} items")
        print(f"fail_frac = {failed}/{len(self.checks)} = {failed / max(len(self.checks), 1):.6g}")
        if plain:
            q = _quartiles([r["wall"] for r in plain])
            print(f"wall_s quartiles = {q[0]:.4f} / {q[1]:.4f} / {q[2]:.4f} s "
                  f"over {len(plain)} untraced repetitions")
        if self.trace:
            print("note: freeconv.solve_pastur.iterations sums SubordinationSolution.iterations, "
                  "which leaves out the eta-walk warm-up solves (they are not exposed publicly)")
            for p in self.phases:
                calls = metrics.get(f"{p}.ensemble.sample.calls", 0)
                if calls > 0:
                    print(f"note: {p}.montecarlo.sample_ms_tail is p{tracer.tail_percentile(int(calls))}, "
                          "the highest whole percentile with at least ten samples beyond it")
        for key, value in metrics.items():
            print(f"{key} = {value:.6g} {units[key]}")
        missing = sorted(set(units) - set(metrics))
        self.check("every metric of the manifest is reported", not missing, ", ".join(missing))
        unmeasured = sorted(k for k, v in metrics.items() if not math.isfinite(v))
        self.check("every metric is a finite number", not unmeasured, ", ".join(unmeasured))
        failed = sum(1 for _, ok, _ in self.checks if not ok)
        for name, ok, detail in self.checks[-2:]:
            if not ok:
                print(f"check FAIL {name} ({detail})")
        correct = failed == 0 and bool(self.reps)
        if correct:
            shutil.rmtree(self.work, ignore_errors=True)
        else:
            print(f"outputs kept in {self.work}", file=sys.stderr)
        return {
            "correct": correct,
            "attempted": max(len(self.checks), 1),
            "failed": failed,
            # A metric that could not be measured is printed as null, so that
            # the line stays JSON; such a run has already failed a check.
            "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
                        for k, v in metrics.items()},
        }


def _quartiles(values):
    if len(values) < 2:
        return (values[0],) * 3
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wignerlab" / "cli.py").is_file():
        print(f"no wignerlab package at {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: Run(n, args.seed, args.seconds, bool(args.trace)).execute() for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, allow_nan=False))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
