"""Outside-in tracer for the wignerlab package.

``install()`` replaces the package's public functions with timing wrappers
from outside the package. Modules import functions by name (``montecarlo``
binds ``sample``, ``cli`` binds ``density`` as ``density_at``), so every
module attribute bound to a traced function object is rebound to the one
shared wrapper. Each call records a span (id, parent id, name, start, end,
thread, extra); spans stay in memory until ``Tracer.dump``.

Re-entrant calls of the function that is already innermost on the thread's
stack (``solve_pastur`` reflecting a lower-half-plane z onto the upper one)
record no span of their own, so one public call counts once. Worker threads
of the Monte Carlo pool start with an empty stack; their spans take the main
thread's innermost open span (``montecarlo.run``) as parent.

The analysis half (``self_times``, ``check_spans``, ``layer_metrics``) works
on dumped spans and imports nothing from the package.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time

import numpy as np

# defining module -> public functions traced there (span name: layer.function)
FUNCTIONS = {
    "ensemble": ("sample", "truncate_center_homogenize"),
    "spectral": ("eigenvalues", "trace_resolvent", "linear_statistic"),
    "montecarlo": ("run", "covariance_check", "variance_bound_check"),
    "freeconv": ("solve_pastur", "density", "integrate_against_rho"),
    "theory": ("beta", "beta_tilde", "bias_bound", "gamma_kernel", "extend_bias"),
    "infinitesimal": ("enumerate_pairings", "xi_exact", "free_moment",
                      "infinitesimal_check", "monte_carlo_cross_check"),
    "cli": ("main",),
}
# (module, class, method) traced on the class itself
METHODS = (
    ("ensemble", "EnsembleParams", "digest"),
    ("montecarlo", "EstimatorReport", "to_json"),
    ("montecarlo", "EstimatorReport", "from_json"),
    ("testfn", "TestFunction", "__call__"),
)


def _extra(name: str, args, result):
    """Per-span payload that layer metrics need; None for most spans."""
    if name == "freeconv.solve_pastur":
        z = complex(args[2])
        return [z.real, z.imag, int(result.iterations)]
    if name == "infinitesimal.enumerate_pairings":
        return len(result)
    if name == "montecarlo.to_json":
        return len(result)
    if name == "testfn.__call__":
        return int(np.ndim(args[1]) == 0)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[tuple[int, str]] = []
        self._main_thread = threading.main_thread()

    def _stack(self) -> list[tuple[int, str]]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1][0]
            elif self._main_stack:
                parent = self._main_stack[-1][0]
            else:
                parent = 0
            span_id = next(self._ids)
            stack.append((span_id, name))
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = None if result is None else _extra(name, args, result)
                self.spans.append((span_id, parent, name, t0, t1, threading.get_ident(), extra))

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args) as a root span (the benchmark's own step boundary)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        import wignerlab.cli  # noqa: F401  (the CLI imports every traced module)

        package = {k: m for k, m in sys.modules.items() if k.startswith("wignerlab.")}
        for short, names in FUNCTIONS.items():
            module = package[f"wignerlab.{short}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self.wrap(f"{short}.{fname}", original)
                for mod in package.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(package[f"wignerlab.{short}"], cls_name)
            raw = cls.__dict__[meth]
            name = f"{short}.{meth}"
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(name, raw))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# ---------------------------------------------------------------- analysis

def _children(spans) -> dict[int, list]:
    kids: dict[int, list] = {}
    for s in spans:
        kids.setdefault(s[1], []).append(s)
    return kids


def _covered(t0: float, t1: float, intervals) -> float:
    """Length of [t0, t1] covered by the union of the given intervals."""
    total, end = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    kids = _children(spans)
    return {
        s[0]: (s[4] - s[3]) - _covered(s[3], s[4], [(c[3], c[4]) for c in kids.get(s[0], ())])
        for s in spans
    }


def check_spans(spans, tol: float = 1e-6) -> list[str]:
    """Every child lies inside its parent; self time is never negative."""
    by_id = {s[0]: s for s in spans}
    failures = []
    for s in spans:
        parent = by_id.get(s[1])
        if parent is not None and (s[3] < parent[3] - tol or s[4] > parent[4] + tol):
            failures.append(f"span {s[2]} escapes its parent {parent[2]}")
    for sid, value in self_times(spans).items():
        if value < -tol:
            failures.append(f"span {by_id[sid][2]} has negative self time {value:.3e}")
    return failures[:5]


def self_check() -> list[str]:
    """Nested calls: the parent's time must equal its self time plus its children's."""
    tracer = Tracer()

    def leaf(d):
        time.sleep(d)

    def middle():
        time.sleep(0.002)
        inner(0.003)
        inner(0.001)

    inner = tracer.wrap("test.leaf", leaf)
    mid = tracer.wrap("test.middle", middle)

    def outer():
        mid()
        time.sleep(0.002)
        mid()

    tracer.span("test.outer", outer)
    spans = tracer.spans
    selfs = self_times(spans)
    kids = _children(spans)
    failures = check_spans(spans)
    if len(spans) != 7:
        failures.append(f"expected 7 spans, recorded {len(spans)}")
    for s in spans:
        child_time = sum(c[4] - c[3] for c in kids.get(s[0], ()))
        if abs(selfs[s[0]] + child_time - (s[4] - s[3])) > 1e-9:
            failures.append(f"self + children != duration for {s[2]}")
    return failures


def _percentile_ms(values, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def tail_percentile(n: int) -> int:
    """Highest whole percentile (at most 99) with at least ten of n samples beyond it."""
    if n < 20:
        return 50
    return min(99, math.floor(100.0 * (1.0 - 10.0 / n)))


def sample_spans(spans) -> tuple[list[float], list[tuple[float, float]]]:
    """Per-sample durations inside each montecarlo.run, and each run's busy share.

    A sample span opens when a worker enters ensemble.sample and closes at the
    end of the last traced call that worker makes before its next sample.
    Returns (durations, [(busy seconds, run seconds)]).
    """
    kids = _children(spans)
    durations, runs = [], []
    for run in (s for s in spans if s[2] == "montecarlo.run"):
        per_thread: dict[int, list] = {}
        for c in kids.get(run[0], ()):
            per_thread.setdefault(c[5], []).append(c)
        busy = 0.0
        for calls in per_thread.values():
            start = end = None
            for c in sorted(calls, key=lambda c: c[3]):
                if not c[2].startswith(("ensemble.", "spectral.")):
                    continue  # run's own theory solves after the sample loop
                if c[2] == "ensemble.sample":
                    if start is not None:
                        durations.append(end - start)
                        busy += end - start
                    start, end = c[3], c[4]
                elif start is not None:
                    end = max(end, c[4])
            if start is not None:
                durations.append(end - start)
                busy += end - start
        runs.append((busy, run[4] - run[3]))
    return durations, runs


def layer_metrics(spans, threads: int) -> dict[str, float]:
    """Per-layer metrics of a set of spans: one phase of one traced repetition."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
    selfs = self_times(spans)

    def calls(name):
        return len(by_name.get(name, ()))

    def secs(*names):
        return sum(s[4] - s[3] for n in names for s in by_name.get(n, ()))

    def p50(name, scale):
        d = [s[4] - s[3] for s in by_name.get(name, ())]
        return float(np.median(d)) * scale if d else 0.0

    def self_of(prefix):
        return sum(selfs[s[0]] for s in spans if s[2].startswith(prefix))

    solves = [s for s in by_name.get("freeconv.solve_pastur", ()) if s[6] is not None]
    distinct_z = {(e[6][0], e[6][1]) for e in solves}
    scalar_evals = [s for s in by_name.get("testfn.__call__", ()) if s[6]]
    samples, runs = sample_spans(spans)
    run_wall = sum(r[1] for r in runs)
    return {
        "ensemble.sample.calls": calls("ensemble.sample"),
        "ensemble.sample.s": secs("ensemble.sample"),
        "ensemble.sample.ms_p50": p50("ensemble.sample", 1e3),
        "ensemble.digest.calls": calls("ensemble.digest"),
        "ensemble.truncate.s": secs("ensemble.truncate_center_homogenize"),
        "spectral.eigenvalues.calls": calls("spectral.eigenvalues"),
        "spectral.eigenvalues.s": secs("spectral.eigenvalues"),
        "spectral.eigenvalues.ms_p50": p50("spectral.eigenvalues", 1e3),
        "spectral.reduce.s": secs("spectral.trace_resolvent", "spectral.linear_statistic"),
        "montecarlo.run.self_s": self_of("montecarlo.run"),
        "montecarlo.busy_frac": sum(r[0] for r in runs) / (run_wall * threads) if run_wall else 0.0,
        "montecarlo.sample_ms_p50": _percentile_ms(samples, 50.0),
        "montecarlo.sample_ms_tail": _percentile_ms(samples, tail_percentile(len(samples))),
        "montecarlo.report_io.s": secs("montecarlo.to_json", "montecarlo.from_json"),
        "montecarlo.report.bytes": sum(s[6] for s in by_name.get("montecarlo.to_json", ())),
        "freeconv.solve_pastur.calls": len(solves),
        "freeconv.solve_pastur.iterations": sum(s[6][2] for s in solves),
        "freeconv.solve_pastur.us_p50": p50("freeconv.solve_pastur", 1e6),
        "freeconv.solves_per_z": len(solves) / len(distinct_z) if distinct_z else 0.0,
        "freeconv.density.calls": calls("freeconv.density"),
        "freeconv.density.s": secs("freeconv.density"),
        "freeconv.integrate_against_rho.s": secs("freeconv.integrate_against_rho"),
        "theory.beta.calls": calls("theory.beta"),
        "theory.gamma_kernel.calls": calls("theory.gamma_kernel"),
        "theory.extend_bias.s": secs("theory.extend_bias"),
        "theory.self_s": self_of("theory."),
        "testfn.evals": len(scalar_evals),
        "testfn.s": sum(s[4] - s[3] for s in scalar_evals),
        "infinitesimal.pairings": sum(s[6] for s in by_name.get("infinitesimal.enumerate_pairings", ())),
        "infinitesimal.exact.s": secs("infinitesimal.xi_exact", "infinitesimal.free_moment"),
        "infinitesimal.mc_cross_check.s": secs("infinitesimal.monte_carlo_cross_check"),
        "cli.self_s": self_of("cli.main"),
    }
