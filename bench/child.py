"""Repetitions of a workload in one fresh interpreter.

Usage: python3 bench/child.py SPEC.json RESULT.json

SPEC holds the steps of one repetition, the work budget in seconds, the
output directories, whether to trace, and whether to stop after set-up. The
child imports the package, builds the inputs of any API step and notes the
monotonic clock: that is the end of set-up (the parent noted the clock just
before starting this interpreter). It then repeats the steps until the next repetition would end
after the budget (at least once), timing each step. CLI steps call
``wignerlab.cli.main`` with the step's arguments, as the console script does.

RESULT gets, per repetition, the step times, exit codes or API results, the
range of span indices each step recorded when tracing, and the digests of
every output file (taken outside the timed region); the peak
resident memory after the first repetition, which is what one CLI run pays;
and the environment. When tracing, the spans of each repetition are dumped
to SPEC's ``spans`` path as one list per repetition.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _build_extend_bias(args: dict):
    from wignerlab import testfn, theory
    from wignerlab.freeconv import AtomicMeasure

    params = theory.FluctuationParams(
        sigma2=args["sigma2"], s2=args["s2"], tau=args["tau"], kappa=args["kappa"],
        nu=AtomicMeasure.from_atoms(args["nu"]),
    )
    phi = testfn.smooth_bump(*args["bump"])

    def call():
        got = theory.extend_bias(params, phi)
        return {"value": got.value, "error": got.error}

    return call


def _environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _post_checks() -> list:
    """xi_exact for the word W^4 at N = 1..8, for the parent to hold against 2N^3 + N."""
    from wignerlab.infinitesimal import parse_word, xi_exact

    word = parse_word("w1 w1 w1 w1")
    return [[n, xi_exact(word, n, 1.0).real] for n in range(1, 9)]


def _digests(out_dirs) -> dict:
    return {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest()
        for d in map(Path, out_dirs) for p in sorted(d.rglob("*")) if p.is_file()
    }


def _repetition(steps, calls, cli_main, tracer) -> list:
    records = []
    for step, call in zip(steps, calls):
        record = {"name": step["name"]}
        first_span = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        try:
            if call is None:
                record["rc"] = cli_main(step["argv"])
            else:
                record["value"] = tracer.span(f"api.{step['name']}", call) if tracer else call()
        except Exception:  # the parent counts it as a failed operation
            record["error"] = traceback.format_exc(limit=3)
        record["s"] = time.perf_counter() - t0
        if tracer:  # every span of the step has closed by now, worker threads' too
            record["spans"] = [first_span, len(tracer.spans)]
        records.append(record)
    return records


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import wignerlab
    import wignerlab.cli

    steps = spec["steps"]
    calls = [_build_extend_bias(s["args"]) if s["kind"] == "api" else None for s in steps]
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "package": wignerlab.__file__, "repetitions": []}
    if not spec["setup_only"]:
        spans = []
        t_work = time.perf_counter()
        while True:
            records = _repetition(steps, calls, wignerlab.cli.main, tracer)
            rep = {"steps": records, "s": sum(r["s"] for r in records)}
            if not result["repetitions"]:
                result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer is not None:
                spans.append(tracer.spans)
                tracer.spans = []
            rep["digests"] = _digests(spec["out_dirs"])
            result["repetitions"].append(rep)
            failed = any("error" in r or r.get("rc", 0) != 0 for r in records)
            if failed or time.perf_counter() - t_work + rep["s"] > spec["budget"]:
                break
        if tracer is not None:
            with open(spec["spans"], "w") as fh:
                json.dump(spans, fh, separators=(",", ":"))
        if spec.get("post_checks"):  # after the spans are written, so never traced
            result["env"] = _environment()
            result["post"] = _post_checks()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
