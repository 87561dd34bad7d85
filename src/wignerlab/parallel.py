"""One index-ordered map of independent samples over forked worker processes.

Monte Carlo estimators here evaluate a function of the sample index alone,
so the samples can run on any number of workers. ``map_samples`` asks for a
worker count: one runs the samples serially in this process; more fork a
process pool, each worker given contiguous ranges of sample indices. The
pool is capped at the cores that BLAS threads leave free (all of them with
OPENBLAS_NUM_THREADS=1, none when BLAS takes every core, as it does by
default), and the samples run serially where the platform cannot fork.
Rows land at their sample index, so any reduction of them afterwards in a
fixed order gives the same bits for every worker count.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["map_samples"]

_CHUNKS_PER_WORKER = 4  # a few ranges per worker even out uneven sample times
_per_sample = None  # set in each forked worker by the pool's initializer


def _blas_threads() -> int:
    """Threads one BLAS call may use, from the variables OpenBLAS reads at
    start-up (OPENBLAS_NUM_THREADS, then OMP_NUM_THREADS); one per core when
    neither is set."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return os.cpu_count() or 1


def _install(per_sample) -> None:
    global _per_sample
    _per_sample = per_sample


def _run_range(bounds: tuple[int, int]) -> np.ndarray:
    return np.stack([_per_sample(i) for i in range(*bounds)])


def map_samples(per_sample, m: int, threads: int) -> np.ndarray:
    """Rows ``per_sample(i)`` for i in range(m), stacked in index order; the
    row shape and dtype are those of the rows (a scalar row gives a 1-d result).

    The worker count is min(threads, m, cores // BLAS threads); one runs the
    samples serially. More fork a process pool. Its initializer installs
    ``per_sample`` in each worker, which fork inherits, so the function is
    never pickled (test functions are often lambdas). Workers get contiguous
    (start, stop) ranges, a few each, and send back only their rows, which
    land at their sample index whatever order the ranges finish in. Workers
    keep the caller's BLAS thread count, so each BLAS call (an eigensolve, a
    matrix product) gives the bits a serial run gives; the pool only takes
    the cores BLAS threads leave free, because both at once ran slower than
    one process. Where the platform cannot fork, the samples run serially.
    """
    workers = min(threads, m, max(1, (os.cpu_count() or 1) // _blas_threads()))
    if workers > 1:
        # imported here so that importing the CLI does not load them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            chunks = min(m, workers * _CHUNKS_PER_WORKER)
            edges = [m * k // chunks for k in range(chunks + 1)]
            ranges = list(zip(edges[:-1], edges[1:]))
            with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_install, initargs=(per_sample,),
            ) as pool:
                return np.concatenate(list(pool.map(_run_range, ranges)))
    return np.stack([per_sample(i) for i in range(m)])
