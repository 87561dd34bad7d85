"""One index-ordered map of independent samples over forked worker processes.

``map_samples`` runs a function of the sample index alone at every index,
serially for one worker or on a forked process pool for more, with numpy's
bundled OpenBLAS pinned to one thread: each BLAS call gives the same bits
whatever thread count the caller set, and rows land at their sample index,
so any fixed-order reduction of them gives the same bits for every worker
count. A sample that raises aborts the whole map with a ``SampleError``
that carries its index: a skipped sample would bias every estimator.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import SampleError

__all__ = ["map_samples", "mean_and_se"]

_CHUNKS_PER_WORKER = 4  # a few ranges per worker even out uneven sample times
_per_sample = None  # set in each forked worker by the pool's initializer
_blas = None  # (get, set) of numpy's OpenBLAS thread count, looked up on first use


def _openblas():
    """Getter and setter of numpy's bundled OpenBLAS thread count, else no-ops."""
    global _blas
    if _blas is None:
        import ctypes  # numpy has loaded it already
        import glob
        _blas = (lambda: 1, lambda n: None)
        root = os.path.dirname(os.path.dirname(np.__file__))
        for path in glob.glob(os.path.join(root, "numpy.libs", "libscipy_openblas64_-*.so")):
            lib = ctypes.CDLL(path)
            get, put = (getattr(lib, f"scipy_openblas_{op}_num_threads64_", None)
                        for op in ("get", "set"))
            if get and put:
                get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
                _blas = (get, put)
    return _blas


def _install(per_sample) -> None:
    global _per_sample
    _per_sample = per_sample


def _row(per_sample, index: int):
    try:
        return per_sample(index)
    except Exception as exc:
        raise SampleError(f"sample {index} failed: {exc}", index=index) from exc


def _run_range(bounds: tuple[int, int]) -> np.ndarray:
    return np.stack([_row(_per_sample, i) for i in range(*bounds)])


def map_samples(per_sample, m: int, threads: int) -> np.ndarray:
    """Rows ``per_sample(i)`` for i in range(m), stacked in index order; the
    row shape and dtype are those of the rows (a scalar row gives a 1-d result).

    The worker count is min(threads, m, cores). More than one forks a pool
    whose initializer installs ``per_sample`` in each worker, so it is never
    pickled (test functions are often lambdas); each worker runs a few
    contiguous (start, stop) ranges. BLAS stays pinned to one thread, the
    workers forking under the pin, until the map returns or raises. A
    failing sample raises ``SampleError("sample {i} failed: ...", index=i)``
    from its exception; of several, the one of lowest index.
    """
    workers = min(threads, m, os.cpu_count() or 1)
    get_threads, set_threads = _openblas()
    caller = get_threads()
    set_threads(1)
    try:
        if workers > 1:
            import multiprocessing  # here, so that importing the CLI loads neither
            from concurrent.futures import ProcessPoolExecutor
            if "fork" in multiprocessing.get_all_start_methods():
                chunks = min(m, workers * _CHUNKS_PER_WORKER)
                edges = [m * k // chunks for k in range(chunks + 1)]
                with ProcessPoolExecutor(
                    workers, mp_context=multiprocessing.get_context("fork"),
                    initializer=_install, initargs=(per_sample,),
                ) as pool:
                    return np.concatenate(list(pool.map(_run_range, zip(edges, edges[1:]))))
        return np.stack([_row(per_sample, i) for i in range(m)])
    finally:
        set_threads(caller)


def mean_and_se(values: np.ndarray) -> tuple[complex, float]:
    """Sample mean and its standard error sqrt(sum |x - mean|^2 / (m - 1) / m)."""
    m = values.shape[0]
    mean = complex(values.mean())
    return mean, float(np.sqrt(np.sum(np.abs(values - mean) ** 2) / (m - 1) / m))
