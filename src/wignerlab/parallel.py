"""One index-ordered map of independent samples over forked worker processes.

``map_samples`` runs a function of the sample index alone at every index,
serially for one worker or, for more, on worker processes that it forks
itself, each on a strided share of the indices, with no process pool.
numpy's bundled OpenBLAS is pinned to one thread: each BLAS call gives the
same bits whatever thread count the caller set, and rows land at their
sample index, so any fixed-order reduction of them gives the same bits for
every worker count. A sample that raises aborts the whole map with a
``SampleError`` that carries its index: a skipped sample would bias every
estimator.
"""

from __future__ import annotations

import os
import pickle
from contextlib import suppress

import numpy as np

from .errors import SampleError

__all__ = ["map_samples", "mean_and_se"]

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


def _row(per_sample, index: int):
    try:
        return per_sample(index)
    except Exception as exc:
        raise SampleError(f"sample {index} failed: {type(exc).__name__}: {exc}",
                          index=index) from exc


class _WorkerTraceback(Exception):
    """A sample's exception in a forked worker, as its formatted traceback."""


def _work(per_sample, m: int, workers: int, w: int, fds: list[int]) -> None:
    """Forked worker w: close the read ends ``fds[:-1]``, pickle to ``fds[-1]``
    the rows of range(w, m, workers) stacked, or the first SampleError among
    them with the formatted traceback of its cause, and leave the process.
    Any other failure prints its traceback on stderr and exits with code 1,
    sending no message."""
    try:
        for fd in fds[:-1]:
            os.close(fd)
        try:
            message = np.stack([_row(per_sample, i) for i in range(w, m, workers)])
        except SampleError as exc:
            import traceback  # loaded by a failing worker only
            message = (exc, "".join(traceback.format_exception(exc.__cause__)))
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        with open(fds[-1], "wb") as pipe:
            pipe.write(data)
    except BaseException:
        import sys
        import traceback
        traceback.print_exc()
        sys.stderr.flush()  # os._exit flushes no Python buffer
        os._exit(1)
    os._exit(0)


def _forked(per_sample, m: int, workers: int) -> np.ndarray:
    """The rows of ``map_samples`` from ``workers`` forked processes, worker w
    computing range(w, m, workers) and sending its share down its own pipe.

    The pipes are read to EOF in worker order, and each worker is reaped by
    its pid. A worker that exits without a message raises SampleError at its
    first index. On any exception in this process, KeyboardInterrupt
    included, the workers not yet reaped are killed and reaped, and every
    pipe end still open is closed. A forked child never leaves ``_work``, so
    it never runs that cleanup, which would signal its siblings.
    """
    pids: list[int] = []  # forked and not yet reaped
    fds: list[int] = []  # pipe ends open in this process
    failures: list[SampleError] = []
    shares = []
    try:
        for w in range(workers):
            fds.extend(os.pipe())
            pid = os.fork()
            if pid == 0:
                try:
                    _work(per_sample, m, workers, w, fds)
                finally:
                    os._exit(1)
            pids.append(pid)
            os.close(fds.pop())  # so that a worker's pipe ends when the worker does
        for w in range(workers):
            with open(fds[0], "rb", closefd=False) as pipe:
                data = pipe.read()
            os.close(fds.pop(0))
            status = os.waitpid(pids[0], 0)[1]
            pids.pop(0)
            if status != 0 or not data:
                failures.append(SampleError(
                    f"the worker of samples {w}, {w + workers}, ... exited without "
                    f"sending its rows (wait status {status})", index=w))
                continue
            message = pickle.loads(data)
            if isinstance(message, tuple):
                exc, trace = message
                exc.__cause__ = _WorkerTraceback(trace)
                failures.append(exc)
            else:
                shares.append(message)
    except BaseException:
        import signal  # only on this path, so that a clean map does not load it
        for pid in pids:
            # an interrupt just after a waitpid leaves a reaped pid listed
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
        raise
    finally:
        for fd in fds:
            with suppress(OSError):  # closed by an interrupted close-and-pop
                os.close(fd)
    if failures:
        raise min(failures, key=lambda exc: exc.index)
    rows = np.empty((m, *shares[0].shape[1:]), dtype=np.result_type(*shares))
    for w, share in enumerate(shares):
        rows[w::workers] = share
    return rows


def map_samples(per_sample, m: int, threads: int) -> np.ndarray:
    """Rows ``per_sample(i)`` for i in range(m), stacked in index order; the
    row shape and dtype are those of the rows (a scalar row gives a 1-d result).

    The worker count is min(threads, m, cores). More than one forks that
    many workers, where the platform can fork, and worker w computes the
    strided share range(w, m, workers): ``per_sample`` is inherited, never
    pickled (test functions are often lambdas), and only each worker's
    stacked rows come back, pickled down a pipe. BLAS stays pinned to one
    thread, the workers forking under the pin, until the map returns or
    raises. A failing sample raises ``SampleError("sample {i} failed:
    {type}: ...", index=i)`` from its exception (from a worker, from an
    exception that holds the worker's formatted traceback of it); of
    several, the one of lowest index. A worker that exits without sending
    its rows, its traceback printed on stderr if it had one, raises
    SampleError at its first index; no rows are returned then, and no
    worker or pipe outlives the call.
    """
    workers = min(threads, m, os.cpu_count() or 1)
    get_threads, set_threads = _openblas()
    caller = get_threads()
    set_threads(1)
    try:
        if workers > 1 and hasattr(os, "fork"):
            return _forked(per_sample, m, workers)
        return np.stack([_row(per_sample, i) for i in range(m)])
    finally:
        set_threads(caller)


def mean_and_se(values: np.ndarray) -> tuple[complex, float]:
    """Sample mean and its standard error sqrt(sum |x - mean|^2 / (m - 1) / m)."""
    m = values.shape[0]
    mean = complex(values.mean())
    return mean, float(np.sqrt(np.sum(np.abs(values - mean) ** 2) / (m - 1) / m))
