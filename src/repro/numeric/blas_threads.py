"""Per-process BLAS thread budget.

numpy and scipy each bundle their own OpenBLAS, and each sizes its thread
pool to every CPU of the machine. P worker processes (or P executor
threads) that each run multithreaded BLAS on the same cores oversubscribe
them: on 2 CPUs with P=2, per-worker busy time inflates 20-50x, and a peer
that is silent only because it is busy looks like a lost frame to the
recovery protocol.

:func:`thread_budget` gives each of P concurrent BLAS users
``max(1, usable CPUs // P)`` threads; :func:`set_blas_threads` applies it
through OpenBLAS's own setter (via ctypes, so no extra dependency), and
:func:`limit_blas_threads` applies it for the duration of a block. A
budget is a cap: it never raises a library above its current count, so an
``OPENBLAS_NUM_THREADS`` pin in the environment still wins. Libraries that
are not OpenBLAS builds bundled with numpy/scipy are left alone.

The setter (re)starts OpenBLAS's thread server, whose threads then
busy-wait for work for ~0.1-0.2 s. In a freshly forked worker that spin
takes a CPU from its peers just as the factorization starts (measured on
2 CPUs: 8x8 dpotrf+dgemm loops ran 2x slower for the first ~0.2 s), so
lowering a library's count also stops its server; single-threaded calls
do not need it, and a later raise restarts it.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager
from pathlib import Path

import numpy
import scipy

#: (package, setter, getter) of the OpenBLAS each package bundles; both
#: builds also export the unprefixed ``blas_thread_shutdown_``.
_SYMBOLS = (
    (numpy, "scipy_openblas_set_num_threads64_",
     "scipy_openblas_get_num_threads64_"),
    (scipy, "scipy_openblas_set_num_threads",
     "scipy_openblas_get_num_threads"),
)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, if known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def thread_budget(nprocs: int, cpus: int | None = None) -> int:
    """BLAS threads for each of ``nprocs`` concurrent BLAS users."""
    if nprocs < 1:
        raise ValueError("nprocs must be positive")
    return max(1, (usable_cpus() if cpus is None else cpus) // nprocs)


@functools.cache
def _libraries() -> tuple:
    """(setter, getter, shutdown) ctypes functions of every bundled
    OpenBLAS; ``shutdown`` is None when the build does not export it."""
    found = []
    for pkg, set_sym, get_sym in _SYMBOLS:
        libdir = Path(pkg.__file__).resolve().parent.parent / (
            pkg.__name__ + ".libs"
        )
        for path in sorted(glob.glob(str(libdir / "libscipy_openblas*"))):
            try:
                lib = ctypes.CDLL(path)
                setter = getattr(lib, set_sym)
                getter = getattr(lib, get_sym)
            except (OSError, AttributeError):
                continue
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            getter.argtypes = []
            getter.restype = ctypes.c_int
            shutdown = getattr(lib, "blas_thread_shutdown_", None)
            if shutdown is not None:
                shutdown.argtypes = []
                shutdown.restype = ctypes.c_int
            found.append((setter, getter, shutdown))
    return tuple(found)


def get_blas_threads() -> list[int]:
    """Current thread count of each bundled OpenBLAS (empty if none)."""
    return [int(getter()) for _, getter, _ in _libraries()]


def set_blas_threads(budget: int) -> list[int]:
    """Cap every bundled OpenBLAS at ``budget`` threads.

    A library that is lowered also has its thread server stopped, so call
    this while no other thread of the process is inside BLAS. Returns each
    library's previous count, for :func:`restore_blas_threads`.
    """
    previous = []
    for setter, getter, shutdown in _libraries():
        count = int(getter())
        previous.append(count)
        if budget < count:
            setter(max(1, budget))
            if shutdown is not None:
                shutdown()
    return previous


def restore_blas_threads(previous: list[int]) -> None:
    """Undo :func:`set_blas_threads` with the counts it returned."""
    for (setter, _, _), count in zip(_libraries(), previous):
        setter(count)


@contextmanager
def limit_blas_threads(budget: int):
    """Cap the bundled OpenBLAS libraries at ``budget`` inside the block.

    The count is process-wide, so concurrent blocks in other threads see
    it too; the last block to exit restores its own starting counts.
    """
    previous = set_blas_threads(budget)
    try:
        yield
    finally:
        restore_blas_threads(previous)
