"""Real shared-memory parallel block Cholesky (thread pool).

The simulator answers "what would the Paragon do"; this module actually
runs the same task DAG in parallel on the host: a dependency-driven
executor dispatches BFAC/BDIV/BMOD tasks to a thread pool as their inputs
complete. numpy's BLAS kernels release the GIL, so genuine multicore
speedups are achievable for matrices with enough block-level concurrency —
the shared-memory analogue of the paper's message-passing method, with the
same dependency structure the tests already proved correct.

Per-destination-block locks serialize BMODs into the same block (the role
the owning processor plays in the distributed method). While the executor
runs, the process's BLAS is capped at its share of the CPUs per thread
(:mod:`repro.numeric.blas_threads`), so ``nthreads`` concurrent kernels do
not each start a full-width BLAS thread pool.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.blocks.structure import BlockStructure
from repro.fanout.tasks import BDIV, BFAC, BMOD, TaskGraph
from repro.numeric.blas_threads import limit_blas_threads, thread_budget
from repro.numeric.blockfact import BlockCholesky


@dataclass
class ParallelFactorResult:
    factor: BlockCholesky
    nthreads: int
    tasks_executed: int

    def to_csc(self) -> sparse.csc_matrix:
        return self.factor.to_csc()


def parallel_block_cholesky(
    structure: BlockStructure,
    A: sparse.spmatrix,
    tg: TaskGraph,
    nthreads: int = 4,
) -> ParallelFactorResult:
    """Factor ``A`` with ``nthreads`` worker threads over the task DAG.

    The dependency protocol is the fan-out method's: a BMOD becomes ready
    when both source blocks are factored; BFAC/BDIV when their destination
    has absorbed every BMOD (BDIV additionally after its diagonal's BFAC).
    """
    if nthreads < 1:
        raise ValueError("nthreads must be positive")
    chol = BlockCholesky(structure, A)

    mods_remaining = tg.nmod.copy()
    missing = tg.task_missing_init.copy()
    completed_blocks = np.zeros(tg.nblocks, dtype=bool)
    diag_done = np.zeros(tg.npanels, dtype=bool)

    state_lock = threading.Lock()
    block_locks = [threading.Lock() for _ in range(tg.nblocks)]
    done = threading.Event()
    error: list[BaseException] = []
    remaining = [tg.ntasks]
    executed = [0]

    pool = ThreadPoolExecutor(max_workers=nthreads)

    def submit(tid: int) -> None:
        pool.submit(run_task, tid)

    def run_task(tid: int) -> None:
        if error:
            _finish_one()
            return
        try:
            b = int(tg.task_block[tid])
            with block_locks[b]:
                chol.apply_task(tg, tid)
            after_completion(tid, b)
        except BaseException as exc:  # noqa: BLE001 - propagated to caller
            error.append(exc)
            done.set()
            return
        _finish_one()

    def _finish_one() -> None:
        with state_lock:
            remaining[0] -= 1
            executed[0] += 1
            if remaining[0] == 0:
                done.set()

    def after_completion(tid: int, b: int) -> None:
        ready: list[int] = []
        kind = int(tg.task_kind[tid])
        with state_lock:
            if kind == BMOD:
                mods_remaining[b] -= 1
                if mods_remaining[b] == 0:
                    ready.extend(_block_mods_done(b))
            elif kind == BFAC:
                completed_blocks[b] = True
                k = int(tg.block_J[b])
                diag_done[k] = True
                sub = tg.subdiag_blocks[
                    tg.subdiag_ptr[k] : tg.subdiag_ptr[k + 1]
                ]
                for b2 in sub:
                    if mods_remaining[b2] == 0:
                        ready.append(int(tg.bdiv_task[b2]))
            else:  # BDIV
                completed_blocks[b] = True
                for t in tg.dep_tasks[tg.dep_ptr[b] : tg.dep_ptr[b + 1]]:
                    missing[t] -= 1
                    if missing[t] == 0:
                        ready.append(int(t))
        for t in ready:
            submit(t)

    def _block_mods_done(b: int) -> list[int]:
        # caller holds state_lock
        if tg.block_I[b] == tg.block_J[b]:
            return [int(tg.bfac_task[b])]
        k = int(tg.block_J[b])
        if diag_done[k]:
            return [int(tg.bdiv_task[b])]
        return []

    diag = tg.block_I == tg.block_J
    seeds = [int(tg.bfac_task[int(b)]) for b in np.flatnonzero(diag & (tg.nmod == 0))]
    with limit_blas_threads(thread_budget(nthreads)):
        for tid in seeds:
            submit(tid)
        done.wait()
        pool.shutdown(wait=True)
    if error:
        raise error[0]
    if remaining[0] != 0:
        raise RuntimeError("parallel factorization deadlocked")
    return ParallelFactorResult(
        factor=chol, nthreads=nthreads, tasks_executed=executed[0]
    )
