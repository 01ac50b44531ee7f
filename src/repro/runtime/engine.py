"""One-shot multiprocess fan-out: one job on a pool that closes itself.

``run_mp_fanout`` factors one matrix (and optionally solves with it) on a
:class:`~repro.runtime.pool.WorkerPool` of ``nprocs`` workers: it builds
the job's :class:`~repro.runtime.pool.PatternContext` and
:class:`~repro.runtime.pool.PoolJob`, runs that single job, closes the
pool, and turns the job's outcome into an :class:`MPRuntimeResult` — the
assembled factor plus metrics — or into a typed :class:`FanoutError`
carrying every result the workers shipped home. The pool is the only
process driver; this module adds no spawn or collect loop of its own.
``plan_owners`` turns the mapping names used everywhere else in the repo
(``"cyclic"``, ``"DW/CY"``, ...) into a block ownership array, so the
exact configurations studied by the simulator and the balance metrics can
be executed for real and timed.

Robustness: workers that raise broadcast ABORT frames; the pool enforces
a global deadline, notices dead processes, and reaps every child — no
orphan processes on success, failure, or deadlock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.blocks.structure import BlockStructure
from repro.fanout.domains import assign_domains
from repro.fanout.ownership import block_owners
from repro.fanout.priorities import task_priorities
from repro.fanout.tasks import TaskGraph
from repro.mapping import best_grid, cyclic_map, heuristic_map, square_grid
from repro.numeric.blockfact import BlockCholesky
from repro.runtime import wire
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.pool import JobOutcome, PatternContext, PoolJob, WorkerPool
from repro.runtime.trace import DEFAULT_CAPACITY, RunTrace

#: :func:`run_mp_fanout` keywords that configure the pool (every worker
#: and the driver's dead-worker grace) rather than the job.
POOL_SETTINGS = (
    "start_method", "poll_s", "stall_timeout_s", "record_timeline",
    "dead_grace_s", "renegotiate_base_s", "renegotiate_cap_s",
    "max_renegotiations", "retransmit_limit",
)


class FanoutError(RuntimeError):
    """A parallel run failed. Carries whatever the driver salvaged:
    ``results`` (rank -> WorkerResult for every worker that reported) and
    ``failed_ranks`` — the recovery layer mines these for checkpoints."""

    def __init__(self, message: str, results: dict | None = None,
                 failed_ranks: list[int] | None = None):
        super().__init__(message)
        self.results = results or {}
        self.failed_ranks = failed_ranks or []


class WorkerError(FanoutError):
    """A worker process failed; carries the remote traceback."""

    def __init__(self, rank: int, remote_traceback: str,
                 results: dict | None = None,
                 failed_ranks: list[int] | None = None):
        super().__init__(
            f"worker {rank} failed:\n{remote_traceback.rstrip()}",
            results=results,
            failed_ranks=failed_ranks if failed_ranks is not None else [rank],
        )
        self.rank = rank
        self.remote_traceback = remote_traceback


class DeadWorkerError(FanoutError):
    """A worker process died without reporting (kill/segfault stand-in)."""


class RuntimeTimeoutError(FanoutError):
    """The run exceeded its global deadline."""


@dataclass
class MPRuntimeResult:
    """A real parallel factorization: the assembled factor plus metrics."""

    factor: BlockCholesky
    metrics: RuntimeMetrics
    owners: np.ndarray
    mapping: str
    meta: dict = field(default_factory=dict)
    #: Populated by :func:`repro.runtime.recovery.run_with_recovery`.
    failure_report: object | None = None
    #: Merged structured trace (:class:`repro.runtime.trace.RunTrace`),
    #: present when the run was started with ``trace=...``.
    trace: RunTrace | None = None
    #: Distributed-solve output (permuted coordinates, ``n x nrhs``),
    #: present when the run was started with ``rhs=...``.
    solution: np.ndarray | None = None

    def to_csc(self) -> sparse.csc_matrix:
        return self.factor.to_csc()


def _runtime_grid(nprocs: int):
    """The processor grid ``nprocs`` workers are mapped onto."""
    try:
        return square_grid(nprocs)
    except ValueError:
        return best_grid(nprocs)


def plan_owners(
    wm,
    tg: TaskGraph,
    nprocs: int,
    mapping: str = "DW/CY",
    use_domains: bool = False,
) -> tuple[np.ndarray, str]:
    """Block ownership for ``nprocs`` workers under a named mapping.

    ``mapping`` is ``"cyclic"`` or a ``"<row>/<col>"`` heuristic pair
    (``DW``, ``IN``, ``DN``, ``ID`` x ``CY``, ...) exactly as accepted by
    the CLI and :meth:`repro.solver.SparseCholesky.plan_parallel`.
    """
    grid = _runtime_grid(nprocs)
    if mapping == "cyclic":
        cmap = cyclic_map(tg.npanels, grid)
    else:
        rh, _, ch = mapping.partition("/")
        cmap = heuristic_map(wm, grid, rh.upper(), (ch or "CY").upper())
    domains = assign_domains(wm, grid.P) if use_domains else None
    return block_owners(tg, cmap, domains), cmap.name


def run_mp_fanout(
    structure: BlockStructure,
    A: sparse.spmatrix,
    tg: TaskGraph,
    owners: np.ndarray,
    nprocs: int,
    priorities: np.ndarray | None = None,
    policy: str | None = None,
    depth: np.ndarray | None = None,
    timeout_s: float = 300.0,
    stall_timeout_s: float = 30.0,
    poll_s: float = 0.002,
    record_timeline: bool = True,
    trace: bool | int | None = None,
    start_method: str | None = None,
    mapping: str = "",
    fault_plan=None,
    recovery: bool | None = None,
    checkpoint: dict[int, bytes] | None = None,
    dead_grace_s: float = 0.0,
    renegotiate_base_s: float = 0.2,
    renegotiate_cap_s: float = 2.0,
    max_renegotiations: int = 8,
    retransmit_limit: int = 5,
    transport: str = "auto",
    schedule: str = "static",
    steal_seed: int = 0,
    rhs: np.ndarray | None = None,
) -> MPRuntimeResult:
    """Factor ``A`` with ``nprocs`` worker processes exchanging messages.

    ``rhs`` (an ``n``-vector or ``n x nrhs`` panel stack, already in
    permuted coordinates) additionally runs the distributed triangular
    solve after the factor phase: the factor blocks stay where they were
    computed and only right-hand-side fragments travel (their own frame
    kinds and ledger — see ``docs/SOLVING.md``); the assembled solution
    lands on the result's ``solution`` attribute, bitwise identical to
    the sequential :func:`repro.numeric.solve.solve_with_factor`.

    ``schedule`` selects the execution discipline: ``"static"`` (the
    default) runs every task at its block's owner exactly as mapped;
    ``"dynamic"`` adds work stealing — an idle worker requests a ready
    BMOD/BDIV task from a seeded-random peer, executes it against the
    shipped destination-block state, and returns the result, so transient
    load imbalance converts to steal traffic instead of idle time while
    the factor stays bitwise identical (see ``docs/SCHEDULING.md``).
    ``steal_seed`` keys the deterministic victim-selection stream.

    ``transport`` selects how block payloads travel between workers:
    ``"inline"`` packs them into the queue frames; ``"shm"`` moves them
    through a per-run shared-memory arena (64-byte descriptor frames, zero
    payload copies on the consumer side, coalesced queue puts); ``"auto"``
    (the default) picks shm when the platform supports it and there is
    more than one worker. Logical message/byte accounting is identical
    across transports — only ``wire_bytes`` metrics differ. The arena is
    unlinked in every exit path; frames bound for the driver (the gather
    and salvaged checkpoints) always carry their payload inline, so they
    outlive it.

    ``owners[b]`` assigns block ``b`` to a worker (see :func:`plan_owners`).
    ``policy`` is a :mod:`repro.fanout.priorities` name (``"fifo"``,
    ``"column"``, ``"depth"``, ``"bottom_level"``) applied identically on
    every worker; an explicit ``priorities`` array wins over ``policy``.
    ``fault_plan`` (:class:`repro.runtime.faults.FaultPlan`) is the chaos
    layer; its ``CrashSpec`` entries are the crash hook the shutdown tests
    use. ``trace`` turns on structured event tracing
    (:mod:`repro.runtime.trace`): ``True`` uses the default per-worker
    ring capacity, an int sets it; the merged
    :class:`~repro.runtime.trace.RunTrace` lands on the result's
    ``trace`` attribute. Tracing off (the default) adds no per-event
    allocation on the hot path. ``recovery`` turns on the in-run integrity
    protocol (CRC reject + NACK/retransmit + duplicate suppression + the
    DONE linger barrier); it defaults to on exactly when a fault plan is
    given. ``checkpoint`` maps block ids to completed-block wire frames
    from a previous attempt; those blocks are preloaded and their tasks
    skipped. The keywords in :data:`POOL_SETTINGS` configure the
    :class:`~repro.runtime.pool.WorkerPool` the job runs on.

    ``metrics.wall_s`` covers everything the caller waits for: starting
    the workers, the factor (and solve), and assembling the result.
    Raises :class:`WorkerError` if any worker fails,
    :class:`DeadWorkerError` if one dies without reporting (after waiting
    up to ``dead_grace_s`` for surviving workers' checkpoints), and
    :class:`RuntimeTimeoutError` on a global timeout; in every case all
    child processes are reaped before returning or raising, and the raised
    :class:`FanoutError` carries every salvaged ``WorkerResult``.
    """
    pool = WorkerPool(
        nprocs,
        start_method=start_method,
        poll_s=poll_s,
        stall_timeout_s=stall_timeout_s,
        record_timeline=record_timeline,
        dead_grace_s=dead_grace_s,
        renegotiate_base_s=renegotiate_base_s,
        renegotiate_cap_s=renegotiate_cap_s,
        max_renegotiations=max_renegotiations,
        retransmit_limit=retransmit_limit,
    )
    try:
        return run_on_pool(
            pool, structure, A, tg, owners,
            priorities=priorities, policy=policy, depth=depth,
            timeout_s=timeout_s, trace=trace, mapping=mapping,
            fault_plan=fault_plan, recovery=recovery,
            checkpoint=checkpoint, transport=transport, schedule=schedule,
            steal_seed=steal_seed, rhs=rhs,
        )
    finally:
        pool.close()


def run_on_pool(
    pool: WorkerPool,
    structure: BlockStructure,
    A: sparse.spmatrix,
    tg: TaskGraph,
    owners: np.ndarray,
    priorities: np.ndarray | None = None,
    policy: str | None = None,
    depth: np.ndarray | None = None,
    timeout_s: float = 300.0,
    trace: bool | int | None = None,
    mapping: str = "",
    fault_plan=None,
    recovery: bool | None = None,
    checkpoint: dict[int, bytes] | None = None,
    transport: str = "auto",
    schedule: str = "static",
    steal_seed: int = 0,
    rhs: np.ndarray | None = None,
    seq: int = 0,
) -> MPRuntimeResult:
    """Run one factor job on ``pool`` (started here if it is not running)
    with :func:`run_mp_fanout`'s job arguments; ``seq`` must exceed the
    seq of any earlier job on the same crew."""
    t0 = time.perf_counter()
    nprocs = pool.nprocs
    owners = np.asarray(owners)
    if owners.shape[0] != tg.nblocks:
        raise ValueError("owners must have one entry per block")
    if owners.size and (owners.min() < 0 or owners.max() >= nprocs):
        raise ValueError("block owner out of range for nprocs")
    if schedule not in ("static", "dynamic"):
        raise ValueError(
            f"schedule must be 'static' or 'dynamic', got {schedule!r}"
        )
    if priorities is None and policy not in (None, "fifo"):
        priorities = task_priorities(tg, policy, depth=depth)
    if recovery is None:
        recovery = fault_plan is not None
    if trace is None or trace is False:
        trace_capacity = 0
    elif trace is True:
        trace_capacity = DEFAULT_CAPACITY
    else:
        trace_capacity = int(trace)
        if trace_capacity < 0:
            raise ValueError("trace capacity must be non-negative")
    if rhs is not None:
        rhs = np.ascontiguousarray(rhs, dtype=np.float64)
        if rhs.ndim == 1:
            rhs = rhs.reshape(-1, 1)
        if rhs.ndim != 2 or rhs.shape[0] != A.shape[0]:
            raise ValueError(
                f"rhs must be ({A.shape[0]}, nrhs), got {rhs.shape}"
            )

    from repro.runtime.arena import BlockArena, resolve_transport

    A = sparse.csc_matrix(A)
    transport = resolve_transport(transport, nprocs)
    arena = BlockArena.create(tg) if transport == "shm" else None
    try:
        context = PatternContext(
            pattern_id="run",
            structure=structure,
            tg=tg,
            owners=owners,
            priorities=priorities,
            indptr=A.indptr,
            indices=A.indices,
            shape=tuple(A.shape),
            arena_name=None if arena is None else arena.name,
            schedule=schedule,
            steal_seed=steal_seed,
        )
        job = PoolJob(
            seq=seq,
            pattern_id=context.pattern_id,
            values=A.data,
            context=context,
            trace_capacity=trace_capacity,
            fault_plan=fault_plan,
            rhs=rhs,
            recovery=recovery,
            checkpoint=checkpoint,
        )
        out = pool.run_batch([job], timeout_s=timeout_s)[seq]
    finally:
        if arena is not None:
            arena.destroy()
    if not out.ok:
        _raise_failure(out, nprocs, pool.last_error)
    results = out.results
    factor = _assemble(structure, A, tg, results)
    solution = None
    if rhs is not None:
        solution = _assemble_solution(structure, rhs, results)
        if solution is None:
            raise FanoutError(
                "solve gather incomplete: some solution rows were not "
                "reported", results=results,
            )
    wall_s = time.perf_counter() - t0
    metrics = RuntimeMetrics(
        nprocs=nprocs,
        wall_s=wall_s,
        workers=[results[r].metrics for r in sorted(results)],
        mapping=mapping,
        transport=transport,
        schedule=schedule,
    )
    run_trace = None
    if trace_capacity:
        nrhs = int(rhs.shape[1]) if rhs is not None else 0
        run_trace = _merge_trace(results, nprocs, mapping,
                                 pool.start_method, fault_plan, wall_s,
                                 schedule, nrhs)
    meta = {
        "start_method": pool.start_method,
        "recovery": recovery,
        "checkpoint_blocks": len(checkpoint) if checkpoint else 0,
        "transport": transport,
        "schedule": schedule,
        "block_policy": structure.partition.policy_name,
    }
    if rhs is not None:
        meta["nrhs"] = int(rhs.shape[1])
    return MPRuntimeResult(
        factor=factor,
        metrics=metrics,
        owners=owners,
        mapping=mapping,
        meta=meta,
        trace=run_trace,
        solution=solution,
    )


def _raise_failure(out: JobOutcome, nprocs: int, pool_error: str | None):
    """Raise the typed :class:`FanoutError` a failed job outcome maps to;
    each carries every result the workers shipped home."""
    results = out.results
    if out.broken == "timeout":
        raise RuntimeTimeoutError(
            f"runtime timeout ({pool_error}): "
            f"{len(results)}/{nprocs} workers reported",
            results=results, failed_ranks=out.lost_ranks,
        )
    if out.broken == "dead":
        raise DeadWorkerError(
            pool_error, results=results, failed_ranks=out.lost_ranks
        )
    error_ranks = [
        r for r in sorted(results) if results[r].metrics.error is not None
    ]
    if error_ranks:
        first = error_ranks[0]
        raise WorkerError(
            first,
            results[first].metrics.error,
            results=results,
            failed_ranks=error_ranks,
        )
    raise FanoutError(out.error or "run aborted", results=results)


def _merge_trace(results, nprocs, mapping, start_method, fault_plan,
                 wall_s=None, schedule="static", nrhs=0) -> RunTrace:
    """Merge worker ring snapshots into one :class:`RunTrace`."""
    grid = _runtime_grid(nprocs)
    attempt = int(fault_plan.attempt) if fault_plan is not None else 0
    meta = {
        "nprocs": nprocs,
        "mapping": mapping,
        "grid": [int(grid.Pr), int(grid.Pc)],
        "start_method": start_method,
        "attempt": attempt,
        "schedule": schedule,
    }
    if nrhs:
        meta["nrhs"] = int(nrhs)
    if wall_s is not None:
        meta["wall_s"] = wall_s
    return RunTrace.from_workers(
        {r: results[r].trace for r in sorted(results)},
        meta=meta,
        attempt=attempt,
    )


def _assemble_solution(structure, rhs, results) -> np.ndarray | None:
    """Stack the workers' owned solution panels into the full ``n x nrhs``
    solution (permuted coordinates; the caller un-permutes). None when
    any rows are missing, so no caller releases a partial answer."""
    ptr = np.asarray(structure.partition.panel_ptr, dtype=np.int64)
    x = np.empty_like(rhs)
    seen = 0
    for res in results.values():
        for k, panel in (res.solution or {}).items():
            x[int(ptr[k]) : int(ptr[k + 1])] = panel
            seen += int(ptr[k + 1] - ptr[k])
    if seen != rhs.shape[0]:
        return None
    return x


def _assemble(structure, A, tg, results) -> BlockCholesky:
    """Overwrite a factor shell with the gathered owned blocks (inline
    frames, so no arena needs to be alive)."""
    shell = BlockCholesky(structure, A)
    for res in results.values():
        for frame in res.frames:
            msg = wire.unpack(frame)
            b = msg.block
            I, J = int(tg.block_I[b]), int(tg.block_J[b])
            if I == J:
                shell.diag[J] = msg.payload
            else:
                shell.below[J][I] = msg.payload
    shell._factored[:] = True
    return shell


def mp_block_cholesky(
    structure: BlockStructure,
    A: sparse.spmatrix,
    tg: TaskGraph,
    nprocs: int = 4,
    mapping: str = "DW/CY",
    use_domains: bool = False,
    **kwargs,
) -> MPRuntimeResult:
    """One-call convenience: plan ownership from a mapping name and run."""
    owners, name = plan_owners(
        tg.workmodel, tg, nprocs, mapping, use_domains
    )
    return run_mp_fanout(
        structure, A, tg, owners, nprocs, mapping=name, **kwargs
    )
