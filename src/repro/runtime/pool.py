"""The process driver: a crew of resident workers that runs jobs.

Every multiprocess run in the repo goes through :class:`WorkerPool`. The
service keeps one pool alive across many jobs;
:func:`repro.runtime.engine.run_mp_fanout` runs one job on a pool that
closes itself; :func:`repro.runtime.recovery.run_with_recovery` runs its
restart attempts on one pool. This module is the only one that starts
processes, and :meth:`WorkerPool.run_batch` is the only loop that
collects their results. Each job ships as a small message:

* **Pattern contexts** travel once. The first job of a sparsity pattern
  carries the block structure, task graph, owner plan, and arena name;
  workers cache them (and their arena attachment) keyed by pattern id, so
  every later job with the same pattern is *values-only*: a single float64
  array (the permuted matrix's csc data) per worker.
* **Batched dispatch.** A batch of jobs is one command put per worker;
  workers run the jobs back to back without returning to the driver in
  between, so a burst of small factorizations costs one dispatch
  round-trip instead of one per job.
* **Job-tagged frames.** Every queue item is ``(seq, item)`` where ``seq``
  is the global job number. A worker that runs ahead can already be
  fanning out job *k+1* while a peer still drains job *k*; the router
  parks frames for other jobs so the wrong :class:`Worker` never sees
  them (see :class:`InboxRouter`).
* **Arena-reuse barrier.** Shared-memory arenas are *per pattern* and
  live across jobs, so two jobs with the same pattern would race on the
  same slots. A job that reuses an in-flight arena waits until every rank
  announced completion of the previous job on that arena (DONE control
  frames, 64 bytes each). Inline jobs, and jobs on distinct arenas,
  pipeline freely. Frames bound for the driver (the gather and the
  abort-time checkpoint) always carry their payload inline, so the
  driver never reads a slot that a later job may have overwritten and a
  checkpoint outlives its arena.

Per job the caller chooses the in-run integrity protocol (``recovery``),
a ``checkpoint`` of completed blocks to preload, an ``rhs`` to solve
after the factor, and a :class:`~repro.runtime.faults.FaultPlan` to
inject; per pool, the renegotiation/retransmit settings and
``dead_grace_s``.

Failure containment: a worker error poisons only its own job — the
erroring worker broadcasts ABORT for that job's tag, peers abort that job
and move on to the next one in the batch, and the driver reports the job
failed while the rest of the batch completes. A dead process (after up to
``dead_grace_s`` spent collecting the survivors' results) or a global
timeout breaks the batch: the driver aborts the jobs still in flight,
tears the pool down and brings up a fresh crew — on ``P - f`` workers
when ``f`` processes died (:meth:`WorkerPool.heal`); pattern contexts are
re-shipped lazily because ``seen_patterns`` is cleared, and the caller
re-plans owners for the shrunken crew. Per-job deadlines are enforced
driver-side: an expired job gets a seq-tagged ABORT injected into every
inbox, so exactly that job aborts while its batch keeps running. Workers
heartbeat on the result queue before every job, so the driver can tell a
stalled crew from a slow one.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.numeric.blas_threads import set_blas_threads, thread_budget
from repro.runtime import wire
from repro.runtime.links import Link, LinkFabric
from repro.runtime.metrics import WorkerMetrics
from repro.runtime.worker import Worker, WorkerResult

__all__ = [
    "HEARTBEAT_SEQ",
    "PatternContext",
    "PoolJob",
    "JobOutcome",
    "WorkerPool",
]


#: Result-queue tag used by worker heartbeats (never a valid job seq).
HEARTBEAT_SEQ = -1


# ----------------------------------------------------------------------
# Job descriptions (driver -> worker)
# ----------------------------------------------------------------------
@dataclass
class PatternContext:
    """Everything a worker must hold to run jobs of one sparsity pattern.

    Shipped once per pattern per pool incarnation; ``indptr``/``indices``
    describe the *permuted* matrix, so later jobs need only a values
    array. ``arena_name`` names the driver-owned shared-memory segment
    for the pattern (None on the inline transport).
    """

    pattern_id: str
    structure: object
    tg: object
    owners: np.ndarray
    priorities: np.ndarray | None
    indptr: np.ndarray
    indices: np.ndarray
    shape: tuple
    arena_name: str | None = None
    #: Execution discipline for the pattern's jobs: ``"static"`` or
    #: ``"dynamic"`` (work stealing; see :mod:`repro.runtime.worker`).
    schedule: str = "static"
    steal_seed: int = 0


@dataclass
class PoolJob:
    """One factorization (or warm solve) dispatched to the pool.

    ``values`` is the csc ``data`` array of the permuted input matrix.
    ``context`` is present exactly when this pool incarnation has not seen
    the pattern yet. ``wait_for`` is the seq of the latest earlier job
    sharing this job's arena (barrier); ``announce`` makes every rank
    broadcast a DONE control frame tagged with this job when it finishes,
    so later same-arena jobs can wait on it. ``deadline`` is an absolute
    ``time.monotonic()`` instant past which the driver aborts the job
    (``time.monotonic`` is system-wide on Linux, so workers and driver
    agree on it). ``fault_plan`` injects deterministic faults into this
    job's workers — chaos testing for the layers above the pool.
    ``recovery`` turns on the in-run integrity protocol (CRC reject,
    NACK/retransmit, duplicate suppression, the DONE linger barrier) and
    makes failed workers ship their completed blocks home as a
    checkpoint; ``checkpoint`` maps block ids to such frames from an
    earlier attempt, preloaded so their tasks are skipped. An ``rhs`` on
    a factor job runs the distributed triangular solve right after the
    factor, on the same workers.

    ``kind="solve"`` runs the distributed triangular solve against the
    rank's *resident* factor — the :class:`~repro.runtime.worker.Worker`
    retained from the pattern's last clean factor job. Only ``rhs`` (the
    permuted right-hand-side panel) travels; no pattern context, no
    matrix values, no factor blocks. A solve job on a rank with no
    resident factor fails with a typed protocol error rather than
    recomputing anything.
    """

    seq: int
    pattern_id: str
    values: np.ndarray
    context: PatternContext | None = None
    wait_for: int | None = None
    announce: bool = False
    trace_capacity: int = 0
    deadline: float | None = None
    fault_plan: object | None = None
    kind: str = "factor"
    rhs: np.ndarray | None = None
    recovery: bool = False
    checkpoint: dict[int, bytes] | None = None


@dataclass
class JobOutcome:
    """Driver-side result of one pooled job."""

    seq: int
    results: dict = field(default_factory=dict)  # rank -> WorkerResult
    error: str | None = None
    aborted: bool = False
    expired: bool = False
    wall_s: float = 0.0
    #: Why the pool broke while this job was in flight: ``"dead"`` (a
    #: worker process died) or ``"timeout"`` (the batch deadline
    #: passed); None when every rank reported (errors included).
    broken: str | None = None
    #: Ranks the break is blamed on: the dead processes that never
    #: reported this job, or every unreported rank at a timeout.
    lost_ranks: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.aborted


# ----------------------------------------------------------------------
# Job-tagged views over the persistent fabric
# ----------------------------------------------------------------------
class InboxRouter:
    """Demultiplexes one worker's tagged inbox by job sequence number.

    Frames for the requested job are returned; frames for other (later)
    jobs are parked until their job asks for them; frames older than
    ``min_seq`` — stragglers of fully-collected batches, e.g. late DONE
    announcements — are dropped.
    """

    def __init__(self, inbox):
        self.inbox = inbox
        self.parked: dict[int, deque] = {}
        self.min_seq = 0

    def prune(self, min_seq: int) -> None:
        self.min_seq = min_seq
        for tag in [t for t in self.parked if t < min_seq]:
            del self.parked[tag]

    def _accept(self, tag: int, item, seq: int):
        if tag == seq:
            return item
        if tag >= self.min_seq:
            self.parked.setdefault(tag, deque()).append(item)
        return None

    def get_nowait(self, seq: int):
        q = self.parked.get(seq)
        if q:
            return q.popleft()
        while True:
            tag, item = self.inbox.get_nowait()  # raises Empty when drained
            got = self._accept(tag, item, seq)
            if got is not None:
                return got

    def get(self, seq: int, timeout: float | None = None):
        q = self.parked.get(seq)
        if q:
            return q.popleft()
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise queue_mod.Empty
            tag, item = self.inbox.get(timeout=remaining)
            got = self._accept(tag, item, seq)
            if got is not None:
                return got


class _TaggedQueue:
    """Write-side wrapper tagging every put with a job seq."""

    __slots__ = ("q", "tag")

    def __init__(self, q, tag: int):
        self.q = q
        self.tag = tag

    def put(self, item) -> None:
        self.q.put((self.tag, item))

    def cancel_join_thread(self) -> None:
        self.q.cancel_join_thread()

    def close(self) -> None:  # pragma: no cover - Worker never closes links
        pass


class _JobInbox:
    """Read-side wrapper: the inbox one :class:`Worker` (one job) sees."""

    __slots__ = ("router", "seq")

    def __init__(self, router: InboxRouter, seq: int):
        self.router = router
        self.seq = seq

    def get(self, timeout: float | None = None):
        return self.router.get(self.seq, timeout)

    def get_nowait(self):
        return self.router.get_nowait(self.seq)


class JobFabric:
    """A per-job view of the persistent :class:`LinkFabric`.

    Fresh :class:`Link` objects per job keep the per-link counters
    job-local (they land in that job's metrics); the underlying queues
    persist for the life of the pool.
    """

    def __init__(self, base: LinkFabric, router: InboxRouter, seq: int):
        self.base = base
        self.router = router
        self.seq = seq
        self.nprocs = base.nprocs
        self.progress = base.progress

    def inbox(self, rank: int) -> _JobInbox:
        return _JobInbox(self.router, self.seq)

    def outgoing(self, src: int) -> dict[int, Link]:
        return {
            dst: Link(src, dst, _TaggedQueue(self.base.inboxes[dst], self.seq))
            for dst in range(self.nprocs)
            if dst != src
        }


# ----------------------------------------------------------------------
# Worker-side resident loop
# ----------------------------------------------------------------------
class _PoolWorker:
    """The resident process: runs batches of jobs until told to stop.

    ``settings`` are the pool-wide :class:`Worker` keyword settings
    (polling, watchdog, timeline, renegotiation/retransmit bounds);
    ``blas_threads`` caps this process's BLAS thread pools.
    """

    def __init__(self, rank, fabric, commands, result_queue, settings,
                 blas_threads):
        self.rank = rank
        self.blas_threads = blas_threads
        self.fabric = fabric
        self.commands = commands
        self.result_queue = result_queue
        self.settings = settings
        self.router = InboxRouter(fabric.inbox(rank))
        self.patterns: dict[str, tuple] = {}  # pid -> (context, arena)
        self.done_seen: dict[int, set] = {}
        #: pid -> the Worker of the pattern's last clean factor job,
        #: retained with its factor blocks for warm solve jobs.
        self.resident: dict[str, Worker] = {}

    # -- lifecycle -----------------------------------------------------
    def run(self) -> None:
        set_blas_threads(self.blas_threads)
        try:
            while True:
                cmd = self.commands.get()
                if cmd[0] == "stop":
                    break
                if cmd[0] == "evict":
                    self._evict(cmd[1])
                    continue
                _, epoch, jobs = cmd
                if jobs:
                    self.router.prune(jobs[0].seq)
                    self.done_seen = {
                        s: v for s, v in self.done_seen.items()
                        if s >= jobs[0].seq
                    }
                for job in jobs:
                    self._run_job(job, epoch)
        finally:
            for _, arena in self.patterns.values():
                if arena is not None:
                    arena.close()
            self.result_queue.cancel_join_thread()

    def _evict(self, pattern_ids) -> None:
        for pid in pattern_ids:
            self.resident.pop(pid, None)
            ctx_arena = self.patterns.pop(pid, None)
            if ctx_arena is not None and ctx_arena[1] is not None:
                ctx_arena[1].close()

    def _install(self, context: PatternContext) -> None:
        self._evict([context.pattern_id])
        arena = None
        if context.arena_name is not None:
            from repro.runtime.arena import BlockArena

            arena = BlockArena.attach(context.tg, context.arena_name)
        self.patterns[context.pattern_id] = (context, arena)

    # -- one job -------------------------------------------------------
    def _run_job(self, job: PoolJob, epoch: float) -> None:
        # Heartbeat: tells the driver this rank is alive and which job it
        # is about to run; rides the result queue under a reserved tag.
        self.result_queue.put(
            (HEARTBEAT_SEQ, (self.rank, job.seq, time.monotonic()))
        )
        fabric = JobFabric(self.fabric, self.router, job.seq)
        results = _TaggedQueue(self.result_queue, job.seq)
        worker = self._worker_for(job, fabric, results, epoch)
        if worker is None:
            return
        if job.wait_for is not None:
            try:
                self._await_done(job.wait_for)
            except RuntimeError:
                self._report_error(job.seq, traceback.format_exc())
                return
        if job.kind == "solve":
            # Warm solve: only the RHS panel travelled in the job; the
            # factor blocks are already in this process (arena slots on
            # shm, local arrays inline), so the wire sees RHS fragments
            # and nothing else.
            worker.run_solve(job, fabric, results)
        else:
            worker.run()
            # Retain the factored worker for warm solve jobs; a failed or
            # aborted factor invalidates any previous resident factor.
            if worker.metrics.error is None and not worker.metrics.aborted:
                self.resident[job.pattern_id] = worker
            else:
                self.resident.pop(job.pattern_id, None)
        # DONE announcements consumed mid-job by the Worker count toward
        # this job's barrier.
        if worker.done_peers:
            self.done_seen.setdefault(job.seq, set()).update(
                worker.done_peers
            )
        if job.announce:
            self._announce(job.seq)

    def _worker_for(self, job, fabric, results, epoch) -> Worker | None:
        """The :class:`Worker` that runs ``job``: the pattern's resident
        factored worker for a solve job, a fresh one for a factor job.
        None (with an error reported) when this rank lacks what the job
        needs."""
        if job.kind == "solve":
            worker = self.resident.get(job.pattern_id)
            if worker is None:
                self._report_error(
                    job.seq,
                    f"worker {self.rank} has no resident factor for "
                    f"pattern {job.pattern_id!r} (factor before solving, "
                    f"and note restarts clear residency)",
                )
            return worker
        if job.context is not None:
            self._install(job.context)
        entry = self.patterns.get(job.pattern_id)
        if entry is None:
            self._report_error(
                job.seq,
                f"worker {self.rank} has no context for pattern "
                f"{job.pattern_id!r} (pool protocol breach)",
            )
            return None
        context, arena = entry
        return Worker(
            self.rank, context, job, fabric, results,
            epoch=epoch, arena=arena, **self.settings,
        )

    def _announce(self, seq: int) -> None:
        """Tell every peer this rank is done with job ``seq`` — sent even
        after an error/abort so no peer blocks on a barrier forever."""
        frame = wire.pack_done(self.rank)
        for dst in range(self.fabric.nprocs):
            if dst != self.rank:
                self.fabric.inboxes[dst].put((seq, frame))

    def _await_done(self, seq: int) -> None:
        """Block until every peer announced completion of job ``seq``.

        ABORT frames for ``seq`` count as completion — the erroring peer
        will never send DONE, but it *is* finished with the arena.
        """
        peers = set(range(self.fabric.nprocs)) - {self.rank}
        seen = self.done_seen.setdefault(seq, set())
        poll_s = self.settings["poll_s"]
        deadline = time.monotonic() + self.settings["stall_timeout_s"]
        while not peers <= seen:
            try:
                item = self.router.get(seq, timeout=poll_s)
            except queue_mod.Empty:
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"worker {self.rank} barrier timeout: peers "
                        f"{sorted(peers - seen)} never finished job {seq}"
                    )
                continue
            for frame in item if isinstance(item, list) else [item]:
                try:
                    msg = wire.unpack(frame, copy=False)
                except wire.WireError:
                    continue
                if msg.kind in (wire.DONE, wire.ABORT):
                    seen.add(msg.src)

    def _report_error(self, seq: int, text: str) -> None:
        metrics = WorkerMetrics(rank=self.rank)
        metrics.error = text
        self.result_queue.put(
            (seq, WorkerResult(self.rank, metrics, []))
        )


def pool_worker_main(rank: int, kwargs: dict) -> None:
    """Process entry point (module-level for the spawn start method)."""
    _PoolWorker(rank, **kwargs).run()


def _reap(procs, grace_s: float = 5.0) -> None:
    """Join every child; terminate (then kill) any that linger."""
    deadline = time.monotonic() + grace_s
    for p in procs:
        p.join(timeout=max(0.0, deadline - time.monotonic()))
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(timeout=1.0)
    for p in procs:
        if p.is_alive():  # pragma: no cover - last resort
            p.kill()
            p.join(timeout=1.0)
        p.close()


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
class WorkerPool:
    """A crew of factorization worker processes.

    Usage::

        with WorkerPool(nprocs=4) as pool:
            outcomes = pool.run_batch([PoolJob(...), ...])

    The pool tracks which pattern ids this incarnation has shipped
    (:attr:`seen_patterns`); callers include a :class:`PatternContext` on
    a job exactly when its pattern is not in that set. :meth:`restart`
    replaces dead processes with a fresh fabric and clears the set, so
    contexts are re-shipped lazily.

    ``dead_grace_s`` is how long a batch keeps collecting the surviving
    workers' results (their abort-time checkpoints, under recovery) after
    a worker process died, before it breaks. The remaining settings
    reach every :class:`Worker`: the inbox poll interval, the stall
    watchdog, timeline recording, and the recovery protocol's
    renegotiation backoff (``renegotiate_base_s`` doubling up to
    ``renegotiate_cap_s``, at most ``max_renegotiations`` rounds) and
    per-block ``retransmit_limit``. Each worker caps its BLAS thread pools
    at :attr:`blas_threads` so that the crew does not oversubscribe the
    CPUs it shares (see :mod:`repro.numeric.blas_threads`).
    """

    def __init__(
        self,
        nprocs: int,
        start_method: str | None = None,
        poll_s: float = 0.002,
        stall_timeout_s: float = 30.0,
        record_timeline: bool = False,
        dead_grace_s: float = 0.0,
        renegotiate_base_s: float = 0.2,
        renegotiate_cap_s: float = 2.0,
        max_renegotiations: int = 8,
        retransmit_limit: int = 5,
    ):
        if nprocs < 1:
            raise ValueError("nprocs must be positive")
        self.nprocs = nprocs
        #: The width the pool was configured with. :meth:`heal` shrinks
        #: :attr:`nprocs` below this after process deaths; :meth:`regrow`
        #: restores it once the crew is quiescent again.
        self.configured_nprocs = nprocs
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self.start_method = start_method
        self.dead_grace_s = dead_grace_s
        self.worker_settings = dict(
            poll_s=poll_s,
            stall_timeout_s=stall_timeout_s,
            record_timeline=record_timeline,
            renegotiate_base_s=renegotiate_base_s,
            renegotiate_cap_s=renegotiate_cap_s,
            max_renegotiations=max_renegotiations,
            retransmit_limit=retransmit_limit,
        )
        self.seen_patterns: set[str] = set()
        self.generation = 0
        #: Why the last :meth:`run_batch` broke the pool (None when it
        #: ran clean). Callers use this to distinguish per-job failures
        #: from pool-level breakage that warrants retrying jobs.
        self.last_error: str | None = None
        #: rank -> last heartbeat instant (``time.monotonic``), updated
        #: as batches run; survives restarts for post-mortem inspection.
        self.last_heartbeats: dict[int, float] = {}
        #: BLAS threads each worker of the running crew may use:
        #: ``max(1, usable CPUs // nprocs)``, set when the crew starts.
        self.blas_threads: int | None = None
        self._procs: list = []
        self._commands: list = []
        self._results = None
        self._fabric: LinkFabric | None = None

    # -- lifecycle -----------------------------------------------------
    @property
    def running(self) -> bool:
        return bool(self._procs)

    @property
    def alive(self) -> bool:
        return bool(self._procs) and all(p.is_alive() for p in self._procs)

    def dead_ranks(self) -> list[int]:
        """Ranks whose process is no longer alive (empty when healthy)."""
        return [
            rank for rank, p in enumerate(self._procs) if not p.is_alive()
        ]

    def start(self) -> "WorkerPool":
        if self.running:
            return self
        ctx = mp.get_context(self.start_method)
        self._fabric = LinkFabric(self.nprocs, ctx)
        self._commands = [ctx.Queue() for _ in range(self.nprocs)]
        self._results = ctx.Queue()
        self._procs = []
        self.generation += 1
        self.blas_threads = thread_budget(self.nprocs)
        for rank in range(self.nprocs):
            kwargs = dict(
                fabric=self._fabric,
                commands=self._commands[rank],
                result_queue=self._results,
                settings=self.worker_settings,
                blas_threads=self.blas_threads,
            )
            p = ctx.Process(
                target=pool_worker_main,
                args=(rank, kwargs),
                name=f"repro-pool-{self.generation}-{rank}",
            )
            p.daemon = True
            p.start()
            self._procs.append(p)
        return self

    def close(self) -> None:
        """Stop the workers and release every queue. Idempotent."""
        if not self.running:
            return
        for q in self._commands:
            try:
                q.put(("stop",))
            except Exception:  # pragma: no cover - closed/broken queue
                pass
        _reap(self._procs)
        self._procs = []
        if self._fabric is not None:
            self._fabric.shutdown()
            self._fabric = None
        for q in self._commands:
            q.cancel_join_thread()
            q.close()
        self._commands = []
        if self._results is not None:
            self._results.cancel_join_thread()
            self._results.close()
            self._results = None
        self.seen_patterns.clear()

    def restart(self) -> "WorkerPool":
        """Tear down (terminating stragglers) and bring up a fresh crew."""
        self.close()
        return self.start()

    def resize(self, nprocs: int) -> "WorkerPool":
        """Set the crew width to ``nprocs`` (floor 1). A running crew of
        another width is closed; the next :meth:`start` or batch brings
        up the fresh one. Callers re-plan owners for the new width
        (contexts re-ship because the restart clears ``seen_patterns``)."""
        nprocs = max(1, nprocs)
        if nprocs != self.nprocs:
            self.close()
            self.nprocs = nprocs
        return self

    def heal(self) -> "WorkerPool":
        """Restart on ``P - f`` workers, where ``f`` is the number of
        dead processes (floor 1). With no dead processes this is a plain
        restart — the cure for a stalled-but-alive crew."""
        nprocs = self.nprocs - len(self.dead_ranks())
        self.close()
        return self.resize(nprocs).start()

    def regrow(self) -> "WorkerPool":
        """Restore a healed (shrunken) pool to its configured width with
        a fresh crew. Safe only between batches. No-op while the pool is
        already at full width."""
        if self.nprocs >= self.configured_nprocs:
            return self
        return self.resize(self.configured_nprocs).start()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- pattern bookkeeping -------------------------------------------
    def evict(self, pattern_ids) -> None:
        """Drop cached pattern contexts (and arena attachments) on every
        worker. The caller owns (and destroys) the arena segments."""
        pattern_ids = [
            pid for pid in pattern_ids if pid in self.seen_patterns
        ]
        if not pattern_ids or not self.running:
            return
        for q in self._commands:
            q.put(("evict", list(pattern_ids)))
        self.seen_patterns.difference_update(pattern_ids)

    # -- dispatch ------------------------------------------------------
    def abort_job(self, seq: int) -> None:
        """Inject a seq-tagged ABORT into every worker inbox.

        The ABORT's src is ``self.nprocs`` — outside the rank range — so
        it can never masquerade as a real peer in a DONE barrier. Workers
        abort exactly job ``seq`` (whether mid-run or not yet started)
        and report an aborted result; the rest of the batch is untouched.
        """
        if self._fabric is None:
            return
        frame = wire.pack_abort(self.nprocs)
        for dst in range(self.nprocs):
            self._fabric.inboxes[dst].put((seq, frame))

    def run_batch(
        self, jobs: list[PoolJob], timeout_s: float = 300.0
    ) -> dict[int, JobOutcome]:
        """Run ``jobs`` back to back on the resident crew.

        Returns one :class:`JobOutcome` per job seq. A job whose workers
        errored or aborted is reported failed but does not poison the
        rest of the batch; a job past its ``deadline`` is seq-aborted and
        reported ``expired``, likewise without poisoning the batch. A
        dead worker process (once the survivors reported or
        ``dead_grace_s`` ran out) or a global timeout breaks the batch:
        every uncollected job is aborted and reported failed with its
        ``broken`` cause and ``lost_ranks``, and the pool heals (restart
        on ``P - f`` workers); :attr:`last_error` records why.
        """
        if not jobs:
            return {}
        if not self.running:
            self.start()
        self.last_error = None
        epoch = time.perf_counter()
        t0 = time.monotonic()
        for q in self._commands:
            q.put(("batch", epoch, jobs))
        for job in jobs:
            if job.context is not None:
                self.seen_patterns.add(job.pattern_id)
        outcomes = {
            job.seq: JobOutcome(seq=job.seq) for job in jobs
        }
        pending = {job.seq: self.nprocs for job in jobs}
        job_deadlines = {
            job.seq: job.deadline for job in jobs if job.deadline is not None
        }
        deadline = t0 + timeout_s
        dead_deadline: float | None = None
        broken: str | None = None
        cause = lost = None
        while pending:
            now = time.monotonic()
            if now - t0 > timeout_s:
                broken = (
                    f"pool batch timeout after {timeout_s:.0f}s: "
                    f"{len(pending)} job(s) incomplete"
                )
                cause = "timeout"
                break
            # Per-job deadlines: abort exactly the expired job. Workers
            # that already shipped results for it are unaffected; the
            # outcome stays failed even if stragglers later succeed.
            wait = min(0.1, deadline - now)
            for seq in [s for s in job_deadlines if s not in pending]:
                del job_deadlines[seq]
            for seq, dl in job_deadlines.items():
                out = outcomes[seq]
                if now > dl and not out.expired:
                    out.expired = True
                    if out.error is None:
                        out.error = (
                            f"job {seq} deadline exceeded "
                            f"({now - dl:.3f}s past)"
                        )
                    self.abort_job(seq)
                if not out.expired:
                    wait = min(wait, max(dl - now, 0.005))
            try:
                seq, res = self._results.get(timeout=max(wait, 0.001))
            except queue_mod.Empty:
                dead = self.dead_ranks()
                if not dead:
                    continue
                # Linger up to dead_grace_s while survivors still owe
                # results (under recovery they ship checkpoints).
                if dead_deadline is None:
                    dead_deadline = now + self.dead_grace_s
                owed = set(range(self.nprocs)) - set(dead)
                if now < dead_deadline and any(
                    owed - set(outcomes[s].results) for s in pending
                ):
                    continue
                broken = (
                    "pool worker process(es) died without reporting: "
                    f"{[self._procs[r].name for r in dead]}"
                )
                cause, lost = "dead", dead
                break
            if seq == HEARTBEAT_SEQ:
                rank, _jseq, t = res
                self.last_heartbeats[rank] = t
                continue
            out = outcomes.get(seq)
            if out is None:  # pragma: no cover - stale result
                continue
            out.results[res.rank] = res
            if res.metrics.error is not None and out.error is None:
                out.error = res.metrics.error
            if res.metrics.aborted:
                out.aborted = True
            pending[seq] -= 1
            if pending[seq] == 0:
                out.wall_s = time.monotonic() - t0
                del pending[seq]
        if broken is not None:
            for seq in pending:
                out = outcomes[seq]
                if out.error is None:
                    out.error = broken
                out.broken = cause
                out.lost_ranks = (
                    [r for r in lost if r not in out.results]
                    if lost is not None
                    else [r for r in range(self.nprocs)
                          if r not in out.results]
                )
                # Survivors stop the job now instead of stalling on it.
                self.abort_job(seq)
            self.last_error = broken
            self.heal()
        return outcomes
