"""The benchmark's three workloads, their inputs and their output checks.

Every workload takes a seed and generates its inputs from it (fresh SPD
values on a fixed pattern, right-hand sides, the service op mix); the
program receives only those generated inputs. Every operation's output
is checked outside the timed region, and each wrong or failed operation
is counted against the operations attempted.

``oneshot``     one caller, closed loop: per pass, GRID150 and BCSSTK15
                solved once on the sequential backend and once with
                ``backend="mp", nprocs=2`` (combined factor + distributed
                solve), on identical inputs.
``service_mix`` a resident ``FactorService(nprocs=2, block_size=32)``
                warmed on both patterns during set-up; two lanes (lane i
                owns pattern i) in lock-step rounds: lane r % 2 runs one
                values-only refactor, then each lane one resident solve.
``plan_paper``  one caller, closed loop: per pass, a fresh
                ``SparseCholesky(A, block_size=48)`` for BCSSTK15 and
                GRID150 at paper scale, then ``compare_mappings`` over
                cyclic, DW/CY and ID/CY at P = 64 and 196. No worker
                process runs.
"""

from __future__ import annotations

import glob
import itertools
import json
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.blocking import dgemm_tile_stats
from repro.analysis.comm_volume import (
    communication_volume,
    solve_communication_volume,
)
from repro.mapping.balance import overall_balance_from_owners
from repro.matrices.registry import get_problem
from repro.numeric import BlockCholesky
from repro.ordering import permute_spd
from repro.runtime.engine import plan_owners
from repro.service import FactorService
from repro.solver import SparseCholesky

NPROCS = 2
BLOCK_SIZE = 32
ONESHOT_PROBLEMS = ("GRID150", "BCSSTK15")
PLAN_PROBLEMS = ("BCSSTK15", "GRID150")
PLAN_BLOCK_SIZE = 48
PLAN_P = (64, 196)
PLAN_MAPPINGS = ("cyclic", "DW/CY", "ID/CY")
#: max|b - A x| allowed for any solve. Observed residuals are ~1e-14.
RESIDUAL_TOL = 1e-8
#: Set-up repetitions after each pass; ``setup_s`` is the median of
#: these and the set-up before the loop. Input generation takes
#: 0.03-0.2 s, and the host's single-thread speed moves by up to 2x in
#: stretches of a second or two, so repetitions made back to back before
#: the loop all read one stretch (run medians of one ten-run set ranged
#: 0.025-0.049 s on ``oneshot``). Spread between the passes, they sample
#: the whole run, as the operation times do. The ``service_mix`` set-up
#: (pool start + two cold jobs, 4-10 s) runs once before the loop and
#: once after it.
SETUP_REPS_PER_PASS = {"oneshot": 4, "plan_paper": 2}
GOLDENS = Path(__file__).with_name("goldens.json")


@dataclass
class Ledger:
    """Operations attempted and failed, with a reason per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def __post_init__(self):
        self._lock = threading.Lock()

    def record(self, what: str, errors: list) -> bool:
        with self._lock:
            self.attempted += 1
            if errors:
                self.failed += 1
                self.problems.append(f"{what}: {'; '.join(errors)}")
        return not errors


@dataclass
class Result:
    """What one workload run measured."""

    main: list  # seconds per main operation
    side: list  # seconds per side operation
    jobs: int  # correct completed operations
    wall_s: float  # timed-loop wall time
    setup_s: list  # seconds per set-up repetition
    ledger: Ledger
    layers: dict  # per-layer metrics: name -> (value, unit)
    info: dict  # derived, non-gated numbers


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def base_matrix(name: str, scale: str):
    """The problem's pattern as a canonical csc matrix with a stored
    diagonal (the value generator relies on both)."""
    A = get_problem(name, scale).A.tocsc()
    A.sum_duplicates()
    A.sort_indices()
    cols = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    if int(np.count_nonzero(A.indices == cols)) != A.shape[0]:
        raise ValueError(f"{name}: pattern lacks a full diagonal")
    return A


def fresh_values(A, rng):
    """New SPD values on A's exact pattern: ``D A D + s I`` with seeded
    ``D = diag(U[0.5, 1.5])`` and ``s ~ U[0.1, 2]`` (a congruence plus a
    positive shift keeps A positive definite)."""
    n = A.shape[0]
    d = rng.uniform(0.5, 1.5, n)
    cols = np.repeat(np.arange(n), np.diff(A.indptr))
    M = A.copy()
    M.data = A.data * d[A.indices] * d[cols]
    M.data[A.indices == cols] += rng.uniform(0.1, 2.0)
    return M


def _residual(A, b, x) -> float:
    return float(np.max(np.abs(b - A @ x)))


def _same_factor(L1, L2) -> bool:
    return (
        np.array_equal(L1.indptr, L2.indptr)
        and np.array_equal(L1.indices, L2.indices)
        and np.array_equal(L1.data, L2.data)
    )


def _setup(build, times: list):
    """Run the set-up ``build`` once and append its time to ``times``."""
    t0 = time.perf_counter()
    out = build()
    times.append(time.perf_counter() - t0)
    return out


def _setup_again(workload: str, build, times: list, tracer):
    """Repeat the set-up between passes, outside the timed operations;
    the loop goes on with the inputs it builds."""
    tracer.phase = "setup"
    for _ in range(SETUP_REPS_PER_PASS[workload]):
        out = _setup(build, times)
    tracer.phase = "loop"
    return out


def _children_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def shm_segments() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def _another(t_start: float, seconds: float, walls: list) -> bool:
    """Start another pass unless it would end more than half a pass past
    ``seconds`` (keeps each run close to ``seconds`` long)."""
    if not walls:
        return True
    elapsed = time.perf_counter() - t_start
    return elapsed + 0.5 * statistics.median(walls) < seconds


# ----------------------------------------------------------------------
# oneshot
# ----------------------------------------------------------------------
def oneshot(seed, seconds, scale, tracer) -> Result:
    rng = np.random.default_rng([seed, 1])

    def build():
        return {n: base_matrix(n, scale) for n in ONESHOT_PROBLEMS}

    setup = []
    mats = _setup(build, setup)
    ledger = Ledger()
    tracer.phase = "loop"
    seq_pass, mp_pass = [], []
    acc = _Accumulator()
    predicted = {}
    walls = []
    calls = {n: [] for n in ONESHOT_PROBLEMS}
    t_start = time.perf_counter()
    while _another(t_start, seconds, walls):
        t_pass = time.perf_counter()
        p = len(seq_pass)
        t_seq = t_mp = 0.0
        for name in ONESHOT_PROBLEMS:
            A = mats[name]
            M = fresh_values(A, rng)
            b = rng.standard_normal(A.shape[0])
            rid = f"{p}:{name}"
            seq = x = None
            errs = []
            t0 = time.perf_counter()
            try:
                with tracer.span("op.seq_solve", rid=f"{rid}:seq"):
                    seq = SparseCholesky(M, block_size=BLOCK_SIZE)
                    x = seq.factor().solve(b)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                errs.append(repr(exc))
            t_seq += time.perf_counter() - t0
            if x is not None:
                err = _residual(M, b, x)
                if not err <= RESIDUAL_TOL:
                    errs.append(f"residual {err:.3e}")
            ledger.record(f"seq {rid}", errs)

            par = x2 = None
            errs = []
            t0 = time.perf_counter()
            try:
                with tracer.span("op.mp_solve", rid=f"{rid}:mp"):
                    par = SparseCholesky(M, block_size=BLOCK_SIZE,
                                         backend="mp", nprocs=NPROCS)
                    x2 = par.solve(b)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                errs.append(repr(exc))
            dt = time.perf_counter() - t0
            t_mp += dt
            calls[name].append(round(dt, 3))
            if x2 is not None:
                errs += _check_mp(par, M, b, x2, seq, x, predicted, name)
                acc.mp.append(par.runtime_metrics)
            ledger.record(f"mp {rid}", errs)
            if seq is not None and p == 0:
                acc.add_structure(name, seq.symbolic, seq.taskgraph)
        seq_pass.append(t_seq)
        mp_pass.append(t_mp)
        walls.append(time.perf_counter() - t_pass)
        mats = _setup_again("oneshot", build, setup, tracer)
    wall = time.perf_counter() - t_start
    tracer.phase = "done"
    layers = acc.oneshot_layers(len(seq_pass), predicted)
    seq_s, mp_s = statistics.fmean(seq_pass), statistics.fmean(mp_pass)
    info = {"speedup": f"seq/mp = {seq_s:.4f} s / {mp_s:.4f} s "
                       f"= {_per(seq_s, mp_s):.3f} (not gated)",
            "mp_calls": calls}
    return Result(mp_pass, seq_pass, ledger.attempted - ledger.failed,
                  wall, setup, ledger, layers, info)


def _check_mp(par, M, b, x2, seq, x, predicted, name) -> list:
    """Residual, bitwise identity to the sequential run on the same
    values, and measured traffic == the static predictors."""
    errs = []
    res = _residual(M, b, x2)
    if not res <= RESIDUAL_TOL:
        errs.append(f"residual {res:.3e}")
    if seq is not None:
        if not _same_factor(par.L, seq.L):
            errs.append("mp factor differs bitwise from sequential")
        elif not np.array_equal(x2, x):
            errs.append("distributed solve differs bitwise from sequential")
    if name not in predicted:
        owners, _ = plan_owners(par.workmodel, par.taskgraph, NPROCS,
                                par.mapping, par.use_domains)
        predicted[name] = (
            communication_volume(par.taskgraph, owners),
            solve_communication_volume(par.taskgraph, owners, 1),
            overall_balance_from_owners(par.workmodel, owners, NPROCS),
        )
    factor_vol, solve_vol, _ = predicted[name]
    m = par.runtime_metrics
    if (m.messages_total, m.bytes_total) != (factor_vol.messages,
                                              factor_vol.bytes):
        errs.append(
            f"factor traffic {m.messages_total} msgs/{m.bytes_total} B, "
            f"predicted {factor_vol.messages}/{factor_vol.bytes}"
        )
    if (m.solve_messages_total, m.solve_bytes_total) != (
        solve_vol.messages, solve_vol.bytes
    ):
        errs.append(
            f"solve traffic {m.solve_messages_total} msgs/"
            f"{m.solve_bytes_total} B, predicted "
            f"{solve_vol.messages}/{solve_vol.bytes}"
        )
    return errs


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------
def service_mix(seed, seconds, scale, tracer) -> Result:
    rng = np.random.default_rng([seed, 2])
    mats = {n: base_matrix(n, scale) for n in ONESHOT_PROBLEMS}
    names = list(ONESHOT_PROBLEMS)

    def build():
        """Pool start plus the cold first job of each pattern."""
        svc = FactorService(nprocs=NPROCS, block_size=BLOCK_SIZE).start()
        current, pids, cold = {}, {}, []
        for name in names:
            M = fresh_values(mats[name], rng)
            r = svc.factor(A=M)
            pids[name], current[name] = r.pattern_id, M
            cold.append(r.record.setup_s)
        return svc, current, pids, cold

    setup = []
    svc, current, pids, cold = _setup(build, setup)
    ledger = Ledger()
    lat = {"refactor": [], "solve": []}
    records = {"refactor": [], "solve": []}
    first_refactor = {}
    tracer.phase = "loop"
    t_start = time.perf_counter()

    # Lock-step rounds: in round r lane r % 2 refactors its pattern while
    # the other lane waits, then both lanes solve once. The 1:2 mix keeps
    # every refactor a single, unqueued job, so each round adds one
    # independent refactor sample. With free-running lanes about half the
    # solves queued behind the other lane's multi-second refactor and the
    # solve latency flipped between two modes from run to run; with both
    # lanes refactoring in one batch per round a run held only 5-8
    # independent refactor samples.
    state = {"go": True, "begun": None}
    walls = []

    def next_round() -> None:
        now = time.perf_counter()
        if state["begun"] is not None:
            walls.append(now - state["begun"])
        state["begun"] = now
        state["go"] = _another(t_start, seconds, walls)

    start = threading.Barrier(len(names), action=next_round)
    refactored = threading.Barrier(len(names))

    def lane(i: int, name: str) -> None:
        lrng = np.random.default_rng([seed, 3, i])
        A = mats[name]
        M = current[name]
        for r in itertools.count():
            writer = r % len(names) == i
            M_new = fresh_values(A, lrng) if writer else None
            b = lrng.standard_normal(A.shape[0])
            try:
                start.wait(timeout=600.0)
                if not state["go"]:
                    return
                if writer:
                    M = _refactor(name, M, M_new, f"{name}:{r}:refactor")
                refactored.wait(timeout=600.0)
            except threading.BrokenBarrierError:
                ledger.record(f"round {r} on {name}", ["lanes desynced"])
                return
            _solve(name, M, b, f"{name}:{r}:solve")

    def _refactor(name, M, M_new, rid):
        errs = []
        t0 = time.perf_counter()
        try:
            with tracer.span("op.refactor", rid=rid):
                res = svc.submit(pattern_id=pids[name],
                                 values=M_new.data).result(300.0)
            M = M_new
            records["refactor"].append((name, res.record, res.metrics))
            first_refactor.setdefault(name, (M, res.L, res.job_id))
        except Exception as exc:  # noqa: BLE001 - counted
            errs.append(repr(exc))
        lat["refactor"].append(time.perf_counter() - t0)
        ledger.record(f"refactor {rid}", errs)
        return M

    def _solve(name, M, b, rid):
        errs = []
        t0 = time.perf_counter()
        try:
            with tracer.span("op.solve", rid=rid):
                sol = svc.solve(b, pattern_id=pids[name])
        except Exception as exc:  # noqa: BLE001 - counted
            errs.append(repr(exc))
            sol = None
        lat["solve"].append(time.perf_counter() - t0)
        if sol is not None:
            err = _residual(M, b, sol.x)
            if not err <= RESIDUAL_TOL:
                errs.append(f"residual {err:.3e}")
            records["solve"].append((name, sol.record, sol.metrics))
        ledger.record(f"solve {rid}", errs)

    threads = [
        threading.Thread(target=lane, args=(i, n), name=f"lane-{i}")
        for i, n in enumerate(names)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_start
    tracer.phase = "done"
    entries = {n: svc.cache.lookup(pids[n]) for n in names}
    cache = svc.stats()["pattern_cache"]
    svc.close()
    # The second set-up sample, a run's length after the first; this
    # service only measures set-up.
    _setup(build, setup)[0].close()
    _check_service(entries, records, first_refactor, ledger)
    layers = _service_layers(entries, records, cold, cache)
    info = {"rounds": len(lat["refactor"])}
    return Result(lat["refactor"], lat["solve"],
                  ledger.attempted - ledger.failed, wall, setup, ledger,
                  layers, info)


def _check_service(entries, records, first_refactor, ledger) -> None:
    """Bitwise identity to sequential once per pattern, and every job's
    measured traffic == the predictors. A job failing either check counts
    as one failed operation."""
    predicted = {
        name: (communication_volume(e.tg, e.owners),
               solve_communication_volume(e.tg, e.owners, 1))
        for name, e in entries.items()
    }
    bad = {}
    for name, (M, L, job_id) in first_refactor.items():
        e = entries[name]
        ref = BlockCholesky(e.structure, permute_spd(M, e.perm)).factor()
        if not _same_factor(L, ref.to_csc()):
            bad[job_id] = f"service factor of {name} differs from sequential"
    for kind, recs in records.items():
        for name, rec, m in recs:
            if m is None:  # sequential fallback: no traffic to compare
                continue
            fv, sv = predicted[name]
            got = ((m.messages_total, m.bytes_total) if kind == "refactor"
                   else (m.solve_messages_total, m.solve_bytes_total))
            want = ((fv.messages, fv.bytes) if kind == "refactor"
                    else (sv.messages, sv.bytes))
            if got != want:
                bad.setdefault(rec.job_id, f"{kind} on {name}: traffic "
                                           f"{got}, predicted {want}")
    ledger.failed += len(bad)
    ledger.problems.extend(f"{job}: {why}" for job, why in bad.items())


# ----------------------------------------------------------------------
# plan_paper
# ----------------------------------------------------------------------
def load_goldens(scale: str) -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)[scale]


def plan_sweep(chol) -> dict:
    """The paper's comparison for one matrix: ``{P: {mapping: row}}``."""
    out = {}
    for P in PLAN_P:
        plans = chol.compare_mappings(P, PLAN_MAPPINGS)
        out[str(P)] = {
            m: {
                "mflops": p.mflops,
                "efficiency": p.efficiency,
                "balance_bound": p.balance_bound,
                "messages": p.meta["messages"],
            }
            for m, p in plans.items()
        }
    return out


def plan_paper(seed, seconds, scale, tracer, goldens=None) -> Result:
    rng = np.random.default_rng([seed, 4])
    if goldens is None:
        goldens = load_goldens(scale)
    def build():
        return {n: base_matrix(n, scale) for n in PLAN_PROBLEMS}

    setup = []
    mats = _setup(build, setup)
    ledger = Ledger()
    tracer.phase = "loop"
    passes, sweeps = [], []
    acc = _Accumulator()
    jobs = 0
    walls = []
    t_start = time.perf_counter()
    while _another(t_start, seconds, walls):
        t_wall = time.perf_counter()
        t_pass = t_sweep = 0.0
        for name in PLAN_PROBLEMS:
            A = fresh_values(mats[name], rng)
            rid = f"{len(passes)}:{name}"
            errs = []
            table = t1 = None
            t0 = time.perf_counter()
            try:
                with tracer.span("op.plan", rid=rid):
                    chol = SparseCholesky(A, block_size=PLAN_BLOCK_SIZE)
                    t1 = time.perf_counter()
                    table = plan_sweep(chol)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                errs.append(repr(exc))
            t2 = time.perf_counter()
            t_pass += t2 - t0
            if t1 is not None:
                t_sweep += t2 - t1
            if table is not None:
                if table != goldens[name]:
                    errs.append("simulated plan differs from the golden")
                if not passes:
                    acc.add_structure(name, chol.symbolic, chol.taskgraph)
                    acc.add_plan(table)
            if ledger.record(f"plan {rid}", errs):
                jobs += len(PLAN_P) * len(PLAN_MAPPINGS)
        passes.append(t_pass)
        sweeps.append(t_sweep)
        walls.append(time.perf_counter() - t_wall)
        mats = _setup_again("plan_paper", build, setup, tracer)
    wall = time.perf_counter() - t_start
    tracer.phase = "done"
    layers = acc.plan_layers()
    info = {}
    return Result(passes, sweeps, jobs, wall, setup, ledger, layers, info)


WORKLOADS = {
    "oneshot": oneshot,
    "service_mix": service_mix,
    "plan_paper": plan_paper,
}


# ----------------------------------------------------------------------
# Statistics and per-layer numbers
# ----------------------------------------------------------------------
def tail(samples: list) -> dict | None:
    """The highest percentile with at least 10 samples beyond it (nearest
    rank), with the sample count; None with 10 samples or fewer."""
    n = len(samples)
    if n <= 10:
        return None
    rank = n - 10  # 1-based rank of the value with 10 samples above it
    return {
        "value_s": sorted(samples)[rank - 1],
        "percentile": 100.0 * rank / n,
        "samples": n,
    }


class _Accumulator:
    """Per-layer numbers the program already reports (structure counts,
    RuntimeMetrics, simulator results), summed per pass."""

    def __init__(self):
        self.structure = {}
        self.mp = []
        self.plans = []

    def add_structure(self, name, symbolic, tg) -> None:
        self.structure[name] = {
            "nnz_L": symbolic.factor_nnz,
            "mflop": symbolic.factor_ops / 1e6,
            "npanels": tg.npanels,
            "ntasks": tg.ntasks,
            "tile": dgemm_tile_stats(tg)["median_tile_mn"],
        }

    def add_plan(self, table) -> None:
        for row in table.values():
            self.plans.extend(row.values())

    def structure_layers(self) -> dict:
        s = self.structure.values()
        return {
            "symbolic.nnz_L": (sum(v["nnz_L"] for v in s), "count"),
            "symbolic.factor_mflop": (sum(v["mflop"] for v in s), "Mflop"),
            "blocks.npanels": (sum(v["npanels"] for v in s), "count"),
            "fanout.ntasks": (sum(v["ntasks"] for v in s), "count"),
            "blocks.median_tile_mn": (
                float(np.mean([v["tile"] for v in s])) if s else 0.0,
                "count",
            ),
        }

    def oneshot_layers(self, passes: int, predicted) -> dict:
        out = self.structure_layers()
        out.update(runtime_layers(self.mp, passes))
        out["mapping.balance_bound"] = (
            float(np.mean([v[2] for v in predicted.values()]))
            if predicted else 0.0,
            "ratio",
        )
        return out

    def plan_layers(self) -> dict:
        out = self.structure_layers()
        out.update({
            "sim.messages": (sum(p["messages"] for p in self.plans), "count"),
            "mapping.balance_bound": (
                float(np.mean([p["balance_bound"] for p in self.plans])),
                "ratio",
            ),
        })
        return out


def runtime_layers(metrics: list, divisor: int) -> dict:
    """The ``RuntimeMetrics`` of a run's mp calls or pool jobs, summed
    and divided by ``divisor`` (passes or service operations)."""

    def per(fn) -> float:
        return _per(sum(fn(m) for m in metrics), divisor)

    def workers(attr) -> float:
        return per(lambda m: sum(getattr(w, attr) for w in m.workers))

    return {
        "runtime.wall_s": (per(lambda m: m.wall_s), "s"),
        "runtime.busy_s": (per(lambda m: float(m.busy.sum())), "s"),
        "runtime.comm_s": (workers("comm_s"), "s"),
        "runtime.idle_s": (per(lambda m: m.idle_total_s), "s"),
        "runtime.solve_busy_s": (workers("solve_busy_s"), "s"),
        "runtime.messages": (per(lambda m: m.messages_total), "count"),
        "runtime.bytes": (per(lambda m: m.bytes_total), "B"),
        "runtime.wire_bytes": (per(lambda m: m.wire_bytes_total), "B"),
        "runtime.solve_messages": (
            per(lambda m: m.solve_messages_total), "count"),
        "runtime.solve_bytes": (per(lambda m: m.solve_bytes_total), "B"),
        "runtime.renegotiations": (workers("renegotiations"), "count"),
        "runtime.nacks": (workers("nacks_sent"), "count"),
        "runtime.retransmits": (workers("retransmits"), "count"),
        "runtime.worker_peak_rss_mb": (_children_peak_mb(), "MB"),
    }


def _service_layers(entries, records, cold, cache) -> dict:
    acc = _Accumulator()
    for name, e in entries.items():
        acc.add_structure(name, e.symbolic, e.tg)
    out = acc.structure_layers()
    refs = [r for _, r, _ in records["refactor"]]
    allrecs = refs + [r for _, r, _ in records["solve"]]
    metrics = [m for recs in records.values() for _, _, m in recs if m]
    nops = len(allrecs)

    def mean(values) -> float:
        values = list(values)
        return float(np.mean(values)) if values else 0.0

    out.update({
        "service.queue_wait_s": (mean(r.queue_wait_s for r in refs), "s"),
        "service.run_s": (mean(r.run_s for r in allrecs), "s"),
        "service.assemble_s": (mean(r.assemble_s for r in refs), "s"),
        "service.batch_size": (mean(r.batch_size for r in refs), "count"),
        "service.cold_setup_s": (sum(cold), "s"),
        "service.cache_hit_ratio": (
            _per(cache["hits"], cache["hits"] + cache["misses"]), "ratio"),
        "service.attempts_per_job": (mean(r.attempts for r in refs), "count"),
        "service.degraded_share": (
            _per(sum(r.outcome == "degraded_sequential" for r in allrecs),
                 nops),
            "ratio",
        ),
        **runtime_layers(metrics, nops),
        "mapping.balance_bound": (
            float(np.mean([
                overall_balance_from_owners(e.tg.workmodel, e.owners, NPROCS)
                for e in entries.values()
            ])),
            "ratio",
        ),
    })
    return out


if __name__ == "__main__":
    # Regenerate the simulator goldens (plans depend on the pattern only):
    #   PYTHONPATH=src python3 perfbench/workloads.py
    goldens = {
        scale: {
            name: plan_sweep(SparseCholesky(base_matrix(name, scale),
                                            block_size=PLAN_BLOCK_SIZE))
            for name in PLAN_PROBLEMS
        }
        for scale in ("paper", "small")
    }
    with open(GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
