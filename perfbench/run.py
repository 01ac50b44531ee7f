"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 30 --trace 0

Run from the repository root: the program under test is imported from
``src/`` next to this directory, and the run fails (non-zero exit, no
result line) when it is missing. ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs the same workload with
caller-side spans on and prints the per-layer metrics instead, writing
the spans to ``perfbench/out/``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name -> value and unit). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Workers each workload runs (for the oversubscription flag).
WORKLOAD_NPROCS = {"oneshot": 2, "service_mix": 2, "plan_paper": 1}
#: Problem scale of each workload (``--smoke`` uses "small").
WORKLOAD_SCALE = {"oneshot": "medium", "service_mix": "medium",
                  "plan_paper": "paper"}


def blas_info() -> list[dict]:
    """BLAS libraries bundled with numpy and scipy and their per-process
    thread counts, read (never set) through OpenBLAS's getter."""
    import numpy
    import scipy

    found = []
    for pkg, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libdir = Path(pkg.__file__).resolve().parent.parent / (
            pkg.__name__ + ".libs"
        )
        for path in sorted(glob.glob(str(libdir / "libscipy_openblas*"))):
            entry = {"package": pkg.__name__, "library": Path(path).name,
                     "threads": None}
            try:
                getter = getattr(ctypes.CDLL(path), symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                entry["threads"] = int(getter())
            except (OSError, AttributeError) as exc:
                entry["error"] = repr(exc)
            found.append(entry)
    if not found:
        found.append({"package": "numpy", "library": "unknown",
                      "threads": None})
    return found


def environment(workload: str) -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    blas = blas_info()
    counts = [b["threads"] for b in blas if b["threads"] is not None]
    threads = max(counts) if counts else None
    nprocs = WORKLOAD_NPROCS[workload]
    return {
        "usable_cpus": cpus,
        "blas": blas,
        "num_threads_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.endswith("_NUM_THREADS")
        },
        "workers": nprocs,
        "oversubscribed": (
            None if threads is None else nprocs * threads > cpus
        ),
        "python": sys.version.split()[0],
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def typical(samples: list) -> float:
    """Mean of the operation times. A P=2 call takes a fast time or one
    2-3x slower at this commit, a run holds only 3-5 ``oneshot`` passes,
    and their median flips between the modes. Resampled from the pass
    times of ten-run sets, the mean spread less from run to run than the
    geometric or harmonic mean, the median or a trimmed mean. A run whose
    operations all failed may hold no sample; it still gets a number,
    and ``ok_share`` reports the failures."""
    return statistics.fmean(samples) if samples else 0.0


def lower_quartile(samples: list) -> float:
    """25th percentile of the operation times. A warm refactor on the
    resident pool takes a fast time or one 2-3x slower, and the share of
    slow ones in the 10-17 refactors of a run swings every mean and the
    median from run to run; the lower quartile stays in the fast mode.
    The mean and the tail are still printed, so a change in the slow
    share shows there."""
    if len(samples) < 2:
        return typical(samples)
    return statistics.quantiles(samples, n=4)[0]


#: How each workload sums up its main operation times into ``main_s``.
MAIN_STAT = {"oneshot": typical, "service_mix": lower_quartile,
             "plan_paper": typical}


def end_to_end(res, workload: str) -> dict:
    led = res.ledger
    return {
        "main_s": (MAIN_STAT[workload](res.main), "s"),
        "side_s": (typical(res.side), "s"),
        "setup_s": (statistics.median(res.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_share": ((led.attempted - led.failed) / led.attempted, "ratio"),
    }


def per_layer(res, workload: str, tracer, units: int,
              span_cost_s: float) -> dict:
    """Span-derived layer times (per pass or per service op) joined with
    the counts the workload collected from the program's own reports."""
    from tracing import LAYERS, self_times

    st = self_times(tracer.spans)
    total = st["total"]
    layers = dict(res.layers)

    def t(*names) -> float:
        return sum(total.get(n, 0.0) for n in names) / units

    fac = t("numeric.factor")
    call = t("runtime.call", "runtime.pool_batch")
    one_shot_call = t("runtime.call")
    wall = layers.get("runtime.wall_s", (0.0, "s"))[0]
    busy = layers.get("runtime.busy_s", (0.0, "s"))[0]
    mflop = layers.get("symbolic.factor_mflop", (0.0, "Mflop"))[0]
    e2e = sum(v for k, v in total.items() if k.startswith("op.")) / units
    layer_self = {k: st["self"].get(k, 0.0) / units for k in LAYERS}
    layers.update({
        "ordering.order_s": (t("ordering.order"), "s"),
        "symbolic.factor_s": (t("symbolic.factor"), "s"),
        "blocks.partition_s": (t("blocks.partition"), "s"),
        "fanout.taskgraph_s": (t("fanout.taskgraph"), "s"),
        "mapping.plan_s": (t("mapping.plan"), "s"),
        "sim.run_s": (t("sim.run"), "s"),
        "numeric.factor_s": (fac, "s"),
        "numeric.solve_s": (t("numeric.solve"), "s"),
        "numeric.factor_gflops": (
            mflop / 1e3 / fac if fac else 0.0, "Gflop/s"),
        "runtime.call_s": (call, "s"),
        # Arena create/destroy, reap and assemble around the one-shot
        # engine's own wall clock (pool batches share one wall per batch).
        "runtime.outside_wall_s": (
            one_shot_call - wall if one_shot_call else 0.0, "s"),
        "runtime.busy_inflation": (busy / fac if fac else 0.0, "ratio"),
        **{f"self.{k}_s": (v, "s") for k, v in layer_self.items()},
        "trace.e2e_s": (e2e, "s"),
        "trace.unaccounted_s": (e2e - sum(layer_self.values()), "s"),
        "trace.spans": (st["count"], "count"),
        "trace.overhead_s": (st["count"] * span_cost_s / units, "s"),
        "trace.main_s": (MAIN_STAT[workload](res.main), "s"),
    })
    return layers


def measure(workload, seed: int, seconds: float, scale: str, tracer):
    """Run ``workload`` and count a leaked ``/dev/shm`` segment as one
    failed operation.

    The leak check runs after the workers are reaped and before the
    resource-tracker process is stopped: stopping the tracker unlinks
    every segment still registered with it, which would hide a leak.
    The tracker is stopped and reaped so the run leaves no process
    behind.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    import workloads

    shm_before = workloads.shm_segments()
    res = workload(seed, seconds, scale, tracer)
    for child in multiprocessing.active_children():
        child.join(10.0)
    leaked = workloads.shm_segments() - shm_before
    if leaked:
        res.ledger.failed += 1
        res.ledger.attempted += 1
        res.ledger.problems.append(f"leaked shm segments: {sorted(leaked)}")
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker,
                                                               "_stop"):
        tracker._stop()
    return res


def spec_metrics(kind: str, measured: dict) -> dict:
    """``measured`` in ``BENCHMARK.json`` order, units checked. A layer
    that does not run on a workload reads 0."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    unknown = set(measured) - {m["name"] for m in spec}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    out = {}
    for m in spec:
        value, unit = measured.get(m["name"], (0, m["unit"]))
        if unit != m["unit"]:
            raise ValueError(f"{m['name']}: unit {unit} != {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("oneshot", "service_mix", "plan_paper"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small problems, for the self-test only")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} is missing; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    env = environment(args.workload)
    print("env: " + json.dumps(env, sort_keys=True), flush=True)
    if env["oversubscribed"]:
        print("warning: workers x BLAS threads exceed usable CPUs "
              "(oversubscribed); left as found", flush=True)

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    span_cost = tracing.overhead_per_span_s() if args.trace else 0.0
    if args.trace:
        tracing.install(tracer)
    scale = "small" if args.smoke else WORKLOAD_SCALE[args.workload]
    try:
        res = measure(workloads.WORKLOADS[args.workload], args.seed,
                      args.seconds, scale, tracer)
    finally:
        if args.trace:
            tracer.uninstall()

    e2e = end_to_end(res, args.workload)
    for k, (v, u) in e2e.items():
        print(f"{k:>14} = {v:.6g} {u}")
    for label, samples in (("main", res.main), ("side", res.side),
                           ("setup", res.setup_s)):
        if not samples:
            print(f"{label:>14} : n=0")
            continue
        print(f"{label:>14} : n={len(samples)} "
              f"mean={statistics.fmean(samples):.4f} s "
              f"p50={statistics.median(samples):.4f} s "
              f"tail={workloads.tail(samples)} "
              f"samples={[round(v, 3) for v in samples]}")
    print(f"{'jobs_per_s':>14} : {res.jobs / res.wall_s:.4f} 1/s (not gated)")
    for k, v in res.info.items():
        print(f"{k:>14} : {v}")
    for problem in res.ledger.problems[:20]:
        print(f"FAILED {problem}")
    if args.trace:
        units = len(res.main) + (
            len(res.side) if args.workload == "service_mix" else 0
        )
        metrics = spec_metrics(
            "per_layer",
            per_layer(res, args.workload, tracer, units, span_cost),
        )
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        for k, m in metrics.items():
            print(f"{k:>28} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = spec_metrics("end_to_end", e2e)
    print(json.dumps({
        "correct": res.ledger.failed == 0,
        "attempted": res.ledger.attempted,
        "failed": res.ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
