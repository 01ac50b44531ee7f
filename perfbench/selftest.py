"""Self-tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

* a small-scale smoke of every workload, traced and untraced, printing
  exactly the metrics ``BENCHMARK.json`` names, each with its unit;
* a deliberately wrong solution, a raising solve, a golden mismatch and
  a leaked shared-memory segment each count as a failed operation, and
  a run whose operations all failed still gets its metrics;
* the same seed gives the same inputs, another seed different ones;
* without ``src/`` next to it the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_smoke() -> None:
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert out["correct"] and out["failed"] == 0, proc.stdout
            assert out["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, v in out["metrics"].items():
                assert isinstance(v["value"], (int, float)), name
            print(f"ok   smoke {workload} trace={trace}")


def check_failures_count() -> None:
    import run
    import tracing
    import workloads
    from repro.solver import SparseCholesky

    original = SparseCholesky.solve

    def wrong(self, b, refine=0):
        x = original(self, b, refine)
        x[0] += 1.0
        return x

    def broken(self, b, refine=0):
        raise RuntimeError("deliberately broken solve")

    for label, patch in (("wrong solution", wrong),
                         ("raising solve", broken)):
        SparseCholesky.solve = patch
        try:
            res = workloads.oneshot(3, 0.0, "small", tracing.NullTracer())
        finally:
            SparseCholesky.solve = original
        assert res.ledger.failed == res.ledger.attempted >= 1, res.ledger
        for workload in run.MAIN_STAT:  # every summary of the samples
            e2e = run.end_to_end(res, workload)
            assert e2e["ok_share"][0] == 0.0 and e2e["main_s"][0] > 0.0, e2e
        print(f"ok   {label}: {res.ledger.failed}/"
              f"{res.ledger.attempted} operations failed")

    goldens = workloads.load_goldens("small")
    name = workloads.PLAN_PROBLEMS[0]
    goldens[name]["64"]["DW/CY"]["mflops"] *= 1.0 + 1e-12
    res = workloads.plan_paper(3, 0.0, "small", tracing.NullTracer(),
                               goldens=goldens)
    assert res.ledger.failed == 1 and res.ledger.attempted == 2, res.ledger
    print("ok   golden mismatch: 1/2 operations failed")


def check_leak_counted() -> None:
    from multiprocessing import shared_memory

    import run
    import tracing
    import workloads

    leaked = []

    def leaky(seed, seconds, scale, tracer):
        res = workloads.plan_paper(seed, seconds, scale, tracer)
        leaked.append(shared_memory.SharedMemory(create=True, size=4096))
        return res

    res = run.measure(leaky, 3, 0.0, "small", tracing.NullTracer())
    seg = leaked[0]
    seg.close()
    try:
        seg.unlink()
    except FileNotFoundError:
        pass
    assert res.ledger.failed == 1 and res.ledger.attempted == 3, res.ledger
    assert seg.name in res.ledger.problems[-1], res.ledger.problems
    print("ok   leaked shm segment: 1/3 operations failed")


def check_seeds() -> None:
    import numpy as np
    import workloads

    A = workloads.base_matrix("GRID150", "small")

    def values(seed):
        return workloads.fresh_values(A, np.random.default_rng([seed, 1]))

    assert np.array_equal(values(5).data, values(5).data)
    assert not np.array_equal(values(5).data, values(6).data)
    assert np.array_equal(values(5).indices, A.indices)
    print("ok   seeded inputs")


def check_fails_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, tmp / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(WORKLOADS[0], 0, cwd=tmp)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok   exits non-zero without src/")


if __name__ == "__main__":
    (HERE / "out").mkdir(exist_ok=True)
    check_fails_without_program()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    check_failures_count()
    check_leak_counted()
    check_seeds()
    check_smoke()
    print("selftest passed")
