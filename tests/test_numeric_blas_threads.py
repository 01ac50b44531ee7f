"""The per-process BLAS thread budget: sizing, capping, restoring."""

import multiprocessing as mp

import pytest

from repro.numeric.blas_threads import (
    get_blas_threads,
    limit_blas_threads,
    set_blas_threads,
    thread_budget,
    usable_cpus,
)
from repro.runtime.pool import WorkerPool


def _child_counts(budget, out):
    set_blas_threads(budget)
    out.put(get_blas_threads())


class TestThreadBudget:
    @pytest.mark.parametrize(
        "nprocs,cpus,want",
        [(1, 2, 2), (2, 2, 1), (4, 2, 1), (3, 8, 2), (2, 64, 32)],
    )
    def test_share_of_cpus_at_least_one(self, nprocs, cpus, want):
        assert thread_budget(nprocs, cpus=cpus) == want

    def test_defaults_to_usable_cpus(self):
        assert thread_budget(1) == usable_cpus()

    def test_rejects_bad_nprocs(self):
        with pytest.raises(ValueError):
            thread_budget(0)


class TestCapping:
    def test_limit_caps_then_restores(self):
        before = get_blas_threads()
        with limit_blas_threads(1):
            assert all(c == 1 for c in get_blas_threads())
        assert get_blas_threads() == before

    def test_budget_never_raises_a_count(self):
        before = get_blas_threads()
        with limit_blas_threads(max(before, default=1) + 4):
            assert get_blas_threads() == before
        assert get_blas_threads() == before

    def test_forked_child_takes_the_cap(self):
        ctx = mp.get_context("fork")
        out = ctx.Queue()
        p = ctx.Process(target=_child_counts, args=(1, out))
        p.start()
        counts = out.get(timeout=30)
        p.join(timeout=30)
        assert p.exitcode == 0
        assert len(counts) == len(get_blas_threads())
        assert all(c == 1 for c in counts)


class TestPoolBudget:
    def test_pool_records_budget_per_crew(self):
        with WorkerPool(nprocs=2) as pool:
            assert pool.blas_threads == thread_budget(2)
            pool.resize(1).start()
            assert pool.blas_threads == thread_budget(1)
