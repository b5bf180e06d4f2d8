"""Tests for the parallel sweep runner (repro.analysis.sweep)."""

import pytest

from repro.analysis.sweep import (
    default_workers,
    queue_depth_sweep_parallel,
    run_sweep,
    table1_parallel,
)
from repro.analysis.tables import run_table1
from repro.core.config import PAPER_CONFIGS


def square(x):
    return x * x


class TestRunSweep:
    def test_inline_execution(self):
        assert run_sweep(square, [1, 2, 3], processes=1) == [1, 4, 9]

    def test_order_preserved_in_parallel(self):
        assert run_sweep(square, list(range(10)), processes=2) == [
            i * i for i in range(10)]

    def test_single_point_runs_inline(self):
        assert run_sweep(square, [7], processes=4) == [49]

    def test_lambda_rejected_early(self):
        with pytest.raises(ValueError):
            run_sweep(lambda x: x, [1], processes=2)

    def test_empty_points(self):
        assert run_sweep(square, [], processes=2) == []

    def test_default_workers_sane(self):
        assert 1 <= default_workers() <= 8

    def test_default_workers_honours_cpu_affinity(self, monkeypatch):
        """Under taskset/cgroup limits the sweep sizes from the CPUs it
        may run on, not from the machine's core count."""
        import os

        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        for usable, want in ((1, 1), (2, 1), (4, 3), (64, 8)):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid, n=usable: set(range(n))
            )
            assert default_workers() == want


class TestParallelTable1:
    def test_matches_serial_results(self):
        """Determinism across processes: the parallel Table I equals the
        serial one bit for bit."""
        n = 1024
        parallel = table1_parallel(num_requests=n, processes=2)
        serial = {r.label: r.cycles for r in run_table1(num_requests=n)}
        assert parallel == serial

    def test_all_configs_present(self):
        out = table1_parallel(num_requests=256, processes=2)
        assert set(out) == set(PAPER_CONFIGS)


class TestQueueDepthSweep:
    def test_sweep_shape(self):
        out = queue_depth_sweep_parallel(
            depths=(4, 64), num_requests=512, processes=2)
        assert set(out) == {4, 64}
        assert all(c > 0 for c in out.values())
