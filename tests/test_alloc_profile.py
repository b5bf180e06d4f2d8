"""Allocation profiling: tracemalloc top-N surfaced through ``--profile``."""

from __future__ import annotations

import json

from repro.core.config import DeviceConfig, SimConfig
from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.workloads.random_access import RandomAccessConfig, random_access_requests


def _small_run(prof_kwargs):
    from repro.analysis.profiling import attach

    device = DeviceConfig(num_links=4, num_banks=8, capacity=2)
    sim = HMCSim(SimConfig(device=device))
    sim.attach_host(0, 0)
    prof = attach(sim, **prof_kwargs)
    host = Host(sim)
    cfg = RandomAccessConfig(num_requests=64)
    host.run(random_access_requests(device.capacity_bytes, cfg), cub=0)
    return sim, prof


class TestAllocationProfiler:
    def test_stop_is_idempotent(self):
        sim, prof = _small_run({"allocations": True, "top_n": 5})
        assert prof.alloc is not None
        prof.alloc.stop()
        top_first = list(prof.alloc.top)
        assert len(top_first) <= 5
        assert prof.alloc.peak_kb >= 0.0
        prof.alloc.stop()
        assert prof.alloc.top == top_first

    def test_report_is_json_serialisable(self):
        sim, prof = _small_run({"allocations": True})
        report = prof.report(sim.engine.stage_counts)
        assert "allocations" in report
        blob = json.loads(json.dumps(report))
        allocs = blob["allocations"]
        assert set(allocs) == {"traced_kb", "peak_kb", "top"}
        for entry in allocs["top"]:
            assert set(entry) == {"site", "size_kb", "count"}

    def test_render_includes_allocation_section(self):
        from repro.analysis.profiling import render

        sim, prof = _small_run({"allocations": True})
        text = render(prof, sim.engine.stage_counts)
        assert "engine profile" in text
        assert "allocation profile" in text
        assert "top allocation sites" in text

    def test_attach_without_allocations_unchanged(self):
        sim, prof = _small_run({})
        assert prof.alloc is None
        report = prof.report(sim.engine.stage_counts)
        assert "allocations" not in report

    def test_cli_profile_flag_prints_allocations(self, capsys, tmp_path):
        from repro.cli import main

        stats_json = tmp_path / "stats.json"
        assert main(["bandwidth", "--requests", "64", "--profile",
                     "--profile-alloc-top", "3",
                     "--stats-json", str(stats_json)]) == 0
        out = capsys.readouterr().out
        assert "engine profile" in out
        assert "allocation profile" in out
        tree = json.loads(stats_json.read_text())
        assert "allocations" in tree["profile"]
        assert len(tree["profile"]["allocations"]["top"]) <= 3
