"""Loaded-path overhaul: batched tracing, profiling, perf satellites.

Covers the invariants the batched trace pipeline must preserve —
batched sink output identical to unbatched, aggregate sinks agreeing
with the event-by-event reference — plus the engine profiler CLI
surface, the sweep worker override and the wall-clock throughput
metric.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core.config import DeviceConfig, SimConfig
from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.trace.binfmt import BinarySink, parse_binary
from repro.trace.events import EventType, TraceEvent
from repro.trace.parse import parse_ndjson
from repro.trace.stats import TraceStats
from repro.trace.tracer import (
    CountingSink,
    MemorySink,
    NDJSONSink,
    NullSink,
    StatsSink,
    Tracer,
)
from repro.workloads.random_access import (
    RandomAccessConfig,
    random_access_requests,
    run_random_access,
)


def _traced_run(sinks, mask=EventType.STANDARD, requests=192):
    """Small loaded Table I run with *sinks* attached; returns the sim."""
    device = DeviceConfig(num_links=4, num_banks=8, capacity=2)
    sim = HMCSim(SimConfig(device=device))
    for link in range(device.num_links):
        sim.attach_host(0, link)
    sim.set_trace_mask(mask)
    for sink in sinks:
        sim.add_trace_sink(sink)
    host = Host(sim)
    cfg = RandomAccessConfig(num_requests=requests)
    host.run(random_access_requests(device.capacity_bytes, cfg), cub=0)
    return sim


class TestBatchedSinkEquivalence:
    def test_binary_batched_equals_unbatched(self):
        """The tracer's batched tuple path must produce byte-identical
        binary output to per-event encoding of the same stream."""
        batched_buf = io.BytesIO()
        batched = BinarySink(batched_buf, num_vaults=32)
        mem = MemorySink()
        _traced_run([batched, mem])

        reference_buf = io.BytesIO()
        reference = BinarySink(reference_buf, num_vaults=32)
        for ev in mem.events:
            reference.emit(ev)
        assert batched_buf.getvalue() == reference_buf.getvalue()
        assert batched.records == reference.records == len(mem.events)

    def test_binary_extras_fallback_matches_json(self):
        """Extras the manual encoder cannot handle fall back to
        json.dumps with identical bytes."""
        cases = [
            (("addr", 4096), ("bwr", True)),
            (("busy", False), ("n", -3)),
            (("weird key", 1),),          # non-identifier key
            (("s", "text"),),             # string value
            (("f", 1.5),),                # float value
            (("nested", {"a": 1}),),      # dict value
        ]
        t = Tracer(mask=EventType.ALL)
        buf = io.BytesIO()
        t.add_sink(BinarySink(buf, num_vaults=8))
        for i, pairs in enumerate(cases):
            t.emit_fast(int(EventType.RQST_READ), i, 0, -1, 0, 1, 2, -1, i,
                        pairs)
        t.flush()

        ref = io.BytesIO()
        ref_sink = BinarySink(ref, num_vaults=8)
        for i, pairs in enumerate(cases):
            ref_sink.emit(TraceEvent(
                type=EventType.RQST_READ, cycle=i, dev=0, quad=0, vault=1,
                bank=2, serial=i, extra=dict(pairs),
            ))
        assert buf.getvalue() == ref.getvalue()
        events = list(parse_binary(io.BytesIO(buf.getvalue())))
        assert [e.extra for e in events] == [dict(p) for p in cases]

    def test_ndjson_flush_every_output_identical(self):
        """Any flush_every setting yields the same NDJSON bytes after
        close(), and parses back to the same events."""
        mem = MemorySink()
        _traced_run([mem], requests=96)
        outputs = {}
        for fe in (1, 7, 64, 10_000):
            stream = io.StringIO()
            sink = NDJSONSink(stream, flush_every=fe)
            for ev in mem.events:
                sink.emit(ev)
            sink.close()
            outputs[fe] = stream.getvalue()
        assert len(set(outputs.values())) == 1
        parsed = list(parse_ndjson(io.StringIO(outputs[1])))
        assert len(parsed) == len(mem.events)
        assert parsed[0].type == mem.events[0].type

    def test_ndjson_flush_every_bounds_buffering(self):
        stream = io.StringIO()
        sink = NDJSONSink(stream, flush_every=4)
        ev = TraceEvent(type=EventType.RQST_READ, cycle=1, vault=0)
        for _ in range(3):
            sink.emit(ev)
        assert stream.getvalue() == ""  # still pending
        sink.emit(ev)
        assert stream.getvalue().count("\n") == 4  # batch written out
        sink.close()

    def test_aggregate_sinks_match_memory_reference(self):
        """StatsSink and CountingSink totals must equal event-by-event
        counts over a MemorySink on the same traced run."""
        mem = MemorySink()
        counting = CountingSink()
        stats = TraceStats(num_vaults=32)
        _traced_run([mem, counting, StatsSink(stats)])

        reference: dict = {}
        for ev in mem.events:
            reference[ev.type] = reference.get(ev.type, 0) + 1
        assert sum(reference.values()) > 0
        assert counting.counts == reference
        assert stats.events_seen == len(mem.events)
        for etype, n in reference.items():
            assert stats.totals.get(etype, 0) == n
        # Per-vault series must agree with the reference too.
        read_per_vault = [0] * 32
        for ev in mem.events:
            if ev.type is EventType.RQST_READ:
                read_per_vault[ev.vault] += 1
        got = stats.vault_matrix(EventType.RQST_READ).sum(axis=0)
        assert list(got) == read_per_vault

    def test_sink_state_exact_between_advances(self):
        """Batching must never be observable at a stepping boundary."""
        device = DeviceConfig(num_links=4, num_banks=8, capacity=2)
        sim = HMCSim(SimConfig(device=device))
        sim.attach_host(0, 0)
        sim.set_trace_mask(EventType.STANDARD)
        buf = io.BytesIO()
        sink = sim.add_trace_sink(BinarySink(buf, num_vaults=32))
        host = Host(sim)
        cfg = RandomAccessConfig(num_requests=32)
        host.run(random_access_requests(device.capacity_bytes, cfg), cub=0)
        # Raw stream read — no sink accessor, no close(): the bytes must
        # already be complete at the run() boundary.
        events = list(parse_binary(io.BytesIO(buf.getvalue())))
        assert len(events) == sink.records > 0


class TestProfiler:
    def test_profiler_buckets_cover_run(self):
        from repro.analysis.profiling import attach, render

        device = DeviceConfig(num_links=4, num_banks=8, capacity=2)
        sim = HMCSim(SimConfig(device=device))
        sim.attach_host(0, 0)
        prof = attach(sim)
        host = Host(sim)
        cfg = RandomAccessConfig(num_requests=64)
        host.run(random_access_requests(device.capacity_bytes, cfg), cub=0)
        assert prof.ticks > 0
        assert prof.total_stage_ns() > 0
        assert all(ns >= 0 for ns in prof.stage_ns)
        text = render(prof, sim.engine.stage_counts)
        assert "stage 4: vault request processing" in text
        report = prof.report(sim.engine.stage_counts)
        assert report["ticks"] == prof.ticks
        assert report["stages"]["4"]["count"] == sim.engine.stage_counts[4]

    @pytest.mark.parametrize("mask", [EventType.NONE, EventType.SUBCYCLE])
    def test_render_says_where_stage3_time_went(self, mask):
        """Stage 3 has its own time only when SUBCYCLE markers split the
        vault walk; otherwise the table says it is booked under stage 4."""
        from repro.analysis.profiling import attach, render

        device = DeviceConfig(num_links=4, num_banks=8, capacity=2)
        sim = HMCSim(SimConfig(device=device))
        sim.attach_host(0, 0)
        sim.set_trace_mask(mask)
        sim.add_trace_sink(NullSink())
        prof = attach(sim)
        cfg = RandomAccessConfig(num_requests=64)
        Host(sim).run(random_access_requests(device.capacity_bytes, cfg), cub=0)
        assert sim.engine.stage_counts[3] > 0
        assert (prof.stage_ns[3] > 0) == bool(mask)
        text = render(prof, sim.engine.stage_counts)
        assert ("booked under stage 4" in text) == (not mask)

    def test_cli_bandwidth_profile_flag(self, capsys, tmp_path):
        from repro.cli import main

        stats_json = tmp_path / "stats.json"
        assert main(["bandwidth", "--requests", "64", "--profile",
                     "--stats-json", str(stats_json)]) == 0
        out = capsys.readouterr().out
        assert "engine profile" in out
        assert "stage 4: vault request processing" in out
        assert "requests/sec" in out
        tree = json.loads(stats_json.read_text())
        assert "profile" in tree
        assert tree["profile"]["ticks"] > 0
        assert set(tree["profile"]["stages"]) == {str(i) for i in range(1, 7)}

    def test_cli_replay_profile_flag(self, capsys, tmp_path):
        from repro.cli import main

        trace = tmp_path / "trace.txt"
        trace.write_text("R 0x0 64\nW 0x40 64\nR 0x80 64\n")
        assert main(["replay", str(trace), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "engine profile" in out


class TestPerfSatellites:
    def test_sweep_workers_env_override(self, monkeypatch):
        from repro.analysis.sweep import default_workers

        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "1")
        assert default_workers() == 1
        # Invalid / non-positive values are rejected with a clear error
        # naming the offending value, instead of crashing deep in the
        # process-pool setup.
        for bad in ("bogus", "0", "-2", "1.5"):
            monkeypatch.setenv("REPRO_SWEEP_WORKERS", bad)
            with pytest.raises(ValueError, match="REPRO_SWEEP_WORKERS"):
                default_workers()
        # Empty/whitespace counts as unset: heuristic applies.
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "  ")
        assert default_workers() >= 1
        monkeypatch.delenv("REPRO_SWEEP_WORKERS")
        assert default_workers() >= 1

    def test_requests_per_sec_wall_clock(self):
        device = DeviceConfig(num_links=4, num_banks=8, capacity=2)
        res = run_random_access(
            device, RandomAccessConfig(num_requests=64)
        )
        assert res.wall_seconds > 0
        assert res.requests_per_sec > 0
        assert res.requests_per_sec == pytest.approx(
            res.run.requests_sent / res.wall_seconds
        )
