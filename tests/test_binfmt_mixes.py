"""Tests for the binary trace format and workload mixes."""

import hashlib
import io
import json

import pytest

from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.packets.commands import CMD, is_read, is_write
from repro.topology.builder import build_simple
from repro.trace.binfmt import (
    BinarySink,
    BinaryTraceError,
    binary_num_vaults,
    decode_event,
    encode_event,
    parse_binary,
    read_file_header,
    write_file_header,
)
from repro.trace.events import EventType, TraceEvent
from repro.trace.parse import replay_into_stats
from repro.workloads.mixes import bursty, phases, weighted_mix
from repro.workloads.random_access import RandomAccessConfig, random_access_requests
from repro.workloads.stream import stream_requests


def latency_digest(latencies):
    """A short digest of a latency list, for pinning long runs."""
    return hashlib.sha256(json.dumps(latencies).encode()).hexdigest()[:16]


def ev(**kw):
    base = dict(type=EventType.RQST_READ, cycle=7, dev=0, vault=3, bank=1,
                serial=42)
    base.update(kw)
    return TraceEvent(**base)


class TestBinaryRecords:
    def test_round_trip_basic(self):
        blob = encode_event(ev())
        out = decode_event(io.BytesIO(blob))
        assert out.type is EventType.RQST_READ
        assert (out.cycle, out.dev, out.vault, out.bank, out.serial) == (7, 0, 3, 1, 42)

    def test_round_trip_with_extras(self):
        e = ev(extra={"addr": 123456, "busy": True})
        out = decode_event(io.BytesIO(encode_event(e)))
        assert out.extra == {"addr": 123456, "busy": True}

    def test_unset_fields_survive(self):
        e = TraceEvent(type=EventType.XBAR_RQST_STALL, cycle=9)
        out = decode_event(io.BytesIO(encode_event(e)))
        assert out.dev == -1 and out.vault == -1 and out.serial == -1

    def test_empty_stream_returns_none(self):
        assert decode_event(io.BytesIO(b"")) is None

    def test_truncation_detected(self):
        blob = encode_event(ev())
        with pytest.raises(BinaryTraceError):
            decode_event(io.BytesIO(blob[:10]))

    def test_bad_magic_detected(self):
        blob = bytearray(encode_event(ev()))
        blob[0] ^= 0xFF
        with pytest.raises(BinaryTraceError):
            decode_event(io.BytesIO(bytes(blob)))

    def test_compactness_vs_ndjson(self):
        """The format's reason to exist: ~5-10x smaller than NDJSON."""
        import json
        e = ev()
        binary = len(encode_event(e))
        text = len(json.dumps(e.to_dict()))
        assert binary < text / 1.5


class TestFileFormat:
    def test_header_round_trip(self):
        buf = io.BytesIO()
        write_file_header(buf, num_vaults=32)
        buf.seek(0)
        assert read_file_header(buf) == {"version": 1, "num_vaults": 32}

    def test_bad_header_rejected(self):
        with pytest.raises(BinaryTraceError):
            read_file_header(io.BytesIO(b"NOTATRACE headerpad"))

    def test_sink_and_parse_round_trip(self):
        buf = io.BytesIO()
        sink = BinarySink(buf, num_vaults=16)
        events = [ev(cycle=i, vault=i % 16) for i in range(100)]
        for e in events:
            sink.emit(e)
        sink.close()
        assert sink.records == 100
        buf.seek(0)
        parsed = list(parse_binary(buf))
        assert len(parsed) == 100
        assert [p.cycle for p in parsed] == list(range(100))

    def test_stats_rebuild_from_binary(self):
        """End-to-end: trace a run to binary, rebuild Figure-5 stats."""
        sim = build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8,
                                  capacity=2))
        buf = io.BytesIO()
        sim.set_trace_mask(EventType.FIGURE5)
        sink = sim.add_trace_sink(BinarySink(buf, num_vaults=16))
        host = Host(sim)
        host.run([(CMD.RD64, i * 64, None) for i in range(64)])
        buf.seek(0)
        nv = binary_num_vaults(buf)
        buf.seek(0)
        stats = replay_into_stats(parse_binary(buf), num_vaults=nv)
        assert stats.figure5_series()["read_requests"].total == 64


class TestWeightedMix:
    def rd_stream(self, n):
        return [(CMD.RD64, i * 64, None) for i in range(n)]

    def wr_stream(self, n):
        return [(CMD.WR64, i * 64, [1] * 8) for i in range(n)]

    def test_total_count(self):
        out = list(weighted_mix(
            [self.rd_stream(100), self.wr_stream(100)], [1, 1], total=50))
        assert len(out) == 50

    def test_weights_bias_selection(self):
        out = list(weighted_mix(
            [self.rd_stream(1000), self.wr_stream(1000)], [9, 1], total=400))
        reads = sum(1 for c, _, _ in out if is_read(c))
        assert reads > 300

    def test_exhausted_stream_drops_out(self):
        out = list(weighted_mix(
            [self.rd_stream(5), self.wr_stream(100)], [1, 1], total=50))
        assert len(out) == 50
        assert sum(1 for c, _, _ in out if is_read(c)) == 5

    def test_all_exhausted_ends_early(self):
        out = list(weighted_mix(
            [self.rd_stream(3), self.wr_stream(3)], [1, 1], total=50))
        assert len(out) == 6

    def test_deterministic(self):
        mk = lambda: list(weighted_mix(
            [self.rd_stream(50), self.wr_stream(50)], [1, 2], total=40, seed=9))
        assert mk() == mk()

    def test_validation(self):
        with pytest.raises(ValueError):
            list(weighted_mix([], [], total=1))
        with pytest.raises(ValueError):
            list(weighted_mix([self.rd_stream(1)], [-1], total=1))


class TestPhasesAndBursts:
    def test_phases_concatenate(self):
        out = list(phases(
            stream_requests(2 << 30, 5),
            [(CMD.WR16, 0, [1, 2])],
        ))
        assert len(out) == 6
        assert is_write(out[-1][0])

    def test_bursty_inserts_bubbles(self):
        out = list(bursty([(CMD.RD16, 0, None)] * 6, burst_len=2, gap_len=3))
        # Three full (burst, gap) rounds; exhaustion is only discovered
        # on the fourth burst attempt, so each round carries its gap.
        assert out.count(None) == 9
        assert len([x for x in out if x is not None]) == 6

    def test_bursty_validation(self):
        with pytest.raises(ValueError):
            list(bursty([], burst_len=0, gap_len=1))

    def test_host_run_honours_bubbles_end_to_end(self):
        """``Host.run`` sends every request of a bursty stream: a bubble
        ends the cycle's sends and is not a stall, nor the end of the
        stream.  The figures are those the retired bubble-aware copy of
        the loop reported on the same stream."""
        sim = build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8,
                                  capacity=2))
        stream = bursty([(CMD.RD64, i * 64, None) for i in range(32)],
                        burst_len=4, gap_len=8)
        res = Host(sim).run(stream)
        assert res.requests_sent == res.responses_received == 32
        assert (res.errors_received, res.cycles, res.send_stall_cycles) == (0, 65, 0)
        assert res.latencies == [2, 3, 3, 3] * 8
        assert sim.stats() == {
            "cycles": 65, "packets_sent": 32, "packets_received": 32,
            "send_stalls": 0, "dropped_responses": 0, "bank_conflicts": 0,
            "xbar_stalls": 0, "latency_penalties": 24,
            "requests_processed": 32,
        }

    def test_host_run_counts_stalls_but_not_bubbles(self):
        """Bursts that outrun a 4-tag-per-link pool stall; their gaps do
        not.  Pinned to the retired bubble-aware loop's result."""
        sim = build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8,
                                  capacity=2))
        cfg = RandomAccessConfig(num_requests=256, read_fraction=0.5, seed=3)
        stream = bursty(random_access_requests(2 << 30, cfg),
                        burst_len=48, gap_len=3)
        res = Host(sim, max_outstanding=4).run(stream)
        assert (res.requests_sent, res.responses_received, res.errors_received,
                res.cycles, res.send_stall_cycles) == (256, 256, 0, 92, 12)
        assert (len(res.latencies), sum(res.latencies)) == (256, 1130)
        assert latency_digest(res.latencies) == "1566cf64c66f31c2"
        assert sim.stats() == {
            "cycles": 92, "packets_sent": 256, "packets_received": 256,
            "send_stalls": 0, "dropped_responses": 0, "bank_conflicts": 430,
            "xbar_stalls": 0, "latency_penalties": 188,
            "requests_processed": 256,
        }

    def test_a_bubble_first_is_not_the_end(self):
        sim = build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8,
                                  capacity=2))
        res = Host(sim).run([None, None, (CMD.RD64, 0, None), None])
        assert res.requests_sent == res.responses_received == 1
        assert res.send_stall_cycles == 0
        assert sim.stats()["packets_sent"] == 1

    def test_mixed_phases_run_on_simulator(self):
        sim = build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8,
                                  capacity=2))
        host = Host(sim)
        cfg = RandomAccessConfig(num_requests=64)
        work = phases(
            stream_requests(2 << 30, 64),
            random_access_requests(2 << 30, cfg),
        )
        res = host.run(work)
        assert res.responses_received == 128
        assert res.errors_received == 0
