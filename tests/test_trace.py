"""Unit tests for the tracing subsystem (repro.trace)."""

import io

import numpy as np
import pytest

from repro.trace.events import EventType, TraceEvent
from repro.trace.parse import filter_events, parse_csv, parse_ndjson, replay_into_stats
from repro.trace.stats import TraceStats
from repro.trace.tracer import (
    CSVSink,
    CountingSink,
    MemorySink,
    NDJSONSink,
    NullSink,
    StatsSink,
    Tracer,
)


def ev(etype=EventType.RQST_READ, cycle=0, **kw):
    return TraceEvent(type=etype, cycle=cycle, **kw)


class TestEvents:
    def test_to_dict_omits_unset_fields(self):
        d = ev(vault=3).to_dict()
        assert d["vault"] == 3
        assert "bank" not in d
        assert d["type"] == "RQST_READ"

    def test_round_trip(self):
        e = ev(EventType.BANK_CONFLICT, cycle=9, dev=1, vault=2, bank=5,
               serial=77, extra={"addr": 64})
        e2 = TraceEvent.from_dict(e.to_dict())
        assert e2.type is EventType.BANK_CONFLICT
        assert (e2.cycle, e2.dev, e2.vault, e2.bank, e2.serial) == (9, 1, 2, 5, 77)
        assert e2.extra == {"addr": 64}

    def test_mask_composition(self):
        assert EventType.FIGURE5 & EventType.BANK_CONFLICT
        assert EventType.FIGURE5 & EventType.LATENCY_PENALTY
        assert not (EventType.FIGURE5 & EventType.SUBCYCLE)
        assert EventType.ALL & EventType.SUBCYCLE
        assert not (EventType.STANDARD & EventType.SUBCYCLE)


class TestTracer:
    def test_mask_filters(self):
        t = Tracer(mask=EventType.RQST_READ)
        sink = t.add_sink(MemorySink())
        t.emit(ev(EventType.RQST_READ))
        t.emit(ev(EventType.RQST_WRITE))
        assert len(sink) == 1
        assert t.emitted == 1
        assert t.dropped == 1

    def test_enabled_for_requires_sink(self):
        t = Tracer(mask=EventType.ALL)
        assert not t.enabled_for(EventType.RQST_READ)
        t.add_sink(NullSink())
        assert t.enabled_for(EventType.RQST_READ)
        assert not t.enabled_for(EventType.NONE)

    def test_fan_out(self):
        t = Tracer(mask=EventType.ALL)
        a, b = t.add_sink(MemorySink()), t.add_sink(CountingSink())
        t.emit(ev())
        assert len(a) == 1
        assert b.total() == 1

    def test_event_convenience(self):
        t = Tracer(mask=EventType.ALL)
        sink = t.add_sink(MemorySink())
        t.event(EventType.MISROUTE, 4, dev=1, extra={"target_cub": 9})
        assert sink.events[0].extra["target_cub"] == 9

    def test_emit_fast_defaults_and_arity(self):
        """``emit_fast`` (C) fills the fields it is not given as
        ``TraceEvent`` does, and takes 2 to 10 positional arguments."""
        t = Tracer(mask=EventType.ALL)
        sink = t.add_sink(MemorySink())
        t.emit_fast(int(EventType.MISROUTE), 4)
        t.emit_fast(int(EventType.MISROUTE), 5, 1, 2)
        assert sink.events == [TraceEvent(EventType.MISROUTE, 4),
                               TraceEvent(EventType.MISROUTE, 5, dev=1, link=2)]
        for args in ((1,), tuple(range(11))):
            with pytest.raises(TypeError):
                t.emit_fast(*args)
        with pytest.raises(TypeError):
            t.emit_fast(1, 2, dev=3)
        assert t.emitted == 2

    @pytest.mark.parametrize("binary_first", [True, False])
    def test_a_refused_batch_still_reaches_every_sink(self, binary_first):
        """A sink that raises on a batch neither keeps it from the sinks
        after it nor depends on their order: the binary sink refuses an
        out-of-range vault whole, the others still see the event, and
        the binary sink's error comes out of the flush."""
        from repro.trace.binfmt import BinarySink, BinaryTraceError

        t = Tracer(mask=EventType.ALL)
        binary = BinarySink(io.BytesIO(), num_vaults=32)
        stats, memory = StatsSink(TraceStats(num_vaults=32)), MemorySink()
        for sink in ([binary, stats, memory] if binary_first
                     else [stats, memory, binary]):
            t.add_sink(sink)
        t.begin_batch()
        t.event(EventType.RQST_READ, 5, dev=0, vault=40000, serial=1)
        with pytest.raises(BinaryTraceError, match="vault=40000"):
            t.end_batch()
        assert binary.records == 0
        assert stats.stats.events_seen == 1 and len(memory) == 1
        t.event(EventType.RQST_READ, 6, dev=0, vault=3, serial=2)
        assert (binary.records, stats.stats.events_seen, len(memory)) == (1, 2, 2)

    def test_remove_sink(self):
        t = Tracer(mask=EventType.ALL)
        s = t.add_sink(MemorySink())
        t.remove_sink(s)
        t.emit(ev())
        assert len(s) == 0


class TestFileSinks:
    def test_ndjson_round_trip(self):
        buf = io.StringIO()
        sink = NDJSONSink(buf)
        events = [ev(cycle=i, vault=i % 4) for i in range(5)]
        for e in events:
            sink.emit(e)
        sink.close()
        buf.seek(0)
        parsed = list(parse_ndjson(buf))
        assert len(parsed) == 5
        assert [p.cycle for p in parsed] == list(range(5))

    def test_ndjson_rejects_garbage(self):
        buf = io.StringIO('{"nope": 1}\n')
        with pytest.raises(ValueError):
            list(parse_ndjson(buf))

    def test_csv_round_trip(self):
        buf = io.StringIO()
        sink = CSVSink(buf)
        sink.emit(ev(EventType.XBAR_RQST_STALL, cycle=3, dev=0, link=2,
                     extra={"remote": True}))
        sink.close()
        buf.seek(0)
        rows = list(parse_csv(buf))
        assert rows[0].type is EventType.XBAR_RQST_STALL
        assert rows[0].link == 2
        assert rows[0].extra == {"remote": True}

    def test_counting_sink(self):
        s = CountingSink()
        for _ in range(3):
            s.emit(ev(EventType.RQST_READ))
        s.emit(ev(EventType.RQST_WRITE))
        assert s.counts[EventType.RQST_READ] == 3
        assert s.total() == 4


class TestTraceStats:
    def test_vault_series_accumulation(self):
        st = TraceStats(num_vaults=4)
        st.add(ev(EventType.RQST_READ, cycle=0, vault=1))
        st.add(ev(EventType.RQST_READ, cycle=0, vault=1))
        st.add(ev(EventType.RQST_READ, cycle=2, vault=3))
        s = st.vault_series(EventType.RQST_READ)
        assert s.values.tolist() == [2, 0, 1]
        assert s.total == 3
        assert s.peak == 2
        per_vault = st.vault_series(EventType.RQST_READ, vault=1)
        assert per_vault.values.tolist() == [2, 0, 0]

    def test_global_series(self):
        st = TraceStats(num_vaults=4)
        st.add(ev(EventType.XBAR_RQST_STALL, cycle=5))
        s = st.global_series(EventType.XBAR_RQST_STALL)
        assert s.values.sum() == 1
        assert st.num_cycles == 6

    def test_growth_beyond_initial_capacity(self):
        st = TraceStats(num_vaults=2, initial_cycles=16)
        st.add(ev(EventType.RQST_WRITE, cycle=1000, vault=0))
        assert st.vault_series(EventType.RQST_WRITE).values[1000] == 1

    def test_figure5_series_keys(self):
        st = TraceStats(num_vaults=4)
        fig = st.figure5_series()
        assert set(fig) == {
            "bank_conflicts", "read_requests", "write_requests",
            "xbar_rqst_stalls", "latency_penalties",
        }

    def test_wrong_series_kind_raises(self):
        st = TraceStats(num_vaults=4)
        with pytest.raises(KeyError):
            st.global_series(EventType.RQST_READ)
        with pytest.raises(KeyError):
            st.vault_series(EventType.XBAR_RQST_STALL)

    def test_vault_matrix_and_utilization(self):
        st = TraceStats(num_vaults=3)
        st.add(ev(EventType.RQST_READ, cycle=0, vault=0))
        st.add(ev(EventType.RQST_WRITE, cycle=1, vault=2))
        m = st.vault_matrix(EventType.RQST_READ)
        assert m.shape == (2, 3)
        util = st.vault_utilization()
        assert util.tolist() == [1, 0, 1]

    def test_summary_totals(self):
        st = TraceStats(num_vaults=2)
        st.add(ev(EventType.RQST_READ, cycle=0, vault=0))
        st.add(ev(EventType.PKT_EXPIRED, cycle=0))  # untracked series: totals only
        assert st.summary()["RQST_READ"] == 1
        assert st.summary()["PKT_EXPIRED"] == 1
        assert st.events_seen == 2

    def test_stats_sink_integration(self):
        st = TraceStats(num_vaults=2)
        t = Tracer(mask=EventType.FIGURE5, sinks=[StatsSink(st)])
        t.emit(ev(EventType.BANK_CONFLICT, cycle=1, vault=1))
        assert st.vault_series(EventType.BANK_CONFLICT).total == 1


class TestParseHelpers:
    def test_replay_into_stats_with_mask(self):
        events = [
            ev(EventType.RQST_READ, cycle=0, vault=0),
            ev(EventType.RQST_WRITE, cycle=0, vault=0),
        ]
        st = replay_into_stats(events, num_vaults=2, mask=EventType.RQST_READ)
        assert st.events_seen == 1

    def test_filter_events(self):
        events = [
            ev(EventType.RQST_READ, cycle=0, dev=0, vault=0),
            ev(EventType.RQST_READ, cycle=5, dev=1, vault=0),
            ev(EventType.RQST_WRITE, cycle=6, dev=0, vault=1),
        ]
        got = list(filter_events(events, mask=EventType.RQST_READ, dev=0))
        assert len(got) == 1
        got = list(filter_events(events, cycle_range=(5, 7)))
        assert len(got) == 2
        got = list(filter_events(events, vault=1))
        assert len(got) == 1
