"""The C trace encoder and fold vs the Python they replaced
(tests/reference/trace_codec.py).

``BinarySink.emit_tuples``, ``encode_event``, ``TraceStats.add`` and
``TraceStats.add_batch`` are C (``repro/trace/_tracecodec.c``).  Driven
over generated batches — compact tuples mixed with ``TraceEvent``s —
the C must write every byte the reference writes, raise where it raised
(a ``BinaryTraceError`` that writes nothing, where the reference raised
``struct.error``), and leave every ``TraceStats`` field equal: totals
(in insertion order), ``max_cycle``, ``events_seen``, the capacity and
each series and matrix.

The batches cover single-flag types past 0x8000 and composite ones
(which must raise), locality fields outside i8 / i16 / i64, cycles that
make the series grow, and extras with non-identifier, non-ASCII and
non-``str`` keys, ints past 2**64, negative ints, floats, strings and
nested values.  Tier-1 runs 300 examples; ``--hypothesis-profile=deep``
runs 1,000.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.binfmt import (
    BinarySink,
    BinaryTraceError,
    encode_event,
    parse_binary,
)
from repro.trace.events import EventType, TraceEvent
from repro.trace.stats import TraceStats
from repro.trace.tracer import _to_event
from tests.reference.trace_codec import (
    ReferenceBinarySink,
    ReferenceStats,
    encode_event as reference_encode_event,
)

_VAULTS = 16
#: A file header alone: what a sink holds after a refused batch.
_HEADER = 16

_TYPES = (
    st.sampled_from([int(t) for t in EventType if t and not t & (t - 1)])
    | st.sampled_from([1 << 16, 1 << 22, 1 << 40, 1 << 63, 1 << 70])
    | st.sampled_from([0, 3, 0x0110, 0x10001, 0x18000, (1 << 40) | 1])  # composite
)
_CYCLES = st.integers(0, 3000) | st.sampled_from([-3, -1, 1 << 63, (1 << 64) - 1, 1 << 64])
_I8 = st.integers(-1, 7) | st.integers(-300, 300) | st.sampled_from([1 << 70, -(1 << 70)])
_I16 = st.integers(-1, _VAULTS - 1) | st.sampled_from([-32769, -32768, 32767, 32768, 40000])
_SERIALS = st.integers(-1, 10**6) | st.sampled_from(
    [(1 << 63) - 1, 1 << 63, -(1 << 63), -(1 << 63) - 1])
_KEYS = (
    st.sampled_from(["addr", "busy", "bwr", "x1", "_k", "A_b9"])
    | st.sampled_from(["1a", "a-b", "", "with space", "é", "ключ", "aé"])
    | st.sampled_from([1, True, None, 2.5])
)
_VALUES = (
    st.booleans()
    | st.integers(-(1 << 70), 1 << 70)
    | st.sampled_from([0, 1, -1, (1 << 63) - 1, 1 << 63, -(1 << 63),
                       -(1 << 63) - 1, 1 << 64, EventType.RQST_READ])
    | st.floats()
    | st.text(max_size=4)
    | st.lists(st.integers(0, 3), max_size=3)
    | st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2)
)
#: Pairs with distinct keys, as a dict would hold them (the tuple
#: layout's contract, repro.trace.tracer).
_PAIRS = st.lists(st.tuples(_KEYS, _VALUES), max_size=3,
                  unique_by=lambda kv: kv[0]).map(tuple)


@st.composite
def _entries(draw):
    fields = (draw(_TYPES), draw(_CYCLES), draw(_I8), draw(_I8), draw(_I8),
              draw(_I16), draw(_I16), draw(_I8), draw(_SERIALS),
              draw(st.none() | _PAIRS))
    if draw(st.booleans()):
        return fields
    *head, pairs = fields
    etype, cycle, dev, link, quad, vault, bank, stage, serial = head
    return TraceEvent(type=EventType(etype), cycle=cycle, dev=dev, link=link,
                      quad=quad, vault=vault, bank=bank, stage=stage,
                      serial=serial, extra=dict(pairs or ()))


_BATCHES = st.lists(_entries(), max_size=40)


def _sink_run(cls, batch):
    """What a *cls* sink holds after one batch, and what it raised."""
    buf = io.BytesIO()
    sink = cls(buf, num_vaults=_VAULTS)
    try:
        sink.emit_tuples(batch)
        raised = None
    except Exception as exc:  # the reference raises struct.error
        raised = exc
    return buf.getvalue(), sink.records, sink.bytes_written, raised


def _stats_state(s: TraceStats):
    return (list(s._totals.items()), s._max_cycle, s._events_seen, s._cap,
            {t: (a.shape, a.tobytes()) for t, a in s._global.items()},
            {t: (a.shape, a.tobytes()) for t, a in s._vault.items()})


def _cycle(e):
    return e[1] if type(e) is tuple else e.cycle


def _etype(e):
    return e[0] if type(e) is tuple else int(e.type)


class TestCodecEqualsReference:
    # 300 examples, or the loaded profile's count when it asks for more
    # (``--hypothesis-profile=deep``: 1,000; tests/conftest.py).
    @settings(max_examples=max(300, settings.default.max_examples),
              deadline=None)
    @given(batch=_BATCHES)
    def test_generated_batches(self, batch):
        ours = _sink_run(BinarySink, batch)
        ref = _sink_run(ReferenceBinarySink, batch)
        if ref[3] is None:
            assert ours == ref
        else:
            # Refused whole: a typed error, nothing written, nothing counted.
            assert isinstance(ours[3], (BinaryTraceError, TypeError)), ours[3]
            assert ours[:3] == (ours[0][:_HEADER], 0, _HEADER)
        for e in batch:
            if type(e) is not tuple:
                try:
                    expect = reference_encode_event(e)
                except Exception:
                    with pytest.raises((BinaryTraceError, TypeError)):
                        encode_event(e)
                else:
                    assert encode_event(e) == expect

        # The fold, batched and per event, from a small cycle axis so
        # the series grow; cycles past 2**17 would only allocate.
        folded = [e for e in batch if _cycle(e) < 1 << 17]
        ours, ref = TraceStats(_VAULTS, 16), ReferenceStats(_VAULTS, 16)
        ours.add_batch(folded)
        ref.add_batch(folded)
        assert _stats_state(ours) == _stats_state(ref)
        events = [e if type(e) is not tuple else _to_event(e)
                  for e in folded if _etype(e) >= 0]
        ours, ref = TraceStats(_VAULTS, 16), ReferenceStats(_VAULTS, 16)
        for e in events:
            ours.add(e)
            ref.add(e)
        assert _stats_state(ours) == _stats_state(ref)

    def test_strategy_reaches_the_corners(self):
        """Corners the property relies on, pinned once: a grown series,
        a vault past the matrix, a refused batch, the json.dumps
        fallback and a clamp."""
        read = int(EventType.RQST_READ)
        batch = [
            (read, 5000, 300, -1, 1 << 70, 3, 1, 128, 7, (("é", 1.5),)),
            TraceEvent(type=EventType(1 << 40), cycle=1, extra={"n": -(1 << 70)}),
        ]
        ours = _sink_run(BinarySink, batch)
        assert ours == _sink_run(ReferenceBinarySink, batch)
        first, second = parse_binary(io.BytesIO(ours[0]))
        assert (first.dev, first.quad, first.stage) == (-1, -1, -1)
        assert first.extra == {"é": 1.5} and second.extra == {"n": -(1 << 70)}
        assert int(second.type) == 1 << 40
        stats, ref = TraceStats(_VAULTS, 16), ReferenceStats(_VAULTS, 16)
        past = [(read, 2, -1, -1, -1, _VAULTS + 4, 0, -1, 1, None)]  # no column
        for s in (stats, ref):
            s.add_batch(batch + past)
        assert _stats_state(stats) == _stats_state(ref)
        assert stats._cap == 8192 and stats.vault_matrix(EventType.RQST_READ).sum() == 1
        bad = batch + [(0x10001, 1, -1, -1, -1, -1, -1, -1, -1, None)]
        assert isinstance(_sink_run(BinarySink, bad)[3], BinaryTraceError)


class TestExtras:
    def test_equal_hashing_values_keep_their_json(self):
        """1, True, 0, False and 0.0 hash equal in pairs; each record
        must hold its own value, as encode_event writes it."""
        values = [1, True, 0, False, 0.0]
        read = int(EventType.RQST_READ)
        batch = [(read, i, 0, -1, 0, 1, 2, -1, i, (("busy", v),))
                 for i, v in enumerate(values)]
        buf = io.BytesIO()
        sink = BinarySink(buf, num_vaults=8)
        sink.emit_tuples(batch)
        expect = b"".join(encode_event(_to_event(e)) for e in batch)
        assert buf.getvalue()[_HEADER:] == expect
        back = [e.extra["busy"] for e in parse_binary(io.BytesIO(buf.getvalue()))]
        assert [(type(v), v) for v in back] == [(type(v), v) for v in values]
        assert b'{"busy":true}' in expect and b'{"busy":0.0}' in expect

    def test_repeated_key_is_written_as_the_dict_holds_it(self):
        pairs = (("a", 1), ("a", 2))
        entry = (2, 0, -1, -1, -1, -1, -1, -1, -1, pairs)
        buf = io.BytesIO()
        BinarySink(buf, num_vaults=8).emit_tuples([entry])
        (event,) = parse_binary(io.BytesIO(buf.getvalue()))
        assert event.extra == {"a": 2}
        assert buf.getvalue()[_HEADER:] == encode_event(_to_event(entry))


class TestFieldErrors:
    @pytest.mark.parametrize("field, value", [
        ("vault", 40000), ("bank", -32769), ("cycle", -3),
        ("serial", 1 << 63), ("cycle", 1 << 64), ("serial", "7"),
    ])
    def test_a_field_past_its_record_is_named(self, field, value):
        event = TraceEvent(**{"type": EventType.RQST_READ, "cycle": 1, field: value})
        with pytest.raises(BinaryTraceError, match=f"field {field}="):
            encode_event(event)
        good = (2, 0, -1, -1, -1, -1, -1, -1, -1, None)
        buf = io.BytesIO()
        sink = BinarySink(buf, num_vaults=8)
        with pytest.raises(BinaryTraceError, match=f"field {field}="):
            sink.emit_tuples([good, event])
        assert buf.getvalue() == buf.getvalue()[:_HEADER]
        assert (sink.records, sink.bytes_written) == (0, _HEADER)

    def test_composite_type_past_0x8000_raises(self):
        with pytest.raises(BinaryTraceError, match="composite"):
            encode_event(TraceEvent(type=EventType.RAS, cycle=0))

    def test_out_of_i8_locality_is_unset_byte_for_byte(self):
        event = TraceEvent(type=EventType.RQST_WRITE, cycle=9, dev=200,
                           link=-129, quad=1 << 70, stage=128, vault=2)
        assert encode_event(event) == reference_encode_event(event)
        buf = io.BytesIO()
        BinarySink(buf, num_vaults=8).emit(event)
        (back,) = parse_binary(io.BytesIO(buf.getvalue()))
        assert (back.dev, back.link, back.quad, back.stage) == (-1, -1, -1, -1)
