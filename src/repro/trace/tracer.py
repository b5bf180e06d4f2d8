"""The tracer: verbosity masks and pluggable output sinks.

The paper's trace files for the Table I runs ranged from 16 GB to 40 GB
(§VI.B); to keep the reproduction laptop-friendly the tracer supports
online aggregation (:class:`StatsSink`) alongside the file sinks, so the
Figure 5 series can be computed without materialising raw traces.

Batched emission
----------------
Hot call sites emit compact int tuples via :meth:`Tracer.emit_fast`
(C, positional arguments only; the vault walk appends the same tuples
itself) instead of constructing :class:`TraceEvent` objects.  The
tracer buffers entries in a small ring and hands whole batches to sinks
implementing ``emit_tuples`` (Null/Memory/Counting/Stats/Binary);
object-only sinks (NDJSON, CSV, user subclasses) force per-event
delivery so their output timing is unchanged.  The clock engine
flushes at the end of every ``advance`` call, and sink accessors
(``events``, ``counts``, ``records`` …) flush on read, so observable
state never lags.

The tuple layout mirrors the :class:`TraceEvent` fields::

    (type:int, cycle, dev, link, quad, vault, bank, stage, serial,
     extra_pairs | None)

where ``extra_pairs`` is a tuple of ``(key, value)`` pairs in the order
the equivalent ``extra`` dict would hold them.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Dict, List, Optional, Sequence

from repro.trace.events import EventType, TraceEvent

#: Tracer ring-buffer capacity: entries buffered before a forced flush.
RING_CAPACITY = 512

# int code -> EventType member, built lazily (IntFlag __call__ is slow).
_ETYPE_CACHE: Dict[int, EventType] = {}


def _etype_of(code: int) -> EventType:
    et = _ETYPE_CACHE.get(code)
    if et is None:
        et = _ETYPE_CACHE[code] = EventType(code)
    return et


def _to_event(t: tuple) -> TraceEvent:
    """Materialise a buffered tuple entry as a TraceEvent."""
    extra = t[9]
    return TraceEvent(
        type=_etype_of(t[0]),
        cycle=t[1],
        dev=t[2],
        link=t[3],
        quad=t[4],
        vault=t[5],
        bank=t[6],
        stage=t[7],
        serial=t[8],
        extra=dict(extra) if extra else {},
    )


class Sink:
    """Trace sink interface.

    ``emit`` receives one :class:`TraceEvent`.  Sinks that also
    implement ``emit_tuples(entries)`` receive raw tracer batches — a
    list whose items are either compact tuples (see module docstring)
    or TraceEvent objects — and are eligible for batched delivery.
    """

    #: Owning tracer, set by :meth:`Tracer.add_sink`; lets accessor
    #: properties force a flush so reads never observe buffered lag.
    tracer: Optional["Tracer"] = None

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush/terminate the sink (default: nothing)."""

    def _sync(self) -> None:
        t = self.tracer
        if t is not None:
            t.flush()


class NullSink(Sink):
    """Discards everything (tracing disabled but call sites unchanged)."""

    def emit(self, event: TraceEvent) -> None:
        pass

    def emit_tuples(self, entries: list) -> None:
        pass


class MemorySink(Sink):
    """Buffers events in a list — the default for tests and analysis."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    @property
    def events(self) -> List[TraceEvent]:
        self._sync()
        return self._events

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)

    def emit_tuples(self, entries: list) -> None:
        append = self._events.append
        for t in entries:
            append(_to_event(t) if type(t) is tuple else t)

    def clear(self) -> None:
        self._sync()
        self._events.clear()

    def __len__(self) -> int:
        self._sync()
        return len(self._events)


class CountingSink(Sink):
    """Counts events per type without storing them (cheap telemetry)."""

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}

    @property
    def counts(self) -> Dict[EventType, int]:
        self._sync()
        return {_etype_of(k): v for k, v in self._counts.items()}

    def emit(self, event: TraceEvent) -> None:
        c = self._counts
        k = event.type.value
        c[k] = c.get(k, 0) + 1

    def emit_tuples(self, entries: list) -> None:
        c = self._counts
        for t in entries:
            k = t[0] if type(t) is tuple else t.type.value
            c[k] = c.get(k, 0) + 1

    def total(self) -> int:
        self._sync()
        return sum(self._counts.values())


class NDJSONSink(Sink):
    """Writes one JSON object per line to a text stream.

    *flush_every* bounds buffering: encoded lines are written out (and
    the stream flushed) every that-many events, so long runs never
    buffer unboundedly.  The default of 1 preserves line-at-a-time
    visibility; raise it for throughput on paper-scale traces.
    """

    def __init__(self, stream: IO[str], flush_every: int = 1) -> None:
        self._stream = stream
        self.flush_every = max(1, int(flush_every))
        self._pending: List[str] = []
        self.lines = 0

    def emit(self, event: TraceEvent) -> None:
        self._pending.append(json.dumps(event.to_dict(), separators=(",", ":")))
        self.lines += 1
        if len(self._pending) >= self.flush_every:
            self._write_out()

    def _write_out(self) -> None:
        if self._pending:
            self._stream.write("\n".join(self._pending))
            self._stream.write("\n")
            self._pending.clear()
            self._stream.flush()

    def close(self) -> None:
        self._sync()
        self._write_out()
        self._stream.flush()


class CSVSink(Sink):
    """Writes a fixed-column CSV (locality columns; extras JSON-encoded)."""

    FIELDS = ("type", "cycle", "dev", "link", "quad", "vault", "bank", "stage", "serial", "extra")

    def __init__(self, stream: IO[str]) -> None:
        self._writer = csv.writer(stream)
        self._writer.writerow(self.FIELDS)
        self._stream = stream
        self.rows = 0

    def emit(self, event: TraceEvent) -> None:
        self._writer.writerow(
            [
                event.type.name,
                event.cycle,
                event.dev,
                event.link,
                event.quad,
                event.vault,
                event.bank,
                event.stage,
                event.serial,
                json.dumps(event.extra, separators=(",", ":")) if event.extra else "",
            ]
        )
        self.rows += 1

    def close(self) -> None:
        self._sync()
        self._stream.flush()


class StatsSink(Sink):
    """Feeds events straight into a :class:`~repro.trace.stats.TraceStats`
    aggregator — the memory-bounded path for paper-scale runs."""

    def __init__(self, stats) -> None:
        self.stats = stats
        self._tracer: Optional["Tracer"] = None

    # The owning tracer is propagated into the aggregator so TraceStats
    # accessors (totals, series...) can flush buffered batches on read.
    @property
    def tracer(self) -> Optional["Tracer"]:
        return self._tracer

    @tracer.setter
    def tracer(self, t: Optional["Tracer"]) -> None:
        self._tracer = t
        self.stats._sync_hook = t.flush if t is not None else None

    def emit(self, event: TraceEvent) -> None:
        self.stats.add(event)

    def emit_tuples(self, entries: list) -> None:
        self.stats.add_batch(entries)


class Tracer:
    """Event dispatcher with a verbosity mask and fan-out to sinks.

    The mask is an :class:`EventType` flag set; events whose type is not
    in the mask are dropped before any sink sees them.  ``enabled_for``
    lets hot paths skip event construction entirely when tracing is off.

    Accepted entries are appended to a small buffer and delivered in
    batches (see module docstring).  When any attached sink lacks
    ``emit_tuples``, the batch size drops to 1 so per-event delivery
    order and timing are exactly as before.
    """

    __slots__ = (
        "_mask", "_sinks", "emitted", "dropped", "live_mask",
        "_buf", "_batch", "_limit", "_depth",
        "_tuple_sinks", "_object_sinks", "_flushing", "next_serial",
    )

    def __init__(
        self,
        mask: EventType = EventType.STANDARD,
        sinks: Optional[Sequence[Sink]] = None,
    ) -> None:
        self._sinks: List[Sink] = []
        self._tuple_sinks: List[Sink] = []
        self._object_sinks: List[Sink] = []
        self._buf: list = []
        self._batch = 1
        self._limit = 1
        self._depth = 0
        self._flushing = False
        self.emitted = 0
        self.dropped = 0
        #: Plain-int mask that is non-zero only when at least one sink is
        #: attached — hot loops test ``live_mask & etype`` with int
        #: arithmetic instead of calling :meth:`enabled_for`.
        self.live_mask = 0
        #: The serial the next packet entering this tracer's simulation
        #: takes: a request at ``HMCSim.send`` or the host lane, a reply
        #: where it is queued.  The tracer is the one per-simulation
        #: object every stage already holds; checkpoints carry it.
        self.next_serial = 0
        self.mask = mask
        if sinks:
            for sink in sinks:
                self.add_sink(sink)

    @property
    def mask(self) -> EventType:
        return self._mask

    @mask.setter
    def mask(self, mask: EventType) -> None:
        if self._buf:
            self.flush()
        self._mask = mask
        self._refresh_live_mask()

    def _refresh_live_mask(self) -> None:
        self.live_mask = int(self._mask) if self._sinks else 0
        self._batch = (
            RING_CAPACITY
            if self._tuple_sinks and not self._object_sinks
            else 1
        )
        self._limit = self._batch if self._depth else 1

    def begin_batch(self) -> None:
        """Enter deferred mode: buffer up to the ring capacity.

        Called by the clock engine on entry to ``advance()`` and by the
        host drive loop around a whole run; windows nest (a depth
        counter), and buffering persists until the outermost
        :meth:`end_batch`.  Outside every window each emit flushes
        immediately, so one-off emissions from non-engine paths reach
        sinks exactly as they did before batching existed; sink
        accessors flush on read, so buffered state is never observable.
        """
        self._depth += 1
        self._limit = self._batch

    def end_batch(self) -> None:
        """Leave one deferred window; the outermost delivers the buffer."""
        depth = self._depth - 1
        self._depth = depth if depth > 0 else 0
        if depth <= 0:
            self._limit = 1
            if self._buf:
                self.flush()

    def add_sink(self, sink: Sink) -> Sink:
        if self._buf:
            self.flush()
        self._sinks.append(sink)
        if hasattr(sink, "emit_tuples"):
            self._tuple_sinks.append(sink)
        else:
            self._object_sinks.append(sink)
        sink.tracer = self
        self._refresh_live_mask()
        return sink

    def remove_sink(self, sink: Sink) -> None:
        if self._buf:
            self.flush()
        self._sinks.remove(sink)
        if sink in self._tuple_sinks:
            self._tuple_sinks.remove(sink)
        else:
            self._object_sinks.remove(sink)
        sink.tracer = None
        self._refresh_live_mask()

    @property
    def sinks(self) -> List[Sink]:
        return list(self._sinks)

    def enabled_for(self, etype: EventType) -> bool:
        """True iff events of *etype* would be recorded."""
        return bool(self.live_mask & etype)

    def emit(self, event: TraceEvent) -> None:
        """Dispatch *event* to every sink if its type passes the mask."""
        # ``.value`` sidesteps IntFlag.__rand__ (plain int arithmetic).
        if not (self.live_mask & event.type.value):
            self.dropped += 1
            return
        self.emitted += 1
        buf = self._buf
        buf.append(event)
        if len(buf) >= self._limit:
            self.flush()

    def event(self, etype: EventType, cycle: int, **kw) -> None:
        """Convenience: construct and emit in one call (cold paths)."""
        if not (self.live_mask & etype.value):
            self.dropped += 1
            return
        ev = TraceEvent(type=etype, cycle=cycle, **kw)
        self.emitted += 1
        buf = self._buf
        buf.append(ev)
        if len(buf) >= self._limit:
            self.flush()

    def flush(self) -> None:
        """Deliver all buffered entries to every sink.

        Every sink is offered the batch whatever an earlier one raised,
        so what each holds does not depend on the order they were
        added in; the first error is raised once all have had it.
        """
        buf = self._buf
        if not buf or self._flushing:
            return
        self._flushing = True
        errors = []
        try:
            self._buf = []
            for sink in self._tuple_sinks:
                try:
                    sink.emit_tuples(buf)
                except Exception as exc:
                    errors.append(exc)
            if self._object_sinks:
                events = [
                    _to_event(e) if type(e) is tuple else e for e in buf
                ]
                for sink in self._object_sinks:
                    try:
                        emit = sink.emit
                        for ev in events:
                            emit(ev)
                    except Exception as exc:
                        errors.append(exc)
        finally:
            self._flushing = False
        if errors:
            raise errors[0]

    def close(self) -> None:
        self.flush()
        for sink in self._sinks:
            sink.close()
