"""Binary trace format: compact fixed-record event serialisation.

The paper's full-verbosity trace files ran 16–40 GB as text (§VI.B).
This module defines a dense binary record — 30 bytes fixed plus an
optional extras blob — cutting storage by roughly an order of magnitude
against NDJSON while remaining stream-parseable:

``record := header fields (struct) + extras_len:u16 + extras (JSON)``

======  ====  =========================================
field   type  notes
======  ====  =========================================
magic   u16   0x484D ("HM"), per-record resync marker
type    u16   EventType value
cycle   u64   clock tick
dev     i8    locality fields; -1 = unset
link    i8
quad    i8
vault   i16
bank    i16
stage   i8
serial  i64   packet serial; -1 = unset
extras  u16+  JSON-encoded extras dict (0 = none)
======  ====  =========================================

All integers little-endian.  A stream begins with a 16-byte file header
carrying a format version and the device vault count, so readers can
rebuild :class:`~repro.trace.stats.TraceStats` without out-of-band
metadata.

Records are written by one C encoder (``_tracecodec.c``, built on first
import by :mod:`repro.core._native`) for a whole tracer batch at once:
:meth:`BinarySink.emit_tuples` and :func:`encode_event` share it.
"""

from __future__ import annotations

import json
import struct
from typing import IO, Iterator, Optional

from repro.core._native import load
from repro.trace.events import EventType, TraceEvent
from repro.trace.tracer import Sink

#: Per-record resync marker ("HM").
RECORD_MAGIC = 0x484D

#: File header: magic "HMCTRACE" + version:u16 + num_vaults:u16 + pad.
FILE_MAGIC = b"HMCTRACE"
FILE_VERSION = 1
_FILE_HEADER = struct.Struct("<8sHHI")

_RECORD = struct.Struct("<HHQbbbhhbq")


class BinaryTraceError(ValueError):
    """Malformed binary trace stream."""


def _pack_type(etype: int) -> int:
    """Fit an EventType value into the u16 record field.

    Values up to SUBCYCLE (0x8000) are stored verbatim — every stream
    written before event types outgrew 16 bits stays byte-identical.
    Larger single-flag types store as ``0x8000 | log2(value)`` (e.g.
    RAS_CE = 1<<16 → 0x8010); no legacy flag other than SUBCYCLE itself
    has bit 15 set, so the escape range is unambiguous.
    """
    if etype <= 0x8000:
        return etype
    if etype & (etype - 1):
        raise BinaryTraceError(
            f"cannot encode composite event type 0x{etype:x}"
        )
    return 0x8000 | (etype.bit_length() - 1)


def _unpack_type(value: int) -> int:
    """Inverse of :func:`_pack_type`."""
    if value & 0x8000 and value != 0x8000:
        return 1 << (value & 0x7FFF)
    return value


def write_file_header(stream: IO[bytes], num_vaults: int) -> None:
    stream.write(_FILE_HEADER.pack(FILE_MAGIC, FILE_VERSION, num_vaults, 0))


def read_file_header(stream: IO[bytes]) -> dict:
    raw = stream.read(_FILE_HEADER.size)
    if len(raw) != _FILE_HEADER.size:
        raise BinaryTraceError("truncated file header")
    magic, version, num_vaults, _pad = _FILE_HEADER.unpack(raw)
    if magic != FILE_MAGIC:
        raise BinaryTraceError(f"bad file magic {magic!r}")
    if version != FILE_VERSION:
        raise BinaryTraceError(f"unsupported version {version}")
    return {"version": version, "num_vaults": num_vaults}


def _extras_json(pairs) -> bytes:
    """The extras blob the C encoder leaves to :func:`json.dumps`."""
    return json.dumps(dict(pairs), separators=(",", ":")).encode()


_codec = load("repro.trace._tracecodec")
_codec.bind(BinaryTraceError, _pack_type, _extras_json)


def encode_event(event: TraceEvent) -> bytes:
    """Serialise one event to its binary record.

    A field that does not fit the record (a vault past i16, a negative
    cycle, a serial past i64) raises :class:`BinaryTraceError`; dev,
    link, quad and stage outside i8 are written as -1 (unset).
    """
    return _codec.encode((event,))


def decode_event(stream: IO[bytes]) -> Optional[TraceEvent]:
    """Read one record; None at clean end-of-stream."""
    head = stream.read(_RECORD.size)
    if not head:
        return None
    if len(head) != _RECORD.size:
        raise BinaryTraceError("truncated record header")
    (magic, etype, cycle, dev, link, quad, vault, bank, stage,
     serial) = _RECORD.unpack(head)
    if magic != RECORD_MAGIC:
        raise BinaryTraceError(f"bad record magic 0x{magic:04x}")
    raw_len = stream.read(2)
    if len(raw_len) != 2:
        raise BinaryTraceError("truncated extras length")
    (elen,) = struct.unpack("<H", raw_len)
    extras = {}
    if elen:
        blob = stream.read(elen)
        if len(blob) != elen:
            raise BinaryTraceError("truncated extras blob")
        extras = json.loads(blob)
    return TraceEvent(
        type=EventType(_unpack_type(etype)),
        cycle=cycle,
        dev=dev,
        link=link,
        quad=quad,
        vault=vault,
        bank=bank,
        stage=stage,
        serial=serial,
        extra=extras,
    )


class BinarySink(Sink):
    """Tracer sink writing the binary stream (with file header).

    Batched delivery encodes the whole batch in C and issues a single
    stream write per batch; a batch holding a field that does not fit
    its record raises :class:`BinaryTraceError` and writes nothing.
    Nothing is held back between batches: the stream
    is byte-complete at every tracer flush boundary, so mid-run parsers
    (and the engine-vs-reference fingerprint) see exact state without
    calling :meth:`close`.
    """

    def __init__(self, stream: IO[bytes], num_vaults: int) -> None:
        self._stream = stream
        write_file_header(stream, num_vaults)
        self._records = 0
        self._bytes_written = _FILE_HEADER.size

    @property
    def records(self) -> int:
        self._sync()
        return self._records

    @property
    def bytes_written(self) -> int:
        self._sync()
        return self._bytes_written

    def emit(self, event: TraceEvent) -> None:
        self.emit_tuples((event,))

    def emit_tuples(self, entries: list) -> None:
        blob = _codec.encode(entries)
        self._stream.write(blob)
        self._records += len(entries)
        self._bytes_written += len(blob)

    def close(self) -> None:
        self._sync()
        self._stream.flush()


def parse_binary(stream: IO[bytes]) -> Iterator[TraceEvent]:
    """Yield events from a binary trace stream (header first)."""
    read_file_header(stream)
    while True:
        event = decode_event(stream)
        if event is None:
            return
        yield event


def binary_num_vaults(stream: IO[bytes]) -> int:
    """Read just the vault count from a stream's file header."""
    return read_file_header(stream)["num_vaults"]
