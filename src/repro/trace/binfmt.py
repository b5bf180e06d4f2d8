"""Binary trace format: compact fixed-record event serialisation.

The paper's full-verbosity trace files ran 16–40 GB as text (§VI.B).
This module defines a dense binary record — 34 bytes fixed plus an
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
"""

from __future__ import annotations

import json
import struct
from struct import error
from typing import IO, Iterator, Optional

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


def encode_event(event: TraceEvent) -> bytes:
    """Serialise one event to its binary record."""
    extras = (
        json.dumps(event.extra, separators=(",", ":")).encode()
        if event.extra
        else b""
    )
    if len(extras) > 0xFFFF:
        raise BinaryTraceError("extras blob exceeds 64 KiB")
    head = _RECORD.pack(
        RECORD_MAGIC,
        _pack_type(int(event.type)),
        event.cycle,
        event.dev if -128 <= event.dev < 128 else -1,
        event.link if -128 <= event.link < 128 else -1,
        event.quad if -128 <= event.quad < 128 else -1,
        event.vault,
        event.bank,
        event.stage if -128 <= event.stage < 128 else -1,
        event.serial,
    )
    return head + struct.pack("<H", len(extras)) + extras


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


_LEN = struct.Struct("<H")

#: Header + extras-length packed in one call ('<' = no padding, so the
#: bytes are identical to _RECORD.pack(...) + _LEN.pack(len)).
_RECORD_L = struct.Struct("<HHQbbbhhbqH")

#: key -> '"key":' prefix for keys already validated as plain ASCII
#: identifiers (json.dumps would emit them verbatim); None marks keys
#: that need the json.dumps fallback.
_KEY_PREFIX: dict = {}


#: pairs-tuple -> encoded blob.  Conflict extras repeat heavily (a
#: parked packet is re-recognised every cycle it waits), so most lookups
#: hit.  Cleared when it outgrows _MEMO_LIMIT to bound paper-scale runs.
_EXTRAS_MEMO: dict = {}
_MEMO_LIMIT = 1 << 16


def _extras_bytes(pairs: tuple) -> bytes:
    """JSON-encode extras pairs, byte-identical to ``json.dumps(dict)``.

    Hot-path extras are tiny dicts of identifier keys and bool/int/str
    values; those are assembled by hand (key prefixes validated once and
    cached, whole blobs memoised).  Anything else falls back to
    :func:`json.dumps` so the output never diverges from the per-event
    encoder.  The bool test precedes the int test — bool subclasses int
    and must render as ``true``/``false``.
    """
    memo = _EXTRAS_MEMO
    try:
        blob = memo.get(pairs)
    except TypeError:  # unhashable value somewhere in the pairs
        return json.dumps(dict(pairs), separators=(",", ":")).encode()
    if blob is not None:
        return blob
    parts = []
    append = parts.append
    cache = _KEY_PREFIX
    for k, v in pairs:
        pre = cache.get(k)
        if pre is None:
            if (
                k in cache  # cached negative: non-identifier key
                or type(k) is not str
                or not k.isidentifier()
                or not k.isascii()
            ):
                cache[k] = None
                return json.dumps(dict(pairs), separators=(",", ":")).encode()
            pre = cache[k] = f'"{k}":'
        if v is True:
            append(pre + "true")
        elif v is False:
            append(pre + "false")
        elif type(v) is int:
            append(pre + str(v))
        else:
            return json.dumps(dict(pairs), separators=(",", ":")).encode()
    blob = ("{" + ",".join(parts) + "}").encode()
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[pairs] = blob
    return blob


class BinarySink(Sink):
    """Tracer sink writing the binary stream (with file header).

    Batched delivery encodes each entry and issues a single stream
    write per batch.  Nothing is held back between batches: the stream
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
        blob = encode_event(event)
        self._stream.write(blob)
        self._records += 1
        self._bytes_written += len(blob)

    def emit_tuples(self, entries: list) -> None:
        pack = _RECORD_L.pack
        blobs = []
        append = blobs.append
        for e in entries:
            if type(e) is not tuple:
                append(encode_event(e))
                continue
            (etype, cycle, dev, link, quad, vault, bank, stage,
             serial, pairs) = e
            if etype > 0x8000:
                etype = _pack_type(etype)
            extras = _extras_bytes(pairs) if pairs else b""
            # Locality fields are in byte range on every hot emit; the
            # except path re-packs with the out-of-range clamps.
            try:
                append(pack(RECORD_MAGIC, etype, cycle, dev, link, quad,
                            vault, bank, stage, serial, len(extras)))
            except error:
                append(pack(
                    RECORD_MAGIC,
                    etype,
                    cycle,
                    dev if -128 <= dev < 128 else -1,
                    link if -128 <= link < 128 else -1,
                    quad if -128 <= quad < 128 else -1,
                    vault,
                    bank,
                    stage if -128 <= stage < 128 else -1,
                    serial,
                    len(extras),
                ))
            if extras:
                append(extras)
        blob = b"".join(blobs)
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
