"""The oracle of the C trace encoder and fold: the trace path in Python,
as it stood before ``_tracecodec.c``.

:func:`encode_event` and :class:`ReferenceBinarySink` are the binary
encoders that ``BinarySink.emit`` and ``BinarySink.emit_tuples`` used
(the batch encoder without its whole-blob memo, which mixed up
equal-hashing values such as ``True`` and ``1``);
:class:`ReferenceStats` is :class:`~repro.trace.stats.TraceStats` with
its ``add`` / ``add_batch`` folds.  The engine's encoder and fold — C,
``repro/trace/_tracecodec.c`` — must write the same bytes and leave the
same counters as these (tests/test_trace_codec_reference.py).  Out of
range fields raised ``struct.error`` here; the C raises
``BinaryTraceError``.
"""

from __future__ import annotations

import json
import struct
from collections import Counter
from struct import error

from repro.trace.binfmt import (
    _FILE_HEADER,
    RECORD_MAGIC,
    BinaryTraceError,
    _pack_type,
    write_file_header,
)
from repro.trace.events import TraceEvent
from repro.trace.stats import TraceStats

_RECORD = struct.Struct("<HHQbbbhhbq")
_RECORD_L = struct.Struct("<HHQbbbhhbqH")


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


def _extras_bytes(pairs: tuple) -> bytes:
    """JSON-encode extras pairs, byte-identical to ``json.dumps(dict)``
    for pairs with distinct keys."""
    parts = []
    for k, v in pairs:
        if type(k) is not str or not k.isidentifier() or not k.isascii():
            return json.dumps(dict(pairs), separators=(",", ":")).encode()
        pre = f'"{k}":'
        if v is True:
            parts.append(pre + "true")
        elif v is False:
            parts.append(pre + "false")
        elif type(v) is int:
            parts.append(pre + str(v))
        else:
            return json.dumps(dict(pairs), separators=(",", ":")).encode()
    return ("{" + ",".join(parts) + "}").encode()


class ReferenceBinarySink:
    """``BinarySink``'s header and batched ``emit_tuples``."""

    def __init__(self, stream, num_vaults: int) -> None:
        self._stream = stream
        write_file_header(stream, num_vaults)
        self.records = 0
        self.bytes_written = _FILE_HEADER.size

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
        self.records += len(entries)
        self.bytes_written += len(blob)


class ReferenceStats(TraceStats):
    """``TraceStats`` with the Python ``add`` and ``add_batch``."""

    def add(self, event: TraceEvent) -> None:
        self._events_seen += 1
        t = event.type.value
        totals = self._totals
        totals[t] = totals.get(t, 0) + 1
        c = event.cycle
        if c < 0:
            return
        if c >= self._cap:
            self._grow(c)
        if c > self._max_cycle:
            self._max_cycle = c
        g = self._global.get(t)
        if g is not None:
            g[c] += 1
            return
        v = self._vault.get(t)
        if v is not None and 0 <= event.vault < self.num_vaults:
            v[c, event.vault] += 1

    def add_batch(self, entries: list) -> None:
        self._events_seen += len(entries)
        try:
            cnt = Counter((e[0], e[1], e[5]) for e in entries)
        except TypeError:
            cnt = Counter()
            for e in entries:
                if type(e) is tuple:
                    cnt[(e[0], e[1], e[5])] += 1
                else:
                    cnt[(e.type.value, e.cycle, e.vault)] += 1
        totals = self._totals
        glob = self._global
        vlt = self._vault
        num_vaults = self.num_vaults
        mx = self._max_cycle
        for (t, c, _vault), n in cnt.items():
            totals[t] = totals.get(t, 0) + n
            if c > mx:
                mx = c
        if mx >= self._cap:
            self._grow(mx)
        self._max_cycle = mx
        for (t, c, vault), n in cnt.items():
            if c < 0:
                continue
            g = glob.get(t)
            if g is not None:
                g[c] += n
                continue
            v = vlt.get(t)
            if v is not None and 0 <= vault < num_vaults:
                v[c, vault] += n
