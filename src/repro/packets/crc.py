"""Packet-tail CRC-32.

The HMC specification protects every packet with a 32-bit CRC carried in
the upper half of the tail word.  The paper cites Koopman & Chakravarty's
CRC polynomial-selection study (ref. [29]); we use the Koopman CRC-32K
polynomial 0x741B8CD7 (normal form), which that work recommends for
embedded-network payload sizes, implemented as a table-driven,
non-reflected CRC with zero init and zero xor-out.

The exact polynomial choice is irrelevant to simulation *behaviour* (any
deterministic 32-bit checksum gives identical stall / routing dynamics);
what matters is that corrupted packets are detectable, which the tests
exercise.
"""

from __future__ import annotations

from typing import Iterable, List

#: Koopman CRC-32K generator polynomial (normal / MSB-first form).
POLY: int = 0x741B8CD7

_MASK32 = 0xFFFFFFFF


def _build_table(poly: int) -> List[int]:
    table = []
    for byte in range(256):
        crc = byte << 24
        for _ in range(8):
            if crc & 0x80000000:
                crc = ((crc << 1) ^ poly) & _MASK32
            else:
                crc = (crc << 1) & _MASK32
        table.append(crc)
    return table


_TABLE = _build_table(POLY)


def crc32_koopman(data: bytes | bytearray | memoryview, init: int = 0) -> int:
    """CRC-32K of *data* (MSB-first, init=0, no final xor).

    >>> crc32_koopman(b"") == 0
    True
    """
    crc = init & _MASK32
    for b in bytes(data):
        crc = ((crc << 8) & _MASK32) ^ _TABLE[((crc >> 24) ^ b) & 0xFF]
    return crc


def crc_words(words: Iterable[int]) -> int:
    """CRC over a sequence of 64-bit little-endian words.

    Packets are stored as 64-bit word pairs per FLIT; this helper
    serialises them deterministically before checksumming.  The tail word
    itself must be excluded (or have its CRC field zeroed) by the caller.
    """
    buf = bytearray()
    for w in words:
        buf += int(w).to_bytes(8, "little")
    return crc32_koopman(buf)


def verify(words: Iterable[int], expected: int) -> bool:
    """True iff the CRC of *words* equals *expected*."""
    return crc_words(words) == (expected & _MASK32)
