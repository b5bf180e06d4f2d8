"""Packetized transaction protocol for HMC devices.

Everything that crosses an HMC link is a packet built from 16-byte FLITs
(flow units).  This subpackage implements the full HMC 1.0 packet model
used by the simulator:

* :mod:`repro.packets.commands` — the complete request / response /
  flow-control command set with FLIT-length rules;
* :mod:`repro.packets.flit` — FLIT arithmetic (payload sizing, packet
  length validation);
* :mod:`repro.packets.crc` — the CRC-32 used in packet tails (Koopman
  polynomial, paper ref. [29]);
* :mod:`repro.packets.packet` — 64-bit header/tail bit packing and the
  high-level :class:`~repro.packets.packet.Packet` object with build /
  encode / decode helpers for every legal FLIT count;
* :mod:`repro.packets.flow` — the host links' token credits
  (:class:`~repro.packets.flow.LinkTokens`) and the retry-pointer state
  the in-band link gate stamps.
"""

from repro.packets.commands import (
    CMD,
    CommandClass,
    command_class,
    is_posted,
    is_read,
    is_request,
    is_response,
    is_write,
    request_flits,
    response_flits,
)
from repro.packets.crc import crc32_koopman
from repro.packets.flit import FLIT_BYTES, MAX_FLITS, flits_for_payload, payload_bytes
from repro.packets.packet import (
    Packet,
    PacketDecodeError,
    build_memrequest,
    build_response,
    decode_header,
    decode_tail,
)

__all__ = [
    "CMD",
    "CommandClass",
    "FLIT_BYTES",
    "MAX_FLITS",
    "Packet",
    "PacketDecodeError",
    "build_memrequest",
    "build_response",
    "command_class",
    "crc32_koopman",
    "decode_header",
    "decode_tail",
    "flits_for_payload",
    "is_posted",
    "is_read",
    "is_request",
    "is_response",
    "is_write",
    "payload_bytes",
    "request_flits",
    "response_flits",
]
