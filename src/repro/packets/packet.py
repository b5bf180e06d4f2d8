"""Packet objects and 64-bit header/tail bit packing.

HMC-Sim represents each packet as a sequence of 64-bit words: one header
word, two words per data FLIT, and one tail word — so a packet of *L*
FLITs occupies exactly ``2 * L`` words (each FLIT is 16 bytes = two
64-bit words; the header and tail each occupy half of the first/last
FLIT).  This module implements the bit-exact field layouts, the
:class:`Packet` convenience object used throughout the simulator, and the
``build_memrequest`` / ``build_response`` helpers mirroring the C API's
``hmcsim_build_memrequest``.

Field layouts (bit ranges are inclusive, LSB = bit 0)
-----------------------------------------------------

Request header::

    [5:0]   CMD     command
    [6]     RES
    [10:7]  LNG     packet length in FLITs (1..9)
    [14:11] DLN     duplicate of LNG (integrity check)
    [23:15] TAG     9-bit request tag
    [57:24] ADRS    34-bit physical address
    [60:58] RES
    [63:61] CUB     target cube id

Request tail::

    [7:0]   RRP     return retry pointer
    [15:8]  FRP     forward retry pointer
    [18:16] SEQ     3-bit sequence number
    [19]    Pb      poison bit
    [22:20] SLID    source link id
    [25:23] RES
    [30:26] RTC     return token count
    [31]    RES
    [63:32] CRC     CRC-32 over the packet with this field zeroed

Response header::

    [5:0]   CMD
    [6]     RES
    [10:7]  LNG
    [14:11] DLN
    [23:15] TAG     echoed request tag
    [38:24] RES
    [41:39] SLID    source link id the request arrived on
    [60:42] RES
    [63:61] CUB     responding cube id

Response tail::

    [7:0]   RRP
    [15:8]  FRP
    [18:16] SEQ
    [19]    DINV    data-invalid flag
    [26:20] ERRSTAT error status code
    [30:27] RTC
    [31]    RES
    [63:32] CRC
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.packets import crc as _crc
from repro.packets.commands import (
    CMD,
    CommandClass,
    command_class,
    expects_response,
    is_response,
    request_flits,
    response_cmd_for,
    response_flits,
)
from repro.packets.flit import MAX_FLITS, MIN_FLITS

_MASK64 = (1 << 64) - 1

# ---------------------------------------------------------------------------
# Field masks / shifts.
# ---------------------------------------------------------------------------

CMD_SHIFT, CMD_BITS = 0, 6
LNG_SHIFT, LNG_BITS = 7, 4
DLN_SHIFT, DLN_BITS = 11, 4
TAG_SHIFT, TAG_BITS = 15, 9
ADRS_SHIFT, ADRS_BITS = 24, 34
CUB_SHIFT, CUB_BITS = 61, 3
RSP_SLID_SHIFT, RSP_SLID_BITS = 39, 3

RRP_SHIFT, RRP_BITS = 0, 8
FRP_SHIFT, FRP_BITS = 8, 8
SEQ_SHIFT, SEQ_BITS = 16, 3
PB_SHIFT, PB_BITS = 19, 1
SLID_SHIFT, SLID_BITS = 20, 3
RTC_SHIFT, RTC_BITS = 26, 5
DINV_SHIFT, DINV_BITS = 19, 1
ERRSTAT_SHIFT, ERRSTAT_BITS = 20, 7
RSP_RTC_SHIFT, RSP_RTC_BITS = 27, 4
CRC_SHIFT, CRC_BITS = 32, 32

#: Maximum encodable tag value (9-bit field).
MAX_TAG = (1 << TAG_BITS) - 1

#: Maximum encodable physical address (34-bit field).
MAX_ADRS = (1 << ADRS_BITS) - 1

#: Maximum encodable cube id (3-bit field).
MAX_CUB = (1 << CUB_BITS) - 1


def _get(word: int, shift: int, bits: int) -> int:
    return (word >> shift) & ((1 << bits) - 1)


def _put(value: int, shift: int, bits: int, name: str) -> int:
    if not 0 <= value < (1 << bits):
        raise ValueError(f"{name} out of range for {bits}-bit field: {value}")
    return (value & ((1 << bits) - 1)) << shift


class ErrStat(enum.IntEnum):
    """ERRSTAT codes carried in response tails.

    The 1.0 specification reserves the 7-bit ERRSTAT field for
    implementation-defined error reporting; HMC-Sim uses it to signal
    routing and protocol failures back to deliberately misconfigured
    hosts (paper §IV.2).
    """

    OK = 0x00
    #: Address decodes outside the device capacity.
    INVALID_ADDRESS = 0x01
    #: Unknown / illegal command encoding.
    INVALID_CMD = 0x02
    #: LNG does not match DLN or the actual FLIT count.
    INVALID_LENGTH = 0x03
    #: Tail CRC mismatch.
    CRC_FAIL = 0x04
    #: No route exists from the ingress link to the destination cube.
    UNROUTABLE = 0x05
    #: Packet aged out of a queue (zombie protection).
    QUEUE_TIMEOUT = 0x06
    #: Vault-level critical error.
    VAULT_CRITICAL = 0x60
    #: Device-level critical error.
    DEVICE_CRITICAL = 0x70


class PacketDecodeError(ValueError):
    """Raised when a word sequence cannot be decoded into a packet."""


# ---------------------------------------------------------------------------
# Header / tail packing.
# ---------------------------------------------------------------------------


def encode_request_header(cmd: CMD, cub: int, tag: int, addr: int, lng: int) -> int:
    """Pack a request header word."""
    if not MIN_FLITS <= lng <= MAX_FLITS:
        raise ValueError(f"LNG must be {MIN_FLITS}..{MAX_FLITS}, got {lng}")
    word = 0
    word |= _put(int(CMD(cmd)), CMD_SHIFT, CMD_BITS, "CMD")
    word |= _put(lng, LNG_SHIFT, LNG_BITS, "LNG")
    word |= _put(lng, DLN_SHIFT, DLN_BITS, "DLN")
    word |= _put(tag, TAG_SHIFT, TAG_BITS, "TAG")
    word |= _put(addr, ADRS_SHIFT, ADRS_BITS, "ADRS")
    word |= _put(cub, CUB_SHIFT, CUB_BITS, "CUB")
    return word


def encode_request_tail(
    rrp: int = 0,
    frp: int = 0,
    seq: int = 0,
    pb: int = 0,
    slid: int = 0,
    rtc: int = 0,
    crc: int = 0,
) -> int:
    """Pack a request tail word."""
    word = 0
    word |= _put(rrp, RRP_SHIFT, RRP_BITS, "RRP")
    word |= _put(frp, FRP_SHIFT, FRP_BITS, "FRP")
    word |= _put(seq, SEQ_SHIFT, SEQ_BITS, "SEQ")
    word |= _put(pb, PB_SHIFT, PB_BITS, "Pb")
    word |= _put(slid, SLID_SHIFT, SLID_BITS, "SLID")
    word |= _put(rtc, RTC_SHIFT, RTC_BITS, "RTC")
    word |= _put(crc, CRC_SHIFT, CRC_BITS, "CRC")
    return word


def encode_response_header(cmd: CMD, cub: int, tag: int, slid: int, lng: int) -> int:
    """Pack a response header word."""
    if not MIN_FLITS <= lng <= MAX_FLITS:
        raise ValueError(f"LNG must be {MIN_FLITS}..{MAX_FLITS}, got {lng}")
    word = 0
    word |= _put(int(CMD(cmd)), CMD_SHIFT, CMD_BITS, "CMD")
    word |= _put(lng, LNG_SHIFT, LNG_BITS, "LNG")
    word |= _put(lng, DLN_SHIFT, DLN_BITS, "DLN")
    word |= _put(tag, TAG_SHIFT, TAG_BITS, "TAG")
    word |= _put(slid, RSP_SLID_SHIFT, RSP_SLID_BITS, "SLID")
    word |= _put(cub, CUB_SHIFT, CUB_BITS, "CUB")
    return word


def encode_response_tail(
    rrp: int = 0,
    frp: int = 0,
    seq: int = 0,
    dinv: int = 0,
    errstat: int = 0,
    rtc: int = 0,
    crc: int = 0,
) -> int:
    """Pack a response tail word."""
    word = 0
    word |= _put(rrp, RRP_SHIFT, RRP_BITS, "RRP")
    word |= _put(frp, FRP_SHIFT, FRP_BITS, "FRP")
    word |= _put(seq, SEQ_SHIFT, SEQ_BITS, "SEQ")
    word |= _put(dinv, DINV_SHIFT, DINV_BITS, "DINV")
    word |= _put(int(errstat), ERRSTAT_SHIFT, ERRSTAT_BITS, "ERRSTAT")
    word |= _put(rtc, RSP_RTC_SHIFT, RSP_RTC_BITS, "RTC")
    word |= _put(crc, CRC_SHIFT, CRC_BITS, "CRC")
    return word


def decode_header(word: int) -> dict:
    """Decode a header word into its fields.

    The CMD field determines whether the request or response layout
    applies; both interpretations share CMD/LNG/DLN/TAG/CUB.
    """
    word &= _MASK64
    raw_cmd = _get(word, CMD_SHIFT, CMD_BITS)
    try:
        cmd = CMD(raw_cmd)
    except ValueError as exc:
        raise PacketDecodeError(f"unknown CMD encoding 0x{raw_cmd:02x}") from exc
    fields = {
        "cmd": cmd,
        "lng": _get(word, LNG_SHIFT, LNG_BITS),
        "dln": _get(word, DLN_SHIFT, DLN_BITS),
        "tag": _get(word, TAG_SHIFT, TAG_BITS),
        "cub": _get(word, CUB_SHIFT, CUB_BITS),
    }
    if is_response(cmd):
        fields["slid"] = _get(word, RSP_SLID_SHIFT, RSP_SLID_BITS)
        fields["addr"] = 0
    else:
        fields["addr"] = _get(word, ADRS_SHIFT, ADRS_BITS)
    return fields


def decode_tail(word: int, response: bool) -> dict:
    """Decode a tail word (request layout unless *response* is true)."""
    word &= _MASK64
    fields = {
        "rrp": _get(word, RRP_SHIFT, RRP_BITS),
        "frp": _get(word, FRP_SHIFT, FRP_BITS),
        "seq": _get(word, SEQ_SHIFT, SEQ_BITS),
        "crc": _get(word, CRC_SHIFT, CRC_BITS),
    }
    if response:
        fields["dinv"] = _get(word, DINV_SHIFT, DINV_BITS)
        fields["errstat"] = _get(word, ERRSTAT_SHIFT, ERRSTAT_BITS)
        fields["rtc"] = _get(word, RSP_RTC_SHIFT, RSP_RTC_BITS)
    else:
        fields["pb"] = _get(word, PB_SHIFT, PB_BITS)
        fields["slid"] = _get(word, SLID_SHIFT, SLID_BITS)
        fields["rtc"] = _get(word, RTC_SHIFT, RTC_BITS)
    return fields


# ---------------------------------------------------------------------------
# The Packet object.
# ---------------------------------------------------------------------------

_packet_serial = itertools.count()

#: Per-command classification cache: CMD -> (cls, is_response,
#: expects_response, is_special, request_flits).  Commands are a small
#: closed set; caching skips four table lookups per packet construction.
_CLASS_CACHE: dict = {}


def _class_info(cmd: CMD):
    """Classification tuple for *cmd*, computed once per command."""
    info = _CLASS_CACHE.get(cmd)
    if info is None:
        cls = command_class(cmd)
        is_rsp = cls is CommandClass.RESPONSE
        info = (
            cls,
            is_rsp,
            expects_response(cmd),
            cls in (CommandClass.FLOW, CommandClass.MODE_READ,
                    CommandClass.MODE_WRITE),
            None if is_rsp else request_flits(cmd),
        )
        _CLASS_CACHE[cmd] = info
    return info


@dataclass(slots=True)
class Packet:
    """A single HMC packet plus simulator-side bookkeeping.

    Wire-visible state lives in the explicit fields; encode/decode
    round-trips exactly through :meth:`encode` / :meth:`decode`.
    Simulation metadata (timestamps, hop counts, ingress link) is carried
    alongside but never serialised.  Slotted (like ``PacketQueue`` and
    ``Vault``): packets are the highest-volume allocation in a run and
    the classification shortcuts below are read on every sub-cycle stage.
    """

    cmd: CMD
    cub: int = 0
    tag: int = 0
    addr: int = 0
    #: Data payload as 64-bit words; two words per data FLIT.
    payload: Tuple[int, ...] = ()
    #: Source link id (request SLID / response SLID).
    slid: int = 0
    seq: int = 0
    rrp: int = 0
    frp: int = 0
    rtc: int = 0
    pb: int = 0
    dinv: int = 0
    errstat: ErrStat = ErrStat.OK

    # --- simulator-side metadata (not on the wire) ---
    #: Monotonic id for deterministic ordering / debugging.
    serial: int = field(default_factory=lambda: next(_packet_serial))
    #: Cycle the host injected the packet (set by the simulator).
    injected_at: int = -1
    #: Cycle the packet completed vault processing / was delivered.
    completed_at: int = -1
    #: Device-to-device hops taken so far.
    hops: int = 0
    #: Link the packet most recently arrived on (local link id).
    ingress_link: int = -1
    #: Source cube id (num_devices + 1 encodes the host, paper §V.B).
    src_cub: int = 0
    #: Ingress record stack for chained routing: (dev_id, link_id) pairs
    #: pushed as a request hops device-to-device; the response pops them
    #: to retrace the path back to the host (simulator metadata).
    route_stack: List[Tuple[int, int]] = field(default_factory=list)
    #: Set by ``HMCSim.recv``: the (dev, link) host connection this
    #: response was delivered on — the tag's correlation domain.
    delivered_from: Optional[Tuple[int, int]] = None
    #: Cached vault / bank decode of ``addr`` on the packet's home
    #: device, set lazily by the crossbar and vault stages (-1 = not yet
    #: decoded).  All devices share one address map, so the decode is
    #: route-invariant and never needs re-deriving per stage.
    dec_vault: int = field(init=False, default=-1, repr=False, compare=False)
    dec_bank: int = field(init=False, default=-1, repr=False, compare=False)

    # --- classification shortcuts, cached at construction (command and
    # --- payload length are immutable afterwards); plain slots so the
    # --- hot stages read attributes instead of calling properties.
    cls: CommandClass = field(init=False, repr=False, compare=False)
    is_response: bool = field(init=False, repr=False, compare=False)
    expects_response: bool = field(init=False, repr=False, compare=False)
    #: FLOW or MODE command — serviced by the vault issue logic without
    #: touching a bank (the queue keeps a count for scheduling shortcuts).
    is_special: bool = field(init=False, repr=False, compare=False)
    num_flits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cmd = self.cmd
        if cmd.__class__ is not CMD:
            cmd = CMD(cmd)
            self.cmd = cmd
        payload = self.payload
        self.payload = payload = tuple([int(w) & _MASK64 for w in payload]) if payload else ()
        info = _class_info(cmd)
        self.cls, self.is_response, self.expects_response, self.is_special, req_flits = info
        if self.is_response:
            expected = 1 + len(payload) // 2 if payload else 1
        else:
            expected = req_flits
        self.num_flits = expected
        have = 1 + len(self.payload) // 2
        if len(self.payload) % 2 != 0:
            raise ValueError("payload must be whole FLITs (even 64-bit word count)")
        if have != expected:
            raise ValueError(
                f"{self.cmd.name} requires {expected} FLITs "
                f"({(expected - 1) * 2} payload words), got {len(self.payload)}"
            )
        if not 0 <= self.tag <= MAX_TAG:
            raise ValueError(f"tag out of range: {self.tag}")
        if not 0 <= self.addr <= MAX_ADRS:
            raise ValueError(f"address out of range: {self.addr:#x}")
        if not 0 <= self.cub <= MAX_CUB:
            raise ValueError(f"cube id out of range: {self.cub}")

    @property
    def is_request(self) -> bool:
        return not self.is_response

    @property
    def data_bytes(self) -> int:
        """Bytes of data carried in the payload FLITs."""
        return len(self.payload) * 8

    # -- wire encode / decode ----------------------------------------------

    def encode(self) -> List[int]:
        """Serialise to 64-bit words: ``[header, *payload, tail]``.

        The tail CRC is computed over all preceding words plus the tail
        with its CRC field zeroed.
        """
        lng = self.num_flits
        if self.is_response:
            header = encode_response_header(self.cmd, self.cub, self.tag, self.slid, lng)
            tail = encode_response_tail(
                rrp=self.rrp,
                frp=self.frp,
                seq=self.seq,
                dinv=self.dinv,
                errstat=int(self.errstat),
                rtc=self.rtc,
                crc=0,
            )
        else:
            header = encode_request_header(self.cmd, self.cub, self.tag, self.addr, lng)
            tail = encode_request_tail(
                rrp=self.rrp,
                frp=self.frp,
                seq=self.seq,
                pb=self.pb,
                slid=self.slid,
                rtc=self.rtc,
                crc=0,
            )
        words = [header, *self.payload, tail]
        checksum = _crc.crc_words(words)
        words[-1] = tail | _put(checksum, CRC_SHIFT, CRC_BITS, "CRC")
        return words

    @classmethod
    def decode(cls, words: Sequence[int], check_crc: bool = True) -> "Packet":
        """Reconstruct a packet from its 64-bit word sequence.

        Validates word count, LNG == DLN, LNG against the actual FLIT
        count, and (optionally) the tail CRC.  Raises
        :class:`PacketDecodeError` on any structural violation.
        """
        words = [int(w) & _MASK64 for w in words]
        if len(words) < 2 or len(words) % 2 != 0:
            raise PacketDecodeError(
                f"packet must be an even word count >= 2, got {len(words)}"
            )
        head = decode_header(words[0])
        response = is_response(head["cmd"])
        tail = decode_tail(words[-1], response=response)
        actual_flits = len(words) // 2
        if head["lng"] != head["dln"]:
            raise PacketDecodeError(
                f"LNG ({head['lng']}) != DLN ({head['dln']})"
            )
        if head["lng"] != actual_flits:
            raise PacketDecodeError(
                f"LNG ({head['lng']}) != actual FLIT count ({actual_flits})"
            )
        if check_crc:
            zeroed = list(words)
            zeroed[-1] &= ~(((1 << CRC_BITS) - 1) << CRC_SHIFT) & _MASK64
            if _crc.crc_words(zeroed) != tail["crc"]:
                raise PacketDecodeError("tail CRC mismatch")
        payload = tuple(words[1:-1])
        if response:
            return cls(
                cmd=head["cmd"],
                cub=head["cub"],
                tag=head["tag"],
                slid=head["slid"],
                payload=payload,
                rrp=tail["rrp"],
                frp=tail["frp"],
                seq=tail["seq"],
                dinv=tail["dinv"],
                errstat=ErrStat(tail["errstat"]),
                rtc=tail["rtc"],
            )
        return cls(
            cmd=head["cmd"],
            cub=head["cub"],
            tag=head["tag"],
            addr=head["addr"],
            payload=payload,
            rrp=tail["rrp"],
            frp=tail["frp"],
            seq=tail["seq"],
            pb=tail["pb"],
            slid=tail["slid"],
            rtc=tail["rtc"],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "rsp" if self.is_response else "req"
        return (
            f"Packet({self.cmd.name}, {kind}, cub={self.cub}, tag={self.tag}, "
            f"addr={self.addr:#x}, flits={self.num_flits}, serial={self.serial})"
        )


# ---------------------------------------------------------------------------
# Builders (mirror hmcsim_build_memrequest / response generation).
# ---------------------------------------------------------------------------

_ERRSTAT_OK = ErrStat.OK

#: Exact-length zero payloads, shared: request/response FLIT counts are
#: bounded by MAX_FLITS (9 FLITs = 16 payload words).
_ZERO_WORDS = {n: (0,) * n for n in range(0, (MAX_FLITS - 1) * 2 + 1, 2)}

#: Request-layout cache: cmd -> (CMD, payload word count, class info).
_REQ_CACHE: dict = {}

#: Response layout: request CMD -> (response CMD, payload word count,
#: class info), for exactly the commands that expect a response — so a
#: hit implies the expects_response check passed, and a caller holding
#: such a request (the vault's reply path) may index it directly.
_RSP_CACHE: dict = {
    cmd: (
        response_cmd_for(cmd),
        (response_flits(cmd) - 1) * 2,
        _class_info(response_cmd_for(cmd)),
    )
    for cmd in CMD
    if expects_response(cmd)
}


def _fast_new(
    cmd: CMD,
    cub: int,
    tag: int,
    addr: int,
    payload: Tuple[int, ...],
    slid: int,
    dinv: int,
    info,
) -> Packet:
    """Trusted constructor for the request→response round trip.

    Bypasses ``__post_init__``: callers guarantee *cmd* is a CMD member,
    *payload* is a masked tuple of exactly the command's word count, and
    tag/addr/cub ranges were validated when the originating request was
    built.  Every slot is assigned explicitly.
    """
    p = Packet.__new__(Packet)
    p.cmd = cmd
    p.cub = cub
    p.tag = tag
    p.addr = addr
    p.payload = payload
    p.slid = slid
    p.seq = 0
    p.rrp = 0
    p.frp = 0
    p.rtc = 0
    p.pb = 0
    p.dinv = dinv
    p.errstat = _ERRSTAT_OK
    p.serial = next(_packet_serial)
    p.injected_at = -1
    p.completed_at = -1
    p.hops = 0
    p.ingress_link = -1
    p.src_cub = 0
    p.route_stack = []
    p.delivered_from = None
    p.dec_vault = -1
    p.dec_bank = -1
    p.cls, p.is_response, p.expects_response, p.is_special, _ = info
    p.num_flits = 1 + len(payload) // 2
    return p


def build_memrequest(
    cub: int,
    addr: int,
    tag: int,
    cmd: CMD,
    payload: Optional[Sequence[int]] = None,
    link: int = 0,
) -> Packet:
    """Build a fully formed, compliant request packet.

    Mirrors the C library's ``hmcsim_build_memrequest`` (Fig. 4): the
    caller supplies target cube, physical address, tag, command and — for
    write/atomic commands — the data payload as 64-bit words.  For
    commands that carry data, the payload is zero-filled or truncated to
    the exact FLIT count the command requires, matching the C behaviour
    of reading a caller buffer of the prescribed length.
    """
    info = _REQ_CACHE.get(cmd)
    if info is None:
        if cmd.__class__ is not CMD:
            cmd = CMD(cmd)
        if is_response(cmd):
            raise ValueError(f"{cmd.name} is a response command")
        need_words = (request_flits(cmd) - 1) * 2
        info = (cmd, need_words, _class_info(cmd))
        _REQ_CACHE[cmd] = info
    cmd, need_words, cls_info = info
    if payload:
        words = [int(w) & _MASK64 for w in payload]
        if len(words) < need_words:
            words += [0] * (need_words - len(words))
        payload = tuple(words[:need_words])
    else:
        payload = _ZERO_WORDS[need_words]
    if not 0 <= tag <= MAX_TAG:
        raise ValueError(f"tag out of range: {tag}")
    if not 0 <= addr <= MAX_ADRS:
        raise ValueError(f"address out of range: {addr:#x}")
    if not 0 <= cub <= MAX_CUB:
        raise ValueError(f"cube id out of range: {cub}")
    return _fast_new(cmd, cub, tag, addr, payload, link, 0, cls_info)


def build_response(
    request: Packet,
    data: Optional[Sequence[int]] = None,
    errstat: ErrStat = ErrStat.OK,
    dinv: int = 0,
) -> Packet:
    """Build the response packet for *request*.

    On error (``errstat != OK``) an ERROR response (single FLIT, no data)
    is produced, matching the paper's error-response behaviour for
    misrouted or malformed packets.  Posted requests never yield a
    response; asking for one raises :class:`ValueError`.
    """
    if errstat is not ErrStat.OK:
        # Error responses never carry valid data.
        rsp = Packet(
            cmd=CMD.ERROR,
            cub=request.cub,
            tag=request.tag,
            slid=request.slid,
            errstat=errstat,
            dinv=1,
        )
        rsp.src_cub = request.cub
        return rsp
    info = _RSP_CACHE.get(request.cmd)
    if info is None:
        raise ValueError(f"{request.cmd.name} does not expect a response")
    rsp_cmd, need_words, cls_info = info
    if data:
        words = [int(w) & _MASK64 for w in data]
        if len(words) < need_words:
            words += [0] * (need_words - len(words))
        payload = tuple(words[:need_words])
    else:
        payload = _ZERO_WORDS[need_words]
    rsp = _fast_new(
        rsp_cmd, request.cub, request.tag, 0, payload, request.slid, dinv, cls_info
    )
    rsp.src_cub = request.cub
    return rsp
