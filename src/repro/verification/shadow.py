"""Shadow memory model and the self-checking host wrapper.

:class:`ShadowMemory` is a functional (zero-latency) golden model of one
cube's storage with the same 16-byte-atom semantics as the banks.
:class:`CheckingHost` is a :class:`~repro.host.host.Host`: every
write/atomic updates the shadow at send time, and every read response is
compared word-for-word against the shadow at receipt.

Soundness note: comparison at send time is exact because the simulator
preserves per-(link, bank) stream order and the host issues at most one
outstanding access per address from the checking API; the property tests
drive it with address-disjoint concurrency or serialised same-address
accesses accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.simulator import HMCSim
from repro.host.host import Host, LinkPolicy
from repro.packets.commands import (
    CMD,
    REQUEST_DATA_BYTES,
    CommandClass,
    command_class,
    is_posted,
)
from repro.packets.packet import ErrStat, Packet

_MASK64 = (1 << 64) - 1


class CheckFailure(AssertionError):
    """A read response disagreed with the golden model."""


class ShadowMemory:
    """Golden functional model of one cube's data storage."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0 or capacity_bytes % 16:
            raise ValueError("capacity must be a positive multiple of 16")
        self.capacity_bytes = capacity_bytes
        self._atoms: Dict[int, Tuple[int, int]] = {}

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr % 16 or nbytes % 16 or nbytes <= 0:
            raise ValueError(f"unaligned shadow access {addr:#x}+{nbytes}")
        if addr + nbytes > self.capacity_bytes:
            raise ValueError(f"shadow access {addr:#x}+{nbytes} out of range")

    def write(self, addr: int, words: Sequence[int]) -> None:
        self._check(addr, len(words) * 8)
        atom0 = addr // 16
        for i in range(len(words) // 2):
            self._atoms[atom0 + i] = (
                int(words[2 * i]) & _MASK64,
                int(words[2 * i + 1]) & _MASK64,
            )

    def read(self, addr: int, nbytes: int) -> List[int]:
        self._check(addr, nbytes)
        out: List[int] = []
        atom0 = addr // 16
        for i in range(nbytes // 16):
            w0, w1 = self._atoms.get(atom0 + i, (0, 0))
            out += [w0, w1]
        return out

    def add16(self, addr: int, operands: Sequence[int]) -> List[int]:
        """Golden ADD16 / TWOADD8: returns the old value."""
        old = self.read(addr, 16)
        self.write(addr, [
            (old[0] + int(operands[0])) & _MASK64,
            (old[1] + int(operands[1])) & _MASK64,
        ])
        return old


@dataclass
class CheckStats:
    """Verification counters."""

    writes_shadowed: int = 0
    atomics_shadowed: int = 0
    reads_checked: int = 0
    mismatches: int = 0


class CheckingHost(Host):
    """A host whose every read is verified against a shadow model.

    A :class:`Host` for single-cube traffic: :meth:`send_request` updates
    or arms the shadow after the send, and :meth:`drain_responses`
    checks each response after the host's own bookkeeping.  A data
    mismatch, an error response or a response with an unknown tag raises
    :class:`CheckFailure` immediately (or is counted in
    ``stats.mismatches`` when ``raise_on_mismatch`` is False).
    """

    def __init__(
        self,
        sim: HMCSim,
        cub: int = 0,
        raise_on_mismatch: bool = True,
    ) -> None:
        # The HMC ordering model only preserves link->bank streams, so a
        # read may legally overtake a same-address write issued on a
        # different link.  The checker therefore needs address-
        # deterministic link selection; the locality policy provides it
        # (a given address always maps to the same co-located link).
        super().__init__(sim, policy=LinkPolicy.LOCALITY)
        self.cub = cub
        self.shadow = ShadowMemory(sim.config.device.capacity_bytes)
        self.raise_on_mismatch = raise_on_mismatch
        self.stats = CheckStats()
        #: (dev, link, tag) of each tagged request in flight -> what its
        #: response must carry: None (no data), ``(addr, nbytes)`` (a
        #: read: the shadow at receipt) or ``(addr, 16, old)`` (an
        #: atomic's old value).
        self._expected: Dict[Tuple[int, int, int], Optional[tuple]] = {}

    # -- issue -------------------------------------------------------------

    def send_request(
        self,
        cmd: CMD,
        addr: int,
        cub: Optional[int] = None,
        payload: Optional[Sequence[int]] = None,
    ) -> Optional[int]:
        """Issue a request (to ``self.cub`` unless *cub* is given) and
        update / arm the shadow accordingly."""
        cmd = CMD(cmd)
        tag = super().send_request(
            cmd, addr, cub=self.cub if cub is None else cub, payload=payload
        )
        if tag is None:
            return None
        cls = command_class(cmd)
        expected = None
        if cls in (CommandClass.WRITE, CommandClass.POSTED_WRITE):
            nbytes = REQUEST_DATA_BYTES[cmd]
            words = list(payload or [])
            words += [0] * (nbytes // 8 - len(words))
            self.shadow.write(addr, words[: nbytes // 8])
            self.stats.writes_shadowed += 1
        elif cls in (CommandClass.ATOMIC, CommandClass.POSTED_ATOMIC):
            ops = list(payload or [0, 0])[:2] + [0, 0]
            expected = (addr, 16, self.shadow.add16(addr, ops[:2]))
            self.stats.atomics_shadowed += 1
        elif cls is CommandClass.READ:
            expected = (addr, REQUEST_DATA_BYTES[cmd])
        if not is_posted(cmd):
            self._expected[self.last_send] = expected
        return tag

    # -- receive + check -----------------------------------------------------

    def drain_responses(self) -> List[Packet]:
        """Drain as :meth:`Host.drain_responses` does, then verify each
        response: its tag, its status and its data against the shadow."""
        responses = super().drain_responses()
        for rsp in responses:
            key = (*rsp.delivered_from, rsp.tag)
            if key not in self._expected:
                self._fail(f"response with unknown tag {rsp.tag}")
                continue
            expected = self._expected.pop(key)
            if rsp.errstat is not ErrStat.OK:
                self._fail(f"error response {rsp.errstat} for tag {rsp.tag}")
                continue
            if expected is None:
                continue  # write response
            if len(expected) == 3:
                want = list(expected[2])  # atomic: old value
            else:
                want = self.shadow.read(*expected)
            got = list(rsp.payload)
            self.stats.reads_checked += 1
            if got != want:
                self._fail(
                    f"data mismatch at {expected[0]:#x}: expected {want[:4]}..., "
                    f"got {got[:4]}..."
                )
        return responses

    def _fail(self, message: str) -> None:
        self.stats.mismatches += 1
        if self.raise_on_mismatch:
            raise CheckFailure(message)

    # -- drive loop ---------------------------------------------------------------

    def run(self, requests, max_cycles: int = 1_000_000) -> CheckStats:
        """Drive a request stream to ``self.cub`` with :meth:`Host.run`,
        checking continuously; returns the verification counters."""
        super().run(requests, cub=self.cub, max_cycles=max_cycles)
        return self.stats
