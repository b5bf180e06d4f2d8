"""Multi-object / multi-channel host model (paper §IV.A, §V.C).

"An application may contain more than one HMC-Sim object in order to
simulate architectural characteristics such as non-uniform memory
access" (§IV.A), and the clock-domain section adds that one can
"connect multiple HMC-Sim devices or objects to single host and operate
them completely independently.  This is analogous to the current system
on chip methodology of utilizing multiple memory channels per socket"
(§V.C).

:class:`MultiChannelHost` implements that architecture: it owns several
independent :class:`~repro.core.simulator.HMCSim` objects (channels),
interleaves a flat physical address space across them, drives each
channel through its own :class:`~repro.host.host.Host`, and clocks the
channels either in lock-step or with per-channel frequency ratios —
the "rudimentary clock domains" of §V.C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import InitError
from repro.core.simulator import HMCSim
from repro.host.host import _END, Host, HostRunResult, LinkPolicy
from repro.packets.commands import CMD


@dataclass
class ChannelClock:
    """Clock-domain bookkeeping for one channel.

    ``ratio`` is the channel frequency relative to the host reference:
    a ratio of 1.0 clocks the channel every host tick; 0.5 every other
    tick — the asynchronous-boundary behaviour §V.C describes for
    mismatched core / SERDES / device frequencies.
    """

    ratio: float = 1.0
    _accum: float = field(default=0.0, repr=False)

    def ticks_due(self) -> int:
        """Channel ticks owed after one host reference tick."""
        self._accum += self.ratio
        due = int(self._accum)
        self._accum -= due
        return due


class MultiChannelHost:
    """A host driving N independent HMCSim objects as memory channels.

    Parameters
    ----------
    channels:
        The HMCSim objects.  Each must already have host links
        configured.  Channels may have different device configurations
        — they are independent objects (that is the point).
    interleave_bytes:
        Granularity of the channel interleave.  Flat addresses map to
        ``channel = (addr // interleave_bytes) % num_channels`` and the
        within-channel address drops the channel bits — a standard
        channel-interleave, giving NUMA-style spreading.
    ratios:
        Optional per-channel clock ratios (default: all 1.0).
    policy:
        Link policy for every per-channel host driver.
    """

    def __init__(
        self,
        channels: Sequence[HMCSim],
        interleave_bytes: int = 4096,
        ratios: Optional[Sequence[float]] = None,
        policy: LinkPolicy | str = LinkPolicy.ROUND_ROBIN,
        max_outstanding: int = 512,
    ) -> None:
        if not channels:
            raise InitError("at least one channel is required")
        if interleave_bytes <= 0 or interleave_bytes & (interleave_bytes - 1):
            raise InitError(
                f"interleave_bytes must be a positive power of two, got {interleave_bytes}"
            )
        self.channels: List[HMCSim] = list(channels)
        self.interleave_bytes = interleave_bytes
        self.hosts: List[Host] = [
            Host(sim, policy=policy, max_outstanding=max_outstanding)
            for sim in self.channels
        ]
        if ratios is None:
            ratios = [1.0] * len(self.channels)
        if len(ratios) != len(self.channels):
            raise InitError("one clock ratio per channel required")
        if any(r <= 0 for r in ratios):
            raise InitError("clock ratios must be positive")
        self.clocks = [ChannelClock(ratio=r) for r in ratios]
        #: Host reference ticks issued so far.
        self.reference_ticks = 0

    # -- address spreading ----------------------------------------------------

    @property
    def num_channels(self) -> int:
        return len(self.channels)

    @property
    def total_capacity_bytes(self) -> int:
        return sum(c.config.device.capacity_bytes for c in self.channels)

    def route(self, flat_addr: int) -> Tuple[int, int]:
        """Map a flat physical address to (channel, channel-local addr).

        The interleave block index selects the channel round-robin; the
        local address re-packs the remaining blocks densely so each
        channel sees a contiguous local space.
        """
        if flat_addr < 0:
            raise ValueError(f"negative address {flat_addr:#x}")
        block = flat_addr // self.interleave_bytes
        offset = flat_addr % self.interleave_bytes
        chan = block % self.num_channels
        local_block = block // self.num_channels
        local = local_block * self.interleave_bytes + offset
        cap = self.channels[chan].config.device.capacity_bytes
        return chan, local % cap

    # -- traffic ---------------------------------------------------------------

    def send_request(
        self,
        cmd: CMD,
        flat_addr: int,
        payload: Optional[Sequence[int]] = None,
        cub: int = 0,
    ) -> Optional[Tuple[int, int]]:
        """Issue one request at a flat address; returns (channel, tag)."""
        chan, local = self.route(flat_addr)
        tag = self.hosts[chan].send_request(cmd, local, cub=cub, payload=payload)
        if tag is None:
            return None
        return (chan, tag)

    def clock(self, ticks: int = 1) -> None:
        """Advance all channels by *ticks* host reference ticks.

        Each channel receives its ratio-scaled number of device clocks —
        channels "operate completely independently" (§V.C).
        """
        for _ in range(ticks):
            self.reference_ticks += 1
            for sim, clk in zip(self.channels, self.clocks):
                due = clk.ticks_due()
                if due:
                    sim.clock(due)

    def drain_responses(self) -> int:
        """Drain every channel's responses; returns the count received."""
        return sum(len(h.drain_responses()) for h in self.hosts)

    @property
    def outstanding(self) -> int:
        return sum(h.outstanding for h in self.hosts)

    def run(
        self,
        requests: Iterable[Tuple[CMD, int, Optional[Sequence[int]]]],
        max_ticks: int = 10_000_000,
    ) -> HostRunResult:
        """Drive a flat-address request stream across all channels.

        As :meth:`Host.run`: *requests* yields ``(cmd, addr, payload)``
        tuples, or None for a bubble — the host sends nothing more that
        tick, and the tick is not a stall.
        """
        it = iter(requests)
        pending: Optional[Tuple] = None
        exhausted = False
        start = self.reference_ticks
        recv0 = sum(h.received for h in self.hosts)
        sent0 = sum(h.sent for h in self.hosts)
        err0 = sum(h.errors for h in self.hosts)
        lat_marks = [len(h.latencies) for h in self.hosts]
        stall_ticks = 0

        while self.reference_ticks - start < max_ticks:
            issued = 0
            bubble = False
            while True:
                if pending is None:
                    pending = next(it, _END)
                    if pending is _END:
                        exhausted, pending = True, None
                        break
                    if pending is None:
                        bubble = True
                        break
                cmd, addr, payload = pending
                if self.send_request(cmd, addr, payload=payload) is None:
                    break
                pending = None
                issued += 1
            if issued == 0 and not (exhausted or bubble):
                stall_ticks += 1
            self.clock()
            self.drain_responses()
            if exhausted and pending is None and self.outstanding == 0:
                break

        # Per-channel hosts record latencies in their own clock domain;
        # convert to host reference ticks so a half-rate channel's
        # requests correctly show ~doubled latency (the NUMA effect).
        latencies: List[int] = []
        for h, mark, clk in zip(self.hosts, lat_marks, self.clocks):
            latencies += [int(round(l / clk.ratio)) for l in h.latencies[mark:]]
        return HostRunResult(
            requests_sent=sum(h.sent for h in self.hosts) - sent0,
            responses_received=sum(h.received for h in self.hosts) - recv0,
            errors_received=sum(h.errors for h in self.hosts) - err0,
            cycles=self.reference_ticks - start,
            send_stall_cycles=stall_ticks,
            latencies=latencies,
        )

    # -- reporting ---------------------------------------------------------------

    def channel_stats(self) -> List[Dict[str, int]]:
        return [sim.stats() for sim in self.channels]

    def traffic_balance(self) -> float:
        """min/max of per-channel requests processed (1.0 = balanced)."""
        counts = np.array(
            [s["requests_processed"] for s in self.channel_stats()], dtype=float
        )
        if counts.max() == 0:
            return 1.0
        return float(counts.min() / counts.max())
