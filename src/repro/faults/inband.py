"""In-band link retry, degradation ladder and per-link health state.

The one link-error model: one :class:`InbandLinkState` is attached per
*physical* link (host↔device or device↔device), and every traversal of
that link — host send/recv, stage-1/2 remote request hops, stage-5 chain
response hops — must pass its :meth:`~InbandLinkState.try_transmit`
gate, so every replay costs real simulated cycles.

Each attempt samples only its *outcome*
(:meth:`~repro.faults.link_model.LinkFaultModel.outcome`): the drop draw,
then the next ``64·W`` bits (``W`` wire words, two per FLIT) of the
injector's one sequential flip stream.  Any flipped bit is a CRC failure,
so no wire words are encoded, cached or decoded here; that a flipped
packet never passes the CRC-checked decode is property-tested
(``tests/test_faults.py::test_a_flipped_packet_never_passes_crc``).

A failed transmission poisons the sender's direction for
``retry_delay`` cycles (the IRTRY exchange + replay window); the packet
stays at the head of its crossbar queue, which *is* the per-link retry
buffer a replay resends from.  The stall is visible to the clock engine
as a non-empty queue, so the engine's active sets naturally treat a
poisoned/replaying link as activity and it never fast-forwards across
a replay window.

Degradation ladder (per link, both directions share health):

``FULL`` --(max_retries consecutive failures)--> ``HALF`` (doubled FLIT
serialization cost per delivered packet) --(max_retries more)-->
``FAILED`` (routes rebuild around the link; host-boundary traffic
raises :class:`~repro.core.errors.LinkDeadError`).

Per-link health and counters are mirrored into the ``LRS<n>`` RWS
registers of every device touching the link (write-to-clear, same
pattern as the RAS counters) and reported as trace events
(``LINK_RETRY`` / ``LINK_DEGRADED`` / ``LINK_FAILED``).
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Sequence, Tuple

from repro.faults.link_model import FaultKind, LinkFaultModel
from repro.faults.retry import RetryStats
from repro.packets.flow import RetryPointerState
from repro.trace.events import EventType

#: ``try_transmit`` outcomes (module-level strings: cheap + picklable).
TX_OK = "ok"
TX_STALL = "stall"
TX_DEAD = "dead"

#: Sender key for the host side of a host link.
HOST_SENDER = "host"


class LinkHealth(enum.IntEnum):
    """Degradation ladder position of one physical link."""

    FULL = 0
    HALF = 1
    FAILED = 2


class _DirState:
    """Per-direction (sender-side) transmit state for one link."""

    __slots__ = (
        "busy_until",
        "failures",
        "pointers",
        "pending_serial",
        "pending_frp",
        "pending_attempts",
    )

    def __init__(self, retry_slots: int) -> None:
        #: First cycle at which this direction may transmit again
        #: (replay window after a failure / serialization at HALF width).
        self.busy_until = 0
        #: Consecutive failed transmissions on this direction; any clean
        #: delivery resets it.  Drives the degradation ladder.
        self.failures = 0
        #: HMC retry pointers (FRP stamped per packet, cumulative ack).
        self.pointers = RetryPointerState(buffer_slots=retry_slots)
        #: Serial of the packet currently held in the retry buffer (the
        #: head of the sender's queue; -1 when none is pending).
        self.pending_serial = -1
        self.pending_frp = -1
        #: Transmission attempts for the pending packet (recovery stat).
        self.pending_attempts = 0


class InbandLinkState:
    """Fault model + retry/degradation state for one physical link.

    Parameters
    ----------
    endpoints:
        ``(dev, link)`` pairs touching this link: one for a host link,
        two for a chain link.  ``endpoints[0]`` is the canonical side
        used for link-scoped trace events.
    model:
        The stochastic :class:`LinkFaultModel` every transmission runs
        through.  Both directions share the model (and its RNG), so the
        consumption order — and therefore the whole simulation — is
        deterministic for a fixed seed and workload.
    """

    def __init__(
        self,
        endpoints: Sequence[Tuple[int, int]],
        model: LinkFaultModel,
        max_retries: int = 8,
        retry_delay: int = 4,
        retry_slots: int = 256,
    ) -> None:
        if not endpoints:
            raise ValueError("endpoints must name at least one (dev, link)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_delay < 0:
            raise ValueError("retry_delay must be >= 0")
        # Directions are created lazily; reject a bad slot count now.
        RetryPointerState(buffer_slots=retry_slots)
        self.endpoints: Tuple[Tuple[int, int], ...] = tuple(
            (int(d), int(l)) for d, l in endpoints
        )
        self.model = model
        self.max_retries = max_retries
        self.retry_delay = retry_delay
        self.retry_slots = retry_slots
        self.health = LinkHealth.FULL
        self.stats = RetryStats()
        #: FULL→HALF and HALF→FAILED transitions taken.
        self.degradations = 0
        #: Set once the simulator has rebuilt routes around a FAILED link.
        self.failure_handled = False
        self._dirs: Dict[object, _DirState] = {}
        #: Per-endpoint counter baselines for write-to-clear mirroring.
        self._reg_base: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._reg_names: Dict[Tuple[int, int], str] = {
            ep: f"LRS{ep[1]}" for ep in self.endpoints
        }

    # -- transmit gate ----------------------------------------------------------

    def ready_for(self, sender, cycle: int) -> bool:
        """True iff *sender* could attempt a transmission at *cycle*.

        Consumes no RNG — safe for ``can_send``-style probes.
        """
        if self.health is LinkHealth.FAILED:
            return False
        d = self._dirs.get(sender)
        return d is None or cycle >= d.busy_until

    def try_transmit(self, sender, pkt, cycle: int, tracer) -> str:
        """Attempt one in-band transmission of *pkt* from *sender*.

        Returns ``TX_OK`` (delivered — the caller moves the packet),
        ``TX_STALL`` (replay window open or serialization busy — the
        packet stays queued and the caller retries next cycle), or
        ``TX_DEAD`` (link FAILED — the caller reroutes or drops).

        Each attempt consumes one drop draw (when ``drop_rate`` is set)
        and ``128 * pkt.num_flits`` bits of the flip stream, and
        attempts happen only for queued head-of-line packets in
        deterministic stage order — both schedulers therefore consume
        the streams identically.

        A busy direction (``cycle < busy_until``) returns ``TX_STALL``
        before it touches the streams, a counter or the retry pointers,
        and every failed attempt leaves ``busy_until > cycle``: the
        crossbar's walk relies on both to offer a held link once per
        walk.  The common case — a clean attempt with room in the retry
        buffer and the acknowledged FRP at its head — runs without a
        call.
        """
        if self.health is LinkHealth.FAILED:
            return TX_DEAD
        try:
            d = self._dirs[sender]
        except KeyError:
            d = self._dirs[sender] = _DirState(self.retry_slots)
        if cycle < d.busy_until:
            return TX_STALL
        stats = self.stats
        if d.pending_serial != pkt.serial:
            # New head-of-line packet: stamp an FRP.  The queued packet
            # itself is the retry-buffer entry a replay resends.
            d.pending_serial = pkt.serial
            ptr = d.pointers
            slots = ptr.buffer_slots
            if len(ptr._unacked) < slots:
                # RetryPointerState.stamp, inlined: the buffer has room.
                frp = ptr._next_frp
                pkt.frp = frp
                ptr._unacked.append(frp)
                ptr._next_frp = (frp + 1) % slots
            else:
                frp = ptr.stamp(pkt)  # raises FlowControlError
            d.pending_frp = frp
            d.pending_attempts = 0
            stats.packets += 1
        d.pending_attempts += 1
        stats.transmissions += 1
        nbits = 128 * pkt.num_flits
        model = self.model
        inj = model.injector
        end = inj._pos + nbits
        if not model.drop_rate and end <= inj._pending[0]:
            # What model.outcome(nbits) does when no drop is drawn and
            # no bit flips (the injector's clean-run cursor).
            model.transmissions += 1
            inj.transmissions += 1
            inj._pos = end
            kind = FaultKind.CLEAN
        else:
            kind = model.outcome(nbits)[0]
        if kind is FaultKind.CLEAN:
            # No wire bit flipped, so the receiver's CRC verifies (that
            # any flip fails it is property-tested against the real
            # decode); the receiver's RRP acknowledges the FRP
            # cumulatively.
            unacked = d.pointers._unacked
            if unacked and unacked[0] == d.pending_frp:
                unacked.popleft()  # RetryPointerState.acknowledge, inlined
            else:
                d.pointers.acknowledge(d.pending_frp)
            if d.pending_attempts > 1:
                stats.recovered += 1
            d.failures = 0
            d.pending_serial = -1
            if self.health is LinkHealth.HALF:
                # Half-width lanes: each FLIT takes twice as long, so
                # the direction stays busy for one extra cycle per FLIT
                # of the packet just serialized.
                d.busy_until = cycle + pkt.num_flits
            return TX_OK
        # CORRUPT or DROP: the receiver's input stream is poisoned; the
        # IRTRY exchange + replay occupies the direction for
        # ``retry_delay`` real cycles.
        if kind is FaultKind.CORRUPT:
            stats.crc_failures += 1
        else:
            stats.drops += 1
        stats.irtry_events += 1
        stats.recovery_cycles += self.retry_delay
        d.failures += 1
        d.busy_until = cycle + max(1, self.retry_delay)
        ev_dev, ev_link = self._sender_endpoint(sender)
        tracer.event(
            EventType.LINK_RETRY,
            cycle,
            dev=ev_dev,
            link=ev_link,
            serial=pkt.serial,
            extra={"kind": kind.value, "failures": d.failures},
        )
        if d.failures > self.max_retries:
            self._degrade(cycle, tracer)
            if self.health is LinkHealth.FAILED:
                return TX_DEAD
        return TX_STALL

    def _sender_endpoint(self, sender) -> Tuple[int, int]:
        if sender == HOST_SENDER:
            return self.endpoints[0]
        return sender

    def _degrade(self, cycle: int, tracer) -> None:
        """Take one step down the degradation ladder."""
        dev, link = self.endpoints[0]
        self.degradations += 1
        if self.health is LinkHealth.FULL:
            self.health = LinkHealth.HALF
            for d in self._dirs.values():
                d.failures = 0
            tracer.event(
                EventType.LINK_DEGRADED,
                cycle,
                dev=dev,
                link=link,
                extra={"health": self.health.name},
            )
        else:
            self.fail()
            tracer.event(
                EventType.LINK_FAILED,
                cycle,
                dev=dev,
                link=link,
                extra={"health": self.health.name},
            )

    def force_degrade(self, cycle: int, tracer) -> None:
        """Administratively take one degradation-ladder step.

        The chaos engine's ``link_degrade`` event uses this: the link
        drops FULL → HALF (doubled FLIT serialization) or HALF → FAILED
        exactly as if ``max_retries`` consecutive CRC failures had
        accumulated, including the ``LINK_DEGRADED`` / ``LINK_FAILED``
        trace events and the ``degradations`` counter the service's
        fault attribution bills to resident tenants.
        """
        if self.health is not LinkHealth.FAILED:
            self._degrade(cycle, tracer)

    def fail(self) -> None:
        """Force the link to FAILED, abandoning any pending packets (the
        ladder's last step; also administrative, for tests/experiments)."""
        self.health = LinkHealth.FAILED
        for d in self._dirs.values():
            if d.pending_serial != -1:
                self.stats.failed += 1
                d.pointers.acknowledge(d.pending_frp)
                d.pending_serial = -1

    # -- register mirroring -----------------------------------------------------

    #: Packed LRS layout; counters are deltas against the write-to-clear
    #: baseline, saturating at their field width.
    _PACK = (
        ("irtry_events", 10, 16),
        ("crc_failures", 26, 16),
        ("drops", 42, 16),
        ("recovered", 58, 6),
    )

    def _counters(self) -> Tuple[int, ...]:
        s = self.stats
        return (s.irtry_events, s.crc_failures, s.drops, s.recovered)

    def _packed_for(self, endpoint: Tuple[int, int]) -> int:
        base = self._reg_base.get(endpoint)
        counters = self._counters()
        value = int(self.health) | (min(self.degradations, 255) << 2)
        for (_name, shift, bits), total, b in zip(
            self._PACK, counters, base if base else (0,) * len(counters)
        ):
            delta = total - b
            cap = (1 << bits) - 1
            value |= min(delta, cap) << shift
        return value

    @staticmethod
    def unpack_status(value: int) -> dict:
        """Decode a packed LRS register value (diagnostics/tests)."""
        out = {
            "health": LinkHealth(value & 0x3).name,
            "degradations": (value >> 2) & 0xFF,
        }
        for name, shift, bits in InbandLinkState._PACK:
            out[name] = (value >> shift) & ((1 << bits) - 1)
        return out

    #: ``(irtry_events, crc_failures, drops, recovered, health,
    #: degradations)`` as the mirror last published them, or None: the
    #: next mirror must write.  Derived state, so never pickled — a
    #: restored link publishes on its first tick.
    _published: Optional[tuple] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_published", None)
        return state

    def sync_registers(self, devices) -> None:
        """Mirror health/counters into each endpoint's LRS register.

        Runs in stage 6, after host strobes were visible for the cycle:
        a host write to an LRS register rebases that endpoint's counter
        deltas to zero (write-to-clear, like the RAS counters).

        Only a change publishes.  The registers change nowhere else but
        through a strobe (a host, JTAG or MODE write, which the register
        tick then clears) or a reset, so while neither happened and the
        six published inputs are unchanged every endpoint already holds
        its value.  A pending strobe on an endpoint device forces this
        write and the next one, after the tick has cleared it.
        """
        s = self.stats
        key = (s.irtry_events, s.crc_failures, s.drops, s.recovered,
               self.health, self.degradations)
        strobed = False
        for ep in self.endpoints:
            if devices[ep[0]].regs._pending_clear:
                strobed = True
        if key == self._published and not strobed:
            return
        for ep in self.endpoints:
            regs = devices[ep[0]].regs
            name = self._reg_names[ep]
            if regs.was_strobed(name):
                self._reg_base[ep] = self._counters()
            regs.internal_write(name, self._packed_for(ep))
        self._published = None if strobed else key

    def registers_synced(self, devices) -> bool:
        """True iff every endpoint's LRS register mirrors current state.

        The fast-forward bound must not skip a cycle that would publish
        a counter update (host sends can bump counters between ticks).
        """
        for ep in self.endpoints:
            regs = devices[ep[0]].regs
            if regs.peek(self._reg_names[ep]) != self._packed_for(ep):
                return False
        return True

    # -- reporting / lifecycle --------------------------------------------------

    def stats_dict(self) -> dict:
        d = self.stats.as_dict()
        d["health"] = self.health.name
        d["degradations"] = self.degradations
        return d

    def report(self) -> dict:
        """Structured per-link run-report entry."""
        return {
            "endpoints": [list(ep) for ep in self.endpoints],
            "health": self.health.name,
            "max_retries": self.max_retries,
            "retry_delay": self.retry_delay,
            **self.stats.as_dict(),
            "degradations": self.degradations,
        }

    def reset(self) -> None:
        """Return to post-attach state (fault model RNG is untouched)."""
        self.health = LinkHealth.FULL
        self.stats = RetryStats()
        self.degradations = 0
        self.failure_handled = False
        self._dirs.clear()
        self._reg_base.clear()
        self._published = None
