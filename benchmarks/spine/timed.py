"""Spans taken from outside the program: thin timed subclasses.

Each subclass times ``super()`` at a public boundary and is handed to
the unchanged drive loops (``Host.run``, ``pointer_chase_run``), so the
traced repetition executes the same program code as the untraced one
plus two ``perf_counter`` calls per boundary crossing.  Spans nest the
way the calls do: ``TimedHost.send_request`` contains
``TimedSim.send``, ``TimedHost.drain_responses`` contains
``TimedSim.recv_all``, and ``TimedSim.clock`` contains the engine's own
stage buckets (``repro.analysis.profiling``).  Sink time lands inside
whichever span is open when the tracer's ring fills.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.service.sessions import SessionPool
from repro.analysis.profiling import attach
from repro.trace.tracer import Sink


class TimedSim(HMCSim):
    """``HMCSim`` with spans on send / recv_all / clock.

    ``run`` and ``clock_until`` are not overridden: ``run`` delegates to
    ``clock`` (already timed) and no workload here uses ``clock_until``.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.send_s = 0.0
        self.recv_s = 0.0
        self.clock_s = 0.0

    def send(self, pkt, dev=None, link=None) -> None:
        t = perf_counter()
        try:
            super().send(pkt, dev=dev, link=link)
        finally:  # a stalled send raises StallError; its time still counts
            self.send_s += perf_counter() - t

    def recv_all(self):
        t = perf_counter()
        out = super().recv_all()
        self.recv_s += perf_counter() - t
        return out

    def clock(self, cycles: int = 1) -> None:
        t = perf_counter()
        super().clock(cycles)
        self.clock_s += perf_counter() - t


class TimedHost(Host):
    """``Host`` with spans on send_request / drain_responses."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.send_s = 0.0
        self.send_calls = 0
        self.drain_s = 0.0

    def send_request(self, cmd, addr, cub=0, payload=None):
        t = perf_counter()
        tag = super().send_request(cmd, addr, cub=cub, payload=payload)
        self.send_s += perf_counter() - t
        self.send_calls += 1
        return tag

    def drain_responses(self):
        t = perf_counter()
        out = super().drain_responses()
        self.drain_s += perf_counter() - t
        return out


class TimedSink(Sink):
    """Wraps a batch-capable sink and times every delivery to it."""

    def __init__(self, inner: Sink) -> None:
        self.inner = inner
        self.seconds = 0.0

    # The tracer sets ``sink.tracer`` on attach; the wrapped sink needs
    # it (flush-on-read accessors, StatsSink's sync hook).
    @property
    def tracer(self):
        return self.inner.tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self.inner.tracer = tracer

    def emit(self, event) -> None:
        t = perf_counter()
        self.inner.emit(event)
        self.seconds += perf_counter() - t

    def emit_tuples(self, entries: list) -> None:
        t = perf_counter()
        self.inner.emit_tuples(entries)
        self.seconds += perf_counter() - t

    def close(self) -> None:
        self.inner.close()


class ProfiledPool(SessionPool):
    """``SessionPool`` that attaches a stage profiler to every shard it
    spins up — the only public seam into ``serve_sync``'s simulators."""

    def __init__(self, config) -> None:
        super().__init__(config)
        self.profilers = []

    def spin_up(self, mode=None):
        sim, ms = super().spin_up(mode)
        self.profilers.append(attach(sim))
        return sim, ms
