"""Where a shard runs: the front end's handle on one :class:`Shard`.

The shards of a pool are independent simulations, so when more than
one CPU is usable (:func:`~repro.parallel.pool.default_pool_size`, the
affinity set) each one runs in a forked daemon process of its own and
the driver pumps every busy shard at once.  With one CPU the handle
calls the :class:`Shard` in this process.  Either way the driver sees
one interface and the shard runs the same operations (:func:`_apply`):

* :meth:`ShardHandle.lease` queues a lease; it travels with the next
  :meth:`ShardHandle.pump_until`, which starts the pump (across the
  pipe: sends it) — :meth:`ShardHandle.completed` then waits for it and
  returns the sessions it completed, in completion order, as
  :class:`Completed` records carrying the driver's own accounts;
* :func:`summaries` fetches every shard's report figures at once;
* any other attribute (``sim``, ``sessions``, ``cycles_pumped`` …)
  brings the shard's final state home on first use: the process pickles
  the shard with its simulation (:func:`~repro.core.checkpoint.
  snapshot_bundle`), exits, and the handle runs the shard in process
  from then on.  A profiler attached at spin-up receives the counts the
  process booked.

The process is forked, not spawned: it starts from the shard the driver
just restored, with any profiler the pool attached, instead of a pickle
of it.  The driver runs no threads of its own.

What crosses the pipe is data: a lease carries its spec with the finite
request stream as a list, plus the account; a pump result carries each
completed session's account state, its outstanding count and — for a
displaced session, when failover is armed — its salvage stream.  A
shard-side exception re-raises in the driver with its own type
(:meth:`~repro.parallel.channels.Channel.send_exception`).

Determinism: a pump reads nothing the driver writes within a tick, and
the driver resolves completions in shard order after all of the tick's
pumps, so a run is bit-identical on both transports
(``tests/test_shard_processes.py``).
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import signal
import sys
from dataclasses import replace
from typing import Any, List, Optional, Sequence

from repro.core.checkpoint import restore_bundle, snapshot_bundle
from repro.parallel.channels import DONE, STOP, TASK, Channel, ChannelClosed
from repro.parallel.pool import default_pool_size
from repro.service.accounting import TenantAccount
from repro.service.config import TenantSpec
from repro.service.shard import Shard

#: The profiler counters a shard process hands back with its state.
_PROFILER_COUNTS = ("stage_ns", "refresh_ns", "ras_ns", "ticks", "ff_cycles")


class Completed:
    """A session a pump handed back, as the driver resolves it."""

    __slots__ = ("account", "outstanding", "salvage")

    def __init__(self, account: TenantAccount, outstanding: int,
                 salvage: Optional[list]) -> None:
        self.account = account
        #: Injected requests that will never be answered here.
        self.outstanding = outstanding
        #: The request stream a failover re-leases (displaced sessions
        #: with failover armed), else None.
        self.salvage = salvage


def _apply(shard: Shard, op: str, arg: Any) -> Any:
    """One operation on *shard*, wherever it runs."""
    if op == "pump":
        leases, limit = arg
        for spec, account in leases:
            shard.lease(spec, account)
        salvaging = shard.config.failover_retries > 0
        done = [
            Completed(sess.account, sess.host.outstanding,
                      list(sess.salvage()) if salvaging and sess.failed else None)
            for sess in shard.pump_until(limit)
        ]
        return done, len(shard.sessions), len(shard.free_slots), shard.dead
    if op == "summary":
        return shard.stats(), shard.fault_event_total()
    raise ValueError(f"unknown shard operation {op!r}")


def _serve(conn, driver_end, shard: Shard) -> None:
    """Main loop of a shard process: serve operations until STOP, EOF
    or ``home``, after which the process exits."""
    # The inherited heap is the driver's: keep this process's collector
    # off it, so its pages stay shared instead of copied.
    gc.freeze()
    driver_end.close()
    # Interrupts are the driver's to handle (it stops this process), and
    # the driver's event loop keeps its wake-up descriptor to itself.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.set_wakeup_fd(-1)
    if hasattr(os, "SCHED_BATCH"):
        # A batch task never preempts the task that woke it: the driver
        # hands every busy shard its pump before any of them runs.
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    chan = Channel(conn)
    profiler = shard.sim.engine.profiler
    while True:
        try:
            tag, payload = conn.recv()
        except (EOFError, OSError):
            return
        if tag == STOP:
            return
        op, arg = payload
        try:
            if op == "home":
                counts = None if profiler is None else [
                    getattr(profiler, name) for name in _PROFILER_COUNTS]
                result = (snapshot_bundle(shard.sim, shard), counts,
                          shard.sim.engine.profiler is profiler)
            else:
                result = _apply(shard, op, arg)
        except Exception as exc:  # noqa: BLE001 - re-raised by the driver
            try:
                chan.send_exception(exc)
            except ChannelClosed:
                return
            continue
        try:
            chan.send(DONE, result)
        except ChannelClosed:
            return
        if op == "home":
            return


class ShardHandle:
    """The driver's reference to one shard, in process or in its own."""

    def __init__(self, shard: Shard) -> None:
        self.shard_id = shard.shard_id
        #: The shard, when it runs in this process (None while a
        #: process owns it).
        self._shard: Optional[Shard] = shard
        self._chan: Optional[Channel] = None
        self._proc = None
        #: Leases queued for the next pump.
        self._leases: List[tuple] = []
        #: The driver's account of every tenant leased here, by id.
        self._accounts = {}
        self._reply: Any = None
        # What the driver reads between pumps, as of the last reply and
        # the leases queued since.
        self._sessions = len(shard.sessions)
        self._free = len(shard.free_slots)
        self.dead = shard.dead
        self._profiler = shard.sim.engine.profiler
        if default_pool_size() > 1:
            self._fork(shard)

    def _fork(self, shard: Shard) -> None:
        ctx = mp.get_context("fork")
        driver_end, shard_end = ctx.Pipe()
        for stream in (sys.stdout, sys.stderr):
            # Whatever is buffered would be flushed twice.
            if stream is not None:
                stream.flush()
        self._proc = ctx.Process(target=_serve, args=(shard_end, driver_end, shard),
                                 daemon=True)
        self._proc.start()
        shard_end.close()
        self._chan = Channel(driver_end)
        self._shard = None

    # -- what the driver reads -------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._sessions > 0 and not self.dead

    @property
    def has_free_slot(self) -> bool:
        return self._free > 0 and not self.dead

    # -- leases and pumps ------------------------------------------------------

    def lease(self, spec: TenantSpec, account: TenantAccount) -> None:
        """Queue *spec* for the lowest free slot; it joins the next pump."""
        if self.dead:
            raise RuntimeError(f"shard {self.shard_id} is retired")
        if self._chan is not None:
            spec = replace(spec, requests=list(spec.requests))
        self._leases.append((spec, account))
        self._accounts[spec.tenant_id] = account
        self._sessions += 1
        self._free -= 1

    def pump_until(self, limit: int) -> None:
        """Start pumping up to *limit* cycles, with the queued leases;
        :meth:`completed` returns the result."""
        leases, self._leases = self._leases, []
        self._post("pump", (leases, limit))

    def completed(self) -> List[Completed]:
        """The sessions the started pump completed, in the order they
        completed, each with the driver's account brought up to date."""
        done, self._sessions, self._free, self.dead = self._take()
        for rec in done:
            mine = self._accounts.pop(rec.account.tenant_id)
            if rec.account is not mine:
                vars(mine).update(vars(rec.account))
                rec.account = mine
        return done

    # -- transport -------------------------------------------------------------

    def _post(self, op: str, arg: Any) -> None:
        if self._chan is not None:
            self._chan.send(TASK, (op, arg))
        else:
            self._reply = _apply(self._home(), op, arg)

    def _take(self) -> Any:
        if self._chan is not None:
            return self._chan.expect(DONE)
        reply, self._reply = self._reply, None
        return reply

    def _home(self) -> Shard:
        """The shard, in this process: its final state is fetched from
        its process (which then exits) on first use."""
        if self._shard is None:
            if self._chan is None:
                raise RuntimeError(
                    f"shard {self.shard_id} was closed before its state came home")
            self._chan.send(TASK, ("home", None))
            blob, counts, attached = self._chan.expect(DONE)
            self._join()
            sim, (shard,) = restore_bundle(blob)
            prof = self._profiler
            if counts is not None:
                for name, value in zip(_PROFILER_COUNTS, counts):
                    setattr(prof, name, value)
                if attached:
                    sim.engine.profiler = prof
            self._shard = shard
        return self._shard

    def __getattr__(self, name: str) -> Any:
        # Reached only for what the handle does not define: the shard's
        # own attributes and methods.
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self._home(), name)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop the shard's process, if it still runs; idempotent."""
        if self._chan is None:
            return
        try:
            self._chan.send(STOP)
        except ChannelClosed:
            pass
        self._join()

    def _join(self) -> None:
        proc, self._proc = self._proc, None
        proc.join(timeout=5)
        if proc.is_alive():  # pragma: no cover - a stuck shard process
            proc.terminate()
            proc.join(timeout=5)
        self._chan.close()
        self._chan = None


def summaries(handles: Sequence[ShardHandle]) -> List[tuple]:
    """``(stats(), fault_event_total())`` of every shard, asked of all
    of them before any answer is awaited."""
    for handle in handles:
        handle._post("summary", None)
    return [handle._take() for handle in handles]


def close_all(handles: Sequence[ShardHandle]) -> None:
    """Stop every shard process still running."""
    for handle in handles:
        handle.close()
