"""The full walk: the reference the engine's selection is checked against.

A :class:`~repro.core.clock.ClockEngine` with the stage code and none of
what the engine adds on top: every cycle is a real tick (``wake_cycle``
is never consulted), and for the length of a tick every device's four
active sets are replaced by "every queue of that kind".  The queues go
on maintaining the real sets through their own references, so the
incremental bookkeeping is compared with a walk that does not trust it.
"""

from __future__ import annotations

from repro.core.clock import ClockEngine
from repro.core.simulator import HMCSim
from repro.service.sessions import SessionPool

_SETS = ("act_xbar_rqst", "act_xbar_rsp", "act_vault_rqst", "act_vault_rsp")


def _everything(dev) -> tuple:
    links, vaults = range(len(dev.xbars)), frozenset(range(len(dev.vaults)))
    chain = frozenset(l for l in links if dev.links[l].is_chain_link)
    return frozenset(links), chain, vaults, vaults  # stage 5 hops chain links only


class FullWalkEngine(ClockEngine):
    __slots__ = ("_real",)

    def _swap(self, sets: list) -> list:
        """Install one four-tuple per device; return what was there."""
        old = [tuple(getattr(d, n) for n in _SETS) for d in self.sim.devices]
        for dev, four in zip(self.sim.devices, sets):
            for name, value in zip(_SETS, four):
                setattr(dev, name, value)
        return old

    def tick(self) -> None:
        # First: a rebuild binds the response queues to the sets it finds.
        self._sync_steps()
        self._real = self._swap([_everything(d) for d in self.sim.devices])
        try:
            super().tick()
        finally:
            self._swap(self._real)

    def _wd_stuck(self) -> bool:
        # Only ever asked mid-tick: is_idle() must read the real sets.
        everything = self._swap(self._real)
        try:
            return super()._wd_stuck()
        finally:
            self._swap(everything)

    def advance(self, cycles: int) -> None:
        tracer = self.sim.tracer
        tracer.begin_batch()
        try:
            for _ in range(cycles):
                self.tick()
        finally:
            tracer.end_batch()

    def wake_cycle(self) -> int:
        return self.sim.clock_value  # for clock_until_response: always now


def adopt(sim: HMCSim) -> HMCSim:
    """Put *sim* (fresh or restored) under the full walk, run state kept."""
    engine = FullWalkEngine.__new__(FullWalkEngine)
    engine.__setstate__(sim.engine.__getstate__())
    sim.engine = engine
    return sim


def reference_sim(*args, **kwargs) -> HMCSim:
    """``HMCSim(...)`` driven by the full walk."""
    return adopt(HMCSim(*args, **kwargs))


class ReferencePool(SessionPool):
    """Every shard a service spins up runs the full walk (a crash
    restore unpickles the engine as the class it was pickled as)."""

    def spin_up(self, mode=None):
        sim, ms = super().spin_up(mode)
        return adopt(sim), ms


#: Both sides of an equivalence test, under the names their test ids carry.
BUILD = {"active": HMCSim, "naive": reference_sim}
