"""Cross-process snapshot round-trips.

Every process boundary is a pickle boundary: service epoch blobs are
restored by pumps, and `WorkerPool` lanes and chaos-recovery tests move
whole simulations between processes.  These tests assert the contract
that makes all of that sound: a ``snapshot_bundle`` blob restored **in
a worker process** yields exactly the state it yields in this process —
including the objects with subtle innards (in-band link retry pointers
and replay caches, host tag pools, register files, bank storage).

Comparison is *structured state*, not raw blob bytes: re-pickling in
another interpreter may order dict internals differently under a
different ``PYTHONHASHSEED``, but every observable field must match
bit-for-bit.
"""

from __future__ import annotations

import itertools

import repro.packets.packet as packet_mod
from repro.core.checkpoint import restore_bundle, snapshot_bundle
from repro.core.config import DeviceConfig, SimConfig
from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.packets.commands import CMD
from repro.parallel import WorkerPool
from repro.topology.builder import build_chain
from repro.workloads.random_access import (
    RandomAccessConfig,
    random_access_requests,
)

DEVICE = DeviceConfig(num_links=4, num_banks=8, capacity=2)
FAULT_KW = dict(link_ber=3e-4, link_drop_rate=0.002, link_seed=5)


def _slot_fields(obj) -> dict:
    """Every slot/instance attribute of *obj*, for structured compare."""
    names = []
    for klass in type(obj).__mro__:
        names.extend(getattr(klass, "__slots__", ()))
    if not names:
        return dict(vars(obj))
    return {
        n: getattr(obj, n) for n in names
        if n != "__weakref__" and hasattr(obj, n)
    }


def _link_state_fingerprint(sim: HMCSim) -> list:
    """Structured dump of every in-band link state, directions included."""
    out = []
    for st in sim._link_fault_states:
        dirs = {}
        for key in sorted(st._dirs, key=repr):
            d = st._dirs[key]
            dirs[repr(key)] = {
                "busy_until": d.busy_until,
                "failures": d.failures,
                "pending_serial": d.pending_serial,
                "pending_frp": d.pending_frp,
                "pending_attempts": d.pending_attempts,
                "pointers": _slot_fields(d.pointers),
            }
        out.append({
            "endpoints": st.endpoints,
            "health": st.health.name,
            "degradations": st.degradations,
            "stats": st.stats_dict(),
            "dirs": dirs,
        })
    return out


def _structured_state(sim: HMCSim, host: Host) -> dict:
    return {
        "cycles": sim.clock_value,
        "stats": sim.stats(),
        "registers": [d.regs.snapshot() for d in sim.devices],
        "links": _link_state_fingerprint(sim),
        "outstanding": host.outstanding,
        "storage": [d.peek(0x0) + d.peek(0x400) for d in sim.devices],
    }


def _continue_and_fingerprint(sim: HMCSim, host: Host) -> dict:
    """Deterministic continuation: more traffic, full drain, fingerprint.

    The global packet serial counter is process state, not snapshot
    state; pin it so the parent and the worker stamp identical serials
    on post-restore packets (they feed the link retry caches).
    """
    packet_mod._packet_serial = itertools.count(1 << 20)
    cfg = RandomAccessConfig(num_requests=80, seed=13)
    host.run(random_access_requests(DEVICE.capacity_bytes, cfg), cub=0)
    sim.run(50)
    return _structured_state(sim, host)


# -- module-level pool tasks (must pickle) ---------------------------------


def _worker_fingerprint(blob: bytes) -> dict:
    sim, (host,) = restore_bundle(blob)
    return _structured_state(sim, host)


def _worker_continue(blob: bytes) -> dict:
    sim, (host,) = restore_bundle(blob)
    return _continue_and_fingerprint(sim, host)


def _midflight_sim():
    """A faulty 2-cube chain with requests still in flight."""
    packet_mod._packet_serial = itertools.count()
    scfg = SimConfig(device=DEVICE, num_devs=2, **FAULT_KW)
    sim = build_chain(HMCSim(scfg), host_links=2)
    host = Host(sim)
    cfg = RandomAccessConfig(num_requests=120, seed=3)
    # Target the far cube so every packet crosses the noisy chain link,
    # loading the retry pointers/replay caches that must round-trip.
    host.run(random_access_requests(DEVICE.capacity_bytes, cfg), cub=1)
    # Leave fresh requests undrained: the snapshot must capture queues,
    # tag pools and pending link replays mid-flight.
    for i in range(8):
        host.send_request(CMD.RD64, 0x1000 + 64 * i, cub=1)
    sim.run(3)
    return sim, host


def _midflight_bundle() -> bytes:
    sim, host = _midflight_sim()
    return snapshot_bundle(sim, host)


class TestCrossProcessRoundTrip:
    def test_worker_restore_matches_parent_restore(self):
        blob = _midflight_bundle()
        sim, (host,) = restore_bundle(blob)
        local = _structured_state(sim, host)
        with WorkerPool(processes=1) as pool:
            remote = pool.map(_worker_fingerprint, [blob])[0]
        assert remote == local
        # The scenario actually loaded the boundary objects.
        assert local["outstanding"] > 0
        assert any(
            d["pending_serial"] != -1 or st["stats"]["irtry_events"] > 0
            for st in local["links"] for d in st["dirs"].values()
        )

    def test_worker_continuation_matches_parent_continuation(self):
        """Restore + drive to quiescence in a worker process: every
        counter, register, retry pointer and storage word must land
        where the in-process continuation lands them."""
        blob = _midflight_bundle()
        sim, (host,) = restore_bundle(blob)
        local = _continue_and_fingerprint(sim, host)
        with WorkerPool(processes=1) as pool:
            remote = pool.map(_worker_continue, [blob])[0]
        assert remote == local
        assert local["outstanding"] == 0  # drained on both sides

    def test_continuation_matches_never_pickled_original(self):
        """The pickled path is not just self-consistent — it matches
        the simulation that never crossed a process boundary."""
        packet_mod._packet_serial = itertools.count()
        scfg = SimConfig(device=DEVICE, num_devs=2, **FAULT_KW)
        sim = build_chain(HMCSim(scfg), host_links=2)
        host = Host(sim)
        cfg = RandomAccessConfig(num_requests=120, seed=3)
        host.run(random_access_requests(DEVICE.capacity_bytes, cfg), cub=1)
        for i in range(8):
            host.send_request(CMD.RD64, 0x1000 + 64 * i, cub=1)
        sim.run(3)
        blob = snapshot_bundle(sim, host)
        original = _continue_and_fingerprint(sim, host)
        with WorkerPool(processes=1) as pool:
            remote = pool.map(_worker_continue, [blob])[0]
        assert remote == original

    def test_stale_workers_attribute_restores_onto_clock_engine(self):
        """Configs pickled before the sharded engine was deleted carry
        ``workers`` / ``shard_strategy`` in their state: such a blob
        restores onto the one engine and continues exactly like a run
        that was never pickled."""
        from repro.core.clock import ClockEngine

        sim, host = _midflight_sim()
        object.__setattr__(sim.config, "workers", 2)  # frozen dataclass
        object.__setattr__(sim.config, "shard_strategy", "device")
        restored, (rhost,) = restore_bundle(snapshot_bundle(sim, host))
        assert restored.config.__dict__["workers"] == 2  # stale state came along
        assert type(restored.engine) is ClockEngine
        never_pickled = _continue_and_fingerprint(*_midflight_sim())
        assert _continue_and_fingerprint(restored, rhost) == never_pickled

    def test_parent_shaped_engine_state_restores_onto_the_one_engine(
        self, monkeypatch
    ):
        """A blob written while ``scheduler`` was selectable carries the
        option in its config state and ``_active``, the topology caches
        and ``profiler`` in its engine's slot state: it restores onto
        the one engine — even when it was written under ``"naive"`` —
        and continues exactly like a run that was never pickled."""
        from repro.core.clock import ClockEngine

        sim, host = _midflight_sim()
        object.__setattr__(sim.config, "scheduler", "naive")  # frozen dataclass
        engine = sim.engine
        monkeypatch.setattr(ClockEngine, "__getstate__", lambda self: (None, {
            "sim": self.sim, "stage_counts": self.stage_counts,
            "_active": False, "_roots": self._roots,
            "_children": self._children, "_topo_epoch": 3,
            "_wd_last_cycle": self._wd_last_cycle,
            "_wd_marker": self._wd_marker, "profiler": None,
        }))
        blob = snapshot_bundle(sim, host)
        monkeypatch.undo()
        assert b"_active" in blob and b"_topo_epoch" in blob
        restored, (rhost,) = restore_bundle(blob)
        assert restored.config.__dict__["scheduler"] == "naive"
        assert type(restored.engine) is ClockEngine
        assert restored.engine.stage_counts == engine.stage_counts
        assert not hasattr(restored.engine, "_active")
        never_pickled = _continue_and_fingerprint(*_midflight_sim())
        assert _continue_and_fingerprint(restored, rhost) == never_pickled

    def test_service_warm_template_round_trips(self):
        """The session pool's provisioned-template blob — the object
        service recovery ships around — restores identically across
        the process boundary."""
        from repro.core.checkpoint import restore
        from repro.service import ServiceConfig, SessionPool

        cfg = ServiceConfig(
            device=DEVICE, devs_per_shard=2, slots_per_shard=2,
            provision_requests=32, **FAULT_KW
        )
        blob = SessionPool(cfg).template_blob()
        sim = restore(blob)
        local = {
            "cycles": sim.clock_value,
            "stats": sim.stats(),
            "registers": [d.regs.snapshot() for d in sim.devices],
            "links": _link_state_fingerprint(sim),
        }
        with WorkerPool(processes=1) as pool:
            remote = pool.map(_worker_template_fingerprint, [blob])[0]
        assert remote == local


def _worker_template_fingerprint(blob: bytes) -> dict:
    from repro.core.checkpoint import restore

    sim = restore(blob)
    return {
        "cycles": sim.clock_value,
        "stats": sim.stats(),
        "registers": [d.regs.snapshot() for d in sim.devices],
        "links": _link_state_fingerprint(sim),
    }
