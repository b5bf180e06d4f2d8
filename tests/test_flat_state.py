"""Flat pickled state: ``PacketQueue`` and ``Vault``.

Both classes pickle a flat tuple of their slots in ``__slots__`` order
(the queue's two deques travel as tuples) instead of pickle's generic
``(None, {slot: value})``, which version-1 blobs hold and which loads
through ``repro.core.migrate``:

* a queue survives a round trip under arbitrary pushes, pops and
  positional removals of READ / WRITE / FLOW / MODE packets — contents,
  stamps, counters — and behaves the same afterwards;
* a vault keeps its counters and its incremental busy-bank state;
* in a restored simulation each queue is still bound to its device's
  active set (identity, not a copy);
* a dict-shaped state restores through ``migrate``, and a tuple of the
  wrong length is a ``CheckpointError``.

The committed ``.bin`` fixtures hold the dict shape throughout
(``tests/test_checkpoint_compat.py`` replays them).
"""

from __future__ import annotations

import pickle
from collections import deque

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core import migrate
from repro.core.bank import Bank
from repro.core.checkpoint import restore, snapshot
from repro.core.config import DeviceConfig, SimConfig
from repro.core.errors import CheckpointError
from repro.core.queueing import PacketQueue
from repro.core.simulator import HMCSim
from repro.core.vault import Vault
from repro.host.host import Host
from repro.packets.commands import CMD
from repro.packets.packet import Packet
from tests.checkpoint_blobs import legacy_pickle

_DEPTH = 6
# Explicit serials: a queue and its twin are fed equal packets.
_PACKETS = {
    "read": lambda a: Packet(cmd=CMD.RD64, addr=a * 64, serial=a),
    "write": lambda a: Packet(cmd=CMD.WR16, addr=a * 16, payload=(a, ~a),
                              serial=a),
    "flow": lambda a: Packet(cmd=CMD.PRET, serial=a),
    "mode": lambda a: Packet(cmd=CMD.MD_WR, addr=a, payload=(a, 0), serial=a),
}

_OP = st.one_of(
    st.tuples(st.just("push"), st.sampled_from(sorted(_PACKETS)),
              st.integers(0, 1 << 12), st.integers(0, 1 << 40)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("remove"), st.lists(st.integers(0, _DEPTH), max_size=3)),
)


def _apply(q: PacketQueue, ops) -> list:
    """Run *ops* on *q*; returns what the pops handed back."""
    popped = []
    for op in ops:
        if op[0] == "push":
            _, kind, addr, stamp = op
            q.push(_PACKETS[kind](addr), stamp)
        elif op[0] == "pop":
            if len(q):
                popped.append(q.pop())
        elif len(q):
            q.remove_positions(sorted({p % len(q) for p in op[1]}))
    return popped


def _observe(q: PacketQueue) -> tuple:
    return (q.depth, q.name, list(q), [q.stamp_at(i) for i in range(len(q))],
            q.special_count, q.high_water, q.total_enqueued,
            q.total_dequeued, q.total_stalls)


class TestPacketQueue:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(_OP, max_size=24), st.lists(_OP, max_size=12))
    def test_round_trip_then_same_behaviour(self, before, after):
        act: set = set()
        q = PacketQueue(_DEPTH, name="vault3.rqst")
        q.bind_activity(act, 3)
        _apply(q, before)
        twin, twin_act = pickle.loads(pickle.dumps((q, act)))
        assert _observe(twin) == _observe(q)
        assert twin._act_set is twin_act and twin._act_key == 3
        assert twin_act == act == ({3} if len(q) else set())
        assert _apply(twin, after) == _apply(q, after)
        assert _observe(twin) == _observe(q)
        assert twin_act == act

    def test_state_is_a_flat_tuple_of_data(self):
        q = PacketQueue(4, name="q")
        q.push(_PACKETS["read"](1), 7)
        state = q.__getstate__()
        assert type(state) is tuple and len(state) == len(PacketQueue.__slots__)
        assert state[2:4] == ((q.peek(),), (7,))
        blob = pickle.dumps(q)
        assert b"deque" not in blob and b"_stamps" not in blob

    def test_dict_shaped_state_restores(self):
        q = PacketQueue(4, name="old")
        q.push(_PACKETS["mode"](5), 11)
        q.push(_PACKETS["write"](2), 12)
        old = legacy_pickle(q)
        assert b"_stamps" in old  # pickle's (None, {slot: value})
        twin = migrate.loads(old)
        assert type(twin) is PacketQueue and type(twin._q) is deque
        assert _observe(twin) == _observe(q)
        assert twin.pop() == q.peek()


_COUNTERS = ("rd_count", "wr_count", "atomic_count", "mode_count",
             "conflict_count", "issue_stall_cycles", "rsp_stall_count",
             "refresh_count")


def _vault() -> Vault:
    return Vault(3, 0, num_banks=8, bank_bytes=1 << 16, num_drams=4,
                 queue_depth=4)


class TestVault:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 1 << 30), min_size=len(_COUNTERS),
                    max_size=len(_COUNTERS)),
           st.lists(st.tuples(st.integers(0, 7), st.integers(1, 40)),
                    max_size=8))
    def test_counters_and_busy_state_round_trip(self, counters, accesses):
        vault = _vault()
        for name, value in zip(_COUNTERS, counters):
            setattr(vault, name, value)
        for bank, busy in accesses:
            vault.banks[bank].occupy(10, busy)
        vault.rqst.push(_PACKETS["read"](9), 10)
        twin = pickle.loads(pickle.dumps(vault))
        for name in _COUNTERS + ("vault_id", "quad_id", "_busy_mask",
                                 "_next_free"):
            assert getattr(twin, name) == getattr(vault, name), name
        assert _observe(twin.rqst) == _observe(vault.rqst)
        assert all(b._owner is twin for b in twin.banks)
        for cycle in (10, 11, 25, 50):
            assert twin._busy_state(cycle) == vault._busy_state(cycle)

    def test_dict_shaped_state_restores(self):
        vault = _vault()
        vault.rd_count = 17
        vault.banks[2].occupy(0, 9)
        old = legacy_pickle(vault)
        assert b"_busy_mask" in old  # pickle's (None, {slot: value})
        twin = migrate.loads(old)
        assert type(twin) is Vault and twin.rd_count == 17
        assert all(type(b) is Bank and b._owner is twin for b in twin.banks)
        assert twin._busy_state(5) == vault._busy_state(5) == 1 << 2


# -- whole simulations -------------------------------------------------------

_DEVICE = DeviceConfig(num_links=4, num_banks=8, capacity=2)


def _busy_sim() -> HMCSim:
    """A simulation with requests still queued in crossbars and vaults."""
    sim = HMCSim(SimConfig(device=_DEVICE))
    for link in range(_DEVICE.num_links):
        sim.attach_host(0, link)
    Host(sim, seed=3).run(
        [(CMD.WR16, a * 64, [a, a]) for a in range(48)], cub=0, drain=False
    )
    return sim


def test_restored_queues_stay_bound_to_their_devices_sets():
    sim = _busy_sim()
    twin = restore(snapshot(sim))
    assert any(d.act_vault_rqst or d.act_xbar_rqst for d in twin.devices)
    for dev in twin.devices:
        for v in dev.vaults:
            assert v.rqst._act_set is dev.act_vault_rqst
            assert v.rsp._act_set is dev.act_vault_rsp
        for x in dev.xbars:
            assert x.rqst._act_set is dev.act_xbar_rqst
    assert twin.stats() == sim.stats()


@pytest.mark.parametrize("cls", [PacketQueue, Vault])
def test_wrong_length_state_is_a_checkpoint_error(cls, monkeypatch):
    sim = _busy_sim()
    flat = cls.__getstate__
    monkeypatch.setattr(cls, "__getstate__", lambda self: flat(self)[:-1])
    blob = snapshot(sim)
    monkeypatch.undo()
    with pytest.raises(CheckpointError, match="corrupt"):
        restore(blob)
