"""Delta checkpoints: the page store, deferred epochs, hostile inputs.

* the page-store path (``snapshot_bundle(..., store=)``) is the full
  codec with storage diverted: under random interleavings of writes /
  BWR / ADD16 traffic, bank wipes, epochs and crash-restores it leaves storage, cycle count
  and continued-run trace bytes identical to full ``snapshot_bundle`` →
  ``restore_bundle`` at the same points;
* on an ECC device (fault injection, stuck cells, patrol scrub) the
  same holds against the uninterrupted run too, and a restored bank is
  one object to its vault, its ``BankRas`` and its DRAM leaves;
* a shard takes at most one epoch per pump however many leases,
  retirements and interval ticks made it due, and a crash at the very
  next pump restores the post-lease membership;
* a skeleton blob or page store that does not belong together raises
  :class:`~repro.core.errors.CheckpointError`, never a raw error — the
  store's bank states and the manifest's bank-per-vault shape included,
  and so does a blob with a flipped bit or a hollow device graph;
* no bank enters a non-ECC epoch blob, and the ``serve128_armed`` epoch
  stays under 15,000 bytes.
"""

from __future__ import annotations

import hashlib
import io
import pickle

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.bank import Bank
from repro.core.checkpoint import (
    MAGIC,
    PageStore,
    restore,
    restore_bundle,
    snapshot,
    snapshot_bundle,
)
from repro.core.config import DeviceConfig, SimConfig
from repro.core.errors import CheckpointError
from repro.core.simulator import HMCSim
from repro.faults.chaos import ChaosEvent
from repro.host.host import Host
from repro.packets.commands import CMD
from repro.service import ServiceConfig, TenantSpec
from repro.service.accounting import TenantAccount
from repro.service.sessions import SessionPool
from repro.service.shard import Shard
from repro.trace.binfmt import BinarySink
from repro.trace.events import EventType
from tests import checkpoint_fuzz
from tests.checkpoint_blobs import frame, payload

_DEVICE = DeviceConfig(num_links=4, num_banks=8, capacity=2)
_WORD = st.integers(min_value=0, max_value=(1 << 64) - 1)


def _build():
    sim = HMCSim(SimConfig(device=_DEVICE))
    for link in range(_DEVICE.num_links):
        sim.attach_host(0, link)
    return sim, Host(sim, seed=3)


def _banks(sim):
    return [b for d in sim.devices for v in d.vaults for b in v.banks]


def _storage_sha(sim) -> str:
    h = hashlib.sha256()
    for i, bank in enumerate(_banks(sim)):
        for pg, words, touched in bank.export_storage():
            h.update(f"{i}/{pg}:".encode())
            h.update(words.tobytes())
            h.update(touched.tobytes())
    return h.hexdigest()


# -- the property: delta path == full codec ----------------------------------

# Two narrow address windows a page apart (32 banks x 2 pages), so
# writes keep revisiting (re-dirtying) pages already in the store as
# well as materialising new ones.
_ADDR = st.one_of(
    st.integers(0, 127), st.integers(1 << 20, (1 << 20) + 127)
).map(lambda a: a * 16)

_REQUEST = st.one_of(
    st.tuples(st.just(CMD.WR16), _ADDR, st.lists(_WORD, min_size=2, max_size=2)),
    st.tuples(st.just(CMD.WR64), _ADDR.map(lambda a: a & ~0x3F),
              st.lists(_WORD, min_size=8, max_size=8)),
    st.tuples(st.just(CMD.BWR), _ADDR,
              st.tuples(_WORD, st.integers(0, 0xFF)).map(list)),
    st.tuples(st.just(CMD.ADD16), _ADDR,
              st.lists(_WORD, min_size=2, max_size=2)),
    st.tuples(st.just(CMD.RD16), _ADDR, st.none()),
)

# One round: some traffic (drained or left in flight), maybe a bank
# wipe aimed where traffic lands, then an epoch, a crash, or neither —
# weighted so epoch → dirty → epoch → dirty → crash chains are common.
_ROUND = st.tuples(
    st.lists(_REQUEST, min_size=1, max_size=8),
    st.booleans(),
    st.none() | _ADDR,
    st.sampled_from(["epoch", "epoch", "crash", "crash", "none"]),
)

_CONTINUATION = [
    (CMD.WR16 if i % 3 else CMD.RD16, (i * 7 % 1024) * 16,
     None if i % 3 == 0 else [i, i + 1])
    for i in range(96)
]


def _play(rounds, delta: bool) -> dict:
    """Run *rounds* on a fresh lineage, checkpointing through a page
    store (*delta*) or the self-contained codec, then a traced
    continuation."""
    # Serials travel in the blob: the crash resumes the epoch's counter.
    sim, host = _build()
    store = PageStore() if delta else None
    epoch = None
    for requests, drain, wipe, action in rounds:
        host.run(requests, cub=0, drain=drain)
        if wipe is not None:
            d = sim.devices[0].amap.decode(wipe)
            sim.devices[0].vaults[d.vault].banks[d.bank].reset()
        if action == "epoch":
            epoch = snapshot_bundle(sim, host, store=store)
        elif action == "crash" and epoch is not None:
            sim, (host,) = restore_bundle(epoch, store=store)
    obs = {"cycle": sim.clock_value, "storage": _storage_sha(sim)}
    buf = io.BytesIO()
    sim.set_trace_mask(EventType.STANDARD)
    sim.add_trace_sink(BinarySink(buf, num_vaults=_DEVICE.num_vaults))
    run = host.run(_CONTINUATION, cub=0)
    sim.tracer.flush()
    obs.update(
        final_cycle=sim.clock_value,
        responses=run.responses_received,
        trace=hashlib.sha256(buf.getvalue()).hexdigest(),
        final_storage=_storage_sha(sim),
    )
    return obs


class TestDeltaEqualsFullCodec:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_ROUND, min_size=1, max_size=10))
    def test_random_interleavings(self, rounds):
        assert _play(rounds, delta=True) == _play(rounds, delta=False)

    def test_epoch_crash_epoch_crash(self):
        # The shape the shard runs, pinned: a full export, a crash, a
        # full export (new sim object), a delta epoch with a bank wiped
        # since the last one, writes to the delta-copied page, a crash,
        # and a second crash onto the same epoch.
        wr = lambda a, v: (CMD.WR16, a * 16, [v, v])  # noqa: E731
        rounds = [
            ([wr(1, 1), wr(70000, 2)], False, None, "epoch"),
            ([wr(1, 3), wr(5, 4)], True, None, "crash"),
            ([wr(9, 5), wr(70000, 5)], True, None, "epoch"),
            ([wr(1, 6)], True, 70000 * 16, "epoch"),
            ([wr(1, 7), wr(5, 8)], True, None, "crash"),
            ([wr(4, 9)], True, None, "crash"),
        ]
        assert _play(rounds, delta=True) == _play(rounds, delta=False)

    def test_second_epoch_copies_only_dirty_pages(self):
        sim, host = _build()
        store = PageStore()
        host.run([(CMD.WR16, a * 64, [a, a]) for a in range(64)], cub=0)
        snapshot_bundle(sim, host, store=store)
        before = {
            (i, pg): image[pg][0]
            for i, image in enumerate(store.pages) for pg in image
        }
        marker = 0xA5C30F1ED2B49687
        host.run([(CMD.WR16, 0, [marker, 9])], cub=0)
        blob = snapshot_bundle(sim, host, store=store)
        replaced = [
            key for key, words in before.items()
            if store.pages[key[0]][key[1]][0] is not words
        ]
        assert len(before) > 8 and len(replaced) == 1
        assert not any(b._dirty for b in _banks(sim))
        # ... and the skeleton carries no page bytes at all: the stored
        # marker is in the self-contained blob only.
        raw = marker.to_bytes(8, "little")
        assert raw in snapshot_bundle(sim, host) and raw not in blob

    def test_full_snapshot_unaffected_by_a_store_elsewhere(self):
        # The divert is per-Pickler: a self-contained snapshot taken
        # after (or between) delta snapshots still carries its pages.
        sim, host = _build()
        host.run([(CMD.WR16, 64, [5, 6])], cub=0)
        snapshot_bundle(sim, host, store=PageStore())
        sim2, _ = restore_bundle(snapshot_bundle(sim, host))
        assert _storage_sha(sim2) == _storage_sha(sim)


class TestBankPickle:
    def test_dram_leaves_travel_as_a_count(self):
        bank = Bank(3, 1 << 20, num_drams=8)
        bank.write(0, [1, 2])
        blob = pickle.dumps(bank)
        assert b"DRAM" not in blob
        back = pickle.loads(blob)
        assert [d.dram_id for d in back.drams] == list(range(8))
        assert all(d.bank is back for d in back.drams)
        assert back.read(0, 16) == [1, 2]
        assert back.drams[0].accesses == back.dram_access_count

    def test_pages_of_another_size_are_rejected(self):
        # The state is flat: the slots, the sorted page indices, their
        # rows as one buffer and their touched maps bit-packed.  A
        # buffer that is not whole pages of the bank's size cannot be
        # its rows (restore() turns this into a CheckpointError like any
        # other unpickling failure).
        bank = Bank(3, 1 << 20)
        bank.write(4096, [3, 4])
        bank.write(0, [1, 2])
        *slots, pages, words, touched = bank.__getstate__()
        assert tuple(slots) == Bank._ints(bank) + (None, None)
        assert pages == (0, 32) and len(words) == 2 * 16 * 8
        assert touched == bytes([0x80, 0x80])  # atom 0 of each page
        twin = pickle.loads(pickle.dumps(bank))
        assert twin.read(4096, 16) == [3, 4] and twin.touched_atoms() == [0, 256]
        with pytest.raises(ValueError, match="-word pages"):
            Bank.__new__(Bank).__setstate__((*slots, pages, words * 2, touched))
        # ... and a page size that is no size at all (a flipped bit in
        # a skeleton: 8-atom pages are 0x10 words) is refused by the
        # restore's check against the config.
        sim, _ = _build()
        _banks(sim)[7]._page_words = 0
        with pytest.raises(CheckpointError, match="bank #7: bank page size of 0"):
            restore(snapshot(sim))


# -- ECC devices: the skeleton keeps each BankRas, the store its bank ---------

_ECC_DEVICE = DeviceConfig(num_links=4, num_banks=8, capacity=2,
                           ecc_enabled=True)

_ECC_TRAFFIC = [
    (CMD.WR64, (i * 37 % 512) * 64, [i + 1] * 8) if i % 4 else
    (CMD.RD64, (i * 11 % 512) * 64, None)
    for i in range(240)
]
_ECC_LOST = [(CMD.WR16, (i * 5 % 300) * 64, [i, i]) for i in range(120)]
_ECC_CONTINUATION = [
    (CMD.RD64, (i * 37 % 512) * 64, None) if i % 3 else
    (CMD.WR16, (i * 13 % 512) * 64, [i, ~i & 0xFFFF])
    for i in range(300)
]


def _ecc_play(mode: str):
    """Full epoch → traffic → delta epoch (packets in flight) → traffic
    the crash loses → crash-restore → continuation; ``mode`` picks the
    page-store codec, the self-contained one, or no interruption."""
    sim = HMCSim(SimConfig(
        device=_ECC_DEVICE, ras_seed=11, ras_fit_rate=1e6,
        ras_stuck_cells=6, ras_scrub_interval=16,
    ))
    for link in range(_ECC_DEVICE.num_links):
        sim.attach_host(0, link)
    host = Host(sim, seed=3)
    _banks(sim)[5]._page_words = 512  # an (empty) 4 KiB-page bank
    store = PageStore() if mode == "delta" else None
    if mode != "uninterrupted":
        snapshot_bundle(sim, host, store=store)
    host.run(_ECC_TRAFFIC, cub=0, drain=False)
    assert sim.in_flight > 0
    if mode != "uninterrupted":
        epoch = snapshot_bundle(sim, host, store=store)
        host.run(_ECC_LOST, cub=0, drain=False)
        sim, (host,) = restore_bundle(epoch, store=store)
    run = host.run(_ECC_CONTINUATION, cub=0)
    banks = _banks(sim)
    return sim, {
        "cycles": sim.clock_value,
        "responses": (run.responses_received, host.received, host.errors),
        "stats": sim.stats(),
        "stage_counts": list(sim.engine.stage_counts),
        "bank_ints": [Bank._ints(b) for b in banks],
        "touched": [b.touched_atoms() for b in banks],
        "checks": [dict(b.ras.checks) for b in banks],
        "storage": _storage_sha(sim),
    }


class TestEccDeltaEpochs:
    def test_delta_equals_full_codec_equals_uninterrupted(self):
        sim, delta = _ecc_play("delta")
        _, full = _ecc_play("full")
        _, straight = _ecc_play("uninterrupted")
        for key in straight:
            assert delta[key] == full[key] == straight[key], key
        # The run did exercise the RAS layer, and the epoch it crashed
        # onto was a delta on top of a full one.
        ras = sim.devices[0].ras
        assert ras.scrubber.atoms_scrubbed > 0 and sum(
            len(c) for c in delta["checks"]) > 0
        # One object per bank: the vault's, its BankRas's, its DRAMs'.
        for vault in sim.devices[0].vaults:
            for bank in vault.banks:
                assert bank.ras.bank is bank
                assert bank._owner is vault
                assert vault.banks[bank.bank_id] is bank
                assert all(d.bank is bank for d in bank.drams)
        assert [b._page_words for b in _banks(sim)].count(512) == 1
        assert _banks(sim)[5]._page_words == 512

    def test_ecc_skeleton_carries_hollow_banks_only(self):
        sim, _ = _ecc_play("uninterrupted")
        host = Host(sim)
        marker = 0xA5C30F1ED2B49687
        host.run([(CMD.WR16, 0, [marker, 9])], cub=0)
        blob = snapshot_bundle(sim, host, store=PageStore())
        assert b"repro.core.bank" in blob and b"BankRas" in blob
        assert marker.to_bytes(8, "little") not in blob
        assert b"busy_until" not in blob and b"_storage_v2" not in blob


# -- the shard: one deferred epoch per pump ----------------------------------


def _service_config(**overrides) -> ServiceConfig:
    base = dict(device=_DEVICE, devs_per_shard=2, slots_per_shard=2,
                max_shards=1, provision_requests=32)
    base.update(overrides)
    return ServiceConfig(**base)


def _stream(n, base=0):
    return iter([(CMD.WR16, (base + i) * 64, [i, i]) for i in range(n)])


def _lease(shard, name, n, base=0):
    acct = TenantAccount(name)
    shard.lease(TenantSpec(name, _stream(n, base)), acct)
    return acct


def _shard(**overrides) -> Shard:
    config = _service_config(**overrides)
    sim, _ = SessionPool(config).spin_up()
    return Shard(0, sim, config)


def _pump_until_retired(shard) -> int:
    while not shard.pump_until(1):
        assert shard.cycles_pumped < 10_000
    return shard.cycles_pumped


class TestDeferredEpoch:
    def test_triggers_on_one_cycle_take_one_epoch(self):
        # Find the pump on which tenant "a" retires, then make the
        # interval tick land on that very cycle.
        probe = _shard(checkpoint_interval=1 << 20)
        _lease(probe, "a", 8)
        retire_at = _pump_until_retired(probe)

        shard = _shard(checkpoint_interval=retire_at)
        a = _lease(shard, "a", 8)
        epochs = lambda: shard._page_store.generation  # noqa: E731
        assert epochs() == 0  # the lease only marked it due
        shard.pump_until(1)
        assert epochs() == 1
        assert _pump_until_retired(shard) == retire_at
        assert epochs() == 1 and shard._epoch_due
        # Retirement + interval tick + two leases, all before one pump.
        b = _lease(shard, "b", 8, base=100)
        c = _lease(shard, "c", 8, base=200)
        assert epochs() == 1
        shard.install_chaos([ChaosEvent(at=retire_at, kind="shard_crash")])
        shard.pump_until(1)  # takes the one epoch, then the crash fires
        assert epochs() == 2
        assert shard.crashes == shard.recoveries == 1
        event = shard.recovery_events[-1]
        assert event["restored_to"] == retire_at
        assert event["replay_cycles"] == 0
        assert event["replayed_requests"] == 0
        # Post-lease membership: b and c are back, a stays retired.
        assert sorted(shard.sessions) == [0, 1]
        assert {s.spec.tenant_id for s in shard.sessions.values()} == {"b", "c"}
        assert all(s.host.sim is shard.sim for s in shard.sessions.values())
        done = []
        while shard.busy:
            done += shard.pump_until(1)
            assert shard.cycles_pumped < 10_000
        assert {s.spec.tenant_id for s in done} == {"b", "c"}
        for acct in (a, b, c):
            assert acct.status == "done"
            assert acct.requests_sent == acct.responses == 8
        assert a.crash_recoveries == 0 and b.crash_recoveries == 1

    def test_disarmed_shard_never_takes_an_epoch(self):
        shard = _shard()
        _lease(shard, "a", 8)
        _pump_until_retired(shard)
        assert shard._page_store.generation == 0 and shard._epoch is None

    def test_latencies_rewind_to_the_epoch(self):
        shard = _shard(checkpoint_interval=8)
        acct = _lease(shard, "a", 64)
        while shard.cycles_pumped < 20:  # epochs at pumps 1, 9 and 17
            shard.pump_until(1)
        assert shard._epoch["cycles_pumped"] == 16
        at_epoch = shard._epoch["accounts"][0]["latencies"]
        assert 0 < at_epoch < len(acct.latencies)
        kept = list(acct.latencies[:at_epoch])
        shard._crash("test")
        assert acct.latencies == kept
        _pump_until_retired(shard)
        assert acct.responses == 64 == len(acct.latencies)


# -- hostile inputs ----------------------------------------------------------


@pytest.fixture
def delta_epoch():
    sim, host = _build()
    host.run([(CMD.WR16, a * 64, [a, a]) for a in range(32)], cub=0)
    store = PageStore()
    return snapshot_bundle(sim, host, store=store), store


class TestHostileInputs:
    def test_round_trip_baseline(self, delta_epoch):
        blob, store = delta_epoch
        sim, (host,) = restore_bundle(blob, store=store)
        assert host.sim is sim and any(b._pages for b in _banks(sim))

    @pytest.mark.parametrize("keep", [0, 4, len(MAGIC), 64, 0.5, -1])
    def test_truncated_skeleton(self, delta_epoch, keep):
        blob, store = delta_epoch
        cut = int(len(blob) * keep) if isinstance(keep, float) else keep
        with pytest.raises(CheckpointError):
            restore_bundle(blob[:cut], store=store)

    def test_bit_flipped_skeleton(self, delta_epoch):
        # A flipped bit either breaks the stream (typed error) or lands
        # in a value and restores; it never leaks a raw exception.
        blob, store = delta_epoch
        typed = 0
        for pos in range(0, len(blob), max(1, len(blob) // 97)):
            bad = bytearray(blob)
            bad[pos] ^= 0x10
            try:
                restore_bundle(bytes(bad), store=store)
            except CheckpointError:
                typed += 1
        assert typed > 0

    def test_strided_bit_flips_restore_or_raise_checkpoint_error(self):
        # Every 17th byte of a skeleton and of a full blob, one bit per
        # byte rotating through all eight, each flip both as it is (the
        # CRC refuses it) and re-stamped (the decoder sees it), and
        # every 1999th byte of the v1 fixture, which has no CRC (~5 s).
        # `python -m tests.checkpoint_fuzz` flips every bit of every byte.
        for name, blob, restore_fn in checkpoint_fuzz.blobs():
            typed, restored, failures = checkpoint_fuzz.flip(
                blob, restore_fn, stride=17, rotate=True
            )
            assert not failures, (name, dict(failures))
            assert typed > 0 and restored > 0, name
        typed, _, failures = checkpoint_fuzz.flip(
            checkpoint_fuzz.fixture_blob(), restore_bundle, stride=1999,
            rotate=True, stamp=None,
        )
        assert not failures, dict(failures)
        assert typed > 0

    def test_hollow_simulation(self, delta_epoch):
        # A sim whose device / vault graph is missing or damaged fails
        # before anything walks it (tracer holders, the page store).
        hollow = HMCSim.__new__(HMCSim)
        with pytest.raises(CheckpointError, match="no device list"):
            restore(frame(pickle.dumps(hollow)))
        with pytest.raises(CheckpointError, match="no device list"):
            restore_bundle(frame(pickle.dumps((hollow, ()))))
        blob, store = delta_epoch

        def edit(sim, extras, manifest):
            sim.devices[0].vaults[5] = Host.__new__(Host)
            return sim, extras, tuple(manifest)

        with pytest.raises(CheckpointError, match="device 0 has no list"):
            restore_bundle(self._reforge(blob, edit), store=store)

    def test_skeleton_without_its_store(self, delta_epoch):
        blob, _ = delta_epoch
        with pytest.raises(CheckpointError, match="page store"):
            restore_bundle(blob)

    def test_self_contained_blob_with_a_store(self):
        sim, host = _build()
        with pytest.raises(CheckpointError, match="self-contained"):
            restore_bundle(snapshot_bundle(sim, host), store=PageStore())

    def test_stale_skeleton(self, delta_epoch):
        blob, store = delta_epoch
        sim, (host,) = restore_bundle(blob, store=store)
        snapshot_bundle(sim, host, store=store)  # store moves on
        with pytest.raises(CheckpointError, match="checkpoint"):
            restore_bundle(blob, store=store)

    def test_store_of_another_lineage(self, delta_epoch):
        blob, _ = delta_epoch
        with pytest.raises(CheckpointError):
            restore_bundle(blob, store=PageStore())

    def test_store_missing_a_referenced_bank(self, delta_epoch):
        blob, store = delta_epoch
        victim = next(i for i, image in enumerate(store.pages) if image)
        store.pages[victim] = {}
        with pytest.raises(CheckpointError, match=f"bank #{victim}"):
            restore_bundle(blob, store=store)
        del store.pages[-1]
        with pytest.raises(CheckpointError, match="banks"):
            restore_bundle(blob, store=store)

    def test_store_holding_a_page_for_an_unknown_bank(self, delta_epoch):
        blob, store = delta_epoch
        page = next(iter(next(im for im in store.pages if im).values()))
        store.pages.append({0: page})
        with pytest.raises(CheckpointError, match="banks"):
            restore_bundle(blob, store=store)

    def test_store_holding_an_unreferenced_page(self, delta_epoch):
        blob, store = delta_epoch
        empty = next(i for i, image in enumerate(store.pages) if not image)
        page = next(iter(next(im for im in store.pages if im).values()))
        store.pages[empty][0] = page
        with pytest.raises(CheckpointError, match=f"bank #{empty}"):
            restore_bundle(blob, store=store)

    @pytest.mark.parametrize("damage", [
        lambda w, t: (w[:-1], t),
        lambda w, t: (w, t[:-1]),
        lambda w, t: (np.concatenate([w, w]), t),
        lambda w, t: (w.astype(np.float64), t),
        lambda w, t: (w.tobytes(), t),
    ])
    def test_wrong_page_length_or_type(self, delta_epoch, damage):
        blob, store = delta_epoch
        image = next(im for im in store.pages if im)
        pg = next(iter(image))
        image[pg] = damage(*image[pg])
        with pytest.raises(CheckpointError, match="page"):
            restore_bundle(blob, store=store)

    def test_page_index_outside_the_bank(self, delta_epoch):
        blob, store = delta_epoch
        image = next(im for im in store.pages if im)
        image[1 << 40] = image.pop(next(iter(image)))
        with pytest.raises(CheckpointError, match="outside"):
            restore_bundle(blob, store=store)

    # -- the banks themselves live in the store ------------------------------

    @pytest.mark.parametrize("damage, match", [
        (lambda st: st[:-1], "bank #3"),
        (lambda st: st + (0,), "bank #3"),
        (lambda st: st[:4] + (float(st[4]),) + st[5:], "bank #3"),
        (lambda st: st[:4] + (None,) + st[5:], "bank #3"),
        (lambda st: list(st), "bank #3"),
        (lambda st: None, "bank #3"),
        (lambda st: tuple(0 if v == 16 else v for v in st), "bank #3"),
    ])
    def test_bank_state_of_the_wrong_shape_or_type(
        self, delta_epoch, damage, match
    ):
        blob, store = delta_epoch
        assert 16 in store.states[3]  # the page size, in words
        store.states[3] = damage(store.states[3])
        with pytest.raises(CheckpointError, match=match):
            restore_bundle(blob, store=store)

    def test_missing_or_surplus_bank_state(self, delta_epoch):
        blob, store = delta_epoch
        last = store.states.pop()
        with pytest.raises(CheckpointError, match="banks"):
            restore_bundle(blob, store=store)
        store.states += [last, last]
        with pytest.raises(CheckpointError, match="banks"):
            restore_bundle(blob, store=store)

    @staticmethod
    def _reforge(blob, edit) -> bytes:
        sim, extras, manifest = pickle.loads(payload(blob))
        return frame(pickle.dumps(edit(sim, extras, list(manifest))))

    @pytest.mark.parametrize("shape_of", [
        lambda shape: shape[:-1],
        lambda shape: shape + [0],
        lambda shape: [shape[0] + 1] + shape[1:],
        lambda shape: [sum(shape)] + [0] * (len(shape) - 2) + [-1, 1],
        lambda shape: [float(k) for k in shape],
        lambda shape: None,
    ])
    def test_bank_per_vault_shape_that_does_not_add_up(
        self, delta_epoch, shape_of
    ):
        blob, store = delta_epoch

        def edit(sim, extras, manifest):
            manifest[2] = shape_of(manifest[2])
            return sim, extras, tuple(manifest)

        with pytest.raises(CheckpointError, match="banks|manifest"):
            restore_bundle(self._reforge(blob, edit), store=store)

    def test_skeleton_whose_vaults_already_hold_banks(self, delta_epoch):
        blob, store = delta_epoch

        def edit(sim, extras, manifest):
            sim.devices[0].vaults[2].banks.append(Bank(0, 1 << 20))
            return sim, extras, tuple(manifest)

        with pytest.raises(CheckpointError, match=r"vaults \[2\]"):
            restore_bundle(self._reforge(blob, edit), store=store)

    def test_ecc_states_without_a_bank(self, delta_epoch):
        blob, store = delta_epoch

        def edit(sim, extras, manifest):
            manifest[3] = [object.__new__(Host)] * len(manifest[1])
            return sim, extras, tuple(manifest)

        with pytest.raises(CheckpointError, match="bank #0"):
            restore_bundle(self._reforge(blob, edit), store=store)

    def test_no_bank_enters_a_non_ecc_epoch_blob(self, delta_epoch):
        blob, _ = delta_epoch
        assert b"repro.core.bank" not in blob
        sim, host = _build()
        assert b"repro.core.bank" in snapshot_bundle(sim, host)

    def test_serve128_epoch_blob_stays_small(self):
        # The seed-1 serve128_armed shape (benchmarks/spine): 128
        # tenants x 16 requests, checkpoint interval 256, CLI defaults.
        # While the 256 banks travelled in them its 192 epoch blobs
        # read 50,331 bytes (mean), the last per shard 49,060-50,724;
        # without them 18,979 (mean), the last per shard 17,650-19,297;
        # since queues and vaults pickle flat tuples 13,542 (mean), the
        # last per shard 12,210-13,860.
        from repro.core.config import PAPER_CONFIGS
        from repro.service import MemoryService, specs_from_profiles
        from repro.workloads.mixes import tenant_mix_profiles

        config = ServiceConfig(
            device=PAPER_CONFIGS["4-Link; 8-Bank; 2GB"], link_seed=1,
            checkpoint_interval=256,
        )
        service = MemoryService(config)
        profiles = tenant_mix_profiles(128, seed=1, base_requests=16)
        service.serve_sync(specs_from_profiles(profiles, config))
        assert len(service.shards) == 4
        for shard in service.shards:
            blob = shard._epoch["blob"]
            assert len(blob) <= 15_000
            assert b"repro.core.bank" not in blob
