"""Checkpoint format compatibility: blobs older trees wrote.

``tests/fixtures/pre_flat_core_snapshot.bin`` was produced by
``tests/fixtures/gen_pre_flat_core.py`` on the tree *before* the
flat-core overhaul replaced ``Bank``'s dict-of-atoms pickle with the
paged ``_storage_v2`` codec.  Restoring it on the current tree and
replaying the recorded continuation must reproduce the committed
observables bit-for-bit: old blobs load into the array-backed storage
and resume identically.

``tests/fixtures/page4k_snapshot.bin`` (``gen_page4k.py``) is the same
mid-flight simulation written by the last tree whose banks used 4 KiB
pages: its banks must keep that page size — a bank never mixes sizes —
through restore, delta epochs and the same continuation.
"""

from __future__ import annotations

import itertools
import json
import os

import pytest

from repro.core.bank import Bank, PAGE_ATOMS
from repro.core.checkpoint import (
    PageStore,
    _banks,
    restore_bundle,
    snapshot_bundle,
)
from repro.packets import packet as packet_mod
from repro.packets.commands import CMD
from tests.fixtures import gen_page4k
from tests.fixtures.gen_pre_flat_core import (
    BLOB_PATH,
    EXPECT_PATH,
    run_continuation,
)

#: Keys of an expect JSON that describe the snapshot, not the continuation.
_SNAPSHOT_KEYS = ("blob_bytes", "snapshot_cycle", "page_words")



@pytest.fixture(scope="module")
def fixture_blob():
    if not (os.path.exists(BLOB_PATH) and os.path.exists(EXPECT_PATH)):
        pytest.skip("pre-flat-core fixture not present")
    with open(BLOB_PATH, "rb") as fh:
        blob = fh.read()
    with open(EXPECT_PATH) as fh:
        expect = json.load(fh)
    return blob, expect


class TestPreFlatCoreBlob:
    def test_blob_is_the_committed_artifact(self, fixture_blob):
        blob, expect = fixture_blob
        assert len(blob) == expect["blob_bytes"]
        # The committed blob predates _storage_v2; if a regenerated
        # (new-format) blob ever replaces it, this test stops proving
        # anything — fail loudly instead.
        assert b"_storage_v2" not in blob
        assert b"_blocks" in blob

    def test_restores_into_paged_storage(self, fixture_blob):
        blob, expect = fixture_blob
        sim, hosts = restore_bundle(blob)
        assert sim.clock_value == expect["snapshot_cycle"]
        banks = _banks(sim)
        assert all(isinstance(b, Bank) for b in banks)
        # Phase A was write-heavy: restored content must be non-empty
        # and live in the paged arrays, not a legacy dict.
        assert any(b._pages for b in banks)
        assert not any(hasattr(b, "_blocks") for b in banks)
        touched = sum(len(b.touched_atoms()) for b in banks)
        assert touched > 0

    def test_continuation_replays_bit_identically(self, fixture_blob):
        blob, expect = fixture_blob
        sim, (host,) = restore_bundle(blob)
        got = run_continuation(sim, host)
        for key, want in expect.items():
            # Snapshot keys are covered by the tests above.
            if key not in _SNAPSHOT_KEYS:
                assert got[key] == want, key


@pytest.fixture(scope="module")
def page4k():
    with open(gen_page4k.BLOB_PATH, "rb") as fh:
        blob = fh.read()
    with open(gen_page4k.EXPECT_PATH) as fh:
        return blob, json.load(fh)


class TestPage4kBlob:
    def test_blob_is_the_committed_artifact(self, page4k):
        blob, expect = page4k
        assert len(blob) == expect["blob_bytes"]
        assert b"_storage_v2" in blob
        # Today's banks use another page size, or this proves nothing.
        assert expect["page_words"] == [512] and PAGE_ATOMS * 2 != 512

    def test_restored_banks_keep_their_4k_pages(self, page4k):
        blob, expect = page4k
        sim, (host,) = restore_bundle(blob)
        assert sim.clock_value == expect["snapshot_cycle"]
        assert {b._page_words for b in _banks(sim)} == {512}
        assert sum(len(b.touched_atoms()) for b in _banks(sim)) > 0
        got = run_continuation(sim, host)
        # Pages written after the restore are 4 KiB pages too.
        assert {b._page_words for b in _banks(sim)} == {512}
        assert all(
            words.shape == (512,) and touched.shape == (256,)
            for b in _banks(sim) for _, words, touched in b.export_storage()
        )
        for key, want in expect.items():
            if key not in _SNAPSHOT_KEYS:
                assert got[key] == want, key

    @staticmethod
    def _epoch_crash(blob, store):
        """Restore, full epoch, traffic, delta epoch, traffic left in
        flight, crash back onto the delta epoch, continuation."""
        packet_mod._packet_serial = itertools.count(1 << 19)
        sim, (host,) = restore_bundle(blob)
        snapshot_bundle(sim, host, store=store)
        host.run(
            [(CMD.WR64, a * 4096 + 64, [a] * 8) for a in range(200)], cub=0
        )
        epoch = snapshot_bundle(sim, host, store=store)
        host.run(
            [(CMD.WR16, a * 4096, [a, a]) for a in range(300)],
            cub=0, drain=False,
        )
        sim, (host,) = restore_bundle(epoch, store=store)
        assert {b._page_words for b in _banks(sim)} == {512}
        return run_continuation(sim, host)

    def test_delta_epochs_on_4k_banks_equal_the_full_codec(self, page4k):
        blob, _ = page4k
        assert self._epoch_crash(blob, PageStore()) == self._epoch_crash(
            blob, None
        )
