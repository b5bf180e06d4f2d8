"""Tests for occupancy sampling and checkpoint/restore."""

import hashlib

import numpy as np
import pytest

from repro.analysis.occupancy import OccupancySampler, sample_run
from repro.core.checkpoint import (
    MAGIC,
    load,
    restore,
    restore_bundle,
    save,
    snapshot,
    snapshot_bundle,
)
from repro.core.errors import CheckpointError
from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.packets.commands import CMD
from repro.packets.packet import build_memrequest
from repro.topology.builder import build_simple
from repro.trace.events import EventType
from repro.trace.tracer import MemorySink
from repro.workloads.random_access import RandomAccessConfig, random_access_requests
from repro.workloads.stride import stride_requests
from tests.checkpoint_blobs import frame


def mk_sim():
    return build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2))


class TestOccupancySampler:
    def test_samples_accumulate(self):
        sim = mk_sim()
        sampler = OccupancySampler(sim)
        for _ in range(5):
            sim.clock()
            sampler.sample()
        assert sampler.samples == 5
        assert sampler.vault_matrix().shape == (5, 16)
        assert sampler.xbar_matrix().shape == (5, 4)
        assert len(sampler.cycles()) == 5

    def test_growth_beyond_initial(self):
        sim = mk_sim()
        sampler = OccupancySampler(sim, initial=4)
        for _ in range(20):
            sampler.sample()
        assert sampler.samples == 20

    def test_occupancy_reflects_queued_traffic(self):
        sim = mk_sim()
        sampler = OccupancySampler(sim)
        for i in range(8):
            sim.send(build_memrequest(0, 0x40 * i, i, CMD.RD64, link=0))
        sampler.sample()
        assert sampler.xbar_matrix()[0, 0] == 8  # all in link 0's queue

    def test_sample_run_end_to_end(self):
        sim = mk_sim()
        cfg = RandomAccessConfig(num_requests=512)
        res, sampler = sample_run(sim, random_access_requests(2 << 30, cfg))
        assert res.responses_received == 512
        assert sampler.samples == res.cycles
        assert sampler.peak_vault_occupancy() > 0
        assert 0 <= sampler.hottest_vault() < 16
        assert sampler.mean_vault_occupancy() >= 0

    def test_render_heatmap(self):
        sim = mk_sim()
        cfg = RandomAccessConfig(num_requests=256)
        _, sampler = sample_run(sim, random_access_requests(2 << 30, cfg))
        text = sampler.render_heatmap()
        assert "vault  0 |" in text
        assert text.count("|") == 32  # 16 vaults x 2 pipes

    @pytest.mark.parametrize("stream, every, host_kwargs, want", [
        (lambda: random_access_requests(
            2 << 30, RandomAccessConfig(num_requests=512)), 1, {},
         (512, 0, 92, 0, 15035, 92, 6075, 8448,
          "64dd9fcf9fc41a7d", "066f41a58de6699d", "036fb078c6374caa")),
        (lambda: random_access_requests(
            2 << 30, RandomAccessConfig(num_requests=1024, read_fraction=0.5,
                                        seed=5)), 2, {"max_outstanding": 8},
         (1024, 0, 251, 18, 6366, 126, 1746, 924,
          "b40ce958bd084b66", "90fd97baabe787f3", "0fd3f96c660a2153")),
        (lambda: stride_requests(2 << 30, 128, stride_bytes=16 * 64),
         3, {},
         (128, 0, 169, 0, 10944, 57, 2644, 1004,
          "b8eecfd004b43d82", "bfa06db7c008cf3e", "c01971e007dc0f22")),
    ], ids=["random", "stalling", "stride"])
    def test_sample_run_pinned(self, stream, every, host_kwargs, want):
        """The run and both matrices equal those of the hand-copied
        sampling loop ``sample_run`` was before it became ``Host.run``
        on a sampling host (the digests are sha256 prefixes)."""
        def digest(array):
            return hashlib.sha256(array.tobytes()).hexdigest()[:16]

        res, s = sample_run(mk_sim(), stream(), every=every, **host_kwargs)
        assert res.requests_sent == res.responses_received
        assert (res.responses_received, res.errors_received, res.cycles,
                res.send_stall_cycles, sum(res.latencies), s.samples,
                int(s.vault_matrix().sum()), int(s.xbar_matrix().sum()),
                digest(s.vault_matrix()), digest(s.xbar_matrix()),
                digest(s.cycles())) == want

    def test_empty_sampler(self):
        sampler = OccupancySampler(mk_sim())
        assert sampler.peak_vault_occupancy() == 0
        assert sampler.hottest_vault() == -1
        assert sampler.render_heatmap() == "(no samples)"


class TestCheckpoint:
    def _advance(self, sim, n, offset=0):
        for i in range(n):
            sim.send(build_memrequest(0, (offset + i) * 64, i % 512, CMD.RD64,
                                      link=i % 4))
            sim.clock()
        sim.clock(5)

    def test_snapshot_restore_preserves_state(self):
        sim = mk_sim()
        self._advance(sim, 10)
        blob = snapshot(sim)
        sim2 = restore(blob)
        assert sim2.clock_value == sim.clock_value
        assert sim2.packets_sent == sim.packets_sent
        assert sim2.stats() == sim.stats()

    def test_restored_run_continues_identically(self):
        """Determinism across checkpoint: original and restored sims
        produce identical futures."""
        a = mk_sim()
        self._advance(a, 20)
        blob = snapshot(a)
        b = restore(blob)
        # Drive both with the identical continuation.
        for sim in (a, b):
            self._advance(sim, 15, offset=1000)
            sim.recv_all()
        assert a.stats() == b.stats()
        assert a.clock_value == b.clock_value

    def test_snapshot_keeps_original_tracer(self):
        sim = mk_sim()
        sink = sim.trace_to_memory(EventType.STANDARD)
        self._advance(sim, 3)
        events_before = len(sink.events)
        snapshot(sim)
        # The live sim still traces through its original sink.
        self._advance(sim, 3)
        assert len(sink.events) > events_before

    def test_restored_tracer_is_sinkless_with_mask(self):
        sim = mk_sim()
        sim.trace_to_memory(EventType.FIGURE5)
        sim2 = restore(snapshot(sim))
        assert sim2.tracer.mask == EventType.FIGURE5
        assert sim2.tracer.sinks == []
        sim2.add_trace_sink(MemorySink())  # and sinks reattach fine
        sim2.clock()

    def test_memory_contents_survive(self):
        sim = mk_sim()
        sim.send(build_memrequest(0, 0x4000, 1, CMD.WR64,
                                  payload=[7] * 8, link=0))
        sim.clock(10)
        sim.recv_all()
        sim2 = restore(snapshot(sim))
        sim2.send(build_memrequest(0, 0x4000, 2, CMD.RD64, link=0))
        sim2.clock(10)
        assert list(sim2.recv().payload) == [7] * 8

    def test_bundle_preserves_shared_references(self):
        sim = mk_sim()
        host = Host(sim)
        host.run([(CMD.RD64, i * 64, None) for i in range(16)])
        blob = snapshot_bundle(sim, host)
        sim2, (host2,) = restore_bundle(blob)
        assert host2.sim is sim2  # shared reference survived
        res = host2.run([(CMD.RD64, i * 64, None) for i in range(16)])
        assert res.responses_received == 16

    def test_save_load_file(self, tmp_path):
        sim = mk_sim()
        self._advance(sim, 5)
        path = tmp_path / "ckpt.bin"
        save(sim, str(path))
        sim2 = load(str(path))
        assert sim2.clock_value == sim.clock_value

    def test_restore_rejects_garbage(self):
        import pickle
        with pytest.raises(CheckpointError):
            restore(pickle.dumps({"not": "a sim"}))


class TestBlobHeader:
    """Satellite: versioned magic header + typed CheckpointError."""

    def test_snapshot_starts_with_magic(self):
        assert snapshot(mk_sim()).startswith(MAGIC)
        assert snapshot_bundle(mk_sim()).startswith(MAGIC)

    def test_restore_rejects_missing_magic(self):
        import pickle
        with pytest.raises(CheckpointError, match="bad magic"):
            restore(pickle.dumps(mk_sim.__name__))

    def test_restore_rejects_wrong_version(self):
        blob = snapshot(mk_sim())
        bad = MAGIC[:-1] + bytes([MAGIC[-1] + 1]) + blob[len(MAGIC):]
        with pytest.raises(CheckpointError, match="version"):
            restore(bad)

    def test_restore_rejects_truncated_payload(self):
        blob = snapshot(mk_sim())
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            restore(blob[: len(blob) // 2])

    def test_restore_rejects_short_blob(self):
        with pytest.raises(CheckpointError, match="truncated"):
            restore(MAGIC[:4])

    def test_restore_rejects_non_bytes(self):
        with pytest.raises(CheckpointError, match="expected bytes"):
            restore({"not": "bytes"})

    def test_restore_bundle_rejects_non_bundle(self):
        # A valid *snapshot* blob is not a valid *bundle* blob.
        with pytest.raises(CheckpointError, match="bundle"):
            restore_bundle(snapshot(mk_sim()))

    def test_wrong_payload_type_is_checkpoint_error(self):
        import pickle
        with pytest.raises(CheckpointError, match="HMCSim"):
            restore(frame(pickle.dumps({"not": "a sim"})))

    def test_payload_naming_a_deleted_module_is_checkpoint_error(
        self, monkeypatch
    ):
        """A blob written by a sim on the (deleted) sharded engine
        references ``repro.parallel.engine``: typed error, no crash."""
        import pickle
        import sys
        import types

        mod = types.ModuleType("repro.parallel.engine")
        mod.ParallelClockEngine = type(
            "ParallelClockEngine", (), {"__module__": mod.__name__}
        )
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
        payload = pickle.dumps(mod.ParallelClockEngine())
        monkeypatch.delitem(sys.modules, mod.__name__)
        with pytest.raises(CheckpointError, match="repro.parallel.engine"):
            restore(frame(payload))

    def test_checkpoint_error_is_typed(self):
        from repro.core.errors import E_INVAL, HMCError
        assert issubclass(CheckpointError, HMCError)
        assert CheckpointError.errno == E_INVAL

    def test_save_load_round_trips_header(self, tmp_path):
        sim = mk_sim()
        path = tmp_path / "ckpt.bin"
        save(sim, str(path))
        assert path.read_bytes().startswith(MAGIC)
        assert load(str(path)).clock_value == sim.clock_value
