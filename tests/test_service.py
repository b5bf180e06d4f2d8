"""The rack-scale memory service: admission, sessions, accounting.

Covers the service subsystem's contracts end to end:

* admission units — token buckets, the G/D/1 fabric port, and the
  priority lease queue;
* the mixed-tenant scenario generator (deterministic profiles);
* full service runs — billing consistency (per-tenant integers sum
  exactly to pool counters), 128-tenant scale, priority ordering,
  overload shedding, and failure containment under forced link death;
* the determinism satellite — same mix + seeds ⇒ identical per-tenant
  accounting across repeated ``serve`` runs, and with every shard on
  the tests' full-walk reference instead of the engine;
* warm vs cold spin-up equivalence (bit-identical simulated outcome);
* the checkpoint tracer-holder regression (RAS + file sink) and
  mid-degradation restore.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.analysis.tenants import check_consistency, deterministic_view
from repro.core.config import DeviceConfig
from repro.core.errors import InitError
from repro.service import (
    AdmissionController,
    FabricPort,
    MemoryService,
    PriorityClass,
    ServiceConfig,
    SessionPool,
    TenantSpec,
    TokenBucket,
    specs_from_profiles,
)
from repro.workloads.mixes import tenant_mix_profiles, tenant_requests
from tests.reference.full_walk import ReferencePool

_DEVICE = DeviceConfig(num_links=4, num_banks=8, capacity=2)


def _config(**overrides) -> ServiceConfig:
    base = dict(
        device=_DEVICE,
        devs_per_shard=2,
        slots_per_shard=2,
        max_shards=2,
        provision_requests=32,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def _serve(num_tenants=8, seed=5, base_requests=16, pool=None,
           **overrides) -> dict:
    config = _config(**overrides)
    profiles = tenant_mix_profiles(
        num_tenants, seed=seed, base_requests=base_requests
    )
    service = MemoryService(config)
    if pool is not None:
        service.pool = pool(config)
    return service.serve_sync(specs_from_profiles(profiles, config))


class TestAdmissionUnits:
    def test_token_bucket_rate_and_burst(self):
        b = TokenBucket(rate=0.5, burst=2.0)
        assert b.ready(0)
        b.consume(0)
        b.consume(0)
        assert not b.ready(0)  # burst drained
        assert not b.ready(1)  # 0.5 tokens accrued
        assert b.ready(2)      # 1.0 token accrued
        b.consume(2)
        assert not b.ready(2)

    def test_token_bucket_zero_rate_never_throttles(self):
        b = TokenBucket(rate=0.0, burst=1.0)
        for cycle in range(100):
            assert b.ready(cycle)
            b.consume(cycle)

    def test_fabric_port_base_delay_and_queueing(self):
        port = FabricPort(base_delay=8, interval=2.0)
        # First request: pure base latency.
        assert port.admit(0) == 8
        # Back-to-back arrivals queue behind the service interval.
        assert port.admit(0) == 10
        assert port.admit(0) == 12
        # A late arrival after the queue drains pays only base delay.
        assert port.admit(100) == 108
        assert port.admitted == 4
        assert port.queued_cycles == (10 - 8) + (12 - 8)

    def test_priority_order_and_fifo_within_class(self):
        ctrl = AdmissionController(_config())
        specs = [
            TenantSpec("b0", iter(()), klass=PriorityClass.BRONZE),
            TenantSpec("g0", iter(()), klass=PriorityClass.GOLD),
            TenantSpec("b1", iter(()), klass=PriorityClass.BRONZE),
            TenantSpec("g1", iter(()), klass=PriorityClass.GOLD),
            TenantSpec("s0", iter(()), klass=PriorityClass.SILVER),
        ]
        for spec in specs:
            ctrl.register(spec, tick=0)
        order = [ctrl.next_grant(1).spec.tenant_id for _ in range(5)]
        assert order == ["g0", "g1", "s0", "b0", "b1"]
        assert ctrl.next_grant(2) is None

    def test_bounded_waiting_room_rejects(self):
        ctrl = AdmissionController(_config(max_waiting=2))
        t1 = ctrl.register(TenantSpec("a", iter(())), tick=0)
        t2 = ctrl.register(TenantSpec("b", iter(())), tick=0)
        t3 = ctrl.register(TenantSpec("c", iter(())), tick=0)
        assert not t1.rejected and not t2.rejected
        assert t3.rejected
        assert ctrl.stats()["rejected"] == 1

    def test_priority_class_parse(self):
        assert PriorityClass.parse("gold") is PriorityClass.GOLD
        assert PriorityClass.parse("SILVER") is PriorityClass.SILVER
        assert PriorityClass.parse(PriorityClass.BRONZE) is PriorityClass.BRONZE
        with pytest.raises(InitError, match="unknown priority class"):
            PriorityClass.parse("platinum")


class TestServiceConfig:
    def test_chained_shard_needs_chain_link(self):
        with pytest.raises(InitError, match="chain hop"):
            _config(slots_per_shard=4)

    def test_invalid_spin_up_mode(self):
        with pytest.raises(InitError, match="spin_up"):
            _config(spin_up="lukewarm")

    def test_total_slots(self):
        assert _config(max_shards=3, slots_per_shard=2).total_slots == 6


class TestTenantMixes:
    def test_profiles_deterministic(self):
        a = tenant_mix_profiles(32, seed=9)
        b = tenant_mix_profiles(32, seed=9)
        assert a == b
        assert tenant_mix_profiles(32, seed=10) != a

    def test_profiles_cover_classes_and_kinds(self):
        profiles = tenant_mix_profiles(64, seed=3)
        assert {p["klass"] for p in profiles} == {"gold", "silver", "bronze"}
        assert len({p["kind"] for p in profiles}) >= 3
        assert len({p["tenant_id"] for p in profiles}) == 64

    def test_profiles_validate_inputs(self):
        with pytest.raises(ValueError, match="num_tenants"):
            tenant_mix_profiles(0)
        with pytest.raises(ValueError, match="unknown tenant kind"):
            tenant_mix_profiles(4, kinds=("random", "quantum"))

    def test_tenant_requests_streams(self):
        capacity = _DEVICE.capacity_bytes
        for profile in tenant_mix_profiles(8, seed=4, base_requests=8):
            stream = list(tenant_requests(profile, capacity))
            assert len(stream) >= 8
            for _cmd, addr, _payload in stream:
                assert 0 <= addr < capacity


class TestServiceRuns:
    def test_accounting_sums_to_pool_totals(self):
        report = _serve(num_tenants=8)
        assert check_consistency(report) == []
        totals = report["accounting"]["totals"]
        assert totals["requests_sent"] > 0
        assert totals["responses"] == totals["requests_sent"]
        assert all(
            a["status"] == "done"
            for a in report["accounting"]["tenants"].values()
        )

    def test_faulty_run_attributes_retries(self):
        report = _serve(num_tenants=8, link_ber=3e-4, link_seed=5)
        assert check_consistency(report) == []
        totals = report["accounting"]["totals"]
        assert totals["hostlink_retries"] + totals["shared_retries"] > 0

    def test_128_concurrent_tenants(self):
        report = _serve(
            num_tenants=128, seed=11, base_requests=4, max_shards=4
        )
        assert check_consistency(report) == []
        assert report["admission"]["granted"] == 128
        accounts = report["accounting"]["tenants"]
        assert len(accounts) == 128
        assert all(a["status"] == "done" for a in accounts.values())

    def test_gold_granted_before_earlier_bronze(self):
        # One slot total: every grant is strictly serialised, so the
        # grant order is fully visible in the admission waits.
        config = _config(
            devs_per_shard=1, slots_per_shard=1, max_shards=1,
            provision_requests=8,
        )
        capacity = config.device.capacity_bytes

        def spec(tid, klass):
            profile = {"tenant_id": tid, "kind": "random", "requests": 8,
                       "seed": 3, "klass": klass}
            return TenantSpec(
                tid, tenant_requests(profile, capacity),
                klass=PriorityClass.parse(klass), cub=0,
            )

        report = MemoryService(config).serve_sync([
            spec("bronze-first", "bronze"),
            spec("bronze-second", "bronze"),
            spec("gold-last", "gold"),
        ])
        accounts = report["accounting"]["tenants"]
        waits = {tid: a["admission_wait_ticks"] for tid, a in accounts.items()}
        assert waits["gold-last"] == 0  # jumped the earlier bronzes
        assert waits["bronze-first"] > 0
        assert waits["bronze-first"] < waits["bronze-second"]

    def test_overload_sheds_at_the_front_door(self):
        report = _serve(
            num_tenants=6, max_waiting=2,
            devs_per_shard=1, slots_per_shard=1, max_shards=1,
        )
        # Registration is synchronous and precedes the first grant, so
        # two tenants queue and the remaining four bounce off the door.
        statuses = [a["status"]
                    for a in report["accounting"]["tenants"].values()]
        assert statuses.count("rejected") == 4
        assert statuses.count("done") == 2
        assert report["admission"]["rejected"] == 4
        assert check_consistency(report) == []

    def test_link_death_contained_to_session(self):
        # Everything dropped: links degrade to FAILED almost immediately;
        # the service must fail affected sessions, retire their slots,
        # shed unplaceable tenants, and still return a consistent report.
        report = _serve(
            num_tenants=6, seed=2, base_requests=8,
            provision_requests=0, link_drop_rate=1.0, link_seed=3,
        )
        statuses = [a["status"]
                    for a in report["accounting"]["tenants"].values()]
        assert "link_failed" in statuses
        assert all(s in ("link_failed", "no_capacity", "done")
                   for s in statuses)
        assert check_consistency(report) == []
        assert any(s["dead_slots"] for s in report["shards"])

    def test_rate_limit_throttles(self):
        config = _config(devs_per_shard=1, slots_per_shard=1, max_shards=1,
                         provision_requests=8)
        capacity = config.device.capacity_bytes
        profile = {"tenant_id": "slow", "kind": "stream", "requests": 32,
                   "seed": 1}
        spec = TenantSpec("slow", tenant_requests(profile, capacity),
                          rate=0.05, burst=1.0, cub=0)
        report = MemoryService(config).serve_sync([spec])
        acct = report["accounting"]["tenants"]["slow"]
        assert acct["status"] == "done"
        assert acct["throttle_cycles"] > 0
        # ~20 cycles/request at rate 0.05: the run is rate-bound.
        assert acct["slot_cycles"] >= 32 / 0.05 * 0.8

    def test_network_model_adds_delay(self):
        report = _serve(num_tenants=4, network_base_delay=32)
        totals = report["accounting"]["totals"]
        assert totals["network_delay_cycles"] >= 32 * totals["requests_sent"]


class TestServeDeterminism:
    """Satellite: fixed mix + seeds ⇒ identical accounting, always."""

    def test_repeat_runs_identical(self):
        a = _serve(num_tenants=12, seed=7, link_ber=2e-4, link_seed=5)
        b = _serve(num_tenants=12, seed=7, link_ber=2e-4, link_seed=5)
        assert deterministic_view(a) == deterministic_view(b)

    @pytest.mark.parametrize("faults", [{}, {"link_ber": 2e-4,
                                             "link_drop_rate": 1e-4,
                                             "link_seed": 5}])
    def test_schedulers_identical(self, faults):
        a = _serve(num_tenants=10, seed=3, **faults)
        b = _serve(num_tenants=10, seed=3, pool=ReferencePool, **faults)
        assert deterministic_view(a) == deterministic_view(b)

    def test_warm_and_cold_spin_up_equivalent(self):
        warm = _serve(num_tenants=6, seed=9, spin_up="warm")
        cold = _serve(num_tenants=6, seed=9, spin_up="cold")
        assert (deterministic_view(warm, ignore_config=True)
                == deterministic_view(cold, ignore_config=True))

    def test_event_loop_interleaving_does_not_matter(self):
        """cycles_per_yield changes asyncio scheduling granularity only —
        with every tenant placed up front, the simulated outcome must
        not move."""
        a = _serve(num_tenants=4, seed=4, cycles_per_yield=1)
        b = _serve(num_tenants=4, seed=4, cycles_per_yield=512)
        av, bv = deterministic_view(a), deterministic_view(b)
        # Tick counts legitimately differ; everything simulated must not.
        av.pop("ticks"), bv.pop("ticks")
        assert av == bv

    def test_serve_inside_running_loop(self):
        """The async entry point composes with an existing event loop."""
        config = _config()
        profiles = tenant_mix_profiles(3, seed=2, base_requests=8)

        async def main():
            service = MemoryService(config)
            return await service.serve(specs_from_profiles(profiles, config))

        report = asyncio.run(main())
        assert check_consistency(report) == []


class TestSessionPool:
    def test_warm_restore_matches_cold_build(self):
        from repro.service.sessions import build_provisioned_shard

        config = _config()
        pool = SessionPool(config)
        warm, _ = pool.spin_up("warm")
        cold = build_provisioned_shard(config)
        assert warm.clock_value == cold.clock_value
        assert warm.stats() == cold.stats()
        assert pool.stats.template_ms > 0
        assert len(pool.stats.warm_ms) == 1

    def test_spin_up_stats_report(self):
        pool = SessionPool(_config(provision_requests=8))
        pool.spin_up("warm")
        pool.spin_up("cold")
        d = pool.stats.as_dict()
        assert d["warm"]["count"] == 1
        assert d["cold"]["count"] == 1
        assert d["template_ms"] > 0


class TestServiceCLI:
    def test_serve_smoke_with_faults(self, capsys, tmp_path):
        from repro.cli import main

        stats_json = tmp_path / "service.json"
        rc = main([
            "serve", "--tenants", "6", "--requests-per-tenant", "8",
            "--provision-requests", "16", "--link-ber", "2e-4",
            "--link-seed", "5", "--stats-json", str(stats_json),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accounting consistency: OK" in out
        assert "per-class rollup" in out
        report = json.loads(stats_json.read_text())
        assert report["accounting"]["tenants"]
        assert check_consistency(report) == []

    def test_tenants_renders_saved_report(self, capsys, tmp_path):
        from repro.cli import main

        stats_json = tmp_path / "service.json"
        assert main([
            "serve", "--tenants", "4", "--requests-per-tenant", "8",
            "--provision-requests", "16", "--stats-json", str(stats_json),
        ]) == 0
        capsys.readouterr()
        assert main(["tenants", str(stats_json), "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "tenant " in out and "class" in out
        assert "more tenants" in out  # limit applied

    def test_tenants_rejects_bad_report(self, capsys, tmp_path):
        from repro.cli import main

        missing = tmp_path / "nope.json"
        assert main(["tenants", str(missing)]) == 2
        not_report = tmp_path / "other.json"
        not_report.write_text("{}")
        assert main(["tenants", str(not_report)]) == 2


class TestCheckpointTracerHolders:
    """Regression: snapshotting must detach *every* tracer reference.

    The RAS controller caches ``self.tracer`` at construction; before
    the fix, snapshotting an ECC-enabled simulation with an open-file
    trace sink crashed on pickling the file handle — and with picklable
    sinks the restored controller logged to a ghost tracer.
    """

    def _ecc_sim(self):
        from repro.core.simulator import HMCSim

        return HMCSim(num_links=4, num_banks=8, capacity=2, ecc_enabled=True)

    def test_snapshot_with_open_file_sink(self, tmp_path):
        from repro.core import checkpoint
        from repro.host.host import Host
        from repro.trace.events import EventType
        from repro.trace.tracer import NDJSONSink
        from repro.workloads.random_access import (
            RandomAccessConfig,
            random_access_requests,
        )

        sim = self._ecc_sim()
        for link in range(4):
            sim.attach_host(0, link)
        sim.set_trace_mask(EventType.STANDARD)
        with open(tmp_path / "trace.ndjson", "w") as fh:
            sim.add_trace_sink(NDJSONSink(fh))
            host = Host(sim)
            cfg = RandomAccessConfig(num_requests=32)
            host.run(random_access_requests(
                sim.config.device.capacity_bytes, cfg))
            blob = checkpoint.snapshot(sim)  # crashed before the fix
            twin = checkpoint.restore(blob)
            # The original keeps its sink wiring (detach is transient)...
            assert sim.devices[0].ras.tracer is sim.tracer
            assert sim.tracer.sinks
            # ...and the twin's RAS logs to the twin's (sinkless) tracer,
            # not a private ghost copy.
            assert twin.devices[0].ras.tracer is twin.tracer
            assert not twin.tracer.sinks
            assert twin.tracer.mask == sim.tracer.mask

    def test_restored_ras_continues_identically(self):
        from repro.core import checkpoint

        sim = self._ecc_sim()
        sim.attach_host(0, 0)
        twin = checkpoint.restore(checkpoint.snapshot(sim))
        assert twin.devices[0].ras.tracer is twin.tracer

    def test_half_degraded_link_restores_half(self):
        from repro.core import checkpoint
        from repro.core.simulator import HMCSim
        from repro.faults.inband import HOST_SENDER, TX_OK, LinkHealth
        from repro.faults.link_model import LinkFaultModel
        from repro.packets.commands import CMD
        from repro.packets.packet import build_memrequest
        from repro.topology.builder import build_chain

        sim = build_chain(
            HMCSim(num_devs=2, num_links=4, num_banks=8, capacity=2),
            host_links=1,
        )
        state = sim.attach_link_fault(
            0, 0, LinkFaultModel(drop_rate=1.0, seed=1),
            max_retries=2, retry_delay=0,
        )
        pkt = build_memrequest(0, 0x40, 1, CMD.RD64, link=0)
        cycle = 0
        while state.health is LinkHealth.FULL:
            state.try_transmit(HOST_SENDER, pkt, cycle, sim.tracer)
            cycle += 1
        assert state.health is LinkHealth.HALF
        state.model.drop_rate = 0.0  # clean from here on
        while state.try_transmit(HOST_SENDER, pkt, cycle, sim.tracer) is not TX_OK:
            cycle += 1
        state.sync_registers(sim.devices)

        twin = checkpoint.restore(checkpoint.snapshot(sim))
        tstate = twin._link_fault_states[0]
        # HALF survives the round trip — no silent reset to FULL.
        assert tstate.health is LinkHealth.HALF
        assert tstate.stats_dict() == state.stats_dict()
        # LRS register mirrors round-trip too.
        assert ([d.regs.snapshot() for d in twin.devices]
                == [d.regs.snapshot() for d in sim.devices])
        # Both copies keep serializing at half width identically.
        for c in range(cycle, cycle + 20):
            assert (state.try_transmit(HOST_SENDER, pkt, c, sim.tracer)
                    == tstate.try_transmit(HOST_SENDER, pkt, c, twin.tracer))
