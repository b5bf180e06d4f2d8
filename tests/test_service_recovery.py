"""Self-healing service: chaos campaigns, crash recovery, failover.

The PR-8 resilience contracts, end to end:

* chaos campaigns are bit-identical across repeated runs, and between
  the engine and the tests' full-walk reference (the tentpole
  determinism criterion);
* an armed shard survives crashes by epoch restore + journal replay,
  and every recovery is billed (``crash_recoveries`` / ``replayed_requests``)
  without breaking the integer consistency block;
* a terminal shard death displaces its sessions, which fail over to a
  respun shard under bounded retries — conservation
  (``requests_sent == responses + lost_inflight``) holds throughout;
* the end-of-serve auditor proves every admitted tenant terminated
  exactly once, even under a scripted multi-crash campaign;
* arming the machinery without injecting faults does not change the
  simulated outcome (disarmed-parity criterion);
* per-request deadlines, circuit breakers and resilience-knob
  validation behave as documented.
"""

from __future__ import annotations

import pytest

from repro.analysis.tenants import (
    audit_report,
    check_consistency,
    deterministic_view,
    slo_report,
)
from repro.core.config import DeviceConfig
from repro.core.errors import E_DEADLINE, InitError
from repro.faults.chaos import ChaosEvent, ChaosSchedule
from repro.service import (
    BreakerState,
    CircuitBreaker,
    MemoryService,
    PriorityClass,
    ServiceConfig,
    TenantSpec,
    specs_from_profiles,
)
from repro.workloads.mixes import tenant_mix_profiles
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


def _crash_campaign():
    """Scripted three-crash campaign against shard 0."""
    return ChaosSchedule([
        ChaosEvent(at=60, kind="shard_crash", shard=0),
        ChaosEvent(at=140, kind="watchdog_trip", shard=0),
        ChaosEvent(at=220, kind="shard_crash", shard=0),
    ])


_ARMED = dict(checkpoint_interval=64, failover_retries=2,
              breaker_threshold=3)


class TestChaosDeterminism:
    def test_campaign_bit_identical_across_runs(self):
        a = _serve(chaos=_crash_campaign(), **_ARMED)
        b = _serve(chaos=_crash_campaign(), **_ARMED)
        assert a["recovery"]["crashes"] > 0
        assert deterministic_view(a) == deterministic_view(b)

    def test_campaign_invariant_across_schedulers(self):
        a = _serve(chaos=_crash_campaign(), **_ARMED)
        b = _serve(chaos=_crash_campaign(), pool=ReferencePool, **_ARMED)
        assert a["recovery"]["crashes"] > 0  # restores unpickle the reference
        assert deterministic_view(a) == deterministic_view(b)

    def test_campaign_stamps_invariant_across_cycles_per_yield(self):
        # Events are stamped in per-shard pumped cycles, so the front
        # end's yield granularity cannot move them.  (Lease-grant
        # timing — and hence accounting — legitimately varies with the
        # tick size, exactly as it did before chaos existed.)
        a = _serve(chaos=_crash_campaign(), cycles_per_yield=16, **_ARMED)
        b = _serve(chaos=_crash_campaign(), cycles_per_yield=128, **_ARMED)
        assert a["chaos"] == b["chaos"]
        assert a["chaos"]["fired"]
        for ev in a["chaos"]["fired"]:
            assert ev["fired_at"] == ev["at"]

    def test_armed_fault_free_matches_disarmed(self):
        # Journaling + checkpointing + breakers armed but no chaos:
        # the simulated outcome must be exactly the disarmed one.
        armed = _serve(**_ARMED)
        disarmed = _serve()
        va = deterministic_view(armed, ignore_config=True)
        vd = deterministic_view(disarmed, ignore_config=True)
        assert va["accounting"] == vd["accounting"]
        assert va["consistency"] == vd["consistency"]


class TestCrashRecovery:
    def test_crashes_recover_and_complete(self):
        rep = _serve(chaos=_crash_campaign(), **_ARMED)
        rec = rep["recovery"]
        assert rec["crashes"] >= 1
        assert rec["recoveries"] >= 1
        statuses = {a["status"]
                    for a in rep["accounting"]["tenants"].values()}
        assert statuses <= {"done"}
        assert not check_consistency(rep)

    def test_recovery_is_billed(self):
        rep = _serve(chaos=_crash_campaign(), **_ARMED)
        totals = rep["accounting"]["totals"]
        assert totals["crash_recoveries"] >= 1
        assert totals["replay_cycles"] >= 0
        events = rep["recovery"]["events"]
        assert any(ev["kind"] == "crash_recovered" for ev in events)

    def test_auditor_passes_multi_crash_campaign(self):
        rep = _serve(chaos=_crash_campaign(), **_ARMED)
        assert rep["audit"]["ok"], rep["audit"]["violations"]
        for acct in rep["accounting"]["tenants"].values():
            assert acct["terminations"] == 1

    def test_recovery_budget_exhaustion_turns_terminal(self):
        # One allowed restore, three crashes: the shard eventually
        # retires; failover still lands everyone.
        rep = _serve(chaos=_crash_campaign(), checkpoint_interval=64,
                     max_shard_recoveries=1, failover_retries=2)
        assert any(s["dead"] for s in rep["shards"])
        assert rep["audit"]["ok"], rep["audit"]["violations"]

    def test_chaos_events_fire_exactly_once(self):
        rep = _serve(chaos=_crash_campaign(), **_ARMED)
        fired = rep["chaos"]["fired"]
        assert len(fired) == 3
        # A restore rewinds pumped cycles past an already-fired stamp;
        # one-shot semantics mean no stamp appears twice.
        stamps = [(ev["shard"], ev["at"], ev["kind"]) for ev in fired]
        assert len(stamps) == len(set(stamps))


class TestFailover:
    def test_displaced_sessions_fail_over_and_finish(self):
        chaos = ChaosSchedule([ChaosEvent(at=120, kind="shard_crash")])
        rep = _serve(chaos=chaos, failover_retries=2)
        totals = rep["accounting"]["totals"]
        assert totals["failovers"] >= 1
        statuses = {a["status"]
                    for a in rep["accounting"]["tenants"].values()}
        assert statuses <= {"done"}
        assert rep["audit"]["ok"], rep["audit"]["violations"]

    def test_pool_respins_replacement_shard(self):
        chaos = ChaosSchedule([ChaosEvent(at=120, kind="shard_crash")])
        rep = _serve(chaos=chaos, failover_retries=2)
        assert any(s["dead"] for s in rep["shards"])
        assert any(not s["dead"] for s in rep["shards"])
        assert any(ev["kind"] == "shard_retired"
                   for ev in rep["recovery"]["events"])

    def test_conservation_holds_with_lost_inflight(self):
        chaos = ChaosSchedule([ChaosEvent(at=120, kind="shard_crash")])
        rep = _serve(chaos=chaos, failover_retries=2)
        for acct in rep["accounting"]["tenants"].values():
            assert acct["requests_sent"] == \
                acct["responses"] + acct["lost_inflight"]

    def test_failover_disarmed_is_terminal(self):
        chaos = ChaosSchedule([ChaosEvent(at=120, kind="shard_crash")])
        rep = _serve(chaos=chaos)
        statuses = [a["status"]
                    for a in rep["accounting"]["tenants"].values()]
        assert "crashed" in statuses
        assert rep["audit"]["ok"], rep["audit"]["violations"]

    def test_failover_determinism(self):
        chaos = ChaosSchedule([ChaosEvent(at=120, kind="shard_crash")])
        a = _serve(chaos=chaos, failover_retries=2)
        b = _serve(chaos=chaos, failover_retries=2)
        assert deterministic_view(a) == deterministic_view(b)


class TestLinkAndLatencyChaos:
    def test_link_kill_strands_slot_session(self):
        chaos = ChaosSchedule([
            ChaosEvent(at=60, kind="link_kill", dev=0, link=0),
        ])
        rep = _serve(chaos=chaos)
        statuses = [a["status"]
                    for a in rep["accounting"]["tenants"].values()]
        assert "link_failed" in statuses
        assert rep["audit"]["ok"], rep["audit"]["violations"]

    def test_link_kill_with_failover_completes(self):
        chaos = ChaosSchedule([
            ChaosEvent(at=60, kind="link_kill", dev=0, link=0),
        ])
        rep = _serve(chaos=chaos, failover_retries=2)
        statuses = {a["status"]
                    for a in rep["accounting"]["tenants"].values()}
        assert statuses <= {"done"}
        assert rep["accounting"]["totals"]["failovers"] >= 1

    def test_latency_spike_adds_network_delay(self):
        chaos = ChaosSchedule([
            ChaosEvent(at=16, kind="latency_spike",
                       extra_delay=32, duration=512),
        ])
        base = _serve()
        spiked = _serve(chaos=chaos)
        assert (spiked["accounting"]["totals"]["network_delay_cycles"]
                > base["accounting"]["totals"]["network_delay_cycles"])
        assert spiked["audit"]["ok"]

    def test_link_degrade_is_billed(self):
        chaos = ChaosSchedule([
            ChaosEvent(at=60, kind="link_degrade", dev=0, link=0),
        ])
        rep = _serve(chaos=chaos)
        totals = rep["accounting"]["totals"]
        assert totals["degradations_seen"] + sum(
            s["unattributed_degradations"] for s in rep["shards"]
        ) >= 1
        assert not check_consistency(rep)


class TestDeadlines:
    def test_e_deadline_constant(self):
        assert E_DEADLINE == -7

    def test_deadline_misses_counted(self):
        profiles = tenant_mix_profiles(4, seed=5, base_requests=16)
        for p in profiles:
            p["deadline_cycles"] = 1  # brutally tight: everything misses
        config = _config()
        rep = MemoryService(config).serve_sync(
            specs_from_profiles(profiles, config)
        )
        assert rep["accounting"]["totals"]["deadline_misses"] > 0
        assert rep["audit"]["ok"], rep["audit"]["violations"]

    def test_no_deadline_no_misses(self):
        rep = _serve()
        assert rep["accounting"]["totals"]["deadline_misses"] == 0

    def test_negative_deadline_rejected(self):
        with pytest.raises(InitError, match="deadline_cycles"):
            TenantSpec(tenant_id="t", requests=iter(()),
                       deadline_cycles=-1)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        brk = CircuitBreaker(threshold=3, cooldown=100)
        for _ in range(2):
            brk.record_failure(now=10)
        assert brk.state is BreakerState.CLOSED
        brk.record_failure(now=10)
        assert brk.state is BreakerState.OPEN
        assert not brk.try_acquire(now=50)

    def test_half_open_probe_then_close(self):
        brk = CircuitBreaker(threshold=1, cooldown=100)
        brk.record_failure(now=0)
        assert brk.try_acquire(now=100)  # cooldown over: the probe
        assert brk.state is BreakerState.HALF_OPEN
        assert not brk.try_acquire(now=100)  # only one probe
        brk.record_success(now=150)
        assert brk.state is BreakerState.CLOSED
        assert brk.try_acquire(now=150)

    def test_half_open_failure_reopens(self):
        brk = CircuitBreaker(threshold=1, cooldown=100)
        brk.record_failure(now=0)
        assert brk.try_acquire(now=100)
        brk.record_failure(now=120)
        assert brk.state is BreakerState.OPEN
        assert brk.opened_at == 120
        assert not brk.try_acquire(now=219)
        assert brk.try_acquire(now=220)

    def test_success_resets_failure_streak(self):
        brk = CircuitBreaker(threshold=2, cooldown=10)
        brk.record_failure(now=0)
        brk.record_success(now=1)
        brk.record_failure(now=2)
        assert brk.state is BreakerState.CLOSED

    def test_breaker_in_service_run(self):
        chaos = ChaosSchedule([ChaosEvent(at=120, kind="shard_crash")])
        rep = _serve(chaos=chaos, failover_retries=2, breaker_threshold=2,
                     breaker_cooldown=256)
        breakers = rep["recovery"]["breakers"]
        assert "0" in breakers
        assert rep["audit"]["ok"], rep["audit"]["violations"]


class TestKnobValidation:
    @pytest.mark.parametrize("field,value", [
        ("checkpoint_interval", -1),
        ("max_shard_recoveries", -1),
        ("failover_retries", -1),
        ("failover_backoff", 0),
        ("breaker_threshold", -1),
        ("breaker_cooldown", 0),
    ])
    def test_bad_knob_names_field(self, field, value):
        with pytest.raises(InitError, match=field):
            _config(**{field: value})

    def test_chaos_type_checked(self):
        with pytest.raises(InitError, match="ChaosSchedule"):
            _config(chaos=[ChaosEvent(at=1, kind="shard_crash")])


class TestSloAndAudit:
    def test_slo_report_fault_free(self):
        rep = _serve()
        for row in rep["slo"].values():
            assert row["met"]
            assert row["success_rate"] == 1.0
            assert row["error_budget_burn"] == 0.0

    def test_slo_report_counts_failures(self):
        chaos = ChaosSchedule([ChaosEvent(at=120, kind="shard_crash")])
        rep = _serve(chaos=chaos)  # disarmed: crash is terminal
        slo = slo_report(rep)
        assert sum(row["failed"] for row in slo.values()) >= 1
        assert any(not row["met"] for row in slo.values())

    def test_audit_flags_fabricated_violation(self):
        rep = _serve(num_tenants=2)
        tid, acct = next(iter(rep["accounting"]["tenants"].items()))
        acct["terminations"] = 2
        acct["requests_sent"] += 5
        audit = audit_report(rep)
        assert not audit["ok"]
        joined = " ".join(audit["violations"])
        assert "terminated 2 times" in joined
        assert "conservation" in joined

    def test_rejected_tenants_terminate_once(self):
        rep = _serve(num_tenants=12, max_waiting=2, max_shards=1,
                     slots_per_shard=2)
        statuses = [a["status"]
                    for a in rep["accounting"]["tenants"].values()]
        assert "rejected" in statuses
        assert rep["audit"]["ok"], rep["audit"]["violations"]
