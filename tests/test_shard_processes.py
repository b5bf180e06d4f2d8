"""Shards in processes of their own against shards in this one.

With more than one usable CPU every shard of a :class:`MemoryService`
pumps in a forked process (:mod:`repro.service.handle`); with one, in
the driver's.  The transport is chosen from the affinity set alone, so
these tests pick it by patching ``default_pool_size`` where the handle
reads it.  Whatever the tenants, their rate limits and deadlines, the
chaos campaign, failover with respins, breakers and link faults, the
two transports must write the same report; the final state a process
sends home must be the in-process shard's, profiler counts included;
a shard-side exception keeps its type; and no process outlives the
service.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
from unittest.mock import patch

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.analysis.profiling import attach  # noqa: E402
from repro.analysis.tenants import deterministic_view  # noqa: E402
from repro.core.config import PAPER_CONFIGS, DeviceConfig  # noqa: E402
from repro.faults.chaos import CHAOS_KINDS, ChaosEvent, ChaosSchedule  # noqa: E402
from repro.packets.commands import CMD  # noqa: E402
from repro.service import (  # noqa: E402
    MemoryService,
    PriorityClass,
    ServiceConfig,
    TenantSpec,
    specs_from_profiles,
)
from repro.service.sessions import SessionPool  # noqa: E402
from repro.workloads.mixes import tenant_mix_profiles  # noqa: E402

_DEVICE = DeviceConfig(num_links=4, num_banks=8, capacity=2)
_BLOCKS = 2 * _DEVICE.capacity_bytes // 64  # both cubes of a shard
_COMMANDS = ((CMD.RD16, 0), (CMD.RD64, 0), (CMD.WR16, 2), (CMD.WR64, 8))


def _transport(processes: bool):
    return patch("repro.service.handle.default_pool_size",
                 return_value=2 if processes else 1)


def _view(report) -> str:
    """``deterministic_view`` as text: a NaN latency equals itself."""
    return json.dumps(deterministic_view(report), sort_keys=True)


def _run(config, specs, processes, pool=None):
    """Serve *specs*; returns the report and the service (whose shard
    processes, if any, still run: close it)."""
    with _transport(processes):
        service = MemoryService(config)
        if pool is not None:
            service.pool = pool(config)
        return service.serve_sync(specs), service


def _plan_specs(plan):
    return [
        TenantSpec(
            f"t{i}",
            iter([(cmd, block * 64, list(range(words)) if words else None)
                  for cmd, words, block in requests]),
            klass=klass, rate=rate, burst=burst, deadline_cycles=deadline,
        )
        for i, (klass, rate, burst, deadline, requests) in enumerate(plan)
    ]


_tenant = st.tuples(
    st.sampled_from(list(PriorityClass)),
    st.sampled_from((0.0, 0.1, 0.25, 0.5)),
    st.sampled_from((1.0, 2.0, 8.0)),
    st.sampled_from((0, 0, 6, 20, 60)),
    st.lists(st.tuples(st.sampled_from(_COMMANDS), st.integers(0, _BLOCKS - 1))
             .map(lambda t: (*t[0], t[1])),
             min_size=1, max_size=10),
)

# Link events hit host links only, which keeps chain links up but does
# not keep every shard finite: a shard whose in-flight requests are lost
# pumps forever on either transport, whether a chain link fails with
# replies on it or chaos kills both of its host links (``link_kill`` at
# 47 and 66 on shard 0 is such an example; ROADMAP item 1).
_event = st.builds(
    lambda kind, at, shard, link, delay, duration: ChaosEvent(
        at=at, kind=kind, shard=shard, dev=0, link=link,
        extra_delay=delay if kind == "latency_spike" else 0,
        duration=duration if kind == "latency_spike" else 0),
    st.sampled_from(CHAOS_KINDS), st.integers(1, 120), st.integers(0, 2),
    st.integers(0, 1), st.integers(1, 40), st.integers(1, 60),
)

_config = st.builds(
    lambda interval, retries, breaker, ber, yield_, chaos: ServiceConfig(
        device=_DEVICE, devs_per_shard=2, slots_per_shard=2, max_shards=2,
        provision_requests=16, link_seed=3, link_ber=ber,
        checkpoint_interval=interval, max_shard_recoveries=1,
        failover_retries=retries, failover_backoff=16,
        breaker_threshold=breaker, breaker_cooldown=64,
        cycles_per_yield=yield_,
        chaos=ChaosSchedule(chaos) if chaos else None),
    st.sampled_from((0, 16, 64)), st.sampled_from((0, 1, 2)),
    st.sampled_from((0, 2)), st.sampled_from((0.0, 2e-4)),
    st.sampled_from((8, 64)), st.lists(_event, max_size=5),
)


class TestBothTransports:
    @given(_config, st.lists(_tenant, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_generated_service_runs(self, config, plan):
        here, local = _run(config, _plan_specs(plan), processes=False)
        there, remote = _run(config, _plan_specs(plan), processes=True)
        remote.close()
        assert multiprocessing.active_children() == []
        assert _view(here) == _view(there)
        assert here["recovery"]["events"] == there["recovery"]["events"]
        assert here.get("chaos") == there.get("chaos")
        assert [sh.dead for sh in local.shards] == [sh.dead for sh in remote.shards]

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("ber", [0.0, 2e-4])
    def test_the_armed_serve_shape(self, seed, ber):
        """The spine's ``serve128_armed`` shape at 32 x 8."""
        config = ServiceConfig(device=PAPER_CONFIGS["4-Link; 8-Bank; 2GB"],
                               link_seed=seed, link_ber=ber,
                               checkpoint_interval=256)
        profiles = tenant_mix_profiles(32, seed=seed, base_requests=8)
        reports = []
        for processes in (False, True):
            report, service = _run(
                config, specs_from_profiles(profiles, config), processes)
            service.close()
            reports.append(report)
        here, there = reports
        assert _view(here) == _view(there)
        assert there["accounting"]["totals"]["requests_sent"] > 0


class ProfiledPool(SessionPool):
    """Attaches a stage profiler to every shard it spins up, in the
    driver, before the shard's process is forked."""

    def __init__(self, config) -> None:
        super().__init__(config)
        self.profilers = []

    def spin_up(self, mode=None):
        sim, ms = super().spin_up(mode)
        self.profilers.append(attach(sim))
        return sim, ms


def _armed_run(processes: bool):
    config = ServiceConfig(device=_DEVICE, devs_per_shard=2, slots_per_shard=2,
                           max_shards=3, provision_requests=16,
                           checkpoint_interval=64, link_ber=2e-4, link_seed=5)
    profiles = tenant_mix_profiles(12, seed=4, base_requests=12)
    return _run(config, specs_from_profiles(profiles, config), processes,
                pool=ProfiledPool)


class TestFinalStateComesHome:
    @pytest.fixture(scope="class")
    def runs(self):
        here, local = _armed_run(processes=False)
        there, remote = _armed_run(processes=True)
        yield here, local, there, remote
        remote.close()

    def test_the_run_used_processes(self, runs):
        *_, remote = runs
        assert len(remote.shards) == 3
        assert all(sh._chan is not None for sh in remote.shards)

    def test_shard_stats_equal_the_report(self, runs):
        _, _, there, remote = runs
        for shard, stats in zip(remote.shards, there["shards"]):
            assert shard.stats() == stats

    def test_simulations_equal_the_in_process_ones(self, runs):
        _, local, _, remote = runs
        for mine, theirs in zip(local.shards, remote.shards):
            assert theirs.sim.stats() == mine.sim.stats()
            assert theirs.sim.clock_value == mine.sim.clock_value
            assert theirs.cycles_pumped == mine.cycles_pumped
            assert theirs._epoch["sessions"] == mine._epoch["sessions"]

    def test_profilers_receive_the_process_counts(self, runs):
        _, local, _, remote = runs
        for i, (mine, theirs) in enumerate(zip(local.pool.profilers,
                                               remote.pool.profilers)):
            sim = remote.shards[i].sim  # brings the state (and counts) home
            assert theirs.ticks == mine.ticks > 0
            assert theirs.ff_cycles == mine.ff_cycles
            assert sim.engine.profiler is theirs
            assert sim.engine.stage_counts == local.shards[i].sim.engine.stage_counts

    def test_a_home_shard_stops_its_process(self, runs):
        *_, remote = runs
        remote.shards[0].sim
        assert remote.shards[0]._chan is None

    def test_a_home_shard_still_restores_its_epoch(self, runs):
        """The page store travels home with its checkpoint: the last
        epoch restores as it would have in process.  (Last: it rewinds
        the shards the tests above read.)"""
        _, local, _, remote = runs
        for mine, theirs in zip(local.shards, remote.shards):
            mine._restore_epoch("probe")
            theirs._restore_epoch("probe")
            assert theirs.sim.stats() == mine.sim.stats()
            assert theirs.sim.clock_value == mine.sim.clock_value


class TestShardProcessLifecycle:
    def test_shard_side_value_error_keeps_its_type(self):
        config = ServiceConfig(device=_DEVICE, devs_per_shard=2, slots_per_shard=2,
                               max_shards=1, provision_requests=16)
        malformed = TenantSpec("bad", iter([(CMD.RD64, 0)]))  # no payload slot
        with _transport(processes=True):
            service = MemoryService(config)
            with pytest.raises(ValueError, match="unpack") as info:
                service.serve_sync([malformed])
        assert "remote traceback" in str(info.value.__cause__)
        # The run is over: its shard processes went with it.
        assert multiprocessing.active_children() == []
        with pytest.raises(RuntimeError, match="closed"):
            service.shards[0].sim

    def test_no_process_after_close(self):
        report, service = _armed_run(processes=True)
        assert multiprocessing.active_children()
        service.close()
        assert multiprocessing.active_children() == []
        service.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            service.shards[0].sim

    def test_no_process_after_the_service_is_collected(self):
        report, service = _armed_run(processes=True)
        assert multiprocessing.active_children()
        del service
        gc.collect()
        assert multiprocessing.active_children() == []

    def test_one_cpu_runs_the_shards_here(self):
        report, service = _armed_run(processes=False)
        assert multiprocessing.active_children() == []
        assert all(sh._chan is None for sh in service.shards)
        assert report["audit"]["ok"]
