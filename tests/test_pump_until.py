"""``Shard.pump_until(k)`` against ``pump_until(1)`` called k times.

A pass of the pump folds every cycle in which no resident can act into
one clock call, and receives after every tick inside it.  Whatever the
tenants, their rate limits and deadlines, the chaos campaign and the
link faults, the folded pump must leave the service exactly where the
per-cycle one does: equal ``deterministic_view`` of the report, equal
recovery events and equal fired chaos.  Pinned cases ride along: the
float trap of a throttled bucket (it must admit on the cycle the
per-cycle walk admits), a watchdog trip inside a folded window, link
faults inside what would be a folded window, and a deadline that
expires before the head could have been sent.
"""

from __future__ import annotations

import json
from unittest.mock import patch

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.analysis.tenants import deterministic_view  # noqa: E402
from repro.core.clock import ClockEngine  # noqa: E402
from repro.core.config import DeviceConfig  # noqa: E402
from repro.core.errors import WatchdogError  # noqa: E402
from repro.core.simulator import HMCSim  # noqa: E402
from repro.faults.chaos import CHAOS_KINDS, ChaosEvent, ChaosSchedule  # noqa: E402
from repro.packets.commands import CMD  # noqa: E402
from repro.service import (  # noqa: E402
    MemoryService,
    PriorityClass,
    ServiceConfig,
    TenantSpec,
    TokenBucket,
)
from repro.service.accounting import TenantAccount  # noqa: E402
from repro.service.admission import FabricPort  # noqa: E402
from repro.service.sessions import SessionPool  # noqa: E402
from repro.service.shard import Shard  # noqa: E402

_DEVICE = DeviceConfig(num_links=4, num_banks=8, capacity=2)
_BLOCKS = 2 * _DEVICE.capacity_bytes // 64  # both cubes of a shard
_COMMANDS = ((CMD.RD16, 0), (CMD.RD64, 0), (CMD.WR16, 2), (CMD.WR64, 8))


def _view(report) -> str:
    """``deterministic_view`` as text: a NaN latency equals itself."""
    return json.dumps(deterministic_view(report), sort_keys=True)


def per_cycle(pump_until):
    """``pump_until(limit)`` the way the per-cycle pump was driven: one
    cycle per call, until the limit or the shard goes idle."""
    def pump(self, limit):
        done = []
        for _ in range(limit):
            done += pump_until(self, 1)
            if not self.busy:
                break
        return done
    return pump


def _serve(config, plan, folded=True):
    specs = [
        TenantSpec(
            f"t{i}",
            iter([(cmd, block * 64, list(range(words)) if words else None)
                  for cmd, words, block in requests]),
            klass=klass, rate=rate, burst=burst, deadline_cycles=deadline,
        )
        for i, (klass, rate, burst, deadline, requests) in enumerate(plan)
    ]
    service = MemoryService(config)
    if folded:
        return service.serve_sync(specs)
    with patch.object(Shard, "pump_until", per_cycle(Shard.pump_until)):
        return service.serve_sync(specs)


_tenant = st.tuples(
    st.sampled_from(list(PriorityClass)),
    st.sampled_from((0.0, 0.1, 0.1, 0.25, 0.5)),  # bronze's 0.1 twice
    st.sampled_from((1.0, 2.0, 8.0)),
    st.sampled_from((0, 0, 6, 20, 60)),
    st.lists(st.tuples(st.sampled_from(_COMMANDS), st.integers(0, _BLOCKS - 1))
             .map(lambda t: (*t[0], t[1])),
             min_size=1, max_size=10),
)

_event = st.builds(
    lambda kind, at, shard, dev, link, delay, duration: ChaosEvent(
        at=at, kind=kind, shard=shard, dev=dev, link=link,
        extra_delay=delay if kind == "latency_spike" else 0,
        duration=duration if kind == "latency_spike" else 0),
    st.sampled_from(CHAOS_KINDS), st.integers(1, 120), st.integers(0, 1),
    st.integers(0, 1), st.integers(0, 3), st.integers(1, 40),
    st.integers(1, 60),
)

_config = st.builds(
    lambda interval, retries, ber, watchdog, yield_, chaos: ServiceConfig(
        device=_DEVICE, devs_per_shard=2, slots_per_shard=2, max_shards=2,
        provision_requests=16, link_seed=3, link_ber=ber,
        watchdog_cycles=watchdog, checkpoint_interval=interval,
        failover_retries=retries, cycles_per_yield=yield_,
        chaos=ChaosSchedule(chaos) if chaos else None),
    st.sampled_from((0, 16, 64)), st.integers(0, 2),
    st.sampled_from((0.0, 2e-4)), st.sampled_from((0, 400)),
    st.sampled_from((8, 64)), st.lists(_event, max_size=4),
)


class TestFoldedEqualsPerCycle:
    @given(_config, st.lists(_tenant, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_generated_service_runs(self, config, plan):
        folded = _serve(config, plan)
        walked = _serve(config, plan, folded=False)
        assert _view(folded) == _view(walked)
        assert folded["recovery"]["events"] == walked["recovery"]["events"]
        assert folded.get("chaos") == walked.get("chaos")


def _shard(**overrides) -> Shard:
    config = ServiceConfig(device=_DEVICE, devs_per_shard=2, slots_per_shard=2,
                           max_shards=1, provision_requests=16, **overrides)
    sim, _ = SessionPool(config).spin_up()
    return Shard(0, sim, config)


def _fetch_cycles(pump, requests=6):
    """Cycles at which a 0.1-token/cycle, burst-1 tenant takes its
    requests, with no fabric delay: each is sent the cycle it is taken,
    so the next fetch waits on the bucket alone."""
    shard = _shard(network_base_delay=0, network_port_interval=0)
    stream = iter([(CMD.WR16, i * 64, [i, i]) for i in range(requests)])
    shard.lease(TenantSpec("bronze", stream, rate=0.1, burst=1.0),
                TenantAccount("bronze"))
    (sess,) = shard.sessions.values()
    bucket, admit, seen = sess._bucket, FabricPort.admit, []

    def recording(port, cycle):
        seen.append(cycle)
        return admit(port, cycle)

    with patch.object(FabricPort, "admit", recording):
        while shard.busy:
            pump(shard)
    return seen, (bucket.tokens, bucket.last_cycle), sess.account.throttle_cycles


class TestThrottledBucket:
    def test_ten_tenth_steps_are_not_one(self):
        """The trap itself: per-cycle refills from empty reach 1.0 only
        on the eleventh cycle; one ten-cycle refill would on the tenth."""
        bucket = TokenBucket(0.1, 1.0)
        bucket.consume(0)
        assert bucket.ready_at(100) == 11
        assert 0.1 * 10 >= 1.0  # what a closed-form refill would admit
        for cycle in range(1, 11):
            assert not bucket.ready(cycle)
        assert bucket.ready(11)

    def test_wait_is_once_per_cycle_refills(self):
        walked, waited = TokenBucket(0.1, 1.0), TokenBucket(0.1, 1.0)
        walked.consume(0)
        waited.consume(0)
        for cycle in range(1, 8):
            walked.ready(cycle)
        waited.wait(7)
        assert (waited.tokens, waited.last_cycle) == (walked.tokens, walked.last_cycle)

    def test_throttled_tenant_admits_on_the_per_cycle_cycle(self):
        """Pinned: folded and per-cycle pumps take every request on the
        same cycle — eleven cycles apart, not ten — and leave the bucket
        with the same float tokens."""
        folded = _fetch_cycles(lambda shard: shard.pump_until(64))
        walked = _fetch_cycles(lambda shard: shard.pump_until(1))
        assert folded == walked
        fetches = folded[0]
        assert fetches[1] - fetches[0] == 11
        assert folded[2] > 0  # the tenant really was throttled


def _serve_tripping(config, plan, after, folded=True):
    """:func:`_serve` with one ``WatchdogError`` raised by the first tick
    at or after cycle *after*, where the engine's own watchdog raises
    (tick start); returns the report, the cycle the clock call that
    tripped started at, and the cycle it tripped at."""
    tick, clock = ClockEngine.tick, HMCSim.clock_until_response
    starts, tripped = [], []

    def tripping_tick(self):
        if not tripped and self.sim.clock_value >= after:
            tripped.append(self.sim.clock_value)
            raise WatchdogError("injected trip")
        tick(self)

    def recording_clock(sim, *args):
        starts.append(sim.clock_value)
        return clock(sim, *args)

    with patch.object(ClockEngine, "tick", tripping_tick), \
            patch.object(HMCSim, "clock_until_response", recording_clock):
        report = _serve(config, plan, folded)
    (at,) = tripped
    return report, max(s for s in starts if s <= at), at


@pytest.mark.parametrize("interval", [0, 32])
def test_watchdog_trip_inside_a_folded_window(interval):
    """A trip on a tick inside a folded window charges the cycles before
    it, replays the throttled tenant's send phases up to and including
    the tripped cycle, and crashes — recovered from the epoch when
    armed, retiring the shard when not — exactly as the per-cycle pump
    did."""
    config = ServiceConfig(
        device=_DEVICE, devs_per_shard=2, slots_per_shard=2, max_shards=1,
        provision_requests=16, checkpoint_interval=interval,
        network_base_delay=0, network_port_interval=0)
    plan = [
        (PriorityClass.BRONZE, 0.1, 1.0, 0,
         [(CMD.WR16, 2, 5 * i) for i in range(8)]),
        (PriorityClass.GOLD, 0.0, 8.0, 0,
         [(CMD.RD64, 0, 7 * i) for i in range(24)]),
    ]
    folded, start, at = _serve_tripping(config, plan, after=45)
    walked, _, walked_at = _serve_tripping(config, plan, after=45, folded=False)
    assert start < at == walked_at  # the folded pass began before the trip
    assert folded["recovery"]["crashes"] == 1
    assert _view(folded) == _view(walked)


def test_link_faults_mid_window_are_attributed_on_their_cycle():
    """Three cubes (two chain links) at BER 1e-3: retries on both chain
    links and ladder steps fall inside what would be folded windows.  A
    pass stops at each, so shared retries split round-robin and degraded
    cycles are charged exactly as the per-cycle pump charges them."""
    config = ServiceConfig(device=_DEVICE, devs_per_shard=3, slots_per_shard=2,
                           max_shards=1, provision_requests=0, link_seed=17,
                           link_ber=1e-3, watchdog_cycles=2000)
    blocks = 3 * _DEVICE.capacity_bytes // 64
    plan = [(PriorityClass.GOLD, 0.0, 8.0, 0,
             [(CMD.RD64, 0, (2654435761 * i + 40503 * t) % blocks) for i in range(24)])
            for t in range(2)]
    folded = _serve(config, plan)
    totals = folded["accounting"]["totals"]
    assert totals["shared_retries"] and totals["degradations_seen"]
    assert totals["degraded_cycles"]
    assert _view(folded) == _view(_serve(config, plan, folded=False))


@pytest.mark.parametrize("first", [1, 4])
def test_a_deadline_expires_before_the_head_is_eligible(first):
    """A head whose deadline (3) is shorter than the fabric delay (8) is
    dropped the cycle it ages out, pending_since + 4, not the cycle it
    would have become eligible; folded or not."""
    shard = _shard()
    acct = TenantAccount("late")
    stream = iter([(CMD.WR16, i * 64, [i, i]) for i in range(2)])
    shard.lease(TenantSpec("late", stream, deadline_cycles=3), acct)
    shard.pump_until(first)
    shard.pump_until(4 - first)
    assert acct.deadline_misses == 0
    shard.pump_until(1)
    assert acct.deadline_misses == 1
