"""Tests for the pointer-chase workload (repro.workloads.pointer_chase)."""

import json

import pytest

from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.topology.builder import build_simple
from repro.workloads.pointer_chase import (
    ChaseResult,
    build_chase_table,
    pointer_chase_run,
)
from tests.fixtures.gen_chase_golden import CASES, GOLDEN_PATH, fingerprint

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)


class TestChaseTable:
    def test_single_cycle_permutation(self):
        """Following the successor pointers visits every node once."""
        table = build_chase_table(64, node_bytes=16, seed=3)
        addr = 0
        seen = set()
        for _ in range(64):
            assert addr not in seen
            seen.add(addr)
            addr = table[addr // 16]
        assert addr == 0  # cycle closes
        assert len(seen) == 64

    def test_addresses_are_node_aligned(self):
        for a in build_chase_table(32, node_bytes=64, seed=1):
            assert a % 64 == 0

    def test_region_offset(self):
        table = build_chase_table(8, node_bytes=16, seed=1, region_offset=1 << 20)
        assert all(a >= 1 << 20 for a in table)

    def test_deterministic_by_seed(self):
        assert build_chase_table(32, seed=4) == build_chase_table(32, seed=4)
        assert build_chase_table(32, seed=4) != build_chase_table(32, seed=5)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            build_chase_table(1)


class TestChaseRun:
    def test_small_chase_completes(self):
        sim = build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2))
        host = Host(sim)
        result = pointer_chase_run(sim, host, num_nodes=16, hops=16)
        assert isinstance(result, ChaseResult)
        assert result.hops == 16
        assert len(result.latencies) == 16
        assert result.mean_latency > 0
        assert result.cycles >= sum(result.latencies) * 0  # sanity

    def test_chase_is_latency_bound(self):
        """Dependent reads cannot pipeline: total cycles ~ sum of
        per-hop latencies, far above 1 request/cycle throughput."""
        sim = build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2))
        host = Host(sim)
        result = pointer_chase_run(sim, host, num_nodes=32, hops=32)
        assert result.cycles >= result.hops * 2  # every hop costs cycles

    def test_bad_node_size(self):
        sim = build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2))
        host = Host(sim)
        with pytest.raises(ValueError):
            pointer_chase_run(sim, host, num_nodes=8, hops=2, node_bytes=24)


class TestChaseGolden:
    """The chase as the parent of ISSUE 23 ran it — a ``clock()`` and a
    drain per cycle, every held cycle ticked — pinned from outside
    (``fixtures/gen_chase_golden.py``)."""

    def test_golden_covers_every_case(self):
        assert sorted(GOLDEN) == sorted(CASES)

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_chase_matches_golden(self, case):
        assert fingerprint(case) == GOLDEN[case]

    def test_ber_case_waits_on_held_back_responses(self, monkeypatch):
        """The case does what it is there for: some waits start with the
        response already on the host link, held back by a replay window
        — each must advance one cycle and hand back to the poll."""
        wait = HMCSim.clock_until_response
        repolls = []

        def counted(sim, max_cycles):
            held = sim._response_pending()
            advanced = wait(sim, max_cycles)
            if held:
                repolls.append(advanced)
            return advanced

        monkeypatch.setattr(HMCSim, "clock_until_response", counted)
        assert fingerprint("ber2e-4/think0") == GOLDEN["ber2e-4/think0"]
        assert repolls and set(repolls) == {1}
