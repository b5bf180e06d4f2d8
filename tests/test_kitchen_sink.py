"""Kitchen-sink integration: every optional feature enabled at once.

Individually-tested features can still conflict when composed; these
tests run the simulator with everything switched on simultaneously —
open-row timing, refresh, rotating arbitration, flow-control tokens,
zombie expiry, physical locality penalty, link faults with retry,
tracing to multiple sinks, chained topologies — and verify conservation
and data integrity still hold.
"""

import io

import pytest

from repro.core.config import DeviceConfig, SimConfig
from repro.core.simulator import HMCSim
from repro.faults.injector import ScheduledInjector
from repro.faults.link_model import LinkFaultModel
from repro.host.host import Host, LinkPolicy
from repro.packets.commands import CMD
from repro.topology.builder import build_ring, build_simple
from repro.trace.binfmt import BinarySink, parse_binary
from repro.trace.events import EventType
from repro.trace.stats import TraceStats
from repro.trace.tracer import CountingSink, MemorySink, StatsSink
from repro.workloads.random_access import RandomAccessConfig, random_access_requests


def everything_on(num_devs=1, **overrides):
    device = DeviceConfig(num_links=4, num_banks=8, capacity=2,
                          queue_depth=16, xbar_depth=32)
    kw = dict(
        device=device,
        num_devs=num_devs,
        row_policy="open",
        row_hit_cycles=3,
        row_miss_cycles=14,
        refresh_interval=64,
        refresh_cycles=6,
        xbar_arbitration="rotating",
        link_token_flits=256,
        queue_timeout=5000,
        nonlocal_penalty_cycles=2,
    )
    kw.update(overrides)
    return HMCSim(SimConfig(**kw))


class TestAllFeaturesTogether:
    def test_random_traffic_conserves(self):
        sim = build_simple(everything_on())
        stats = TraceStats(num_vaults=16)
        sim.set_trace_mask(EventType.STANDARD)
        sim.add_trace_sink(StatsSink(stats))
        sim.add_trace_sink(CountingSink())
        host = Host(sim)
        cfg = RandomAccessConfig(num_requests=1024)
        res = host.run(random_access_requests(2 << 30, cfg))
        assert res.responses_received == 1024
        assert res.errors_received == 0
        assert sim.pending_packets == 0
        assert sim.dropped_responses == 0
        fig = stats.figure5_series()
        assert fig["read_requests"].total + fig["write_requests"].total == 1024

    def test_data_integrity_with_everything_on(self):
        sim = build_simple(everything_on(), host_links=1)
        sim.attach_link_fault(
            0, 0, LinkFaultModel(injector=ScheduledInjector(set(range(0, 64, 7)))),
            max_retries=16)
        host = Host(sim, policy=LinkPolicy.LOCALITY)
        writes = [(CMD.WR64, i * 64, [i * 3 + k for k in range(8)])
                  for i in range(64)]
        host.run(writes)
        dev = sim.devices[0]
        for i in (0, 13, 63):
            d = dev.amap.decode(i * 64)
            rel = d.dram * dev.amap.block_size + d.offset
            assert dev.vaults[d.vault].banks[d.bank].read(rel, 64) == [
                i * 3 + k for k in range(8)]

    def test_chained_ring_with_everything_on(self):
        sim = build_ring(everything_on(num_devs=4))
        host = Host(sim)
        streams = []
        for cub in range(4):
            streams += [(CMD.WR16, 0x40 * (i + 1), [cub, i]) for i in range(16)]
            # interleave reads of earlier writes on the same cube
        res = host.run(streams, cub=2)
        assert res.responses_received == len(streams)
        assert res.errors_received == 0

    def test_binary_trace_round_trip_under_load(self):
        sim = build_simple(everything_on())
        buf = io.BytesIO()
        sim.set_trace_mask(EventType.FIGURE5)
        sink = sim.add_trace_sink(BinarySink(buf, num_vaults=16))
        host = Host(sim)
        cfg = RandomAccessConfig(num_requests=256)
        host.run(random_access_requests(2 << 30, cfg))
        buf.seek(0)
        events = list(parse_binary(buf))
        assert len(events) == sink.records
        reads = sum(1 for e in events if e.type is EventType.RQST_READ)
        writes = sum(1 for e in events if e.type is EventType.RQST_WRITE)
        assert reads + writes == 256

    def test_checkpoint_with_everything_on(self):
        from repro.core.checkpoint import restore, snapshot
        sim = build_simple(everything_on())
        host = Host(sim)
        cfg = RandomAccessConfig(num_requests=128)
        host.run(random_access_requests(2 << 30, cfg))
        sim2 = restore(snapshot(sim))
        # The restored sim continues cleanly with all features live.
        host2 = Host(sim2)
        res = host2.run([(CMD.RD64, i * 64, None) for i in range(64)])
        assert res.responses_received == 64

    def test_determinism_with_everything_on(self):
        def run():
            sim = build_simple(everything_on())
            host = Host(sim)
            cfg = RandomAccessConfig(num_requests=512, seed=7)
            res = host.run(random_access_requests(2 << 30, cfg))
            return (res.cycles, sim.stats())

        assert run() == run()

    def test_core_on_kitchen_sink_memory(self):
        from repro.cpu.assembler import assemble
        from repro.cpu.core import GoblinCore
        from repro.cpu.programs import vector_sum_kernel

        sim = build_simple(everything_on())
        core = GoblinCore(sim, assemble(vector_sum_kernel(0x8000, 32, 0x100)),
                          num_threads=1)
        core.poke(0x8000, [2] * 32)
        res = core.run()
        assert not res.faulted
        assert core.peek_word(0x100) == 64
