"""Unit tests for the six-sub-cycle clock engine (repro.core.clock)."""

import pytest

from repro.core.simulator import HMCSim
from repro.packets.commands import CMD
from repro.packets.packet import build_memrequest
from repro.registers.regdefs import index_by_name, physical_index
from repro.trace.events import EventType


@pytest.fixture
def sim():
    s = HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2)
    s.attach_host(0, 0)
    return s


class TestClockProgression:
    def test_clock_increments_by_one(self, sim):
        sim.clock()
        assert sim.clock_value == 1
        sim.clock(5)
        assert sim.clock_value == 6

    def test_stat_register_tracks_clock(self, sim):
        """Stage 6 snapshots the 64-bit clock into STAT."""
        sim.clock(3)
        assert sim.devices[0].regs.internal_read("STAT") == 3

    def test_rws_registers_clear_each_cycle(self, sim):
        sim.jtag_reg_write(0, physical_index(index_by_name("GC")), 0xF)
        assert sim.jtag_reg_read(0, physical_index(index_by_name("GC"))) == 0xF
        sim.clock()
        assert sim.jtag_reg_read(0, physical_index(index_by_name("GC"))) == 0

    def test_no_progress_without_clock(self, sim):
        """Paper V.C: internal operations do not progress until the
        clock function is called."""
        sim.send(build_memrequest(0, 0x40, 1, CMD.RD64, link=0))
        assert sim.devices[0].xbars[0].rqst.occupancy == 1
        assert sim.devices[0].vaults[0].rqst.occupancy == 0  # still queued


class TestStageOrdering:
    def test_packet_needs_multiple_stages(self, sim):
        """A packet cannot go crossbar -> bank -> response delivery in
        a single stage; it progresses stage by stage."""
        sim.send(build_memrequest(0, 0x40, 1, CMD.RD64, link=0))
        # Cycle 0: the injected packet (stamped this cycle) waits one
        # cycle at the registered crossbar input stage.
        sim.clock()
        dev = sim.devices[0]
        assert dev.vaults[0].rqst.occupancy == 0
        # Cycle 1: crossbar -> vault, vault processes, response registers.
        sim.clock()
        assert dev.total_requests_processed == 1

    def test_request_completes_and_returns(self, sim):
        sim.send(build_memrequest(0, 0x40, 7, CMD.RD64, link=0))
        for _ in range(10):
            sim.clock()
        rsp = sim.recv()
        assert rsp.tag == 7

    def test_stage_counters_accumulate(self, sim):
        sim.send(build_memrequest(0, 0x40, 1, CMD.RD64, link=0))
        sim.clock(5)
        counts = sim.engine.stage_counts
        assert counts[1] == 0  # one cube: no child crossbar to walk
        assert counts[2] >= 1  # root crossbar moved the packet
        assert counts[4] >= 1  # vault processed it
        assert counts[5] >= 1  # response registered
        assert counts[6] == 5  # one clock update per cycle

    def test_subcycle_markers_emitted_at_full_verbosity(self, sim):
        sink = sim.trace_to_memory(EventType.ALL)
        sim.clock()
        stages = [e.stage for e in sink.events if e.type is EventType.SUBCYCLE]
        assert stages == [1, 2, 3, 4, 5, 6]

    def test_subcycle_markers_suppressed_at_standard_verbosity(self, sim):
        sink = sim.trace_to_memory(EventType.STANDARD)
        sim.clock()
        assert not any(e.type is EventType.SUBCYCLE for e in sink.events)


class TestMultiDeviceOrdering:
    def test_chained_request_takes_extra_cycles(self):
        s = HMCSim(num_devs=2, num_links=4, num_banks=8, capacity=2)
        s.attach_host(0, 0)
        s.connect(0, 1, 1, 0)
        # Request to the far cube.
        s.send(build_memrequest(1, 0x40, 1, CMD.RD64, link=0))
        local_latency = None
        s2 = HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2)
        s2.attach_host(0, 0)
        s2.send(build_memrequest(0, 0x40, 1, CMD.RD64, link=0))

        def cycles_to_response(sim):
            for c in range(1, 40):
                sim.clock()
                try:
                    sim.recv()
                    return c
                except Exception:
                    continue
            raise AssertionError("no response within 40 cycles")

        remote = cycles_to_response(s)
        local = cycles_to_response(s2)
        assert remote > local  # chaining costs hops

    def test_children_process_before_roots_in_stage1_2(self):
        """Stage 1 (children) precedes stage 2 (roots): a root's forward
        from this cycle is seen by the child only next cycle."""
        s = HMCSim(num_devs=2, num_links=4, num_banks=8, capacity=2)
        s.attach_host(0, 0)
        s.connect(0, 1, 1, 0)
        s.send(build_memrequest(1, 0x40, 1, CMD.RD64, link=0))
        s.clock()  # injected packet waits at registered input
        s.clock()  # root forwards to child's crossbar
        child = s.devices[1]
        assert child.xbars[0].rqst.occupancy == 1
        assert child.vaults[0].rqst.occupancy == 0
        s.clock()  # child's stage-1 pass moves it to the vault & processes
        assert child.total_requests_processed == 1
