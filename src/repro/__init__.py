"""HMC-Sim reproduction: a simulation framework for Hybrid Memory Cube devices.

A from-scratch Python implementation of the simulator described in
J. D. Leidel and Y. Chen, *HMC-Sim: A Simulation Framework for Hybrid
Memory Cube Devices*, IPDPS Workshops 2014 — the full structure
hierarchy (devices → links / crossbars / quads → vaults → banks →
DRAMs), the FLIT-based packet protocol, 34-bit interleaved addressing,
device chaining and topologies, the six-sub-cycle clock engine,
register files with JTAG access, and cycle-level tracing — plus the
random-access evaluation harness that reproduces the paper's Table I
and Figure 5.

Quickstart::

    from repro import HMCSim, CMD, build_memrequest

    sim = HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2)
    sim.attach_host(dev=0, link=0)
    sim.send(build_memrequest(cub=0, addr=0x1000, tag=1, cmd=CMD.RD64, link=0))
    sim.clock_until_response(max_cycles=1000)
    rsp = sim.recv()
    assert rsp.tag == 1
"""

from repro.core.config import DeviceConfig, SimConfig, PAPER_CONFIGS
from repro.core.errors import (
    HMCError,
    InitError,
    NoDataError,
    StallError,
    TopologyError,
)
from repro.core.simulator import HMCSim
from repro.packets.commands import CMD
from repro.packets.packet import ErrStat, Packet, build_memrequest, build_response
from repro.trace.events import EventType, TraceEvent
from repro.trace.stats import TraceStats

__version__ = "1.0.0"

__all__ = [
    "CMD",
    "DeviceConfig",
    "ErrStat",
    "EventType",
    "HMCError",
    "HMCSim",
    "InitError",
    "NoDataError",
    "PAPER_CONFIGS",
    "Packet",
    "SimConfig",
    "StallError",
    "TopologyError",
    "TraceEvent",
    "TraceStats",
    "build_memrequest",
    "build_response",
    "__version__",
]
