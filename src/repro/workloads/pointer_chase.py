"""Dependent pointer-chase workload (latency-bound).

Unlike the throughput workloads, a pointer chase issues one read at a
time: the next address depends on the data just returned.  It therefore
measures round-trip latency through the crossbar → vault → bank →
response path — including the routed-latency penalty of non-co-located
links, which the locality ablation quantifies.

Because the address stream is data-dependent, this module provides a
*driver* (:func:`pointer_chase_run`) rather than a request iterator:
the chase table is written first, then the chase reads each element to
discover its successor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.packets.commands import CMD, WRITE_CMD_FOR_BYTES, READ_CMD_FOR_BYTES


@dataclass
class ChaseResult:
    """Outcome of a pointer-chase run."""

    hops: int
    cycles: int
    #: Per-hop round-trip latencies.
    latencies: List[int]

    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latencies)) if self.latencies else float("nan")


def build_chase_table(
    num_nodes: int, node_bytes: int = 16, seed: int = 1, region_offset: int = 0
) -> List[int]:
    """Random cyclic permutation of node addresses (a Sattolo cycle).

    Returns ``next_addr`` per node index; following the pointers visits
    every node exactly once before returning to the start — the
    standard single-cycle chase construction.
    """
    if num_nodes < 2:
        raise ValueError("a chase needs at least 2 nodes")
    rng = np.random.default_rng(seed)
    perm = np.arange(num_nodes)
    # Sattolo's algorithm: uniform over single-cycle permutations.
    for i in range(num_nodes - 1, 0, -1):
        j = int(rng.integers(0, i))
        perm[i], perm[j] = perm[j], perm[i]
    succ = np.empty(num_nodes, dtype=np.int64)
    order = list(perm)
    for k in range(num_nodes):
        succ[order[k]] = order[(k + 1) % num_nodes]
    return [region_offset + int(s) * node_bytes for s in succ]


def pointer_chase_run(
    sim: HMCSim,
    host: Host,
    num_nodes: int = 256,
    hops: int = 256,
    node_bytes: int = 16,
    seed: int = 1,
    cub: int = 0,
    max_cycles_per_hop: int = 10_000,
    think_cycles: int = 0,
) -> ChaseResult:
    """Write a chase table into the device, then chase it.

    Each node stores its successor's address in its first 64-bit word;
    the chase issues one dependent read at a time and waits for the
    response before continuing.

    *think_cycles* models host compute between dependent loads (the
    classic latency-bound pattern: chase, compute on the node, chase
    again).  The device is quiescent for that window, and nothing moves
    while the read in flight waits at the crossbar's registered input:
    the engine fast-forwards both (:meth:`HMCSim.run`,
    :meth:`HMCSim.clock_until_response`) where the tests' full-walk
    reference ticks each cycle.
    """
    if node_bytes not in WRITE_CMD_FOR_BYTES:
        raise ValueError(f"unsupported node size {node_bytes}")
    wr = WRITE_CMD_FOR_BYTES[node_bytes]
    rd = READ_CMD_FOR_BYTES[node_bytes]
    table = build_chase_table(num_nodes, node_bytes=node_bytes, seed=seed)
    words_per_node = node_bytes // 8

    # Phase 1: populate the table (throughput mode).
    def writes():
        for idx, nxt in enumerate(table):
            payload = [nxt] + [0] * (words_per_node - 1)
            yield (wr, idx * node_bytes, payload)

    host.run(writes(), cub=cub)

    # Phase 2: dependent chase.
    start_cycle = sim.clock_value
    latencies: List[int] = []
    addr = 0
    for _ in range(hops):
        sent_at = sim.clock_value
        tag = None
        waited = 0
        while tag is None:
            tag = host.send_request(rd, addr, cub=cub)
            if tag is None:
                sim.clock()
                host.drain_responses()
                waited += 1
                if waited > max_cycles_per_hop:
                    raise RuntimeError("pointer chase could not inject a read")
        rsp = None
        deadline = sent_at + max_cycles_per_hop + 1
        while rsp is None:
            sim.clock_until_response(deadline - sim.clock_value)
            for r in host.drain_responses():
                if r.tag == tag:
                    rsp = r
            if sim.clock_value - sent_at > max_cycles_per_hop:
                raise RuntimeError("pointer chase response never arrived")
        latencies.append(sim.clock_value - sent_at)
        addr = rsp.payload[0] if rsp.payload else 0
        if think_cycles:
            sim.run(think_cycles)
    return ChaseResult(
        hops=hops,
        cycles=sim.clock_value - start_cycle,
        latencies=latencies,
    )
