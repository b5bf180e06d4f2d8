"""The paper's random-access memory test harness (§VI.A).

"We have constructed a random access memory test harness.  The test
application has the ability to generate a randomized stream of mixed
reads and writes of varying block sizes against a specified HMC device
configuration...  The tests were executed using 33,554,432 64-byte
memory requests where the read/write mixture was 50/50."

:func:`run_random_access` reproduces that experiment end to end for any
device configuration and request count; Table I is this function mapped
over the four paper configurations, and Figure 5 is the same run with
tracing enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.config import DeviceConfig, SimConfig
from repro.core.simulator import HMCSim
from repro.host.host import Host, HostRunResult, LinkPolicy
from repro.packets.commands import CMD, READ_CMD_FOR_BYTES, WRITE_CMD_FOR_BYTES
from repro.trace.events import EventType
from repro.trace.stats import TraceStats
from repro.trace.tracer import StatsSink
from repro.workloads.lcg import LCG, GlibcRand


@dataclass(frozen=True)
class RandomAccessConfig:
    """Parameters of one random-access run."""

    #: Number of memory requests (paper: 2**25; scaled default 2**14).
    num_requests: int = 1 << 14
    #: Request block size in bytes (paper: 64).
    request_bytes: int = 64
    #: Fraction of reads in the mix (paper: 0.5).
    read_fraction: float = 0.5
    #: PRNG seed.
    seed: int = 1
    #: Use the bit-exact glibc ``random()`` stream instead of the
    #: TYPE_0 LCG (identical statistics, different exact stream).
    use_glibc_rand: bool = False
    #: Host link-selection policy (paper: round-robin).
    policy: LinkPolicy = LinkPolicy.ROUND_ROBIN
    #: Cap on in-flight tagged requests (9-bit tag space).
    max_outstanding: int = 512

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        if self.request_bytes not in READ_CMD_FOR_BYTES:
            raise ValueError(
                f"request_bytes must be one of {sorted(READ_CMD_FOR_BYTES)}, "
                f"got {self.request_bytes}"
            )
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")


@dataclass
class RandomAccessResult:
    """Outcome of one random-access run (one Table I cell + extras)."""

    label: str
    cfg: RandomAccessConfig
    #: "Simulated Runtime in Cycles" — the Table I metric.
    cycles: int
    run: HostRunResult
    sim_stats: Dict[str, int]
    #: Figure-5 aggregation, populated when tracing was requested.
    trace_stats: Optional[TraceStats] = None
    #: The simulation object, kept only when ``keep_sim`` was requested
    #: (post-run inspection, e.g. the reliability report's final scrub).
    sim: Optional[HMCSim] = None
    #: Host wall-clock time of the run in seconds (simulator speed, not
    #: a simulated quantity).
    wall_seconds: float = 0.0

    @property
    def requests_per_cycle(self) -> float:
        return self.cfg.num_requests / self.cycles if self.cycles else 0.0

    @property
    def requests_per_sec(self) -> float:
        """Wall-clock host throughput (requests per second of real time)."""
        return (
            self.run.requests_sent / self.wall_seconds
            if self.wall_seconds > 0
            else 0.0
        )


def request_batches(
    capacity_bytes: int,
    cfg: RandomAccessConfig,
    batch_draws: int = 8192,
) -> Iterator[List[Tuple[CMD, int, Optional[list]]]]:
    """Generate the paper's request stream in vectorized batches.

    Addresses are uniform over the device capacity, aligned to the
    request block; the read/write decision consumes one PRNG draw, the
    address another, and writes carry PRNG-generated payload data — so
    "the resulting memory pattern is similar to a parallel random
    number sort" of the device contents.

    The PRNG advances in blocks (:meth:`~repro.workloads.lcg.LCG.
    raw31_block`) and every per-draw derivation — the read/write cut,
    the multiply-shift address, the three-draw 64-bit payload packing —
    is computed for a whole block with numpy before a cheap cursor walk
    slices requests out of the precomputed lists.  The draw stream and
    its per-request consumption order are exactly the scalar harness's,
    so the emitted requests are bit-identical to the historical
    one-call-per-request generator.
    """
    rng = GlibcRand(cfg.seed) if cfg.use_glibc_rand else LCG(cfg.seed)
    blocks = capacity_bytes // cfg.request_bytes
    rd_cmd = READ_CMD_FOR_BYTES[cfg.request_bytes]
    wr_cmd = WRITE_CMD_FOR_BYTES[cfg.request_bytes]
    payload_words = cfg.request_bytes // 8
    # Map the read fraction onto the 31-bit draw range.
    read_cut = np.uint64(int(cfg.read_fraction * 0x8000_0000))
    request_bytes = cfg.request_bytes
    # Worst-case draws per request: decision + address + 3 per payload
    # word (writes).  The cursor never reads past p + worst - 1, so a
    # refill happens while every precomputed index is still in range.
    worst = 2 + 3 * payload_words
    # A short stream (a service tenant's dozen requests) fits one block
    # far smaller than the default: size it to the stream, as a power of
    # two so the per-length coefficient caches stay few.
    fits = 1 << (cfg.num_requests * worst - 1).bit_length()
    batch_draws = max(min(batch_draws, fits), 4 * worst)
    remaining = cfg.num_requests
    tail = np.empty(0, dtype=np.uint64)
    while remaining > 0:
        o = np.concatenate([tail, rng.raw31_block(batch_draws)])
        n = len(o)
        is_read = (o < read_cut).tolist()
        addrs = (((o * np.uint64(blocks)) >> np.uint64(31))
                 * np.uint64(request_bytes)).tolist()
        # u64[k] packs draws k, k+1, k+2 — one entry per possible start.
        u64 = ((o[:-2] << np.uint64(33))
               | (o[1:-1] << np.uint64(2))
               | (o[2:] & np.uint64(3))).tolist()
        out: List[Tuple[CMD, int, Optional[list]]] = []
        p = 0
        while p + worst <= n and remaining > 0:
            if is_read[p]:
                out.append((rd_cmd, addrs[p + 1], None))
                p += 2
            else:
                out.append(
                    (wr_cmd, addrs[p + 1], u64[p + 2 : p + 2 + 3 * payload_words : 3])
                )
                p += worst
            remaining -= 1
        tail = o[p:]
        yield out


def random_access_requests(
    capacity_bytes: int,
    cfg: RandomAccessConfig,
) -> Iterator[Tuple[CMD, int, Optional[list]]]:
    """Per-request view of :func:`request_batches` (same stream)."""
    for batch in request_batches(capacity_bytes, cfg):
        yield from batch


def run_random_access(
    device: DeviceConfig,
    cfg: RandomAccessConfig = RandomAccessConfig(),
    sim_config: Optional[SimConfig] = None,
    trace: bool = False,
    trace_mask: EventType = EventType.FIGURE5,
    max_cycles: int = 50_000_000,
    keep_sim: bool = False,
) -> RandomAccessResult:
    """Run the paper's random-access experiment on one configuration.

    Builds a single device with every link attached to the host (the
    harness round-robins "across all possible injection points"),
    streams ``cfg.num_requests`` mixed requests, and reports the
    simulated runtime in cycles once every response has returned.

    With *trace* enabled, Figure-5 counters are aggregated online into
    ``result.trace_stats`` (memory-bounded, unlike the paper's 16–40 GB
    raw trace files).
    """
    scfg = sim_config or SimConfig(device=device)
    if scfg.device != device:
        scfg = scfg.with_(device=device)
    sim = HMCSim(scfg)
    for link in range(device.num_links):
        sim.attach_host(0, link)

    stats: Optional[TraceStats] = None
    if trace:
        stats = TraceStats(num_vaults=device.num_vaults)
        sim.set_trace_mask(trace_mask)
        sim.add_trace_sink(StatsSink(stats))

    host = Host(
        sim,
        policy=cfg.policy,
        max_outstanding=cfg.max_outstanding,
        seed=cfg.seed,
    )
    stream = random_access_requests(device.capacity_bytes, cfg)
    wall_start = perf_counter()
    run = host.run(stream, cub=0, max_cycles=max_cycles)
    wall = perf_counter() - wall_start
    return RandomAccessResult(
        label=device.label(),
        cfg=cfg,
        cycles=run.cycles,
        run=run,
        sim_stats=sim.stats(),
        trace_stats=stats,
        sim=sim if keep_sim else None,
        wall_seconds=wall,
    )
