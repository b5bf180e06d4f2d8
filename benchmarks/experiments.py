"""The numbers in EXPERIMENTS.md, generated.

Each experiment below runs the simulator at a size and seed fixed here
and returns a markdown fragment.  :func:`render` writes each fragment
between the ``<!-- experiment: NAME -->`` and ``<!-- /experiment -->``
markers of the same name.  Every number is a simulated quantity —
cycles, event counts, req/cycle, latencies in cycles, GB/s, pJ/bit,
IPC — so a rerun on any machine writes the same bytes.  Host wall time
is measured by the benchmark spine (``benchmarks/spine``), not here.

    PYTHONPATH=src python -m benchmarks.experiments   # rewrites EXPERIMENTS.md

``tests/test_experiments.py`` fails when the file and the code disagree,
so a change that moves a number regenerates the file in the same commit.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable, Dict, Iterable, Sequence

from repro.addressing.address_map import AddressMap, AddressMapMode
from repro.analysis import bandwidth as bw
from repro.analysis.energy import estimate
from repro.analysis.figures import SERIES_NAMES, run_figure5
from repro.analysis.reliability import ras_sweep, render_reliability
from repro.analysis.tables import PAPER_SPEEDUPS, run_table1, speedups
from repro.core.config import PAPER_CONFIGS, DeviceConfig
from repro.core.simulator import HMCSim
from repro.cpu.assembler import assemble
from repro.cpu.core import GoblinCore
from repro.cpu.programs import gups_kernel, vector_sum_kernel
from repro.faults.link_model import LinkFaultModel
from repro.host.host import Host, LinkPolicy
from repro.packets.commands import CMD
from repro.registers.regdefs import index_by_name, physical_index
from repro.topology import builder as topo
from repro.topology.route import mean_host_distance
from repro.topology.validate import diagnose
from repro.workloads.pointer_chase import pointer_chase_run
from repro.workloads.random_access import (
    RandomAccessConfig,
    random_access_requests,
    run_random_access,
)
from repro.workloads.stream import stream_requests

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

#: The experiments in file order; each name is its block's name.
EXPERIMENTS: Dict[str, Callable[[], str]] = {}

SHORT = {label: f"{d.num_links}L/{d.num_banks}B" for label, d in PAPER_CONFIGS.items()}
PAPER_REQUESTS = 1 << 25
TWO_GB = 2 << 30


def experiment(fn: Callable[[], str]) -> Callable[[], str]:
    EXPERIMENTS[fn.__name__] = fn
    return fn


def _table(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(lines)


def _simple(links=4, banks=8, capacity=2, **knobs) -> HMCSim:
    """One cube with every link a host link."""
    return topo.build_simple(HMCSim(num_devs=1, num_links=links, num_banks=banks,
                                    capacity=capacity, **knobs))


def _random(n: int, **kw) -> list:
    return list(random_access_requests(TWO_GB, RandomAccessConfig(num_requests=n, **kw)))


# ---------------------------------------------------------------- Table I

@experiment
def table1() -> str:
    rows = run_table1(num_requests=1 << 15)
    sp = speedups(rows)
    cells = _table(
        ("Device configuration", "Paper cycles (2^25 reqs)", "Paper req/cyc",
         "Measured cycles (2^15 reqs)", "Measured req/cyc"),
        ((r.label, f"{r.paper_cycles:,}", f"{PAPER_REQUESTS / r.paper_cycles:.2f}",
          f"{r.cycles:,}", f"{r.requests_per_cycle:.2f}") for r in rows))
    aggregates = _table(
        ("Aggregate", "Paper", "Measured"),
        (("bank speedup (8 → 16 banks, same links)",
          f"{PAPER_SPEEDUPS['bank_speedup']:.3f}×", f"{sp['bank_speedup']:.3f}×"),
         ("link speedup (4 → 8 links, same banks)",
          f"{PAPER_SPEEDUPS['link_speedup']:.3f}×", f"{sp['link_speedup']:.3f}×")))
    return f"{cells}\n\nSpeedup aggregates (the numbers the paper's text reports):\n\n{aggregates}"


@experiment
def table1_sizes() -> str:
    def row(size, cycles, sp):
        per = [f"{c:,} ({n / c:.2f})" for c, n in cycles]
        return (size, *per, f"{sp['bank_speedup']:.3f}×", f"{sp['link_speedup']:.3f}×")

    out = []
    for log2 in (13, 15, 16, 18):
        rows = run_table1(num_requests=1 << log2)
        out.append(row(f"2^{log2}", [(r.cycles, 1 << log2) for r in rows], speedups(rows)))
    out.append(row("paper, 2^25", [(r.paper_cycles, PAPER_REQUESTS) for r in rows],
                   PAPER_SPEEDUPS))
    return _table(("requests/config", *(f"{s} cycles (req/cyc)" for s in SHORT.values()),
                   "bank speedup", "link speedup"), out)


# ---------------------------------------------------------------- Figure 5

def _figure5(label: str):
    return run_figure5(PAPER_CONFIGS[label], RandomAccessConfig(num_requests=1 << 13))


@experiment
def figure5() -> str:
    data = _figure5("4-Link; 8-Bank; 2GB")
    means, util = data.means(), data.vault_utilization
    series = _table(("Series", "total", "peak/cycle", "mean/cycle"),
                    ((f"`{name}`", f"{data.series[name].total:,}", data.series[name].peak,
                      f"{means[name]:.1f}") for name in SERIES_NAMES))
    return (f"{data.label}, 2^13 requests, {data.num_cycles:,} cycles:\n\n{series}\n\n"
            f"Requests per vault: min {int(util.min())} / max {int(util.max())} / "
            f"mean {float(util.mean()):.0f}.")


@experiment
def figure5_per_request() -> str:
    def row(label):
        totals = _figure5(label).totals()
        return (label, f"{totals['xbar_rqst_stalls'] / (1 << 13):.3f}",
                f"{totals['latency_penalties'] / (1 << 13):.3f}")

    return _table(("Device configuration (2^13 requests)", "crossbar stalls per request",
                   "latency penalties per request"), map(row, PAPER_CONFIGS))


# ---------------------------------------------------------------- Figure 1

def _cubes(n: int) -> HMCSim:
    return HMCSim(num_devs=n, num_links=4, num_banks=8, capacity=2)


def _reads(sim: HMCSim, cub: int, n: int):
    return Host(sim).run([(CMD.RD64, i * 64, None) for i in range(n)], cub=cub)


@experiment
def topologies() -> str:
    shapes = {
        "simple (1 cube)": lambda: topo.build_simple(_cubes(1)),
        "chain": lambda: topo.build_chain(_cubes(6)),
        "ring": lambda: topo.build_ring(_cubes(6)),
        "mesh 2×3": lambda: topo.build_mesh(_cubes(6), shape=(2, 3)),
        "torus 2×3": lambda: topo.build_torus_2d(_cubes(6), shape=(2, 3)),
    }
    rows = []
    for name, build in shapes.items():
        sim = build()
        chain_links, dist = diagnose(sim).chain_links, mean_host_distance(sim)
        res = _reads(sim, len(sim.devices) - 1, 256)
        rows.append((name, chain_links, f"{dist:.2f}", f"{res.mean_latency:.1f} cyc"))
    chain = topo.build_chain(_cubes(6))
    depth = " → ".join(f"{_reads(chain, cub, 64).mean_latency:.1f}" for cub in range(6))
    return (_table(("Topology", "chain links", "mean host distance",
                    "mean latency to far cube"), rows)
            + f"\n\nMean latency of 64 reads to cube 0 … 5 of one chain: {depth} cycles.")


# ---------------------------------------------------------------- ablations

@experiment
def queue_depth() -> str:
    def run(vault, xbar):
        dev = DeviceConfig(num_links=4, num_banks=8, capacity=2,
                           queue_depth=vault, xbar_depth=xbar)
        res = run_random_access(dev, RandomAccessConfig(num_requests=1024))
        s = res.sim_stats
        return (vault, xbar, f"{res.cycles:,}", f"{res.run.mean_latency:.1f}",
                f"{res.run.p99_latency:.0f}", f"{s['xbar_stalls']:,}", f"{s['send_stalls']:,}")

    runs = [run(d, 128) for d in (4, 16, 64, 256)] + [run(64, d) for d in (8, 32, 512)]
    return _table(("vault depth", "crossbar depth", "cycles", "mean latency",
                   "p99 latency", "crossbar stalls", "send stalls"), runs)


def _run_mapped(mode: AddressMapMode, requests) -> tuple:
    sim = _simple()
    for d in sim.devices:
        d.amap = AddressMap(num_vaults=d.amap.num_vaults, num_banks=d.amap.num_banks,
                            block_size=d.amap.block_size,
                            capacity_bytes=d.amap.capacity_bytes, mode=mode)
    return Host(sim).run(requests), sim.stats()["bank_conflicts"]


@experiment
def address_map() -> str:
    rows = []
    for mode in (AddressMapMode.VAULT_BANK, AddressMapMode.BANK_VAULT, AddressMapMode.LINEAR):
        seq, conflicts = _run_mapped(mode, list(stream_requests(TWO_GB, 1024)))
        rnd, _ = _run_mapped(mode, _random(1024))
        rows.append((f"`{mode.value}`", f"{seq.cycles:,}", f"{conflicts:,}",
                     f"{seq.mean_latency:.1f}", f"{rnd.cycles:,}"))
    return _table(("map", "stream cycles", "stream bank conflicts",
                   "stream mean latency", "random cycles"), rows)


@experiment
def link_routing() -> str:
    rows = []
    for policy in (LinkPolicy.ROUND_ROBIN, LinkPolicy.RANDOM, LinkPolicy.LOCALITY):
        sim = _simple()
        res, stats = Host(sim, policy=policy).run(_random(1024)), sim.stats()
        sim = _simple()
        chase = pointer_chase_run(sim, Host(sim, policy=policy), num_nodes=64, hops=64)
        rows.append((f"`{policy.value}`", f"{res.cycles:,}", f"{res.mean_latency:.1f}",
                     f"{stats['latency_penalties']:,}", f"{stats['xbar_stalls']:,}",
                     f"{chase.mean_latency:.2f}"))
    return _table(("link policy", "cycles", "mean latency", "latency penalties",
                   "crossbar stalls", "pointer chase cycles/hop"), rows)


_CTS = physical_index(index_by_name("CTS"))


class _JtagPollingHost(Host):
    """Reads a status register over JTAG after every *every*-th request."""

    def __init__(self, sim, every):
        super().__init__(sim)
        self.every, self.polls = every, 0

    def send_request(self, *args, **kw):
        tag = super().send_request(*args, **kw)
        if tag is not None and self.sent % self.every == 0:
            self.sim.jtag_reg_read(0, _CTS)
            self.polls += 1
        return tag


@experiment
def register_access() -> str:
    # One crossbar move per link per cycle: injection is the bottleneck,
    # so register packets compete with memory packets (§V.D's regime).
    def sim():
        return _simple(xbar_moves_per_cycle=1)

    base = Host(sim()).run(_random(1024))
    jtag_host = _JtagPollingHost(sim(), every=4)
    jtag = jtag_host.run(_random(1024))
    polled = []
    for i, req in enumerate(_random(1024)):
        polled.append(req)
        if (i + 1) % 4 == 0:
            polled.append((CMD.MD_RD, _CTS, None))
    mode = Host(sim()).run(polled)
    rows = [("none", 0, base), ("JTAG (out of band)", jtag_host.polls, jtag),
            ("MODE_READ packets", len(polled) - 1024, mode)]
    return _table(("status polls via", "polls", "cycles", "vs none"),
                  ((name, f"{polls:,}", f"{r.cycles:,}", f"{r.cycles / base.cycles:.3f}×")
                   for name, polls, r in rows))


@experiment
def error_injection() -> str:
    rows = []
    for ber in (0.0, 1e-5, 1e-4, 5e-4):
        sim = topo.build_simple(_cubes(1), host_links=1)
        gate = sim.attach_link_fault(0, 0, LinkFaultModel(ber=ber, seed=1), max_retries=64)
        res = Host(sim).run(_random(512))
        s = gate.stats
        rows.append((f"{ber:g}", f"{res.responses_received}/{res.requests_sent}",
                     f"{res.cycles:,}", f"{s.transmissions:,}", f"{s.crc_failures:,}",
                     f"{s.recovery_cycles:,}", s.failed))
    return _table(("BER", "completed", "cycles", "transmissions", "CRC failures",
                   "replay-window cycles", "abandoned"), rows)


@experiment
def row_policy() -> str:
    workloads = {
        "sequential stream": lambda: stream_requests(TWO_GB, 512),
        "random reads": lambda: _random(512, read_fraction=1.0),
        "row-local (8 blocks)": lambda: [(CMD.RD64, (i % 8) * 64, None) for i in range(512)],
        "row-thrashing": lambda: [(CMD.RD64, (i * 16 * 4096) % (1 << 30), None)
                                  for i in range(512)],
    }

    def run(policy, requests):
        sim = _simple(row_policy=policy, row_hit_cycles=3, row_miss_cycles=22)
        res = Host(sim).run(list(requests))
        banks = [b for v in sim.devices[0].vaults for b in v.banks]
        hits = sum(b.row_hits for b in banks)
        return res.cycles, hits / max(hits + sum(b.row_misses for b in banks), 1)

    rows = []
    for name, requests in workloads.items():
        closed, _ = run("closed", requests())
        opened, hit_rate = run("open", requests())
        rows.append((name, f"{closed:,}", f"{opened:,}", f"{hit_rate:.2f}"))
    return _table(("512 reads", "constant-time cycles", "open-row cycles",
                   "open-row hit rate"), rows)


def _energy(dev: DeviceConfig, requests, **knobs):
    sim = _simple(dev.num_links, dev.num_banks, dev.capacity, **knobs)
    Host(sim).run(requests)
    return estimate(sim)


@experiment
def energy() -> str:
    rows = []
    for label, dev in PAPER_CONFIGS.items():
        report = _energy(dev, list(random_access_requests(
            dev.capacity_bytes, RandomAccessConfig(num_requests=1024))))
        share = {k: f"{v / report.total_pj:.0%}" for k, v in report.components.items()}
        rows.append((label, f"{report.pj_per_bit:.2f}", share["links"],
                     share["activations"], share["columns"], share["background"]))
    local = [(CMD.RD64, (i % 8) * 64, None) for i in range(1024)]
    dev = PAPER_CONFIGS["4-Link; 8-Bank; 2GB"]
    closed, opened = (_energy(dev, local, row_policy=p).components["activations"]
                      for p in ("closed", "open"))
    return (_table(("Device configuration (1,024 requests)", "pJ per delivered bit",
                    "links", "activations", "columns", "background"), rows)
            + f"\n\nActivation energy of 1,024 row-local reads: {closed / 1e3:,.1f} nJ "
              f"constant-time, {opened / 1e3:,.1f} nJ open-row ({closed / opened:.1f}× less).")


@experiment
def cpu_threads() -> str:
    def core(threads, banks, programs):
        sim = _simple(banks=banks, capacity=2 if banks == 8 else 4)
        return GoblinCore(sim, [assemble(p) for p in programs]).run()

    rows = []
    for t in (1, 4, 16, 32):
        res = core(t, 8, [vector_sum_kernel(0x10000 + 512 * i, 64, 0x100 + 16 * i)
                          for i in range(t)])
        rows.append((t, f"{res.ipc:.3f}", f"{res.instructions:,}", f"{res.cycles:,}"))
    gups = [gups_kernel(0x0, table_words=1 << 14, updates=64, seed=3 + i) for i in range(16)]
    rate = {banks: core(16, banks, gups) for banks in (8, 16)}
    return (_table(("hardware threads", "IPC", "instructions", "cycles"), rows)
            + "\n\nGUPS, 16 threads × 64 updates: "
            + ", ".join(f"{r.amos / r.cycles:.3f} updates/cycle with {b} banks"
                        for b, r in rate.items()) + ".")


@experiment
def bandwidth() -> str:
    def run(dev, n, size=64):
        sim = _simple(dev.num_links, dev.num_banks, dev.capacity)
        res = Host(sim).run(random_access_requests(
            dev.capacity_bytes, RandomAccessConfig(num_requests=n, request_bytes=size)))
        return res, bw.measure(sim)

    rows = []
    for label, dev in PAPER_CONFIGS.items():
        _, report = run(dev, 1024)
        rows.append((label, f"{report.delivered_gbs:.1f}", f"{report.raw_capacity_gbs:.0f}",
                     f"{report.balance:.3f}"))
    dev = PAPER_CONFIGS["4-Link; 8-Bank; 2GB"]
    sizes = []
    for size in (16, 32, 64, 128):
        res, report = run(dev, 512, size)
        sizes.append(f"{size} B: {report.total_bytes / res.cycles:.1f}")
    return (_table(("Device configuration (1,024 requests)", "delivered GB/s",
                    "raw GB/s", "link balance (min/max)"), rows)
            + "\n\nWire bytes per cycle on 4L/8B, 512 requests of each size: "
            + ", ".join(sizes) + ".")


@experiment
def ras() -> str:
    cells = ras_sweep(DeviceConfig(), [0.0, 2e6], [0, 64],
                      RandomAccessConfig(num_requests=1024))
    return f"```\n{render_reliability(cells)}\n```"


# ---------------------------------------------------------------- the file

_BLOCK = re.compile(r"(<!-- experiment: (\w+) -->\n)(.*?)(<!-- /experiment -->)", re.S)


def render(text: str) -> str:
    """*text* with the body of every experiment block regenerated.

    A block naming no experiment and an experiment with no block are
    errors: the file and this module list the same experiments.
    """
    names = {m.group(2) for m in _BLOCK.finditer(text)}
    unknown = sorted(names - set(EXPERIMENTS))
    missing = [name for name in EXPERIMENTS if name not in names]
    if unknown or missing:
        raise ValueError(f"EXPERIMENTS.md blocks and experiments disagree: "
                         f"unknown {unknown}, missing {missing}")
    return _BLOCK.sub(
        lambda m: f"{m.group(1)}{EXPERIMENTS[m.group(2)]().rstrip()}\n{m.group(4)}", text)


def main() -> None:
    EXPERIMENTS_MD.write_text(render(EXPERIMENTS_MD.read_text()))


if __name__ == "__main__":
    main()
