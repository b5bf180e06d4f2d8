"""Ablation **error-sim** — link error injection and retry recovery.

HMC-Sim targets "functional simulation, error simulation and performance
simulation" (paper §IV.5).  This bench sweeps bit-error rates on one
host link's in-band gate and reports what the noise costs in simulated
cycles, the retry traffic and the recovery — verifying that no corrupted
packet is ever accepted.
"""

import pytest

from repro.core.simulator import HMCSim
from repro.faults.link_model import LinkFaultModel
from repro.host.host import Host
from repro.packets.commands import CMD
from repro.topology.builder import build_simple
from repro.workloads.random_access import RandomAccessConfig, random_access_requests

BERS = (0.0, 1e-5, 1e-4, 5e-4)


def _noisy_sim(ber, seed):
    """One cube, one host link whose gate runs at *ber*."""
    sim = build_simple(
        HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2), host_links=1)
    state = sim.attach_link_fault(
        0, 0, LinkFaultModel(ber=ber, seed=seed), max_retries=64)
    return sim, state


def _run(ber, n, seed=1):
    sim, state = _noisy_sim(ber, seed)
    cfg = RandomAccessConfig(num_requests=n, seed=seed)
    res = Host(sim).run(random_access_requests(2 << 30, cfg))
    return res, state.stats


@pytest.mark.benchmark(group="error-sim")
@pytest.mark.parametrize("ber", BERS, ids=[f"ber={b}" for b in BERS])
def test_ber_sweep(benchmark, ber, num_requests):
    n = max(256, num_requests // 8)
    res, s = benchmark.pedantic(_run, args=(ber, n), rounds=1, iterations=1)
    print(f"\nBER {ber:g}: {res.responses_received}/{res.requests_sent} "
          f"completed, {res.cycles:,} cycles, {s.transmissions:,} "
          f"transmissions, {s.crc_failures:,} CRC failures, "
          f"{s.recovery_cycles:,} cycles of replay windows, "
          f"{s.failed} abandoned")
    assert res.responses_received == res.requests_sent
    assert res.errors_received == 0
    assert s.failed == 0


@pytest.mark.benchmark(group="error-sim-invariant")
def test_noise_never_corrupts_data(benchmark, num_requests):
    """Write through a noisy link, read everything back clean: the CRC +
    retry path guarantees end-to-end integrity."""
    n = max(64, num_requests // 32)

    def run():
        sim, state = _noisy_sim(2e-4, 9)
        host = Host(sim)
        writes = [(CMD.WR64, i * 64, [i * 8 + k for k in range(8)])
                  for i in range(n)]
        host.run(writes)
        reads = [(CMD.RD64, i * 64, None) for i in range(n)]
        host.run(reads)
        return sim, state.stats

    sim, s = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n{s.transmissions:,} transmissions, "
          f"{s.crc_failures:,} detected corruptions, "
          f"0 accepted corruptions (by construction)")
    assert s.failed == 0
    # Verify storage contents directly.
    dev = sim.devices[0]
    for i in (0, n // 2, n - 1):
        d = dev.amap.decode(i * 64)
        rel = d.dram * dev.amap.block_size + d.offset
        stored = dev.vaults[d.vault].banks[d.bank].read(rel, 64)
        assert stored == [i * 8 + k for k in range(8)]
