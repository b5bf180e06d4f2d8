"""Reliability analysis: CE/UE rates, scrub coverage, bandwidth cost.

Runs the paper's random-access harness against ECC-enabled devices over
a fault-rate × scrub-interval grid and reduces each run to a
:class:`ReliabilityCell`: corrected / uncorrectable error counts and
rates, what fraction of injected upsets each repair path caught, patrol
coverage, and the analytic bandwidth the patrol traffic would consume
(the scrubber itself is timing-neutral in the model — see
``docs/ras.md``).

This is the ``ras`` CLI subcommand's engine, and the RAS counterpart of
:mod:`repro.analysis.tables` (Table I) and :mod:`repro.analysis.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.config import DeviceConfig, SimConfig
from repro.ras.faultmap import ATOMS_PER_ROW
from repro.workloads.random_access import RandomAccessConfig, run_random_access

#: Bytes per storage atom (16-byte blocks, two 64-bit words).
_ATOM_BYTES = 16


@dataclass
class ReliabilityCell:
    """One point of the fault-rate × scrub-interval grid."""

    label: str
    fit_rate: float
    scrub_interval: int
    cycles: int
    requests: int
    ce: int
    ue: int
    ce_by_scrub: int
    ue_by_scrub: int
    upsets_injected: int
    upsets_masked: int
    upsets_pending: int
    atoms_scrubbed: int
    scrub_passes: int
    #: Per-upset outcome tally ("corrected-access", "corrected-scrub",
    #: "overwritten", "pending").
    outcomes: Dict[str, int] = field(default_factory=dict)

    @property
    def scrub_bytes(self) -> int:
        """Data volume the patrol read through the codec."""
        return self.atoms_scrubbed * _ATOM_BYTES

    @property
    def scrub_bw_overhead(self) -> float:
        """Patrol bytes as a fraction of demand-request bytes.

        The model's scrubber is timing-neutral, so this is the analytic
        cost a real device would pay in internal DRAM bandwidth.
        """
        demand = self.requests * 64
        return self.scrub_bytes / demand if demand else 0.0


def run_reliability_cell(
    device: DeviceConfig,
    cfg: RandomAccessConfig = RandomAccessConfig(),
    *,
    fit_rate: float = 0.0,
    scrub_interval: int = 0,
    ras_seed: int = 1,
    sim_config: Optional[SimConfig] = None,
    max_cycles: int = 50_000_000,
) -> ReliabilityCell:
    """Run one ECC-enabled random-access experiment and reduce it."""
    base = sim_config or SimConfig()
    scfg = base.with_(
        device=device.with_(ecc_enabled=True),
        ras_seed=ras_seed,
        ras_fit_rate=fit_rate,
        ras_scrub_interval=scrub_interval,
    )
    result = run_random_access(
        scfg.device, cfg, sim_config=scfg, max_cycles=max_cycles, keep_sim=True
    )
    sim = result.sim
    if scrub_interval:
        # Close out the patrol: a finite interval may not have finished
        # a device pass when the workload drains, which would leave
        # late-arriving upsets uncounted as scrub corrections.
        for dev in sim.devices:
            dev.ras.scrub_all()
    # Single-device harness: device 0's counters are the whole story.
    r = sim.devices[0].ras.stats()
    sim.free()
    return ReliabilityCell(
        label=device.label(),
        fit_rate=fit_rate,
        scrub_interval=scrub_interval,
        cycles=result.cycles,
        requests=cfg.num_requests,
        ce=r.get("ce", 0),
        ue=r.get("ue", 0),
        ce_by_scrub=r.get("ce_by_scrub", 0),
        ue_by_scrub=r.get("ue_by_scrub", 0),
        upsets_injected=r.get("upsets_injected", 0),
        upsets_masked=r.get("upsets_masked", 0),
        upsets_pending=r.get("upsets_pending", 0),
        atoms_scrubbed=r.get("atoms_scrubbed", 0),
        scrub_passes=r.get("scrub_passes", 0),
        outcomes=r.get("outcomes", {}),
    )


def ras_sweep(
    device: DeviceConfig,
    fit_rates: Sequence[float],
    scrub_intervals: Sequence[int],
    cfg: RandomAccessConfig = RandomAccessConfig(),
    *,
    ras_seed: int = 1,
) -> List[ReliabilityCell]:
    """Fault-rate × scrub-interval grid (row-major over fit_rates)."""
    cells: List[ReliabilityCell] = []
    for rate in fit_rates:
        for interval in scrub_intervals:
            cells.append(
                run_reliability_cell(
                    device,
                    cfg,
                    fit_rate=rate,
                    scrub_interval=interval,
                    ras_seed=ras_seed,
                )
            )
    return cells


def render_reliability(cells: Sequence[ReliabilityCell]) -> str:
    """Paper-style text table of a reliability sweep."""
    header = (
        f"{'FIT rate':>10} {'scrub':>8} {'cycles':>10} {'CE':>7} {'UE':>6} "
        f"{'CE(scrub)':>10} {'upsets':>7} {'pending':>8} "
        f"{'scrubbed':>9} {'bw ovh':>8}"
    )
    lines = [header, "-" * len(header)]
    for c in cells:
        lines.append(
            f"{c.fit_rate:>10.3g} {c.scrub_interval:>8d} {c.cycles:>10d} "
            f"{c.ce:>7d} {c.ue:>6d} {c.ce_by_scrub:>10d} "
            f"{c.upsets_injected:>7d} {c.upsets_pending:>8d} "
            f"{c.atoms_scrubbed:>9d} {c.scrub_bw_overhead:>8.2%}"
        )
    return "\n".join(lines)
