"""Hierarchical statistics dump.

Walks a simulation object and collects every component's counters into
one nested, JSON-serialisable dictionary — the machine-readable
counterpart of the trace stream, in the spirit of SST's statistics
output (the framework the paper positions HMC-Sim alongside, §II).
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.core.simulator import HMCSim


def queue_stats(q) -> Dict[str, int]:
    return {
        "depth": q.depth,
        "occupancy": q.occupancy,
        "high_water": q.high_water,
        "enqueued": q.total_enqueued,
        "dequeued": q.total_dequeued,
        "stalls": q.total_stalls,
    }


def bank_stats(b) -> Dict[str, int]:
    return {
        "reads": b.reads,
        "writes": b.writes,
        "atomics": b.atomics,
        "conflicts": b.conflicts,
        "column_fetches": b.column_fetches,
        "row_hits": b.row_hits,
        "row_misses": b.row_misses,
        "touched_bytes": b.touched_bytes,
        "resident_bytes": b.resident_bytes,
    }


def vault_stats(v) -> Dict[str, Any]:
    return {
        "reads": v.rd_count,
        "writes": v.wr_count,
        "atomics": v.atomic_count,
        "mode_accesses": v.mode_count,
        "conflicts": v.conflict_count,
        "issue_stall_cycles": v.issue_stall_cycles,
        "rsp_stalls": v.rsp_stall_count,
        "rqst_queue": queue_stats(v.rqst),
        "rsp_queue": queue_stats(v.rsp),
        "banks": [bank_stats(b) for b in v.banks],
    }


def xbar_stats(x) -> Dict[str, Any]:
    return {
        "routed_local": x.routed_local,
        "routed_remote": x.routed_remote,
        "stalls": x.stall_events,
        "latency_penalties": x.latency_events,
        "misroutes": x.misroutes,
        "expired": x.expired,
        "rqst_queue": queue_stats(x.rqst),
        "rsp_queue": queue_stats(x.rsp),
    }


def link_stats(l) -> Dict[str, Any]:
    out = {
        "configured": l.configured,
        "host_link": l.is_host_link,
        "chain_link": l.is_chain_link,
        "tx_packets": l.tx_packets,
        "rx_packets": l.rx_packets,
        "tx_flits": l.tx_flits,
        "rx_flits": l.rx_flits,
        "rate_gbps": l.rate_gbps,
        "lanes": l.lanes,
    }
    if l.fault_state is not None:
        out["health"] = l.health
        out["effective_lanes"] = l.effective_lanes()
        out["effective_bandwidth_gbps"] = l.effective_bandwidth_gbps()
    return out


def device_stats(dev) -> Dict[str, Any]:
    out = {
        "dev_id": dev.dev_id,
        "config": dev.config.label(),
        "is_root": dev.is_root,
        "requests_processed": dev.total_requests_processed,
        "bank_conflicts": dev.total_bank_conflicts,
        "xbar_stalls": dev.total_xbar_stalls,
        "latency_penalties": dev.total_latency_penalties,
        "register_reads": dev.regs.read_count,
        "register_writes": dev.regs.write_count,
        "links": [link_stats(l) for l in dev.links],
        "xbars": [xbar_stats(x) for x in dev.xbars],
        "vaults": [vault_stats(v) for v in dev.vaults],
    }
    if dev.ras is not None:
        out["ras"] = dev.ras.stats()
    return out


def dump_stats(sim: HMCSim, include_banks: bool = True) -> Dict[str, Any]:
    """Collect the full statistics tree for one simulation object.

    With ``include_banks`` false, per-bank detail is elided (the tree
    for an 8-link device holds 512 banks) while vault-level aggregates
    remain.
    """
    tree: Dict[str, Any] = {
        "cycles": sim.clock_value,
        "summary": sim.stats(),
        "config": {
            "num_devs": sim.config.num_devs,
            "device": sim.config.device.label(),
            "queue_depth": sim.config.device.queue_depth,
            "xbar_depth": sim.config.device.xbar_depth,
            "bank_busy_cycles": sim.config.bank_busy_cycles,
            "xbar_moves_per_cycle": sim.config.xbar_moves_per_cycle,
            "vault_issue_width": sim.config.vault_issue_width,
            "row_policy": sim.config.row_policy,
        },
        "devices": [device_stats(d) for d in sim.devices],
        "stage_counts": list(sim.engine.stage_counts),
    }
    prof = getattr(sim.engine, "profiler", None)
    if prof is not None:
        tree["profile"] = prof.report(sim.engine.stage_counts)
    if not include_banks:
        for dev in tree["devices"]:
            for vault in dev["vaults"]:
                vault.pop("banks")
    if sim._link_fault_states:
        # In-band retry/degradation: config knobs + the full structured
        # link report (health, counters, retry pointers, watchdog trips).
        tree["config"]["link_ber"] = sim.config.link_ber
        tree["config"]["link_drop_rate"] = sim.config.link_drop_rate
        tree["config"]["link_seed"] = sim.config.link_seed
        tree["config"]["watchdog_cycles"] = sim.config.watchdog_cycles
        tree["link_report"] = sim.link_report()
    return tree


def to_json(sim: HMCSim, include_banks: bool = False, indent: int = 2) -> str:
    """JSON text of the statistics tree."""
    return json.dumps(dump_stats(sim, include_banks=include_banks), indent=indent)
