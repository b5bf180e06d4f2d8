"""The warm-state session pool: provisioned shard templates.

A *shard* — one chained-cube :class:`~repro.core.simulator.HMCSim` with
``slots_per_shard`` host links — is not serviceable the instant it is
constructed: real disaggregated racks train links and warm row buffers
before handing capacity to tenants.  The pool models that as
*provisioning traffic*: ``provision_requests`` seeded random-access
requests driven through every cube of the chain.

Spinning a shard up therefore comes in two flavours:

* **cold** — build the topology and re-run the provisioning traffic.
  Deterministic but expensive: the whole provisioning run is re-simulated
  on every spin-up.
* **warm** — restore the post-provisioning snapshot taken once from the
  template (:func:`repro.core.checkpoint.snapshot`).  The engine is
  deterministic, so a restored shard is *bit-identical* to a freshly
  provisioned one — including mid-flight in-band link retry pointers
  and degradation state when fault injection is enabled — at a fraction
  of the wall-clock cost.

The measurement spine's ``service.template_ms`` / ``service.spinup_warm_ms``
quantify the gap; :class:`SpinUpStats` records it per run.  Wall-clock numbers feed *only* these spin-up metrics —
nothing simulated depends on them, which keeps service runs reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.checkpoint import restore, snapshot
from repro.core.simulator import HMCSim
from repro.service.config import ServiceConfig
from repro.topology.builder import build_chain, build_simple


@dataclass
class SpinUpStats:
    """Wall-clock accounting of pool spin-up work (reporting only)."""

    template_ms: float = 0.0
    warm_ms: List[float] = field(default_factory=list)
    cold_ms: List[float] = field(default_factory=list)

    def record(self, mode: str, ms: float) -> None:
        (self.warm_ms if mode == "warm" else self.cold_ms).append(ms)

    def as_dict(self) -> dict:
        def _summary(samples: List[float]) -> dict:
            if not samples:
                return {"count": 0}
            return {
                "count": len(samples),
                "total_ms": round(sum(samples), 3),
                "mean_ms": round(sum(samples) / len(samples), 3),
                "max_ms": round(max(samples), 3),
            }

        return {
            "template_ms": round(self.template_ms, 3),
            "warm": _summary(self.warm_ms),
            "cold": _summary(self.cold_ms),
        }


def build_provisioned_shard(config: ServiceConfig) -> HMCSim:
    """Build one shard and run its provisioning traffic to completion.

    This is the cold path, and also how the warm template is produced.
    Provisioning drives seeded random-access requests at every cube in
    turn, so chain links are exercised (and, with fault injection on,
    consume their deterministic fault stream) before any tenant arrives.
    """
    sim = HMCSim(config.sim_config())
    if config.devs_per_shard == 1:
        build_simple(sim, host_links=config.slots_per_shard)
    else:
        build_chain(sim, host_links=config.slots_per_shard)
    if config.provision_requests > 0:
        from repro.host.host import Host
        from repro.workloads.random_access import (
            RandomAccessConfig,
            random_access_requests,
        )

        host = Host(sim)
        per_cub = max(1, config.provision_requests // config.devs_per_shard)
        capacity = config.device.capacity_bytes
        for cub in range(config.devs_per_shard):
            host.run(
                random_access_requests(
                    capacity,
                    RandomAccessConfig(
                        num_requests=per_cub,
                        seed=config.provision_seed + cub,
                    ),
                ),
                cub=cub,
            )
        # The provisioning host is scaffolding: its tag pools are fully
        # drained by run(), so dropping it leaves no dangling state.
    return sim


class SessionPool:
    """Spin-up factory for shards, warm (snapshot) or cold (rebuild)."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.stats = SpinUpStats()
        self._template_blob: Optional[bytes] = None

    def template_blob(self) -> bytes:
        """The post-provisioning snapshot; built and timed once."""
        if self._template_blob is None:
            t0 = time.perf_counter()
            sim = build_provisioned_shard(self.config)
            self._template_blob = snapshot(sim)
            self.stats.template_ms = (time.perf_counter() - t0) * 1e3
            sim.free()
        return self._template_blob

    def spin_up(self, mode: Optional[str] = None) -> "tuple[HMCSim, float]":
        """Produce one serviceable shard; returns ``(sim, wall_ms)``.

        Warm and cold produce bit-identical simulated state; only the
        wall cost differs.  ``mode`` overrides the configured default
        (the benchmark suite measures both against one pool).
        """
        mode = mode or self.config.spin_up
        if mode == "warm":
            blob = self.template_blob()  # template cost excluded: paid once
            t0 = time.perf_counter()
            sim = restore(blob)
        elif mode == "cold":
            t0 = time.perf_counter()
            sim = build_provisioned_shard(self.config)
        else:
            raise ValueError(f"spin_up mode must be 'warm' or 'cold', got {mode!r}")
        ms = (time.perf_counter() - t0) * 1e3
        self.stats.record(mode, ms)
        return sim, ms
