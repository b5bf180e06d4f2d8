"""Queue-occupancy sampling: congestion heatmaps over time.

The trace stream records *events* (stalls, conflicts); occupancy
sampling records *state* — how full every vault and crossbar queue is,
cycle by cycle — the complementary view for diagnosing congestion
(which vaults are hot, how deep queues actually run versus their
configured depth, where the paper's 128/64 depths are head-room).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.simulator import HMCSim
from repro.host.host import Host


class OccupancySampler:
    """Samples per-vault and per-link queue occupancy of one device.

    Call :meth:`sample` once per cycle (or every N cycles); matrices
    grow geometrically.  Sampling is read-only and costs O(vaults).
    """

    def __init__(self, sim: HMCSim, dev: int = 0, initial: int = 256) -> None:
        self.sim = sim
        self.dev = dev
        device = sim.devices[dev]
        self._nv = len(device.vaults)
        self._nl = len(device.xbars)
        self._cap = max(16, initial)
        self._vault = np.zeros((self._cap, self._nv), dtype=np.int32)
        self._xbar = np.zeros((self._cap, self._nl), dtype=np.int32)
        self._cycles: List[int] = []
        self.samples = 0

    def _grow(self) -> None:
        self._cap *= 2
        v = np.zeros((self._cap, self._nv), dtype=np.int32)
        v[: self.samples] = self._vault[: self.samples]
        self._vault = v
        x = np.zeros((self._cap, self._nl), dtype=np.int32)
        x[: self.samples] = self._xbar[: self.samples]
        self._xbar = x

    def sample(self) -> None:
        """Record the current queue occupancies."""
        if self.samples >= self._cap:
            self._grow()
        device = self.sim.devices[self.dev]
        for i, vault in enumerate(device.vaults):
            self._vault[self.samples, i] = len(vault.rqst)
        for i, xbar in enumerate(device.xbars):
            self._xbar[self.samples, i] = len(xbar.rqst)
        self._cycles.append(self.sim.clock_value)
        self.samples += 1

    # -- views ---------------------------------------------------------------

    def vault_matrix(self) -> np.ndarray:
        """(samples, vaults) request-queue occupancy matrix."""
        return self._vault[: self.samples].copy()

    def xbar_matrix(self) -> np.ndarray:
        """(samples, links) crossbar request-queue occupancy matrix."""
        return self._xbar[: self.samples].copy()

    def cycles(self) -> np.ndarray:
        return np.asarray(self._cycles, dtype=np.int64)

    def peak_vault_occupancy(self) -> int:
        m = self.vault_matrix()
        return int(m.max()) if m.size else 0

    def mean_vault_occupancy(self) -> float:
        m = self.vault_matrix()
        return float(m.mean()) if m.size else 0.0

    def hottest_vault(self) -> int:
        """Vault with the highest time-integrated occupancy."""
        m = self.vault_matrix()
        if not m.size:
            return -1
        return int(m.sum(axis=0).argmax())

    def render_heatmap(self, buckets: int = 24) -> str:
        """ASCII heatmap: rows = vaults, columns = time buckets."""
        m = self.vault_matrix()
        if not m.size:
            return "(no samples)"
        shades = " .:-=+*#%@"
        nb = min(buckets, m.shape[0])
        edges = np.linspace(0, m.shape[0], nb + 1).astype(int)
        bucketed = np.stack(
            [m[edges[i]:max(edges[i + 1], edges[i] + 1)].mean(axis=0)
             for i in range(nb)]
        )  # (buckets, vaults)
        hi = bucketed.max() or 1.0
        lines = [f"vault request-queue occupancy (peak {m.max()}, depth "
                 f"{self.sim.devices[self.dev].vaults[0].rqst.depth})"]
        for v in range(self._nv):
            row = "".join(
                shades[int(bucketed[b, v] / hi * (len(shades) - 1))]
                for b in range(nb)
            )
            lines.append(f"  vault {v:>2} |{row}|")
        return "\n".join(lines)


class _SamplingHost(Host):
    """A :class:`Host` that samples every *every* cycles, after the
    clock and before the drain."""

    def __init__(self, sim: HMCSim, sampler: OccupancySampler, every: int,
                 **host_kwargs) -> None:
        super().__init__(sim, **host_kwargs)
        self.sampler = sampler
        self.every = every
        self._ticks = 0

    def drain_responses(self):
        if self._ticks % self.every == 0:
            self.sampler.sample()
        self._ticks += 1
        return super().drain_responses()


def sample_run(sim: HMCSim, requests, every: int = 1, dev: int = 0,
               **host_kwargs):
    """Drive *requests* with :meth:`Host.run` while sampling occupancy
    of device *dev* every *every* cycles.

    Returns ``(HostRunResult, OccupancySampler)``.  *host_kwargs* go to
    the :class:`Host` (``policy``, ``max_outstanding``, ...).
    """
    sampler = OccupancySampler(sim, dev=dev)
    host = _SamplingHost(sim, sampler, every, **host_kwargs)
    return host.run(requests), sampler
