"""Online aggregation of trace events into per-cycle series.

Figure 5 of the paper plots, per simulated clock cycle: the number of
bank conflicts, read requests and write requests that occurred within
each vault; the number of crossbar request stalls; and the number of
latency-penalty events.  :class:`TraceStats` accumulates exactly those
counters (plus totals) from the event stream, growing its NumPy buffers
geometrically so paper-scale runs stay memory-bounded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.trace.events import EventType, TraceEvent

#: Event types tallied per (cycle,) — device-wide series.
_GLOBAL_SERIES = (
    EventType.XBAR_RQST_STALL,
    EventType.LATENCY_PENALTY,
)

#: Event types tallied per (cycle, vault).
_VAULT_SERIES = (
    EventType.BANK_CONFLICT,
    EventType.RQST_READ,
    EventType.RQST_WRITE,
)


@dataclass
class CycleSeries:
    """A named per-cycle series extracted from :class:`TraceStats`."""

    name: str
    #: Counts indexed by cycle, length = observed cycles.
    values: np.ndarray

    @property
    def total(self) -> int:
        return int(self.values.sum())

    @property
    def peak(self) -> int:
        return int(self.values.max()) if self.values.size else 0


class TraceStats:
    """Accumulates Figure-5 counters from trace events.

    Parameters
    ----------
    num_vaults:
        Vault count of the traced device(s); sizes the per-vault matrix.
    initial_cycles:
        Initial cycle-axis allocation; grows geometrically as needed.
    """

    def __init__(self, num_vaults: int, initial_cycles: int = 1024) -> None:
        if num_vaults <= 0:
            raise ValueError("num_vaults must be positive")
        self.num_vaults = num_vaults
        self._cap = max(16, initial_cycles)
        self._max_cycle = -1
        # Per-cycle global counters.  Keyed by the plain int event code:
        # IntFlag members hash/compare equal to their value, so lookups
        # work with either an EventType or a raw int (batched path).
        self._global: Dict[int, np.ndarray] = {
            int(t): np.zeros(self._cap, dtype=np.int64) for t in _GLOBAL_SERIES
        }
        # Per-cycle-per-vault counters: dict of (cycles, vaults) matrices.
        self._vault: Dict[int, np.ndarray] = {
            int(t): np.zeros((self._cap, num_vaults), dtype=np.int64)
            for t in _VAULT_SERIES
        }
        self._totals: Dict[int, int] = {}
        self._events_seen = 0
        #: Installed by :class:`~repro.trace.tracer.StatsSink` so reads
        #: can flush the owning tracer's buffered batch first.
        self._sync_hook = None

    def _sync(self) -> None:
        hook = self._sync_hook
        if hook is not None:
            hook()

    @property
    def max_cycle(self) -> int:
        self._sync()
        return self._max_cycle

    @property
    def totals(self) -> Dict[EventType, int]:
        """Total events per type (int-keyed; EventType lookups work)."""
        self._sync()
        return self._totals

    @property
    def events_seen(self) -> int:
        self._sync()
        return self._events_seen

    # -- ingestion -----------------------------------------------------------

    def _grow(self, need: int) -> None:
        new_cap = self._cap
        while new_cap <= need:
            new_cap *= 2
        for t, arr in self._global.items():
            g = np.zeros(new_cap, dtype=np.int64)
            g[: arr.size] = arr
            self._global[t] = g
        for t, arr in self._vault.items():
            m = np.zeros((new_cap, self.num_vaults), dtype=np.int64)
            m[: arr.shape[0]] = arr
            self._vault[t] = m
        self._cap = new_cap

    def add(self, event: TraceEvent) -> None:
        """Fold one event into the counters (O(1))."""
        self._events_seen += 1
        t = event.type.value
        totals = self._totals
        totals[t] = totals.get(t, 0) + 1
        c = event.cycle
        if c < 0:
            return
        if c >= self._cap:
            self._grow(c)
        if c > self._max_cycle:
            self._max_cycle = c
        g = self._global.get(t)
        if g is not None:
            g[c] += 1
            return
        v = self._vault.get(t)
        if v is not None and 0 <= event.vault < self.num_vaults:
            v[c, event.vault] += 1

    def add_batch(self, entries: list) -> None:
        """Fold a tracer batch: compact tuples and/or TraceEvents.

        Tuple entries follow the layout documented in
        :mod:`repro.trace.tracer`; the loop works on plain ints only —
        no enum dispatch, no dict-of-extras — which is what makes the
        batched full-trace path cheap.
        """
        self._events_seen += len(entries)
        # A batch spans only a few cycles, so counting distinct
        # (type, cycle, vault) triples first collapses hundreds of
        # events into a handful of keys; Counter consumes the generator
        # in C.  A non-tuple entry (TraceEvent) raises TypeError on
        # subscripting and drops to the mixed-entry loop — nothing else
        # was mutated yet, so reprocessing from scratch is safe.
        try:
            cnt = Counter((e[0], e[1], e[5]) for e in entries)
        except TypeError:
            cnt = Counter()
            for e in entries:
                if type(e) is tuple:
                    cnt[(e[0], e[1], e[5])] += 1
                else:
                    cnt[(e.type.value, e.cycle, e.vault)] += 1
        totals = self._totals
        glob = self._global
        vlt = self._vault
        num_vaults = self.num_vaults
        mx = self._max_cycle
        for (t, c, _vault), n in cnt.items():
            totals[t] = totals.get(t, 0) + n
            if c > mx:
                mx = c
        if mx >= self._cap:
            self._grow(mx)
        self._max_cycle = mx
        for (t, c, vault), n in cnt.items():
            if c < 0:
                continue
            g = glob.get(t)
            if g is not None:
                g[c] += n
                continue
            v = vlt.get(t)
            if v is not None and 0 <= vault < num_vaults:
                v[c, vault] += n

    # -- extraction ------------------------------------------------------------

    @property
    def num_cycles(self) -> int:
        """Number of observed cycles (max cycle + 1)."""
        return self.max_cycle + 1

    def global_series(self, etype: EventType) -> CycleSeries:
        """Device-wide per-cycle series (stalls, latency penalties)."""
        if etype not in self._global:
            raise KeyError(f"{etype} is not a global series")
        n = self.num_cycles
        return CycleSeries(etype.name, self._global[etype][:n].copy())

    def vault_series(self, etype: EventType, vault: Optional[int] = None) -> CycleSeries:
        """Per-cycle series for one vault, or summed over vaults."""
        if etype not in self._vault:
            raise KeyError(f"{etype} is not a per-vault series")
        n = self.num_cycles
        m = self._vault[etype][:n]
        if vault is None:
            return CycleSeries(etype.name, m.sum(axis=1))
        if not 0 <= vault < self.num_vaults:
            raise IndexError(f"vault {vault} out of range")
        return CycleSeries(f"{etype.name}[vault {vault}]", m[:, vault].copy())

    def vault_matrix(self, etype: EventType) -> np.ndarray:
        """The raw (cycles, vaults) count matrix for *etype*."""
        if etype not in self._vault:
            raise KeyError(f"{etype} is not a per-vault series")
        return self._vault[etype][: self.num_cycles].copy()

    def figure5_series(self) -> Dict[str, CycleSeries]:
        """All five Figure-5 series, summed over vaults where relevant."""
        out = {
            "bank_conflicts": self.vault_series(EventType.BANK_CONFLICT),
            "read_requests": self.vault_series(EventType.RQST_READ),
            "write_requests": self.vault_series(EventType.RQST_WRITE),
            "xbar_rqst_stalls": self.global_series(EventType.XBAR_RQST_STALL),
            "latency_penalties": self.global_series(EventType.LATENCY_PENALTY),
        }
        return out

    def vault_utilization(self) -> np.ndarray:
        """Total requests (read+write) serviced per vault."""
        n = self.num_cycles
        return (
            self._vault[EventType.RQST_READ][:n].sum(axis=0)
            + self._vault[EventType.RQST_WRITE][:n].sum(axis=0)
        )

    def summary(self) -> Dict[str, int]:
        """Totals per event type by name (report-friendly)."""
        return {
            EventType(t).name: n
            for t, n in sorted(self.totals.items(), key=lambda kv: int(kv[0]))
        }
