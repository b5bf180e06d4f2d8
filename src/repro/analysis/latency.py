"""Latency distribution analysis.

The tracing section (§IV.E) promises analysis of "latency
characteristics"; this module turns host-observed request latencies
(inject → response receipt, in cycles) into distributions: histograms,
percentiles, CDFs, and a compact text rendering used by benchmarks and
examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


def _percentile(ordered: List[int], p: float) -> float:
    """``np.percentile(ordered, p)`` (method ``linear``) of a sorted,
    non-empty list of int64 values, bit for bit, in plain arithmetic:
    ``np.percentile``'s first call imports ``numpy.ma`` (~13 ms)."""
    last = len(ordered) - 1
    virtual = last * (p / 100)
    if virtual >= last:
        return float(ordered[-1])
    below = math.floor(virtual)
    gamma = virtual - below
    a, b = ordered[below], ordered[below + 1]
    # numpy's _lerp: the difference is an int64, the blend a float.
    diff = float(b - a)
    if gamma >= 0.5:
        return float(b) - diff * (1 - gamma)
    return float(a) + diff * gamma


@dataclass
class LatencyDistribution:
    """Summary statistics over a set of request latencies (cycles)."""

    count: int
    mean: float
    std: float
    minimum: int
    maximum: int
    percentiles: Dict[int, float]

    @classmethod
    def from_samples(
        cls,
        samples: Iterable[int],
        percentiles: Sequence[int] = (50, 90, 95, 99),
    ) -> "LatencyDistribution":
        arr = np.asarray(list(samples), dtype=np.int64)
        if arr.size == 0:
            return cls(0, float("nan"), float("nan"), 0, 0,
                       {p: float("nan") for p in percentiles})
        ordered = np.sort(arr).tolist()
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            std=float(arr.std()),
            minimum=ordered[0],
            maximum=ordered[-1],
            percentiles={p: _percentile(ordered, p) for p in percentiles},
        )

    def as_dict(self) -> Dict[str, float]:
        d = {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
        }
        d.update({f"p{p}": v for p, v in self.percentiles.items()})
        return d


def histogram(
    samples: Iterable[int], bins: int = 20
) -> Tuple[np.ndarray, np.ndarray]:
    """Latency histogram: (counts, bin_edges)."""
    arr = np.asarray(list(samples), dtype=np.int64)
    if arr.size == 0:
        return np.zeros(bins, dtype=np.int64), np.arange(bins + 1, dtype=float)
    return np.histogram(arr, bins=bins)


def cdf(samples: Iterable[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: (sorted latencies, cumulative fraction)."""
    arr = np.sort(np.asarray(list(samples), dtype=np.int64))
    if arr.size == 0:
        return arr, np.zeros(0)
    frac = np.arange(1, arr.size + 1) / arr.size
    return arr, frac


def tail_ratio(samples: Iterable[int], p: int = 99) -> float:
    """p-th percentile over median — a tail-heaviness score."""
    arr = np.asarray(list(samples), dtype=np.int64)
    if arr.size == 0:
        return float("nan")
    med = np.percentile(arr, 50)
    return float(np.percentile(arr, p) / med) if med else float("inf")


def render(dist: LatencyDistribution, label: str = "latency") -> str:
    """One-line text summary of a distribution."""
    pct = "  ".join(f"p{p}={v:.0f}" for p, v in dist.percentiles.items())
    return (
        f"{label}: n={dist.count} mean={dist.mean:.1f} std={dist.std:.1f} "
        f"min={dist.minimum} max={dist.maximum}  {pct}"
    )


def compare(
    distributions: Dict[str, LatencyDistribution], baseline: str
) -> List[str]:
    """Render several distributions with speedups vs *baseline* mean."""
    base = distributions[baseline]
    lines = []
    for name, d in distributions.items():
        rel = base.mean / d.mean if d.mean else float("nan")
        marker = " (baseline)" if name == baseline else f"  ({rel:.2f}x vs {baseline})"
        lines.append(render(d, label=f"{name:>12}") + marker)
    return lines
