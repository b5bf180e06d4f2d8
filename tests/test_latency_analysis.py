"""Tests for latency analysis (repro.analysis.latency)."""

import math

import numpy as np
import pytest

from repro.analysis.latency import (
    LatencyDistribution,
    cdf,
    compare,
    histogram,
    render,
    tail_ratio,
)


class TestDistribution:
    def test_from_samples(self):
        d = LatencyDistribution.from_samples([10, 20, 30, 40, 50])
        assert d.count == 5
        assert d.mean == 30.0
        assert d.minimum == 10
        assert d.maximum == 50
        assert d.percentiles[50] == 30.0

    def test_empty_samples(self):
        d = LatencyDistribution.from_samples([])
        assert d.count == 0
        assert math.isnan(d.mean)

    def test_custom_percentiles(self):
        d = LatencyDistribution.from_samples(range(101), percentiles=(25, 75))
        assert d.percentiles == {25: 25.0, 75: 75.0}

    def test_as_dict(self):
        d = LatencyDistribution.from_samples([1, 2, 3])
        out = d.as_dict()
        assert out["count"] == 3
        assert "p99" in out

    @pytest.mark.parametrize("samples", [
        [], [7],
        *(np.random.default_rng(seed).integers(0, 5000, size).tolist()
          for seed, size in ((1, 2), (2, 17), (3, 131), (4, 1000))),
    ])
    @pytest.mark.parametrize("percentiles", [(50, 90, 95, 99), (25, 75), ()])
    def test_one_percentile_call_matches_one_call_each(self, samples, percentiles):
        """All percentiles come from one ``np.percentile`` call; each
        value is exactly what a call of its own returns (NaN when there
        are no samples), and the keys keep their order."""
        got = LatencyDistribution.from_samples(samples, percentiles).percentiles
        assert list(got) == list(percentiles)
        for p in percentiles:
            if samples:
                arr = np.asarray(samples, dtype=np.int64)
                assert got[p] == float(np.percentile(arr, p))
            else:
                assert math.isnan(got[p])


class TestHistogramCdf:
    def test_histogram_counts(self):
        counts, edges = histogram([1, 1, 2, 10], bins=3)
        assert counts.sum() == 4
        assert len(edges) == 4

    def test_histogram_empty(self):
        counts, edges = histogram([], bins=5)
        assert counts.sum() == 0

    def test_cdf_monotone(self):
        xs, fr = cdf([5, 1, 3, 2, 4])
        assert list(xs) == [1, 2, 3, 4, 5]
        assert fr[-1] == 1.0
        assert np.all(np.diff(fr) >= 0)

    def test_cdf_empty(self):
        xs, fr = cdf([])
        assert xs.size == 0 and fr.size == 0


class TestTailRatio:
    def test_uniform_tail(self):
        r = tail_ratio(range(1, 101), p=99)
        assert r == pytest.approx(99.01 / 50.5, rel=0.05)

    def test_heavy_tail_scores_higher(self):
        light = [10] * 99 + [11]
        heavy = [10] * 99 + [1000]
        assert tail_ratio(heavy) > tail_ratio(light)

    def test_empty(self):
        assert math.isnan(tail_ratio([]))


class TestRendering:
    def test_render(self):
        d = LatencyDistribution.from_samples([1, 2, 3])
        text = render(d, label="x")
        assert text.startswith("x:")
        assert "mean=2.0" in text

    def test_compare(self):
        dists = {
            "fast": LatencyDistribution.from_samples([10] * 5),
            "slow": LatencyDistribution.from_samples([20] * 5),
        }
        lines = compare(dists, baseline="slow")
        assert any("baseline" in l for l in lines)
        assert any("2.00x" in l for l in lines)
