"""``LatencyDistribution``'s percentiles against ``np.percentile``."""

import math
import subprocess
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.analysis.latency import LatencyDistribution  # noqa: E402


class TestPercentilesMatchNumpy:
    """``LatencyDistribution`` takes its percentiles from one sort and
    numpy's ``linear`` formula, never calling ``np.percentile`` (whose
    first call imports ``numpy.ma``): the floats must be numpy's, bit
    for bit."""

    _samples = st.one_of(
        st.just([]),
        st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=1),
        st.lists(st.sampled_from((3, 3, 7, 12)), min_size=1, max_size=40),
        st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=200),
        st.lists(st.integers(0, 5000), min_size=1, max_size=300),
    )
    _percentiles = st.lists(
        st.one_of(st.integers(0, 100),
                  st.floats(0, 100, allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=6)

    @given(_samples, _percentiles)
    @settings(max_examples=400, deadline=None)
    def test_bit_identical(self, samples, percentiles):
        d = LatencyDistribution.from_samples(samples, percentiles)
        if not samples:
            assert all(math.isnan(v) for v in d.percentiles.values())
            return
        ref = np.percentile(np.asarray(samples, dtype=np.int64), percentiles)
        assert list(d.percentiles) == list(dict.fromkeys(percentiles))
        for p, want in zip(percentiles, ref.tolist()):
            assert d.percentiles[p].hex() == float(want).hex()
        assert (d.minimum, d.maximum) == (min(samples), max(samples))

    def test_the_report_does_not_import_numpy_ma(self):
        # numpy 1.x imports numpy.ma with numpy itself; 2.x on first use.
        code = ("import sys, numpy; before = 'numpy.ma' in sys.modules; "
                "from repro.analysis.latency import LatencyDistribution; "
                "LatencyDistribution.from_samples([5, 1, 9]).as_dict(); "
                "print(before, 'numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        before, after = out.stdout.split()
        assert after == before
