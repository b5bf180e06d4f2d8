"""``repro serve``, pinned from outside.

The fingerprints in ``fixtures/serve_golden.json`` were recorded at
commit db63157, when every epoch pickled all banks into its blob and
the pump drained every resident every cycle (see
``fixtures/gen_serve_golden.py``).  The same commands on this tree —
banks in the page store, drains only where a link holds a response —
must write the same report, wall-clock fields aside: armed and quiet,
armed with responses held back by in-band replay, and through CI's
three-crash chaos campaign.
"""

from __future__ import annotations

import json

import pytest

from tests.fixtures.gen_serve_golden import (
    CASES,
    GOLDEN_PATH,
    fingerprint,
    serve_report,
)

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_serve_report_matches_golden(case):
    report = serve_report(case)
    assert fingerprint(report) == GOLDEN[case]
    if case == "armed16x8_ber":
        # The case exists for the drain skip under replay windows.
        assert report["accounting"]["totals"]["hostlink_retries"] > 0
    if case == "chaos3":
        assert report["recovery"]["recoveries"] >= 2
