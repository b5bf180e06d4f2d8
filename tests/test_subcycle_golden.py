"""The SUBCYCLE-marked engine mode, pinned from outside.

With stage markers on, ``ClockEngine.tick`` runs the vault walk twice
per cycle (recognition under the stage-3 marker, issue under the
stage-4 marker) instead of once.  Two contracts hold that mode still:

* the fingerprints in ``fixtures/subcycle_golden.json``, recorded at
  commit 900a02c when the marked mode still had its own pair of walks
  (see ``fixtures/gen_subcycle_golden.py``);
* marked ≡ unmarked: apart from the markers themselves, and the
  cross-vault interleaving they impose within a cycle, a marked run is
  the unmarked run.
"""

from __future__ import annotations

import json
from collections import defaultdict

import pytest

from repro.trace.events import EventType
from tests.fixtures.gen_subcycle_golden import (
    CASES,
    GOLDEN_PATH,
    MASKS,
    SCHEDULERS,
    drive,
    fingerprint,
)

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(
        f"{c}/{m}/{s}" for c in CASES for m in MASKS for s in SCHEDULERS
    )


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_marked_run_matches_golden(key):
    case, mask_name, scheduler = key.split("/")
    assert fingerprint(case, scheduler, MASKS[mask_name]) == GOLDEN[key]


def _observables(case, scheduler, mask):
    sim, _, _, events = drive(case, scheduler, mask)
    per_vault = defaultdict(list)
    for e in events:
        if e.type is not EventType.SUBCYCLE:
            per_vault[(e.dev, e.vault)].append(
                (e.type, e.cycle, e.link, e.quad, e.bank, e.serial, e.extra)
            )
    return {
        "cycles": sim.clock_value,
        "stage_counts": list(sim.engine.stage_counts),
        "stats": sim.stats(),
        "registers": [d.regs.snapshot() for d in sim.devices],
        "per_vault_events": dict(per_vault),
    }


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_marked_equals_unmarked(case, scheduler):
    unmarked = _observables(case, scheduler, EventType.STANDARD)
    marked = _observables(case, scheduler, EventType.ALL)
    for key in unmarked:
        assert marked[key] == unmarked[key], key
    assert unmarked["per_vault_events"]
