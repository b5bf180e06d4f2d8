"""Record the ``repro serve`` golden fingerprints.

This script was run at commit db63157, the last tree in which an epoch
pickled every bank into its blob and the pump drained every resident
every cycle, from a second checkout of that commit::

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q db63157
    PYTHONPATH=/tmp/parent/src:. python -m tests.fixtures.gen_serve_golden

producing ``serve_golden.json``: for every case in :data:`CASES`, the
sha256 of ``deterministic_view(report)`` of the report the command
writes with ``--stats-json``.

``tests/test_serve_golden.py`` replays the same commands on the current
tree — banks outside the epoch blob, the pump draining only links that
hold a response — and requires every fingerprint to match.  Re-running
this script on a later tree would record that tree's behaviour and
defeat the test — the committed JSON is a historical artifact.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile

from repro.analysis.tenants import deterministic_view
from repro.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "serve_golden.json")

#: CI's "Chaos smoke" campaign (.github/workflows/ci.yml).
CHAOS = {"events": [
    {"at": 60, "kind": "shard_crash", "shard": 0},
    {"at": 140, "kind": "watchdog_trip", "shard": 0},
    {"at": 220, "kind": "shard_crash", "shard": 0},
]}

_ARMED = ["--tenants", "16", "--requests-per-tenant", "8",
          "--checkpoint-interval", "256"]

#: name -> (``repro serve`` arguments, chaos spec or None).
CASES = {
    "armed16x8": (_ARMED, None),
    # Responses held back by in-band replay: a link that holds a
    # response the pump may not yet deliver.
    "armed16x8_ber": (_ARMED + ["--link-ber", "2e-4"], None),
    "chaos3": (["--tenants", "12", "--requests-per-tenant", "16",
                "--provision-requests", "32"], CHAOS),
}


def serve_report(case: str) -> dict:
    """Run *case* through the CLI; returns the ``--stats-json`` report."""
    argv, chaos = CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        argv = ["serve", *argv, "--stats-json", out]
        if chaos is not None:
            spec = os.path.join(tmp, "chaos.json")
            with open(spec, "w") as fh:
                json.dump(chaos, fh)
            argv += ["--chaos", spec]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == 0, f"{case}: repro serve exited {code}"
        with open(out) as fh:
            return json.load(fh)


def fingerprint(report: dict) -> str:
    view = deterministic_view(report)
    return hashlib.sha256(
        json.dumps(view, sort_keys=True).encode()
    ).hexdigest()


if __name__ == "__main__":
    golden = {case: fingerprint(serve_report(case)) for case in CASES}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} fingerprints to {GOLDEN_PATH}")
