"""Generate the 4 KiB-page checkpoint compatibility fixture.

This script was run at commit 07f77ff, the last tree whose banks used
256-atom (4 KiB) pages, producing:

- ``page4k_snapshot.bin`` — a :func:`snapshot_bundle` of the same
  mid-flight 4-Link/8-Bank simulation + host as the ``pre_flat_core``
  fixture, whose pickle stream carries ``_storage_v2`` pages of 512
  words and ``_page_words == 512`` on every bank.
- ``page4k_expect.json`` — the observables of the deterministic
  continuation replayed on a *restored* copy of that snapshot.

``tests/test_checkpoint_compat.py`` restores the committed blob on the
current tree: the banks must keep their 4 KiB pages (a bank never
mixes page sizes) and continue bit-identically.  Re-running this script
on a later tree would write a blob with that tree's page size and
defeat the test — the committed outputs are historical artifacts.
"""

from __future__ import annotations

import json
import os

from repro.core.checkpoint import restore_bundle, snapshot_bundle
from repro.workloads.random_access import random_access_requests
from tests.fixtures.gen_pre_flat_core import (
    PHASE_A,
    build_sim,
    run_continuation,
)

HERE = os.path.dirname(os.path.abspath(__file__))
BLOB_PATH = os.path.join(HERE, "page4k_snapshot.bin")
EXPECT_PATH = os.path.join(HERE, "page4k_expect.json")


def main() -> None:
    sim, host = build_sim()
    stream = random_access_requests(sim.config.device.capacity_bytes, PHASE_A)
    host.run(stream, cub=0, drain=False)
    blob = snapshot_bundle(sim, host)
    with open(BLOB_PATH, "wb") as fh:
        fh.write(blob)

    sim2, (host2,) = restore_bundle(blob)
    expect = run_continuation(sim2, host2)
    expect["snapshot_cycle"] = sim.clock_value
    expect["blob_bytes"] = len(blob)
    expect["page_words"] = sorted(
        {b._page_words for d in sim.devices for v in d.vaults for b in v.banks}
    )
    with open(EXPECT_PATH, "w") as fh:
        json.dump(expect, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(expect, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
