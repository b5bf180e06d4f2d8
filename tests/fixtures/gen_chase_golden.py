"""Record the pointer-chase golden fingerprints.

This script was run at commit 5f8c3da, the last tree in which
``pointer_chase_run`` waited for each response one ``clock()`` and one
``drain_responses()`` at a time and the engine ticked every cycle a
packet spent behind the crossbar's registered input, from a second
checkout of that commit::

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q 5f8c3da
    PYTHONPATH=/tmp/parent/src:. python -m tests.fixtures.gen_chase_golden

producing ``chase_golden.json``: for every case in :data:`CASES`,
``ChaseResult.cycles``, the histogram of per-hop latencies, and the
sha256 of ``sim.stats()`` + ``stage_counts``.

``tests/test_pointer_chase.py`` replays the same chases on the current
tree — held cycles fast-forwarded, one ``clock_until_response`` per hop
— and requires every fingerprint to match.  Re-running this script on a
later tree would record that tree's behaviour and defeat the test — the
committed JSON is a historical artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter

from repro.core.config import DeviceConfig, SimConfig
from repro.core.simulator import HMCSim
from repro.host.host import Host, LinkPolicy
from repro.topology.builder import build_chain
from repro.workloads.pointer_chase import pointer_chase_run

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "chase_golden.json")

_DEVICE = DeviceConfig(num_links=4, num_banks=8, capacity=2)

#: name -> (num_devs, SimConfig kwargs, link policy, chase kwargs).  One
#: cube has every link on the host; a chain has one host link and
#: chases in the far cube.
CASES = {
    **{
        f"{policy.value}/think{think}": (1, {}, policy, dict(think_cycles=think))
        for policy in LinkPolicy
        for think in (0, 64)
    },
    "chain2_far/think0": (2, {}, LinkPolicy.ROUND_ROBIN, dict(cub=1)),
    "chain2_far/think64": (
        2, {}, LinkPolicy.ROUND_ROBIN, dict(cub=1, think_cycles=64)),
    # Host-link responses held back by in-band replay: the wait must
    # return, re-poll and finish on the same cycle.
    "ber2e-4/think0": (
        1, dict(link_ber=2e-4, link_seed=3), LinkPolicy.ROUND_ROBIN, {}),
    "ber2e-4/think64": (
        1, dict(link_ber=2e-4, link_seed=3), LinkPolicy.ROUND_ROBIN,
        dict(think_cycles=64)),
}


def fingerprint(case: str) -> dict:
    num_devs, sim_kw, policy, chase_kw = CASES[case]
    sim = HMCSim(SimConfig(device=_DEVICE, num_devs=num_devs, **sim_kw))
    if num_devs > 1:
        build_chain(sim, host_links=1)
    else:
        for link in range(_DEVICE.num_links):
            sim.attach_host(0, link)
    host = Host(sim, policy=policy, seed=7)
    res = pointer_chase_run(sim, host, num_nodes=192, hops=600, seed=7,
                            **chase_kw)
    state = json.dumps([sim.stats(), sim.engine.stage_counts], sort_keys=True)
    return {
        "cycles": res.cycles,
        "latency_histogram": {
            str(lat): n for lat, n in sorted(Counter(res.latencies).items())
        },
        "state_sha256": hashlib.sha256(state.encode()).hexdigest(),
    }


def main() -> None:
    golden = {case: fingerprint(case) for case in CASES}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(golden)} fingerprints -> {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
