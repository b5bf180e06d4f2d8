"""``--compare A.json B.json``: is B no worse than A, metric by metric?

Host-time metrics compare by the bound ``BENCHMARK.json`` fixes, and
read *unresolved* — not *unchanged* — when the run-to-run spread is
wider than that bound.  Simulated metrics and ``sim_fingerprint``
compare by equality: a host-speed change must not move them at all.
"""

from __future__ import annotations

import json

from benchmarks.spine.harness import EXACT_METRICS


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """Judge B against A on one bounded metric."""
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b["median"] - a["median"]) / a["median"]
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / a["median"]
    if gain < -bound:
        return "worse"
    if spread <= bound:
        return "better" if gain > bound else "unchanged"
    # Too noisy to call, unless every run of B beats every run of A.
    if min(sign * v for v in b["values"]) > max(sign * v for v in a["values"]):
        return "better"
    return "unresolved"


def compare(path_a: str, path_b: str, contract: dict) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for key in ("seed", "smoke"):
        if a["meta"][key] != b["meta"][key]:
            print(f"not comparable: {key} is {a['meta'][key]!r} in A "
                  f"and {b['meta'][key]!r} in B")
            return 2
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    bad = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        print(name)
        if wa["sizes"] != wb["sizes"]:
            print(f"  not comparable: sizes {wa['sizes']} in A, {wb['sizes']} in B")
            return 2
        same = wa["sim_fingerprint"] == wb["sim_fingerprint"]
        bad += not same
        print(f"  {'sim_fingerprint':<24} "
              f"{'equal' if same else 'DIFFERENT: the simulated results changed'}")
        for metric, sa in wa["end_to_end"].items():
            sb = wb["end_to_end"][metric]
            if metric in EXACT_METRICS:
                same = sa["median"] == sb["median"]
                bad += not same
                print(f"  {metric:<24} A {sa['median']:.9g}  B {sb['median']:.9g}"
                      f"  {'equal' if same else 'DIFFERENT'} (exact)")
                continue
            if metric not in bounds:  # reported only
                print(f"  {metric:<24} A {sa['median']:.6g}  B {sb['median']:.6g}"
                      f"  (not judged)")
                continue
            m = bounds[metric]
            word = verdict(sa, sb, m["bound"], m["better"])
            bad += word == "worse"
            print(
                f"  {metric:<24} A {sa['median']:.6g} [{sa['q1']:.6g}, {sa['q3']:.6g}]"
                f"  B {sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}]"
                f"  B/A {sb['median'] / sa['median']:.4f} (base A, {sa['unit']};"
                f" {m['better']} is better, bound {m['bound']:.0%})  {word}"
            )
    return 1 if bad else 0
