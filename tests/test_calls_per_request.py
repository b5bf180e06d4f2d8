"""The calls-per-request counter (benchmarks/calls_per_request.py)."""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass

from benchmarks import calls_per_request
from benchmarks.calls_per_request import calls_of, chase, main


@dataclass
class _A:
    x: int = 0


@dataclass
class _B:
    y: int = 0


def _build_both(n: int) -> None:
    for _ in range(n):
        _A()
        _B()


def test_two_dataclass_constructors_are_counted_separately():
    # Both generated __init__s are <string>, line 2: pstats keys them as
    # one function and keeps one entry's count.
    prof = cProfile.Profile()
    prof.runcall(_build_both, 10)
    inits = [e for e in prof.getstats()
             if getattr(e.code, "co_name", None) == "__init__"]
    assert len(inits) == 2 and all(e.callcount == 10 for e in inits)
    # _build_both, 20 constructors, and the profiler's own disable call.
    assert calls_of(prof) == 22
    assert pstats.Stats(prof).total_calls < calls_of(prof)


def test_chase_workload_counts_per_request(capsys, monkeypatch):
    # Tiny: 64 table writes and 64 dependent reads, 64 think cycles each.
    assert 0 < chase(64, 64) < 200
    monkeypatch.setattr(calls_per_request, "CHASE_NODES", 64)
    monkeypatch.setattr(calls_per_request, "CHASE_HOPS", 64)
    assert main(["--workload", "chase"]) == 0
    assert capsys.readouterr().out.startswith("calls per request: ")
    assert main(["--workload", "chase", "--max", "0.5"]) == 1
