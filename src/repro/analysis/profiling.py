"""Engine profiling: per-stage wall time and call counters.

The clock engine's six sub-cycle stages dominate loaded-run wall time;
this module attaches a lightweight profiler to a simulation so one run
can report where its host time goes (two commits are compared with
``benchmarks/spine/``, not with this).  Attached, every step of the
engine's cycle runs inside a timing wrapper — one ``perf_counter_ns``
call per step per tick; detached, the cycle holds the bare steps and
costs nothing.  The profiler is host-side state like a trace sink: it
stays out of checkpoints, and a restored simulation has none.

Typical use::

    prof = attach(sim)
    host.run(stream)
    print(render(prof, sim.engine.stage_counts))

or from the CLI: ``python -m repro bandwidth --profile``.

For function-level detail, the cProfile one-liner is::

    PYTHONPATH=src python -m cProfile -s cumtime -m repro bandwidth \
        --requests 8192 | head -40
"""

from __future__ import annotations

from functools import wraps
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional

#: Human labels for the engine's stage buckets (index 1..6).
STAGE_LABELS = {
    1: "stage 1: child xbar routing",
    2: "stage 2: root xbar routing",
    3: "stage 3: conflict recognition",
    4: "stage 4: vault request processing",
    5: "stage 5: response registration",
    6: "stage 6: clock/register update",
}


class AllocationProfiler:
    """Allocation statistics over a run window (tracemalloc).

    Wraps :mod:`tracemalloc` snapshots around the profiled region, so a
    ``--profile`` run reports *where* residual allocations come from
    (top-N source lines by net size).

    Tracing costs roughly 2x wall time — it is attached only on
    explicit request and never in benchmark timing paths.
    """

    def __init__(self, top_n: int = 10) -> None:
        self.top_n = top_n
        self.started = False
        self.stopped = False
        self._owns_tracing = False
        self._snap0 = None
        self.top: List[Dict[str, Any]] = []
        self.traced_kb = 0.0
        self.peak_kb = 0.0

    def start(self) -> "AllocationProfiler":
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracing = True
        self._snap0 = tracemalloc.take_snapshot()
        self.started = True
        return self

    def stop(self) -> None:
        """Snapshot the window end; idempotent."""
        if not self.started or self.stopped:
            return
        import tracemalloc

        snap1 = tracemalloc.take_snapshot()
        traced, peak = tracemalloc.get_traced_memory()
        if self._owns_tracing:
            tracemalloc.stop()
        self.traced_kb = traced / 1024.0
        self.peak_kb = peak / 1024.0
        self.top = []
        for stat in snap1.compare_to(self._snap0, "lineno")[: self.top_n]:
            frame = stat.traceback[0]
            self.top.append(
                {
                    "site": f"{frame.filename}:{frame.lineno}",
                    "size_kb": stat.size_diff / 1024.0,
                    "count": stat.count_diff,
                }
            )
        self.stopped = True

    def report(self) -> Dict[str, Any]:
        """JSON-serialisable summary (statdump's ``allocations`` section)."""
        return {
            "traced_kb": self.traced_kb,
            "peak_kb": self.peak_kb,
            "top": self.top,
        }


class EngineProfiler:
    """Accumulates per-stage wall time from :class:`ClockEngine.tick`.

    All counters are nanoseconds (``perf_counter_ns``).  ``refresh_ns``
    and ``ras_ns`` cover the optional sub-steps between stages 2/3 and
    4/5; ``ff_cycles`` counts cycles skipped by the engine's
    fast-forward (those never run stages at all).

    ``alloc`` optionally carries an :class:`AllocationProfiler` for the
    same window (``attach(sim, allocations=True)``).
    """

    def __init__(self) -> None:
        self.stage_ns: List[int] = [0] * 7
        self.refresh_ns = 0
        self.ras_ns = 0
        self.ticks = 0
        self.ff_cycles = 0
        self.alloc: Optional[AllocationProfiler] = None
        self._t0 = perf_counter_ns()
        self._mark = self._t0  # end of the last timed step

    @property
    def wall_ns(self) -> int:
        """Wall time since the profiler was attached."""
        return perf_counter_ns() - self._t0

    def total_stage_ns(self) -> int:
        return sum(self.stage_ns) + self.refresh_ns + self.ras_ns

    def timed(self, steps: list) -> list:
        """Wrap the engine's ``(bucket, step)`` list in timers.

        *bucket* is a stage number, ``"refresh"``, ``"ras"``, or None
        for a step that is not stage work (the watchdog), which stays
        bare.  The first timed step opens the tick — counts it and reads
        the clock — and every timed step books the time since the step
        before it ended, so the buckets add up to the tick's wall time.
        """
        out, opened = [], False
        for bucket, step in steps:
            if bucket is not None:
                step = self._timed(bucket, step, opens_tick=not opened)
                opened = True
            out.append((bucket, step))
        return out

    def _timed(self, bucket, step: Callable, opens_tick: bool) -> Callable:
        # Where the bucket books, resolved once: a stage_ns slot, or the
        # refresh_ns / ras_ns attribute.
        counters, key = (
            (self.stage_ns, bucket) if isinstance(bucket, int)
            else (vars(self), f"{bucket}_ns")
        )

        @wraps(step)
        def timed(cycle: int) -> None:
            if opens_tick:
                self.ticks += 1
                self._mark = perf_counter_ns()
            step(cycle)
            now = perf_counter_ns()
            counters[key] += now - self._mark
            self._mark = now

        return timed

    def report(self, stage_counts: Optional[List[int]] = None) -> Dict[str, Any]:
        """JSON-serialisable summary (statdump's ``profile`` section)."""
        out: Dict[str, Any] = {
            "ticks": self.ticks,
            "fast_forwarded_cycles": self.ff_cycles,
            "wall_ms": self.wall_ns / 1e6,
            "stages": {},
        }
        for i in range(1, 7):
            entry: Dict[str, Any] = {
                "label": STAGE_LABELS[i],
                "time_ms": self.stage_ns[i] / 1e6,
            }
            if stage_counts is not None:
                entry["count"] = stage_counts[i]
            out["stages"][str(i)] = entry
        out["refresh_ms"] = self.refresh_ns / 1e6
        out["ras_ms"] = self.ras_ns / 1e6
        if self.alloc is not None:
            self.alloc.stop()
            out["allocations"] = self.alloc.report()
        return out


def attach(sim, allocations: bool = False, top_n: int = 10) -> EngineProfiler:
    """Attach a fresh profiler to *sim*'s clock engine and return it.

    With ``allocations=True`` an :class:`AllocationProfiler` window opens
    at attach time; it is closed by the first ``report()``/``render()``
    (or an explicit ``prof.alloc.stop()``).
    """
    prof = EngineProfiler()
    if allocations:
        prof.alloc = AllocationProfiler(top_n=top_n).start()
    sim.engine.profiler = prof
    return prof


def detach(sim) -> Optional[EngineProfiler]:
    """Remove and return *sim*'s engine profiler (None if absent)."""
    prof = sim.engine.profiler
    sim.engine.profiler = None
    return prof


def render(prof: EngineProfiler, stage_counts: Optional[List[int]] = None) -> str:
    """Fixed-width per-stage timing table for terminal output."""
    total = prof.total_stage_ns() or 1
    lines = [
        "engine profile "
        f"({prof.ticks:,} real ticks, "
        f"{prof.ff_cycles:,} fast-forwarded cycles):",
        f"  {'stage':<36} {'time_ms':>10} {'share':>7} {'count':>12}",
    ]
    rows = [
        (STAGE_LABELS[i], prof.stage_ns[i],
         stage_counts[i] if stage_counts is not None else None)
        for i in range(1, 7)
    ]
    rows.append(("refresh sub-step", prof.refresh_ns, None))
    rows.append(("RAS sub-step", prof.ras_ns, None))
    for label, ns, count in rows:
        share = 100.0 * ns / total
        count_s = f"{count:,}" if count is not None else "-"
        lines.append(
            f"  {label:<36} {ns / 1e6:>10.2f} {share:>6.1f}% {count_s:>12}"
        )
    lines.append(
        f"  {'total (staged work)':<36} {total / 1e6:>10.2f} {'100.0%':>7}"
    )
    if stage_counts is not None and stage_counts[3] and not prof.stage_ns[3]:
        lines.append(
            "  (stages 3+4 ran as one vault walk: its time is booked under stage 4)"
        )
    if prof.alloc is not None:
        prof.alloc.stop()
        lines.append("")
        lines.append(render_allocations(prof.alloc))
    return "\n".join(lines)


def render_allocations(alloc: AllocationProfiler) -> str:
    """Fixed-width allocation summary (tracemalloc top-N)."""
    alloc.stop()
    lines = [
        "allocation profile "
        f"(traced {alloc.traced_kb:,.0f} KiB net, peak {alloc.peak_kb:,.0f} KiB):",
        f"  top allocation sites (net growth over the window):",
    ]
    if not alloc.top:
        lines.append("    (none)")
    for entry in alloc.top:
        lines.append(
            f"    {entry['size_kb']:>9.1f} KiB {entry['count']:>9,}  {entry['site']}"
        )
    return "\n".join(lines)
