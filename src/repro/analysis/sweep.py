"""Parallel parameter sweeps over simulation configurations.

Cycle simulation is serial within one run but embarrassingly parallel
across runs — Table I is four independent simulations, ablations are
dozens.  This module fans sweep points out over the shared
:class:`repro.parallel.pool.WorkerPool` (each worker gets its own
interpreter; the simulator is deterministic and self-contained, so
results are identical to serial execution and ordering is preserved).

Sweep points must be picklable; the worker function is imported by
path, so lambdas are rejected up front with a clear error instead of a
pickle traceback from the pool.

A raising sweep point is a hard error: the failure surfaces as
:class:`repro.parallel.channels.RemoteError` carrying the point's task
index and the **original worker-side traceback** — never a silent
serial re-run and never an opaque "process pool died".
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import DeviceConfig, PAPER_CONFIGS
from repro.parallel.pool import WorkerPool, default_pool_size
from repro.workloads.random_access import RandomAccessConfig, run_random_access


def default_workers() -> int:
    """Worker count: usable CPUs, capped to leave headroom.

    "Usable" is :func:`~repro.parallel.pool.default_pool_size` — the
    affinity set, so ``taskset``/cgroup limits shrink the pool.  The
    ``REPRO_SWEEP_WORKERS`` environment variable overrides the
    heuristic (CI throttling, benchmarking with a pinned pool, forcing
    serial execution with ``1``).  A set-but-invalid value — garbage
    text, zero, or a negative count — raises :class:`ValueError`
    immediately with the offending value, instead of surfacing later as
    an opaque crash deep inside the process-pool setup.
    """
    env = os.environ.get("REPRO_SWEEP_WORKERS")
    if env is not None and env.strip():
        try:
            n = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_SWEEP_WORKERS must be a positive integer, "
                f"got {env!r}"
            ) from None
        if n <= 0:
            raise ValueError(
                f"REPRO_SWEEP_WORKERS must be a positive integer, got {n}"
            )
        return n
    return max(1, min(8, default_pool_size() - 1))


def _check_picklable_callable(fn: Callable) -> None:
    if getattr(fn, "__name__", "") == "<lambda>":
        raise ValueError(
            "sweep workers must be importable functions (lambdas cannot "
            "cross process boundaries)"
        )


def run_sweep(
    fn: Callable[[Any], Any],
    points: Sequence[Any],
    processes: Optional[int] = None,
) -> List[Any]:
    """Evaluate ``fn(point)`` for every sweep point, in parallel.

    Results return in *points* order.  ``processes=1`` (or a single
    point) runs inline — handy under debuggers and coverage tools.

    A worker exception aborts the sweep with :class:`repro.parallel.
    channels.RemoteError` naming the failing task and embedding its
    worker-side traceback; already-dispatched points finish first so
    the failure is never hidden by pool teardown.
    """
    _check_picklable_callable(fn)
    points = list(points)
    n = processes if processes is not None else default_workers()
    if n <= 1 or len(points) <= 1:
        return [fn(p) for p in points]
    with WorkerPool(processes=min(n, len(points))) as pool:
        return pool.map(fn, points)


# ---------------------------------------------------------------------------
# Ready-made sweep workers (module-level: picklable).
# ---------------------------------------------------------------------------


def _table1_point(args: Tuple[str, int, int]) -> Tuple[str, int, float]:
    """Worker: one Table I cell -> (label, cycles, requests_per_cycle)."""
    label, num_requests, seed = args
    device = PAPER_CONFIGS[label]
    result = run_random_access(
        device, RandomAccessConfig(num_requests=num_requests, seed=seed)
    )
    return (label, result.cycles, result.requests_per_cycle)


def table1_parallel(
    num_requests: int = 1 << 14,
    seed: int = 1,
    processes: Optional[int] = None,
) -> Dict[str, int]:
    """Table I with one process per device configuration.

    Returns label -> cycles, identical to the serial
    :func:`repro.analysis.tables.run_table1` cycle counts (the engine is
    deterministic), typically ~3-4x faster on a 4+ core machine.
    """
    points = [(label, num_requests, seed) for label in PAPER_CONFIGS]
    results = run_sweep(_table1_point, points, processes=processes)
    return {label: cycles for label, cycles, _ in results}


def _qdepth_point(args: Tuple[int, int, int]) -> Tuple[int, int]:
    """Worker: vault-depth ablation point -> (depth, cycles)."""
    depth, num_requests, seed = args
    device = DeviceConfig(num_links=4, num_banks=8, capacity=2,
                          queue_depth=depth, xbar_depth=128)
    result = run_random_access(
        device, RandomAccessConfig(num_requests=num_requests, seed=seed)
    )
    return (depth, result.cycles)


def queue_depth_sweep_parallel(
    depths: Sequence[int] = (4, 8, 16, 32, 64, 128, 256),
    num_requests: int = 1 << 13,
    seed: int = 1,
    processes: Optional[int] = None,
) -> Dict[int, int]:
    """Vault queue-depth ablation, fanned across processes."""
    points = [(d, num_requests, seed) for d in depths]
    return dict(run_sweep(_qdepth_point, points, processes=processes))
