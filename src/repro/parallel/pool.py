"""A fork-based worker-process pool with faithful error propagation.

``concurrent.futures.ProcessPoolExecutor`` served the early sweeps but
surfaced a worker exception as a bare re-raise far from the worker
stack (and one caller swallowed it into a silent serial fallback).
Here every task failure arrives as :class:`~repro.parallel.channels.
RemoteError` carrying the full worker-side traceback and the task
index.

Tasks are ``(fn, args, kwargs)`` with a module-level picklable *fn*.
Scheduling is dynamic: each of the N workers runs one task at a time
and the next pending task goes to whichever worker frees up first, so
uneven task costs (a loaded Table I config next to a tiny one) don't
serialize behind the slowest lane.  Results always come back in task
order.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro.parallel.channels import (
    DONE,
    STOP,
    TASK,
    Channel,
    ChannelClosed,
    RemoteError,
    encode_exception,
)


def default_pool_size() -> int:
    """Worker count honoring CPU affinity (cgroup/taskset aware)."""
    try:
        n = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        n = os.cpu_count() or 1
    return max(1, n)


def _pool_worker_main(conn) -> None:
    """Serve-loop of one pool worker (child process)."""
    chan = Channel(conn)
    while True:
        try:
            tag, payload = conn.recv()
        except (EOFError, OSError):
            return
        if tag == STOP:
            return
        if tag != TASK:  # pragma: no cover - protocol misuse
            continue
        idx, fn, args, kwargs = payload
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException as exc:  # noqa: BLE001 - shipped to master
            try:
                chan.send(DONE, (idx, False, encode_exception(exc)))
            except ChannelClosed:
                return
            if not isinstance(exc, Exception):
                return  # KeyboardInterrupt etc.: stop serving
        else:
            try:
                chan.send(DONE, (idx, True, result))
            except ChannelClosed:
                return


class WorkerPool:
    """N forked worker processes executing picklable tasks.

    Usable as a context manager; :meth:`map` may be called repeatedly
    (workers persist between calls).  ``processes=1`` still forks one
    worker — callers wanting a zero-process path should branch before
    building a pool (see :func:`repro.analysis.sweep.run_sweep`).
    """

    def __init__(self, processes: Optional[int] = None) -> None:
        self.processes = processes or default_pool_size()
        ctx = mp.get_context("fork")
        self._procs: List[mp.Process] = []
        self._chans: List[Channel] = []
        for _ in range(self.processes):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_pool_worker_main, args=(child,), daemon=True
            )
            proc.start()
            child.close()
            self._procs.append(proc)
            self._chans.append(Channel(parent))
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Stop and join every worker; safe to call repeatedly."""
        if self._closed:
            return
        self._closed = True
        for chan in self._chans:
            try:
                chan.send(STOP)
            except ChannelClosed:
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
        for chan in self._chans:
            chan.close()
        self._procs.clear()
        self._chans.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- task execution ------------------------------------------------

    def map(
        self,
        fn: Callable,
        items: Iterable,
        *,
        star: bool = False,
    ) -> List[Any]:
        """Run ``fn(item)`` (or ``fn(*item)`` with *star*) per item.

        Results return in item order.  The first failing task raises
        :class:`RemoteError` (original worker traceback included): no
        further task is dispatched, and the tasks already in flight are
        drained first so the pool stays reusable.  A lane that dies
        mid-task raises :class:`ChannelClosed` and closes the pool.
        """
        if self._closed:
            raise ChannelClosed("pool is closed")
        tasks = [
            (i, fn, tuple(item) if star else (item,), None)
            for i, item in enumerate(items)
        ]
        results: List[Any] = [None] * len(tasks)
        failure: Optional[RemoteError] = None
        pending = list(reversed(tasks))
        idle = list(range(len(self._chans)))
        busy_conns = {}
        try:
            while pending or busy_conns:
                while pending and idle:
                    wi = idle.pop()
                    self._chans[wi].send(TASK, pending.pop())
                    busy_conns[self._chans[wi].conn] = wi
                for conn in _conn_wait(list(busy_conns)):
                    wi = busy_conns.pop(conn)
                    idle.append(wi)
                    idx, ok, payload = self._chans[wi].expect(DONE)
                    if ok:
                        results[idx] = payload
                    elif failure is None:
                        exc_type, exc_str, tb = payload
                        failure = RemoteError(
                            exc_type, f"task #{idx}: {exc_str}", tb
                        )
                        pending.clear()
        except ChannelClosed:
            # Replies still unread on the surviving lanes would pair
            # with the next call's tasks: the pool is unusable.
            for proc in self._procs:
                proc.terminate()
            self.close()
            raise
        if failure is not None:
            raise failure
        return results

    def starmap(self, fn: Callable, items: Iterable[Sequence]) -> List[Any]:
        """``map`` with argument tuples unpacked into *fn*."""
        return self.map(fn, items, star=True)
