"""The run-level worker pool (repro.parallel): ordering, reuse, error
propagation, and what happens to the pool when a task fails or a lane
dies.  Pooled-vs-inline Table I equality lives in tests/test_sweep.py.
"""

from __future__ import annotations

import os

import pytest

from repro.parallel import RemoteError, WorkerPool, default_pool_size
from repro.parallel.channels import ChannelClosed


# -- module-level task functions (pool workers must pickle them) -----------


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError(f"boom at {x}")
    return x


def _addmul(a, b):
    return a + 10 * b


class TestWorkerPool:
    def test_map_preserves_order(self):
        with WorkerPool(processes=2) as pool:
            assert pool.map(_square, range(7)) == [x * x for x in range(7)]

    def test_pool_is_reusable_across_maps(self):
        with WorkerPool(processes=2) as pool:
            assert pool.map(_square, [1, 2]) == [1, 4]
            assert pool.map(_square, [3, 4]) == [9, 16]

    def test_starmap_unpacks(self):
        with WorkerPool(processes=2) as pool:
            assert pool.starmap(_addmul, [(1, 2), (3, 4)]) == [21, 43]

    def test_remote_error_carries_traceback_and_index(self):
        with WorkerPool(processes=2) as pool:
            with pytest.raises(RemoteError) as ei:
                pool.map(_fail_on_three, [1, 2, 3, 4])
            msg = str(ei.value)
            assert "task #2" in msg          # the failing item's index
            assert "boom at 3" in msg        # the original message
            assert "ValueError" in msg       # the original type
            assert "_fail_on_three" in msg   # the worker-side traceback
            # The failure drained in-flight work; the pool still serves.
            assert pool.map(_square, [5]) == [25]

    def test_closed_pool_refuses_work(self):
        pool = WorkerPool(processes=1)
        pool.close()
        with pytest.raises(ChannelClosed):
            pool.map(_square, [1])
        pool.close()  # idempotent

    def test_default_pool_size_positive(self):
        assert default_pool_size() >= 1


def _touch_or_fail(arg):
    """Leave a side-effect file per task that ran; task 0 raises."""
    directory, x = arg
    open(os.path.join(directory, f"ran-{x}"), "w").close()
    if x == 0:
        raise ValueError("boom at 0")
    return x


def _die_on_zero(x):
    if x == 0:
        os._exit(1)  # the lane vanishes mid-task, no reply
    return x * 10


class TestWorkerPoolFailures:
    def test_failure_stops_dispatch(self, tmp_path):
        """One lane, 20 tasks, the first raises: nothing was in flight,
        so none of the other 19 may run before the error surfaces."""
        with WorkerPool(processes=1) as pool:
            with pytest.raises(RemoteError, match="task #0: boom at 0"):
                pool.map(_touch_or_fail, [(str(tmp_path), x) for x in range(20)])
            assert sorted(os.listdir(tmp_path)) == ["ran-0"]
            assert pool.map(_square, [5]) == [25]  # still serves

    def test_dead_lane_closes_pool(self):
        """A lane that exits mid-task leaves another lane's DONE unread;
        reusing the pool would pair that stale reply with a new task."""
        with WorkerPool(processes=2) as pool:
            with pytest.raises(ChannelClosed):
                pool.map(_die_on_zero, [1, 0])
            with pytest.raises(ChannelClosed, match="pool is closed"):
                pool.map(_die_on_zero, [7])
