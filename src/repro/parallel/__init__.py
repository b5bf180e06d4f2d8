"""Run-level multi-process fan-out.

:class:`~repro.parallel.pool.WorkerPool` runs independent simulations
(Table I cells, sweep points) in forked worker processes with faithful
error propagation over the typed channels of
:mod:`repro.parallel.channels`.  One simulation always runs in one
process: ``docs/performance.md`` records why there is no in-run
sharding.
"""

from repro.parallel.channels import Channel, ChannelClosed, RemoteError
from repro.parallel.pool import WorkerPool, default_pool_size

__all__ = [
    "Channel",
    "ChannelClosed",
    "RemoteError",
    "WorkerPool",
    "default_pool_size",
]
