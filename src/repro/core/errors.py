"""Error and errno model.

The C library signals failures through integer return codes; stalls in
particular are *expected* control flow (a full crossbar queue returns a
stall so the host backs off, paper §VI.A).  The Python API raises typed
exceptions, and the C-style facade in :mod:`repro.core.api` translates
them back into the errno-style codes below.
"""

from __future__ import annotations

#: Success.
E_OK = 0
#: Invalid argument / configuration.
E_INVAL = -1
#: Operation would stall (queue full / no tokens) — retry after a clock.
E_STALL = -2
#: No data available (hmcsim_recv with an empty response queue).
E_NODATA = -3
#: Unimplemented feature.
E_UNIMPL = -4
#: Link failure: retry exhausted / link degraded to FAILED and the
#: packet has no surviving path.
E_LINKFAIL = -5
#: No-progress watchdog abort: the simulation livelocked (tokens
#: exhausted or queues jammed with no stage activity for N cycles).
E_DEADLOCK = -6
#: Per-request deadline exceeded: the response arrived too late (or the
#: request could not be injected in time) under a tenant's SLO deadline.
E_DEADLINE = -7


class HMCError(Exception):
    """Base class for all simulator errors."""

    errno = E_INVAL


class InitError(HMCError):
    """Invalid device configuration at initialisation time."""

    errno = E_INVAL


class TopologyError(HMCError):
    """Illegal link/topology configuration (loopbacks, no host link...)."""

    errno = E_INVAL


class StallError(HMCError):
    """The operation could not proceed this cycle; retry after clocking.

    Matches the C API's stall return from ``hmcsim_send`` when "the
    crossbar arbitration queues are full" (paper §VI.A).
    """

    errno = E_STALL


class NoDataError(HMCError):
    """``recv`` found no response packet pending on the polled link."""

    errno = E_NODATA


class RegisterAccessError(HMCError):
    """Illegal register access (unknown index, write to RO, ...)."""

    errno = E_INVAL


class LinkDeadError(HMCError):
    """A link degraded to FAILED and the operation has no surviving path.

    Raised from ``send`` when the target host link is dead, or when a
    chained topology loses its only route to the destination cube.
    ``report`` carries a structured run-report (per-link health, retry
    counters, stranded work) suitable for logging or JSON dumping.
    """

    errno = E_LINKFAIL

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report if report is not None else {}


class CheckpointError(HMCError):
    """A snapshot blob is corrupt, truncated, or version-incompatible.

    Raised by :mod:`repro.core.checkpoint` instead of letting a raw
    pickle traceback escape: missing/unknown magic header, unsupported
    format version, or a payload that fails to deserialise.
    """

    errno = E_INVAL


class WatchdogError(HMCError):
    """The no-progress watchdog detected livelock and aborted the run.

    Fired by the clock engine when no forward progress (stage activity,
    link transmissions, host send/recv) happened for
    ``SimConfig.watchdog_cycles`` cycles while work is still pending —
    e.g. flow-control tokens leaked by a dead link.  ``report`` carries
    a diagnostic dump of tokens, queues and link health.
    """

    errno = E_DEADLOCK

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report if report is not None else {}
