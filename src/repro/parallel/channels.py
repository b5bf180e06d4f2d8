"""Typed message channels between the master and pool workers.

Every cross-process conversation in :mod:`repro.parallel` runs over a
:class:`Channel`: a thin typed wrapper around a ``multiprocessing``
pipe that frames each message as ``(tag, payload)`` and turns worker
exceptions into :class:`RemoteError` on the master side **with the
original remote traceback attached** — a raised worker exception must
never degrade into a silent fallback or an opaque "process died".

Payloads are pickled by the pipe itself.  The tags form the entire
wire protocol:

========  =======================================================
``TASK``  master → pool worker: run one callable
``DONE``  pool worker → master: task result
``ERR``   worker → master: exception (class name, str, traceback)
``STOP``  master → worker: exit the serve loop
========  =======================================================
"""

from __future__ import annotations

import traceback
from typing import Any, Tuple

TASK = "TASK"
DONE = "DONE"
ERR = "ERR"
STOP = "STOP"


class ChannelClosed(Exception):
    """The peer process exited (or closed its pipe end) mid-protocol."""


class RemoteError(Exception):
    """An exception raised inside a worker process.

    ``str()`` includes the worker-side traceback, so the failure reads
    exactly like it would have in-process — no more silent fallbacks
    that swallow the original stack.
    """

    def __init__(self, exc_type: str, exc_str: str, remote_tb: str) -> None:
        self.exc_type = exc_type
        self.exc_str = exc_str
        self.remote_tb = remote_tb
        super().__init__(
            f"{exc_type}: {exc_str}\n"
            f"--- remote traceback (worker process) ---\n{remote_tb}"
        )


def encode_exception(exc: BaseException) -> Tuple[str, str, str]:
    """(type name, message, formatted traceback) for an ``ERR`` payload."""
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    return type(exc).__name__, str(exc), tb


class Channel:
    """One end of a typed duplex pipe."""

    __slots__ = ("conn",)

    def __init__(self, conn) -> None:
        self.conn = conn

    def send(self, tag: str, payload: Any = None) -> None:
        try:
            self.conn.send((tag, payload))
        except (BrokenPipeError, OSError) as exc:
            raise ChannelClosed(f"peer gone while sending {tag}") from exc

    def recv(self) -> Tuple[str, Any]:
        """Receive the next message; raises on ``ERR`` and closed pipes."""
        try:
            tag, payload = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise ChannelClosed("peer exited mid-protocol") from exc
        if tag == ERR:
            raise RemoteError(*payload)
        return tag, payload

    def expect(self, want: str) -> Any:
        """Receive one message and require its tag; returns the payload."""
        tag, payload = self.recv()
        if tag != want:
            raise ChannelClosed(f"protocol error: expected {want}, got {tag}")
        return payload

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
