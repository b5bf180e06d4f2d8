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
``TASK``  master → worker: run one callable (a pool) or one
          operation on the state the worker owns (a shard)
``DONE``  worker → master: task result
``ERR``   worker → master: exception (class name, str, traceback,
          and the exception itself when it survives a pickle round
          trip — :meth:`Channel.recv` then raises it with its own type)
``STOP``  master → worker: exit the serve loop
========  =======================================================
"""

from __future__ import annotations

import pickle
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


def _raised(payload: tuple) -> BaseException:
    """The exception an ``ERR`` payload stands for: the worker's own
    exception, chained to a :class:`RemoteError` holding its traceback,
    or that RemoteError alone when the exception could not travel."""
    remote = RemoteError(*payload[:3])
    if len(payload) > 3:
        exc = payload[3]
        exc.__cause__ = remote
        return exc
    return remote


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

    def send_exception(self, exc: BaseException) -> None:
        """Send *exc* as ``ERR``, the exception itself included when it
        pickles and unpickles."""
        payload = encode_exception(exc)
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # noqa: BLE001 - the traceback text still goes
            pass
        else:
            payload += (exc,)
        self.send(ERR, payload)

    def recv(self) -> Tuple[str, Any]:
        """Receive the next message; raises on ``ERR`` and closed pipes."""
        try:
            tag, payload = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise ChannelClosed("peer exited mid-protocol") from exc
        if tag == ERR:
            raise _raised(payload)
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
