"""Blobs built by hand, for tests that need to reach the decoder.

* :func:`frame` puts a payload behind a current header (magic + CRC),
  :func:`payload` takes it back out and :func:`restamp` re-computes the
  CRC of a damaged blob, so a flipped bit reaches the unpickler instead
  of the checksum;
* :func:`legacy_blob` writes a ``snapshot_bundle`` the way version 1
  did: ``HMCSNAP\\x01``, no CRC, and every class whose state has changed
  since in its old shape (a per-``Pickler`` dispatch table, nothing
  process-wide), so ``restore_bundle`` reads it through
  ``repro.core.migrate``.
"""

from __future__ import annotations

import copyreg
import io
import pickle
import zlib

import numpy as np

from repro.core.bank import Bank
from repro.core.checkpoint import _HEADER, MAGIC, _tracer_holders
from repro.core.clock import ClockEngine
from repro.core.config import SimConfig
from repro.core.queueing import PacketQueue
from repro.core.vault import Vault
from repro.faults.inband import _DirState
from repro.faults.injector import BitErrorInjector
from repro.trace.tracer import Tracer

V1 = MAGIC[:-1] + b"\x01"


def frame(payload: bytes) -> bytes:
    """*payload* behind the current magic and its CRC-32."""
    return MAGIC + zlib.crc32(payload).to_bytes(4, "little") + payload


def payload(blob: bytes) -> bytes:
    """The pickle payload of a current-version blob."""
    return bytes(blob[_HEADER:])


def restamp(blob: bytes) -> bytes:
    """*blob* with its CRC re-computed over whatever its payload now is."""
    return frame(payload(blob))


def _slots(obj, names) -> tuple:
    return None, {name: getattr(obj, name) for name in names}


def _old_bank(bank: Bank) -> dict:
    state = {name: getattr(bank, name) for name in Bank._STATE_SLOTS}
    store, tstore = bank._store, bank._tstore
    state["_storage_v2"] = [
        (pg, store[row].tobytes(), np.packbits(tstore[row]).tobytes())
        for pg, row in sorted(bank._pages.items())
    ]
    return state


def _old_injector(inj: BitErrorInjector) -> dict:
    state = dict(vars(inj))
    state["ber"] = state.pop("_ber")
    return state


#: ``cls -> obj -> old state``: the shape each class had in version 1.
OLD_STATE = {
    Bank: _old_bank,
    PacketQueue: lambda q: _slots(q, PacketQueue.__slots__),
    Vault: lambda v: _slots(v, Vault.__slots__),
    ClockEngine: lambda e: _slots(e, ClockEngine._RUN_STATE),
    _DirState: lambda d: (None, {**_slots(d, _DirState.__slots__)[1],
                                 "pending_words": [0, 0]}),
    BitErrorInjector: _old_injector,
    SimConfig: lambda c: {"scheduler": "active", **vars(c)},
}


def legacy_pickle(obj, shapes=None) -> bytes:
    """*obj* pickled with every class in its version-1 shape; *shapes*
    overrides :data:`OLD_STATE` per class."""
    table = dict(copyreg.dispatch_table)
    for cls, state_of in {**OLD_STATE, **(shapes or {})}.items():
        table[cls] = lambda o, s=state_of: (copyreg.__newobj__, (type(o),), s(o))
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = table
    pickler.dump(obj)
    return buf.getvalue()


def legacy_blob(sim, *extras, shapes=None) -> bytes:
    """``snapshot_bundle(sim, *extras)`` as version 1 wrote it."""
    saved, holders = sim.tracer, _tracer_holders(sim)
    standin = Tracer(mask=saved.mask)
    del standin.next_serial  # version 1 carried no serial counter
    sim.tracer = standin
    for h in holders:
        h.tracer = standin
    try:
        return V1 + legacy_pickle((sim, tuple(extras)), shapes)
    finally:
        sim.tracer = saved
        for h in holders:
            h.tracer = saved
