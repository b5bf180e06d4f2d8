"""Version-1 checkpoints (``HMCSNAP\\x01``, no CRC): the one place that
knows the older state shapes.

The payload is read by an unpickler whose ``find_class`` hands out a
stand-in for each class whose pickled state has changed since; the
stand-in converts the old state into the current shape, becomes the real
class and restores from that.  Every other class unpickles as itself.
``save(load(path), path)`` rewrites a ``\\x01`` file as the current
version (docs/api.md "Checkpoint format").
"""

from __future__ import annotations

import io
import pickle

import numpy as np

from repro.core.bank import _PAGE_WORDS, ATOM_WORDS, Bank
from repro.core.checkpoint import _tracer_holders
from repro.core.clock import ClockEngine
from repro.core.config import SimConfig
from repro.core.queueing import PacketQueue
from repro.core.simulator import HMCSim
from repro.core.vault import Vault
from repro.faults.inband import _DirState
from repro.faults.injector import _BLOCK, BitErrorInjector


def _flat(state: tuple, names: tuple) -> tuple:
    """Pickle's ``(None, {slot: value})`` as a flat tuple of *names*
    (queues and vaults also wrote today's tuple in version 1)."""
    if len(state) == 2 and state[0] is None:
        return tuple(state[1][name] for name in names)
    return state


def _bank(bank: Bank, state) -> None:
    # Before the flat core: (None, {slot: value}) with the DRAM objects
    # under "drams", no _page_words and dict-of-atoms "_blocks"; then a
    # dict with "num_drams" and one "_storage_v2" entry per page.
    if isinstance(state, tuple):
        state = {**(state[0] or {}), **state[1]}
    slots = {"_page_words": min(_PAGE_WORDS, state["capacity_bytes"] // 8),
             **state}
    if "num_drams" not in slots:
        slots["num_drams"] = len(state["drams"])
    pages = state.get("_storage_v2") or ()
    page_atoms = slots["_page_words"] // ATOM_WORDS
    touched = np.array([
        np.unpackbits(np.frombuffer(bits, np.uint8))[:page_atoms]
        for _, _, bits in pages
    ], dtype=np.uint8)
    bank.__setstate__((
        *(slots[name] for name in Bank._STATE_SLOTS),
        tuple(pg for pg, _, _ in pages),
        b"".join(words for _, words, _ in pages),
        np.packbits(touched).tobytes(),
    ))
    blocks = state.get("_blocks")
    if blocks:
        for atom, (w0, w1) in blocks.items():
            bank.set_atom_words(atom, w0, w1)
        bank.import_storage(bank.export_storage())  # sorted, one row each
        bank._dirty.clear()


def _injector(inj: BitErrorInjector, state: dict) -> None:
    # "ber" became "_ber"; before block sampling there were no block
    # fields and the generator sat at the next undrawn bit: an
    # exhausted block.
    state = dict(state)
    if "ber" in state:
        state["_ber"] = state.pop("ber")
    inj.__dict__.update(_pending=[_BLOCK], _pos=_BLOCK)
    inj.__dict__.update(state)


def _as(cls: type, restore) -> type:
    """A stand-in for *cls* that becomes *cls*, then ``restore(obj, state)``."""
    def __setstate__(self, state) -> None:
        object.__setattr__(self, "__class__", cls)
        restore(self, state)
    return type(cls.__name__, (cls,), {"__slots__": (), "__setstate__": __setstate__})


_SHIMS = {(cls.__module__, cls.__name__): _as(cls, restore) for cls, restore in [
    (Bank, _bank),
    (PacketQueue, lambda q, s: q.__setstate__(_flat(s, PacketQueue.__slots__))),
    (Vault, lambda v, s: v.__setstate__(_flat(s, Vault.__slots__))),
    # Older engines also kept derived or host-side slots: ignored.
    (ClockEngine, lambda e, s: e.__setstate__(_flat(s, ClockEngine._RUN_STATE))),
    # The outcome-only gate dropped the cached "pending_words".
    (_DirState, lambda d, s: [setattr(d, n, s[1][n]) for n in _DirState.__slots__]),
    (BitErrorInjector, _injector),
    # Options retired since, which sat inert in older configs.
    (SimConfig, lambda c, s: c.__dict__.update({k: v for k, v in s.items()
        if k not in ("workers", "shard_strategy", "scheduler")})),
]}


class _Unpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        return _SHIMS.get((module, name)) or super().find_class(module, name)


def _rewire_tracer(sim: HMCSim) -> None:
    """Older blobs can give a tracer holder a private copy: share one."""
    for holder in _tracer_holders(sim):
        holder.tracer = sim.tracer


def loads(payload) -> object:
    """Unpickle a ``\\x01`` payload (the bytes behind the magic) into
    objects of the current shape."""
    obj = _Unpickler(io.BytesIO(payload)).load()
    sim = obj[0] if type(obj) is tuple and obj else obj
    if isinstance(sim, HMCSim) and type(getattr(sim, "devices", None)) is list:
        _rewire_tracer(sim)
    return obj
