"""Simulation checkpoint / restore.

Snapshot the complete simulation state and resume later, fork a state
to explore two what-if continuations, spin a service shard up from a
provisioned template, or roll one back after a crash.  Because the
engine is fully deterministic, a restored simulation continues
bit-identically to the original.

Snapshots serialise the :class:`~repro.core.simulator.HMCSim` object
graph with :mod:`pickle`.  Tracer sinks may hold OS resources (open
files), so snapshotting detaches the tracer (its mask is preserved,
its sinks are not) — reattach sinks after restore.  Components that
keep their own reference to the tracer (the RAS controller does) are
detached through the same stand-in, so the whole restored graph shares
one tracer and no sink object ever enters the pickle stream.  An
attached stage profiler (:func:`repro.analysis.profiling.attach`) is
host-side state of the same kind: the clock engine pickles its run
state only, so no wall-clock reading enters a blob — two identical
profiled runs snapshot to equal bytes — and a restored simulation has
no profiler; ``attach`` again after restore.  Host-side
objects (:class:`~repro.host.host.Host` etc.) hold a reference to the
sim and must be checkpointed *with* it via :func:`snapshot_bundle` to
keep the object graph consistent.

The in-band link fault machinery (:mod:`repro.faults.inband`) is part
of the pickled graph: per-direction retry pointers, the fault
injector's block of pending flips, the degradation-ladder position and
the LRS register mirrors all round-trip, so a simulation restored
mid-degradation resumes bit-identically — a HALF link stays HALF with
its doubled FLIT serialization, it does not silently reset to FULL
(tests/test_link_inband.py::TestCheckpointRoundTrip).

Every blob starts with a versioned magic header (:data:`MAGIC`), so a
corrupt, truncated, or incompatible blob raises a typed
:class:`~repro.core.errors.CheckpointError` instead of leaking a raw
pickle traceback — callers (the service recovery layer in particular)
can catch one exception type and decide whether to retry, rebuild, or
abort.

Repeated checkpoints of one running simulation (the service's epochs)
pass a :class:`PageStore` to :func:`snapshot_bundle` /
:func:`restore_bundle`.  It is the same codec with the banks diverted:
the pickle stream carries every object except the banks (the
*skeleton*), and the store keeps each bank's integer slots, re-read per
snapshot, and one copy of each page, refreshed from the bank's dirty
set — so a checkpoint costs what was written since the last one.
"""

from __future__ import annotations

import copyreg
import io
import pickle
import weakref
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.bank import ATOM_WORDS, Bank
from repro.core.errors import CheckpointError
from repro.core.simulator import HMCSim
from repro.trace.tracer import Tracer

#: Versioned magic header prepended to every snapshot blob.  Bump the
#: trailing version byte when the pickled payload shape changes
#: incompatibly; :func:`restore` rejects blobs from other versions.
MAGIC = b"HMCSNAP\x01"


def _strip_magic(blob: bytes, kind: str) -> memoryview:
    """Validate the magic header and return a view of the payload
    behind it (no copy of the blob); raises CheckpointError."""
    if not isinstance(blob, (bytes, bytearray, memoryview)):
        raise CheckpointError(
            f"{kind}: expected bytes, got {type(blob).__name__}"
        )
    try:
        view = memoryview(blob).cast("B")
    except TypeError as exc:
        raise CheckpointError(f"{kind}: blob is not contiguous bytes") from exc
    if len(view) < len(MAGIC):
        raise CheckpointError(
            f"{kind}: blob truncated ({len(view)} bytes, "
            f"shorter than the {len(MAGIC)}-byte header)"
        )
    head = bytes(view[: len(MAGIC)])
    if head[:-1] != MAGIC[:-1]:
        raise CheckpointError(
            f"{kind}: bad magic {head!r} — not a snapshot blob"
        )
    if head[-1] != MAGIC[-1]:
        raise CheckpointError(
            f"{kind}: snapshot format version {head[-1]} "
            f"is not supported (want {MAGIC[-1]})"
        )
    return view[len(MAGIC):]


def _unpickle(payload: memoryview, kind: str) -> Any:
    """Deserialise a validated payload; raises CheckpointError."""
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(
            f"{kind}: payload is corrupt or truncated ({exc})"
        ) from exc


def _tracer_holders(sim: HMCSim) -> List[Any]:
    """Components holding their own ``.tracer`` reference.

    ``sim.tracer`` is swapped for a sinkless stand-in during pickling;
    any component that cached the tracer at construction must be
    swapped through the *same* stand-in or the original tracer (and
    its possibly unpicklable sinks) rides into the pickle stream — and
    the restored component would log to a ghost tracer nobody reads.
    """
    holders = []
    for d in sim.devices:
        ras = getattr(d, "ras", None)
        if ras is not None and getattr(ras, "tracer", None) is not None:
            holders.append(ras)
    return holders


def _vaults(sim: HMCSim) -> list:
    return [v for d in sim.devices for v in d.vaults]


def _banks(sim: HMCSim) -> List[Bank]:
    """Every bank of *sim* in (device, vault, bank) order — the order
    that numbers banks in a :class:`PageStore`."""
    return [b for v in _vaults(sim) for b in v.banks]


#: The integer slots of a bank, read in one C-level call per bank every
#: snapshot (nothing to track, so nothing to forget to mark dirty); the
#: DRAM leaf count rides behind them as ``Bank.__setstate__`` names it.
_BANK_INTS = tuple(
    name for name in Bank._STATE_SLOTS if name not in ("ras", "_owner")
)
_bank_ints = attrgetter(*_BANK_INTS)
_BANK_STATE = _BANK_INTS + ("num_drams",)


def _reduce_bank_hollow(bank: Bank) -> tuple:
    """Per-``Pickler`` reducer for a bank the skeleton still reaches (an
    ECC device's ``BankRas`` points at its bank): identity only, no
    state — :meth:`PageStore.fill` adopts the object and fills it."""
    return copyreg.__newobj__, (Bank,)


class PageStore:
    """The banks of one simulation's latest delta checkpoint.

    One store belongs to one simulation lineage (the service keeps one
    per shard) and holds exactly one checkpoint: each
    ``snapshot_bundle(..., store=)`` re-reads every bank's integer
    slots and overwrites the pages written since the previous one, so
    only the newest skeleton blob can be restored against it
    (:attr:`generation` ties the two together).  The first snapshot of
    a simulation object the store has not seen — after spin-up, after a
    restore — exports every page.
    """

    def __init__(self) -> None:
        #: ``pages[i][pg] = (words, touched)`` for bank *i* of
        #: :func:`_banks` — private copies, never views of live pages.
        self.pages: List[Dict[int, Tuple[np.ndarray, np.ndarray]]] = []
        #: ``states[i]`` = bank *i*'s :data:`_BANK_STATE` values.
        self.states: List[tuple] = []
        #: Snapshots taken into this store; the skeleton records it.
        self.generation = 0
        self._sim: Optional[weakref.ref] = None

    def capture(self, sim: HMCSim) -> tuple:
        """Copy what *sim*'s banks wrote since the last capture; returns
        the manifest the skeleton carries: (generation, page counts,
        banks per vault, the banks' ECC states — none without ECC)."""
        banks = _banks(sim)
        full = self._sim is None or self._sim() is not sim
        if full:
            self._sim = weakref.ref(sim)
            self.pages = [{} for _ in banks]
        for bank, image in zip(banks, self.pages):
            if full or bank._dirty or len(image) != len(bank._pages):
                bank.sync_image(image, full)
        self.states = [_bank_ints(b) + (len(b.drams),) for b in banks]
        self.generation += 1
        counts = [len(image) for image in self.pages]
        shape = [len(v.banks) for v in _vaults(sim)]
        rases = [b.ras for b in banks if b.ras is not None]
        return self.generation, counts, shape, rases

    def fill(self, sim: HMCSim, manifest: Any) -> None:
        """Rebuild the banks *manifest* references inside the freshly
        unpickled skeleton *sim*; raises CheckpointError when store and
        skeleton do not belong together."""
        try:
            generation, counts, shape, rases = manifest
            counts, shape, rases = list(counts), list(shape), list(rases)
        except (TypeError, ValueError):
            raise CheckpointError(
                f"restore_bundle: malformed page manifest {manifest!r}"
            ) from None
        if generation != self.generation:
            raise CheckpointError(
                f"restore_bundle: skeleton is checkpoint {generation!r} "
                f"but the page store holds checkpoint {self.generation}"
            )
        vaults = _vaults(sim)
        n = len(counts)
        if not (
            len(self.pages) == len(self.states) == n
            and len(rases) in (0, n)
            and len(shape) == len(vaults)
            and all(type(k) is int and k >= 0 for k in shape)
            and sum(shape) == n
        ):
            raise CheckpointError(
                f"restore_bundle: skeleton has {len(vaults)} vaults of "
                f"{shape!r} banks, its manifest {n} banks, the page store "
                f"{len(self.pages)} / {len(self.states)}"
            )
        held = [j for j, vault in enumerate(vaults) if vault.banks != []]
        if held:
            raise CheckpointError(
                f"restore_bundle: vaults {held} arrive already holding banks"
            )
        owners = [v for v, k in zip(vaults, shape) for _ in range(k)]
        for i, (vault, state, image) in enumerate(
            zip(owners, self.states, self.pages)
        ):
            ras = rases[i] if rases else None
            bank = getattr(ras, "bank", None) if rases else Bank.__new__(Bank)
            if not (
                type(bank) is Bank
                and type(state) is tuple
                and len(state) == len(_BANK_STATE)
                and all(type(x) is int for x in state)
            ):
                raise CheckpointError(
                    f"restore_bundle: bank #{i} is not {len(_BANK_STATE)} "
                    f"integers (and, with ECC, the bank of its BankRas)"
                )
            try:  # slots, DRAM leaves and the page-size check: Bank's own
                state = dict(zip(_BANK_STATE, state), ras=ras, _owner=vault)
                bank.__setstate__(state)
            except ValueError as exc:
                raise CheckpointError(
                    f"restore_bundle: bank #{i}: {exc}"
                ) from None
            if len(image) != counts[i]:
                raise CheckpointError(
                    f"restore_bundle: bank #{i} references {counts[i]!r} "
                    f"pages, the page store holds {len(image)}"
                )
            words = bank._page_words
            limit = -(-bank.capacity_bytes // (8 * words))
            for pg, (page, touched) in image.items():
                if not 0 <= pg < limit:
                    raise CheckpointError(
                        f"restore_bundle: bank #{i} page {pg} is outside "
                        f"the bank's {limit} pages"
                    )
                if not (
                    isinstance(page, np.ndarray)
                    and isinstance(touched, np.ndarray)
                    and page.dtype == np.uint64
                    and touched.dtype == np.bool_
                    and page.shape == (words,)
                    and touched.shape == (words // ATOM_WORDS,)
                ):
                    raise CheckpointError(
                        f"restore_bundle: bank #{i} page {pg} is not "
                        f"{words} uint64 words plus a touched map"
                    )
            bank.import_storage(
                [(pg, *image[pg]) for pg in sorted(image)]
            )
            vault.banks.append(bank)


def _pickle_detached(
    sim: HMCSim, payload_of, detach_banks: bool = False
) -> bytes:
    """Pickle ``payload_of(sim)`` with every tracer reference detached
    (and, with *detach_banks*, every vault's bank list left out of the
    stream — ``payload_of`` runs first, with the banks in place)."""
    saved_tracer = sim.tracer
    standin = Tracer(mask=saved_tracer.mask)  # sinkless stand-in
    holders = _tracer_holders(sim)
    sim.tracer = standin
    for h in holders:
        h.tracer = standin
    buf = io.BytesIO()
    buf.write(MAGIC)
    pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
    detached = []
    try:
        payload = payload_of(sim)
        if detach_banks:
            # Scoped to this pickler and this dump: no process-wide
            # switch, so a full snapshot elsewhere still carries its banks.
            pickler.dispatch_table = {
                **copyreg.dispatch_table, Bank: _reduce_bank_hollow,
            }
            for v in _vaults(sim):
                detached.append((v, v.banks))
                v.banks = []
        pickler.dump(payload)
        return buf.getvalue()
    finally:
        sim.tracer = saved_tracer
        for h in holders:
            h.tracer = saved_tracer
        for v, banks in detached:
            v.banks = banks


def _rewire_tracer(sim: HMCSim) -> None:
    """Point every component-held tracer reference at ``sim.tracer``.

    New snapshots already share one stand-in tracer across the graph;
    this also heals blobs written before holders were detached, where
    a component could come back with a private tracer copy.
    """
    for h in _tracer_holders(sim):
        h.tracer = sim.tracer


def snapshot(sim: HMCSim) -> bytes:
    """Serialise *sim* (tracer sinks detached) to bytes."""
    return _pickle_detached(sim, lambda s: s)


def restore(blob: bytes) -> HMCSim:
    """Reconstruct a simulation from :func:`snapshot` bytes.

    The restored object has a sinkless tracer with the original mask;
    attach sinks with :meth:`HMCSim.add_trace_sink` as needed.  Raises
    :class:`~repro.core.errors.CheckpointError` on a corrupt, truncated
    or version-incompatible blob.
    """
    sim = _unpickle(_strip_magic(blob, "restore"), "restore")
    if not isinstance(sim, HMCSim):
        raise CheckpointError(
            f"restore: snapshot does not contain an HMCSim: {type(sim)!r}"
        )
    _rewire_tracer(sim)
    return sim


def snapshot_bundle(
    sim: HMCSim, *extras: Any, store: Optional[PageStore] = None
) -> bytes:
    """Snapshot *sim* together with host-side objects referencing it.

    Pickling them in one pass preserves shared references (a restored
    Host still points at the restored HMCSim)::

        blob = snapshot_bundle(sim, host)
        sim2, (host2,) = restore_bundle(blob)

    With a *store* the blob is the skeleton only and the banks go to
    the store (see :class:`PageStore`); restore it with the same
    store.
    """
    if store is None:
        return _pickle_detached(sim, lambda s: (s, tuple(extras)))
    return _pickle_detached(
        sim, lambda s: (s, tuple(extras), store.capture(s)),
        detach_banks=True,
    )


def restore_bundle(
    blob: bytes, store: Optional[PageStore] = None
) -> Tuple[HMCSim, tuple]:
    """Inverse of :func:`snapshot_bundle`; raises
    :class:`~repro.core.errors.CheckpointError` on a bad blob, or on a
    *store* that is not the one the blob was written against."""
    payload = _unpickle(_strip_magic(blob, "restore_bundle"), "restore_bundle")
    try:
        sim, extras, *manifest = payload
    except (TypeError, ValueError):
        raise CheckpointError(
            f"restore_bundle: blob does not contain a (sim, extras) "
            f"bundle: {type(payload)!r}"
        ) from None
    if not isinstance(sim, HMCSim):
        raise CheckpointError(
            f"restore_bundle: snapshot does not contain an HMCSim: "
            f"{type(sim)!r}"
        )
    if len(manifest) > 1 or (store is None) != (not manifest):
        raise CheckpointError(
            "restore_bundle: a skeleton blob restores only with the "
            "page store it was written against"
            if manifest else
            "restore_bundle: the blob is self-contained; it takes no "
            "page store"
        )
    if store is not None:
        store.fill(sim, manifest[0])
    _rewire_tracer(sim)
    return sim, extras


def save(sim: HMCSim, path: str) -> None:
    """Write a snapshot to *path*."""
    with open(path, "wb") as fh:
        fh.write(snapshot(sim))


def load(path: str) -> HMCSim:
    """Read a snapshot from *path*."""
    with open(path, "rb") as fh:
        return restore(fh.read())
