"""Simulation checkpoint / restore.

Snapshot the complete simulation state and resume later, fork a state
to explore two what-if continuations, spin a service shard up from a
provisioned template, or roll one back after a crash.  Because the
engine is fully deterministic, a restored simulation continues
bit-identically to the original.

Snapshots serialise the :class:`~repro.core.simulator.HMCSim` object
graph with :mod:`pickle`.  Tracer sinks may hold OS resources (open
files), so snapshotting detaches the tracer (its mask and packet
serial counter are preserved, its sinks are not) — reattach sinks
after restore.  Components that keep their own reference to the tracer
(the RAS controller does) are detached through the same stand-in, so
the whole restored graph shares one tracer and no sink object ever
enters the pickle stream.  An attached stage profiler
(:func:`repro.analysis.profiling.attach`) is host-side state of the
same kind: the clock engine pickles its run state only, so two
identical profiled runs snapshot to equal bytes and a restored
simulation has no profiler.  Host-side objects
(:class:`~repro.host.host.Host` etc.) hold a reference to the sim and
must be checkpointed *with* it via :func:`snapshot_bundle`.  The
in-band link fault state (retry pointers, the injector's block of
pending flips, the degradation ladder, LRS mirrors) is part of the
graph, so a HALF link restores HALF (tests/test_link_inband.py).

A blob is ``HMCSNAP\x02``, the CRC-32 of the payload and the payload;
each pickled class has exactly one state shape (docs/api.md
"Checkpoint format").  A blob that fails its CRC, is truncated, of
another version, hollow, or whose graph does not fit its own config
(:func:`_check_config`) raises a typed
:class:`~repro.core.errors.CheckpointError` — callers (the service
recovery layer in particular) catch one exception type.  ``\x01`` blobs
load through :mod:`repro.core.migrate`, the only code that knows older
shapes.

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
import zlib
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.bank import ATOM_WORDS, Bank
from repro.core.config import DeviceConfig, SimConfig
from repro.core.device import HMCDevice
from repro.core.errors import CheckpointError, InitError
from repro.core.simulator import HMCSim
from repro.core.vault import Vault
from repro.trace.tracer import Tracer

#: Versioned magic header prepended to every snapshot blob; the CRC-32
#: of the payload follows it.  Bump the trailing version byte when a
#: pickled state shape changes, and teach :mod:`repro.core.migrate` the
#: old one.
MAGIC = b"HMCSNAP\x02"
_HEADER = len(MAGIC) + 4


def _unpickle(blob: bytes, kind: str) -> Any:
    """Check the header — and the CRC of a current-version payload —
    then unpickle the payload behind it (a version-1 payload through
    :mod:`repro.core.migrate`); raises CheckpointError."""
    if not isinstance(blob, (bytes, bytearray, memoryview)):
        raise CheckpointError(f"{kind}: expected bytes, got {type(blob).__name__}")
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
        raise CheckpointError(f"{kind}: bad magic {head!r} — not a snapshot blob")
    version, payload = head[-1], view[_HEADER:]
    if version == 1:
        payload = view[len(MAGIC):]
    elif version != MAGIC[-1]:
        raise CheckpointError(
            f"{kind}: snapshot format version {version} "
            f"is not supported (want 1 or {MAGIC[-1]})"
        )
    elif (len(view) < _HEADER or zlib.crc32(payload)
          != int.from_bytes(view[len(MAGIC):_HEADER], "little")):
        raise CheckpointError(f"{kind}: payload is corrupt or truncated "
                              f"(its CRC-32 does not match the header)")
    try:
        if version == 1:
            from repro.core import migrate

            return migrate.loads(payload)
        return pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(
            f"{kind}: payload is corrupt or truncated ({exc})"
        ) from exc


def _check_config(sim: HMCSim, kind: str, banks: bool = True) -> None:
    """CheckpointError unless the restored graph has the shape its own
    (valid) config describes: ``num_devs`` devices of ``num_vaults``
    vaults and, with *banks*, ``num_banks`` banks per vault, each of the
    configured capacity and DRAM count, with a page size between one
    atom and the bank and sorted, unique page indices inside it."""
    if type(devices := getattr(sim, "devices", None)) is not list:
        raise CheckpointError(f"{kind}: the simulation has no device list")
    try:
        config = sim.config
        if type(config) is not SimConfig or type(config.device) is not DeviceConfig:
            raise TypeError("not a SimConfig holding a DeviceConfig")
        dev = replace(replace(config).device)  # re-runs both validations
    except (AttributeError, TypeError, ValueError, InitError) as exc:
        raise CheckpointError(f"{kind}: invalid config ({exc})") from None
    if len(devices) != config.num_devs:
        raise CheckpointError(f"{kind}: {len(devices)} devices, not {config.num_devs}")
    n = 0
    for d, device in enumerate(devices):
        vaults = getattr(device, "vaults", None) if isinstance(device, HMCDevice) else None
        if (type(vaults) is not list or len(vaults) != dev.num_vaults
                or not all(type(v) is Vault for v in vaults)):
            raise CheckpointError(f"{kind}: device {d} has no list of {dev.num_vaults} vaults")
        for vault in vaults if banks else ():
            if type(vault.banks) is not list or len(vault.banks) != dev.num_banks:
                raise CheckpointError(f"{kind}: device {d} has a vault without "
                                      f"{dev.num_banks} banks")
            for j, bank in enumerate(vault.banks):
                _check_bank(bank, j, vault, dev, f"{kind}: bank #{n}")
                n += 1


def _check_bank(bank: Bank, j: int, vault: Vault, dev: DeviceConfig,
                where: str) -> None:
    """:func:`_check_config` for bank *j* of *vault*."""
    try:
        ints, pages, store = Bank._ints(bank), list(bank._pages), bank._store
    except AttributeError as exc:
        raise CheckpointError(f"{where} is hollow ({exc})") from None
    if (type(bank) is not Bank or bank._owner is not vault or bank.bank_id != j
            or not all(type(x) is int for x in ints)):
        raise CheckpointError(f"{where} is not {len(ints)} integers for bank {j} of its vault")
    cap, pw = bank.capacity_bytes, bank._page_words
    if cap != dev.bank_bytes or bank.num_drams != dev.num_drams:
        raise CheckpointError(f"{where} holds {cap} bytes in {bank.num_drams} DRAMs, "
                              f"the device {dev.bank_bytes} in {dev.num_drams}")
    if not ATOM_WORDS <= pw <= cap // 8 or pw % ATOM_WORDS:
        raise CheckpointError(f"{where}: bank page size of {pw} words")
    limit = -(-cap // (8 * pw))
    if not (all(type(pg) is int for pg in pages) and pages == sorted(pages)
            and len(pages) == (0 if store is None else len(store))
            and (not pages or 0 <= pages[0] and pages[-1] < limit)):
        raise CheckpointError(f"{where}: page indices unsorted, repeated or "
                              f"outside the bank's {limit} pages")


def _check_serial(sim: HMCSim, kind: str) -> None:
    """CheckpointError unless the restored tracer's ``next_serial`` is a
    non-negative int below 2**62, which leaves the C's signed 64-bit
    counter room for any run.  A blob written before the counter
    travelled in it resumes one past the largest serial a restored
    packet or link gate holds."""
    tracer = getattr(sim, "tracer", None)
    if type(tracer) is not Tracer:
        raise CheckpointError(f"{kind}: the simulation has no tracer")
    if not hasattr(tracer, "next_serial"):
        try:
            held = [p.serial for d in sim.devices for u in (*d.xbars, *d.vaults)
                    for q in (u.rqst, u.rsp) for p in q._q]
            held += [d.pending_serial for s in sim._link_fault_states
                     for d in s._dirs.values()]
            tracer.next_serial = max(held, default=-1) + 1
        except (AttributeError, TypeError) as exc:
            raise CheckpointError(f"{kind}: unreadable packet queues ({exc})") from None
    if type(n := tracer.next_serial) is not int or not 0 <= n < 1 << 62:
        raise CheckpointError(
            f"{kind}: packet serial counter {n!r} is not an int in [0, 2**62)")


def _tracer_holders(sim: HMCSim) -> List[Any]:
    """Components holding their own ``.tracer`` reference: detached
    through the same stand-in as ``sim.tracer``, or the original tracer
    (and its possibly unpicklable sinks) rides into the pickle stream."""
    return [d.ras for d in sim.devices
            if getattr(getattr(d, "ras", None), "tracer", None) is not None]


def _vaults(sim: HMCSim) -> list:
    return [v for d in sim.devices for v in d.vaults]


def _banks(sim: HMCSim) -> List[Bank]:
    """Every bank of *sim* in (device, vault, bank) order — the order
    that numbers banks in a :class:`PageStore`."""
    return [b for v in _vaults(sim) for b in v.banks]


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
        #: ``states[i]`` = bank *i*'s ``Bank._INT_SLOTS`` values: the
        #: integer head of its pickled state.
        self.states: List[tuple] = []
        #: Snapshots taken into this store; the skeleton records it.
        self.generation = 0
        self._sim: Optional[weakref.ref] = None
        #: What only a new simulation object changes, read at its first
        #: capture: its banks, the banks per vault, their ECC states.
        self._banks: List[Bank] = []
        self._shape: List[int] = []
        self._rases: list = []

    def __getstate__(self) -> dict:
        # The checkpoint and its generation travel; the simulation it
        # last saw does not, so the next capture reads everything afresh.
        return dict(vars(self), _sim=None, _banks=[], _shape=[], _rases=[])

    def capture(self, sim: HMCSim) -> tuple:
        """Copy what *sim*'s banks wrote since the last capture; returns
        the manifest the skeleton carries: (generation, page counts,
        banks per vault, the banks' ECC states — none without ECC)."""
        full = self._sim is None or self._sim() is not sim
        if full:
            self._sim = weakref.ref(sim)
            self._banks = banks = _banks(sim)
            self._shape = [len(v.banks) for v in _vaults(sim)]
            self._rases = [b.ras for b in banks if b.ras is not None]
            self.pages = [{} for _ in banks]
        banks = self._banks
        for bank, image in zip(banks, self.pages):
            if full or bank._dirty or len(image) != len(bank._pages):
                bank.sync_image(image, full)
        self.states = list(map(Bank._ints, banks))
        self.generation += 1
        return self.generation, list(map(len, self.pages)), self._shape, self._rases

    def fill(self, sim: HMCSim, manifest: Any) -> None:
        """Rebuild the banks *manifest* references inside the freshly
        unpickled skeleton *sim*; raises CheckpointError when store and
        skeleton do not belong together, or the result does not fit
        the config."""
        # Let go of the captured simulation's banks: whichever sim the
        # next capture sees, it reads everything afresh.
        self._sim, self._banks = None, []
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
        _check_config(sim, "restore_bundle", banks=False)
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
        held = [j for j, v in enumerate(vaults) if v.banks != []]
        if held:
            raise CheckpointError(
                f"restore_bundle: vaults {held} are not vaults without banks"
            )
        owners = [v for v, k in zip(vaults, shape) for _ in range(k)]
        ints = len(Bank._INT_SLOTS)
        for i, (vault, state, image) in enumerate(
            zip(owners, self.states, self.pages)
        ):
            ras = rases[i] if rases else None
            bank = getattr(ras, "bank", None) if rases else Bank.__new__(Bank)
            if not (
                type(bank) is Bank
                and type(state) is tuple
                and len(state) == ints
                and all(type(x) is int for x in state)
            ):
                raise CheckpointError(
                    f"restore_bundle: bank #{i} is not {ints} integers "
                    f"(and, with ECC, the bank of its BankRas)"
                )
            bank.__setstate__((*state, ras, vault, (), b"", b""))
            if len(image) != counts[i]:
                raise CheckpointError(
                    f"restore_bundle: bank #{i} references {counts[i]!r} "
                    f"pages, the page store holds {len(image)}"
                )
            words = bank._page_words
            for pg, (page, touched) in image.items():
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
        _check_config(sim, "restore_bundle")


def _pickle_detached(
    sim: HMCSim, payload_of, detach_banks: bool = False
) -> bytes:
    """Pickle ``payload_of(sim)`` behind the header, with every tracer
    reference detached (and, with *detach_banks*, every vault's bank
    list left out of the stream — ``payload_of`` runs first, with the
    banks in place)."""
    saved_tracer = sim.tracer
    standin = Tracer(mask=saved_tracer.mask)  # sinkless stand-in
    standin.next_serial = saved_tracer.next_serial
    holders = _tracer_holders(sim)
    sim.tracer = standin
    for h in holders:
        h.tracer = standin
    buf = io.BytesIO()
    buf.write(MAGIC + bytes(4))  # the CRC, once the payload is written
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
        with buf.getbuffer() as view:
            crc = zlib.crc32(view[_HEADER:])
            view[len(MAGIC):_HEADER] = crc.to_bytes(4, "little")
        return buf.getvalue()
    finally:
        sim.tracer = saved_tracer
        for h in holders:
            h.tracer = saved_tracer
        for v, banks in detached:
            v.banks = banks


def snapshot(sim: HMCSim) -> bytes:
    """Serialise *sim* (tracer sinks detached) to bytes."""
    return _pickle_detached(sim, lambda s: s)


def restore(blob: bytes) -> HMCSim:
    """Reconstruct a simulation from :func:`snapshot` bytes.

    The restored object has a sinkless tracer with the original mask;
    attach sinks with :meth:`HMCSim.add_trace_sink` as needed.  Raises
    :class:`~repro.core.errors.CheckpointError` on a corrupt, truncated
    or version-incompatible blob, or one whose graph does not fit its
    config.
    """
    sim = _unpickle(blob, "restore")
    if not isinstance(sim, HMCSim):
        raise CheckpointError(
            f"restore: snapshot does not contain an HMCSim: {type(sim)!r}"
        )
    _check_config(sim, "restore")
    _check_serial(sim, "restore")
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
    payload = _unpickle(blob, "restore_bundle")
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
    if store is None:
        _check_config(sim, "restore_bundle")
    else:
        store.fill(sim, manifest[0])
    _check_serial(sim, "restore_bundle")
    return sim, extras


def save(sim: HMCSim, path: str) -> None:
    """Write a snapshot to *path*."""
    with open(path, "wb") as fh:
        fh.write(snapshot(sim))


def load(path: str) -> HMCSim:
    """Read a snapshot from *path* (either format version)."""
    with open(path, "rb") as fh:
        return restore(fh.read())
