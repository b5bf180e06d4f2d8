"""Banks and DRAMs — the bottom of the structure hierarchy (paper §IV.A).

Each bank is "physically nested within its respective vault such that
I/O operations do not occur outside the respective vault queue
structure"; each bank holds a block of DRAMs which provide "the
designated data storage for all I/O operations".

The vault controller addresses banks in 16-byte blocks ("1Mb blocks
each addressing 16-bytes", §III.A) and performs column fetches in
32-byte units.  Storage is sparse — untouched blocks read as zero, and
a bank holds one growable array of the 128-byte pages it has written —
so multi-gigabyte devices cost memory proportional to the touched
footprint, not the configured capacity.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Tuple

import numpy as np


#: Addressable atom: one 16-byte block = two 64-bit words.
ATOM_BYTES = 16
ATOM_WORDS = 2

#: Column fetch granularity: reads/writes touch banks 32 bytes at a time
#: (paper §III.A: "Read or write requests to a target bank are always
#: performed in 32-bytes for each column fetch").
COLUMN_FETCH_BYTES = 32

_MASK64 = (1 << 64) - 1

#: Page granularity of the store: 8 atoms = 128 bytes of payload per
#: page, sized to the traffic — uniform random 64-byte requests (the
#: paper's harness) touch most pages exactly once, so every such write
#: costs a whole page, and 8 atoms is the floor that still holds the
#: largest (128-byte) request in one page.  The sweep that fixed it is
#: in docs/performance.md ("Resident memory").  Banks smaller than one
#: page get a single page sized to their capacity.
PAGE_ATOMS = 8
_PAGE_WORDS = PAGE_ATOMS * ATOM_WORDS


class DRAM:
    """One DRAM slice within a bank.

    DRAMs are data-width slices of the bank storage; HMC-Sim keeps them
    as structural leaves (locality bookkeeping, per-slice access counts)
    while the bank implements the unified block store.  Every slice
    participates in every bank access, so the per-slice count is a view
    of the bank's shared counter rather than eight separate increments
    on the access hot path.
    """

    __slots__ = ("dram_id", "bank")

    def __init__(self, dram_id: int, bank: "Bank" = None) -> None:
        self.dram_id = dram_id
        self.bank = bank

    @property
    def accesses(self) -> int:
        return self.bank.dram_access_count if self.bank is not None else 0


class Bank:
    """A memory bank: sparse paged array storage plus busy tracking.

    The busy window models the bank occupancy after a column access;
    two requests addressing the same bank within the window conflict
    (paper §IV.C.3/4) — the second cannot issue until the bank frees.

    Storage is one growable store per bank: ``_pages`` maps a page
    index to its row of ``_store`` (``rows x page_words`` ``uint64``)
    and of ``_tstore`` (``rows x page_atoms`` ``bool``, the touched-atom
    map).  Both arrays are ``None`` until the first write, gain a row
    per page written and double when full, so a bank holds at most
    twice the pages it touched and no per-page Python object.  The
    touched map lets ``touched_atoms`` / patrol scrub observe exactly
    the atoms demand traffic wrote — bit-identical to the historical
    dict-of-atoms store, including atoms written as zero.  A bank keeps
    the page size it was built (or pickled) with in ``_page_words``.
    ``_dirty`` holds the pages written since the last
    :meth:`sync_image`; its one consumer is the delta checkpoint
    (:class:`repro.core.checkpoint.PageStore`), which copies exactly
    those pages per epoch instead of pickling the whole bank.

    Demand ``read`` / ``write`` and ``_materialize`` are C, shared with
    the vault walk (``_vaultwalk.c``; installed by :mod:`repro.core.clock`).
    """

    __slots__ = ("bank_id", "capacity_bytes", "num_drams", "_page_words",
                 "busy_until", "reads", "writes", "atomics", "conflicts",
                 "column_fetches", "open_row", "row_hits", "row_misses",
                 "dram_access_count", "ras", "_owner",
                 "_pages", "_store", "_tstore", "_dirty")

    #: The integer slots — what a :class:`~repro.core.checkpoint.PageStore`
    #: keeps per bank — then the two references; page storage follows
    #: them in :meth:`__getstate__`.  The one definition of the layout.
    _INT_SLOTS = __slots__[:14]
    _STATE_SLOTS = __slots__[:16]
    #: The integer slots in one C call (no descriptor: ``Bank._ints(b)``).
    _ints = attrgetter(*_INT_SLOTS)

    def __init__(self, bank_id: int, capacity_bytes: int, num_drams: int = 8) -> None:
        if capacity_bytes <= 0 or capacity_bytes % ATOM_BYTES:
            raise ValueError(
                f"bank capacity must be a positive multiple of {ATOM_BYTES}, "
                f"got {capacity_bytes}"
            )
        self.bank_id = bank_id
        self.capacity_bytes = capacity_bytes
        self.num_drams = num_drams
        #: Accesses seen by each DRAM slice (all slices move together).
        self.dram_access_count = 0
        # Sparse paged storage: page index -> row of the word store and
        # of the touched-atom map, plus a modified-since-sync page set.
        self._page_words = min(_PAGE_WORDS, capacity_bytes // 8)
        self._pages: Dict[int, int] = {}
        self._store = None
        self._tstore = None
        self._dirty: set = set()
        #: First cycle at which the bank is free again.
        self.busy_until = 0
        #: Currently open DRAM row (-1 = all rows closed).  Only used
        #: under the open-row timing policy.
        self.open_row = -1
        self.row_hits = 0
        self.row_misses = 0
        self.reads = 0
        self.writes = 0
        self.atomics = 0
        self.conflicts = 0
        self.column_fetches = 0
        #: ECC layer (repro.ras.controller.BankRas) when the device is
        #: built with ecc_enabled; None keeps the unprotected datapath.
        self.ras = None
        #: Owning vault, when attached: busy-window changes are pushed
        #: into its incremental per-bank busy bitmask so stage 3/4 never
        #: rescan idle banks.  None for standalone banks.
        self._owner = None

    # -- busy window ---------------------------------------------------------

    def is_busy(self, cycle: int) -> bool:
        """True iff an in-progress access occupies the bank at *cycle*."""
        return cycle < self.busy_until

    def occupy(self, cycle: int, busy_cycles: int) -> None:
        """Mark the bank busy for *busy_cycles* starting at *cycle*."""
        bu = self.busy_until = cycle + busy_cycles
        owner = self._owner
        if owner is not None:
            # Pessimistic superset update: the owning vault lazily
            # re-validates its mask whenever the next-free horizon passes.
            owner._busy_mask |= 1 << self.bank_id
            if bu < owner._next_free:
                owner._next_free = bu

    def access_busy_cycles(
        self,
        row: int,
        closed_cycles: int,
        open_policy: bool = False,
        hit_cycles: int = 0,
        miss_cycles: int = 0,
    ) -> int:
        """Busy window for an access to *row* under the timing policy.

        Closed-page (the paper's constant-time model): every access
        costs *closed_cycles*.  Open-page: an access to the currently
        open row is a row-buffer hit (*hit_cycles*); any other row pays
        the precharge + activate penalty (*miss_cycles*) and leaves its
        row open.  Hit/miss statistics accumulate either way so the
        ablation can report locality.
        """
        if not open_policy:
            return closed_cycles
        if row == self.open_row:
            self.row_hits += 1
            return hit_cycles
        self.row_misses += 1
        self.open_row = row
        return miss_cycles

    # -- data path ---------------------------------------------------------

    def _check(self, byte_addr: int, nbytes: int) -> None:
        if byte_addr < 0 or nbytes <= 0 or byte_addr + nbytes > self.capacity_bytes:
            raise ValueError(
                f"access [{byte_addr:#x}, +{nbytes}) outside bank capacity "
                f"{self.capacity_bytes:#x}"
            )
        if byte_addr % ATOM_BYTES or nbytes % ATOM_BYTES:
            raise ValueError(
                f"accesses must be {ATOM_BYTES}-byte aligned blocks: "
                f"addr={byte_addr:#x} nbytes={nbytes}"
            )

    def _count_fetches(self, nbytes: int) -> None:
        # Each 32-byte column fetch services two atoms; odd atom counts
        # still require a full fetch.
        self.column_fetches += (nbytes + COLUMN_FETCH_BYTES - 1) // COLUMN_FETCH_BYTES

    def masked_write(self, byte_addr: int, data: int, byte_mask: int) -> None:
        """BWR: byte-enabled write of one 8-byte word.

        The HMC byte-write command carries 8 bytes of data plus a byte
        mask in a single FLIT; only bytes whose mask bit is set are
        written.  *byte_addr* must be 8-byte aligned; the containing
        16-byte atom is read-modified-written.
        """
        if byte_addr % 8:
            raise ValueError(f"BWR target must be 8-byte aligned: {byte_addr:#x}")
        if byte_addr < 0 or byte_addr + 8 > self.capacity_bytes:
            raise ValueError(f"BWR target {byte_addr:#x} outside bank capacity")
        byte_mask &= 0xFF
        atom = byte_addr // ATOM_BYTES
        half = (byte_addr % ATOM_BYTES) // 8  # which 64-bit word of the atom
        self.writes += 1
        self._count_fetches(ATOM_BYTES)
        self.dram_access_count += 1  # every DRAM slice takes part
        page, off = self._page_for_write(atom)
        word = int(page[off + half])
        for b in range(8):
            if byte_mask & (1 << b):
                shift = 8 * b
                word = (word & ~(0xFF << shift)) | (data & (0xFF << shift))
        page[off + half] = word & _MASK64
        if self.ras is not None:
            self.ras.on_write(atom, [int(page[off]), int(page[off + 1])])

    def atomic_add16(self, byte_addr: int, operands: List[int]) -> List[int]:
        """ADD16: add a 16-byte operand to the block, return the old value.

        The HMC atomic commands are read-modify-write on a single atom;
        both 64-bit halves are added independently with wraparound,
        matching the dual-field immediate-add semantics.
        """
        self._check(byte_addr, ATOM_BYTES)
        if len(operands) != ATOM_WORDS:
            raise ValueError("ADD16 requires exactly one 16-byte operand")
        self.atomics += 1
        self._count_fetches(ATOM_BYTES)
        self.dram_access_count += 1  # every DRAM slice takes part
        atom = byte_addr // ATOM_BYTES
        page, off = self._page_for_write(atom)
        old0, old1 = int(page[off]), int(page[off + 1])
        new0 = (old0 + operands[0]) & _MASK64
        new1 = (old1 + operands[1]) & _MASK64
        page[off] = new0
        page[off + 1] = new1
        if self.ras is not None:
            self.ras.on_write(atom, [new0, new1])
        return [old0, old1]

    def atomic_2add8(self, byte_addr: int, operands: List[int]) -> List[int]:
        """TWOADD8: two independent 8-byte adds within one atom."""
        # Same storage transformation as ADD16 in this word-granular
        # model; kept separate for command accounting and future masking.
        return self.atomic_add16(byte_addr, operands)

    # -- raw atom access (ECC layer / diagnostics) ----------------------------

    def atom_words(self, atom: int) -> Tuple[int, int]:
        """Stored 64-bit word pair of *atom* (zeros when untouched)."""
        pg, off = divmod(atom * ATOM_WORDS, self._page_words)
        row = self._pages.get(pg)
        if row is None:
            return (0, 0)
        page = self._store[row]
        return (int(page[off]), int(page[off + 1]))

    def _page_for_write(self, atom: int) -> Tuple[np.ndarray, int]:
        """Writable view of *atom*'s page (materialised, marked touched
        and dirty) and the atom's word offset in it (single-atom paths)."""
        pg, off = divmod(atom * ATOM_WORDS, self._page_words)
        row = self._pages.get(pg)
        if row is None:
            row = self._materialize(pg)
        self._tstore[row, off // ATOM_WORDS] = True
        self._dirty.add(pg)
        return self._store[row], off

    def set_atom_words(self, atom: int, w0: int, w1: int) -> None:
        """Replace *atom*'s stored words without access accounting.

        Used by the ECC layer's correct-and-writeback path; demand
        traffic must go through :meth:`read` / :meth:`write`.
        """
        page, off = self._page_for_write(atom)
        page[off] = w0 & _MASK64
        page[off + 1] = w1 & _MASK64

    def touched_atoms(self) -> List[int]:
        """Sorted indices of written atoms (patrol scrub order).

        Exactly the atoms demand traffic has stored — zero-valued
        writes count, untouched slots of a materialised page do not —
        preserving the dict-of-atoms semantics the RAS scrubber and
        fingerprinting tools rely on.
        """
        if not self._pages:
            return []
        pgs = sorted(self._pages)
        rows, cols = np.nonzero(self._tstore[[self._pages[pg] for pg in pgs]])
        page_atoms = self._page_words // ATOM_WORDS
        return (np.array(pgs)[rows] * page_atoms + cols).tolist()

    # -- page-level access (checkpoint / IPC / diagnostics) -------------------

    def export_storage(self) -> list:
        """Compact storage image: ``[(page, words, touched), ...]``.

        Numpy arrays are copied, so the export is a stable snapshot;
        pickling it for IPC is one binary buffer per page instead of a
        Python dict entry per atom.
        """
        store, tstore = self._store, self._tstore
        return [
            (pg, store[row].copy(), tstore[row].copy())
            for pg, row in sorted(self._pages.items())
        ]

    def sync_image(self, image: dict, full: bool = False) -> None:
        """Bring *image* — ``{page: (words, touched)}`` copies held
        outside this bank — up to date, and clear the dirty set.

        Copies only the pages written since the last sync unless *full*.
        Pages appear one at a time, each marking itself dirty, and
        vanish only wholesale (:meth:`reset`, :meth:`import_storage`), so
        a page-count mismatch after the copy means exactly "wiped since
        the last sync" and falls back to a full copy.
        """
        pages = self._pages
        if not full:
            store, tstore = self._store, self._tstore
            for pg in self._dirty:
                row = pages[pg]
                image[pg] = (store[row].copy(), tstore[row].copy())
            full = len(image) != len(pages)
        if full:
            image.clear()
            for pg, words, bits in self.export_storage():
                image[pg] = (words, bits)
        self._dirty.clear()

    def import_storage(self, image: list) -> None:
        """Inverse of :meth:`export_storage` (replaces all contents);
        raises ValueError on pages that are not this bank's page size."""
        store = tstore = None
        if image:
            store = np.array([w for _, w, _ in image], dtype=np.uint64)
            tstore = np.array([t for _, _, t in image], dtype=bool)
            pw = self._page_words
            if (store.shape != (len(image), pw)
                    or tstore.shape != (len(image), pw // ATOM_WORDS)):
                raise ValueError(f"storage image is not {pw}-word pages")
        self._pages = {pg: row for row, (pg, _, _) in enumerate(image)}
        self._store, self._tstore = store, tstore
        self._dirty = set(self._pages)

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> tuple:
        # Flat: the _STATE_SLOTS, the sorted page indices, their rows as
        # one buffer and their touched maps as one bit-packed buffer.
        pages = sorted(self._pages)
        rows = [self._pages[pg] for pg in pages]
        words = touched = b""
        if rows:
            words = self._store[rows].tobytes()
            touched = np.packbits(self._tstore[rows]).tobytes()
        return (*self._ints(self), self.ras, self._owner, tuple(pages),
                words, touched)

    def __setstate__(self, state: tuple) -> None:
        # Allocates what the buffers hold and nothing else: whether the
        # slots fit the device is the restore's check (checkpoint.py).
        *slots, pages, words, touched = state
        for name, value in zip(self._STATE_SLOTS, slots, strict=True):
            setattr(self, name, value)
        n, pw = len(pages), self._page_words
        page_atoms = pw // ATOM_WORDS
        if len(words) != 8 * n * pw or len(touched) != -(-n * page_atoms // 8):
            raise ValueError(f"storage is not {n} {pw}-word pages")
        self._pages = dict(zip(pages, range(n)))
        self._store = self._tstore = None
        if n:
            self._store = np.frombuffer(words, np.uint64).reshape(n, pw).copy()
            bits = np.unpackbits(np.frombuffer(touched, np.uint8))
            self._tstore = bits[: n * page_atoms].reshape(n, page_atoms).astype(bool)
        self._dirty = set()

    # -- diagnostics ----------------------------------------------------------

    @property
    def drams(self) -> List[DRAM]:
        """The DRAM slices, built on demand: they are stateless leaves,
        so a bank holds (and pickles) only their count."""
        return [DRAM(i, self) for i in range(self.num_drams)]

    @property
    def touched_bytes(self) -> int:
        """Bytes of storage actually written."""
        if self._tstore is None:
            return 0
        return ATOM_BYTES * int(np.count_nonzero(self._tstore))

    @property
    def resident_bytes(self) -> int:
        """Bytes the page store holds (word rows + touched-atom rows)."""
        if self._store is None:
            return 0
        return self._store.nbytes + self._tstore.nbytes

    @property
    def total_accesses(self) -> int:
        return self.reads + self.writes + self.atomics

    def reset(self) -> None:
        """Clear contents, busy state and statistics (device reset)."""
        self._pages.clear()
        self._store = self._tstore = None
        self._dirty.clear()
        self.busy_until = 0
        owner = self._owner
        if owner is not None:
            # Force the owning vault to re-validate its busy mask.
            owner._busy_mask |= 1 << self.bank_id
            owner._next_free = 0
        self.open_row = -1
        self.row_hits = self.row_misses = 0
        self.reads = self.writes = self.atomics = 0
        self.conflicts = 0
        self.column_fetches = 0
        self.dram_access_count = 0
        if self.ras is not None:
            self.ras.reset()
