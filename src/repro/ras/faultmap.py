"""Per-bank in-DRAM fault models.

Three fault classes are layered under the ECC codec, all seeded and
deterministic (the :mod:`repro.faults` conventions — errors are
simulated, never silently accepted):

* **transient single-bit upsets** — a Poisson arrival process at a
  FIT-style rate (expected upsets per bank per 10⁹ device cycles).
  Each upset XOR-flips one codeword bit of one *touched* storage atom;
  the flip persists in the stored data until an ECC-checked access or
  the patrol scrubber corrects it, or a write overwrites it.  (Upsets
  in never-written blocks are not modelled — sparse storage has no
  materialised cell to flip; such draws count as ``masked``.)

* **stuck-at cells** — a data bit forced to a fixed value on every
  observation.  ECC corrects each read, and a scrub rewrite restores
  the stored copy, but the cell re-asserts on the next access — the
  classic recurring-CE signature of a hard fault.

* **row faults** — a whole DRAM row (``ATOMS_PER_ROW`` consecutive
  atoms) fails; observations of its atoms see a double-bit overlay per
  word, which SECDED flags as a detected-uncorrectable error (UE).

The map also keeps an outcome record per injected upset (corrected on
access, corrected by scrub, or overwritten) so end-to-end tests can
prove no injected fault is ever silently absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.ras import codec

#: Atoms per modelled DRAM row: 256 x 16-byte atoms = 4 KiB rows.
ATOMS_PER_ROW = 256

#: Double-bit overlay applied per 64-bit word of a failed row: two
#: flipped data bits → guaranteed UE under SECDED.
_ROW_FAULT_XOR = (1 << 3) | (1 << 57)

#: Upset outcomes.
PENDING = "pending"
CORRECTED_ACCESS = "corrected-access"
CORRECTED_SCRUB = "corrected-scrub"
OVERWRITTEN = "overwritten"


@dataclass
class UpsetRecord:
    """One injected transient upset and its eventual fate."""

    cycle: int
    vault: int
    bank: int
    atom: int
    #: Codeword bit 0..143 within the atom (72 bits per 64-bit half).
    bit: int
    outcome: str = PENDING


class DeviceFaultMap:
    """All modelled in-DRAM faults of one device.

    State is keyed by ``(vault, bank, atom)``; the hot-path query
    :meth:`overlay` is a few dict probes per atom and returns ``None``
    when the atom is fault-free (the overwhelmingly common case).
    """

    def __init__(self) -> None:
        #: atom → [data0, check0, data1, check1] XOR masks (transients).
        self.pending: Dict[Tuple[int, int, int], List[int]] = {}
        #: atom → [(half, bit, value)] forced cells.
        self.stuck: Dict[Tuple[int, int, int], List[Tuple[int, int, int]]] = {}
        #: failed (vault, bank, row) triples.
        self.failed_rows: Set[Tuple[int, int, int]] = set()
        #: every injected transient upset, in injection order.
        self.upsets: List[UpsetRecord] = []
        #: pending-upset records by atom (for outcome resolution).
        self._open: Dict[Tuple[int, int, int], List[UpsetRecord]] = {}

    # -- injection -----------------------------------------------------------

    def add_upset(self, cycle: int, vault: int, bank: int, atom: int,
                  bit: int) -> UpsetRecord:
        """Inject one transient codeword-bit flip (bit 0..143)."""
        if not 0 <= bit < 2 * codec.CODEWORD_BITS:
            raise ValueError(f"atom codeword bit must be in [0, 144), got {bit}")
        key = (vault, bank, atom)
        masks = self.pending.setdefault(key, [0, 0, 0, 0])
        half, cbit = divmod(bit, codec.CODEWORD_BITS)
        if cbit < codec.DATA_BITS:
            masks[2 * half] ^= 1 << cbit
        else:
            masks[2 * half + 1] ^= 1 << (cbit - codec.DATA_BITS)
        rec = UpsetRecord(cycle, vault, bank, atom, bit)
        self.upsets.append(rec)
        self._open.setdefault(key, []).append(rec)
        return rec

    def add_stuck(self, vault: int, bank: int, atom: int, bit: int,
                  value: int) -> None:
        """Force data bit *bit* (0..127) of *atom* to *value* forever."""
        if not 0 <= bit < 2 * codec.DATA_BITS:
            raise ValueError(f"stuck data bit must be in [0, 128), got {bit}")
        half, dbit = divmod(bit, codec.DATA_BITS)
        self.stuck.setdefault((vault, bank, atom), []).append(
            (half, dbit, 1 if value else 0)
        )

    def add_row_fault(self, vault: int, bank: int, row: int) -> None:
        """Fail the whole DRAM row *row* of (vault, bank)."""
        self.failed_rows.add((vault, bank, row))

    # -- observation ---------------------------------------------------------

    def overlay(
        self, vault: int, bank: int, atom: int,
        w0: int, w1: int, c0: int, c1: int,
    ) -> Optional[Tuple[int, int, int, int]]:
        """Fault-adjusted view of a stored atom, or None when clean.

        Applies, in order: pending transient flips (XOR), stuck-cell
        forcing, and the failed-row overlay.  The stored copy is not
        modified — correction happens at the ECC layer, which then
        writes back through :meth:`resolve`.
        """
        key = (vault, bank, atom)
        masks = self.pending.get(key)
        stuck = self.stuck.get(key)
        row_failed = (vault, bank, atom // ATOMS_PER_ROW) in self.failed_rows
        if masks is None and stuck is None and not row_failed:
            return None
        if masks is not None:
            w0 ^= masks[0]
            c0 ^= masks[1]
            w1 ^= masks[2]
            c1 ^= masks[3]
        if stuck is not None:
            for half, bit, value in stuck:
                mask = 1 << bit
                if half == 0:
                    w0 = (w0 | mask) if value else (w0 & ~mask)
                else:
                    w1 = (w1 | mask) if value else (w1 & ~mask)
        if row_failed:
            w0 ^= _ROW_FAULT_XOR
            w1 ^= _ROW_FAULT_XOR
        return w0, w1, c0, c1

    # -- resolution ----------------------------------------------------------

    def resolve(self, vault: int, bank: int, atom: int, outcome: str) -> None:
        """Clear pending transient flips for *atom*, recording *outcome*.

        Called when the ECC layer corrects-and-writes-back (outcome
        ``corrected-access`` / ``corrected-scrub``) or when a write
        replaces the atom's data (``overwritten``).
        """
        key = (vault, bank, atom)
        if self.pending.pop(key, None) is None:
            return
        for rec in self._open.pop(key, ()):
            rec.outcome = outcome

    # -- bookkeeping ---------------------------------------------------------

    @property
    def pending_upsets(self) -> int:
        """Injected transient upsets not yet corrected or overwritten."""
        return sum(len(v) for v in self._open.values())

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for rec in self.upsets:
            counts[rec.outcome] = counts.get(rec.outcome, 0) + 1
        return counts

    def clear_transients(self) -> None:
        """Drop pending transient state (stored data was cleared)."""
        self.pending.clear()
        self._open.clear()
        self.upsets.clear()

    def reset(self) -> None:
        """Forget every modelled fault (full re-initialisation)."""
        self.clear_transients()
        self.stuck.clear()
        self.failed_rows.clear()
