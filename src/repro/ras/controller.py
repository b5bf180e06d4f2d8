"""Per-device RAS controller: ECC datapath, fault arrivals, registers.

One :class:`RasController` is attached per device (as ``device.ras``)
when the device is built with ``DeviceConfig.ecc_enabled``.  It owns:

* a :class:`BankRas` per bank — the check-bit store plus the
  encode-on-write / decode-on-read ECC datapath;
* the :class:`~repro.ras.faultmap.DeviceFaultMap` and the seeded
  Poisson arrival process for transient upsets;
* the :class:`~repro.ras.scrubber.PatrolScrubber`;
* the :class:`~repro.ras.log.RasLog` and the ``RASCE`` / ``RASUE`` /
  ``RASSCR`` register mirrors (write-to-clear RWS semantics).

The clock engine calls :meth:`tick` once per cycle in the RAS sub-step
(between vault processing and response registration) and
:meth:`sync_registers` in stage 6, just before the register file's own
tick.  With ECC disabled neither call happens and the simulated device
is bit-for-bit identical to the paper's model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.clock import NEVER
from repro.ras import codec
from repro.ras.faultmap import (
    ATOMS_PER_ROW,
    CORRECTED_ACCESS,
    CORRECTED_SCRUB,
    OVERWRITTEN,
    DeviceFaultMap,
)
from repro.ras.log import SOURCE_ACCESS, SOURCE_SCRUB, RasLog
from repro.ras.scrubber import PatrolScrubber
from repro.trace.events import EventType

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.bank import Bank
    from repro.core.config import SimConfig
    from repro.core.device import HMCDevice
    from repro.trace.tracer import Tracer

#: Register names mirrored by the controller.
RAS_REGISTERS = ("RASCE", "RASUE", "RASSCR")


class BankRas:
    """ECC state of one bank: check-bit store + decode path.

    The bank's sparse block store holds data words exactly as without
    ECC; check bytes live here, keyed by atom index, so the ECC layer
    adds zero cost and zero storage when disabled.
    """

    __slots__ = ("ctl", "vault_id", "bank", "checks")

    def __init__(self, ctl: "RasController", vault_id: int, bank: "Bank") -> None:
        self.ctl = ctl
        self.vault_id = vault_id
        self.bank = bank
        #: atom → (check byte word0, check byte word1).
        self.checks: Dict[int, Tuple[int, int]] = {}

    # -- write path ----------------------------------------------------------

    def on_write(self, atom0: int, words: Sequence[int]) -> None:
        """Encode check bits for freshly written atoms.

        A write replaces the stored data, so any pending transient
        flips on these atoms are resolved as ``overwritten``.
        """
        enc = codec.encode(np.array(words, dtype=np.uint64))
        faults = self.ctl.faults
        for i in range(len(words) // 2):
            atom = atom0 + i
            self.checks[atom] = (int(enc[2 * i]), int(enc[2 * i + 1]))
            faults.resolve(self.vault_id, self.bank.bank_id, atom, OVERWRITTEN)

    # -- read path -----------------------------------------------------------

    def read_atoms(self, atom0: int, natoms: int) -> List[int]:
        """ECC-checked read of *natoms* consecutive atoms (demand path)."""
        return self.check_atoms(range(atom0, atom0 + natoms), SOURCE_ACCESS)

    def check_atoms(self, atoms, source: str) -> List[int]:
        """Decode *atoms* through the codec; correct, log, write back.

        Returns the (possibly corrected) 64-bit words, two per atom.
        CE words are corrected in the returned data **and** in the
        stored copy (correct-and-writeback, i.e. demand scrubbing); UE
        words are returned as observed and logged — detected, never
        silently accepted.
        """
        ctl = self.ctl
        bank = self.bank
        vault_id = self.vault_id
        faults = ctl.faults
        atoms = list(atoms)
        words: List[int] = []
        checks: List[int] = []
        for atom in atoms:
            w0, w1 = bank.atom_words(atom)
            c = self.checks.get(atom)
            c0, c1 = c if c is not None else (codec.ZERO_CHECK, codec.ZERO_CHECK)
            ov = faults.overlay(vault_id, bank.bank_id, atom, w0, w1, c0, c1)
            if ov is not None:
                w0, w1, c0, c1 = ov
            words += (w0, w1)
            checks += (c0, c1)
        data, fixed, status = codec.decode(
            np.array(words, dtype=np.uint64), np.array(checks, dtype=np.uint8)
        )
        if status.any():
            self._handle_faults(atoms, data, fixed, status, source)
        return [int(x) for x in data]

    def _handle_faults(self, atoms, data, fixed, status, source: str) -> None:
        ctl = self.ctl
        bank = self.bank
        vault_id = self.vault_id
        cycle = ctl.cycle
        dev_id = ctl.device.dev_id
        trace_on = ctl.tracer.enabled_for(EventType.RAS_CE | EventType.RAS_UE)
        outcome = CORRECTED_SCRUB if source == SOURCE_SCRUB else CORRECTED_ACCESS
        for i, atom in enumerate(atoms):
            s0, s1 = int(status[2 * i]), int(status[2 * i + 1])
            if not (s0 or s1):
                continue
            for half, s in ((0, s0), (1, s1)):
                if s == codec.CE:
                    ctl.log.record_ce(cycle, vault_id, bank.bank_id, atom, half, source)
                    if source == SOURCE_SCRUB:
                        ctl.scrub_ce += 1
                    if trace_on:
                        ctl.tracer.event(
                            EventType.RAS_CE, cycle, dev=dev_id,
                            quad=vault_id // 4, vault=vault_id, bank=bank.bank_id,
                            extra={"atom": atom, "half": half, "source": source},
                        )
                elif s == codec.UE:
                    ctl.log.record_ue(cycle, vault_id, bank.bank_id, atom, half, source)
                    if source == SOURCE_SCRUB:
                        ctl.scrub_ue += 1
                    if trace_on:
                        ctl.tracer.event(
                            EventType.RAS_UE, cycle, dev=dev_id,
                            quad=vault_id // 4, vault=vault_id, bank=bank.bank_id,
                            extra={"atom": atom, "half": half, "source": source},
                        )
            # Correct-and-writeback only when the whole atom decoded to
            # a correctable state; a UE half must stay as stored so it
            # keeps surfacing (no silent repair of corrupted data).
            if codec.UE not in (s0, s1) and (s0 == codec.CE or s1 == codec.CE):
                w0, w1 = int(data[2 * i]), int(data[2 * i + 1])
                bank.set_atom_words(atom, w0, w1)
                self.checks[atom] = (int(fixed[2 * i]), int(fixed[2 * i + 1]))
                faults = ctl.faults
                faults.resolve(vault_id, bank.bank_id, atom, outcome)

    def reset(self) -> None:
        self.checks.clear()


class RasController:
    """All RAS state of one device (see module docstring)."""

    def __init__(self, device: "HMCDevice", config: "SimConfig",
                 tracer: "Tracer") -> None:
        self.device = device
        self.config = config
        self.tracer = tracer
        self.cycle = 0
        self.log = RasLog()
        self.faults = DeviceFaultMap()
        self.scrub_ce = 0
        self.scrub_ue = 0
        self.upsets_masked = 0
        self._reg_base = {name: 0 for name in RAS_REGISTERS}

        for vault in device.vaults:
            for bank in vault.banks:
                bank.ras = BankRas(self, vault.vault_id, bank)

        self.scrubber = PatrolScrubber(
            self, config.ras_scrub_interval, config.ras_scrub_rows
        )
        self._init_random_state()

    # -- seeded randomness ---------------------------------------------------

    def _init_random_state(self) -> None:
        cfg = self.config
        self.rng = np.random.default_rng([cfg.ras_seed, self.device.dev_id])
        nbanks = self.device.config.num_vaults * self.device.config.num_banks
        rate = cfg.ras_fit_rate
        #: Mean cycles between transient upsets, device-wide: the
        #: FIT-style rate is upsets per bank per 1e9 cycles.
        self._mean_interval = (1e9 / (rate * nbanks)) if rate > 0 else 0.0
        self._next_upset: Optional[int] = (
            self._draw_interval() if rate > 0 else None
        )
        self._place_config_faults()

    def _draw_interval(self) -> int:
        return max(1, int(self.rng.exponential(self._mean_interval)))

    def _place_config_faults(self) -> None:
        """Place config-requested hard faults uniformly over the banks.

        Stuck cells and failed rows land anywhere in each bank's atom
        space — like real silicon, most sit in memory the workload
        never touches; tests that need a fault in a known place use the
        ``inject_*`` APIs instead.
        """
        cfg = self.config
        dev = self.device
        atoms_per_bank = dev.config.bank_bytes // 16
        rows_per_bank = max(1, atoms_per_bank // ATOMS_PER_ROW)
        for _ in range(cfg.ras_stuck_cells):
            v = int(self.rng.integers(len(dev.vaults)))
            b = int(self.rng.integers(len(dev.vaults[v].banks)))
            atom = int(self.rng.integers(atoms_per_bank))
            bit = int(self.rng.integers(2 * codec.DATA_BITS))
            self.faults.add_stuck(v, b, atom, bit, int(self.rng.integers(2)))
        for _ in range(cfg.ras_row_faults):
            v = int(self.rng.integers(len(dev.vaults)))
            b = int(self.rng.integers(len(dev.vaults[v].banks)))
            self.faults.add_row_fault(v, b, int(self.rng.integers(rows_per_bank)))

    # -- clocking ------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """RAS sub-step: transient fault arrivals + patrol scrubbing."""
        self.cycle = cycle
        if self._next_upset is not None:
            while cycle >= self._next_upset:
                self._inject_random_upset(cycle)
                self._next_upset += self._draw_interval()
        scrub = self.scrubber
        if scrub.interval and cycle % scrub.interval == 0:
            before = scrub.atoms_scrubbed
            scrub.step(cycle)
            if self.tracer.enabled_for(EventType.RAS_SCRUB):
                self.tracer.event(
                    EventType.RAS_SCRUB, cycle, dev=self.device.dev_id,
                    extra={"atoms": scrub.atoms_scrubbed - before},
                )

    def next_due(self, cycle: int) -> int:
        """First cycle from *cycle* on at which the RAS sub-step or its
        stage-6 register mirror does observable work: an upset arrival, a
        patrol-scrub step, or counters the registers do not show yet
        (out-of-band injection); :data:`~repro.core.clock.NEVER` for
        none.  The clock engine skips the cycles before it."""
        if not self.registers_synced():
            return cycle
        due = NEVER if self._next_upset is None else max(cycle, self._next_upset)
        interval = self.scrubber.interval
        if interval:
            due = min(due, cycle + -cycle % interval)
        return due

    def skip_to(self, end: int) -> None:
        """The cycles before *end* passed with nothing due: move the
        cycle cursor as their ticks would have."""
        self.cycle = end - 1

    def sync_registers(self) -> None:
        """Mirror RAS counters into the register file (stage 6).

        The RAS registers are RWS: a host write — any value — clears
        the visible counter (the strobe is observed here, before the
        register file's own tick zeroes the written value).
        """
        regs = self.device.regs
        counts = (
            ("RASCE", self.log.ce_count),
            ("RASUE", self.log.ue_count),
            ("RASSCR", self.scrubber.atoms_scrubbed),
        )
        for name, total in counts:
            if regs.was_strobed(name):
                self._reg_base[name] = total
            regs.internal_write(name, total - self._reg_base[name])

    def registers_synced(self) -> bool:
        """True iff :meth:`sync_registers` would rewrite identical values.

        When the mirrors are current (and no strobe is pending, stage 6's
        own due), skipping the per-cycle sync is unobservable.
        """
        regs = self.device.regs
        base = self._reg_base
        return (
            regs.peek("RASCE") == self.log.ce_count - base["RASCE"]
            and regs.peek("RASUE") == self.log.ue_count - base["RASUE"]
            and regs.peek("RASSCR") == self.scrubber.atoms_scrubbed - base["RASSCR"]
        )

    def _inject_random_upset(self, cycle: int) -> None:
        dev = self.device
        v = int(self.rng.integers(len(dev.vaults)))
        b = int(self.rng.integers(len(dev.vaults[v].banks)))
        bank = dev.vaults[v].banks[b]
        touched = bank.touched_atoms()
        if not touched:
            # The upset hit a never-materialised cell: no stored data
            # to corrupt in the sparse model.
            self.upsets_masked += 1
            return
        atom = touched[int(self.rng.integers(len(touched)))]
        bit = int(self.rng.integers(2 * codec.CODEWORD_BITS))
        self.faults.add_upset(cycle, v, b, atom, bit)

    # -- deliberate fault injection (tests / what-if studies) -----------------

    def inject_upset(self, vault: int, bank: int, atom: int, bit: int):
        """Flip one codeword bit (0..143) of a stored atom."""
        return self.faults.add_upset(self.cycle, vault, bank, atom, bit)

    def inject_double(self, vault: int, bank: int, atom: int,
                      half: int = 0, bits: Tuple[int, int] = (3, 57)) -> None:
        """Flip two data bits of one word: a guaranteed UE on access."""
        b0, b1 = bits
        if b0 == b1:
            raise ValueError("double-bit injection needs two distinct bits")
        base = half * codec.CODEWORD_BITS
        self.faults.add_upset(self.cycle, vault, bank, atom, base + b0)
        self.faults.add_upset(self.cycle, vault, bank, atom, base + b1)

    def inject_stuck(self, vault: int, bank: int, atom: int, bit: int,
                     value: int) -> None:
        """Force a data bit (0..127) of *atom* to *value* permanently."""
        self.faults.add_stuck(vault, bank, atom, bit, value)

    def inject_row_fault(self, vault: int, bank: int, row: int) -> None:
        """Fail a whole DRAM row: accesses to it decode as UEs."""
        self.faults.add_row_fault(vault, bank, row)

    # -- maintenance / diagnostics -------------------------------------------

    def scrub_all(self) -> int:
        """One immediate full patrol pass; returns atoms scrubbed."""
        return self.scrubber.scrub_all()

    @property
    def upsets_injected(self) -> int:
        return len(self.faults.upsets)

    def stats(self) -> Dict[str, object]:
        """Counter snapshot (statdump / reliability report)."""
        return {
            "ce": self.log.ce_count,
            "ue": self.log.ue_count,
            "ce_by_scrub": self.scrub_ce,
            "ue_by_scrub": self.scrub_ue,
            "upsets_injected": self.upsets_injected,
            "upsets_masked": self.upsets_masked,
            "upsets_pending": self.faults.pending_upsets,
            "atoms_scrubbed": self.scrubber.atoms_scrubbed,
            "rows_scrubbed": self.scrubber.rows_scrubbed,
            "scrub_passes": self.scrubber.passes,
            "stuck_cells": sum(len(v) for v in self.faults.stuck.values()),
            "row_faults": len(self.faults.failed_rows),
            "outcomes": self.faults.outcome_counts(),
        }

    def reset(self) -> None:
        """Device reset: back to the post-init fault state.

        Transient state, logs, counters and scrub progress clear; the
        seeded RNG restarts, so config-placed hard faults land in the
        same cells as after construction.
        """
        self.cycle = 0
        self.log.reset()
        self.faults.reset()
        self.scrub_ce = 0
        self.scrub_ue = 0
        self.upsets_masked = 0
        self._reg_base = {name: 0 for name in RAS_REGISTERS}
        for vault in self.device.vaults:
            for bank in vault.banks:
                if bank.ras is not None:
                    bank.ras.reset()
        self.scrubber.reset()
        self._init_random_state()
