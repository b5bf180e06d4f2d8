"""Unit tests for banks and DRAMs (repro.core.bank)."""

import pytest

import random

from repro.core.bank import (
    ATOM_BYTES,
    Bank,
    COLUMN_FETCH_BYTES,
    DRAM,
    PAGE_ATOMS,
)


@pytest.fixture
def bank():
    return Bank(bank_id=0, capacity_bytes=1 << 20, num_drams=8)


class TestConstruction:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Bank(0, 0)
        with pytest.raises(ValueError):
            Bank(0, 24)  # not a multiple of 16

    def test_dram_slices(self, bank):
        assert len(bank.drams) == 8
        assert all(isinstance(d, DRAM) for d in bank.drams)
        assert [d.dram_id for d in bank.drams] == list(range(8))


class TestDataPath:
    def test_unwritten_reads_zero(self, bank):
        assert bank.read(0, 64) == [0] * 8

    def test_write_read_round_trip(self, bank):
        words = list(range(1, 9))
        bank.write(0x40, words)
        assert bank.read(0x40, 64) == words

    def test_partial_overlap(self, bank):
        bank.write(0, [1, 2, 3, 4])  # two atoms at 0x00, 0x10
        bank.write(16, [9, 9])       # overwrite second atom
        assert bank.read(0, 32) == [1, 2, 9, 9]

    def test_words_are_masked_to_64_bits(self, bank):
        bank.write(0, [1 << 64, -1 & ((1 << 65) - 1)])
        lo, hi = bank.read(0, 16)
        assert lo == 0
        assert hi == (1 << 64) - 1

    def test_alignment_enforced(self, bank):
        with pytest.raises(ValueError):
            bank.read(8, 16)
        with pytest.raises(ValueError):
            bank.read(0, 24)
        with pytest.raises(ValueError):
            bank.write(4, [1, 2])

    def test_bounds_enforced(self, bank):
        with pytest.raises(ValueError):
            bank.read(bank.capacity_bytes - 16, 32)
        with pytest.raises(ValueError):
            bank.read(-16, 16)

    def test_write_requires_whole_atoms(self, bank):
        with pytest.raises(ValueError):
            bank.write(0, [1])

    def test_sparse_storage(self, bank):
        bank.write(0x1000, [5, 6])
        assert bank.touched_bytes == ATOM_BYTES
        bank.read(0x2000, 64)  # reads do not materialise blocks
        assert bank.touched_bytes == ATOM_BYTES


class TestFootprint:
    """Resident storage as an exact count (no RSS involved)."""

    #: What one page holds: its words plus its touched-atom map.
    PAGE_BYTES = PAGE_ATOMS * (ATOM_BYTES + 1)

    def test_first_write_allocates_exactly_one_page(self, bank):
        assert bank.resident_bytes == 0
        bank.read(0x2000, 64)  # reads allocate nothing
        assert bank.resident_bytes == 0
        bank.write(0x1000, [5, 6])
        assert bank.resident_bytes == self.PAGE_BYTES
        bank.write(0x1010, [7, 8])  # same page
        assert bank.resident_bytes == self.PAGE_BYTES

    def test_at_most_twice_the_pages_written(self, bank):
        rng = random.Random(1)
        atoms = bank.capacity_bytes // ATOM_BYTES
        for _ in range(700):
            atom = rng.randrange(atoms)
            kind = rng.randrange(4)
            if kind == 0:
                bank.write(atom * ATOM_BYTES, [atom, 1])
            elif kind == 1:
                bank.atomic_add16(atom * ATOM_BYTES, [1, 2])
            elif kind == 2:
                bank.masked_write(atom * ATOM_BYTES, atom, 0x0F)
            else:
                bank.write((atom & ~7) * ATOM_BYTES, [atom] * 16)  # WR128
            pages = len(bank.export_storage())
            assert self.PAGE_BYTES * pages <= bank.resident_bytes
            assert bank.resident_bytes <= 2 * self.PAGE_BYTES * pages
        assert pages > 500  # several doublings happened

    def test_reset_returns_to_zero(self, bank):
        for atom in range(0, 40 * PAGE_ATOMS, PAGE_ATOMS):
            bank.write(atom * ATOM_BYTES, [1, 2])
        assert bank.resident_bytes > 0
        bank.reset()
        assert bank.resident_bytes == 0 and bank.touched_bytes == 0
        assert bank.export_storage() == []
        bank.write(0, [3, 4])
        assert bank.resident_bytes == self.PAGE_BYTES

    def test_table1_stream_amplification(self):
        # The paper's harness: uniform random 64-byte requests touch
        # most pages exactly once, the worst case for a paged store.
        # 6x is the bound CI's footprint smoke gates too (8-atom pages,
        # measured 3.1x; the 4 KiB pages + 32-page slabs they replaced:
        # > 100x).
        from repro.core.config import PAPER_CONFIGS
        from repro.workloads.random_access import (
            RandomAccessConfig,
            run_random_access,
        )

        result = run_random_access(
            PAPER_CONFIGS["8-Link; 16-Bank; 8GB"],
            RandomAccessConfig(num_requests=1 << 12, seed=1),
            keep_sim=True,
        )
        banks = [
            b for d in result.sim.devices for v in d.vaults for b in v.banks
        ]
        touched = sum(b.touched_bytes for b in banks)
        resident = sum(b.resident_bytes for b in banks)
        assert touched > 0 and resident <= 6 * touched


class TestAtomics:
    def test_add16_returns_old_value(self, bank):
        bank.write(0, [10, 20])
        old = bank.atomic_add16(0, [1, 2])
        assert old == [10, 20]
        assert bank.read(0, 16) == [11, 22]

    def test_add16_wraps_64_bits(self, bank):
        bank.write(0, [(1 << 64) - 1, 0])
        bank.atomic_add16(0, [1, 0])
        assert bank.read(0, 16) == [0, 0]

    def test_add16_operand_arity(self, bank):
        with pytest.raises(ValueError):
            bank.atomic_add16(0, [1])

    def test_2add8_counts_as_atomic(self, bank):
        bank.atomic_2add8(0, [3, 4])
        assert bank.atomics == 1
        assert bank.read(0, 16) == [3, 4]


class TestBusyWindow:
    def test_busy_tracking(self, bank):
        assert not bank.is_busy(0)
        bank.occupy(cycle=10, busy_cycles=3)
        assert bank.is_busy(10)
        assert bank.is_busy(12)
        assert not bank.is_busy(13)

    def test_zero_busy_cycles(self, bank):
        bank.occupy(cycle=5, busy_cycles=0)
        assert not bank.is_busy(5)


class TestAccounting:
    def test_access_counters(self, bank):
        bank.write(0, [1, 2])
        bank.read(0, 16)
        bank.atomic_add16(0, [1, 1])
        assert (bank.reads, bank.writes, bank.atomics) == (1, 1, 1)
        assert bank.total_accesses == 3

    def test_column_fetch_counting(self, bank):
        """Paper III.A: accesses are performed in 32-byte column fetches."""
        bank.read(0, 64)
        assert bank.column_fetches == 64 // COLUMN_FETCH_BYTES
        bank.read(0, 16)  # one atom still needs a full fetch
        assert bank.column_fetches == 2 + 1

    def test_dram_slices_participate(self, bank):
        bank.read(0, 16)
        assert all(d.accesses == 1 for d in bank.drams)

    def test_reset(self, bank):
        bank.write(0, [1, 2])
        bank.occupy(0, 10)
        bank.reset()
        assert bank.read(0, 16) == [0, 0]
        assert bank.writes == 0  # reset cleared, the read above re-counts
        assert not bank.is_busy(0)
