"""Property-based tests for address mapping bijectivity (hypothesis)."""

import collections
import itertools

from hypothesis import given, settings, strategies as st

from repro.addressing.address_map import AddressMap, AddressMapMode

GB = 1 << 30

configs = st.builds(
    dict,
    num_vaults=st.sampled_from([16, 32]),
    num_banks=st.sampled_from([8, 16]),
    block_size=st.sampled_from([32, 64, 128]),
    capacity_bytes=st.sampled_from([1 * GB, 2 * GB, 4 * GB]),
    mode=st.sampled_from(list(AddressMapMode)),
)


@given(cfg=configs, data=st.data())
@settings(max_examples=200)
def test_decode_encode_is_identity(cfg, data):
    m = AddressMap(**cfg)
    addr = data.draw(st.integers(0, m.capacity_bytes - 1))
    d = m.decode(addr)
    assert m.encode(d.vault, d.bank, d.dram, d.offset) == addr


@given(cfg=configs, data=st.data())
@settings(max_examples=200)
def test_encode_decode_is_identity(cfg, data):
    m = AddressMap(**cfg)
    vault = data.draw(st.integers(0, m.num_vaults - 1))
    bank = data.draw(st.integers(0, m.num_banks - 1))
    dram = data.draw(st.integers(0, max(0, (1 << m.dram_bits) - 1)))
    offset = data.draw(st.integers(0, m.block_size - 1))
    addr = m.encode(vault, bank, dram, offset)
    d = m.decode(addr)
    assert (d.vault, d.bank, d.dram, d.offset) == (vault, bank, dram, offset)


@given(cfg=configs, data=st.data())
@settings(max_examples=100)
def test_fields_stay_in_range(cfg, data):
    m = AddressMap(**cfg)
    addr = data.draw(st.integers(0, m.capacity_bytes - 1))
    d = m.decode(addr)
    assert 0 <= d.vault < m.num_vaults
    assert 0 <= d.bank < m.num_banks
    assert 0 <= d.offset < m.block_size
    assert 0 <= d.dram < max(1, 1 << m.dram_bits)


@given(
    order=st.permutations(["vault", "bank", "dram"]),
    data=st.data(),
)
@settings(max_examples=60)
def test_custom_orders_are_bijective(order, data):
    m = AddressMap(
        num_vaults=16, num_banks=8, block_size=64,
        capacity_bytes=2 * GB, field_order=order,
    )
    addr = data.draw(st.integers(0, m.capacity_bytes - 1))
    d = m.decode(addr)
    assert m.encode(*d.as_tuple()) == addr


def test_all_modes_partition_address_space_distinctly():
    """Different map modes place at least some addresses differently —
    they are genuinely different layouts, not aliases."""
    maps = {
        mode: AddressMap(16, 8, 64, 2 * GB, mode=mode) for mode in AddressMapMode
    }
    probe = [i * 64 for i in range(1, 64)]
    decodes = {
        mode: tuple(m.decode(a).as_tuple() for a in probe) for mode, m in maps.items()
    }
    for a, b in itertools.combinations(decodes.values(), 2):
        assert a != b


@given(cfg=configs, data=st.data())
@settings(max_examples=100)
def test_a_unit_stride_sweep_spreads_uniformly_over_the_vaults(cfg, data):
    """The low-interleave maps' reason to exist (§III.B): one stripe of
    ``vaults x banks`` consecutive blocks, from any stripe, visits every
    (vault, bank) pair once — so every vault ``banks`` times."""
    m = AddressMap(**{**cfg, "mode": data.draw(st.sampled_from(
        [AddressMapMode.VAULT_BANK, AddressMapMode.BANK_VAULT]))})
    stripe = m.num_vaults * m.num_banks
    first = data.draw(st.integers(0, m.capacity_bytes // m.block_size // stripe - 1))
    pairs = [m.decode((first * stripe + i) * m.block_size).as_tuple()[:2]
             for i in range(stripe)]
    assert len(set(pairs)) == stripe
    vaults = collections.Counter(vault for vault, _ in pairs)
    assert set(vaults.values()) == {m.num_banks}


@given(cfg=configs)
@settings(max_examples=50)
def test_the_linear_map_conflicts_more_than_the_default_map(cfg):
    """LINEAR keeps a sequential sweep inside one (vault, bank): every
    block after the first lands on the bank the previous one used, where
    the default map never does."""
    default = AddressMap(**{**cfg, "mode": AddressMapMode.VAULT_BANK})
    linear = AddressMap(**{**cfg, "mode": AddressMapMode.LINEAR})
    sweep = [i * default.block_size for i in range(128)]

    def conflicts(m):
        banks = [m.decode(addr).as_tuple()[:2] for addr in sweep]
        return sum(a == b for a, b in zip(banks, banks[1:]))

    assert conflicts(default) == 0
    assert conflicts(linear) > conflicts(default)
