"""Tests for the shadow-model verification harness (repro.verification)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.simulator import HMCSim
from repro.host.host import Host, LinkPolicy
from repro.packets.commands import CMD
from repro.packets.packet import build_memrequest, build_response
from repro.topology.builder import build_simple
from repro.verification.shadow import CheckFailure, CheckingHost, ShadowMemory


def mk_checker(**kw):
    sim = build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2))
    return sim, CheckingHost(sim, **kw)


class TestShadowMemory:
    def test_unwritten_reads_zero(self):
        s = ShadowMemory(1 << 20)
        assert s.read(0, 32) == [0, 0, 0, 0]

    def test_write_read(self):
        s = ShadowMemory(1 << 20)
        s.write(0x40, [1, 2, 3, 4])
        assert s.read(0x40, 32) == [1, 2, 3, 4]

    def test_add16(self):
        s = ShadowMemory(1 << 20)
        s.write(0, [10, 20])
        assert s.add16(0, [5, 5]) == [10, 20]
        assert s.read(0, 16) == [15, 25]

    def test_alignment_and_bounds(self):
        s = ShadowMemory(64)
        with pytest.raises(ValueError):
            s.read(8, 16)
        with pytest.raises(ValueError):
            s.read(64, 16)
        with pytest.raises(ValueError):
            ShadowMemory(17)

    def test_masks_to_64_bits(self):
        s = ShadowMemory(1 << 10)
        s.write(0, [1 << 64, 0])
        assert s.read(0, 16) == [0, 0]


class TestCheckingHost:
    def test_clean_write_read_passes(self):
        sim, ch = mk_checker()
        stats = ch.run(
            [(CMD.WR64, i * 64, [i + 1] * 8) for i in range(32)]
            + [(CMD.RD64, i * 64, None) for i in range(32)]
        )
        assert stats.writes_shadowed == 32
        assert stats.reads_checked == 32
        assert stats.mismatches == 0

    def test_unwritten_reads_checked_as_zero(self):
        sim, ch = mk_checker()
        stats = ch.run([(CMD.RD64, i * 4096, None) for i in range(16)])
        assert stats.reads_checked == 16
        assert stats.mismatches == 0

    def test_posted_writes_shadowed(self):
        sim, ch = mk_checker()
        stats = ch.run(
            [(CMD.P_WR64, 0x100, [7] * 8, )]
            + [(CMD.RD64, 0x100, None)]
        )
        assert stats.writes_shadowed == 1
        assert stats.mismatches == 0

    def test_atomic_old_value_checked(self):
        sim, ch = mk_checker()
        # Serialise same-address atomics (ordering caveat in module docs).
        ch.run([(CMD.WR16, 0x40, [100, 200])])
        ch.run([(CMD.ADD16, 0x40, [1, 2])])
        ch.run([(CMD.ADD16, 0x40, [1, 2])])
        stats = ch.run([(CMD.RD16, 0x40, None)])
        assert stats.atomics_shadowed == 2
        assert stats.mismatches == 0
        assert ch.shadow.read(0x40, 16) == [102, 204]

    def test_detects_injected_storage_corruption(self):
        """Corrupt a bank behind the simulator's back: the checker must
        catch the read mismatch — proof it actually checks."""
        sim, ch = mk_checker()
        ch.run([(CMD.WR64, 0x200, [5] * 8)])
        dev = sim.devices[0]
        d = dev.amap.decode(0x200)
        rel = d.dram * dev.amap.block_size + d.offset
        dev.vaults[d.vault].banks[d.bank].write(rel, [6] * 8)  # corruption
        with pytest.raises(CheckFailure):
            ch.run([(CMD.RD64, 0x200, None)])

    def test_mismatch_recorded_when_not_raising(self):
        sim, ch = mk_checker(raise_on_mismatch=False)
        ch.run([(CMD.WR64, 0x200, [5] * 8)])
        dev = sim.devices[0]
        d = dev.amap.decode(0x200)
        rel = d.dram * dev.amap.block_size + d.offset
        dev.vaults[d.vault].banks[d.bank].write(rel, [9] * 8)
        stats = ch.run([(CMD.RD64, 0x200, None)])
        assert stats.mismatches == 1

    def test_error_response_counts_as_mismatch(self):
        sim, ch = mk_checker(raise_on_mismatch=False)
        ch.cub = 5  # unroutable cube
        stats = ch.run([(CMD.RD64, 0x0, None)])
        assert stats.mismatches == 1

    def test_unknown_tag_is_reported(self):
        """A response no request of this host is waiting for fails the
        check; the host's own drain counts it as an error."""
        sim, ch = mk_checker()
        ch.run([(CMD.WR64, 0x40, [1] * 8)])
        stray = build_response(build_memrequest(0, 0x40, 77, CMD.RD64, link=0))
        sim.devices[0].xbars[0].rsp.push(stray)
        with pytest.raises(CheckFailure, match="unknown tag 77"):
            ch.drain_responses()
        assert ch.errors == 1 and ch.outstanding == 0


#: The mixed program of the first pinned run: writes, posted writes and
#: atomics, then reads of all of them.
_PROGRAM = (
    [(CMD.WR64, i * 64, [i + 1] * 8) for i in range(64)]
    + [(CMD.P_WR32, 0x8000 + i * 64, [i, i + 1, i + 2, i + 3]) for i in range(16)]
    + [(CMD.ADD16, 0x10000 + i * 64, [i, 2 * i]) for i in range(16)]
    + [(CMD.RD64, i * 64, None) for i in range(64)]
    + [(CMD.RD32, 0x8000 + i * 64, None) for i in range(16)]
    + [(CMD.RD16, 0x10000 + i * 64, None) for i in range(16)]
)


def _sim_stats(cycles, sent, received, processed, conflicts):
    return {"cycles": cycles, "packets_sent": sent,
            "packets_received": received, "send_stalls": 0,
            "dropped_responses": 0, "bank_conflicts": conflicts,
            "xbar_stalls": 0, "latency_penalties": 0,
            "requests_processed": processed}


@pytest.mark.parametrize("runs, cub, corrupt, stats, sim_stats", [
    ([_PROGRAM], None, None, (80, 16, 112, 0), _sim_stats(57, 192, 176, 192, 2304)),
    ([[(CMD.WR64, 0x200, [5] * 8)], [(CMD.RD64, 0x200, None)]], None, 0x200,
     (1, 0, 1, 1), _sim_stats(13, 2, 2, 2, 9)),
    ([[(CMD.RD64, 0x0, None), (CMD.WR64, 0x40, [1] * 8)]], 5, None,
     (1, 0, 0, 2), _sim_stats(2, 2, 2, 0, 0)),
], ids=["program", "mismatch", "error-responses"])
def test_checking_runs_are_pinned(runs, cub, corrupt, stats, sim_stats):
    """CheckStats (writes, atomics, reads checked, mismatches) and
    ``sim.stats()`` equal what the hand-copied checking loop reported
    before CheckingHost became a Host subclass on ``Host.run``."""
    sim, ch = mk_checker(raise_on_mismatch=False)
    if cub is not None:
        ch.cub = cub
    for i, requests in enumerate(runs):
        if corrupt is not None and i == 1:
            dev = sim.devices[0]
            d = dev.amap.decode(corrupt)
            rel = d.dram * dev.amap.block_size + d.offset
            dev.vaults[d.vault].banks[d.bank].write(rel, [9] * 8)
        got = ch.run(requests)
    assert (got.writes_shadowed, got.atomics_shadowed, got.reads_checked,
            got.mismatches) == stats
    assert sim.stats() == sim_stats


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["w", "r", "a"]),
            st.integers(0, 255),           # distinct 64-byte block index
            st.integers(0, (1 << 32) - 1),  # data seed
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_programs_verify_clean(ops):
    """Random write/read/atomic programs (serialised per step) always
    verify against the golden model — end-to-end functional equivalence
    of the cycle simulator and the reference semantics."""
    sim, ch = mk_checker()
    for op, block, data in ops:
        addr = block * 64
        if op == "w":
            ch.run([(CMD.WR64, addr, [data] * 8)])
        elif op == "a":
            ch.run([(CMD.ADD16, addr, [data, 1])])
        else:
            ch.run([(CMD.RD64, addr, None)])
    assert ch.stats.mismatches == 0
