"""Property tests for the flat hot core (hypothesis satellite).

Two invariants:

* the trusted builders (``build_memrequest`` / ``build_response``, which
  bypass ``Packet.__post_init__``) produce a packet observably identical
  to the one the validated ``Packet(...)`` dataclass constructor makes
  from the same fields — and a reply never inherits the link-retry
  sideband stamped onto its request;
* the paged array-backed :class:`~repro.core.bank.Bank` matches a plain
  dict-of-atoms model under arbitrary operation sequences.
"""

from __future__ import annotations

import pickle

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.bank import ATOM_BYTES, ATOM_WORDS, PAGE_ATOMS, Bank
from repro.packets.commands import CMD
from repro.packets.packet import (
    MAX_TAG,
    Packet,
    build_memrequest,
    build_response,
    request_flits,
    response_cmd_for,
    response_flits,
)

_MASK64 = (1 << 64) - 1

#: Request commands the hot path builds (reads, writes, atomics).
_REQ_CMDS = [
    CMD.RD16, CMD.RD64, CMD.RD128,
    CMD.WR16, CMD.WR64, CMD.WR128,
    CMD.BWR, CMD.ADD16, CMD.TWOADD8,
]

_word = st.integers(min_value=0, max_value=_MASK64)


def _request_args():
    """Strategy for (cmd, cub, addr, tag, payload, link) builder args."""
    return st.tuples(
        st.sampled_from(_REQ_CMDS),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=(1 << 20) - 16).map(lambda a: a & ~0xF),
        st.integers(min_value=0, max_value=MAX_TAG),
        st.lists(_word, min_size=0, max_size=16),
        st.integers(min_value=0, max_value=3),
    )


_VISIBLE_FIELDS = (
    "cmd", "cub", "tag", "addr", "payload", "slid", "dinv", "errstat",
    "seq", "rrp", "frp", "rtc", "pb", "num_flits",
    "cls", "is_response", "expects_response", "is_special",
)


def _assert_same_packet(built, validated):
    for name in _VISIBLE_FIELDS:
        assert getattr(built, name) == getattr(validated, name), name
    assert built.encode() == validated.encode()


def _padded(words, need):
    """*words* zero-filled / truncated to *need*, as the builders do."""
    return tuple((list(words) + [0] * need)[:need])


def _validated_response(request, data):
    need = (response_flits(request.cmd) - 1) * 2
    return Packet(
        cmd=response_cmd_for(request.cmd), cub=request.cub, tag=request.tag,
        slid=request.slid, payload=_padded(data, need),
    )


class TestArenaRoundTrip:
    """What the deleted packet pool's round-trip properties protected
    that outlives it: "pooled" is now the trusted builder, "fresh" the
    validated ``Packet(...)`` constructor.  The test ids are unchanged
    so the tier-1 floor keeps tracking them."""

    @given(_request_args())
    @settings(max_examples=60, deadline=None)
    def test_pooled_request_matches_fresh(self, args):
        cmd, cub, addr, tag, payload, link = args
        built = build_memrequest(cub, addr, tag, cmd, payload=payload, link=link)
        need = (request_flits(cmd) - 1) * 2
        validated = Packet(
            cmd=cmd, cub=cub, tag=tag, addr=addr, slid=link,
            payload=_padded(payload, need),
        )
        _assert_same_packet(built, validated)

    @given(_request_args())
    @settings(max_examples=60, deadline=None)
    def test_recycled_record_forgets_previous_life(self, args):
        """A reply forgets its request's in-flight life: the link-retry
        layer stamps FRP/RRP/SEQ/RTC onto requests (packets/flow.py) and
        none of it may leak into the reply."""
        cmd, cub, addr, tag, payload, link = args
        request = build_memrequest(cub, addr, tag, cmd, payload=payload, link=link)
        request.seq, request.frp, request.rrp, request.rtc, request.pb = 3, 9, 5, 2, 1
        request.hops = 4
        request.route_stack.append((0, 0))
        request.injected_at = 123
        reply = build_response(request)
        assert (reply.seq, reply.frp, reply.rrp, reply.rtc, reply.pb) == (0,) * 5
        _assert_same_packet(reply, _validated_response(request, ()))
        assert reply.route_stack == [] and reply.hops == 0
        assert reply.injected_at == -1 and reply.delivered_from is None

    @given(
        st.sampled_from([CMD.RD16, CMD.RD64, CMD.RD128, CMD.ADD16]),
        st.integers(min_value=0, max_value=MAX_TAG),
        st.lists(_word, min_size=0, max_size=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_pooled_reply_matches_fresh(self, cmd, tag, data):
        request = build_memrequest(1, 0x40, tag, cmd)
        built = build_response(request, data or None)
        validated = _validated_response(request, data)
        _assert_same_packet(built, validated)
        assert built.src_cub == request.cub


def _dict_model_ops():
    atoms = st.integers(min_value=0, max_value=63)  # 1 KiB bank = 64 atoms
    return st.lists(
        st.one_of(
            st.tuples(st.just("write"), atoms,
                      st.integers(min_value=1, max_value=4),
                      st.lists(_word, min_size=8, max_size=8)),
            st.tuples(st.just("read"), atoms,
                      st.integers(min_value=1, max_value=4)),
            st.tuples(st.just("bwr"), atoms, st.integers(min_value=0, max_value=1),
                      _word, st.integers(min_value=0, max_value=0xFF)),
            st.tuples(st.just("add16"), atoms, st.lists(_word, min_size=2, max_size=2)),
            st.tuples(st.just("set"), atoms, _word, _word),
        ),
        min_size=1,
        max_size=40,
    )


def _mixed_geometry_ops():
    """WR16/WR64/WR128, RD*, BWR, ADD16 at any atom alignment, aimed at
    the first boundaries of today's pages, of a 4 KiB page, and anywhere."""
    atoms = st.one_of(
        st.integers(min_value=0, max_value=47),
        st.integers(min_value=232, max_value=280),
        st.integers(min_value=0, max_value=4095),
    )
    sizes = st.sampled_from([1, 4, 8])
    return st.lists(
        st.one_of(
            st.tuples(st.just("write"), atoms, sizes,
                      st.lists(_word, min_size=8, max_size=8)),
            st.tuples(st.just("read"), atoms, sizes),
            st.tuples(st.just("bwr"), atoms, st.integers(min_value=0, max_value=1),
                      _word, st.integers(min_value=0, max_value=0xFF)),
            st.tuples(st.just("add16"), atoms, st.lists(_word, min_size=2, max_size=2)),
        ),
        min_size=1,
        max_size=40,
    )


class TestBankMatchesDictModel:
    """Array-backed paged Bank vs a plain dict-of-atoms reference."""

    @given(_dict_model_ops())
    @settings(max_examples=80, deadline=None)
    def test_random_sequences(self, ops):
        # Page size forced small relative to capacity isn't configurable;
        # a 1 KiB bank fits one page, so also run a capacity that spans
        # multiple pages below (test_page_crossing_sequences).
        bank = Bank(0, 64 * ATOM_BYTES)
        model = {}  # atom -> (w0, w1); presence == touched
        for op in ops:
            self._apply(bank, model, op, num_atoms=64)
        assert bank.touched_atoms() == sorted(model)
        for atom in range(64):
            assert bank.atom_words(atom) == model.get(atom, (0, 0))

    @given(_dict_model_ops())
    @settings(max_examples=40, deadline=None)
    def test_page_crossing_sequences(self, ops):
        """Capacity far above one page: ops rescaled to land near page
        boundaries so stitched reads/writes are exercised."""
        # The ops' 64-atom window, placed to straddle a page boundary at
        # any page size: around the page 0/1 boundary when a page is
        # larger than half the window, from atom 0 (several whole pages)
        # when it is smaller.
        base = max(0, PAGE_ATOMS - 32)
        num_atoms = base + 64 + PAGE_ATOMS
        bank = Bank(0, num_atoms * ATOM_BYTES)
        assert bank._page_words == PAGE_ATOMS * ATOM_WORDS
        model = {}
        for op in ops:
            op = (op[0], op[1] + base) + op[2:]
            self._apply(bank, model, op, num_atoms=num_atoms)
        assert bank.touched_atoms() == sorted(model)
        for atom in sorted(model):
            assert bank.atom_words(atom) == model[atom]

    #: 4096 atoms = 16 of the 4 KiB pages older blobs carry, hundreds
    #: of today's.
    _MIXED_ATOMS = 4096

    @staticmethod
    def _bank_with_4k_pages(num_atoms):
        """A bank as an older tree pickled it: 512-word pages."""
        old = Bank(0, num_atoms * ATOM_BYTES)
        old._page_words = 512
        bank = pickle.loads(pickle.dumps(old))
        assert bank._page_words == 512 and bank.resident_bytes == 0
        return bank

    @given(_mixed_geometry_ops(), _mixed_geometry_ops())
    @settings(max_examples=40, deadline=None)
    def test_fresh_and_4k_page_banks_match_the_model(self, before, after):
        """One op sequence on a fresh bank, on a bank unpickled with
        4 KiB pages and on the dict model: equal reads and contents,
        through store doublings, export/import, pickling and reset()."""
        n = self._MIXED_ATOMS
        banks = [Bank(0, n * ATOM_BYTES), self._bank_with_4k_pages(n)]
        # Nine pages at either size: the store doubles 1->2->4->8->16.
        spread = [("set", k * 256, k, k + 1) for k in range(9)]
        for ops in (before, after):
            models = [{}, {}]
            for bank, model in zip(banks, models):
                for op in spread + ops:
                    self._apply(bank, model, op, num_atoms=n)
                assert len(bank._store) >= 16
            assert models[0] == models[1]
            for i, bank in enumerate(banks):
                for probe in (
                    bank,
                    pickle.loads(pickle.dumps(bank)),
                    self._reimported(bank),
                ):
                    assert probe._page_words == bank._page_words
                    assert probe.touched_atoms() == sorted(models[i])
                    assert probe.touched_bytes == ATOM_BYTES * len(models[i])
                    for atom in models[i]:
                        assert probe.atom_words(atom) == models[i][atom]
                    assert probe.atom_words(n - 1) == models[i].get(
                        n - 1, (0, 0)
                    )
                bank.reset()
                assert bank.resident_bytes == 0 and bank.touched_atoms() == []
        assert [b._page_words for b in banks] == [PAGE_ATOMS * ATOM_WORDS, 512]

    @staticmethod
    def _reimported(bank):
        clone = pickle.loads(pickle.dumps(bank))
        clone.reset()
        clone.import_storage(bank.export_storage())
        return clone

    @staticmethod
    def _apply(bank, model, op, num_atoms):
        kind, atom = op[0], op[1]
        if kind == "write":
            n = min(op[2], num_atoms - atom)
            words = (op[3] * 2)[: n * ATOM_WORDS]
            bank.write(atom * ATOM_BYTES, list(words))
            for i in range(n):
                model[atom + i] = (words[2 * i] & _MASK64,
                                   words[2 * i + 1] & _MASK64)
        elif kind == "read":
            n = min(op[2], num_atoms - atom)
            got = bank.read(atom * ATOM_BYTES, n * ATOM_BYTES)
            want = []
            for i in range(n):
                want.extend(model.get(atom + i, (0, 0)))
            assert got == want
        elif kind == "bwr":
            _, _, half, data, mask = op
            bank.masked_write(atom * ATOM_BYTES + 8 * half, data, mask)
            old = list(model.get(atom, (0, 0)))
            word = old[half]
            for b in range(8):
                if mask & (1 << b):
                    shift = 8 * b
                    word = (word & ~(0xFF << shift)) | (data & (0xFF << shift))
            old[half] = word & _MASK64
            model[atom] = tuple(old)
        elif kind == "add16":
            _, _, operands = op
            old = model.get(atom, (0, 0))
            got = bank.atomic_add16(atom * ATOM_BYTES, list(operands))
            assert got == list(old)
            model[atom] = ((old[0] + operands[0]) & _MASK64,
                           (old[1] + operands[1]) & _MASK64)
        elif kind == "set":
            _, _, w0, w1 = op
            bank.set_atom_words(atom, w0, w1)
            model[atom] = (w0 & _MASK64, w1 & _MASK64)
