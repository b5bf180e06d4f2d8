"""Unit tests for packet objects and bit packing (repro.packets.packet)."""

import pytest

from repro.core.errors import StallError
from repro.core.simulator import HMCSim
from repro.packets.commands import CMD, request_flits
from repro.packets.packet import (
    ADRS_BITS,
    ErrStat,
    MAX_ADRS,
    MAX_CUB,
    MAX_TAG,
    Packet,
    PacketDecodeError,
    build_memrequest,
    build_response,
    decode_header,
    decode_tail,
    encode_request_header,
    encode_request_tail,
    encode_response_header,
    encode_response_tail,
)


class TestHeaderPacking:
    def test_request_header_round_trip(self):
        w = encode_request_header(CMD.RD64, cub=3, tag=257, addr=0x2_FFFF_FFF0, lng=1)
        h = decode_header(w)
        assert h["cmd"] is CMD.RD64
        assert h["cub"] == 3
        assert h["tag"] == 257
        assert h["addr"] == 0x2_FFFF_FFF0
        assert h["lng"] == h["dln"] == 1

    def test_address_field_is_34_bits(self):
        assert ADRS_BITS == 34
        assert MAX_ADRS == (1 << 34) - 1
        w = encode_request_header(CMD.RD16, 0, 0, MAX_ADRS, 1)
        assert decode_header(w)["addr"] == MAX_ADRS

    def test_tag_field_is_9_bits(self):
        assert MAX_TAG == 511
        with pytest.raises(ValueError):
            encode_request_header(CMD.RD16, 0, 512, 0, 1)

    def test_cub_field_is_3_bits(self):
        assert MAX_CUB == 7
        with pytest.raises(ValueError):
            encode_request_header(CMD.RD16, 8, 0, 0, 1)

    def test_lng_bounds(self):
        with pytest.raises(ValueError):
            encode_request_header(CMD.RD16, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            encode_request_header(CMD.RD16, 0, 0, 0, 10)

    def test_response_header_round_trip(self):
        w = encode_response_header(CMD.RD_RS, cub=2, tag=33, slid=5, lng=5)
        h = decode_header(w)
        assert h["cmd"] is CMD.RD_RS
        assert h["slid"] == 5
        assert h["tag"] == 33
        assert h["addr"] == 0  # responses carry no address

    def test_unknown_cmd_raises(self):
        with pytest.raises(PacketDecodeError):
            decode_header(0x3F)  # CMD=0x3F unassigned


class TestTailPacking:
    def test_request_tail_round_trip(self):
        w = encode_request_tail(rrp=0xAB, frp=0xCD, seq=5, pb=1, slid=3, rtc=17, crc=0xDEADBEEF)
        t = decode_tail(w, response=False)
        assert t["rrp"] == 0xAB
        assert t["frp"] == 0xCD
        assert t["seq"] == 5
        assert t["pb"] == 1
        assert t["slid"] == 3
        assert t["rtc"] == 17
        assert t["crc"] == 0xDEADBEEF

    def test_response_tail_round_trip(self):
        w = encode_response_tail(rrp=1, frp=2, seq=3, dinv=1, errstat=int(ErrStat.UNROUTABLE), rtc=9, crc=42)
        t = decode_tail(w, response=True)
        assert t["dinv"] == 1
        assert t["errstat"] == int(ErrStat.UNROUTABLE)
        assert t["rtc"] == 9
        assert t["crc"] == 42

    def test_field_range_enforcement(self):
        with pytest.raises(ValueError):
            encode_request_tail(rrp=256)
        with pytest.raises(ValueError):
            encode_request_tail(seq=8)
        with pytest.raises(ValueError):
            encode_response_tail(errstat=128)


class TestPacketObject:
    def test_payload_must_match_command_flits(self):
        with pytest.raises(ValueError):
            Packet(cmd=CMD.WR64, payload=(1, 2))  # needs 8 words

    def test_payload_must_be_whole_flits(self):
        with pytest.raises(ValueError):
            Packet(cmd=CMD.WR16, payload=(1,))

    def test_flow_packet_is_one_flit(self):
        assert Packet(cmd=CMD.NULL).num_flits == 1

    def test_read_request_is_one_flit_any_size(self):
        for c in (CMD.RD16, CMD.RD64, CMD.RD128):
            assert Packet(cmd=c).num_flits == 1

    def test_write_flits(self):
        pkt = Packet(cmd=CMD.WR64, payload=tuple(range(8)))
        assert pkt.num_flits == 5
        assert pkt.data_bytes == 64

    def test_serials_are_taken_on_entering_a_simulation(self):
        a = Packet(cmd=CMD.RD16)
        b = Packet(cmd=CMD.RD16)
        assert a.serial == b.serial == -1
        sim = HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2,
                     xbar_depth=1)
        sim.attach_host(0, 0)
        sim.send(a)
        for _ in range(2):  # b stalls on the full queue, and keeps its number
            with pytest.raises(StallError):
                sim.send(b)
        assert (a.serial, b.serial, sim.tracer.next_serial) == (0, 1, 2)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Packet(cmd=CMD.RD16, tag=512)
        with pytest.raises(ValueError):
            Packet(cmd=CMD.RD16, addr=1 << 34)
        with pytest.raises(ValueError):
            Packet(cmd=CMD.RD16, cub=8)


class TestEncodeDecode:
    def test_word_count_is_two_per_flit(self):
        pkt = Packet(cmd=CMD.WR32, payload=(1, 2, 3, 4))
        words = pkt.encode()
        assert len(words) == 2 * pkt.num_flits

    def test_round_trip_request(self):
        pkt = build_memrequest(cub=1, addr=0xABC0, tag=7, cmd=CMD.WR64,
                               payload=list(range(8)), link=2)
        out = Packet.decode(pkt.encode())
        assert out.cmd is pkt.cmd
        assert out.addr == pkt.addr
        assert out.tag == pkt.tag
        assert out.cub == pkt.cub
        assert out.payload == pkt.payload
        assert out.slid == 2

    def test_round_trip_response(self):
        req = build_memrequest(0, 0x40, 9, CMD.RD32, link=1)
        rsp = build_response(req, data=[11, 22, 33, 44])
        out = Packet.decode(rsp.encode())
        assert out.cmd is CMD.RD_RS
        assert out.tag == 9
        assert out.slid == 1
        assert out.payload == (11, 22, 33, 44)

    def test_crc_is_checked(self):
        words = build_memrequest(0, 0, 0, CMD.RD16).encode()
        words[0] ^= 1 << 30  # corrupt a header bit
        with pytest.raises(PacketDecodeError):
            Packet.decode(words)

    def test_crc_check_can_be_skipped(self):
        words = build_memrequest(0, 0x10, 0, CMD.RD16).encode()
        words[-1] ^= 1 << 63  # corrupt the CRC itself
        pkt = Packet.decode(words, check_crc=False)
        assert pkt.cmd is CMD.RD16

    def test_odd_word_count_rejected(self):
        with pytest.raises(PacketDecodeError):
            Packet.decode([1, 2, 3])

    def test_lng_mismatch_rejected(self):
        # Hand-build a header claiming 2 FLITs but provide 1.
        head = encode_request_header(CMD.WR16, 0, 0, 0, 2)
        tail = encode_request_tail()
        with pytest.raises(PacketDecodeError):
            Packet.decode([head, tail], check_crc=False)

    def test_lng_dln_mismatch_rejected(self):
        head = encode_request_header(CMD.RD16, 0, 0, 0, 1)
        # Corrupt DLN only (bits 11..14).
        head ^= 1 << 11
        tail = encode_request_tail()
        with pytest.raises(PacketDecodeError):
            Packet.decode([head, tail], check_crc=False)


class TestBuilders:
    def test_build_memrequest_pads_payload(self):
        pkt = build_memrequest(0, 0, 0, CMD.WR64, payload=[1, 2])
        assert len(pkt.payload) == 8
        assert pkt.payload[:2] == (1, 2)
        assert all(w == 0 for w in pkt.payload[2:])

    def test_build_memrequest_truncates_payload(self):
        pkt = build_memrequest(0, 0, 0, CMD.WR16, payload=list(range(10)))
        assert pkt.payload == (0, 1)

    def test_build_memrequest_rejects_response_cmd(self):
        with pytest.raises(ValueError):
            build_memrequest(0, 0, 0, CMD.RD_RS)

    def test_build_response_sizes(self):
        req = build_memrequest(0, 0, 3, CMD.RD64)
        rsp = build_response(req, data=list(range(8)))
        assert rsp.num_flits == 5
        wr = build_memrequest(0, 0, 4, CMD.WR64, payload=[0] * 8)
        assert build_response(wr).num_flits == 1

    def test_build_response_posted_raises(self):
        req = build_memrequest(0, 0, 0, CMD.P_WR64)
        with pytest.raises(ValueError):
            build_response(req)

    def test_error_response(self):
        req = build_memrequest(2, 0x99, 5, CMD.RD16, link=3)
        rsp = build_response(req, errstat=ErrStat.UNROUTABLE)
        assert rsp.cmd is CMD.ERROR
        assert rsp.errstat is ErrStat.UNROUTABLE
        assert rsp.dinv == 1
        assert rsp.tag == 5
        assert rsp.num_flits == 1

    def test_error_response_even_for_posted(self):
        # Error generation is allowed for posted commands too (callers
        # guard); ERROR carries the tag regardless.
        req = build_memrequest(0, 0, 0, CMD.P_WR16, payload=[1, 2])
        rsp = build_response(req, errstat=ErrStat.INVALID_ADDRESS)
        assert rsp.cmd is CMD.ERROR


@pytest.mark.parametrize("cmd", [c for c in CMD if c.name not in
                                 ("RD_RS", "WR_RS", "MD_RD_RS", "MD_WR_RS", "ERROR")])
def test_every_request_command_encodes_and_decodes(cmd):
    """Paper IV.5: all device packet variations are supported."""
    flits = request_flits(cmd)
    payload = list(range((flits - 1) * 2))
    pkt = build_memrequest(cub=1, addr=0x1230, tag=100, cmd=cmd, payload=payload, link=1)
    out = Packet.decode(pkt.encode())
    assert out.cmd is cmd
    assert out.num_flits == flits
