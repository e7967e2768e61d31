"""Unit tests for the BER codec, including known-answer wire vectors."""

import pytest

from repro.snmp import ber
from repro.snmp.oid import Oid


class TestLength:
    @pytest.mark.parametrize(
        "length,encoded",
        [
            (0, b"\x00"),
            (127, b"\x7f"),
            (128, b"\x81\x80"),
            (255, b"\x81\xff"),
            (256, b"\x82\x01\x00"),
            (65536, b"\x83\x01\x00\x00"),
        ],
    )
    def test_known_encodings(self, length, encoded):
        assert ber.encode_length(length) == encoded
        decoded, offset = ber.decode_length(encoded, 0)
        assert decoded == length
        assert offset == len(encoded)

    def test_negative_rejected(self):
        with pytest.raises(ber.BerError):
            ber.encode_length(-1)

    def test_indefinite_form_rejected(self):
        with pytest.raises(ber.BerError):
            ber.decode_length(b"\x80", 0)

    def test_truncated_long_form(self):
        with pytest.raises(ber.BerError):
            ber.decode_length(b"\x82\x01", 0)

    def test_truncated_empty(self):
        with pytest.raises(ber.BerError):
            ber.decode_length(b"", 0)


class TestInteger:
    @pytest.mark.parametrize(
        "value,content",
        [
            (0, b"\x00"),
            (1, b"\x01"),
            (127, b"\x7f"),
            (128, b"\x00\x80"),  # needs a sign pad
            (256, b"\x01\x00"),
            (-1, b"\xff"),
            (-129, b"\xff\x7f"),
        ],
    )
    def test_known_answer(self, value, content):
        assert ber.encode_integer_content(value) == content
        assert ber.decode_integer_content(content) == value

    def test_roundtrip_extremes(self):
        for value in (2**31 - 1, -(2**31), 2**63, -(2**63)):
            assert ber.decode_integer_content(ber.encode_integer_content(value)) == value

    def test_empty_content_rejected(self):
        with pytest.raises(ber.BerError):
            ber.decode_integer_content(b"")

    def test_full_tlv(self):
        data = ber.encode_integer(300)
        tag, content, end = ber.decode_tlv(data)
        assert tag == ber.TAG_INTEGER
        assert ber.decode_integer_content(content) == 300
        assert end == len(data)


class TestUnsigned:
    def test_high_bit_gets_pad(self):
        content = ber.encode_unsigned_content(0x80000000, 32)
        assert content == b"\x00\x80\x00\x00\x00"
        assert ber.decode_unsigned_content(content, 32) == 0x80000000

    def test_counter_wrap_boundary(self):
        top = (1 << 32) - 1
        content = ber.encode_unsigned_content(top, 32)
        assert ber.decode_unsigned_content(content, 32) == top

    def test_out_of_range_rejected(self):
        with pytest.raises(ber.BerError):
            ber.encode_unsigned_content(1 << 32, 32)
        with pytest.raises(ber.BerError):
            ber.encode_unsigned_content(-1, 32)

    def test_oversized_decode_rejected(self):
        with pytest.raises(ber.BerError):
            ber.decode_unsigned_content(b"\x01" * 6, 32)

    def test_counter64(self):
        value = (1 << 64) - 1
        content = ber.encode_unsigned_content(value, 64)
        assert ber.decode_unsigned_content(content, 64) == value


class TestOid:
    def test_known_answer_sysuptime(self):
        """RFC 1213 sysUpTime.0 = 1.3.6.1.2.1.1.3.0 -> 2b 06 01 02 01 01 03 00."""
        content = ber.encode_oid_content(Oid("1.3.6.1.2.1.1.3.0"))
        assert content == bytes.fromhex("2b06010201010300")
        assert ber.decode_oid_content(content) == Oid("1.3.6.1.2.1.1.3.0")

    def test_multibyte_arc(self):
        oid = Oid("1.3.6.1.4.1.99999.1")
        decoded = ber.decode_oid_content(ber.encode_oid_content(oid))
        assert decoded == oid

    def test_large_second_arc_under_root_2(self):
        """X.690: 2.x allows x > 39; the first subid goes multi-byte."""
        for text in ("2.999", "2.40", "2.16383"):
            oid = Oid(text)
            assert ber.decode_oid_content(ber.encode_oid_content(oid)) == oid

    def test_single_arc_rejected(self):
        with pytest.raises(ber.BerError):
            ber.encode_oid_content(Oid("1"))

    def test_invalid_leading_arcs(self):
        with pytest.raises(ber.BerError):
            ber.encode_oid_content(Oid("3.1"))
        with pytest.raises(ber.BerError):
            ber.encode_oid_content(Oid("1.40"))

    def test_truncated_base128_rejected(self):
        # 0x2b then a continuation byte with nothing after it.
        with pytest.raises(ber.BerError):
            ber.decode_oid_content(b"\x2b\x87")

    def test_empty_rejected(self):
        with pytest.raises(ber.BerError):
            ber.decode_oid_content(b"")


class TestTlv:
    def test_sequence_roundtrip(self):
        seq = ber.encode_sequence(ber.encode_integer(1), ber.encode_tlv(ber.TAG_NULL, b""))
        content, end = ber.decode_sequence(seq)
        assert end == len(seq)
        tag, c, pos = ber.decode_tlv(content)
        assert tag == ber.TAG_INTEGER

    def test_wrong_tag_raises(self):
        with pytest.raises(ber.BerError):
            ber.decode_sequence(ber.encode_integer(1))

    def test_truncated_content(self):
        data = bytes([ber.TAG_OCTET_STRING, 10]) + b"short"
        with pytest.raises(ber.BerError):
            ber.decode_tlv(data)

    def test_empty_input(self):
        with pytest.raises(ber.BerError):
            ber.decode_tlv(b"")

    def test_octet_string(self):
        data = ber.encode_octet_string(b"public")
        tag, content, _ = ber.decode_tlv(data)
        assert (tag, content) == (ber.TAG_OCTET_STRING, b"public")
