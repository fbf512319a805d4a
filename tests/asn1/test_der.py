from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from repro.asn1 import der


class TestPrimitives:
    def test_null_round_trip(self):
        assert der.decode_der(der.encode_der(der.Null())) == der.Null()

    def test_boolean_true(self):
        assert der.encode_der(True) == b"\x01\x01\xff"
        assert der.decode_der(b"\x01\x01\xff") is True

    def test_boolean_false(self):
        assert der.decode_der(der.encode_der(False)) is False

    def test_integer_zero(self):
        assert der.encode_der(0) == b"\x02\x01\x00"

    def test_integer_positive_high_bit_gets_leading_zero(self):
        assert der.encode_der(128) == b"\x02\x02\x00\x80"

    def test_integer_negative(self):
        assert der.encode_der(-1) == b"\x02\x01\xff"
        assert der.decode_der(b"\x02\x01\xff") == -1

    def test_non_minimal_integer_rejected(self):
        with pytest.raises(der.Asn1Error):
            der.decode_der(b"\x02\x02\x00\x01")

    def test_octet_string(self):
        value = der.OctetString(b"\x01\x02")
        assert der.decode_der(der.encode_der(value)) == value

    def test_utf8_string(self):
        value = der.Utf8String("grüße")
        assert der.decode_der(der.encode_der(value)) == value

    def test_bit_string(self):
        value = der.BitString(b"\xaa\xbb")
        decoded = der.decode_der(der.encode_der(value))
        assert decoded.data == b"\xaa\xbb"
        assert decoded.unused_bits == 0


class TestOid:
    def test_rsa_oid_known_encoding(self):
        # 1.2.840.113549.1.1.1 has a well-known DER encoding.
        encoded = der.encode_der(der.ObjectIdentifier("1.2.840.113549.1.1.1"))
        assert encoded == bytes.fromhex("06092a864886f70d010101")

    def test_round_trip(self):
        oid = der.ObjectIdentifier("2.5.29.17")
        assert der.decode_der(der.encode_der(oid)) == oid

    def test_invalid_oid_rejected(self):
        with pytest.raises(der.Asn1Error):
            der.ObjectIdentifier("banana")

    @given(
        st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=6)
    )
    def test_arbitrary_arcs_round_trip(self, tail):
        dotted = "1.3." + ".".join(str(a) for a in tail)
        oid = der.ObjectIdentifier(dotted)
        assert der.decode_der(der.encode_der(oid)) == oid


class TestStructures:
    def test_sequence_round_trip(self):
        value = der.Sequence([1, der.Utf8String("x"), der.Null()])
        assert der.decode_der(der.encode_der(value)) == value

    def test_nested_sequences(self):
        value = der.Sequence([der.Sequence([1, 2]), der.Sequence([])])
        assert der.decode_der(der.encode_der(value)) == value

    def test_set_of_sorts_encodings(self):
        # DER requires SET OF elements in ascending encoded order.
        encoded = der.encode_der(der.SetOf([500, 1]))
        decoded = der.decode_der(encoded)
        assert decoded.items == (1, 500)

    def test_context_tag_constructed(self):
        value = der.ContextTag(0, inner=2)
        decoded = der.decode_der(der.encode_der(value))
        assert decoded.number == 0
        assert decoded.inner == 2

    def test_context_tag_primitive(self):
        value = der.ContextTag(6, primitive_data=b"urn:x")
        decoded = der.decode_der(der.encode_der(value))
        assert decoded.primitive_data == b"urn:x"

    def test_utc_time_round_trip(self):
        moment = datetime(2020, 8, 30, 11, 22, 33, tzinfo=timezone.utc)
        decoded = der.decode_der(der.encode_der(der.UtcTime(moment)))
        assert decoded.moment == moment

    def test_utc_time_pre_2000(self):
        moment = datetime(1999, 1, 2, 3, 4, 5, tzinfo=timezone.utc)
        decoded = der.decode_der(der.encode_der(der.UtcTime(moment)))
        assert decoded.moment == moment

    @pytest.mark.parametrize("year", [1949, 2050])
    def test_utc_time_refuses_a_year_it_cannot_represent(self, year):
        """Two digits cover 1950–2049 (RFC 5280 §4.1.2.5.1); any other
        year would read back a century off."""
        moment = datetime(year, 1, 1, tzinfo=timezone.utc)
        with pytest.raises(der.Asn1Error):
            der.encode_der(der.UtcTime(moment))

    def test_generalized_time_year_5_round_trip(self):
        moment = datetime(5, 1, 1, tzinfo=timezone.utc)
        encoded = der.encode_der(der.GeneralizedTime(moment))
        assert encoded[2:] == b"00050101000000Z"
        assert der.decode_der(encoded).moment == moment


class TestMalformedInput:
    def test_trailing_bytes_rejected(self):
        encoded = der.encode_der(der.Null()) + b"\x00"
        with pytest.raises(der.Asn1Error):
            der.decode_der(encoded)

    def test_trailing_bytes_allowed_when_requested(self):
        encoded = der.encode_der(5) + b"junk"
        value, consumed = der.decode_der(encoded, allow_trailing=True)
        assert value == 5
        assert consumed == 3

    def test_truncated_value_rejected(self):
        encoded = der.encode_der(der.OctetString(b"abcdef"))
        with pytest.raises(der.Asn1Error):
            der.decode_der(encoded[:-1])

    def test_empty_input_rejected(self):
        with pytest.raises(der.Asn1Error):
            der.decode_der(b"")

    def test_indefinite_length_rejected(self):
        with pytest.raises(der.Asn1Error):
            der.decode_der(b"\x30\x80\x00\x00")

    def test_bad_boolean_length_rejected(self):
        with pytest.raises(der.Asn1Error):
            der.decode_der(b"\x01\x02\xff\xff")


@given(st.integers(min_value=-(2**127), max_value=2**127))
def test_integer_round_trip(value):
    assert der.decode_der(der.encode_der(value)) == value


@given(st.binary(max_size=300))
def test_octet_string_round_trip(payload):
    value = der.OctetString(payload)
    assert der.decode_der(der.encode_der(value)) == value


@given(st.text(max_size=100))
def test_utf8_round_trip(text):
    value = der.Utf8String(text)
    assert der.decode_der(der.encode_der(value)) == value


@given(st.lists(st.integers(-1000, 1000), max_size=20))
def test_sequence_of_integers_round_trip(values):
    seq = der.Sequence(values)
    assert der.decode_der(der.encode_der(seq)) == seq
