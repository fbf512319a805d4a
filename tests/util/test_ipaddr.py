import pytest
from hypothesis import given, strategies as st

from repro.util.ipaddr import CidrBlock, format_ipv4, parse_ipv4


class TestParseFormat:
    def test_parse_basic(self):
        assert parse_ipv4("1.2.3.4") == 0x01020304

    def test_parse_zero(self):
        assert parse_ipv4("0.0.0.0") == 0

    def test_parse_max(self):
        assert parse_ipv4("255.255.255.255") == 2**32 - 1

    def test_format_basic(self):
        assert format_ipv4(0x01020304) == "1.2.3.4"

    @pytest.mark.parametrize(
        "bad",
        [
            "1.2.3",
            "1.2.3.4.5",
            "256.0.0.1",
            "a.b.c.d",
            "01.2.3.4",
            "",
            # int() takes all of these; an octet is ASCII digits only.
            "1.2.3.\u0664",
            "1.2.3.+4",
            "1.2.3. 4",
            "1.2.3.4_0",
        ],
    )
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_ipv4(bad)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            format_ipv4(2**32)
        with pytest.raises(ValueError):
            format_ipv4(-1)


class TestCidrBlock:
    def test_parse(self):
        block = CidrBlock.parse("10.2.0.0/16")
        assert block.size == 65536
        assert format_ipv4(block.first) == "10.2.0.0"
        assert format_ipv4(block.last) == "10.2.255.255"

    def test_contains(self):
        block = CidrBlock.parse("10.2.0.0/16")
        assert parse_ipv4("10.2.5.1") in block
        assert parse_ipv4("10.3.0.0") not in block

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            CidrBlock(parse_ipv4("10.2.0.1"), 16)

    def test_slash_zero_covers_everything(self):
        block = CidrBlock(0, 0)
        assert block.size == 2**32
        assert parse_ipv4("255.1.2.3") in block

    def test_slash_32_single_host(self):
        block = CidrBlock.parse("10.0.0.1/32")
        assert block.size == 1
        assert block.first == block.last

    def test_address_at(self):
        block = CidrBlock.parse("10.0.0.0/24")
        assert format_ipv4(block.address_at(5)) == "10.0.0.5"
        with pytest.raises(IndexError):
            block.address_at(256)

    @pytest.mark.parametrize(
        "text",
        [
            "10.0.0.0",
            "10.0.0.0/",
            # int() takes all of these; a prefix length is ASCII digits only.
            "10.0.0.0/ 8",
            "10.0.0.0/8 ",
            "10.0.0.0/+8",
            "0.0.0.0/-0",
            "10.0.0.0/\u0668",
            "10.0.0.0/8_0",
        ],
    )
    def test_missing_prefix_rejected(self, text):
        with pytest.raises(ValueError) as excinfo:
            CidrBlock.parse(text)
        assert f"prefix length in {text!r}" in str(excinfo.value)

    def test_str(self):
        assert str(CidrBlock.parse("10.2.0.0/16")) == "10.2.0.0/16"


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_parse_format_round_trip(value):
    assert parse_ipv4(format_ipv4(value)) == value


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 32))
def test_block_membership_consistent(addr, prefix_len):
    mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF if prefix_len else 0
    block = CidrBlock(addr & mask, prefix_len)
    assert (addr in block) == (addr & mask == block.network)
