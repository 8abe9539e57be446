"""Tests for repro.net.ipv4."""

import pytest

from repro.net.ipv4 import Cidr, int_to_ip, ip_to_int, parse_cidr


class TestIpToInt:
    def test_known_values(self):
        assert ip_to_int("0.0.0.0") == 0
        assert ip_to_int("255.255.255.255") == 0xFFFFFFFF
        assert ip_to_int("10.0.0.1") == (10 << 24) + 1
        assert ip_to_int("1.2.3.4") == 0x01020304

    def test_roundtrip(self):
        for ip in ("8.8.8.8", "192.168.1.254", "172.16.0.1"):
            assert int_to_ip(ip_to_int(ip)) == ip

    @pytest.mark.parametrize("bad", [
        "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1.2.3.04",
        "01.2.3.4", " 1.2.3.4", "1.2.3.4 ", "-1.2.3.4", "", "1..2.3",
        "1.2.3.1000",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            ip_to_int(bad)

    def test_zero_octet_allowed(self):
        assert ip_to_int("0.1.0.1") == (1 << 16) + 1


class TestIntToIp:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            int_to_ip(-1)
        with pytest.raises(ValueError):
            int_to_ip(1 << 32)


class TestCidr:
    def test_mask_and_bounds(self):
        block = parse_cidr("10.0.0.0/8")
        assert block.mask == 0xFF000000
        assert int_to_ip(block.first) == "10.0.0.0"
        assert int_to_ip(block.last) == "10.255.255.255"
        assert block.size == 1 << 24

    def test_slash_zero_covers_everything(self):
        block = parse_cidr("0.0.0.0/0")
        assert block.contains("8.8.8.8")
        assert block.contains("255.255.255.255")
        assert block.size == 1 << 32

    def test_slash_32_is_single_host(self):
        block = parse_cidr("1.2.3.4/32")
        assert block.size == 1
        assert block.contains("1.2.3.4")
        assert not block.contains("1.2.3.5")

    def test_bare_address_parses_as_host(self):
        assert parse_cidr("9.9.9.9").prefix == 32

    def test_contains_boundaries(self):
        block = parse_cidr("192.168.4.0/22")
        assert block.contains("192.168.4.0")
        assert block.contains("192.168.7.255")
        assert not block.contains("192.168.8.0")
        assert not block.contains("192.168.3.255")

    def test_rejects_host_bits_set(self):
        with pytest.raises(ValueError):
            parse_cidr("10.0.0.1/8")

    def test_rejects_bad_prefix(self):
        with pytest.raises(ValueError):
            parse_cidr("10.0.0.0/33")
        with pytest.raises(ValueError):
            parse_cidr("10.0.0.0/x")

    def test_nth_addresses(self):
        block = parse_cidr("10.0.0.0/30")
        assert block.nth(0) == "10.0.0.0"
        assert block.nth(3) == "10.0.0.3"
        with pytest.raises(ValueError):
            block.nth(4)

    def test_str_roundtrip(self):
        assert str(parse_cidr("172.16.0.0/12")) == "172.16.0.0/12"

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            Cidr(network=1, prefix=8)   # host bits set
