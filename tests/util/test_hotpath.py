"""Equivalence tests for the hashing hot paths.

The optimized hashing implementations (interned SHA-256 prefix states)
are pinned to single-shot computations on the same inputs:
``stable_hash_reference`` (also the production path for one-part
hashes) and ``anonymize_ip_reference`` below.
"""

import hashlib

import pytest

from repro.util import hashing
from repro.util.hashing import (
    anonymize_ip,
    stable_hash,
    stable_hash_reference,
)


def anonymize_ip_reference(ip: str, salt: str = "") -> str:
    """Single-shot :func:`anonymize_ip`: hash ``{salt}|{ip}`` whole."""
    if not ip:
        raise ValueError("ip must be non-empty")
    digest = hashlib.sha256(f"{salt}|{ip}".encode("utf-8")).hexdigest()
    return digest[:16]


class TestStableHashEquivalence:
    CASES = [
        ("single",),
        ("seed", "scope"),
        ("seed", "scope", "42"),
        ("2016", "shard-3", "impression", "1234567"),
        ("", "", ""),
        ("ünïcode", "τοπίο", "💡"),
        ("embedded\x1fseparator", "suffix"),
    ]

    @pytest.mark.parametrize("parts", CASES)
    @pytest.mark.parametrize("bits", [8, 32, 64, 128, 256])
    def test_matches_reference(self, parts, bits):
        assert stable_hash(*parts, bits=bits) == \
            stable_hash_reference(*parts, bits=bits)

    def test_shared_prefix_calls_stay_independent(self):
        # Many calls sharing a prefix reuse one interned hasher state;
        # each must still hash as if computed from scratch.
        for index in range(100):
            suffix = str(index)
            assert stable_hash("seed", "scope", suffix) == \
                stable_hash_reference("seed", "scope", suffix)

    @pytest.mark.parametrize("bits", [0, -8, 7, 257, 264])
    def test_invalid_bits_rejected_in_both_modes(self, bits):
        with pytest.raises(ValueError):
            stable_hash("a", "b", bits=bits)
        with pytest.raises(ValueError):
            stable_hash_reference("a", "b", bits=bits)

    def test_prefix_table_clears_on_overflow(self, monkeypatch):
        monkeypatch.setattr(hashing, "_MAX_INTERNED", 8)
        hashing._PREFIX_STATES.clear()
        for index in range(20):
            prefix = f"prefix-{index}"
            assert stable_hash(prefix, "x") == \
                stable_hash_reference(prefix, "x")
        assert len(hashing._PREFIX_STATES) <= 8


class TestAnonymizeIpEquivalence:
    @pytest.mark.parametrize("ip", ["1.2.3.4", "255.255.255.255",
                                    "10.0.0.1", "2.128.77.3"])
    @pytest.mark.parametrize("salt", ["", "adaudit", "Football-010",
                                      "salt|with|pipes"])
    def test_matches_reference(self, ip, salt):
        assert anonymize_ip(ip, salt=salt) == \
            anonymize_ip_reference(ip, salt=salt)

    def test_empty_ip_rejected_in_both_modes(self):
        with pytest.raises(ValueError):
            anonymize_ip("", salt="s")
        with pytest.raises(ValueError):
            anonymize_ip_reference("", salt="s")

    def test_distinct_salts_unlink(self):
        assert anonymize_ip("1.2.3.4", salt="a") != \
            anonymize_ip("1.2.3.4", salt="b")

    def test_salt_table_clears_on_overflow(self, monkeypatch):
        monkeypatch.setattr(hashing, "_MAX_INTERNED", 4)
        hashing._SALT_STATES.clear()
        for index in range(12):
            salt = f"salt-{index}"
            assert anonymize_ip("9.8.7.6", salt=salt) == \
                anonymize_ip_reference("9.8.7.6", salt=salt)
        assert len(hashing._SALT_STATES) <= 4
