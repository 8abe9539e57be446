"""Hashing helpers: stable identifiers and IP anonymisation.

The paper stores raw IPs only transiently: meta-data (ISP, country,
data-center status) is extracted first and the address is then anonymised
"using hashing techniques".  We reproduce that with a salted SHA-256 whose
salt is campaign-scoped, so the same device is linkable *within* a campaign
dataset but not across datasets.

Both helpers are per-impression hot paths (every trace id, every user-key
derivation, every enrichment pass goes through them), so repeated call
prefixes — the ``(seed, scope)`` pair of a shard's trace ids, the salt of
an anonymisation pass — are interned as partially-fed SHA-256 states:
one :meth:`~hashlib._Hash.copy` plus the suffix update replaces the full
join + hash per call.  SHA-256 state copying is exact, so the digests are
byte-identical to the single-shot computation; the tests pin that.
"""

from __future__ import annotations

import hashlib

#: Bound on each intern table; reached only by pathological workloads
#: (the shard scopes and salts of one experiment number in the dozens),
#: at which point the table is simply dropped and rebuilt.
_MAX_INTERNED = 4096

_PREFIX_STATES: dict[tuple[str, ...], "hashlib._Hash"] = {}
_SALT_STATES: dict[str, "hashlib._Hash"] = {}


def stable_hash_reference(*parts: str, bits: int = 64) -> int:
    """Single-shot :func:`stable_hash` (the path for one-part hashes)."""
    if bits <= 0 or bits > 256 or bits % 8 != 0:
        raise ValueError("bits must be a positive multiple of 8, at most 256")
    joined = "\x1f".join(parts)
    digest = hashlib.sha256(joined.encode("utf-8")).digest()
    return int.from_bytes(digest[: bits // 8], "big")


def stable_hash(*parts: str, bits: int = 64) -> int:
    """Deterministic integer hash of the given string parts.

    Unlike the builtin ``hash``, the result is stable across processes
    (``PYTHONHASHSEED`` does not affect it), which the simulation relies on
    for reproducible identifier assignment.

    Calls sharing every part but the last (trace ids vary only in the
    impression id, for one shard) reuse an interned hasher pre-fed with
    the prefix; UTF-8 is concatenative, so feeding the suffix into a copy
    of that state yields the identical digest.
    """
    if len(parts) < 2:
        return stable_hash_reference(*parts, bits=bits)
    if bits <= 0 or bits > 256 or bits % 8 != 0:
        raise ValueError("bits must be a positive multiple of 8, at most 256")
    prefix = parts[:-1]
    state = _PREFIX_STATES.get(prefix)
    if state is None:
        if len(_PREFIX_STATES) >= _MAX_INTERNED:
            _PREFIX_STATES.clear()
        state = hashlib.sha256(
            ("\x1f".join(prefix) + "\x1f").encode("utf-8"))
        _PREFIX_STATES[prefix] = state
    hasher = state.copy()
    hasher.update(parts[-1].encode("utf-8"))
    return int.from_bytes(hasher.digest()[: bits // 8], "big")


def anonymize_ip(ip: str, salt: str = "") -> str:
    """One-way anonymisation of an IP address.

    Returns a 16-hex-character token.  Identical (ip, salt) pairs map to the
    same token, so per-user analyses (frequency capping) still work on the
    anonymised dataset; different salts unlink datasets from each other.

    An anonymisation pass hashes the whole dataset under one salt, so the
    ``{salt}|`` prefix is interned as a partially-fed hasher state and only
    the address bytes are fed per call.
    """
    if not ip:
        raise ValueError("ip must be non-empty")
    state = _SALT_STATES.get(salt)
    if state is None:
        if len(_SALT_STATES) >= _MAX_INTERNED:
            _SALT_STATES.clear()
        state = hashlib.sha256(f"{salt}|".encode("utf-8"))
        _SALT_STATES[salt] = state
    hasher = state.copy()
    hasher.update(ip.encode("utf-8"))
    return hasher.hexdigest()[:16]
