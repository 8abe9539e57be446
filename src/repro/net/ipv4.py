"""IPv4 address and CIDR arithmetic.

Implemented from scratch (rather than on ``ipaddress``) because the IP
database and deny list need cheap integer representations and prefix
arithmetic in their inner lookup loops, and because owning the parsing lets
us reject exactly the inputs the collector should treat as malformed.
"""

from __future__ import annotations

from dataclasses import dataclass

_MAX_IP = 0xFFFFFFFF


def ip_to_int(ip: str) -> int:
    """Parse dotted-quad IPv4 into a 32-bit integer.

    Strict: exactly four decimal octets, each 0-255, no leading '+',
    whitespace, or empty parts.
    """
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address: {ip!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0") or len(part) > 3:
            raise ValueError(f"invalid IPv4 address: {ip!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"invalid IPv4 address: {ip!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Render a 32-bit integer as dotted-quad IPv4."""
    if not 0 <= value <= _MAX_IP:
        raise ValueError(f"value out of IPv4 range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True)
class Cidr:
    """A CIDR block, stored as (network-integer, prefix-length).

    The network address is canonicalised: host bits below the prefix are
    required to be zero at construction time.
    """

    network: int
    prefix: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix <= 32:
            raise ValueError(f"invalid prefix length: {self.prefix}")
        if not 0 <= self.network <= _MAX_IP:
            raise ValueError(f"network out of range: {self.network}")
        if self.network & ~self.mask:
            raise ValueError(
                f"host bits set in network {int_to_ip(self.network)}/{self.prefix}")

    @property
    def mask(self) -> int:
        """The netmask as a 32-bit integer."""
        if self.prefix == 0:
            return 0
        return (_MAX_IP << (32 - self.prefix)) & _MAX_IP

    @property
    def first(self) -> int:
        """First address in the block."""
        return self.network

    @property
    def last(self) -> int:
        """Last address in the block."""
        return self.network | (~self.mask & _MAX_IP)

    @property
    def size(self) -> int:
        """Number of addresses the block spans."""
        return 1 << (32 - self.prefix)

    def contains_int(self, value: int) -> bool:
        """True if the integer address falls inside this block."""
        return (value & self.mask) == self.network

    def contains(self, ip: str) -> bool:
        """True if the dotted-quad address falls inside this block."""
        return self.contains_int(ip_to_int(ip))

    def nth(self, offset: int) -> str:
        """The dotted-quad address at *offset* within the block."""
        if not 0 <= offset < self.size:
            raise ValueError(f"offset {offset} outside /{self.prefix} block")
        return int_to_ip(self.network + offset)

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.prefix}"


def parse_cidr(text: str) -> Cidr:
    """Parse ``a.b.c.d/p`` notation into a :class:`Cidr`.

    A bare address parses as a /32.
    """
    if "/" in text:
        address_part, _, prefix_part = text.partition("/")
        if not prefix_part.isdigit():
            raise ValueError(f"invalid CIDR: {text!r}")
        prefix = int(prefix_part)
    else:
        address_part, prefix = text, 32
    network = ip_to_int(address_part)
    if not 0 <= prefix <= 32:
        raise ValueError(f"invalid CIDR: {text!r}")
    mask = (_MAX_IP << (32 - prefix)) & _MAX_IP if prefix else 0
    if network & ~mask:
        raise ValueError(f"host bits set in CIDR: {text!r}")
    return Cidr(network, prefix)

