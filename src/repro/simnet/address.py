"""MAC and IPv4 address value types for the LAN simulator.

Both types are small immutable wrappers around integers with the usual
textual forms.  They exist so that frames, interfaces and the SNMP
``ifPhysAddress`` column can carry real, comparable addresses instead of
bare strings, and so that allocation of fresh addresses is centralised and
deterministic.
"""

from __future__ import annotations

import re
from functools import total_ordering
from typing import Iterator, Union

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:\-]){5}[0-9a-fA-F]{2}$")
_IP_RE = re.compile(r"^\d{1,3}(\.\d{1,3}){3}$")


class AddressError(ValueError):
    """Raised for malformed address literals or exhausted allocators."""


@total_ordering
class MacAddress:
    """48-bit IEEE MAC address.

    ``is_broadcast`` and ``is_multicast`` (the group bit, LSB of the
    first octet; broadcast sets it too) are fixed at construction.  The
    forwarding path compares and keys its tables on ``_value``, so no
    Python-level ``__eq__`` or ``__hash__`` runs per frame.
    """

    __slots__ = ("_value", "is_broadcast", "is_multicast")

    def __init__(self, value: Union[int, str, "MacAddress"]) -> None:
        if isinstance(value, MacAddress):
            value = value._value
        elif isinstance(value, str):
            if not _MAC_RE.match(value):
                raise AddressError(f"malformed MAC address {value!r}")
            value = int(value.replace("-", ":").replace(":", ""), 16)
        elif isinstance(value, int):
            if not 0 <= value < (1 << 48):
                raise AddressError(f"MAC address out of range: {value!r}")
        else:
            raise AddressError(f"cannot build MacAddress from {type(value).__name__}")
        self._value = value
        self.is_broadcast = value == (1 << 48) - 1
        self.is_multicast = bool((value >> 40) & 0x01)

    @property
    def value(self) -> int:
        return self._value

    def to_bytes(self) -> bytes:
        """Six-octet wire form, as served by SNMP ``ifPhysAddress``."""
        return self._value.to_bytes(6, "big")

    def __str__(self) -> str:
        raw = f"{self._value:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MacAddress) and self._value == other._value

    def __lt__(self, other: "MacAddress") -> bool:
        if not isinstance(other, MacAddress):
            return NotImplemented
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(("mac", self._value))


BROADCAST_MAC = MacAddress((1 << 48) - 1)


@total_ordering
class IPv4Address:
    """32-bit IPv4 address in dotted-quad notation."""

    __slots__ = ("_value",)

    def __init__(self, value: Union[int, str, "IPv4Address"]) -> None:
        if isinstance(value, IPv4Address):
            self._value = value._value
            return
        if isinstance(value, str):
            if not _IP_RE.match(value):
                raise AddressError(f"malformed IPv4 address {value!r}")
            octets = [int(p) for p in value.split(".")]
            if any(o > 255 for o in octets):
                raise AddressError(f"IPv4 octet out of range in {value!r}")
            self._value = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]
            return
        if isinstance(value, int):
            if not 0 <= value < (1 << 32):
                raise AddressError(f"IPv4 address out of range: {value!r}")
            self._value = value
            return
        raise AddressError(f"cannot build IPv4Address from {type(value).__name__}")

    @property
    def value(self) -> int:
        return self._value

    def to_bytes(self) -> bytes:
        return self._value.to_bytes(4, "big")

    def in_subnet(self, network: "IPv4Address", prefix_len: int) -> bool:
        """True if this address falls inside ``network/prefix_len``."""
        if not 0 <= prefix_len <= 32:
            raise AddressError(f"bad prefix length {prefix_len!r}")
        if prefix_len == 0:
            return True
        mask = ((1 << prefix_len) - 1) << (32 - prefix_len)
        return (self._value & mask) == (network._value & mask)

    def __str__(self) -> str:
        v = self._value
        return f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}"

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IPv4Address) and self._value == other._value

    def __lt__(self, other: "IPv4Address") -> bool:
        if not isinstance(other, IPv4Address):
            return NotImplemented
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(("ipv4", self._value))


class MacAllocator:
    """Deterministic allocator of locally-administered unicast MACs.

    Addresses are drawn from ``02:00:00:xx:xx:xx`` (locally administered,
    unicast) so they can never collide with the broadcast address or look
    like real vendor OUIs.
    """

    _BASE = 0x020000000000

    def __init__(self) -> None:
        self._next = 1

    def allocate(self) -> MacAddress:
        if self._next >= (1 << 24):
            raise AddressError("MAC allocator exhausted")
        mac = MacAddress(self._BASE | self._next)
        self._next += 1
        return mac

    def __iter__(self) -> Iterator[MacAddress]:  # pragma: no cover - convenience
        while True:
            yield self.allocate()


class IPv4Allocator:
    """Deterministic allocator of host addresses inside one subnet (a
    deployment setting the caller names: there is no default plan)."""

    def __init__(self, network: str, prefix_len: int) -> None:
        self.network = IPv4Address(network)
        self.prefix_len = prefix_len
        host_bits = 32 - prefix_len
        if host_bits < 2:
            raise AddressError("subnet too small for allocation")
        self._max_hosts = (1 << host_bits) - 2  # exclude network + broadcast
        self._next = 1

    def allocate(self) -> IPv4Address:
        if self._next > self._max_hosts:
            raise AddressError(f"IPv4 allocator exhausted in {self.network}/{self.prefix_len}")
        addr = IPv4Address(self.network.value + self._next)
        self._next += 1
        return addr
