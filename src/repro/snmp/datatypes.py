"""SNMP value types.

Each class pairs a Python value with its BER tag and knows how to encode
itself; :func:`decode_value` is the single dispatch point used by the PDU
decoder.  The set covers everything MIB-II needs (Table 1 of the paper
uses TimeTicks, Gauge32 and Counter32) plus the SNMPv2c exception values.
"""

from __future__ import annotations

from typing import Union

from repro.snmp import ber
from repro.snmp.oid import Oid


class SnmpValue:
    """Base class: a tagged, BER-encodable SNMP value."""

    tag: int = -1

    def encode(self) -> bytes:  # pragma: no cover - abstract
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))


class Integer(SnmpValue):
    """ASN.1 INTEGER (signed 32-bit in SNMP usage)."""

    tag = ber.TAG_INTEGER

    def __init__(self, value: int) -> None:
        self.value = int(value)

    def encode(self) -> bytes:
        return ber.encode_tlv(self.tag, ber.encode_integer_content(self.value))

    def __repr__(self) -> str:
        return f"Integer({self.value})"


class OctetString(SnmpValue):
    tag = ber.TAG_OCTET_STRING

    def __init__(self, value: Union[bytes, str]) -> None:
        self.value = value.encode() if isinstance(value, str) else bytes(value)

    def encode(self) -> bytes:
        return ber.encode_tlv(self.tag, self.value)

    def as_text(self) -> str:
        return self.value.decode(errors="replace")

    def __repr__(self) -> str:
        return f"OctetString({self.value!r})"


class Null(SnmpValue):
    tag = ber.TAG_NULL

    def encode(self) -> bytes:
        return ber.encode_tlv(self.tag, b"")

    def __repr__(self) -> str:
        return "Null()"


class ObjectIdentifier(SnmpValue):
    tag = ber.TAG_OID

    def __init__(self, value) -> None:
        self.value = Oid(value)

    def encode(self) -> bytes:
        return ber.encode_tlv(self.tag, ber.encode_oid_content(self.value))

    def __repr__(self) -> str:
        return f"ObjectIdentifier('{self.value}')"


class IpAddress(SnmpValue):
    tag = ber.TAG_IPADDRESS

    def __init__(self, value: Union[bytes, str]) -> None:
        if isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise ber.BerError(f"malformed IpAddress {value!r}")
            value = bytes(int(p) for p in parts)
        if len(value) != 4:
            raise ber.BerError(f"IpAddress needs 4 octets, got {len(value)}")
        self.value = bytes(value)

    def encode(self) -> bytes:
        return ber.encode_tlv(self.tag, self.value)

    def as_text(self) -> str:
        return ".".join(str(b) for b in self.value)

    def __repr__(self) -> str:
        return f"IpAddress('{self.as_text()}')"


class _Unsigned(SnmpValue):
    bits = 32

    def __init__(self, value: int) -> None:
        value = int(value)
        if not 0 <= value < (1 << self.bits):
            raise ber.BerError(
                f"{type(self).__name__} out of range: {value!r}"
            )
        self.value = value

    def encode(self) -> bytes:
        # One frame per counter on the agent's reply path: bit_length // 8
        # + 1 octets *is* the minimal form with the sign bit clear that
        # ber.encode_unsigned_content builds, and <= 9 octets is short-form.
        value = self.value
        content = value.to_bytes(value.bit_length() // 8 + 1, "big")
        return bytes((self.tag, len(content))) + content

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.value})"


class Counter32(_Unsigned):
    """Monotonic 32-bit counter that wraps at 2^32 (ifInOctets et al.).

    :meth:`delta` implements the wrap-aware subtraction the paper's poller
    performs ("the old value is subtracted from the new one").
    """

    tag = ber.TAG_COUNTER32

    @staticmethod
    def wrap(raw: int) -> "Counter32":
        """Truncate a free-running simulator counter onto the wire type."""
        return Counter32(raw % (1 << 32))

    def delta(self, older: "Counter32") -> int:
        """Counts accumulated since ``older``, assuming at most one wrap."""
        return (self.value - older.value) % (1 << 32)


class Gauge32(_Unsigned):
    """Non-wrapping 32-bit gauge (ifSpeed)."""

    tag = ber.TAG_GAUGE32


class TimeTicks(_Unsigned):
    """Hundredths of a second since the agent re-initialised (sysUpTime)."""

    tag = ber.TAG_TIMETICKS

    @staticmethod
    def from_seconds(seconds: float) -> "TimeTicks":
        return TimeTicks(int(round(seconds * 100)) % (1 << 32))

    def to_seconds(self) -> float:
        return self.value / 100.0

    def delta_seconds(self, older: "TimeTicks") -> float:
        """Elapsed seconds since ``older``, wrap-aware."""
        return ((self.value - older.value) % (1 << 32)) / 100.0


class Counter64(_Unsigned):
    """64-bit counter (SNMPv2c; provided for high-speed-interface tests)."""

    tag = ber.TAG_COUNTER64
    bits = 64


class _Exception(SnmpValue):
    """Base for SNMPv2c varbind exception values (zero-length content)."""

    def encode(self) -> bytes:
        return ber.encode_tlv(self.tag, b"")

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NoSuchObject(_Exception):
    tag = ber.TAG_NO_SUCH_OBJECT


class NoSuchInstance(_Exception):
    tag = ber.TAG_NO_SUCH_INSTANCE


class EndOfMibView(_Exception):
    tag = ber.TAG_END_OF_MIB_VIEW


_DECODERS = {
    ber.TAG_INTEGER: lambda c: Integer(ber.decode_integer_content(c)),
    ber.TAG_OCTET_STRING: lambda c: OctetString(c),
    ber.TAG_NULL: lambda c: Null(),
    ber.TAG_OID: lambda c: ObjectIdentifier(ber.decode_oid_content(c)),
    ber.TAG_IPADDRESS: lambda c: IpAddress(c),
    ber.TAG_COUNTER32: lambda c: Counter32(ber.decode_unsigned_content(c, 32)),
    ber.TAG_GAUGE32: lambda c: Gauge32(ber.decode_unsigned_content(c, 32)),
    ber.TAG_TIMETICKS: lambda c: TimeTicks(ber.decode_unsigned_content(c, 32)),
    ber.TAG_COUNTER64: lambda c: Counter64(ber.decode_unsigned_content(c, 64)),
    ber.TAG_NO_SUCH_OBJECT: lambda c: NoSuchObject(),
    ber.TAG_NO_SUCH_INSTANCE: lambda c: NoSuchInstance(),
    ber.TAG_END_OF_MIB_VIEW: lambda c: EndOfMibView(),
}


def decode_value(data: bytes, offset: int = 0):
    """Decode one SNMP value TLV; returns (value, new_offset)."""
    tag, content, new_offset = ber.decode_tlv(data, offset)
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise ber.BerError(f"unsupported SNMP value tag 0x{tag:02x}")
    if tag in (ber.TAG_NULL, ber.TAG_NO_SUCH_OBJECT, ber.TAG_NO_SUCH_INSTANCE,
               ber.TAG_END_OF_MIB_VIEW) and content:
        raise ber.BerError(f"tag 0x{tag:02x} must have empty content")
    return decoder(content), new_offset
