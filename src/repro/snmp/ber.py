"""ASN.1 Basic Encoding Rules -- the subset SNMP needs (RFC 1157 §4).

Every SNMP message the simulated manager and agents exchange is encoded to
real bytes with this codec and decoded on the far side.  That keeps the
measurement substrate honest: the ~2 % overhead the paper attributes to
"SNMP queries and acknowledgements" emerges here from genuine PDU sizes,
not from a fudge factor.

Only definite-length encodings are produced or accepted (SNMP forbids the
indefinite form).  Integers are minimal two's complement; unsigned
application types (Counter32 etc.) use the unsigned variant with a leading
zero octet where the high bit would otherwise read as a sign.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

from repro.snmp.oid import Oid, OidError

# Universal tags.
TAG_INTEGER = 0x02
TAG_OCTET_STRING = 0x04
TAG_NULL = 0x05
TAG_OID = 0x06
TAG_SEQUENCE = 0x30

# SNMP application tags (RFC 1155 / RFC 1902).
TAG_IPADDRESS = 0x40
TAG_COUNTER32 = 0x41
TAG_GAUGE32 = 0x42
TAG_TIMETICKS = 0x43
TAG_OPAQUE = 0x44
TAG_COUNTER64 = 0x46

# SNMPv2c exception values (context-class, primitive).
TAG_NO_SUCH_OBJECT = 0x80
TAG_NO_SUCH_INSTANCE = 0x81
TAG_END_OF_MIB_VIEW = 0x82

# PDU tags (context-class, constructed).
TAG_GET_REQUEST = 0xA0
TAG_GET_NEXT_REQUEST = 0xA1
TAG_GET_RESPONSE = 0xA2
TAG_SET_REQUEST = 0xA3
TAG_TRAP_V1 = 0xA4
TAG_GET_BULK_REQUEST = 0xA5
TAG_INFORM_REQUEST = 0xA6
TAG_SNMPV2_TRAP = 0xA7


class BerError(ValueError):
    """Raised on malformed BER input or unencodable values."""


# ----------------------------------------------------------------------
# Length octets
# ----------------------------------------------------------------------
def encode_length(length: int) -> bytes:
    """Definite-form length octets."""
    if length < 0:
        raise BerError(f"negative length {length!r}")
    if length < 0x80:
        return bytes([length])
    body = length.to_bytes((length.bit_length() + 7) // 8, "big")
    if len(body) > 126:
        raise BerError("length too large to encode")
    return bytes([0x80 | len(body)]) + body


def decode_length(data: bytes, offset: int, end: Optional[int] = None) -> Tuple[int, int]:
    """Return (length, new_offset), reading no further than ``end``
    (default: all of ``data``).  Rejects the indefinite form."""
    if end is None:
        end = len(data)
    if offset >= end:
        raise BerError("truncated length")
    first = data[offset]
    offset += 1
    if first < 0x80:
        return first, offset
    n = first & 0x7F
    if n == 0:
        raise BerError("indefinite lengths are forbidden in SNMP")
    if offset + n > end:
        raise BerError("truncated long-form length")
    length = int.from_bytes(data[offset : offset + n], "big")
    return length, offset + n


# ----------------------------------------------------------------------
# TLV plumbing
# ----------------------------------------------------------------------
def encode_tlv(tag: int, content: bytes) -> bytes:
    length = len(content)
    if length < 0x80:  # short form: nearly every TLV on the poll path
        return bytes((tag, length)) + content
    return bytes((tag,)) + encode_length(length) + content


def tlv_span(data: bytes, offset: int, end: int) -> Tuple[int, int, int]:
    """Return (tag, content_start, content_end) of the TLV at ``offset``
    in ``data[:end]``, copying nothing: a message's header can be read in
    place and its varbind list handed on as a byte range."""
    if offset >= end:
        raise BerError("truncated TLV: no tag")
    tag = data[offset]
    body_start = offset + 2
    if body_start <= end and data[offset + 1] < 0x80:
        length = data[offset + 1]  # short form: nearly every TLV on the poll path
    else:
        length, body_start = decode_length(data, offset + 1, end)
    body_end = body_start + length
    if body_end > end:
        raise BerError(f"truncated TLV: need {length} content bytes")
    return tag, body_start, body_end


def decode_tlv(data: bytes, offset: int = 0) -> Tuple[int, bytes, int]:
    """Return (tag, content, new_offset)."""
    tag, body_start, body_end = tlv_span(data, offset, len(data))
    return tag, data[body_start:body_end], body_end


def expect_tag(actual: int, expected: int, what: str) -> None:
    if actual != expected:
        raise BerError(f"expected {what} (tag 0x{expected:02x}), got tag 0x{actual:02x}")


# ----------------------------------------------------------------------
# INTEGER (signed, minimal two's complement)
# ----------------------------------------------------------------------
def encode_integer_content(value: int) -> bytes:
    if value == 0:
        return b"\x00"
    length = (value.bit_length() + 8) // 8  # +1 bit for the sign
    return value.to_bytes(length, "big", signed=True)


def decode_integer_content(content: bytes) -> int:
    if not content:
        raise BerError("empty INTEGER content")
    return int.from_bytes(content, "big", signed=True)


def encode_integer(value: int) -> bytes:
    return encode_tlv(TAG_INTEGER, encode_integer_content(value))


def decode_integer(data: bytes, offset: int, end: int, what: str) -> Tuple[int, int]:
    """Return (value, new_offset) of the INTEGER TLV at ``offset``."""
    tag, start, stop = tlv_span(data, offset, end)
    expect_tag(tag, TAG_INTEGER, what)
    return decode_integer_content(data[start:stop]), stop


# ----------------------------------------------------------------------
# Unsigned application integers (Counter32, Gauge32, TimeTicks, Counter64)
# ----------------------------------------------------------------------
def encode_unsigned_content(value: int, bits: int) -> bytes:
    if not 0 <= value < (1 << bits):
        raise BerError(f"value {value!r} out of range for unsigned{bits}")
    if value == 0:
        return b"\x00"
    length = (value.bit_length() + 7) // 8
    body = value.to_bytes(length, "big")
    if body[0] & 0x80:
        body = b"\x00" + body  # keep the sign bit clear
    return body


def decode_unsigned_content(content: bytes, bits: int) -> int:
    if not content:
        raise BerError("empty unsigned content")
    value = int.from_bytes(content, "big", signed=False)
    # A leading zero pad octet is legal; anything that still overflows is not.
    if value >= (1 << bits):
        raise BerError(f"unsigned{bits} overflow: {value!r}")
    return value


# ----------------------------------------------------------------------
# OBJECT IDENTIFIER
# ----------------------------------------------------------------------
def encode_oid_content(oid: Oid) -> bytes:
    arcs = oid.arcs
    if len(arcs) < 2:
        raise BerError(f"OID {oid} too short to BER-encode (needs >= 2 arcs)")
    first, second = arcs[0], arcs[1]
    if first > 2 or (first < 2 and second > 39):
        raise BerError(f"invalid leading OID arcs in {oid}")
    # The first two arcs share one subidentifier (X.690 8.19.4), which is
    # itself base-128 encoded -- multi-byte when first=2 and second > 47.
    out = bytearray(_encode_base128(first * 40 + second))
    for arc in arcs[2:]:
        out.extend(_encode_base128(arc))
    return bytes(out)


def _encode_base128(value: int) -> bytes:
    if value < 0:
        raise BerError(f"negative OID arc {value!r}")
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(chunks))


@lru_cache(maxsize=16384)
def decode_oid_content(content: bytes) -> Oid:
    """Decode OID content octets, memoized (and thus interned).

    Decoding is the receive-side twin of :func:`encode_oid`'s cache: a
    bulk response carries hundreds of row OIDs drawn from the same small
    column set, and the manager decodes the identical byte strings every
    cycle.  Interning also makes the returned ``Oid`` objects shared, so
    downstream dict lookups hash already-seen instances.
    """
    if not content:
        raise BerError("empty OID content")
    subids = []
    value = 0
    in_arc = False
    for byte in content:
        value = (value << 7) | (byte & 0x7F)
        in_arc = True
        if not byte & 0x80:
            subids.append(value)
            value = 0
            in_arc = False
    if in_arc:
        raise BerError("truncated base-128 arc in OID")
    combined = subids[0]
    if combined < 80:
        arcs = [combined // 40, combined % 40] + subids[1:]
    else:
        arcs = [2, combined - 80] + subids[1:]
    try:
        return Oid(arcs)
    except OidError as exc:  # pragma: no cover - defensive
        raise BerError(str(exc)) from exc


@lru_cache(maxsize=16384)
def encode_oid(oid: Oid) -> bytes:
    """TLV-encode an OID, memoized.

    The poll path encodes the same few thousand OIDs (six counter columns
    x every interface on every agent) every cycle; ``Oid`` is immutable
    and hashable, so the encoded TLV is a pure function of it.  The cache
    turns the per-varbind base-128 arithmetic into a dict hit -- the
    "batched BER encode" half of the GetBulk poll path.
    """
    return encode_tlv(TAG_OID, encode_oid_content(oid))


# ----------------------------------------------------------------------
# Simple composites
# ----------------------------------------------------------------------
def encode_octet_string(value: bytes) -> bytes:
    return encode_tlv(TAG_OCTET_STRING, value)


def encode_null() -> bytes:
    return encode_tlv(TAG_NULL, b"")


def encode_sequence(*parts: bytes) -> bytes:
    return encode_tlv(TAG_SEQUENCE, b"".join(parts))


def decode_sequence(data: bytes, offset: int = 0, tag: int = TAG_SEQUENCE) -> Tuple[bytes, int]:
    actual, content, new_offset = decode_tlv(data, offset)
    expect_tag(actual, tag, "SEQUENCE")
    return content, new_offset
