"""The SNMP message envelope: version + community string + PDU.

RFC 1157 (v1) and RFC 1901 (v2c) share this trivial-authentication
envelope; the version integer distinguishes them (0 = v1, 1 = v2c) and
selects the agent's error semantics (v1 answers misses with noSuchName,
v2c with per-varbind exception values).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from repro.snmp import ber
from repro.snmp.pdu import Pdu, VarBind, decode_pdu_header, decode_varbinds

VERSION_1 = 0
VERSION_2C = 1

_KNOWN_VERSIONS = {VERSION_1, VERSION_2C}

# Bounds of the memo below, in entries and in bytes per entry: the longest
# poll request (a GET of eight columns of 64 rows) is 9 KB, a peer's 64 KB.
_MEMO_LISTS, _MEMO_LIST_BYTES = 64, 16384


@lru_cache(maxsize=_MEMO_LISTS)
def _decoded(varbind_list: bytes) -> Tuple[VarBind, ...]:
    """:func:`decode_varbinds`, remembered by the list's bytes: a poller
    sends the same list every cycle, to every agent it polls alike.  The
    tuple is shared and its varbinds immutable; a ``BerError`` is not
    remembered, it is raised anew."""
    return tuple(decode_varbinds(varbind_list, 0, len(varbind_list)))


@dataclass
class Message:
    version: int
    community: str
    pdu: Pdu

    def __post_init__(self) -> None:
        if self.version not in _KNOWN_VERSIONS:
            raise ber.BerError(f"unsupported SNMP version {self.version!r}")

    def encode(self) -> bytes:
        return encode_message(self.version, self.community, self.pdu.encode())

    @staticmethod
    def decode(data: bytes) -> "Message":
        version, community, tag, request_id, status, index, start, end = decode_header(data)
        if end - start > _MEMO_LIST_BYTES:
            pdu = Pdu(tag, request_id, status, index, decode_varbinds(data, start, end))
        else:
            pdu = Pdu(tag, request_id, status, index, list(_decoded(data[start:end])))
        return Message(version, community, pdu)


def encode_message(version: int, community: str, pdu: bytes) -> bytes:
    """The one envelope writer: an encoded PDU (:func:`~repro.snmp.pdu.
    encode_pdu`) under version and community.  Refuses the versions
    :func:`decode_header` refuses."""
    if version not in _KNOWN_VERSIONS:
        raise ber.BerError(f"unsupported SNMP version {version!r}")
    return ber.encode_sequence(
        ber.encode_integer(version), ber.encode_octet_string(community.encode()), pdu
    )


def decode_header(data: bytes) -> Tuple[int, str, int, int, int, int, int, int]:
    """Read a message's fixed fields in place: the one header parser.

    Returns ``(version, community, pdu_tag, request_id, error_status,
    error_index, start, end)`` with the varbind list left undecoded as
    ``data[start:end]`` (see :func:`~repro.snmp.pdu.decode_pdu_header`).
    An RFC 1157 Trap-PDU (tag 0xA4) is no PDU this stack speaks: its tag
    is refused like any unknown one.
    """
    tag, pos, end = ber.tlv_span(data, 0, len(data))
    ber.expect_tag(tag, ber.TAG_SEQUENCE, "SEQUENCE")
    if end != len(data):
        raise ber.BerError("trailing bytes after SNMP message")
    version, pos = ber.decode_integer(data, pos, end, "version")
    if version not in _KNOWN_VERSIONS:
        raise ber.BerError(f"unsupported SNMP version {version!r}")
    tag, start, pos = ber.tlv_span(data, pos, end)
    ber.expect_tag(tag, ber.TAG_OCTET_STRING, "community")
    community = data[start:pos].decode(errors="replace")
    fields = decode_pdu_header(data, pos, end)
    if fields[-1] != end:
        raise ber.BerError("trailing bytes inside SNMP message")
    return (version, community) + fields
