"""SNMP protocol data units.

A PDU is ``(request-id, error-status, error-index, varbind-list)`` inside
a context-constructed TLV whose tag selects the operation.  GetBulk reuses
the two error fields as ``non-repeaters`` / ``max-repetitions`` (RFC 1905);
on the wire they stay in the error-field slots, but in this model they are
first-class named accessors valid *only* on GetBulk PDUs and validated
(non-negative) both when building a request and when decoding one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.snmp import ber
from repro.snmp.datatypes import Null, SnmpValue, decode_value
from repro.snmp.errors import ErrorStatus
from repro.snmp.oid import Oid

PDU_TAGS = {
    ber.TAG_GET_REQUEST: "get",
    ber.TAG_GET_NEXT_REQUEST: "get-next",
    ber.TAG_GET_RESPONSE: "response",
    ber.TAG_SET_REQUEST: "set",
    ber.TAG_GET_BULK_REQUEST: "get-bulk",
    ber.TAG_INFORM_REQUEST: "inform",
    ber.TAG_SNMPV2_TRAP: "trap",
}

# Agents cap the repetition count a GetBulk may request (RFC 1905 lets an
# agent return fewer rows than asked; this model clamps at a fixed bound
# so one request can never balloon into an unbounded response).
MAX_BULK_REPETITIONS = 64


@dataclass(frozen=True)
class VarBind:
    """One (name, value) pair."""

    oid: Oid
    value: SnmpValue = field(default_factory=Null)

    def encode(self) -> bytes:
        return ber.encode_sequence(ber.encode_oid(self.oid), self.value.encode())

    @staticmethod
    def decode(data: bytes, offset: int) -> Tuple["VarBind", int]:
        content, new_offset = ber.decode_sequence(data, offset)
        tag, oid_content, pos = ber.decode_tlv(content, 0)
        ber.expect_tag(tag, ber.TAG_OID, "varbind OID")
        oid = ber.decode_oid_content(oid_content)
        value, pos = decode_value(content, pos)
        if pos != len(content):
            raise ber.BerError("trailing bytes inside varbind")
        return VarBind(oid, value), new_offset


def decode_pdu_header(data: bytes, offset: int, end: int) -> Tuple[int, int, int, int, int, int]:
    """Read the fixed fields of the PDU at ``offset`` in place.

    Returns ``(tag, request_id, error_status, error_index, start, end)``:
    the varbind list is left undecoded as the byte range ``data[start:end]``
    (which is also where the PDU ends), for :func:`decode_varbinds` or a
    reader of the caller's own.
    """
    tag, pos, pdu_end = ber.tlv_span(data, offset, end)
    if tag not in PDU_TAGS:
        raise ber.BerError(f"unknown PDU tag 0x{tag:02x}")
    request_id, pos = ber.decode_integer(data, pos, pdu_end, "request-id")
    error_status, pos = ber.decode_integer(data, pos, pdu_end, "error-status")
    error_index, pos = ber.decode_integer(data, pos, pdu_end, "error-index")
    list_tag, start, stop = ber.tlv_span(data, pos, pdu_end)
    ber.expect_tag(list_tag, ber.TAG_SEQUENCE, "varbind list")
    if stop != pdu_end:
        raise ber.BerError("trailing bytes inside PDU")
    return tag, request_id, error_status, error_index, start, stop


def encode_pdu(tag: int, request_id: int, field_1: int, field_2: int, varbind_list: bytes) -> bytes:
    """The one PDU writer: ``varbind_list`` -- the encoded SEQUENCE of
    varbinds, which a sender may have kept from last time -- behind the
    three integers (error-status and error-index, or GetBulk's
    non-repeaters and max-repetitions), under ``tag``."""
    return ber.encode_tlv(
        tag,
        ber.encode_integer(request_id) + ber.encode_integer(field_1)
        + ber.encode_integer(field_2) + varbind_list,
    )


def decode_varbinds(data: bytes, start: int, end: int) -> List[VarBind]:
    """The general decoder of a varbind list left as ``data[start:end]``."""
    if end != len(data):
        data = data[:end]  # offsets stay valid; the list's end bounds every TLV in it
    varbinds: List[VarBind] = []
    while start < end:
        varbind, start = VarBind.decode(data, start)
        varbinds.append(varbind)
    return varbinds


@dataclass
class Pdu:
    """A Get/GetNext/GetBulk/Set/Response PDU."""

    pdu_type: int
    request_id: int
    error_status: int = 0  # carries non-repeaters on the wire for GetBulk
    error_index: int = 0  # carries max-repetitions on the wire for GetBulk
    varbinds: List[VarBind] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.pdu_type not in PDU_TAGS:
            raise ber.BerError(f"unknown PDU tag 0x{self.pdu_type:02x}")
        if self.pdu_type == ber.TAG_GET_BULK_REQUEST:
            if self.error_status < 0 or self.error_index < 0:
                raise ber.BerError(
                    f"GetBulk fields must be non-negative, got non-repeaters="
                    f"{self.error_status!r} max-repetitions={self.error_index!r}"
                )

    # First-class GetBulk accessors.  RFC 1905 overloads the error-field
    # wire slots, but reading "non-repeaters" off a Get or a Response is
    # a bug -- those PDUs carry an error status there.
    @property
    def non_repeaters(self) -> int:
        self._require_bulk("non_repeaters")
        return self.error_status

    @property
    def max_repetitions(self) -> int:
        self._require_bulk("max_repetitions")
        return self.error_index

    def _require_bulk(self, what: str) -> None:
        if self.pdu_type != ber.TAG_GET_BULK_REQUEST:
            raise AttributeError(
                f"{what} is only defined for get-bulk PDUs; this is a "
                f"{self.kind} PDU carrying error fields"
            )

    @property
    def kind(self) -> str:
        return PDU_TAGS[self.pdu_type]

    def encode(self) -> bytes:
        return encode_pdu(
            self.pdu_type, self.request_id, self.error_status, self.error_index,
            ber.encode_sequence(*[vb.encode() for vb in self.varbinds]),
        )

    @staticmethod
    def decode(data: bytes, offset: int = 0) -> Tuple["Pdu", int]:
        tag, request_id, error_status, error_index, start, end = decode_pdu_header(
            data, offset, len(data)
        )
        varbinds = decode_varbinds(data, start, end)
        return Pdu(tag, request_id, error_status, error_index, varbinds), end

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @staticmethod
    def get_request(request_id: int, oids: List[Oid]) -> "Pdu":
        return Pdu(ber.TAG_GET_REQUEST, request_id, 0, 0, [VarBind(o) for o in oids])

    @staticmethod
    def get_next_request(request_id: int, oids: List[Oid]) -> "Pdu":
        return Pdu(ber.TAG_GET_NEXT_REQUEST, request_id, 0, 0, [VarBind(o) for o in oids])

    @staticmethod
    def get_bulk_request(
        request_id: int, oids: List[Oid], non_repeaters: int, max_repetitions: int
    ) -> "Pdu":
        return Pdu(
            ber.TAG_GET_BULK_REQUEST,
            request_id,
            non_repeaters,
            max_repetitions,
            [VarBind(o) for o in oids],
        )

    def response(
        self,
        varbinds: List[VarBind],
        error_status: ErrorStatus = ErrorStatus.NO_ERROR,
        error_index: int = 0,
    ) -> "Pdu":
        """A response PDU echoing this request's id."""
        return Pdu(
            ber.TAG_GET_RESPONSE, self.request_id, int(error_status), error_index, varbinds
        )
