"""SNMP protocol errors and the library's exception taxonomy."""

from __future__ import annotations

from enum import IntEnum


class ErrorStatus(IntEnum):
    """PDU error-status values (RFC 3416 §3: 0-5 from RFC 1157, 6-18 v2c)."""

    NO_ERROR = 0
    TOO_BIG = 1
    NO_SUCH_NAME = 2
    BAD_VALUE = 3
    READ_ONLY = 4
    GEN_ERR = 5
    NO_ACCESS = 6
    WRONG_TYPE = 7
    WRONG_LENGTH = 8
    WRONG_ENCODING = 9
    WRONG_VALUE = 10
    NO_CREATION = 11
    INCONSISTENT_VALUE = 12
    RESOURCE_UNAVAILABLE = 13
    COMMIT_FAILED = 14
    UNDO_FAILED = 15
    AUTHORIZATION_ERROR = 16
    NOT_WRITABLE = 17
    INCONSISTENT_NAME = 18

    @classmethod
    def _missing_(cls, value: object) -> "ErrorStatus":
        return cls.GEN_ERR  # a corrupt datagram can carry anything


class SnmpError(RuntimeError):
    """Base class for manager-visible SNMP failures."""


class SnmpTimeout(SnmpError):
    """The agent never answered within timeout x retries."""

    def __init__(self, dst: str, attempts: int) -> None:
        super().__init__(f"no SNMP response from {dst} after {attempts} attempt(s)")
        self.dst = dst
        self.attempts = attempts


class SnmpErrorResponse(SnmpError):
    """The agent answered with a non-zero error-status: ``raw_status`` off
    the wire, ``status`` its :class:`ErrorStatus` (``GEN_ERR`` if unlisted)."""

    def __init__(self, status: int, index: int) -> None:
        self.raw_status = int(status)
        self.status = ErrorStatus(self.raw_status)
        super().__init__(f"SNMP error {self.status.name} at varbind index {index}")
        self.index = index
