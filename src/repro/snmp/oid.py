"""SNMP object identifiers.

An OID is a sequence of non-negative integer arcs, written in dotted
notation (``1.3.6.1.2.1.2.2.1.10.3`` is ``ifInOctets`` for interface 3).
MIB traversal (GETNEXT / walking a table) depends on the *lexicographic*
order of OIDs, which :class:`Oid` gets by *being* a tuple of its arcs:
equality, ordering, hashing, length and iteration are the tuple's own and
run without a Python frame, which is what lets a sorted list of OIDs be
``bisect``-ed at C speed on the poll path.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

OidLike = Union["Oid", str, Iterable[int]]


class OidError(ValueError):
    """Raised for malformed OID literals."""


class Oid(tuple):
    """Immutable, hashable, lexicographically ordered OID."""

    __slots__ = ()

    def __new__(cls, value: OidLike) -> "Oid":
        if type(value) is Oid:
            return value
        if isinstance(value, str):
            text = value.strip().lstrip(".")
            if not text:
                raise OidError("empty OID string")
            try:
                arcs = tuple(int(part) for part in text.split("."))
            except ValueError as exc:
                raise OidError(f"malformed OID {value!r}") from exc
        else:
            arcs = tuple(int(a) for a in value)
        if not arcs:
            raise OidError("an OID needs at least one arc")
        if any(a < 0 for a in arcs):
            raise OidError(f"negative arc in OID {arcs!r}")
        return tuple.__new__(cls, arcs)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def arcs(self) -> Tuple[int, ...]:
        """The arcs as a plain tuple (slicing it yields plain tuples)."""
        return tuple(self)

    def __getitem__(self, index) -> Union[int, "Oid"]:
        part = tuple.__getitem__(self, index)
        if isinstance(index, slice):
            if not part:
                raise OidError("OID slice would be empty")
            return tuple.__new__(Oid, part)
        return part

    def extend(self, *arcs: int) -> "Oid":
        """A new OID with extra arcs appended."""
        return self + arcs if arcs else self

    def __add__(self, other: OidLike) -> "Oid":
        # Two valid OIDs concatenate to a valid OID: no re-validation.
        return tuple.__new__(Oid, tuple.__add__(self, Oid(other)))

    def startswith(self, prefix: OidLike) -> bool:
        p = Oid(prefix)
        return tuple(self)[: len(p)] == p

    def strip_prefix(self, prefix: OidLike) -> Tuple[int, ...]:
        """The arcs after ``prefix`` (raises if not actually a prefix)."""
        p = Oid(prefix)
        if not self.startswith(p):
            raise OidError(f"{self} does not start with {p}")
        return tuple(self)[len(p):]

    @property
    def parent(self) -> "Oid":
        if len(self) <= 1:
            raise OidError(f"{self} has no parent")
        return self[:-1]

    def __str__(self) -> str:
        return ".".join(map(str, self))

    def __repr__(self) -> str:
        return f"Oid('{self}')"

