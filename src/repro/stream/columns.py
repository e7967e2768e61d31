"""Per-pair stream state kept as columns.

The significance filter, the continuous queries and the publisher's
trust-status memory each keep one value (or a few) per host pair.  They
keep them in numpy arrays -- columns -- indexed by a dense *slot* per
pair key, so a publish cycle updates every candidate pair with a handful
of array operations instead of a chain of Python calls per pair.  A slot
is handed out the first time a pair is seen and kept for the life of the
owner; until its pair's first update it holds the column's *empty*
value, so a pair never seen and a pair just reset read alike.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro._numpy import np

__all__ = ["PairColumns"]

PairKey = Tuple[str, str]


class PairColumns:
    """Per-pair state in numpy arrays behind a dense slot per pair key.

    A subclass names its columns in ``_EMPTY``: attribute name -> the
    value a slot holds before its pair's first update (the value's type
    is the column's dtype).
    """

    _EMPTY: Dict[str, object] = {}

    def __init__(self) -> None:
        self._slot_of: Dict[PairKey, int] = {}
        for name, empty in self._EMPTY.items():
            setattr(self, name, np.full(0, empty))

    def slots(self, pairs: Iterable[PairKey]) -> np.ndarray:
        """Each pair's slot, a new empty one for a pair not seen before."""
        table = self._slot_of
        before = len(table)
        out = np.array(
            [table.setdefault(pair, len(table)) for pair in pairs], dtype=np.intp
        )
        extra = len(table) - before
        if extra:
            for name, empty in self._EMPTY.items():
                column = getattr(self, name)
                setattr(self, name, np.concatenate(
                    (column, np.full(extra, empty, dtype=column.dtype))
                ))
            self._grow(len(table))
        return out

    def _grow(self, size: int) -> None:
        """Slots now number ``size``: grow any state kept beside the columns."""

    def reset(self) -> None:
        """Forget all per-pair state: every slot holds its empty values."""
        for name, empty in self._EMPTY.items():
            getattr(self, name)[:] = empty
