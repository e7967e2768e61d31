"""Bit-granular buffers underneath the chunk codecs.

The codecs emit variable-width fields (1-bit controls, 7-bit deltas,
64-bit raw floats), so byte-oriented buffers would waste most of the
compression win.  :class:`BitWriter` accumulates bits into a Python int
and flushes whole bytes into a ``bytearray``; :class:`BitReader` walks
the result.  Both treat the stream as big-endian within and across
bytes: the first bit written is the most significant bit of byte 0.
"""

from __future__ import annotations


class BitWriter:
    """Append-only bit stream."""

    __slots__ = ("_buf", "_acc", "_nacc", "bit_length")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0  # pending bits, right-aligned
        self._nacc = 0  # how many pending bits
        self.bit_length = 0

    def write_bit(self, bit: int) -> None:
        self.write_bits(bit & 1, 1)

    def write_bits(self, value: int, nbits: int) -> None:
        """Write the low ``nbits`` of non-negative ``value``."""
        if nbits == 0:
            return
        self._acc = (self._acc << nbits) | (value & ((1 << nbits) - 1))
        self._nacc += nbits
        self.bit_length += nbits
        while self._nacc >= 8:
            self._nacc -= 8
            self._buf.append((self._acc >> self._nacc) & 0xFF)
        # Keep the accumulator small (only the residual bits matter).
        self._acc &= (1 << self._nacc) - 1

    def to_bytes(self) -> bytes:
        """The stream so far, zero-padded to a whole byte."""
        if self._nacc:
            return bytes(self._buf) + bytes(
                [(self._acc << (8 - self._nacc)) & 0xFF]
            )
        return bytes(self._buf)

    def __len__(self) -> int:
        return self.bit_length


class BitReader:
    """Sequential reader over bytes produced by :class:`BitWriter`."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # bit offset

    def read_bit(self) -> int:
        pos = self._pos
        if (pos >> 3) >= len(self._data):
            raise EOFError(
                f"bit stream exhausted: want 1 bit at offset {pos}, "
                f"have {len(self._data) * 8}"
            )
        byte = self._data[pos >> 3]
        self._pos = pos + 1
        return (byte >> (7 - (pos & 7))) & 1

    def read_bits(self, nbits: int) -> int:
        """The next ``nbits`` as a non-negative int."""
        if nbits == 0:
            return 0
        pos = self._pos
        end = pos + nbits
        if (end + 7) >> 3 > len(self._data):
            raise EOFError(
                f"bit stream exhausted: want {nbits} bits at offset {pos}, "
                f"have {len(self._data) * 8}"
            )
        first = pos >> 3
        last = (end - 1) >> 3
        window = int.from_bytes(self._data[first : last + 1], "big")
        shift = (last + 1) * 8 - end
        self._pos = end
        return (window >> shift) & ((1 << nbits) - 1)


def zigzag_encode(value: int) -> int:
    """Map signed ints to unsigned so small magnitudes stay small."""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def zigzag_decode(value: int) -> int:
    return (value >> 1) if not (value & 1) else -((value + 1) >> 1)
