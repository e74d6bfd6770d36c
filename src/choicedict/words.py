"""Broadword and multiword arithmetic kernels.

Everything here operates on fixed-length bit sequences addressed as
little-endian machine words of a configurable width ``w`` (default 64).
A sequence doubles as an unsigned integer: bit ``i`` of the value is bit
``i mod w`` of word ``i // w``.  Field and region indices are 1-based
throughout, matching the conventions of the structures built on top.

The kernels are written against Python's unbounded integers, which on
CPython are themselves arrays of machine words; a separate analytic
word-operation counter (`op_count`) charges ``ceil(len/w)`` per pass so
tests can assert cost shapes without timing anything.
"""

from functools import lru_cache
from typing import NamedTuple, Optional

#: Hard cap on the length of any single bit string (2^26 bits = 8 MiB).
MAX_BITS = 1 << 26

DEFAULT_W = 64


class CapacityError(ValueError):
    """A requested bit length exceeds MAX_BITS."""


_op_count = 0


def charge(len_bits: int, w: int = DEFAULT_W, passes: int = 1) -> None:
    """Account for `passes` sweeps over a len_bits-wide operand."""
    global _op_count
    _op_count += passes * ((len_bits + w - 1) // w or 1)


def op_count() -> int:
    return _op_count


def reset_op_count() -> None:
    global _op_count
    _op_count = 0


class BitString:
    """A fixed-length bit sequence backed by one unbounded integer.

    >>> x = BitString(0b1011, 6)
    >>> x.words
    [11]
    >>> x.bit(0), x.bit(2)
    (1, 0)
    """

    __slots__ = ("value", "len_bits", "w")

    def __init__(self, value: int = 0, len_bits: int = 0, w: int = DEFAULT_W):
        if len_bits < 0 or len_bits > MAX_BITS:
            raise CapacityError(f"len_bits={len_bits} outside [0, {MAX_BITS}]")
        if w < 1:
            raise ValueError("word width must be positive")
        if value < 0 or value >> len_bits:
            raise ValueError("value does not fit in len_bits")
        self.value = value
        self.len_bits = len_bits
        self.w = w

    @classmethod
    def from_words(cls, words, len_bits: int, w: int = DEFAULT_W) -> "BitString":
        value = 0
        for i, word in enumerate(words):
            if word < 0 or word >> w:
                raise ValueError(f"word {i} does not fit in {w} bits")
            value |= word << (i * w)
        return cls(value, len_bits, w)

    @property
    def words(self):
        """Little-endian word view of the value."""
        n = max(1, -(-self.len_bits // self.w))
        mask = (1 << self.w) - 1
        return [(self.value >> (i * self.w)) & mask for i in range(n)]

    def bit(self, i: int) -> int:
        """Bit at 0-based position i."""
        if not 0 <= i < self.len_bits:
            raise IndexError(i)
        return (self.value >> i) & 1

    def __eq__(self, other):
        if isinstance(other, BitString):
            return self.value == other.value and self.len_bits == other.len_bits
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.len_bits))

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"BitString({self.value:#x}, {self.len_bits})"


class FieldView(NamedTuple):
    """A view of a BitString as m fields of f bits each."""

    m: int
    f: int


def _check_view(x: BitString, v: FieldView) -> None:
    if v.m < 1 or v.f < 1:
        raise ValueError("field view needs m >= 1 and f >= 1")
    if v.m * v.f > x.len_bits:
        raise ValueError(f"view {v} does not fit in {x.len_bits} bits")


@lru_cache(maxsize=None)
def ones(m: int, f: int) -> int:
    """The integer with a 1 in each of m fields of width f."""
    return ((1 << (m * f)) - 1) // ((1 << f) - 1)


@lru_cache(maxsize=None)
def high_bits(m: int, f: int) -> int:
    """The integer with bit f-1 set in each of m fields of width f."""
    return ones(m, f) << (f - 1)


def _nonzero_high(xv: int, m: int, f: int) -> int:
    # Bit f-1 of each field of the result is set iff that field of xv is
    # nonzero; all other bits are clear.
    if f == 1:
        return xv
    h = high_bits(m, f)
    low_mask = h - ones(m, f)
    d = (xv & low_mask) + low_mask
    return (d | xv) & h


def _lsb_index(v: int) -> int:
    return (v & -v).bit_length() - 1


def min_zero_field(x: BitString, v: FieldView) -> Optional[int]:
    """1-based index of the first all-zero field, or None."""
    _check_view(x, v)
    m, f = v
    xv = x.value & ((1 << (m * f)) - 1)
    z = _nonzero_high(xv, m, f) ^ high_bits(m, f)
    charge(m * f, x.w, 5)
    if z == 0:
        return None
    return _lsb_index(z) // f + 1


def _leq_mask_int(xv: int, m: int, f: int, k: int) -> int:
    one = ones(m, f)
    if f == 1:
        return one if k else ~xv & one
    h = high_bits(m, f)
    low_mask = h - one
    t = ((k & (low_mask & ((1 << f) - 1))) * one + h) - (xv & low_mask)
    if k >> (f - 1):
        comb = (~xv & h) | (t & h)
    else:
        comb = (~xv & h) & t
    return comb >> (f - 1)


def leq_mask(x: BitString, v: FieldView, k: int) -> BitString:
    """Field i of the result is 1 if k >= a_i, else 0."""
    _check_view(x, v)
    m, f = v
    if not 0 <= k < (1 << f):
        raise ValueError(f"k={k} outside [0, 2^{f})")
    xv = x.value & ((1 << (m * f)) - 1)
    charge(m * f, x.w, 5)
    return BitString(_leq_mask_int(xv, m, f, k), m * f, x.w)


@lru_cache(maxsize=None)
def _region_phase_mask(p: int, r: int, phase: int) -> int:
    low = (1 << r) - 1
    out = 0
    for j in range(phase, p, 3):
        out |= low << (r * j)
    return out


@lru_cache(maxsize=None)
def _approx_inverse(b: int, r: int) -> int:
    return -(-(1 << (2 * r)) // b)


def regionwise_div_int(xv: int, b: int, r: int, p: int) -> int:
    """Divide each of the p lowest r-bit regions of xv by b >= 1, truncating.

    Multiplies by the approximate inverse ceil(2^{2r}/b) and keeps bits
    [2r, 3r) of each product; regions are processed in three interleaved
    rounds (every third region) so the 3r-bit products cannot collide.
    Exact when b <= 2^r.
    """
    if b == 1:
        return xv
    q = _approx_inverse(b, r)
    r2 = 2 * r
    out = 0
    for phase in range(3):
        mask = _region_phase_mask(p, r, phase)
        out |= (((xv & mask) * q) >> r2) & mask
    return out
