"""Fixed-size c-color dictionaries that shrink when a color is absent.

A container tracks the colors of m elements (1-based).  While every
color occurs, the *standard* form is used; as soon as some color j0 is
entirely absent the state is rewritten into a *compact* form that frees
a contiguous run of payload bits for the owner.  The owner keeps the
single fullness bit; `setcolor` reports every transition so that bit
can be maintained externally.

Two variants share the interface:

* `FieldContainer` (c = 2**f): the standard form is m consecutive f-bit
  fields.  Compaction excises the absent color (an order-preserving
  relabeling onto {0..c-2}), re-bases groups of c digits from 2**f to
  c-1 so the top bit of every c*f-bit group clears, and packs the live
  bits with one multiply-and-mask pass.  Free bits: at least
  m/c - 2*c*f.

* `NumeralContainer` (any c >= 2): the standard form is the single
  integer sum(digit_i * c**i) < c**m.  Operations run on a transient
  f-bit-field image (f = ceil(log2 c)); compaction excises, re-bases
  groups of 2c digits to c-1, and packs the groups' live bits with the
  gap-closing rearrangement.  Free bits: at least m/(2c) - 3*c.

Compact image layout, least significant bits first (frozen):

    [packed group bits][surplus digit fields][Z: c presence bits][payload]

Surplus digits -- the up-to-c*c*f-1 (respectively 2c-1) elements past
the last whole group -- stay as plain f-bit fields of their original
colors.  `payload_capacity` bits above the image round-trip verbatim
through every operation that leaves the container deficient; converting
back to the standard form destroys them.
"""

from typing import NamedTuple, Optional

from .basechange import _ladder_powers, _next_pow2, base_to_pow2, change_base_batched, pow2_to_base
from .compaction import GapShape, compact_groups, compact_pow2, expand_groups, expand_pow2
from .words import (
    DEFAULT_W,
    MAX_BITS,
    BitString,
    CapacityError,
    FieldView,
    charge,
    leq_mask,
    min_zero_field,
    ones,
)


class Transition(NamedTuple):
    """What a setcolor did to the client vector.

    `was` is None exactly when the call changed nothing; `old_gone`
    reports whether the write removed the last occurrence of the old
    color and `new_first` whether it added the first occurrence of the
    new one, so owners can maintain presence summaries without a second
    decode.
    """

    kind: str  # "none" | "became_full" | "became_deficient"
    j0: Optional[int] = None
    was: Optional[int] = None
    old_gone: bool = False
    new_first: bool = False


_NONE = Transition("none")


def _skip_all(fields: int, m: int, f: int, j0: int, w: int) -> int:
    """Relabel every field past the absent color j0 down by one."""
    x = BitString(fields, m * f, w)
    y = leq_mask(x, FieldView(m, f), j0).value
    charge(m * f, w)
    return fields - (ones(m, f) - y)


def _unskip_all(fields: int, m: int, f: int, j0: int, w: int) -> int:
    if j0 == 0:
        y = 0
    else:
        x = BitString(fields, m * f, w)
        y = leq_mask(x, FieldView(m, f), j0 - 1).value
    charge(m * f, w)
    return fields + (ones(m, f) - y)


def _unskip_one(d: int, j0: int) -> int:
    return d if d < j0 else d + 1


def _succ_in_fields(fields: int, m: int, f: int, j: int, l: int, w: int) -> int:
    """min{i > l : field i-1 == j} or 0, by zero-field search."""
    if l >= m:
        return 0
    lo = max(0, l)
    x = fields ^ (j * ones(m, f))
    if lo:
        x |= ones(lo, f)  # poison the fields at or below position l
    charge(m * f, w, 2)
    hit = min_zero_field(BitString(x, m * f, w), FieldView(m, f))
    return hit or 0


def _occurs(fields: int, m: int, f: int, j: int, w: int) -> bool:
    return _succ_in_fields(fields, m, f, j, 0, w) != 0


class _ContainerBase:
    """State engine shared by both variants.

    Subclasses provide the geometry plus `_fields_of` / `_image_of`
    (conversions between the full digit-field view and the stored
    form) and `_color_stored` (single-element read).
    """

    def __init__(self, m: int, c: int, w: int = DEFAULT_W):
        if m < 1:
            raise ValueError("need at least one element")
        if c < 2:
            raise ValueError("need at least two colors")
        self.m = m
        self.c = c
        self.w = w
        self.full = False

    # -- geometry hooks set by subclasses ------------------------------
    #   self.f            field width of the digit view
    #   self._image_bits  occupied bits of the compact image
    #   self.payload_capacity

    @property
    def _zoff(self) -> int:
        return self._image_bits - self.c

    def _init_compact_zero(self) -> None:
        # All elements color 0: excised digits are all zero, so every
        # packed region is zero and only Z (color 0 present) survives.
        self._state = 1 << self._zoff
        charge(self.m * self.f + self.c, self.w)

    def _z(self) -> int:
        charge(self.c, self.w)
        return (self._state >> self._zoff) & ((1 << self.c) - 1)

    def _j0(self) -> int:
        absent = ~self._z() & ((1 << self.c) - 1)
        return (absent & -absent).bit_length() - 1

    # -- public surface ------------------------------------------------

    def color(self, l: int) -> int:
        if not 1 <= l <= self.m:
            raise IndexError(f"element {l} outside 1..{self.m}")
        return self._color_stored(l)

    def successor(self, j: int, l: int) -> int:
        if not 0 <= j < self.c:
            raise IndexError(f"color {j} outside 0..{self.c - 1}")
        if not self.full and not (self._z() >> j) & 1:
            return 0
        return _succ_in_fields(self._fields(), self.m, self.f, j, l, self.w)

    def setcolor(self, j: int, l: int) -> Transition:
        if not 1 <= l <= self.m:
            raise IndexError(f"element {l} outside 1..{self.m}")
        if not 0 <= j < self.c:
            raise IndexError(f"color {j} outside 0..{self.c - 1}")
        m, f, w = self.m, self.f, self.w
        fields = self._fields()
        off = (l - 1) * f
        o = (fields >> off) & ((1 << f) - 1)
        if o == j:
            return _NONE
        fields &= ~(((1 << f) - 1) << off)
        fields |= j << off
        charge(f, w)
        if self.full:
            if _occurs(fields, m, f, o, w):
                self._store_full(fields)
                return Transition("none", None, o)
            self.full = False
            z = (((1 << self.c) - 1) ^ (1 << o)) | (1 << j)
            self._store_compact(fields, z, payload=0)
            return Transition("became_deficient", o, o, True)
        z_pre = self._z()
        fresh = not (z_pre >> j) & 1
        z = z_pre | (1 << j)
        gone = not _occurs(fields, m, f, o, w)
        if gone:
            z &= ~(1 << o)
        if z == (1 << self.c) - 1:
            self.full = True
            self._store_full(fields)  # payload bits die with the free space
            return Transition("became_full", None, o, False, True)
        payload = self._payload_raw()
        self._store_compact(fields, z, payload)
        return Transition("none", None, o, gone, fresh)

    # -- payload -------------------------------------------------------

    def _payload_raw(self) -> int:
        return (self._state >> self._image_bits) & ((1 << self.payload_capacity) - 1)

    # -- state plumbing ------------------------------------------------

    def _fields(self) -> int:
        if self.full:
            return self._fields_of_full(self._state)
        return self._fields_of_compact(self._state & ((1 << self._image_bits) - 1))

    def _store_full(self, fields: int) -> None:
        self._state = self._image_of_full(fields)

    def _store_compact(self, fields: int, z: int, payload: int) -> None:
        absent = ~z & ((1 << self.c) - 1)
        j0 = (absent & -absent).bit_length() - 1
        img = self._image_of_compact(fields, j0) | (z << self._zoff)
        self._state = img | (payload << self._image_bits)

    def _color_stored(self, l: int) -> int:
        raise NotImplementedError

    # -- checking ------------------------------------------------------

    def bits_used(self) -> int:
        return self._standard_bits if self.full else self._image_bits

    def validate(self) -> list:
        bad = []
        try:
            fields = self._fields()
        except Exception as e:  # pragma: no cover - structural corruption
            return [f"state does not decode: {e}"]
        mask = (1 << self.f) - 1
        present = 0
        for i in range(self.m):
            present |= 1 << ((fields >> (i * self.f)) & mask)
        if present >> self.c:
            bad.append("digit out of range")
        is_full = present == (1 << self.c) - 1
        if self.full != is_full:
            bad.append(f"fullness flag {self.full} but presence says {is_full}")
        if not self.full:
            if self._z() != present:
                bad.append(f"Z={self._z():b} but presence={present:b}")
            if self._state >> (self._image_bits + self.payload_capacity):
                bad.append("bits set above the payload region")
        else:
            if self._state >> self._standard_bits:
                bad.append("bits set above the standard form")
        if self.payload_capacity < self._capacity_floor:
            bad.append(
                f"payload capacity {self.payload_capacity} below the "
                f"guaranteed {self._capacity_floor}"
            )
        return bad


class FieldContainer(_ContainerBase):
    """Power-of-2 colors held in m consecutive f-bit fields."""

    def __init__(self, m: int, c: int, w: int = DEFAULT_W):
        super().__init__(m, c, w)
        if c & (c - 1):
            raise ValueError("this variant needs a power-of-2 color count")
        f = c.bit_length() - 1
        if m * f > MAX_BITS:
            raise CapacityError(f"{m}*{f} state bits exceed MAX_BITS")
        self.f = f
        self._g = c * f
        self._m_main = m - m % (c * c * f)
        self._h = self._m_main // c
        packed = self._h * (self._g - 1) if self._m_main else 0
        self._image_bits = packed + (m - self._m_main) * f + c
        self._standard_bits = m * f
        self.payload_capacity = max(0, m * f - self._image_bits)
        self._capacity_floor = max(0, m // c - 2 * c * f)
        self._init_compact_zero()

    def _color_stored(self, l: int) -> int:
        m, f, w = self.m, self.f, self.w
        p = l - 1
        charge(f, w)
        if self.full:
            return (self._state >> (p * f)) & ((1 << f) - 1)
        if p >= self._m_main:  # surplus digits sit beyond the packed part
            packed = self._h * (self._g - 1) if self._m_main else 0
            off = packed + (p - self._m_main) * f
            return (self._state >> off) & ((1 << f) - 1)
        packed = self._h * (self._g - 1)
        u = expand_pow2(
            BitString(self._state & ((1 << packed) - 1), packed, w), self._g, self._h
        )
        gi = p // self.c
        gv = (u.value >> (gi * self._g)) & ((1 << self._g) - 1)
        if self.c > 2:
            digits = base_to_pow2(BitString(gv, self._g, w), self.c - 1, f, self.c)
            d = (digits.value >> ((p % self.c) * f)) & ((1 << f) - 1)
        else:
            d = 0  # one remaining color: every excised digit is zero
        return _unskip_one(d, self._j0())

    def _fields_of_full(self, state: int) -> int:
        return state

    def _image_of_full(self, fields: int) -> int:
        charge(self.m * self.f, self.w)
        return fields

    def _fields_of_compact(self, img: int) -> int:
        m, c, f, w = self.m, self.c, self.f, self.w
        j0 = self._j0()
        if self._m_main:
            packed = self._h * (self._g - 1)
            u = expand_pow2(BitString(img & ((1 << packed) - 1), packed, w), self._g, self._h)
            main = u.value
            if c > 2:
                main = change_base_batched(
                    BitString(main, self._m_main * f, w), c - 1, 1 << f, f, c, self._h
                ).value
            main = _unskip_all(main, self._m_main, f, j0, w)
        else:
            packed = 0
            main = 0
        surplus = (img >> packed) & ((1 << ((m - self._m_main) * f)) - 1)
        return main | (surplus << (self._m_main * f))

    def _image_of_compact(self, fields: int, j0: int) -> int:
        m, c, f, w = self.m, self.c, self.f, self.w
        if not self._m_main:
            return fields  # everything is surplus; Z is OR-ed in by the caller
        main = fields & ((1 << (self._m_main * f)) - 1)
        main = _skip_all(main, self._m_main, f, j0, w)
        if c > 2:
            main = change_base_batched(
                BitString(main, self._m_main * f, w), 1 << f, c - 1, f, c, self._h
            ).value
        packed = compact_pow2(BitString(main, self._m_main * f, w), self._g, self._h)
        surplus = fields >> (self._m_main * f)
        return packed.value | (surplus << packed.len_bits)


class NumeralContainer(_ContainerBase):
    """Any color count, the state stored as one base-c numeral."""

    def __init__(self, m: int, c: int, w: int = DEFAULT_W):
        super().__init__(m, c, w)
        f = (c - 1).bit_length()
        if m * f > MAX_BITS:
            raise CapacityError(f"{m}*{f} working bits exceed MAX_BITS")
        self.f = f
        self._G = m // (2 * c)
        self._m_main = 2 * c * self._G
        self._u = ((c - 1) ** (2 * c) - 1).bit_length()
        self._shape = GapShape(self._G, 2 * c * f, self._u) if self._G and self._u else None
        # With three colors the excised digits are plain bits, so the
        # re-base + gap-closing pipeline reduces to one spread/gather.
        self._fast3 = c == 3
        packed = self._G * self._u
        self._image_bits = packed + (m - self._m_main) * f + c
        self._standard_bits = (c**m - 1).bit_length()
        floor_mlogc = (c**m).bit_length() - 1
        self.payload_capacity = max(0, floor_mlogc - self._image_bits)
        self._capacity_floor = max(0, m // (2 * c) - 3 * c)
        self._init_compact_zero()

    def _packed_bits(self) -> int:
        return self._G * self._u

    def _color_stored(self, l: int) -> int:
        m, c, f, w = self.m, self.c, self.f, self.w
        p = l - 1
        if self.full:
            # Single-branch descent of the halving ladder: one divmod per
            # round on an operand that halves each time, ~2 passes total.
            x = self._state
            for r, b in reversed(_ladder_powers(c, f, _next_pow2(m))):
                half = r // f
                if p >= half:
                    x //= b
                    p -= half
                else:
                    x %= b
            charge(self._standard_bits, w, 2)
            return x
        packed = self._packed_bits()
        if p >= self._m_main:
            off = packed + (p - self._m_main) * f
            charge(f, w)
            return (self._state >> off) & ((1 << f) - 1)
        if self._fast3:
            spread = expand_pow2(
                BitString(self._state & ((1 << packed) - 1), packed, w), 2, self._m_main
            )
            d = (spread.value >> (p * f)) & ((1 << f) - 1)
            return _unskip_one(d, self._j0())
        gi = p // (2 * c)
        if self._shape is not None:
            spread = expand_groups(
                BitString(self._state & ((1 << packed) - 1), packed, w), self._shape
            )
            gv = (spread.value >> (gi * 2 * c * f)) & ((1 << (2 * c * f)) - 1)
        else:
            gv = 0
        if c > 2:
            digits = base_to_pow2(BitString(gv, 2 * c * f, w), c - 1, f, 2 * c)
            d = (digits.value >> ((p % (2 * c)) * f)) & ((1 << f) - 1)
        else:
            d = 0
        return _unskip_one(d, self._j0())

    def _fields_of_full(self, state: int) -> int:
        return base_to_pow2(
            BitString(state, self._standard_bits, self.w), self.c, self.f, self.m
        ).value

    def _image_of_full(self, fields: int) -> int:
        val = pow2_to_base(BitString(fields, self.m * self.f, self.w), self.c, self.f, self.m)
        return val.value

    def _fields_of_compact(self, img: int) -> int:
        m, c, f, w = self.m, self.c, self.f, self.w
        j0 = self._j0()
        packed = self._packed_bits()
        if self._m_main:
            if self._fast3:
                main = expand_pow2(
                    BitString(img & ((1 << packed) - 1), packed, w), 2, self._m_main
                ).value
            else:
                if self._shape is not None:
                    spread = expand_groups(
                        BitString(img & ((1 << packed) - 1), packed, w), self._shape
                    ).value
                else:
                    spread = 0
                main = spread
                if c > 2:
                    main = change_base_batched(
                        BitString(main, self._m_main * f, w), c - 1, 1 << f, f, 2 * c, self._G
                    ).value
            main = _unskip_all(main, self._m_main, f, j0, w)
        else:
            main = 0
        surplus = (img >> packed) & ((1 << ((m - self._m_main) * f)) - 1)
        return main | (surplus << (self._m_main * f))

    def _image_of_compact(self, fields: int, j0: int) -> int:
        m, c, f, w = self.m, self.c, self.f, self.w
        if not self._m_main:
            return fields
        main = fields & ((1 << (self._m_main * f)) - 1)
        main = _skip_all(main, self._m_main, f, j0, w)
        if self._fast3:
            packed = compact_pow2(BitString(main, self._m_main * f, w), 2, self._m_main)
            pv, pb = packed.value, packed.len_bits
        else:
            if c > 2:
                main = change_base_batched(
                    BitString(main, self._m_main * f, w), 1 << f, c - 1, f, 2 * c, self._G
                ).value
            if self._shape is not None:
                packed, _ = compact_groups(BitString(main, self._m_main * f, w), self._shape)
                pv, pb = packed.value, packed.len_bits
            else:
                pv, pb = 0, 0
        surplus = fields >> (self._m_main * f)
        return pv | (surplus << pb)


def create(m: int, c: int, w: int = DEFAULT_W):
    """A fresh all-color-0 container; the variant follows the color count."""
    if c >= 2 and not c & (c - 1):
        return FieldContainer(m, c, w)
    return NumeralContainer(m, c, w)
