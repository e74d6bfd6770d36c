"""Kernel tests: every word-parallel answer is checked against a plain
per-field scan written independently below."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from choicedict.words import (
    BitString,
    FieldView,
    leq_mask,
    min_zero_field,
    regionwise_div_int,
)


# ---------------------------------------------------------------- oracles

def fields_of(value, m, f):
    """Field tuple (a_1..a_m) of a value, plain shifts."""
    return [(value >> (i * f)) & ((1 << f) - 1) for i in range(m)]


def pack_fields(fields, f):
    v = 0
    for i, a in enumerate(fields):
        v |= a << (i * f)
    return v


def scan_min_zero(fields):
    for i, a in enumerate(fields):
        if a == 0:
            return i + 1
    return None


def scan_leq(fields, k):
    return [1 if k >= a else 0 for a in fields]


def bs(value, len_bits, w=64):
    return BitString(value, len_bits, w)


# ---------------------------------------------------------------- field scans

def test_min_zero_spec_examples():
    v = FieldView(3, 1)
    assert min_zero_field(bs(0b111, 3), v) is None
    assert min_zero_field(bs(0b001, 3), v) == 2


def test_leq_spec_examples():
    v = FieldView(3, 3)
    x = bs(pack_fields([2, 5, 0], 3), 9)
    assert fields_of(leq_mask(x, v, 3).value, 3, 3) == [1, 0, 1]
    assert fields_of(leq_mask(x, v, 7).value, 3, 3) == [1, 1, 1]
    xpos = bs(pack_fields([2, 5, 1], 3), 9)
    assert fields_of(leq_mask(xpos, v, 0).value, 3, 3) == [0, 0, 0]


def all_views(max_bits):
    for m in range(1, max_bits + 1):
        for f in range(1, max_bits // m + 1):
            yield m, f


def test_scans_exhaustive_small():
    # Full sweep over every shape with m*f <= 10 and every value; the
    # acceptance suite pushes this to 16 bits.
    for m, f in all_views(10):
        v = FieldView(m, f)
        for value in range(1 << (m * f)):
            x = bs(value, m * f)
            fl = fields_of(value, m, f)
            assert min_zero_field(x, v) == scan_min_zero(fl)


def test_leq_exhaustive_small():
    for m, f in all_views(8):
        v = FieldView(m, f)
        ks = range(1 << f) if f <= 3 else (0, 1, (1 << f) - 1, 1 << (f - 1))
        for value in range(1 << (m * f)):
            fl = fields_of(value, m, f)
            for k in ks:
                got = fields_of(leq_mask(bs(value, m * f), v, k).value, m, f)
                assert got == scan_leq(fl, k), (m, f, value, k)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_scans_random_large(data):
    m = data.draw(st.integers(1, 80))
    f = data.draw(st.integers(1, 24))
    value = data.draw(st.integers(0, (1 << (m * f)) - 1))
    k = data.draw(st.integers(0, (1 << f) - 1))
    v = FieldView(m, f)
    x = bs(value, m * f)
    fl = fields_of(value, m, f)
    assert min_zero_field(x, v) == scan_min_zero(fl)
    assert fields_of(leq_mask(x, v, k).value, m, f) == scan_leq(fl, k)


def test_leq_rejects_out_of_range_k():
    with pytest.raises(ValueError):
        leq_mask(bs(0, 4), FieldView(2, 2), 4)


# ---------------------------------------------------------------- regionwise_div_int

def scan_regionwise(value, b, r, p):
    out = 0
    for j in range(p):
        a = (value >> (r * j)) & ((1 << r) - 1)
        out |= (a // b) << (r * j)
    return out


def test_regionwise_spec_examples():
    x = pack_fields([7, 10, 3], 4)
    assert fields_of(regionwise_div_int(x, 3, 4, 3), 3, 4) == [2, 3, 1]
    assert regionwise_div_int(x, 1, 4, 3) == x
    assert regionwise_div_int(x, 16, 4, 3) == 0


def test_regionwise_exhaustive_divisors_small():
    rng = random.Random(1)
    for r in range(1, 7):
        p = 5
        for b in range(1, (1 << r) + 1):
            for _ in range(8):
                value = rng.getrandbits(r * p)
                got = regionwise_div_int(value, b, r, p)
                assert got == scan_regionwise(value, b, r, p), (r, b, value)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_regionwise_random(data):
    r = data.draw(st.integers(1, 12))
    p = data.draw(st.integers(1, 40))
    b = data.draw(st.integers(1, 1 << r))
    value = data.draw(st.integers(0, (1 << (r * p)) - 1))
    assert regionwise_div_int(value, b, r, p) == scan_regionwise(value, b, r, p)


def test_regionwise_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        regionwise_div_int(0, 0, 4, 2)


# ---------------------------------------------------------------- BitString

def test_bitstring_word_view_roundtrip():
    x = BitString(0x30000000000000001, 66)
    assert x.words == [1, 3]
    assert BitString.from_words([1, 3], 66) == x


def test_bitstring_rejects_oversized_value():
    with pytest.raises(ValueError):
        BitString(16, 4)
