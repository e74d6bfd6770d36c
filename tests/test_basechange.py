"""Base-change tests against wide-integer digit-extraction oracles."""

import pytest
from hypothesis import given, settings, strategies as st

import choicedict.basechange as bc
from choicedict.basechange import (
    base_to_pow2,
    change_base_batched,
    pow2_to_base,
)
from choicedict.words import BitString


# ---------------------------------------------------------------- oracles

def digits_in_base(value, base, count):
    out = []
    for _ in range(count):
        value, rem = divmod(value, base)
        out.append(rem)
    assert value == 0
    return out


def horner(digits, base):
    out = 0
    for a in reversed(digits):
        out = out * base + a
    return out


def pack_fields(digits, f):
    v = 0
    for i, a in enumerate(digits):
        v |= a << (i * f)
    return v


def unpack_fields(value, f, count):
    return [(value >> (i * f)) & ((1 << f) - 1) for i in range(count)]


def bs(value, len_bits):
    return BitString(value, len_bits)


# ---------------------------------------------------------------- examples

def test_pow2_to_base_examples():
    assert pow2_to_base(bs(pack_fields([1, 0, 1], 2), 6), 2, 2, 3).value == 5
    assert pow2_to_base(bs(pack_fields([3, 2], 3), 6), 4, 3, 2).value == 11


def test_base_to_pow2_examples():
    got = base_to_pow2(bs(10, 8), 3, 2, 4)
    assert unpack_fields(got.value, 2, 4) == [1, 0, 1, 0]
    assert base_to_pow2(bs(0, 8), 5, 3, 4).value == 0


def test_base_to_pow2_rejects_wide_value():
    with pytest.raises(ValueError):
        base_to_pow2(bs(9, 8), 3, 2, 2)


def test_batched_example():
    x = bs(pack_fields([horner([1, 0, 1], 3), horner([0, 1, 0], 3)], 6), 12)
    got = change_base_batched(x, 3, 2, 2, 3, 2)
    assert unpack_fields(got.value, 6, 2) == [5, 2]


# ---------------------------------------------------------------- exhaustive

def all_digit_tuples(limit, s):
    if s == 0:
        yield ()
        return
    for rest in all_digit_tuples(limit, s - 1):
        for a in range(limit):
            yield rest + (a,)


@pytest.mark.parametrize("c", [2, 3, 4, 5])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_digit_preservation_exhaustive(c, d):
    # Every digit tuple below min(c,d), every s <= 6, both directions.
    f = max((c - 1).bit_length(), (d - 1).bit_length(), 1)
    limit = min(c, d)
    for s in range(1, 7):
        for digits in all_digit_tuples(limit, s):
            z = bs(pack_fields(digits, f), s * f)
            y = pow2_to_base(z, d, f, s)
            assert y.value == horner(list(digits), d), (digits, c, d, s)
            back = base_to_pow2(y, d, f, s)
            assert unpack_fields(back.value, f, s) == list(digits)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_roundtrip_random(data):
    c = data.draw(st.integers(2, 9))
    s = data.draw(st.integers(1, 64))
    f = data.draw(st.integers((c - 1).bit_length(), 10))
    x = data.draw(st.integers(0, c**s - 1))
    fields = base_to_pow2(bs(x, s * f), c, f, s)
    assert unpack_fields(fields.value, f, s) == digits_in_base(x, c, s)
    assert pow2_to_base(fields, c, f, s).value == x


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_batched_equals_independent(data):
    c = data.draw(st.integers(2, 6))
    d = data.draw(st.integers(2, 6))
    s = data.draw(st.integers(1, 9))
    p = data.draw(st.integers(1, 12))
    f = max((c - 1).bit_length(), (d - 1).bit_length())
    limit = min(c, d)
    insts = [
        [data.draw(st.integers(0, limit - 1)) for _ in range(s)] for _ in range(p)
    ]
    packed = pack_fields([horner(di, c) for di in insts], s * f)
    got = change_base_batched(bs(packed, p * s * f), c, d, f, s, p)
    expect = [horner(di, d) for di in insts]
    assert unpack_fields(got.value, s * f, p) == expect


def test_same_radix_is_identity():
    x = bs(pack_fields([7, 11, 2], 8), 24)
    got = change_base_batched(x, 13, 13, 4, 2, 3)
    assert got.value == x.value


def test_debug_digit_check():
    bc.debug_checks = True
    try:
        with pytest.raises(ValueError):
            pow2_to_base(bs(pack_fields([3, 1], 2), 4), 3, 2, 2)
        got = pow2_to_base(bs(pack_fields([2, 1], 2), 4), 3, 2, 2)
        assert got.value == 5
    finally:
        bc.debug_checks = False
