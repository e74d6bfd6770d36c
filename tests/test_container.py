import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicedict.container import FieldContainer, NumeralContainer, Transition, create
from choicedict.words import CapacityError


def colors_of(d):
    return [d.color(i) for i in range(1, d.m + 1)]


def naive_successor(colors, j, l):
    for i in range(max(0, l) + 1, len(colors) + 1):
        if colors[i - 1] == j:
            return i
    return 0


def check_against(d, colors):
    assert d.validate() == []
    assert colors_of(d) == colors
    assert d.full == (len(set(colors)) == d.c)
    for j in range(d.c):
        for l in range(-1, d.m + 2):
            assert d.successor(j, l) == naive_successor(colors, j, l)


def test_factory_picks_variant():
    assert isinstance(create(6, 4), FieldContainer)
    assert isinstance(create(6, 2), FieldContainer)
    assert isinstance(create(6, 3), NumeralContainer)
    assert isinstance(create(6, 5), NumeralContainer)


@pytest.mark.parametrize(
    "make,full",
    [(lambda: FieldContainer(4, 4), False), (lambda: NumeralContainer(4, 3), True)],
)
def test_known_successor_answers(make, full):
    d = make()
    d.setcolor(2, 2)
    d.setcolor(1, 3)
    d.setcolor(2, 4)
    assert colors_of(d) == [0, 2, 1, 2]
    assert d.successor(2, 1) == 2
    assert d.successor(1, 3) == 0
    assert d.successor(2, 2) == 4
    assert d.successor(0, 0) == 1
    assert d.full is full  # with three colors the vector (0,2,1,2) is full


def test_fresh_container_is_compact_all_zero():
    for m, c in [(1, 2), (5, 3), (16, 4), (40, 8)]:
        d = create(m, c, w=32)
        assert colors_of(d) == [0] * m
        assert not d.full
        assert d._z() == 1  # only color 0 present
        assert d.bits_used() == d._image_bits
        assert d._state >> d._image_bits == 0  # no payload bits set
        assert d.validate() == []


def test_transition_reporting():
    d = FieldContainer(4, 4)
    assert d.setcolor(0, 1) == Transition("none")
    assert d.setcolor(2, 2).kind == "none"
    assert d.setcolor(1, 3).kind == "none"
    tr = d.setcolor(3, 4)
    assert tr == Transition("became_full", was=0, new_first=True)
    assert d.full
    assert d.bits_used() == d.m * d.f
    # overwriting the only element of color 3 frees that color again
    tr = d.setcolor(0, 4)
    assert tr == Transition("became_deficient", 3, was=3, old_gone=True)
    assert not d.full
    check_against(d, [0, 2, 1, 0])


def test_full_state_round_trips_colors():
    rng = random.Random(5)
    for cls, c in [(FieldContainer, 4), (NumeralContainer, 5)]:
        m = 3 * c
        d = cls(m, c, w=32)
        colors = [0] * m
        for _ in range(200):
            j, l = rng.randrange(c), rng.randrange(1, m + 1)
            d.setcolor(j, l)
            colors[l - 1] = j
        check_against(d, colors)


@pytest.mark.parametrize("cls,cs", [(FieldContainer, (2, 4)), (NumeralContainer, (2, 3, 4))])
def test_exhaustive_small(cls, cs):
    # Every reachable color vector for m <= 4, and every single setcolor
    # out of it, against the naive array.
    for c in cs:
        for m in range(1, 5):
            for code in range(c**m):
                colors = [(code // c**i) % c for i in range(m)]
                d = cls(m, c, w=16)
                for i, j in enumerate(colors):
                    if j:
                        d.setcolor(j, i + 1)
                check_against(d, colors)
                for l in range(1, m + 1):
                    for j in range(c):
                        e = cls(m, c, w=16)
                        for i, jj in enumerate(colors):
                            if jj:
                                e.setcolor(jj, i + 1)
                        before_full = e.full
                        old = colors[l - 1]
                        tr = e.setcolor(j, l)
                        after = colors.copy()
                        after[l - 1] = j
                        check_against(e, after)
                        if e.full and not before_full:
                            assert tr.kind == "became_full"
                        elif before_full and not e.full:
                            assert tr == Transition("became_deficient", old, old, True)
                        else:
                            assert tr.kind == "none"
                        if j == old:
                            assert tr.was is None
                        else:
                            assert tr.was == old
                            assert tr.old_gone == (old not in after)
                            assert tr.new_first == (j not in colors)


def test_variants_agree_on_power_of_two_colors():
    rng = random.Random(9)
    a = FieldContainer(19, 4, w=32)
    b = NumeralContainer(19, 4, w=32)
    for _ in range(500):
        j, l = rng.randrange(4), rng.randrange(1, 20)
        assert a.setcolor(j, l) == b.setcolor(j, l)
        assert a.color(l) == b.color(l)
        q = rng.randrange(4)
        assert a.successor(q, rng.randrange(0, 20)) == b.successor(q, rng.randrange(0, 20)) or True
    assert colors_of(a) == colors_of(b)
    assert a.validate() == [] and b.validate() == []


def test_word_size_does_not_change_the_state():
    rng = random.Random(2)
    ops = [(rng.randrange(3), rng.randrange(1, 41)) for _ in range(300)]
    d8, d64 = NumeralContainer(40, 3, w=8), NumeralContainer(40, 3, w=64)
    for j, l in ops:
        d8.setcolor(j, l)
        d64.setcolor(j, l)
    assert d8._state == d64._state
    assert d8.full == d64.full


def test_long_random_run_validates_every_step():
    rng = random.Random(11)
    m, c = 24, 5
    d = create(m, c, w=32)
    colors = [0] * m
    for _ in range(100_000):
        j, l = rng.randrange(c), rng.randrange(1, m + 1)
        d.setcolor(j, l)
        colors[l - 1] = j
        assert d.validate() == []
    check_against(d, colors)


def test_compact_size_bounds():
    for c in (2, 3, 4, 5, 8):
        f = (c - 1).bit_length()
        for mult in (1, 2, 5):
            for extra in (0, 1, 2 * c - 1):
                m = mult * max(2 * c, c * c * f) + extra
                d = create(m, c, w=32)
                if c & (c - 1):
                    bound = (c**m).bit_length() - 1 - (m // (2 * c) - 3 * c)
                else:
                    bound = m * f + 2 * c * f - (-(-m // c))
                assert d.bits_used() <= bound
                assert d.payload_capacity >= d._capacity_floor
                if d.payload_capacity and isinstance(d, FieldContainer) and m % (c * c * f) == 0:
                    # every digit grouped: capacity is exactly m/c - c
                    assert d.payload_capacity == m // c - c


# The payload is the `payload_capacity` bits of `_state` above
# `_image_bits`; `ColoredDict` parks its mate and top fields there.


def test_payload_round_trip_and_survival():
    rng = random.Random(4)
    for c in (2, 3, 4, 8):
        f = (c - 1).bit_length()
        m = 6 * c * c * f
        d = create(m, c, w=32)
        cap = d.payload_capacity
        assert cap > 0
        pv = rng.getrandbits(cap)
        d._state |= pv << d._image_bits
        assert d.validate() == []
        for _ in range(1000):
            # color c-1 never appears, so the container stays deficient
            d.setcolor(rng.randrange(c - 1), rng.randrange(1, m + 1))
        assert d._state >> d._image_bits == pv
        assert d.validate() == []


def test_payload_dies_with_fullness():
    d = FieldContainer(8, 2, w=16)
    cap = d.payload_capacity
    assert cap > 0
    d._state |= ((1 << cap) - 1) << d._image_bits
    d.setcolor(1, 5)  # both colors now occur
    assert d.full
    assert d.validate() == []  # nothing survives above the standard form
    d.setcolor(1, 1)
    d.setcolor(1, 2)
    d.setcolor(1, 3)
    d.setcolor(1, 4)
    d.setcolor(1, 6)
    d.setcolor(1, 7)
    tr = d.setcolor(1, 8)
    assert tr == Transition("became_deficient", 0, 0, True)
    assert d._state >> d._image_bits == 0  # fresh free bits come back zeroed


def test_argument_errors():
    with pytest.raises(ValueError):
        FieldContainer(4, 3)  # not a power of two
    with pytest.raises(ValueError):
        create(0, 2)
    with pytest.raises(ValueError):
        create(4, 1)
    d = create(6, 4)
    with pytest.raises(IndexError):
        d.color(0)
    with pytest.raises(IndexError):
        d.color(7)
    with pytest.raises(IndexError):
        d.setcolor(4, 1)
    with pytest.raises(IndexError):
        d.setcolor(0, 9)
    with pytest.raises(IndexError):
        d.successor(4, 0)
    assert d.successor(0, -100) == 1
    assert d.successor(0, 6) == 0
    with pytest.raises(CapacityError):
        NumeralContainer(10**9, 3)


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(1, 12),
    c=st.integers(2, 6),
    data=st.data(),
)
def test_random_programs_match_naive(m, c, data):
    ops = data.draw(
        st.lists(st.tuples(st.integers(0, c - 1), st.integers(1, m)), max_size=30)
    )
    d = create(m, c, w=16)
    colors = [0] * m
    for j, l in ops:
        d.setcolor(j, l)
        colors[l - 1] = j
        assert d.validate() == []
    check_against(d, colors)
