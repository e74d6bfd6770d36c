"""Differential tests of `ColoredDict` against the naive reference."""

import random

import pytest

from choicedict.colored import ColoredDict
from choicedict.oracle import NaiveDict

# Smallest container size the constructor accepts with 4 containers: below
# it the free bits of a deficient container cannot hold the matching fields.
SMALLEST_M = {2: 16, 3: 18, 4: 64, 5: 40, 8: 192}
CONTAINERS = 4
SURPLUS = 3


def check_choices(d, naive):
    assert d.validate() == []
    for j in range(d.c):
        want = naive.members(j)
        got = d.choice(j)
        if want:
            assert got in want, (j, got)
        else:
            assert got == 0, (j, got)


@pytest.mark.parametrize("c", sorted(SMALLEST_M))
def test_smallest_container_size(c):
    m = SMALLEST_M[c]
    d = ColoredDict(CONTAINERS * m + SURPLUS, c, container_elems=m)
    assert (d.N, d.m_s) == (CONTAINERS, SURPLUS)
    with pytest.raises(ValueError):
        ColoredDict(CONTAINERS * (m - 1) + SURPLUS, c, container_elems=m - 1)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("c", sorted(SMALLEST_M))
def test_matches_naive_with_steered_barrier_moves(c, seed):
    # Random single writes seldom fill a container, so two steered ops
    # drive the barrier both ways: "fill" gives container k one element
    # of every color, "drop" recolors every element of color j in k.
    m = SMALLEST_M[c]
    n = CONTAINERS * m + SURPLUS
    d, naive = ColoredDict(n, c, container_elems=m), NaiveDict(n, c)
    rng = random.Random(1000 * c + seed)

    def setcolor(j, l):
        d.setcolor(j, l)
        naive.setcolor(j, l)

    moves = {"left": 0, "right": 0}
    for _ in range(150):
        mu = d._mu
        r = rng.random()
        if r < 0.35:
            setcolor(rng.randrange(c), rng.randint(1, n))
        elif r < 0.55:
            l = rng.randint(1, n)
            assert d.color(l) == naive.color(l)
        elif r < 0.8:
            k = rng.randint(1, CONTAINERS)
            spots = rng.sample(range((k - 1) * m + 1, k * m + 1), c)
            for j, l in enumerate(spots):
                setcolor(j, l)
        else:
            k, j = rng.randint(1, CONTAINERS), rng.randrange(c)
            for l in range((k - 1) * m + 1, k * m + 1):
                if naive.color(l) == j:
                    setcolor(rng.choice([x for x in range(c) if x != j]), l)
        if d._mu < mu:
            moves["left"] += 1
        elif d._mu > mu:
            moves["right"] += 1
        check_choices(d, naive)
    assert moves["left"] and moves["right"], moves
    assert [d.color(l) for l in range(1, n + 1)] == naive.vals
