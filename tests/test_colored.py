"""Differential tests of `ColoredDict` against the naive reference."""

import random

import pytest

from choicedict.colored import ColoredDict
from choicedict.oracle import NaiveDict, iteration_accounting

# Smallest container size the constructor accepts with 4 containers: below
# it the free bits of a deficient container cannot hold the matching fields.
SMALLEST_M = {2: 16, 3: 18, 4: 64, 5: 40, 8: 192, 16: 1024}
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


def steered_writes(rng, c, m, naive):
    """One step of writes that drives the barrier: a random setcolor,
    "fill" (container k gets one element of every color) or "drop"
    (every element of color j in k is recolored).  Random single writes
    alone seldom fill a container."""
    r = rng.random()
    if r < 0.45:
        return [(rng.randrange(c), rng.randint(1, naive.n))]
    k = rng.randint(1, CONTAINERS)
    if r < 0.75:
        return list(enumerate(rng.sample(range((k - 1) * m + 1, k * m + 1), c)))
    j = rng.randrange(c)
    return [(rng.choice([x for x in range(c) if x != j]), l)
            for l in range((k - 1) * m + 1, k * m + 1) if naive.color(l) == j]


# c = 16 runs fewer and shorter cases: each validate() decodes 4096 colors.
@pytest.mark.parametrize(
    "c,seed", [(c, seed) for c in sorted(SMALLEST_M) for seed in range(1 if c == 16 else 3)])
def test_matches_naive_with_steered_barrier_moves(c, seed):
    m = SMALLEST_M[c]
    n = CONTAINERS * m + SURPLUS
    d, naive = ColoredDict(n, c, container_elems=m), NaiveDict(n, c)
    rng = random.Random(1000 * c + seed)
    moves = {"left": 0, "right": 0}
    for _ in range(40 if c == 16 else 150):
        mu = d._mu
        if rng.random() < 0.2:
            l = rng.randint(1, n)
            assert d.color(l) == naive.color(l)
        else:
            for j, l in steered_writes(rng, c, m, naive):
                d.setcolor(j, l)
                naive.setcolor(j, l)
        if d._mu < mu:
            moves["left"] += 1
        elif d._mu > mu:
            moves["right"] += 1
        check_choices(d, naive)
    assert moves["left"] and moves["right"], moves
    assert [d.color(l) for l in range(1, n + 1)] == naive.vals


@pytest.mark.parametrize("c", sorted(SMALLEST_M))
def test_iteration_under_interleaved_setcolor(c):
    # Per-color iteration while steered writes move the barrier: judged
    # by the colored-complete contract (every element that wears the
    # color throughout is reported, and only wearers are), plus an exact
    # quiescent pass before each run.
    m = SMALLEST_M[c]
    n = CONTAINERS * m + SURPLUS
    for seed in range(2 if c == 16 else 10):
        d, naive = ColoredDict(n, c, container_elems=m), NaiveDict(n, c)
        rng = random.Random(100 * c + seed)
        for _ in range(8):
            for j, l in steered_writes(rng, c, m, naive):
                d.setcolor(j, l)
                naive.setcolor(j, l)
        for j in range(c):
            want = naive.members(j)
            d.iter_init(j)
            quiet = []
            while d.iter_more(j):
                quiet.append(d.iter_next(j))
            assert sorted(quiet) == sorted(want), j
            log = [("begin", j, frozenset(want))]
            d.iter_init(j)
            bursts = 4
            while True:
                if bursts and rng.random() < 0.3:
                    bursts -= 1
                    for jj, l in steered_writes(rng, c, m, naive):
                        d.setcolor(jj, l)
                        naive.setcolor(jj, l)
                        log.append(("setcolor", l, jj))
                x = d.iter_next(j)
                if not x:
                    break
                log.append(("enum", x))
            log.append(("end",))
            verdict = iteration_accounting(log)
            assert verdict.ok, (seed, j, verdict.violations[:3])
            assert d.validate() == []
        assert [d.color(l) for l in range(1, n + 1)] == naive.vals


@pytest.mark.parametrize("c", sorted(SMALLEST_M))
def test_bits_used_matches_formula(c):
    m = SMALLEST_M[c]
    n = CONTAINERS * m + SURPLUS
    d = ColoredDict(n, c, container_elems=m)
    f = (c - 1).bit_length()
    slot = (c ** m - 1).bit_length()  # m*f exactly when c is a power of two
    side = c * (CONTAINERS + 1) + 2 * CONTAINERS.bit_length()
    quiet = {"core": CONTAINERS * slot + SURPLUS * f + 1, "side": side,
             "iteration": 0, "transient": 0}
    assert d.bits_used() == quiet
    d.setcolor(c - 1, 1)
    quiet["transient"] = slot
    assert d.bits_used() == quiet
    if c & (c - 1) == 0:
        assert quiet["core"] == n * f + 1
    d.iter_init(c - 1)
    assert d._D[c - 1].bits_used()["iteration"] == 0  # starts on the first advance
    assert d.bits_used()["iteration"] == 5 * n.bit_length() + 4
    assert d.iter_next(c - 1) == 1 and d.iter_next(c - 1) == 0
    assert d.bits_used() == quiet
