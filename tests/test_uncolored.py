import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicedict.oracle import (
    NaiveDict,
    WorkloadScript,
    audit_bits,
    iteration_accounting,
    run_equivalence,
)
from choicedict.uncolored import UncoloredDict, decode_header, encode_header
from choicedict.words import BitString


def members(d):
    return [l for l in range(1, d.n + 1) if d.contains(l)]


# -- size header -------------------------------------------------------


def test_header_frozen_values():
    h = encode_header(13)
    assert (h.value, h.len_bits) == (88, 7)
    assert [h.bit(i) for i in range(7)] == [0, 0, 0, 1, 1, 0, 1]
    lo = encode_header(13, "little")
    assert (lo.value, lo.len_bits) == (13, 7)
    assert (encode_header(1).value, encode_header(1).len_bits) == (1, 1)
    assert encode_header(1, "little").value == 1


@pytest.mark.parametrize("conv", ["big", "little"])
def test_header_roundtrip(conv):
    rng = random.Random(1)
    sizes = itertools.chain(range(1, 2049), (rng.randrange(1, 1 << 20) for _ in range(200)))
    for n in sizes:
        h = encode_header(n, conv)
        assert h.len_bits == 2 * n.bit_length() - 1
        assert decode_header(h, conv) == n


def test_header_malformed():
    with pytest.raises(ValueError):
        encode_header(0)
    with pytest.raises(ValueError):
        encode_header(5, "middle")
    for conv in ("big", "little"):
        with pytest.raises(ValueError):
            decode_header(BitString(0, 5), conv)  # zero run never terminates
        with pytest.raises(ValueError):
            decode_header(BitString(0, 0), conv)
        h = encode_header(13, conv)
        with pytest.raises(ValueError):
            decode_header(BitString(h.value, h.len_bits + 1), conv)
    # a run promising more payload than the string holds
    with pytest.raises(ValueError):
        decode_header(BitString(0b100, 3), "big")
    with pytest.raises(ValueError):
        decode_header(BitString(0b001, 3), "little")


# -- plain operations --------------------------------------------------


def test_tail_only_ops():
    d = UncoloredDict(20, w=8)  # below one segment: a bare bit vector plus audit
    assert members(d) == []
    assert d.choice() == 0
    for l in (3, 19, 7):
        d.insert(l)
    assert d.contains(3) and 19 in d and not d.contains(4)
    assert d.choice() == 3
    d.delete(3)
    assert d.choice() == 7
    d.delete(4)  # non-member: no-op
    assert members(d) == [7, 19]
    a = audit_bits(d)
    assert (a.core, a.side, a.iteration) == (21, 0, 0)
    assert d.validate() == []


def test_choice_picks_from_the_found_cell():
    d = UncoloredDict(200, w=8)
    for l in (40, 38, 170, 199):
        d.insert(l)
    k = d.D1.nonzero()
    a = d.D1.read(k)
    assert d.choice() == 2 * d.b * (k - 1) + ((a & -a).bit_length() - 1) + 1
    for l in (40, 38, 170, 199):
        d.delete(l)
    assert d.choice() == 0 and d.D1.nonzero() is None


@pytest.mark.parametrize("n", [1, 7, 31, 32, 33, 256, 287])
@pytest.mark.parametrize("seed", [1, 2])
def test_matches_naive(n, seed):
    script = WorkloadScript.generate(n, seed=seed, length=1500)

    def rebuild():
        return UncoloredDict(n, w=8), NaiveDict(n)

    rep = run_equivalence(script, *rebuild(), rebuild=rebuild)
    assert rep.ok, rep


@pytest.mark.parametrize("n", [1000, 4096])
def test_matches_naive_wide_words(n):
    script = WorkloadScript.generate(n, seed=3, length=800)

    def rebuild():
        return UncoloredDict(n, w=16), NaiveDict(n)

    rep = run_equivalence(script, *rebuild(), rebuild=rebuild)
    assert rep.ok, rep


def _check_against(d, naive):
    assert d.validate() == []
    assert audit_bits(d).core == d.n + 1
    assert members(d) == sorted(naive.members())


@pytest.mark.parametrize(
    "n,picks",
    [(3, (1, 2, 3)), (34, (1, 2, 32, 33, 34))],
    ids=["tail", "boundary"],
)
def test_exhaustive_short_programs(n, picks):
    """Every op sequence up to depth 4 from a focused alphabet, vs naive."""
    alphabet = [("insert", l) for l in picks] + [("delete", l) for l in picks]
    alphabet.append(("choice",))
    for depth in range(1, 5):
        for prog in itertools.product(alphabet, repeat=depth):
            d, naive = UncoloredDict(n, w=8), NaiveDict(n)
            for op in prog:
                if op[0] == "insert":
                    d.insert(op[1]), naive.insert(op[1])
                elif op[0] == "delete":
                    d.delete(op[1]), naive.delete(op[1])
                else:
                    c = d.choice()
                    assert (c == 0) == (not naive.members())
                    if c:
                        assert naive.contains(c)
            _check_against(d, naive)


def test_core_is_n_plus_one_across_segment_boundaries():
    for n in range(1, 101):
        d = UncoloredDict(n, w=8)
        ref = [l for l in range(1, n + 1) if l % 3 == 0]
        for l in ref:
            d.insert(l)
        assert audit_bits(d).core == n + 1
        assert members(d) == ref
        assert d.validate() == []


# -- iteration ---------------------------------------------------------


def _drain(d, log=None):
    got = []
    while d.iter_more():
        x = d.iter_next()
        assert x, "iter_more promised an element"
        got.append(x)
        if log is not None:
            log.append(("enum", x))
    return got


def test_static_iteration():
    d = UncoloredDict(100, w=8)
    want = [1, 31, 32, 33, 64, 65, 96, 97, 100]
    for l in want:
        d.insert(l)
    log = [("begin", frozenset(want))]
    d.iter_init()
    assert audit_bits(d).iteration > 0
    got = _drain(d, log)
    log.append(("end",))
    assert sorted(got) == want
    v = iteration_accounting(log)
    assert v.ok and v.regime == "static", v
    assert d.iter_next() == 0 and not d.iter_more()  # stays exhausted
    assert audit_bits(d).iteration == 0
    assert d.iteration_steps >= len(want)


def test_iteration_on_empty_and_uninitialized():
    d = UncoloredDict(40, w=8)
    assert d.iter_next() == 0  # nothing was ever begun
    d.iter_init()
    assert not d.iter_more()
    assert d.iter_next() == 0


def test_deletion_behind_the_sweep_is_rescued():
    # Four occupied cells; empty the most recently swept one.  The
    # rewiring knocks an unvisited cell out of the sweep's remaining
    # range, so it must reappear through the rescued-segment queue.
    d = UncoloredDict(128, w=8)
    for l in (1, 33, 65, 97):
        d.insert(l)
    d.iter_init()
    log = [d.iter_next(), d.iter_next()]
    assert log == [97, 65]
    d.delete(97)
    assert d._iter.dplus.contains(1)
    assert d.validate() == []
    log += _drain(d)
    assert log == [97, 65, 1, 33]


def test_insert_into_swept_region_is_skipped():
    d = UncoloredDict(130, w=8)
    d.insert(97)
    d.insert(129)
    d.iter_init()
    assert d.iter_next() == 97
    d.insert(33)  # lands in a cell the sweep will still pass over
    assert d._iter.dminus.contains(2)
    assert d.validate() == []
    assert _drain(d) == [129]


def _covered(d, enumerated):
    """Decremental safety: every live, unvisited element is still reachable."""
    it, d1 = d._iter, d.D1
    if it is None:
        return
    seg = 2 * d.b
    reach = set()
    if d1 is not None:
        reach = {d1.mate(p) for p in range(d1.mu + 1, it.eta + 1)}
    for l in members(d):
        if l in enumerated:
            continue
        k = (l - 1) // seg + 1
        if d1 is None or k > d1.N:
            continue  # tail bits are swept last, cursor can't have passed them
        if k == it.buffer:
            assert (l - 1) % seg >= it.cursor
        else:
            assert it.dplus.contains(k) or (k in reach and not it.dminus.contains(k)), l


@pytest.mark.parametrize("n,w", [(96, 8), (256, 8), (2048, 16)])
@pytest.mark.parametrize("seed", range(5))
def test_decremental_iteration(n, w, seed):
    rng = random.Random(seed * 977 + n)
    d = UncoloredDict(n, w=w)
    start = rng.sample(range(1, n + 1), n // 3)
    for l in start:
        d.insert(l)
    live = set(start)
    log = [("begin", frozenset(start))]
    seen = set()
    d.iter_init()
    step = 0
    while d.iter_more():
        if live and rng.random() < 0.35:
            v = rng.choice(sorted(live))
            d.delete(v)
            live.discard(v)
            log.append(("delete", v))
            assert d._iter is None or d._iter.dminus is None or d._iter.dminus.choice() == 0
        x = d.iter_next()
        if x:
            log.append(("enum", x))
            seen.add(x)
        step += 1
        if step % 8 == 0 or n <= 256:
            assert d.validate() == []
            _covered(d, seen)
    log.append(("end",))
    v = iteration_accounting(log)
    assert v.ok, v.violations
    assert v.regime in ("decremental", "static")


@pytest.mark.parametrize("n,w", [(256, 8), (2048, 16)])
@pytest.mark.parametrize("seed", range(5))
def test_incremental_iteration(n, w, seed):
    rng = random.Random(seed * 31 + n)
    d = UncoloredDict(n, w=w)
    start = rng.sample(range(1, n + 1), n // 4)
    for l in start:
        d.insert(l)
    absent = [l for l in range(1, n + 1) if not d.contains(l)]
    rng.shuffle(absent)
    log = [("begin", frozenset(start))]
    d.iter_init()
    inserted = 0
    step = 0
    while d.iter_more():
        while absent and rng.random() < 0.3:
            l = absent.pop()
            d.insert(l)
            log.append(("insert", l))
            inserted += 1
        x = d.iter_next()
        if x:
            log.append(("enum", x))
        step += 1
        if step % 8 == 0 or n <= 256:
            assert d.validate() == []
    log.append(("end",))
    v = iteration_accounting(log)
    assert v.ok, v.violations
    assert d.iteration_steps <= 3 * (1 + len(start) + inserted)


@pytest.mark.parametrize("n,w", [(96, 8), (256, 8), (2048, 16)])
@pytest.mark.parametrize("seed", range(4))
def test_mixed_iteration(n, w, seed):
    rng = random.Random(seed * 613 + n)
    d = UncoloredDict(n, w=w)
    start = rng.sample(range(1, n + 1), n // 3)
    for l in start:
        d.insert(l)
    live = set(start)
    log = [("begin", frozenset(start))]
    d.iter_init()
    updates = 0
    step = 0
    while d.iter_more():
        while rng.random() < 0.3:
            if live and rng.random() < 0.5:
                l = rng.choice(sorted(live))
                d.delete(l)
                live.discard(l)
                log.append(("delete", l))
            else:
                l = rng.randint(1, n)
                if l in live:
                    continue
                d.insert(l)
                live.add(l)
                log.append(("insert", l))
            updates += 1
        x = d.iter_next()
        if x:
            log.append(("enum", x))
        step += 1
        if step % 8 == 0 or n <= 256:
            assert d.validate() == []
    log.append(("end",))
    v = iteration_accounting(log)
    assert v.ok, v.violations
    bound = 4 * (1 + len(start) + updates * max(1, n.bit_length()))
    assert d.iteration_steps <= bound


@pytest.mark.parametrize("n,w", [(256, 8), (65536, 16)])
def test_iteration_access_is_constant_per_step(n, w):
    rng = random.Random(7)
    d = UncoloredDict(n, w=w)
    live = set(rng.sample(range(1, n + 1), n // 3))
    for l in live:
        d.insert(l)

    def total():
        return sum(d.access_counts().values())

    before = total()
    d.iter_init()
    assert total() - before <= 16  # starting costs nothing size-dependent
    worst = 0
    while d.iter_more():
        if live and rng.random() < 0.3:
            v = rng.choice(sorted(live))
            d.delete(v)
            live.discard(v)
        before = total()
        d.iter_next()
        worst = max(worst, total() - before)
    assert worst <= 16, worst


# -- serialization -----------------------------------------------------


@pytest.mark.parametrize("conv", ["big", "little"])
def test_serialize_roundtrip(conv):
    rng = random.Random(11)
    for n in (1, 5, 13, 31, 32, 33, 100, 257):
        d = UncoloredDict(n, w=8)
        for l in rng.sample(range(1, n + 1), rng.randint(0, n)):
            d.insert(l)
        s = d.serialize(conv)
        assert s.len_bits == n + 2 * n.bit_length() + 1
        back = UncoloredDict.deserialize(s, w=8)
        assert back.n == n and members(back) == members(d)
        assert back.validate() == []
        assert back.serialize(conv) == s  # image is canonical


def test_deserialize_rejects_corruption():
    rng = random.Random(5)
    d = UncoloredDict(100, w=8)
    for l in rng.sample(range(1, 101), 17):
        d.insert(l)
    s = d.serialize()
    hlen = 2 * (100).bit_length() - 1
    cells = 2 * d.b * d.N
    flagflip = BitString(s.value ^ (1 << (1 + hlen + cells)), s.len_bits, s.w)
    with pytest.raises(ValueError):
        UncoloredDict.deserialize(flagflip, w=8)
    with pytest.raises(ValueError):
        UncoloredDict.deserialize(BitString(s.value, s.len_bits - 1, s.w), w=8)
    with pytest.raises(ValueError):
        UncoloredDict.deserialize(BitString(s.value >> 1, s.len_bits - 1, s.w), w=8)
    t = UncoloredDict(20, w=8)
    t.insert(3)
    st_ = t.serialize()
    padflip = BitString(st_.value ^ (1 << (1 + 2 * (20).bit_length() - 1)), st_.len_bits, st_.w)
    with pytest.raises(ValueError):
        UncoloredDict.deserialize(padflip, w=8)


def test_serialize_refusals():
    d = UncoloredDict(40, w=8)
    d.insert(2)
    d.iter_init()
    with pytest.raises(RuntimeError):
        d.serialize()


# -- argument checking -------------------------------------------------


def test_argument_errors():
    with pytest.raises(ValueError):
        UncoloredDict(0)
    with pytest.raises(ValueError):
        UncoloredDict(40, "fast")
    d = UncoloredDict(10, w=8)
    for bad in (0, 11, -3):
        with pytest.raises(IndexError):
            d.insert(bad)
        with pytest.raises(IndexError):
            d.delete(bad)
        with pytest.raises(IndexError):
            d.contains(bad)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 48),
    st.lists(
        st.tuples(st.sampled_from("idcq"), st.integers(1, 64)),
        max_size=40,
    ),
)
def test_random_programs_match_naive(n, prog):
    d, naive = UncoloredDict(n, w=8), NaiveDict(n)
    for op, l in prog:
        if op == "q":
            c = d.choice()
            assert (c == 0) == (not naive.members())
            if c:
                assert naive.contains(c)
        elif 1 <= l <= d.n:
            if op == "i":
                d.insert(l)
                naive.insert(l)
            elif op == "d":
                d.delete(l)
                naive.delete(l)
            else:
                assert d.contains(l) == naive.contains(l)
    _check_against(d, naive)
