import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicedict.chainstore import ChainStore
from choicedict.words import CapacityError


class PlainCells:
    """What the store must look like: an ordinary zero-initialized array."""

    def __init__(self, N):
        self.vals = [0] * N

    def read(self, k):
        return self.vals[k - 1]

    def write(self, k, x):
        self.vals[k - 1] = x

    def weak_count(self):
        return self.vals.count(0)


def check_equiv(cs, plain):
    assert cs.validate() == []
    got = [cs.read(k) for k in range(1, cs.N + 1)]
    assert got == plain.vals
    assert cs.mu == plain.weak_count()
    nz = cs.nonzero()
    if not any(plain.vals):
        assert nz is None
    else:
        assert nz is not None and plain.vals[nz - 1] != 0


def clone(cs):
    dup = ChainStore(cs.N, cs.w)
    dup._a = cs._a
    dup._flag = cs._flag
    return dup


def test_frozen_tiny_strict():
    # Hand-computed: N=2, w=7 gives 28-bit cells (b=14, p=7).
    cs = ChainStore(2, 7)
    assert cs.mu == 2 and cs.nonzero() is None
    cs.write(2, 5)
    assert cs.mu == 1
    assert [cs.read(1), cs.read(2)] == [0, 5]
    assert cs.nonzero() == 2
    # A[1] holds mu=1 at bits [21,28); A[2] holds the value 5 verbatim.
    assert cs._a == (1 << 21) | (5 << 28) == 1344274432
    assert cs._flag == 1
    cs.write(2, 0)
    assert cs.mu == 2 and cs.nonzero() is None
    assert [cs.read(1), cs.read(2)] == [0, 0]
    assert cs.validate() == []


# Case ids name the layout ("strict") and the default ("None": weak
# cells read 0) of the one configuration ChainStore has.


@pytest.mark.parametrize("seed", [0xC0FFEE ^ 3], ids=["None-strict"])
def test_plain_equivalence_random(seed):
    N, w = 40, 12
    cs = ChainStore(N, w)
    plain = PlainCells(N)
    rng = random.Random(seed)
    for step in range(3000):
        k = rng.randint(1, N)
        r = rng.random()
        if r < 0.3:
            x = 0
        elif r < 0.6:
            x = rng.randint(0, 6)
        else:
            x = rng.getrandbits(4 * w)
        cs.write(k, x)
        plain.write(k, x)
        if step % 50 == 0 or step > 2950:
            check_equiv(cs, plain)
        else:
            assert cs.read(k) == x
            assert cs.mu == plain.weak_count()
    check_equiv(cs, plain)


@pytest.mark.parametrize(
    "N,vals",
    [
        pytest.param(1, (0, 1, 2), id="1-vals0-strict-None"),
        pytest.param(2, (0, 1, 2), id="2-vals1-strict-None"),
        pytest.param(3, (0, 1, 2), id="3-vals2-strict-None"),
        pytest.param(4, (0, 1), id="4-vals3-strict-None"),
    ],
)
def test_exhaustive_state_machine(N, vals):
    # Walk every reachable raw state (storage, flag) for tiny stores,
    # carrying the logical contents independently, and check the
    # plain-array contract plus all invariants at every node.
    start = ChainStore(N, 7)
    ops = [(k, v) for k in range(1, N + 1) for v in vals]
    seen = set()
    stack = [(start, (0,) * N)]
    while stack:
        cs, vals_now = stack.pop()
        key = (cs._a, cs._flag)
        if key in seen:
            continue
        seen.add(key)
        assert len(seen) < 60_000
        plain = PlainCells(N)
        plain.vals = list(vals_now)
        check_equiv(cs, plain)
        for k, v in ops:
            nxt = clone(cs)
            nxt.write(k, v)
            assert nxt.read(k) == v
            stack.append((nxt, vals_now[: k - 1] + (v,) + vals_now[k:]))
    assert len(seen) > N  # sanity: the walk actually went somewhere


def test_spurious_edge_is_severed():
    cs = ChainStore(3, 7)
    b, p = cs.b, cs.p
    # Garbage in a weak cell that points at cell 3 is inert while
    # everything sits left of the barrier...
    cs._set_matefield(1, 3)
    assert cs.validate() == []
    assert [cs.read(k) for k in (1, 2, 3)] == [0, 0, 0]
    # ...and writing a value to cell 3 whose bits happen to point back
    # at cell 1 must sever the coincidence, not follow it.
    x = 1 << b  # mate-field bits of the value spell "cell 1"
    cs.write(3, x)
    assert cs._field(1, b, p) == 1  # pointer redirected to itself
    assert cs.mate(1) == 1
    assert [cs.read(k) for k in (1, 2, 3)] == [0, 0, x]
    assert cs.validate() == []


def test_footprint_and_dump():
    cs = ChainStore(5, 8)
    assert cs.footprint_bits == 5 * 32 + 1
    # The raw image, the cell array plus the flag bit, fits the footprint.
    for k, x in ((3, 7), (1, (1 << 32) - 1), (5, 1), (3, 0)):
        cs.write(k, x)
        assert 0 <= cs._a < (1 << (5 * 32)) and cs._flag in (0, 1)


def _plausible(rng, N, w):
    """A random 4w-bit cell whose mate field names a cell in 1..N."""
    x = rng.getrandbits(4 * w)
    return (x & ~(((1 << w) - 1) << (2 * w))) | (rng.randint(1, N) << (2 * w))


def _garbage(rng, N, w, adversarial):
    """Raw storage for N cells of 4w bits: random, or with every mate
    field naming a plausible partner so that fake edges abound."""
    if not adversarial:
        return rng.getrandbits(N * 4 * w)
    return sum(_plausible(rng, N, w) << (k * 4 * w) for k in range(N))


def test_garbage_start_fuzz():
    # The constant-time start trusts nothing in the adopted memory: any
    # raw image must read as all zeros and then behave as a plain array.
    rng = random.Random(0x6A12BA6E)
    w = 10
    for trial in range(400):
        N = rng.randint(1, 16)
        cs = ChainStore(N, w, raw_storage=_garbage(rng, N, w, trial % 2 == 1))
        plain = PlainCells(N)
        assert cs.validate() == []
        assert cs.mu == N and cs.nonzero() is None
        for _ in range(30):
            k = rng.randint(1, N)
            r = rng.random()
            if r < 0.45:
                x = rng.choice([0, 0, 1, rng.getrandbits(4 * w), _plausible(rng, N, w)])
                cs.write(k, x)
                plain.write(k, x)
            elif r < 0.8:
                assert cs.read(k) == plain.read(k)
            else:
                nz = cs.nonzero()
                if any(plain.vals):
                    assert nz is not None and plain.read(nz) != 0
                else:
                    assert nz is None
        check_equiv(cs, plain)


def test_init_cost_independent_of_size():
    costs = []
    for N in (8, 4096):
        cs = ChainStore(N, 20)
        costs.append(cs.access_counts())
    assert costs[0] == costs[1]
    assert costs[0]["writes"] <= 2 and costs[0]["reads"] == 0


def test_ops_touch_constantly_many_cells():
    worst = {}
    for N in (16, 4096):
        cs = ChainStore(N, 20)
        rng = random.Random(3)
        peak = 0
        for _ in range(300):
            k = rng.randint(1, 16)
            cs.reset_access_counts()
            cs.write(k, rng.choice([0, 1, rng.getrandbits(80)]))
            c = cs.access_counts()
            peak = max(peak, c["reads"] + c["writes"])
        worst[N] = peak
    assert worst[16] <= 64 and worst[4096] <= 64


def test_argument_errors():
    cs = ChainStore(3, 7)
    with pytest.raises(IndexError):
        cs.read(0)
    with pytest.raises(IndexError):
        cs.write(4, 1)
    with pytest.raises(ValueError):
        cs.write(1, 1 << 28)
    with pytest.raises(ValueError):
        ChainStore(0, 7)
    with pytest.raises(ValueError):
        ChainStore(3, 2)  # 8-bit cells leave no room to hide mu
    with pytest.raises(CapacityError):
        ChainStore(1 << 40, 7)
    with pytest.raises(CapacityError):
        ChainStore(3, 1)  # 1-bit mate field cannot address cell 3


@settings(deadline=None, max_examples=120)
@given(
    st.integers(1, 10),
    st.lists(
        st.tuples(st.integers(1, 10), st.integers(0, (1 << 28) - 1)), max_size=40
    ),
)
def test_random_programs_match_oracle(N, prog):
    cs = ChainStore(N, 10)
    plain = PlainCells(N)
    for k, x in prog:
        k = 1 + (k - 1) % N
        cs.write(k, x)
        plain.write(k, x)
        check_equiv(cs, plain)
