"""Reversible packing of regularly gapped bit layouts.

Two schemes, both pure rearrangements (a fixed bijection between source
and target bit positions, so popcounts are preserved and every step can
be undone exactly):

* `compact_pow2` handles the special layout "h repetitions of (g-1 live
  bits followed by one dead bit)" with a single multiply-and-mask pass.
  The live bits end up in the h*(g-1) least significant positions, in an
  order fixed by the arithmetic, not left to right.

* `compact_groups` handles the general layout "n groups of u live bits
  repeating with period m" (described by a `GapShape`).  It runs a
  Euclid-like alternation: while group sizes permit, either whole ball
  groups are packed into larger hole groups, or ball groups are sliced
  into hole-sized chunks, the (size, gap) pair shrinking like a gcd
  computation; the constant-size remainder is finished with direct run
  moves.  The move list depends only on the shape, never on the data,
  which is what makes `expand_groups` possible: it rebuilds the same
  plan and plays it backwards.
"""

from functools import lru_cache
from typing import Iterator, NamedTuple, Tuple

from .words import BitString, MAX_BITS, CapacityError, charge, high_bits, ones

def _check_pow2_shape(g: int, h: int) -> None:
    if g < 2:
        raise ValueError("pattern length g must be at least 2")
    if h < 1 or h % g:
        raise ValueError("repetition count h must be a positive multiple of g")
    if g * h > MAX_BITS:
        raise CapacityError(f"{g}*{h} bits exceed MAX_BITS")


def compact_pow2(x: BitString, g: int, h: int) -> BitString:
    """Pack the live bits of an (h x g)-pattern value into h*(g-1) bits.

    x must be g*h bits long, with bit g-1 of every g-block zero.  One
    shift-and-add plus a replicate-and-mask: the low h-1 bits of x are
    spread over the dead positions of the remainder.
    """
    _check_pow2_shape(g, h)
    if x.len_bits != g * h:
        raise ValueError(f"expected a {g * h}-bit operand, got {x.len_bits}")
    if x.value & high_bits(h, g):
        raise ValueError("dead bit position is set")
    r = h - 1
    s = h - h // g
    y = (x.value >> r) + (((x.value & ((1 << r) - 1)) * ones(g - 1, r)) & ones(s, g))
    charge(g * h, x.w, 4 + g)
    assert y >> (h * (g - 1)) == 0
    return BitString(y, h * (g - 1), x.w)


def expand_pow2(y: BitString, g: int, h: int) -> BitString:
    """Exact inverse of `compact_pow2` for the same (g, h)."""
    _check_pow2_shape(g, h)
    if y.value >> (h * (g - 1)):
        raise ValueError(f"bits above position {h * (g - 1)} are set")
    r = h - 1
    s = h - h // g
    spread = y.value & ones(s, g)
    v = ((spread * ones(g - 1, r)) >> ((g - 2) * r)) & ((1 << r) - 1)
    u = ((y.value - spread) << r) | v
    charge(g * h, y.w, 4 + g)
    if u & high_bits(h, g):
        raise ValueError("expansion produced a set dead bit")
    return BitString(u, g * h, y.w)


class GapShape(NamedTuple):
    """n groups of u live bits each, repeating with period m."""

    n: int
    m: int
    u: int


def _check_shape(shape: GapShape) -> None:
    n, m, u = shape
    if n < 1:
        raise ValueError("need at least one group")
    if not 1 <= u <= m:
        raise ValueError("group size must satisfy 1 <= u <= m")
    if n * m > MAX_BITS:
        raise CapacityError(f"{n}*{m} bits exceed MAX_BITS")


class MoveRec(NamedTuple):
    """count runs of run bits each, at stride apart, from src to dst."""

    src: int
    dst: int
    run: int
    stride: int
    count: int


class Stage(NamedTuple):
    """One planner step: a (u_k, v_k) reduction or the finishing sweep.

    kind is "pack" (whole ball groups into larger hole groups), "split"
    (hole-sized slices off every ball group), or "finish".  bounds holds
    the (ball base, ball offset, hole base, hole offset) boundary
    positions at entry; reps is the sub-move multiplicity.
    """

    kind: str
    u: int
    v: int
    reps: int
    bounds: Tuple[int, int, int, int]
    moves: Tuple[MoveRec, ...]


class CompactionTrace(NamedTuple):
    """The full, data-independent move plan for one shape."""

    shape: GapShape
    stages: Tuple[Stage, ...]

    @property
    def euclid_stages(self) -> int:
        return sum(1 for st in self.stages if st.kind != "finish")

    def iter_moves(self) -> Iterator[MoveRec]:
        for st in self.stages:
            yield from st.moves


def _live_mask(shape: GapShape) -> int:
    return ((1 << shape.u) - 1) * ones(shape.n, shape.m)


@lru_cache(maxsize=256)
def _plan(shape: GapShape) -> CompactionTrace:
    n, m, u = shape
    total = n * u
    if u == m or n == 1:
        return CompactionTrace(shape, ())

    v0 = m - u
    lgrp = -(-total // m)  # lowest group index fully above the bar
    cap = total // m  # hole periods fully below the bar
    lcount = n - lgrp
    rcount = min(cap, (lcount * u) // v0)
    nr0 = rcount

    stages = []
    lbase, loff, lsize = lgrp * m, 0, u
    rbase, roff, rsize = 0, u, v0
    while lcount and rcount and lsize and rsize:
        bounds = (lbase, loff, rbase, roff)
        if lsize <= rsize:
            q = rsize // lsize
            assert q * rcount <= lcount
            moves = tuple(
                MoveRec(
                    src=lbase + loff + t * rcount * m,
                    dst=rbase + roff + t * lsize,
                    run=lsize,
                    stride=m,
                    count=rcount,
                )
                for t in range(q)
            )
            stages.append(Stage("pack", lsize, rsize, q, bounds, moves))
            lbase += q * rcount * m
            lcount -= q * rcount
            roff += q * lsize
            rsize -= q * lsize
        else:
            a = min(lsize // rsize, rcount // lcount)
            if a == 0:
                break
            moves = tuple(
                MoveRec(
                    src=lbase + loff + t * rsize,
                    dst=rbase + roff + t * lcount * m,
                    run=rsize,
                    stride=m,
                    count=lcount,
                )
                for t in range(a)
            )
            stages.append(Stage("split", lsize, rsize, a, bounds, moves))
            loff += a * rsize
            lsize -= a * rsize
            rbase += a * lcount * m
            rcount -= a * lcount

    # Whatever is left fits a direct sweep: leftover ball groups plus the
    # partial ball run just above the bar, against part-filled hole
    # groups, untouched gap groups beyond the main instance, and the
    # partial gap run at the bar.  Weights match by conservation.
    balls = []
    if lsize:
        balls.extend((lbase + i * m + loff, lsize) for i in range(lcount))
    if total % m and total % m < u:
        balls.append((total, cap * m + u - total))
    balls.sort()
    holes = []
    if rsize:
        holes.extend((rbase + i * m + roff, rsize) for i in range(rcount))
    holes.extend((i * m + u, v0) for i in range(nr0, cap))
    if total % m > u:
        holes.append((cap * m + u, total % m - u))
    holes.sort()
    assert sum(ln for _, ln in balls) == sum(ln for _, ln in holes), shape
    moves = []
    bi = hi = 0
    while bi < len(balls) and hi < len(holes):
        bs, bl = balls[bi]
        hs, hl = holes[hi]
        ln = min(bl, hl)
        moves.append(MoveRec(src=bs, dst=hs, run=ln, stride=ln, count=1))
        balls[bi] = (bs + ln, bl - ln)
        holes[hi] = (hs + ln, hl - ln)
        if balls[bi][1] == 0:
            bi += 1
        if holes[hi][1] == 0:
            hi += 1
    if moves:
        stages.append(
            Stage("finish", lsize, rsize, 0, (lbase, loff, rbase, roff), tuple(moves))
        )
    return CompactionTrace(shape, tuple(stages))


def _apply(value: int, moves, w: int, nm: int, backward: bool = False) -> int:
    for mv in moves:
        src, dst = (mv.dst, mv.src) if backward else (mv.src, mv.dst)
        mask = ones(mv.count, mv.stride) * ((1 << mv.run) - 1) << src
        chunk = value & mask
        value = (value - chunk) | ((chunk >> src) << dst)
        charge(nm, w, 4)
    return value


def compact_groups(x: BitString, shape: GapShape) -> Tuple[BitString, CompactionTrace]:
    """Pack the n*u live bits of a gapped layout into the low n*u positions.

    The landing order is a fixed permutation determined by the shape
    alone.  Raises if x carries bits outside the groups.
    """
    _check_shape(shape)
    n, m, u = shape
    if x.len_bits != n * m:
        raise ValueError(f"expected a {n * m}-bit operand, got {x.len_bits}")
    if x.value & ~_live_mask(shape):
        raise ValueError("stray bits outside the groups")
    trace = _plan(shape)
    v = _apply(x.value, trace.iter_moves(), x.w, n * m)
    assert v >> (n * u) == 0
    return BitString(v, n * u, x.w), trace


def expand_groups(y: BitString, shape: GapShape) -> BitString:
    """Exact inverse of `compact_groups`: rebuild the plan, play it backwards."""
    _check_shape(shape)
    n, m, u = shape
    if y.value >> (n * u):
        raise ValueError(f"bits above position {n * u} are set")
    trace = _plan(shape)
    v = _apply(y.value, reversed(list(trace.iter_moves())), y.w, n * m, backward=True)
    if v & ~_live_mask(shape):
        raise AssertionError("expansion landed bits outside the groups")
    return BitString(v, n * m, y.w)
