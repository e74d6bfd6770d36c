"""Uncolored choice dictionary in n+1 bits with constant-time start.

`UncoloredDict` maintains a subset S of a fixed universe {1..n}, n >= 1,
under insert / delete / contains / choice, and iterates over S while S
changes underneath.  Its quiescent footprint is exactly n+1 bits: the
logical bit vector is split into N = floor(n/(2b)) segments of 2b bits
living in a `ChainStore` (2bN+1 bits including the barrier flag) plus a
plain tail of n' = n mod 2b bits.  Initialization costs O(1) regardless
of n.

Iteration
---------
A sweep index eta walks the chain positions N..mu+1 enumerating, for
each position, the segment mate(eta) bit by bit in increasing order;
afterwards the tail is scanned the same way.  Because updates re-match
segments around the barrier, two side sets patch the sweep:

* S+ ("rescued"): segments that fell out of the sweep's reach while
  still holding elements; they are served before the sweep continues.
* S- ("skip"): segments that re-entered the sweep's reach although they
  were already handled; the sweep steps over them.

Both are stored in `UncoloredDict` instances over universe N (N+1 bits
each) created lazily by `iter_init`; a single sticky buffer remembers
the segment currently being enumerated — whichever path produced it —
so a segment, once started, keeps its cursor across interleaved
updates.  Deletion-only interleavings are robust (surviving members
exactly once, members only); insertion-only ones enumerate every
element present throughout, at most twice each.

Self-contained form
-------------------
`serialize` emits one bit string: a convention flag, the universe size
as a self-delimiting header, and the n+1 payload bits (segment cells,
barrier flag, tail — LSB first).  The header for n with L = |bin(n)|
spends 2L-1 bits.  Under the "big" convention the stream is
[flag=0][0^{L-1} bin(n)][payload]; under "little" it is
[flag=1][payload][bin(n) rotated one left, then 0^{L-1}], which is
decodable backwards from the end of the stream.  Total:
n + 2*ceil(log2(n+1)) + 1 bits.

At most one iteration can be active at a time.
"""

from .chainstore import ChainStore
from .words import DEFAULT_W, BitString, charge

__all__ = [
    "UncoloredDict",
    "IterState",
    "encode_header",
    "decode_header",
]


def _lsb(v):
    return (v & -v).bit_length() - 1


# -- self-delimiting universe-size header (both bit orders) ------------


def encode_header(n: int, convention: str = "big") -> BitString:
    """Prefix-free encoding of n >= 1 in 2*ceil(log2(n+1)) - 1 bits.

    Bit i of the result is the i-th bit of the serialized stream.

    >>> encode_header(13).len_bits
    7
    """
    if n < 1:
        raise ValueError("header encodes sizes >= 1")
    if convention not in ("big", "little"):
        raise ValueError(f"unknown convention {convention!r}")
    L = n.bit_length()
    v = 0
    if convention == "big":
        # 0^{L-1} then bin(n), most significant digit first.
        for j in range(L):
            v |= ((n >> (L - 1 - j)) & 1) << (L - 1 + j)
    else:
        # bin(n) with the leading 1 rotated to the end, then 0^{L-1}.
        for j in range(L - 1):
            v |= ((n >> (L - 2 - j)) & 1) << j
        v |= 1 << (L - 1)
    return BitString(v, 2 * L - 1)


def _decode_big(value: int, length: int):
    """(n, L) from a stream whose prefix is a big-convention header."""
    run = value & ((1 << length) - 1)
    if run == 0:
        raise ValueError("malformed header: no terminating 1 in zero run")
    z = _lsb(run)
    L = z + 1
    if 2 * L - 1 > length:
        raise ValueError("malformed header: truncated")
    n = 0
    for j in range(L):
        n |= ((value >> (z + j)) & 1) << (L - 1 - j)
    return n, L


def _decode_little(value: int, length: int):
    """(n, L) reading a little-convention header backwards from the end."""
    if length < 1 or value >> length:
        raise ValueError("malformed header: bad length")
    z = 0
    while z < length and not (value >> (length - 1 - z)) & 1:
        z += 1
    if z == length:
        raise ValueError("malformed header: no terminating 1 in zero run")
    L = z + 1
    if 2 * L - 1 > length:
        raise ValueError("malformed header: truncated")
    start = length - (2 * L - 1)
    n = 1 << (L - 1)
    for j in range(L - 1):
        n |= ((value >> (start + j)) & 1) << (L - 2 - j)
    return n, L


def decode_header(bits: BitString, convention: str = "big") -> int:
    """Inverse of `encode_header`; the input must be exactly one header."""
    if convention == "big":
        n, L = _decode_big(bits.value, bits.len_bits)
    elif convention == "little":
        n, L = _decode_little(bits.value, bits.len_bits)
    else:
        raise ValueError(f"unknown convention {convention!r}")
    if bits.len_bits != 2 * L - 1:
        raise ValueError("malformed header: trailing bits")
    return n


# -- the dictionary ----------------------------------------------------


class IterState:
    """Live iteration bookkeeping; exists only between init and exhaustion.

    eta sweeps chain positions downward; dplus/dminus realize the
    rescued and skip sets as side dictionaries over universe N; buffer
    pins the segment currently being enumerated with cursor the next
    candidate bit; tail_cursor plays the same role for the tail bits.
    """

    __slots__ = ("eta", "dplus", "dminus", "buffer", "cursor", "tail_cursor")

    def __init__(self, eta, dplus, dminus):
        self.eta = eta
        self.dplus = dplus
        self.dminus = dminus
        self.buffer = 0
        self.cursor = 0
        self.tail_cursor = 0


class UncoloredDict:
    __slots__ = ("n", "b", "w", "D1", "D2", "_tail_reads", "_tail_writes", "_iter", "_steps")

    def __init__(self, n: int, mode: str = "strict", w: int = DEFAULT_W):
        # `mode` names the n+1-bit layout, the only one there is; it
        # stays a parameter because callers pass it positionally.
        if n < 1:
            raise ValueError("need a universe of at least one element")
        if mode != "strict":
            raise ValueError(f"unknown mode {mode!r}; only 'strict' exists")
        self.w = w
        self.b = 2 * w
        self.n = n
        seg = 2 * self.b
        self.D1 = ChainStore(n // seg, w) if n >= seg else None
        self.D2 = 0
        self._tail_reads = 0
        self._tail_writes = 0
        self._iter = None
        self._steps = 0

    # -- derived sizes -------------------------------------------------

    @property
    def N(self) -> int:
        """Number of full 2b-bit segments."""
        return self.D1.N if self.D1 is not None else 0

    @property
    def n_tail(self) -> int:
        """Bits of universe beyond the last full segment."""
        return self.n - 2 * self.b * self.N

    # -- membership ----------------------------------------------------

    def _route(self, l: int):
        """(segment, offset) for element l; segment 0 means the tail."""
        if not 1 <= l <= self.n:
            raise IndexError(l)
        seg = 2 * self.b
        k = (l - 1) // seg + 1
        if k <= self.N:
            return k, (l - 1) % seg
        return 0, l - seg * self.N - 1

    def contains(self, l: int) -> bool:
        k, pos = self._route(l)
        if k == 0:
            self._tail_reads += 1
            charge(2 * self.b, self.w)
            return bool((self.D2 >> pos) & 1)
        return bool((self.D1.read(k) >> pos) & 1)

    __contains__ = contains

    def insert(self, l: int) -> None:
        k, pos = self._route(l)
        if k == 0:
            self._tail_reads += 1
            self._tail_writes += 1
            charge(2 * self.b, self.w, 2)
            self.D2 |= 1 << pos
            return
        x0 = self.D1.read(k)
        x1 = x0 | (1 << pos)
        if x1 != x0:
            self._write_segment(k, x1, structural=x0 == 0)

    def delete(self, l: int) -> None:
        k, pos = self._route(l)
        if k == 0:
            self._tail_reads += 1
            self._tail_writes += 1
            charge(2 * self.b, self.w, 2)
            self.D2 &= ~(1 << pos)
            return
        x0 = self.D1.read(k)
        x1 = x0 & ~(1 << pos)
        if x1 != x0:
            self._write_segment(k, x1, structural=x1 == 0)

    def _write_segment(self, k: int, x: int, structural: bool) -> None:
        # Only writes that flip a segment between empty and non-empty
        # re-match cells; value-only writes cannot disturb the sweep.
        if structural and self._iter is not None:
            pre = self._iter_snapshot(k)
            self.D1.write(k, x)
            self._iter_hooks(*pre)
        else:
            self.D1.write(k, x)

    def choice(self) -> int:
        """Some member, or 0; fixed as the lowest bit of segment mate(N)."""
        if self.D1 is not None:
            k = self.D1.nonzero()
            if k is not None:
                return 2 * self.b * (k - 1) + _lsb(self.D1.read(k)) + 1
        self._tail_reads += 1
        charge(2 * self.b, self.w)
        if self.D2:
            return 2 * self.b * self.N + _lsb(self.D2) + 1
        return 0

    # -- iteration -----------------------------------------------------

    def iter_init(self) -> None:
        """Start (or restart) the single supported iteration; O(1)."""
        self._steps = 0
        if self.D1 is not None:
            N = self.D1.N
            self._iter = IterState(N, UncoloredDict(N, w=self.w), UncoloredDict(N, w=self.w))
        else:
            self._iter = IterState(0, None, None)

    def _chain_pending(self, it) -> bool:
        if it.buffer:
            return True
        if self.D1 is None:
            return False
        return it.dplus.choice() != 0 or it.eta > self.D1.mu

    def _advance_skips(self, it) -> None:
        if self.D1 is None or it.buffer:
            return
        while (
            it.dplus.choice() == 0
            and it.eta > self.D1.mu
            and it.dminus.contains(self.D1.mate(it.eta))
        ):
            it.eta -= 1
            self._steps += 1

    def iter_more(self) -> bool:
        it = self._iter
        if it is None:
            return False
        self._advance_skips(it)
        if self._chain_pending(it):
            return True
        self._tail_reads += 1
        charge(2 * self.b, self.w)
        if self.D2 >> it.tail_cursor:
            return True
        self._iter = None  # exhausted: release the side structures
        return False

    def iter_next(self) -> int:
        it = self._iter
        if it is None:
            return 0
        d1 = self.D1
        while True:
            self._steps += 1
            if it.buffer:
                k = it.buffer
                a = d1.read(k)
                rest = a >> it.cursor
                if rest:
                    q = it.cursor + _lsb(rest)
                    it.cursor = q + 1
                    if not a >> it.cursor:
                        self._finish_segment(it, k)
                    return 2 * self.b * (k - 1) + q + 1
                self._finish_segment(it, k)
                continue
            if d1 is not None:
                kp = it.dplus.choice()
                if kp:
                    it.buffer = kp
                    it.cursor = 0
                    continue
                if it.eta > d1.mu:
                    k = d1.mate(it.eta)
                    if it.dminus.contains(k):
                        it.eta -= 1
                        continue
                    it.buffer = k
                    it.cursor = 0
                    continue
            self._tail_reads += 1
            charge(2 * self.b, self.w)
            rest = self.D2 >> it.tail_cursor
            if rest:
                q = it.tail_cursor + _lsb(rest)
                it.tail_cursor = q + 1
                return 2 * self.b * self.N + q + 1
            self._iter = None
            return 0

    def _finish_segment(self, it, k: int) -> None:
        if it.dplus is not None and it.dplus.contains(k):
            it.dplus.delete(k)
        elif it.eta > self.D1.mu and self.D1.mate(it.eta) == k:
            it.eta -= 1
        it.buffer = 0
        it.cursor = 0

    def _iter_snapshot(self, k: int):
        """Strength and sweep-reach of every cell a write could re-match."""
        d1 = self.D1
        mu = d1.mu
        it = self._iter
        cand = {k, d1.mate(k)}
        if mu >= 1:
            cand.update((mu, d1.mate(mu)))
        if mu + 1 <= d1.N:
            cand.update((mu + 1, d1.mate(mu + 1)))
        state = {}
        for x in cand:
            m = d1.mate(x)
            strong = (m > mu) if x <= mu else (m == x)
            state[x] = (strong, mu < m <= it.eta)
        return mu, state

    def _iter_hooks(self, mu_b: int, state) -> None:
        d1 = self.D1
        it = self._iter
        mu_a = d1.mu
        if mu_a < mu_b:
            # Barrier moved left: index mu_b left the side universes.
            e = mu_b
            if it.dplus.contains(e):
                it.dplus.delete(e)
                if it.buffer == e:
                    it.buffer = 0
                    it.cursor = 0
            if it.dminus.contains(e):
                it.dminus.delete(e)
        for x, (s_b, l_b) in state.items():
            m = d1.mate(x)
            s_a = (m > mu_a) if x <= mu_a else (m == x)
            l_a = mu_a < m <= it.eta
            if not s_a:
                # Emptied: any pending cursor or mark on x is meaningless.
                if it.dplus.contains(x):
                    it.dplus.delete(x)
                if it.dminus.contains(x):
                    it.dminus.delete(x)
                if it.buffer == x:
                    it.buffer = 0
                    it.cursor = 0
            elif s_b and l_b and not l_a and x <= mu_a and not it.dminus.contains(x):
                it.dplus.insert(x)  # rescued: fell out of the sweep's reach
            elif l_a and not l_b and x <= mu_a and not it.dminus.contains(x):
                # Back in reach though handled (or queued): skip it when swept.
                it.dminus.insert(x)

    @property
    def iteration_steps(self) -> int:
        """Internal advances of the current or most recent iteration."""
        return self._steps

    # -- audits --------------------------------------------------------

    def bits_used(self):
        """Bit budget by role; the quiescent core is exactly n+1."""
        core = (self.D1.footprint_bits if self.D1 is not None else 1) + self.n_tail
        it_bits = 0
        if self._iter is not None:
            # eta, segment cursor, tail cursor as words; active flag;
            # sticky buffer; two side dictionaries.
            it_bits = 3 * self.w + 1 + max(1, self.n.bit_length())
            if self._iter.dplus is not None:
                it_bits += self._iter.dplus.bits_used()["core"]
                it_bits += self._iter.dminus.bits_used()["core"]
        return {"core": core, "side": 0, "iteration": it_bits, "transient": 0}

    def access_counts(self):
        out = {
            "cell_reads": self.D1.cell_reads if self.D1 is not None else 0,
            "cell_writes": self.D1.cell_writes if self.D1 is not None else 0,
            "tail_reads": self._tail_reads,
            "tail_writes": self._tail_writes,
            "side_reads": 0,
            "side_writes": 0,
        }
        it = self._iter
        if it is not None and it.dplus is not None:
            for sd in (it.dplus, it.dminus):
                sc = sd.access_counts()
                out["side_reads"] += sc["cell_reads"] + sc["tail_reads"] + sc["side_reads"]
                out["side_writes"] += sc["cell_writes"] + sc["tail_writes"] + sc["side_writes"]
        return out

    def reset_access_counts(self) -> None:
        if self.D1 is not None:
            self.D1.reset_access_counts()
        self._tail_reads = 0
        self._tail_writes = 0
        it = self._iter
        if it is not None and it.dplus is not None:
            it.dplus.reset_access_counts()
            it.dminus.reset_access_counts()

    def _freeze_counters(self):
        it = self._iter
        side = ()
        if it is not None and it.dplus is not None:
            side = (it.dplus._freeze_counters(), it.dminus._freeze_counters())
        d1 = (self.D1.cell_reads, self.D1.cell_writes) if self.D1 is not None else (0, 0)
        return d1, self._tail_reads, self._tail_writes, side

    def _restore_counters(self, snap) -> None:
        d1, tr, tw, side = snap
        if self.D1 is not None:
            self.D1.cell_reads, self.D1.cell_writes = d1
        self._tail_reads, self._tail_writes = tr, tw
        it = self._iter
        if side and it is not None and it.dplus is not None:
            it.dplus._restore_counters(side[0])
            it.dminus._restore_counters(side[1])

    def validate(self):
        """O(n) invariant scan; returns a list of violation strings.

        Observation-neutral: access counters are restored afterwards.
        """
        snap = self._freeze_counters()
        out = []
        if self.D2 >> self.n_tail:
            out.append("tail holds bits beyond n'")
        if self.D1 is not None:
            out += self.D1.validate()
            if self.D1.N != self.n // (2 * self.b):
                out.append("segment count disagrees with n")
        it = self._iter
        if it is not None:
            out += self._validate_iteration(it)
        self._restore_counters(snap)
        return out

    def _validate_iteration(self, it):
        out = []
        if not 0 <= it.tail_cursor <= self.n_tail:
            out.append(f"tail cursor {it.tail_cursor} out of range")
        if self.D1 is None:
            return out
        d1 = self.D1
        N = d1.N
        mu = d1.mu
        if not 0 <= it.eta <= N:
            out.append(f"sweep index {it.eta} outside [0, {N}]")
            return out
        out += ["S+ side: " + v for v in it.dplus.validate()]
        out += ["S- side: " + v for v in it.dminus.validate()]
        reach = {d1.mate(p) for p in range(mu + 1, it.eta + 1)}
        splus = {x for x in range(1, N + 1) if it.dplus.contains(x)}
        sminus = {x for x in range(1, N + 1) if it.dminus.contains(x)}
        clash = (reach - sminus) & splus
        if clash:
            out.append(f"rescued segments {sorted(clash)} still in the sweep's reach")
        for x in splus:
            if x > mu:
                out.append(f"rescued segment {x} right of the barrier")
            m = d1.mate(x)
            if not ((m > mu) if x <= mu else (m == x)):
                out.append(f"rescued segment {x} holds no elements")
        if it.buffer and not 1 <= it.buffer <= N:
            out.append(f"buffer {it.buffer} out of range")
        if not 0 <= it.cursor <= 2 * self.b:
            out.append(f"segment cursor {it.cursor} out of range")
        return out

    # -- self-contained serialization ----------------------------------

    def serialize(self, convention: str = "big") -> BitString:
        """One self-delimiting bit string holding n and the n+1 payload bits."""
        if self._iter is not None:
            raise RuntimeError("cannot serialize during an active iteration")
        head = encode_header(self.n, convention)
        if self.D1 is not None:
            cells = self.D1.N * self.D1.cell_bits
            payload = self.D1._a | (self.D1._flag << cells) | (self.D2 << (cells + 1))
        else:
            payload = self.D2 << 1  # pad bit keeps the flag slot
        plen = self.n + 1
        if convention == "big":
            value = 0 | (head.value << 1) | (payload << (1 + head.len_bits))
        else:
            value = 1 | (payload << 1) | (head.value << (1 + plen))
        return BitString(value, 1 + head.len_bits + plen, self.w)

    @classmethod
    def deserialize(cls, bits: BitString, w: int = DEFAULT_W) -> "UncoloredDict":
        total = bits.len_bits
        if total < 3:
            raise ValueError("stream too short")
        if bits.value & 1:
            n, L = _decode_little(bits.value >> 1, total - 1)
            hlen = 2 * L - 1
            if total != 1 + (n + 1) + hlen:
                raise ValueError("stream length disagrees with header")
            payload = (bits.value >> 1) & ((1 << (n + 1)) - 1)
        else:
            n, L = _decode_big(bits.value >> 1, total - 1)
            hlen = 2 * L - 1
            if total != 1 + hlen + (n + 1):
                raise ValueError("stream length disagrees with header")
            payload = bits.value >> (1 + hlen)
        d = cls(n, w=w)
        if d.D1 is not None:
            cells = d.D1.N * d.D1.cell_bits
            # Same-package restore of the exact image, barrier included.
            d.D1._a = payload & ((1 << cells) - 1)
            d.D1._flag = (payload >> cells) & 1
            d.D2 = payload >> (cells + 1)
        else:
            if payload & 1:
                raise ValueError("pad bit set in a tail-only image")
            d.D2 = payload >> 1
        bad = d.validate()
        if bad:
            raise ValueError(f"inconsistent payload: {bad[0]}")
        return d

