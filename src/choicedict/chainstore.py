"""The in-place chain: constant-time initialization by barrier/matching.

One technique (Hagerup & Kammer, "Succinct choice dictionaries"; Katoh &
Goto, "In-place initializable arrays") underlies both the n+1-bit
uncolored dictionary and the colored one.  Cells 1..N are split by a
barrier index mu into a left side (k <= mu) and a right side, and each
cell is *strong* or *weak*.  A fresh structure puts the barrier at N and
needs no other work, whatever the memory holds.  The rules:

* k is matched to l iff their mate fields name each other and exactly
  one of the two is left of the barrier.
* k is strong iff (matched and k <= mu) or (unmatched and k > mu).
* mu always equals the number of weak cells.
* A strong right cell holds its value verbatim.  A strong left cell
  lends the bits under its mate field (its *displaced* bits) to the
  pointer; they sit in its weak partner's *top* field.  Weak cells keep
  their mate and top fields free for this.
* A write that keeps the strength rewrites in place; a strong right
  write severs any edge its new bits fake, at the far end (a weak left
  cell, whose mate field is free).  Weak -> strong moves mu left: the
  cell t = mu crosses to the right with its value and the partners left
  unmatched are paired.  Strong -> weak moves mu right: the cell
  h = mu + 1 crosses to the left and hands its displaced bits over.

`Chain` is the engine; two classes instantiate it.

* `ChainStore` (here) is the uncolored instantiation: a weak cell reads
  0 and its storage is free.  Cell k occupies storage bits
  [(k-1)*2b, k*2b) with b = 2w for word size w; the lower half [0, b) is
  a strong left cell's kept value bits and a weak right cell's top
  field, the upper half [b, 2b) is the displaced field, whose bits
  [b, b+p) (p = b//2) are the mate field.  mu is hidden in bits
  [b+p, b+2p) of cell 1 whenever the out-of-array flag bit says
  mu >= 1, so the store occupies exactly 2bN + 1 bits.
* `colored.ColoredDict` is the colored instantiation: cells are
  container slots, strong means full and weak means deficient, whose
  compact state leaves the mate and top fields in its free bits; mu is
  the `_mu` attribute.
"""

from .words import DEFAULT_W, MAX_BITS, CapacityError, charge


class Chain:
    """Barrier/matching engine over cells 1..N; see the module docstring.

    The instantiation provides `N`, `cell_bits`, the mate field
    (`_mate_off`, `_mate_bits`), the top field (`_top_off`, `_top_bits`;
    the displaced field is the `_top_bits` bits at `_mate_off`), raw
    access (`_field`, `_set_field`; whole cells go through them unless
    `_cell`, `_set_cell` are given), the barrier (`_store_mu`, with
    `_flag` set iff mu >= 1) and weak cells' contents (`_weak`,
    `_set_weak`).  Callers pass mu in.
    """

    __slots__ = ()

    def _cell(self, k):
        return self._field(k, 0, self.cell_bits)

    def _set_cell(self, k, v):
        self._set_field(k, 0, self.cell_bits, v)

    def _set_matefield(self, k, g):
        self._set_field(k, self._mate_off, self._mate_bits, g)

    def _top(self, k):
        return self._field(k, self._top_off, self._top_bits)

    def _set_top(self, k, bits):
        self._set_field(k, self._top_off, self._top_bits, bits)

    def _mate(self, k, mu):
        """Partner of k under barrier mu, or k itself."""
        off, width = self._mate_off, self._mate_bits
        g = self._field(k, off, width)
        if (k <= mu < g <= self.N or 1 <= g <= mu < k) and self._field(g, off, width) == k:
            return g
        return k

    def _get(self, k, mu):
        """(value, strong, partner) of cell k under barrier mu."""
        kp = self._mate(k, mu)
        if kp == k:
            if k > mu:
                return self._cell(k), True, k
        elif k <= mu:
            off = self._mate_off
            kept = self._cell(k) & ~(((1 << self._top_bits) - 1) << off)
            return kept | (self._top(kp) << off), True, kp
        return self._weak(k), False, kp

    def _put(self, k, kp, mu, v):
        """Store v in strong k, whose partner is kp, under barrier mu."""
        if kp == k:
            self._set_cell(k, v)
            g = self._mate(k, mu)
            if g != k:  # the new bits fake an edge: break it at the far end
                self._set_matefield(g, g)
            return
        off, width = self._mate_off, self._top_bits
        self._set_field(k, 0, off, v & ((1 << off) - 1))
        hi = off + width
        if hi < self.cell_bits:
            self._set_field(k, hi, self.cell_bits - hi, v >> hi)
        self._set_top(kp, (v >> off) & ((1 << width) - 1))

    def _strengthen(self, k, kp, mu, v):
        """Weak k (partner kp) takes strong value v; mu moves left."""
        t = mu
        u, _, tp = self._get(t, t)
        self._store_mu(t - 1)
        self._put(t, t, t - 1, u)
        if k != tp:
            self._set_matefield(kp, tp)
            self._set_matefield(tp, kp)
            if k > t:
                # kp's displaced bits move from k's top field to tp's.
                self._set_top(tp, self._top(k))
        self._put(k, tp if k < t else k, t - 1, v)

    def _weaken(self, k, kp, mu, v):
        """Strong k (partner kp) takes weak value v; mu moves right."""
        h = mu + 1
        hp = self._mate(h, mu)
        if hp != k:
            # hp's displaced bits: h's own (h strong) or its top field.
            disp = self._top(h) if hp != h else self._field(h, self._mate_off, self._top_bits)
        self._store_mu(h)
        self._set_weak(k, v)
        self._set_matefield(kp, hp)
        self._set_matefield(hp, kp)
        if hp != k:
            self._set_top(kp, disp)

    def _chain_faults(self, mu, cell_faults):
        """O(N) scan of the weak count and the flag against barrier mu,
        plus `cell_faults(k, value, strong)` for every cell.  Matched
        pairs need no check: `_mate` only reports reciprocal pairs that
        straddle the barrier."""
        out = []
        weak = 0
        for k in range(1, self.N + 1):
            v, strong, _ = self._get(k, mu)
            weak += not strong
            out += cell_faults(k, v, strong)
        if weak != mu:
            out.append(f"{weak} weak cells but barrier at {mu}")
        if self._flag != (1 if mu else 0):
            out.append(f"flag {self._flag} with barrier at {mu}")
        return out


class ChainStore(Chain):
    """N cells of 2b bits that read 0 until written; 2bN + 1 bits."""

    __slots__ = (
        "N",
        "cell_bits",
        "b",
        "p",
        "w",
        "_a",
        "_flag",
        "_mate_off", "_mate_bits", "_top_off", "_top_bits",
        "cell_reads",
        "cell_writes",
    )

    def __init__(self, N: int, w: int = DEFAULT_W, raw_storage: int = 0):
        if N < 1:
            raise ValueError("need at least one cell")
        cell_bits = 4 * w
        if N * cell_bits > MAX_BITS:
            raise CapacityError(f"{N}*{cell_bits} bits exceed MAX_BITS")
        self.N = N
        self.cell_bits = cell_bits
        self.b = cell_bits // 2
        self.p = self.b // 2
        self.w = w
        if N.bit_length() > self.p:
            raise CapacityError(f"mate field of {self.p} bits cannot address {N} cells")
        # b >= 2*ceil(log2(2bN)) so a left cell has room for both the
        # mate field and the hidden barrier index.
        if self.b < 2 * (2 * self.b * N - 1).bit_length():
            raise ValueError(f"word size {w} too small to hide the barrier at N={N}")
        self._mate_off, self._mate_bits = self.b, self.p
        self._top_off, self._top_bits = 0, self.b
        # Constant-time start: adopt whatever the memory holds, place the
        # barrier at the right end.  No matching edge can exist with
        # mu = N (nothing is right of the barrier), so garbage is safe.
        self._a = raw_storage & ((1 << (N * cell_bits)) - 1)
        self._flag = 0
        self.cell_reads = 0
        self.cell_writes = 0
        self._store_mu(N)

    # -- raw cell access (everything below counts and charges) --------

    def _field(self, k: int, off: int, width: int) -> int:
        self.cell_reads += 1
        charge(self.cell_bits, self.w)
        sh = (k - 1) * self.cell_bits + off
        return (self._a >> sh) & ((1 << width) - 1)

    def _set_field(self, k: int, off: int, width: int, v: int) -> None:
        self.cell_writes += 1
        charge(self.cell_bits, self.w)
        sh = (k - 1) * self.cell_bits + off
        self._a = (self._a & ~(((1 << width) - 1) << sh)) | (v << sh)

    def _load_mu(self) -> int:
        if not self._flag:
            return 0
        return self._field(1, self.b + self.p, self.p)

    def _store_mu(self, m: int) -> None:
        self._flag = 1 if m >= 1 else 0
        if m >= 1:
            self._set_field(1, self.b + self.p, self.p, m)

    def _weak(self, k: int) -> int:
        return 0

    def _set_weak(self, k: int, v: int) -> None:
        pass  # a weak cell's storage is free

    # -- the operations ------------------------------------------------

    @property
    def mu(self) -> int:
        return self._load_mu()

    def mate(self, k: int) -> int:
        return self._mate(k, self._load_mu())

    def read(self, k: int) -> int:
        if not 1 <= k <= self.N:
            raise IndexError(k)
        return self._get(k, self._load_mu())[0]

    def nonzero(self):
        """Some index holding a nonzero value, or None."""
        mu = self._load_mu()
        if mu == self.N:
            return None
        return self._mate(self.N, mu)

    def write(self, k: int, x: int) -> None:
        if not 1 <= k <= self.N:
            raise IndexError(k)
        if not 0 <= x < (1 << self.cell_bits):
            raise ValueError(f"value does not fit in {self.cell_bits} bits")
        mu = self._load_mu()
        kp = self._mate(k, mu)
        if (kp != k) == (k <= mu):
            if x:
                self._put(k, kp, mu, x)
            else:
                self._weaken(k, kp, mu, 0)
        elif x:
            self._strengthen(k, kp, mu, x)

    # -- diagnostics ---------------------------------------------------

    @property
    def footprint_bits(self) -> int:
        return self.N * self.cell_bits + 1

    def access_counts(self):
        return {"reads": self.cell_reads, "writes": self.cell_writes}

    def reset_access_counts(self) -> None:
        self.cell_reads = 0
        self.cell_writes = 0

    def validate(self):
        """O(N) invariant scan; returns a list of violation strings."""
        mu = self._load_mu()
        if not 0 <= mu <= self.N:
            return [f"mu={mu} outside [0, {self.N}]"]
        return self._chain_faults(
            mu, lambda k, v, strong: [f"strong cell {k} holds 0"] if strong and not v else [])
