"""Constant-time-initializable cell array with in-place barrier/matching.

Stores a logical sequence a_1..a_N of 2b-bit cell values over a raw array
A of N cells, initializable in O(1) by placing a barrier index mu at N.
Cells left of the barrier (k <= mu) and right of it are paired by a
matching encoded in the cells themselves; a cell is *weak* exactly when
its logical value is 0, and weak cells' storage is arbitrary, which is
what makes initialization free.  The rules:

* k is matched to l iff their mate fields point at each other and
  exactly one of the two is left of the barrier.
* k is strong iff (matched and k <= mu) or (unmatched and k > mu).
* a_k = 0 iff k is weak; a strong right cell holds its value in A[k]; a
  strong left cell holds the low half in A[k] and the high half in
  A[mate(k)], both in the cells' lower halves.
* mu always equals the number of weak cells.

Bit-exact cell layout (cell k occupies storage bits [(k-1)*2b, k*2b)),
with b = 2w for word size w: lower half = bits [0, b); upper half =
bits [b, 2b), of which bits [b, b+p) are the mate field (p = b//2,
holding a 1-based cell index) and bits [b+p, b+2p) of cell 1 hold mu
itself whenever the out-of-array flag bit says mu >= 1.  The store
therefore occupies exactly 2bN + 1 bits.

Strong cells never hold 0: a write of 0 runs the deletion path and makes
the cell weak instead.
"""

from .words import DEFAULT_W, MAX_BITS, CapacityError, charge


class ChainStore:
    __slots__ = (
        "N",
        "cell_bits",
        "b",
        "p",
        "w",
        "_a",
        "_flag",
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
        # Constant-time start: adopt whatever the memory holds, place the
        # barrier at the right end.  No matching edge can exist with
        # mu = N (nothing is right of the barrier), so garbage is safe.
        self._a = raw_storage & ((1 << (N * cell_bits)) - 1)
        self._flag = 0
        self.cell_reads = 0
        self.cell_writes = 0
        self._store_mu(N)

    # -- raw cell access (everything below counts and charges) --------

    def _cell(self, k: int) -> int:
        self.cell_reads += 1
        charge(self.cell_bits, self.w)
        return (self._a >> ((k - 1) * self.cell_bits)) & ((1 << self.cell_bits) - 1)

    def _set_cell(self, k: int, v: int) -> None:
        self.cell_writes += 1
        charge(self.cell_bits, self.w)
        sh = (k - 1) * self.cell_bits
        self._a = (self._a & ~(((1 << self.cell_bits) - 1) << sh)) | (v << sh)

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

    def _lower(self, k: int) -> int:
        return self._field(k, 0, self.b)

    def _set_lower(self, k: int, v: int) -> None:
        self._set_field(k, 0, self.b, v)

    def _matefield(self, k: int) -> int:
        return self._field(k, self.b, self.p)

    def _set_matefield(self, k: int, v: int) -> None:
        self._set_field(k, self.b, self.p, v)

    def _load_mu(self) -> int:
        if not self._flag:
            return 0
        return self._field(1, self.b + self.p, self.p)

    def _store_mu(self, m: int) -> None:
        self._flag = 1 if m >= 1 else 0
        if m >= 1:
            self._set_field(1, self.b + self.p, self.p, m)

    # -- the operations ------------------------------------------------

    @property
    def mu(self) -> int:
        return self._load_mu()

    def mate(self, k: int) -> int:
        kp = self._matefield(k)
        mu = self._load_mu()
        if (1 <= k <= mu < kp <= self.N or 1 <= kp <= mu < k <= self.N) and (
            self._matefield(kp) == k
        ):
            return kp
        return k

    def read(self, k: int) -> int:
        if not 1 <= k <= self.N:
            raise IndexError(k)
        mu = self._load_mu()
        if self.mate(k) <= mu:
            return 0
        if k > mu:
            return self._cell(k)
        return self._lower(k) | (self._lower(self.mate(k)) << self.b)

    def nonzero(self):
        """Some index holding a nonzero value, or None."""
        if self._load_mu() == self.N:
            return None
        return self.mate(self.N)

    def simple_write(self, k: int, x: int) -> None:
        """Raw value store for a strong k; severs a faked matching edge.

        Internal: callers must keep the weak/strong bookkeeping straight
        (see `write`).
        """
        if k <= self._load_mu():
            self._set_lower(k, x & ((1 << self.b) - 1))
            self._set_lower(self.mate(k), x >> self.b)
        else:
            self._set_cell(k, x)
            kp = self.mate(k)
            if kp != k:
                self._set_matefield(kp, kp)

    def write(self, k: int, x: int) -> None:
        if not 1 <= k <= self.N:
            raise IndexError(k)
        if not 0 <= x < (1 << self.cell_bits):
            raise ValueError(f"value does not fit in {self.cell_bits} bits")
        x0 = self.read(k)
        kp = self.mate(k)
        if x:
            if not x0:
                # Insertion: the cell at the barrier crosses to the right.
                mu = self._load_mu()
                mup = self.mate(mu)
                u = self.read(mu)
                self._store_mu(mu - 1)
                self.simple_write(mu, u)
                if k != mup:
                    self._set_matefield(kp, mup)
                    self._set_matefield(mup, kp)
                    self._set_lower(mup, self._lower(k))
            self.simple_write(k, x)
        elif x0:
            # Deletion: the cell right of the barrier crosses to the left.
            mu = self._load_mu()
            mup = self.mate(mu + 1)
            v = self.read(mup)
            self._store_mu(mu + 1)
            self._set_matefield(kp, mup)
            self._set_matefield(mup, kp)
            if mup != k:
                self.simple_write(mup, v)

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
        out = []
        mu = self._load_mu()
        if not 0 <= mu <= self.N:
            out.append(f"mu={mu} outside [0, {self.N}]")
            return out
        if self._flag != (1 if mu >= 1 else 0):
            out.append(f"flag={self._flag} inconsistent with mu={mu}")
        weak = 0
        for k in range(1, self.N + 1):
            l = self.mate(k)
            if self.mate(l) != k:
                out.append(f"mate(mate({k})) = {self.mate(l)} != {k}")
            if l != k and not (k <= mu < l or l <= mu < k):
                out.append(f"pair ({k},{l}) does not straddle the barrier")
            if self.mate(k) <= mu:
                weak += 1
            elif self.read(k) == 0:
                out.append(f"strong cell {k} holds 0")
        if weak != mu:
            out.append(f"mu={mu} but {weak} weak cells")
        return out
