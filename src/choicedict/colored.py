"""Colored choice dictionaries with constant-time creation.

Every element of {1..n} wears one of c colors, all of them 0 at the
start.  `color`, `setcolor` and `choice` cost a constant number of
word operations (for fixed c), and the store stays within one bit of
the information-theoretic minimum: n*log2(c)+1 bits exactly when c is
a power of two, and n*log2(c) plus a sublinear, fully audited slack
otherwise.

The universe is cut into N = n//m containers of m elements plus a
loose field array for the n mod m surplus elements.  Each container is
one `container` engine whose state lives in a fixed-width slot; a
deficient (compact) state leaves free bits, and those free bits fund
the bookkeeping:

* A barrier mu counts the deficient containers.  A matching pairs
  every full container at index <= mu with a deficient partner above
  the barrier and vice versa, so "strong" (full) and "weak" (compact)
  cells can be told apart in constant time by one reciprocity probe.
  A strong matched cell lends the top bits of its slot to the mate
  pointer; the displaced value bits sit in the partner's top field.
* Per color j, a side membership dictionary D_j over {1..N} remembers
  which containers contain color j.  The side dictionaries have fixed
  universe N and are kept exact for every container ever written;
  containers never written are covered by a monotone probe cursor that
  walks the untouched prefix on demand (all their elements still wear
  color 0, so only D_0 is affected).
* Slots are materialized lazily in a plain dict, which doubles as the
  written/untouched test; creation therefore does no per-container
  work at all.

Iteration over one color drains D_j through its own mutation-robust
iterator and enumerates the color-j chain of every container it
reports (for color 0, untouched containers are materialized first so
D_0 covers them), then scans the surplus fields.  A quiescent
iteration reports each member exactly once; members recolored
mid-iteration may be skipped or repeated, but anything wearing the
color throughout is reported at least once, and elements are only
ever handed out while they wear the color.
"""

from .words import CapacityError, DEFAULT_W, MAX_BITS, charge
from .container import FieldContainer, NumeralContainer, _succ_in_fields
from .uncolored import UncoloredDict

_SIDE_W = 32  # word size for the side dictionaries; ample for any N here


def _geometry(m, c, f, pow2):
    """(image_bits, slot_bits) of the container engine, re-derived.

    Kept in lockstep with the container classes (asserted when the
    first scratch engine is built) so that creation can size the store
    without constructing anything.
    """
    if pow2:
        m_main = m - m % (c * c * f)
        packed = (m_main // c) * (c * f - 1) if m_main else 0
        image = packed + (m - m_main) * f + c
        return image, m * f
    g = m // (2 * c)
    u = ((c - 1) ** (2 * c) - 1).bit_length()
    image = g * u + (m - 2 * c * g) * f + c
    return image, (c ** m - 1).bit_length()


def _capacity(m, c, f, pow2):
    image, slot = _geometry(m, c, f, pow2)
    top = slot if pow2 else slot - 1  # general slots round up by one bit
    return max(0, top - image)


def _pick_m(n, c, f, pow2):
    """Container size: least granularity multiple whose free bits hold
    the matching fields, with room to spare for both halves of a pair."""
    r0 = max(1, n.bit_length())
    reserve = 2 * (r0 + (c + r0 + 1))  # mate + top + aux, twice over
    if pow2:
        gran = c * c * f
        m = c * (c + reserve)
        m += (-m) % gran
        return m
    gran = 2 * c
    m = max(8 * c * c * r0, c * (c + reserve))
    m += (-m) % gran
    while _capacity(m, c, f, pow2) < reserve:
        m += gran
    return m


class _ColorIter:
    """Cursor bundle for one in-flight per-color iteration."""

    __slots__ = ("k", "pos", "walk_done", "drain_on", "drain_done",
                 "s_pos", "buffered")

    def __init__(self, want_walk):
        self.k = 0               # container currently being enumerated
        self.pos = 0
        self.walk_done = not want_walk
        self.drain_on = False
        self.drain_done = False
        self.s_pos = 0           # surplus cursor
        self.buffered = 0        # element promised by iter_more


class ColoredDict:
    """c-color choice dictionary over {1..n}; see the module docstring."""

    def __init__(self, n, c, w=DEFAULT_W, container_elems=None):
        if n < 1:
            raise ValueError("universe must have at least one element")
        if c < 2:
            raise ValueError("need at least two colors")
        if c.bit_length() > 20:
            raise CapacityError(f"{c} colors exceed the configured cap")
        self.n = n
        self.c = c
        self.w = w
        self._pow2 = c & (c - 1) == 0
        self.f = c.bit_length() - 1 if self._pow2 else (c - 1).bit_length()
        m = container_elems if container_elems is not None else _pick_m(
            n, c, self.f, self._pow2)
        if m < 1:
            raise ValueError("containers need at least one element")
        if m * self.f > MAX_BITS:
            raise CapacityError(f"container of {m} elements is too wide")
        self.m = m
        self.N = n // m
        self.m_s = n - self.N * m
        self._image, self._slot = _geometry(m, c, self.f, self._pow2)
        cap = _capacity(m, c, self.f, self._pow2)
        self._R = max(1, self.N.bit_length())
        if self.N >= 1 and cap < 2 * self._R:
            raise ValueError(
                f"container of {m} elements leaves {cap} free bits, "
                f"fewer than the {2 * self._R} the matching fields need")
        anchor = self._image + cap
        self._mateoff = anchor - self._R
        self._topoff = anchor - 2 * self._R
        self._rmask = (1 << self._R) - 1
        self._fmask = (1 << self.f) - 1
        # Mutable state.  Everything here is O(1) words; container slots
        # and the scratch engine come into existence on first use.
        self._cells = {}
        self._surplus = 0
        self._mu = self.N
        self._probe = 1
        self._flag = 1 if self.N else 0
        self._D = None  # the per-color side dictionaries, built on first use
        self._scratch = None
        self._default = None
        self._iters = [None] * c

    # -- slots ---------------------------------------------------------

    def _side(self):
        if self._D is None:
            self._D = [UncoloredDict(self.N, "strict", _SIDE_W)
                       for _ in range(self.c)]
        return self._D

    def _ensure_scratch(self):
        if self._scratch is None:
            cls = FieldContainer if self._pow2 else NumeralContainer
            d = cls(self.m, self.c, self.w)
            assert d._image_bits == self._image, "geometry drift"
            assert d._standard_bits == self._slot, "geometry drift"
            self._default = d._state
            self._scratch = d
        return self._scratch

    def _load(self, state, full):
        sc = self._ensure_scratch()
        sc._state = state
        sc.full = full
        return sc

    def _cell(self, k):
        charge(self._slot, self.w)
        v = self._cells.get(k)
        if v is None:
            if self._default is None:
                self._ensure_scratch()
            return self._default
        return v

    def _touch(self, k):
        """Materialize slot k before its first write.

        An untouched container holds only color 0, so its D_0 bit is set
        here; all later membership upkeep runs through setcolor.
        """
        if k not in self._cells:
            if self._default is None:
                self._ensure_scratch()
            self._cells[k] = self._default
            charge(self._slot, self.w)
            d0 = self._side()[0]
            if not d0.contains(k):
                d0.insert(k)

    def _put(self, k, state):
        self._touch(k)
        charge(self._slot, self.w)
        self._cells[k] = state

    # -- matching fields -----------------------------------------------

    def _read_mate(self, k):
        charge(self._R, self.w)
        v = self._cells.get(k)
        return (v >> self._mateoff) & self._rmask if v is not None else 0

    def _read_top(self, k):
        charge(self._R, self.w)
        v = self._cells.get(k)
        return (v >> self._topoff) & self._rmask if v is not None else 0

    def _set_mate(self, state, g):
        return (state & ~(self._rmask << self._mateoff)) | (g << self._mateoff)

    def _write_mate(self, k, g):
        self._touch(k)
        charge(self._R, self.w)
        self._cells[k] = self._set_mate(self._cells[k], g)

    def _write_top(self, k, bits):
        self._touch(k)
        charge(self._R, self.w)
        off = self._topoff
        self._cells[k] = (self._cells[k] & ~(self._rmask << off)) | (bits << off)

    def _mate_of(self, k):
        """Partner of k under the matching, or k itself.

        An edge exists only if both pointers agree and the pair straddles
        the barrier; anything else in the mate field is value bits or
        leftovers and is ignored.
        """
        g = self._read_mate(k)
        if g < 1 or g > self.N or g == k:
            return k
        if (k <= self._mu) == (g <= self._mu):
            return k
        return g if self._read_mate(g) == k else k

    def _assemble(self, k):
        """(state, full, partner) with split storage resolved."""
        kp = self._mate_of(k)
        strong = (kp != k) == (k <= self._mu)
        state = self._cell(k)
        if strong and kp != k:
            state = self._set_mate(state, 0) | (self._read_top(kp) << self._mateoff)
        return state, strong, kp

    def _eliminate(self, i):
        # i just became a standard cell whose mate field is value bits;
        # if those bits fake a reciprocal edge, break it at the far end
        # (necessarily a weak cell, where the field is free payload).
        g = self._read_mate(i)
        if 1 <= g <= self.N and g != i and (i <= self._mu) != (g <= self._mu) \
                and self._read_mate(g) == i:
            self._write_mate(g, g)

    # -- element plumbing ----------------------------------------------

    def _route(self, l):
        if not 1 <= l <= self.n:
            raise IndexError(f"element {l} outside 1..{self.n}")
        if l <= self.N * self.m:
            return (l - 1) // self.m + 1, (l - 1) % self.m + 1
        return 0, l - self.N * self.m

    def _surplus_color(self, pos):
        charge(self.f, self.w)
        return (self._surplus >> ((pos - 1) * self.f)) & self._fmask

    # -- queries -------------------------------------------------------

    def color(self, l):
        k, pos = self._route(l)
        if k == 0:
            return self._surplus_color(pos)
        state, full, _ = self._assemble(k)
        return self._load(state, full).color(pos)

    def container_index(self, l):
        """Slot index of element l: 1..N for packed, 0 for surplus."""
        return self._route(l)[0]

    def members(self, j, k):
        """All elements of color j inside slot k, ascending.

        k = 0 reads the surplus fields.  One decode per call; the scan
        itself is a successor cascade over the decoded digit view, so
        the transient footprint is a single container's field vector.
        """
        if not 0 <= j < self.c:
            raise ValueError(f"color {j} out of range")
        if k == 0:
            fields, count, base = self._surplus, self.m_s, self.N * self.m
            if count:
                charge(count * self.f, self.w)
        elif 1 <= k <= self.N:
            state, full, _ = self._assemble(k)
            sc = self._load(state, full)
            if not full and not (sc._z() >> j) & 1:
                return []
            fields, count, base = sc._fields(), self.m, (k - 1) * self.m
        else:
            raise IndexError(f"container {k} outside 0..{self.N}")
        out = []
        pos = 0
        while count and (pos := _succ_in_fields(fields, count, self.f, j,
                                                pos, self.w)):
            out.append(base + pos)
        return out

    def choice(self, j):
        """Some element of color j, or 0 if the color is unworn."""
        if not 0 <= j < self.c:
            raise ValueError(f"color {j} out of range")
        if self.N:
            k = self._side()[j].choice()
            if k:
                state, full, _ = self._assemble(k)
                q = self._load(state, full).successor(j, 0)
                assert q, "side dictionary out of sync"
                return (k - 1) * self.m + q
            if j == 0:
                v = self._walk_front()
                if v:
                    return (v - 1) * self.m + 1
        if self.m_s:
            q = _succ_in_fields(self._surplus, self.m_s, self.f, j, 0, self.w)
            if q:
                return self.N * self.m + q
        return 0

    choice_color = choice  # naming used by the workload harness

    def _walk_front(self):
        """First untouched container at or after the probe, or 0.

        The probe only ever moves forward, and it moves past a written
        container at most once, so the skipping is amortized constant.
        """
        while self._probe <= self.N and self._probe in self._cells:
            self._probe += 1
        return self._probe if self._probe <= self.N else 0

    # -- updates -------------------------------------------------------

    def setcolor(self, j, l):
        if not 0 <= j < self.c:
            raise ValueError(f"color {j} out of range")
        k, pos = self._route(l)
        if k == 0:
            o = self._surplus_color(pos)
            if o != j:
                off = (pos - 1) * self.f
                charge(self.f, self.w)
                self._surplus = (self._surplus & ~(self._fmask << off)) | (j << off)
            return
        state, strong, kp = self._assemble(k)
        sc = self._load(state, strong)
        tr = sc.setcolor(j, pos)
        if tr.was is None:
            return
        if tr.kind == "none":
            if strong:
                if kp != k:
                    self._write_top(kp, (sc._state >> self._mateoff) & self._rmask)
                    self._put(k, self._set_mate(sc._state, kp))
                else:
                    self._put(k, sc._state)
            else:
                self._put(k, sc._state)
                if tr.new_first:
                    self._side()[j].insert(k)
                if tr.old_gone:
                    self._side()[tr.was].delete(k)
        elif tr.kind == "became_full":
            self._insertion(k, kp, sc._state, j)
        else:
            self._deletion(k, kp, sc._state, tr.j0)

    def _insertion(self, k, kp, full_state, j):
        """Weak container k filled up: move the barrier left by one.

        The cell at the old barrier position switches sides; depending on
        whether it, k, and their partners coincide, its digits are
        restored from a top field and the orphaned partners re-paired.
        """
        assert self._mu >= 1, "a weak container implies a positive barrier"
        self._side()[j].insert(k)
        mu_t = self._mu
        top_k = self._read_top(k)
        mu_p = self._mate_of(mu_t)
        self._mu = mu_t - 1
        if self._mu == 0 and self._flag:
            self._flag = 0
            charge(1, self.w)
        if mu_p != mu_t:
            # mu_t was strong matched; bring its displaced bits home.
            ab = top_k if mu_p == k else self._read_top(mu_p)
            self._put(mu_t, self._set_mate(self._cell(mu_t), ab))
            self._eliminate(mu_t)
        if k != mu_p:
            if k <= self._mu:
                # k stays left of the barrier: pair it with mu_p.
                self._write_top(mu_p, (full_state >> self._mateoff) & self._rmask)
                self._write_mate(mu_p, k)
                self._put(k, self._set_mate(full_state, mu_p))
            else:
                self._put(k, full_state)
                self._eliminate(k)
                assert kp != k, "a weak cell right of the barrier has a partner"
                self._write_top(mu_p, top_k)
                self._write_mate(mu_p, kp)
                self._write_mate(kp, mu_p)
        else:
            self._put(k, full_state)
            self._eliminate(k)

    def _deletion(self, k, kp, compact_state, j0):
        """Strong container k lost a color: move the barrier right.

        k turns weak (compact, payload zeroed); the cell entering the
        left side gives up its top bits, and k's old partner is paired
        with the entering cell's old partner.
        """
        assert self._mu < self.N, "a strong container implies mu < N"
        self._side()[j0].delete(k)
        mu_h = self._mu + 1
        mu_p = self._mate_of(mu_h)
        self._mu = mu_h
        if mu_h == 1 and not self._flag:
            self._flag = 1
            charge(1, self.w)
        if mu_p != k:
            v = self._read_top(mu_h) if mu_p != mu_h else self._read_mate(mu_h)
            self._put(k, compact_state)
            self._write_mate(kp, mu_p)
            self._write_mate(mu_p, kp)
            self._write_top(kp, v)
        else:
            self._put(k, compact_state)

    # -- iteration -----------------------------------------------------

    def iter_init(self, j):
        if not 0 <= j < self.c:
            raise ValueError(f"color {j} out of range")
        if self._iters[j] is not None:
            raise RuntimeError(
                f"iteration over color {j} is still incomplete")
        self._iters[j] = _ColorIter(j == 0 and self.N >= 1)
        charge(1, self.w)

    def iter_more(self, j):
        if not 0 <= j < self.c:
            raise ValueError(f"color {j} out of range")
        it = self._iters[j]
        if it is None:
            return False
        if it.buffered:
            if self.color(it.buffered) == j:
                return True
            it.buffered = 0  # recolored while promised; look further
        x = self._advance(j, it)
        if x == 0:
            self._iters[j] = None
            return False
        it.buffered = x
        return True

    def iter_next(self, j):
        if not 0 <= j < self.c:
            raise ValueError(f"color {j} out of range")
        it = self._iters[j]
        if it is None:
            return 0
        while True:
            if it.buffered:
                x, it.buffered = it.buffered, 0
                if self.color(x) == j:
                    return x
                continue
            x = self._advance(j, it)
            if x == 0:
                self._iters[j] = None
            return x

    def _advance(self, j, it):
        """Next element of color j, or 0 when the iteration completes.

        Everything rides on D_j: because the side bits are exact for
        every container ever written, draining D_j through its own
        mutation-robust iterator visits each relevant container once in
        the static case and still covers everything that holds color j
        throughout when setcolors interleave.  The only preparation is
        for color 0, where untouched containers are first materialized
        so that D_0 speaks for them too; the drain then emits their
        elements like anyone else's.  Surplus fields are scanned last.
        """
        while True:
            if it.k:
                state, full, _ = self._assemble(it.k)
                q = self._load(state, full).successor(j, it.pos)
                if q:
                    it.pos = q
                    return (it.k - 1) * self.m + q
                it.k = 0
                continue
            if not it.walk_done:
                v = self._walk_front()
                while v:
                    self._touch(v)
                    v = self._walk_front()
                it.walk_done = True
                continue
            if self.N and not it.drain_done:
                dj = self._side()[j]
                if not it.drain_on:
                    if dj.choice() == 0:
                        it.drain_done = True
                    else:
                        dj.iter_init()
                        it.drain_on = True
                    continue
                if dj.iter_more():
                    kk = dj.iter_next()
                    if kk:
                        it.k, it.pos = kk, 0
                    continue
                it.drain_done = True
                continue
            if self.m_s:
                q = _succ_in_fields(self._surplus, self.m_s, self.f, j,
                                    it.s_pos, self.w)
                if q:
                    it.s_pos = q
                    return self.N * self.m + q
            return 0

    # -- audits --------------------------------------------------------

    def bits_used(self):
        """Bit budget by role, quiescent side exactly c*(N+1) + headers."""
        lw = max(1, self.n.bit_length())
        core = self.N * self._slot + self.m_s * self.f + 1
        side = 0
        if self.N:
            # strict side dictionaries hold exactly N+1 bits apiece,
            # whether or not they have been instantiated yet
            side = self.c * (self.N + 1)
            side += 2 * max(1, self.N.bit_length())  # mu and the probe
        it_bits = 0
        for j, it in enumerate(self._iters):
            if it is None:
                continue
            it_bits += 5 * lw + 4
            if self._D is not None:
                it_bits += self._D[j].bits_used()["iteration"]
        transient = self._slot if self._scratch is not None else 0
        return {"core": core, "side": side, "iteration": it_bits,
                "transient": transient}

    def validate(self):
        """Exhaustive structural check; returns a list of complaints."""
        bad = []
        occ = {}
        weak = 0
        for k in range(1, self.N + 1):
            raw = self._cells.get(k)
            if raw is not None and raw >> self._slot:
                bad.append(f"cell {k} wider than its slot")
            state, strong, kp = self._assemble(k)
            sc = self._load(state, strong)
            for msg in sc.validate():
                bad.append(f"container {k}: {msg}")
            cols = {sc.color(p) for p in range(1, self.m + 1)}
            occ[k] = cols
            full = len(cols) == self.c
            if full != strong:
                bad.append(f"container {k}: full={full} but geometry says "
                           f"strong={strong}")
            if not full:
                weak += 1
            if raw is None:
                if cols != {0}:
                    bad.append(f"container {k}: untouched but not all color 0")
                if k > self._mu:
                    bad.append(f"container {k}: untouched right of the barrier")
            if kp != k:
                if self._mate_of(kp) != k:
                    bad.append(f"matching at {k} not reciprocal")
                if (k <= self._mu) == (kp <= self._mu):
                    bad.append(f"pair ({k},{kp}) does not straddle the barrier")
        if self.N and weak != self._mu:
            bad.append(f"{weak} weak containers but barrier at {self._mu}")
        if self.N:
            side = self._side()
            for j in range(self.c):
                if side[j].bits_used()["core"] != self.N + 1:
                    bad.append(f"D_{j} core has drifted off N+1 bits")
                for k in range(1, self.N + 1):
                    want = j in occ[k] and (
                        j > 0 or k in self._cells or k < self._probe)
                    if side[j].contains(k) != want:
                        bad.append(f"D_{j} wrong about container {k}")
        if self._flag != (1 if self._mu > 0 else 0):
            bad.append(f"flag {self._flag} with barrier at {self._mu}")
        for pos in range(1, self.m_s + 1):
            if self._surplus_color(pos) >= self.c:
                bad.append(f"surplus element {pos} wears no valid color")
        if self._surplus >> (self.m_s * self.f):
            bad.append("surplus field array wider than its elements")
        return bad


def create(n, c, w=DEFAULT_W, container_elems=None):
    """Fresh dictionary over {1..n}, everything color 0; O(1) time.

    `container_elems` overrides the container sizing formula (handy in
    tests for forcing many small containers); sizes that cannot host
    the matching fields are rejected.
    """
    return ColoredDict(n, c, w=w, container_elems=container_elems)
