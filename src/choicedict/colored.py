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

* The containers are the cells of the in-place chain of `chainstore`:
  full containers are its strong cells and deficient ones its weak
  cells, whose free bits hold the mate and top fields.  The barrier mu
  therefore counts the deficient containers, and full and deficient
  containers are told apart in constant time.
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
from .chainstore import Chain

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


class ColoredDict(Chain):
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
        self._image, self.cell_bits = _geometry(m, c, self.f, self._pow2)
        cap = _capacity(m, c, self.f, self._pow2)
        # The chain's mate field and, below it, the top field sit at the
        # top of a deficient container's free bits.
        R = self._mate_bits = self._top_bits = max(1, self.N.bit_length())
        if self.N >= 1 and cap < 2 * R:
            raise ValueError(
                f"container of {m} elements leaves {cap} free bits, "
                f"fewer than the {2 * R} the matching fields need")
        self._mate_off = self._image + cap - R
        self._top_off = self._mate_off - R
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
            assert d._standard_bits == self.cell_bits, "geometry drift"
            self._default = d._state
            self._scratch = d
        return self._scratch

    def _load(self, state, full):
        sc = self._ensure_scratch()
        sc._state = state
        sc.full = full
        return sc

    # -- raw slot access, as the chain engine needs it ------------------

    def _cell(self, k):
        charge(self.cell_bits, self.w)
        v = self._cells.get(k)
        if v is None:
            self._ensure_scratch()
            return self._default
        return v

    def _touch(self, k):
        """Materialize slot k before its first write.

        An untouched container holds only color 0, so its D_0 bit is set
        here; all later membership upkeep runs through setcolor.
        """
        if k not in self._cells:
            self._cells[k] = self._cell(k)
            d0 = self._side()[0]
            if not d0.contains(k):
                d0.insert(k)

    def _set_cell(self, k, state):
        self._touch(k)
        charge(self.cell_bits, self.w)
        self._cells[k] = state

    def _field(self, k, off, width):
        charge(width, self.w)
        return (self._cells.get(k, 0) >> off) & ((1 << width) - 1)

    def _set_field(self, k, off, width, bits):
        self._touch(k)
        charge(width, self.w)
        self._cells[k] = (self._cells[k] & ~(((1 << width) - 1) << off)) | (bits << off)

    _weak = _cell  # a deficient container's state is its slot
    _set_weak = _set_cell

    def _store_mu(self, m):
        self._mu = m
        flag = 1 if m else 0
        if flag != self._flag:
            self._flag = flag
            charge(1, self.w)

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
        state, full, _ = self._get(k, self._mu)
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
            state, full, _ = self._get(k, self._mu)
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
                state, full, _ = self._get(k, self._mu)
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
        mu = self._mu
        state, strong, kp = self._get(k, mu)
        sc = self._load(state, strong)
        tr = sc.setcolor(j, pos)
        if tr.was is None:
            return
        if tr.kind == "none":
            if strong:
                self._put(k, kp, mu, sc._state)
            else:
                self._set_cell(k, sc._state)
                if tr.new_first:
                    self._side()[j].insert(k)
                if tr.old_gone:
                    self._side()[tr.was].delete(k)
        elif tr.kind == "became_full":
            self._side()[j].insert(k)
            self._strengthen(k, kp, mu, sc._state)
        else:
            self._side()[tr.j0].delete(k)
            self._weaken(k, kp, mu, sc._state)

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
                state, full, _ = self._get(it.k, self._mu)
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
        """Bit budget by role: core N*cell_bits + m_s*f + 1 (the flag);
        side c*(N+1) + 2*bitlen(N) (D_j, mu and the probe); iteration
        5*lg n + 4 plus D_j's cursor per open color; transient one slot
        once the scratch container exists."""
        lw = max(1, self.n.bit_length())
        core = self.N * self.cell_bits + self.m_s * self.f + 1
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
        transient = self.cell_bits if self._scratch is not None else 0
        return {"core": core, "side": side, "iteration": it_bits,
                "transient": transient}

    def validate(self):
        """Exhaustive structural check; returns a list of complaints."""
        occ = {}

        def container_faults(k, state, strong):
            bad = []
            raw = self._cells.get(k)
            if raw is not None and raw >> self.cell_bits:
                bad.append(f"cell {k} wider than its slot")
            sc = self._load(state, strong)
            bad += [f"container {k}: {msg}" for msg in sc.validate()]
            occ[k] = cols = {sc.color(p) for p in range(1, self.m + 1)}
            if (len(cols) == self.c) != strong:
                bad.append(f"container {k}: full={not strong} but geometry "
                           f"says strong={strong}")
            if raw is None:
                if cols != {0}:
                    bad.append(f"container {k}: untouched but not all color 0")
                if k > self._mu:
                    bad.append(f"container {k}: untouched right of the barrier")
            return bad

        bad = self._chain_faults(self._mu, container_faults)
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
        for pos in range(1, self.m_s + 1):
            if self._surplus_color(pos) >= self.c:
                bad.append(f"surplus element {pos} wears no valid color")
        if self._surplus >> (self.m_s * self.f):
            bad.append("surplus field array wider than its elements")
        return bad
