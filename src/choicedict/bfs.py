"""Breadth-first forests on a three-color vertex store.

The traversal keeps one tri-state cell per vertex (0 = undiscovered,
1 and 2 = two interchangeable "visited" classes) inside a colored
choice dictionary, so the per-vertex working memory is n*log2(3) bits
plus the dictionary's audited slack.  Records stream out at discovery
time, never buffered.

Layering works without any per-vertex depth storage:

* The two visited classes alternate roles per layer.  Vertices
  discovered during layer d are written into the off class, so the
  class being drained never receives insertions and one complete
  enumeration of it is exact.
* A processed vertex is simply left in its class ("parked").  Every
  neighbor of a parked vertex is already non-white, so accidentally
  enumerating it again cannot emit anything; staleness needs no bit.
* Each layer's drain is gated by a freshness dictionary over
  container indices: a container is enqueued only when a vertex is
  discovered into it, and the gate is consumed destructively, one
  member at a time.  Parked vertices therefore cost time only when
  they share a container with a current-frontier vertex, which keeps
  the total enumeration count within a constant of n plus the number
  of color writes on every graph the test corpus draws, and within
  container_elems times that in the worst case.  The gate is a
  constant-time-initializable bit dictionary, so a fresh one per
  layer costs nothing; both live gates are counted in the audit.
* A tree's root is processed directly, without a gated drain: it is
  a single known vertex, and paying a container scan for it would
  charge every tiny tree of a sparse directed graph for the parked
  vertices that happen to share the root's container.
* New trees start at the order-first undiscovered vertex, found by a
  pointer that only moves forward through the vertex order.  Parked
  vertices never return to color 0, so the pointer cannot adopt a
  finished vertex as a root.

Graphs load from a plain edge list (header line "n m", then one
"u v" line per edge, 1-based) or from DIMACS ("p sp n m" header,
"a u v [w]" arcs, weights ignored) into a compact adjacency-array
form.  `verify_forest` re-runs the traversal with a plain queue and a
byte color array and checks every record invariant independently.

The `byte` backend swaps the succinct store for a flat byte array
while keeping the identical drain order, so the two backends must
produce record-for-record equal forests; diverging output is a bug in
one of them by construction.
"""

import argparse
import sys
from array import array
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .colored import ColoredDict, _pick_m
from .uncolored import UncoloredDict

_GATE_W = 32


class GraphFormatError(ValueError):
    """Unparseable or inconsistent graph input; carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Graph:
    """Directed or symmetric adjacency in compact index arrays.

    `adj[xadj[v-1]:xadj[v]]` are v's out-neighbors (both directions are
    stored for undirected graphs).  Vertices are 1-based; `m_edges` is
    the input edge count, not the stored arc count.
    """

    __slots__ = ("n", "m_edges", "directed", "xadj", "adj")

    def __init__(self, n: int, m_edges: int, directed: bool,
                 xadj: array, adj: array):
        self.n = n
        self.m_edges = m_edges
        self.directed = directed
        self.xadj = xadj
        self.adj = adj

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   directed: bool) -> "Graph":
        if n < 0:
            raise ValueError("vertex count cannot be negative")
        us = array("i")
        vs = array("i")
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) outside 1..{n}")
            us.append(u)
            vs.append(v)
        return cls._from_arrays(n, us, vs, directed)

    @classmethod
    def _from_arrays(cls, n: int, us: array, vs: array,
                    directed: bool) -> "Graph":
        """Build the adjacency of edges (us[i], vs[i]), all in 1..n."""
        m = len(us)
        deg = array("i", bytes(4 * (n + 1)))
        for u in us:
            deg[u] += 1
        if not directed:
            for v in vs:
                deg[v] += 1
        xadj = array("i", bytes(4 * (n + 1)))
        run = 0
        for v in range(1, n + 1):
            run += deg[v]
            xadj[v] = run
        fill = array("i", xadj[:n])  # next write slot per vertex
        adj = array("i", bytes(4 * run))
        for i in range(m):
            u, v = us[i], vs[i]
            adj[fill[u - 1]] = v
            fill[u - 1] += 1
            if not directed:
                adj[fill[v - 1]] = u
                fill[v - 1] += 1
        return cls(n, m, directed, xadj, adj)

    def out(self, v: int) -> array:
        """Out-neighbors of v (all neighbors when undirected)."""
        return self.adj[self.xadj[v - 1]:self.xadj[v]]


def _tokens(path):
    """Yield (line_number, fields) for non-blank lines of a text file."""
    with open(path, "r", encoding="utf-8") as fh:
        for no, line in enumerate(fh, 1):
            parts = line.split()
            if parts:
                yield no, parts


def _two_ints(parts: Sequence[str], no: int, what: str) -> tuple[int, int]:
    if len(parts) != 2:
        raise GraphFormatError(f"expected two fields for {what}, "
                               f"got {len(parts)}", no)
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(f"non-integer {what} {parts!r}", no) from None


#: Largest vertex id or arc offset the `array('i')` adjacency can hold.
_INDEX_LIMIT = 2**31 - 1


def _check_header_sizes(n: int, m: int, directed: bool, no: int) -> None:
    """Reject, on the header line, sizes the adjacency arrays cannot index."""
    arcs = m if directed else 2 * m
    if n > _INDEX_LIMIT or arcs > _INDEX_LIMIT:
        raise GraphFormatError(
            f"{n} vertices and {arcs} stored arcs exceed the limit of "
            f"{_INDEX_LIMIT}", no)


def load_graph(path: str, fmt: str, directed: bool) -> Graph:
    """Parse an edge-list or DIMACS file into a Graph.

    Errors carry the offending line number; a declared edge count that
    does not match the body is rejected either way around.
    """
    if fmt == "edgelist":
        return _load_edgelist(path, directed)
    if fmt == "dimacs":
        return _load_dimacs(path, directed)
    raise ValueError(f"unknown graph format {fmt!r}")


def _load_edgelist(path: str, directed: bool) -> Graph:
    n = m = None
    us = array("i")
    vs = array("i")
    last = 0
    for no, parts in _tokens(path):
        last = no
        if parts[0].startswith("#"):
            continue
        if n is None:
            n, m = _two_ints(parts, no, "header counts")
            if n < 0 or m < 0:
                raise GraphFormatError("negative count in header", no)
            _check_header_sizes(n, m, directed, no)
            continue
        u, v = _two_ints(parts, no, "edge endpoints")
        if len(us) == m:
            raise GraphFormatError(f"more than the declared {m} edges", no)
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"vertex out of range 1..{n}", no)
        us.append(u)
        vs.append(v)
    if n is None:
        raise GraphFormatError("missing \"n m\" header line", last or 1)
    if len(us) != m:
        raise GraphFormatError(
            f"declared {m} edges but found {len(us)}", last or 1)
    return Graph._from_arrays(n, us, vs, directed)


def _load_dimacs(path: str, directed: bool) -> Graph:
    n = m = None
    us = array("i")
    vs = array("i")
    last = 0
    for no, parts in _tokens(path):
        last = no
        kind = parts[0]
        if kind == "c":
            continue
        if kind == "p":
            if n is not None:
                raise GraphFormatError("duplicate problem line", no)
            if len(parts) != 4 or parts[1] != "sp":
                raise GraphFormatError(
                    "problem line must read \"p sp n m\"", no)
            n, m = _two_ints(parts[2:], no, "problem sizes")
            if n < 0 or m < 0:
                raise GraphFormatError("negative count in problem line", no)
            _check_header_sizes(n, m, directed, no)
            continue
        if kind == "a":
            if n is None:
                raise GraphFormatError("arc before the problem line", no)
            if len(parts) not in (3, 4):  # optional weight, ignored
                raise GraphFormatError("arc line must read \"a u v [w]\"", no)
            u, v = _two_ints(parts[1:3], no, "arc endpoints")
            if len(us) == m:
                raise GraphFormatError(f"more than the declared {m} arcs", no)
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"vertex out of range 1..{n}", no)
            us.append(u)
            vs.append(v)
            continue
        raise GraphFormatError(f"unknown record type {kind!r}", no)
    if n is None:
        raise GraphFormatError("missing problem line", last or 1)
    if len(us) != m:
        raise GraphFormatError(
            f"declared {m} arcs but found {len(us)}", last or 1)
    return Graph._from_arrays(n, us, vs, directed)


class ForestRecord(NamedTuple):
    """One streamed vertex: parent (0 for roots), vertex, tree, depth."""

    u: int
    v: int
    k: int
    d: int


# -- color stores --------------------------------------------------------
#
# Both backends expose the same surface: color / setcolor / members /
# container geometry / a per-layer freshness gate.  The gate is shared
# (an uncolored bit dictionary over container indices, consumed in
# ascending order via repeated minimum extraction), so the drain order
# of the two backends is identical by construction.


class _Gate:
    """Destructive one-shot set of container indices 0..N."""

    __slots__ = ("d",)

    def __init__(self, N: int):
        self.d = UncoloredDict(N + 1, "strict", _GATE_W)

    def add(self, k: int) -> None:
        if not self.d.contains(k + 1):
            self.d.insert(k + 1)

    def pop(self) -> Optional[int]:
        # choice() picks an arbitrary (but deterministic) member; any
        # within-layer container order yields a valid forest, and both
        # backends share this gate, so their orders agree exactly.
        k = self.d.choice()
        if not k:
            return None
        self.d.delete(k)
        return k - 1


class _SuccinctStore:
    """Color cells in a ColoredDict; geometry shared with the gate."""

    backend = "succinct"

    def __init__(self, n: int, container_elems: Optional[int]):
        self.d = ColoredDict(n, 3, container_elems=container_elems)
        self.n = n
        self.N = self.d.N
        self.m = self.d.m

    def color(self, v: int) -> int:
        return self.d.color(v)

    def setcolor(self, j: int, v: int) -> None:
        self.d.setcolor(j, v)

    def members(self, j: int, k: int) -> list:
        return self.d.members(j, k)

    def container_index(self, v: int) -> int:
        return self.d.container_index(v)

    def new_gate(self) -> _Gate:
        return _Gate(self.N)

    def bits_used(self) -> dict:
        return self.d.bits_used()


class _ByteStore:
    """Flat byte-per-vertex colors with the same container geometry."""

    backend = "byte"

    def __init__(self, n: int, container_elems: Optional[int]):
        # the container size `ColoredDict(n, 3, container_elems)` picks
        m = container_elems if container_elems is not None else _pick_m(n, 3, 2, False)
        if m < 1:
            raise ValueError("containers need at least one element")
        self.n = n
        self.m = m
        self.N = n // m
        self.colors = bytearray(n + 1)

    def color(self, v: int) -> int:
        return self.colors[v]

    def setcolor(self, j: int, v: int) -> None:
        self.colors[v] = j

    def members(self, j: int, k: int) -> list:
        if k == 0:
            lo, hi = self.N * self.m, self.n
        else:
            lo, hi = (k - 1) * self.m, k * self.m
        col = self.colors
        return [v for v in range(lo + 1, hi + 1) if col[v] == j]

    def container_index(self, v: int) -> int:
        k = (v - 1) // self.m + 1
        return k if k <= self.N else 0

    def new_gate(self) -> _Gate:
        return _Gate(self.N)

    def bits_used(self) -> dict:
        return {"core": 8 * (self.n + 1), "side": 0,
                "iteration": 0, "transient": 0}


def _order_entries(order, n: int) -> Iterator[int]:
    """Validated vertex order; identity when order is None/"identity"."""
    if order is None or (isinstance(order, str) and order == "identity"):
        yield from range(1, n + 1)
        return
    for i, r in enumerate(order, 1):
        if not isinstance(r, int):
            raise ValueError(f"order entry {i} is not an integer: {r!r}")
        if not 1 <= r <= n:
            raise ValueError(f"order entry {i} out of range 1..{n}: {r}")
        yield r


_DRIVER_WORDS = 16  # layer/tree/cursor counters and loop temporaries


def bfs_forest(g: Graph, order=None, *, backend: str = "succinct",
               container_elems: Optional[int] = None,
               stats: Optional[dict] = None) -> Iterator[ForestRecord]:
    """Stream the breadth-first forest of g in vertex order `order`.

    Yields exactly one ForestRecord per vertex, top-down, trees in
    order-first sequence, each tree layer by layer.  `stats`, when
    given, is filled in place with operation counters and (for the
    succinct backend) the working-memory audit.
    """
    if backend == "succinct":
        store = _SuccinctStore(g.n, container_elems)
    elif backend == "byte":
        store = _ByteStore(g.n, container_elems)
    else:
        raise ValueError(f"unknown backend {backend!r}")

    n = g.n
    if stats is None:
        stats = {}
    stats.update(backend=backend, records=0, trees=0, layers=0,
                 enumerations=0, setcolors=0, peak_members=0)

    xadj = g.xadj
    adj = g.adj
    color = store.color
    setcolor = store.setcolor
    members = store.members
    cont = store.container_index

    emitted = 0
    tree = 0
    enums = 0
    writes = 0
    layers = 0
    peak_members = 0

    entries = _order_entries(order, n)
    for r in entries:
        if color(r) != 0:
            continue
        tree += 1
        yield ForestRecord(0, r, tree, 0)
        emitted += 1
        setcolor(1, r)
        writes += 1
        # the root is processed directly: a gated drain for a single
        # known vertex would rescan every parked vertex sharing its
        # container, which the many tiny trees of a sparse directed
        # graph cannot afford
        layers += 1
        enums += 1
        gate = store.new_gate()
        fresh = 0
        for i in range(xadj[r - 1], xadj[r]):
            w = adj[i]
            if color(w) == 0:
                yield ForestRecord(r, w, tree, 1)
                emitted += 1
                setcolor(2, w)
                writes += 1
                gate.add(cont(w))
                fresh += 1
        cur, nxt = 2, 1
        d = 1
        while fresh:
            fresh = 0
            layers += 1
            next_gate = store.new_gate()
            while (k := gate.pop()) is not None:
                batch = members(cur, k)
                if len(batch) > peak_members:
                    peak_members = len(batch)
                for v in batch:
                    enums += 1
                    for i in range(xadj[v - 1], xadj[v]):
                        w = adj[i]
                        if color(w) == 0:
                            yield ForestRecord(v, w, tree, d + 1)
                            emitted += 1
                            setcolor(nxt, w)
                            writes += 1
                            next_gate.add(cont(w))
                            fresh += 1
            d += 1
            cur, nxt = nxt, cur
            gate = next_gate
        if emitted == n:
            # every vertex is placed; the rest of the order is moot
            break

    if emitted != n:
        raise ValueError(
            f"order covered {emitted} of {n} vertices; not a permutation")

    stats["records"] = emitted
    stats["trees"] = tree
    stats["layers"] = layers
    stats["enumerations"] = enums
    stats["setcolors"] = writes
    stats["peak_members"] = peak_members
    bits = store.bits_used()
    lw = max(1, n.bit_length())
    gate_bits = 0
    if backend == "succinct":
        # two gates live at once during a layer; each is one uncolored
        # dictionary over the container indices
        gate_bits = 2 * (store.N + 2 + 2 * _GATE_W)
    stats["core_bits"] = bits["core"]
    stats["side_bits"] = bits["side"] + gate_bits
    stats["header_bits"] = _DRIVER_WORDS * 64
    stats["peak_transient_bits"] = (bits["transient"] +
                                    peak_members * lw + 2 * lw)
    return


# -- independent checker -------------------------------------------------


def verify_forest(g: Graph, records, order=None):
    """Re-derive the forest with a queue and byte arrays; check records.

    Returns None when every invariant holds, else a tuple
    (index, record, reason) naming the first offending record (index
    is 0-based into the stream; record is None when the stream has the
    wrong length).
    """
    from collections import deque

    n = g.n
    recs = list(records)

    seq = list(_order_entries(order, n))
    if sorted(seq) != list(range(1, n + 1)):
        raise ValueError("order is not a permutation of 1..n")

    dist = array("i", bytes(4 * (n + 1)))
    treeid = array("i", bytes(4 * (n + 1)))
    root_of = [0]
    xadj, adj = g.xadj, g.adj
    for v in range(1, n + 1):
        dist[v] = -1
    q = deque()
    for r in seq:
        if dist[r] >= 0:
            continue
        root_of.append(r)
        t = len(root_of) - 1
        dist[r] = 0
        treeid[r] = t
        q.append(r)
        while q:
            u = q.popleft()
            du = dist[u]
            for i in range(xadj[u - 1], xadj[u]):
                w = adj[i]
                if dist[w] < 0:
                    dist[w] = du + 1
                    treeid[w] = t
                    q.append(w)

    # sorted adjacency for edge membership probes
    import bisect
    nbr = [None] * (n + 1)

    def has_edge(u, v):
        lst = nbr[u]
        if lst is None:
            lst = sorted(adj[xadj[u - 1]:xadj[u]])
            nbr[u] = lst
        i = bisect.bisect_left(lst, v)
        return i < len(lst) and lst[i] == v

    if len(recs) != n:
        return (min(len(recs), n), None,
                f"stream has {len(recs)} records for {n} vertices")

    seen = bytearray(n + 1)
    prev_k = 0
    for i, rec in enumerate(recs):
        u, v, k, d = rec
        if not 1 <= v <= n:
            return (i, rec, f"vertex {v} out of range")
        if seen[v]:
            return (i, rec, f"vertex {v} recorded twice")
        if k not in (prev_k, prev_k + 1):
            return (i, rec, f"tree index {k} after {prev_k}")
        if (u == 0) != (d == 0):
            return (i, rec, "root flag and depth disagree")
        if k != treeid[v]:
            return (i, rec, f"vertex {v} belongs to tree {treeid[v]}")
        if d != dist[v]:
            return (i, rec, f"vertex {v} has depth {dist[v]}, not {d}")
        if u == 0:
            if k != prev_k + 1:
                return (i, rec, "second root in one tree")
            if v != root_of[k]:
                return (i, rec,
                        f"tree {k} roots at {root_of[k]} in order-first "
                        f"traversal, not {v}")
        else:
            if not 1 <= u <= n:
                return (i, rec, f"parent {u} out of range")
            if not seen[u]:
                return (i, rec, f"parent {u} not yet recorded")
            if treeid[u] != k:
                return (i, rec, f"parent {u} lies in tree {treeid[u]}")
            if dist[u] != d - 1:
                return (i, rec, f"parent depth {dist[u]} under child "
                                f"depth {d}")
            if not has_edge(u, v):
                return (i, rec, f"no arc {u} -> {v} in the graph")
        seen[v] = 1
        prev_k = k
    return None


# -- command line --------------------------------------------------------


def _read_order_file(path: str, n: int) -> list:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for no, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 1:
                raise GraphFormatError("expected one vertex per line", no)
            try:
                v = int(parts[0])
            except ValueError:
                raise GraphFormatError(
                    f"non-integer vertex {parts[0]!r}", no) from None
            if not 1 <= v <= n:
                raise GraphFormatError(f"vertex out of range 1..{n}", no)
            out.append(v)
    if sorted(out) != list(range(1, n + 1)):
        raise GraphFormatError("order file is not a permutation of 1..n")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="bfs",
        description="Breadth-first forest of a graph, streamed as "
                    "\"u v k d\" records (parent, vertex, tree, depth).")
    ap.add_argument("--graph", required=True, help="input graph file")
    ap.add_argument("--format", required=True,
                    choices=("edgelist", "dimacs"))
    side = ap.add_mutually_exclusive_group(required=True)
    side.add_argument("--directed", action="store_true")
    side.add_argument("--undirected", dest="directed", action="store_false")
    ap.add_argument("--order", default="identity",
                    help="vertex order: a file of n lines, or \"identity\"")
    ap.add_argument("--backend", default="succinct",
                    choices=("succinct", "byte"))
    ap.add_argument("--container-elems", type=int, default=None,
                    metavar="M", help="vertices per container slot")
    ap.add_argument("--audit", action="store_true",
                    help="print working-memory and counter audit to stderr")
    ap.add_argument("--verify", action="store_true",
                    help="check the forest with an independent traversal")
    args = ap.parse_args(argv)

    try:
        g = load_graph(args.graph, args.format, args.directed)
        order = None
        if args.order != "identity":
            order = _read_order_file(args.order, g.n)
    except (OSError, ValueError) as e:
        print(f"bfs: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("bfs: out of memory while loading the graph", file=sys.stderr)
        return 1

    stats = {}
    out = sys.stdout
    kept = [] if args.verify else None
    try:
        for rec in bfs_forest(g, order, backend=args.backend,
                              container_elems=args.container_elems,
                              stats=stats):
            out.write(f"{rec.u} {rec.v} {rec.k} {rec.d}\n")
            if kept is not None:
                kept.append(rec)
    except ValueError as e:
        print(f"bfs: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("bfs: out of memory during the traversal", file=sys.stderr)
        return 1

    if args.audit:
        for key in ("core_bits", "side_bits", "header_bits",
                    "peak_transient_bits", "enumerations", "setcolors"):
            print(f"{key}={stats[key]}", file=sys.stderr)

    if kept is not None:
        bad = verify_forest(g, kept, order)
        if bad is not None:
            i, rec, why = bad
            print(f"bfs: verification failed at record {i}: {why} "
                  f"({rec})", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
