"""The four workloads: set-up, a closed-loop measured phase, output checks
and an untimed memory pass.

One caller issues each call only after the previous one has returned.
A phase repeats one fixed round of work -- a whole BFS pass over the
graph, or the first `round_ops` calls of the stream on a fresh
dictionary -- until its deadline, a given number of rounds (used to
replay a traced phase untraced) or, when traced, a cap on recorded
spans.  Every round does the same work, so the median round is a
steady figure on a machine whose speed drifts from second to second.
Outputs are checked after each batch of calls or each pass, outside the
timed regions.
"""

import gc
import math
import os
import time
import tracemalloc
from array import array
from itertools import islice

from choicedict import ColoredDict, UncoloredDict, bfs_forest, load_graph, verify_forest, words
from choicedict.oracle import NaiveDict

import gen

BATCH = 256          # dictionary calls between two output checks
SPAN_CAP = 1_500_000  # a traced phase starts no new round once it holds this many spans

clock = time.perf_counter_ns


class Phase:
    """What one measured phase did: per-unit latencies (ns) and kinds,
    time inside timed regions per round, failed checks, audit and stats."""

    def __init__(self):
        self.units = 0
        self.round_ns = []     # time inside timed regions, per round
        self.round_end = []    # index into lat/kind where each round ends
        self.lat = array("q")
        self.kind = array("b")
        self.failed = 0
        self.word_ops = 0      # analytic word operations charged inside timed regions
        self.audit = {}
        self.stats = {"records": 0, "enumerations": 0}

    @property
    def prog_ns(self):
        return sum(self.round_ns)

    def end_round(self, prog_ns):
        self.round_ns.append(prog_ns)
        self.round_end.append(len(self.lat))

    def rounds(self):
        """(latencies, kinds) of each round."""
        start = 0
        for end in self.round_end:
            yield self.lat[start:end], self.kind[start:end]
            start = end


def run_rounds(one_round, seconds=None, rounds=None, tracer=None):
    """Repeat `one_round(phase, tracer)` until the deadline, the round
    count or the span cap; at least one round always runs."""
    ph = Phase()
    deadline = clock() + int(seconds * 1e9) if seconds else None
    while True:
        one_round(ph, tracer)
        if rounds is not None:
            if len(ph.round_ns) >= rounds:
                return ph
        elif clock() >= deadline or (tracer is not None and len(tracer) >= SPAN_CAP):
            return ph


def _median_time(fn, reps):
    """Median seconds per call of fn over `reps` samples, each sample
    timing enough back-to-back calls to last at least a millisecond."""
    inner, t0 = 0, clock()
    while clock() - t0 < 1_000_000:
        fn()
        inner += 1
    samples = []
    for _ in range(reps):
        t0 = clock()
        for _ in range(inner):
            fn()
        samples.append((clock() - t0) / inner)
    samples.sort()
    return samples[reps // 2] / 1e9


def _heap_peak(fn):
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class _UncoloredCheck:
    """Replays the stream on NaiveDict; contains exact, choice a member
    (or 0 only when the set is empty)."""

    def __init__(self, n):
        self.n = n
        self.ref = NaiveDict(n)
        self.size = 0

    def __call__(self, batch, out):
        ref, bad = self.ref, 0
        for (code, args), r in zip(batch, out):
            if code == gen.INSERT:
                if not ref.contains(args[0]):
                    ref.insert(args[0])
                    self.size += 1
            elif code == gen.DELETE or code == gen.DELETE_MISS:
                if ref.contains(args[0]):
                    ref.delete(args[0])
                    self.size -= 1
            elif code == gen.CONTAINS:
                bad += bool(r) != bool(ref.contains(args[0]))
            elif r:
                bad += not (1 <= r <= self.n and ref.contains(r))
            else:
                bad += self.size != 0
        return bad


class _ColoredCheck:
    """Replays the stream on NaiveDict; color exact, choice_color an
    element of that color (or 0 only when no element wears it)."""

    def __init__(self, n, c):
        self.n = n
        self.ref = NaiveDict(n, c)
        self.count = [n] + [0] * (c - 1)

    def __call__(self, batch, out):
        ref, bad = self.ref, 0
        for (code, args), r in zip(batch, out):
            if code == gen.SETCOLOR:
                j, l = args
                self.count[ref.color(l)] -= 1
                self.count[j] += 1
                ref.setcolor(j, l)
            elif code == gen.COLOR:
                bad += r != ref.color(args[0])
            elif r:
                bad += not (1 <= r <= self.n and ref.color(r) == args[0])
            else:
                bad += self.count[args[0]] != 0
        return bad


class DictWorkload:
    """The first `round_ops` calls of a seeded stream on a fresh structure;
    the memory pass makes the first `memory_ops` of them."""

    unit = "op"

    def __init__(self, name, seed, n, c, round_ops, memory_ops):
        self.name, self.seed, self.n, self.c = name, seed, n, c
        self.round_ops = round_ops
        self.memory_ops = memory_ops
        if c is None:
            self.kinds = ("insert", "delete", "contains", "choice", "delete_miss")
            self.reference_bits = n + 1
        else:
            self.kinds = ("setcolor", "color", "choice_color")
            self.reference_bits = n * math.log2(c) + 1
        self.ops = None
        self.last = None  # the structure the latest round ended with

    def prepare(self):
        """Nothing to write: the calls are drawn in `setup_s`."""

    def cleanup(self):
        pass

    def make(self):
        if self.c is None:
            return UncoloredDict(self.n)
        return ColoredDict(self.n, self.c)

    def calls(self, d):
        if self.c is None:
            return d.insert, d.delete, d.contains, d.choice, d.delete
        return d.setcolor, d.color, d.choice_color

    def setup_s(self, reps=21):
        """Median time of the constructor at the workload's n; also draws
        the round's calls from the seeded stream."""
        if self.c is None:
            stream = gen.uncolored_ops(self.n, self.seed)
        else:
            stream = gen.colored_ops(self.n, self.c, self.seed)
        self.ops = list(islice(stream, self.round_ops))
        return _median_time(self.make, reps)

    def one_round(self, ph, tracer):
        d = self.make()
        fns = self.calls(d)
        check = _UncoloredCheck(self.n) if self.c is None else _ColoredCheck(self.n, self.c)
        lat, kind = ph.lat, ph.kind
        prog = 0
        for i in range(0, len(self.ops), BATCH):
            batch = self.ops[i:i + BATCH]
            out = []
            w0 = words.op_count()
            start = clock()
            for code, args in batch:
                t0 = clock()
                r = fns[code](*args)
                lat.append(clock() - t0)
                out.append(r)
            prog += clock() - start
            ph.word_ops += words.op_count() - w0
            kind.extend(code for code, _ in batch)
            ph.failed += check(batch, out)
        ph.units += len(self.ops)
        ph.end_round(prog)
        parts = d.bits_used()
        ph.audit = {"core": parts["core"], "side": parts["side"],
                    "transient": parts["transient"] + parts["iteration"]}
        self.last = d

    def validate(self, ph):
        """Structural check of the last round's structure, counted as one
        check that fails if any invariant is broken."""
        ph.failed += bool(self.last.validate())

    def heap_peak(self):
        """tracemalloc peak of building the structure and making the first
        `memory_ops` calls of the round, answers discarded."""

        def work():
            fns = self.calls(self.make())
            for code, args in self.ops[:self.memory_ops]:
                fns[code](*args)

        return _heap_peak(work)


class BfsWorkload:
    """Whole succinct BFS passes over one generated graph, streamed."""

    unit = "record"
    kinds = ("record",)

    def __init__(self, name, seed, n, m, directed, outdir):
        self.name, self.seed, self.n, self.m = name, seed, n, m
        self.directed = directed
        self.path = os.path.join(outdir, f"{name}-{seed}.edges")
        self.reference_bits = n * math.log2(3)
        self.graph = None
        self.expect = None

    def prepare(self):
        gen.write_random_graph(self.path, self.n, self.m, self.seed)

    def cleanup(self):
        if os.path.exists(self.path):
            os.remove(self.path)

    def load(self):
        self.graph = load_graph(self.path, "edgelist", self.directed)
        return self.graph

    def setup_s(self, reps=11):
        """Median time of `load_graph` on the generated edge-list file;
        also records the `byte` backend's forest for the checks."""
        t = _median_time(self.load, reps)
        self.expect = list(bfs_forest(self.graph, backend="byte"))
        return t

    def _check(self, recs):
        bad = sum(a != b for a, b in zip(recs, self.expect))
        bad += abs(len(recs) - len(self.expect))
        if verify_forest(self.graph, recs) is not None:
            bad = max(bad, 1)
        return bad

    def one_round(self, ph, tracer):
        stats = {}
        it = bfs_forest(self.graph, backend="succinct", stats=stats)
        if tracer is not None:
            it = tracer.iterate(it)
        lat = ph.lat
        recs = []
        w0 = words.op_count()
        start = t = clock()
        for rec in it:
            t1 = clock()
            lat.append(t1 - t)
            recs.append(rec)
            t = t1
        prog = clock() - start
        ph.word_ops += words.op_count() - w0
        ph.kind.extend(bytes(len(recs)))
        ph.failed += self._check(recs)
        ph.units += len(recs)
        ph.end_round(prog)
        ph.stats["records"] += stats["records"]
        ph.stats["enumerations"] += stats["enumerations"]
        ph.audit = {"core": stats["core_bits"],
                    "side": stats["side_bits"] + stats["header_bits"],
                    "transient": stats["peak_transient_bits"]}

    def validate(self, ph):
        """Nothing to add: every pass is checked by verify_forest."""

    def heap_peak(self):
        """tracemalloc peak of one succinct pass over the loaded graph,
        records consumed as they stream and never stored."""

        def work():
            for _ in bfs_forest(self.graph, backend="succinct"):
                pass

        return _heap_peak(work)


def make(name, seed, outdir):
    if name == "bfs_sparse_undirected":
        return BfsWorkload(name, seed, 20000, 80000, False, outdir)
    if name == "bfs_tiny_trees":
        return BfsWorkload(name, seed, 8000, 8000, True, outdir)
    if name == "dict_uncolored":
        # at n = 2^20 and 2^22 this workload's run-to-run spread passed 10%
        # on a shared two-vCPU EPYC VM; at 2^18 it stays near 4%
        return DictWorkload(name, seed, 1 << 18, None, 10000, 10000)
    if name == "dict_colored":
        # tracemalloc slows this one twenty-fold; by 10000 calls most
        # containers have been written, which sets the peak
        return DictWorkload(name, seed, 1 << 20, 4, 30_000, 10_000)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("bfs_sparse_undirected", "bfs_tiny_trees", "dict_uncolored", "dict_colored")
