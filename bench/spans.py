"""Span tracing of choicedict's layers from outside the package.

`Tracer.install` wraps the public functions and methods of each layer,
at class level or in the namespace of the module that imports them, so
that every call records one span: name, start, end and the span that was
open when it began.  Spans live in flat arrays and are written out at
the end.  Nothing under the package changes; `uninstall` puts every
original back, so untraced runs execute the unwrapped code.

Self time is a span's duration minus the time its child spans cover.
"""

import json
import time
from array import array
from collections import defaultdict

from choicedict import chainstore, colored, container, uncolored

# (owner, attribute, span name).  Kernels are wrapped in the namespace of
# `container`, so only calls made from the container layer are spans.
LAYER_CALLS = [
    (uncolored.UncoloredDict, "__init__", "uncolored.init"),
    (uncolored.UncoloredDict, "insert", "uncolored.insert"),
    (uncolored.UncoloredDict, "delete", "uncolored.delete"),
    (uncolored.UncoloredDict, "contains", "uncolored.contains"),
    (uncolored.UncoloredDict, "choice", "uncolored.choice"),
    (chainstore.ChainStore, "read", "chainstore.read"),
    (chainstore.ChainStore, "write", "chainstore.write"),
    (chainstore.ChainStore, "nonzero", "chainstore.nonzero"),
    (colored.ColoredDict, "color", "colored.color"),
    (colored.ColoredDict, "setcolor", "colored.setcolor"),
    (colored.ColoredDict, "members", "colored.members"),
    (colored.ColoredDict, "choice", "colored.choice"),
    (colored.ColoredDict, "choice_color", "colored.choice"),
    (container._ContainerBase, "color", "container.color"),
    (container._ContainerBase, "setcolor", "container.setcolor"),
    (container._ContainerBase, "successor", "container.successor"),
    (container, "base_to_pow2", "basechange.base_to_pow2"),
    (container, "pow2_to_base", "basechange.pow2_to_base"),
    (container, "change_base_batched", "basechange.change_base_batched"),
    (container, "compact_pow2", "compaction.compact_pow2"),
    (container, "expand_pow2", "compaction.expand_pow2"),
    (container, "compact_groups", "compaction.compact_groups"),
    (container, "expand_groups", "compaction.expand_groups"),
    (container, "leq_mask", "words.leq_mask"),
    (container, "min_zero_field", "words.min_zero_field"),
]

DRIVER = "bfs.forest"


class Tracer:
    """Flat in-memory span log plus the hooks that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.yielded = defaultdict(int)  # result lengths of list-returning calls
        self.stores = []  # every ChainStore built while installed
        self._saved = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self):
        return len(self.name)

    def wrap(self, fn, name, count_result=False):
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        yielded = self.yielded

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count_result:
                yielded[name] += len(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def iterate(self, it, name=DRIVER):
        """Yield from `it`, each step inside one span called `name`."""
        step = self.wrap(it.__next__, name)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item

    def install(self):
        for owner, attr, name in LAYER_CALLS:
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(orig, name, attr == "members"))
        cs = chainstore.ChainStore
        init = cs.__init__
        self._saved.append((cs, "__init__", init))
        stores = self.stores

        def register(store, *args, **kwargs):
            init(store, *args, **kwargs)
            stores.append(store)

        cs.__init__ = register

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def write(self, path):
        """Spans as four arrays in the machine's byte order, after a
        one-line JSON header naming them."""
        header = {"names": self.names, "count": len(self),
                  "arrays": [["name", "i"], ["parent", "i"],
                             ["start_ns", "q"], ["end_ns", "q"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in (self.name, self.parent, self.start, self.end):
                a.tofile(fh)

    def summary(self):
        """Per span name: calls, inclusive s, self s; plus inclusive s per
        (parent name, child name) edge."""
        n = len(self)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        covered = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        k = len(self.names)
        calls = [0] * k
        incl = [0] * k
        own = [0] * k
        edge = defaultdict(int)
        for i in range(n):
            nid = names[i]
            d = ends[i] - starts[i]
            calls[nid] += 1
            incl[nid] += d
            own[nid] += d - covered[i]
            p = parents[i]
            edge[(names[p] if p >= 0 else -1, nid)] += d
        by_name = {self.names[j]: {"calls": calls[j], "s": incl[j] / 1e9,
                                   "self_s": own[j] / 1e9} for j in range(k)}
        edges = {(self.names[a] if a >= 0 else None, self.names[b]): v / 1e9
                 for (a, b), v in edge.items()}
        return by_name, edges
