"""Reference implementations and test machinery for the dictionaries.

Everything here is deliberately naive: plain arrays, linear scans,
explicit event logs.  The real structures are checked against these,
never the other way around.

The space auditor and the iteration checker are the two pieces with
actual content.  `audit_bits` normalizes a structure's self-reported
storage into a four-way partition (core / side / iteration / transient)
and `iteration_accounting` replays an event log and decides whether an
iteration satisfied the guarantee of its regime:

* always: an element is only ever handed out while it is a member;
* decremental (no inserts): members that survive to the end are
  enumerated exactly once, and nothing twice;
* incremental (no deletes): every element present throughout (i.e. a
  member at the start) at least once, nobody more than twice; elements
  inserted mid-flight may be missed;
* mixed: per-element enumeration count is at most 1 + the number of
  updates during the iteration;
* colored complete: every element wearing the color throughout is
  reported at least once.
"""

import random
from dataclasses import dataclass, field


class NaiveDict:
    """Array-backed reference with the same surface as the real dicts.

    With c=None this is an uncolored membership dictionary over 1..n
    (insert/delete/contains/choice); with c >= 2 it
    is a colored one (setcolor/color/choice-within-color), every index
    starting at color 0.
    """

    def __init__(self, n, c=None):
        if n < 0:
            raise ValueError("universe size cannot be negative")
        if c is not None and c < 2:
            raise ValueError("need at least two colors")
        self.n = n
        self.c = c
        self.vals = [0] * n

    def _check(self, l):
        if not 1 <= l <= self.n:
            raise IndexError(l)

    # uncolored surface ------------------------------------------------

    def insert(self, l):
        self._check(l)
        self.vals[l - 1] = 1

    def delete(self, l):
        self._check(l)
        self.vals[l - 1] = 0

    def contains(self, l):
        self._check(l)
        return 1 if self.vals[l - 1] else 0

    def choice(self):
        for l, v in enumerate(self.vals, 1):
            if v:
                return l
        return 0

    # colored surface --------------------------------------------------

    def setcolor(self, j, l):
        if not 0 <= j < self.c:
            raise ValueError(f"color {j} out of range")
        self._check(l)
        self.vals[l - 1] = j

    def color(self, l):
        self._check(l)
        return self.vals[l - 1]

    def choice_color(self, j):
        for l, v in enumerate(self.vals, 1):
            if v == j:
                return l
        return 0

    # test helpers -----------------------------------------------------

    def members(self, j=None):
        want = 1 if j is None and self.c is None else j
        return frozenset(l for l, v in enumerate(self.vals, 1) if v == want)


_DEFAULT_WEIGHTS = {
    None: (("insert", 0.35), ("delete", 0.25), ("contains", 0.2), ("choice", 0.2)),
    "colored": (("setcolor", 0.5), ("color", 0.25), ("choice_color", 0.25)),
}


@dataclass(frozen=True)
class WorkloadScript:
    """A replayable operation sequence; equal fields, equal sequence."""

    n: int
    c: object
    seed: int
    length: int
    weights: tuple
    ops: tuple

    @classmethod
    def generate(cls, n, c=None, seed=0, length=100, weights=None):
        if weights is None:
            weights = _DEFAULT_WEIGHTS[None if c is None else "colored"]
        rng = random.Random(seed)
        names = [wname for wname, _ in weights]
        cum = [w for _, w in weights]
        ops = []
        for _ in range(length):
            name = rng.choices(names, cum)[0]
            if name == "choice":
                ops.append(("choice",))
                continue
            if n == 0:
                continue
            l = rng.randint(1, n)
            if name == "setcolor":
                ops.append(("setcolor", rng.randrange(c), l))
            elif name == "choice_color":
                ops.append(("choice_color", rng.randrange(c)))
            else:
                ops.append((name, l))
        return cls(n, c, seed, length, tuple(weights), tuple(ops))

    def serialize(self):
        wspec = ",".join(f"{name}:{wt}" for name, wt in self.weights)
        head = (
            f"# workload n={self.n} c={'-' if self.c is None else self.c} "
            f"seed={self.seed} length={self.length} weights={wspec}"
        )
        lines = [head]
        lines += [" ".join(str(x) for x in op) for op in self.ops]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# workload "):
            raise ValueError("missing workload header")
        kv = dict(part.split("=", 1) for part in lines[0][11:].split())
        weights = tuple(
            (name, float(wt))
            for name, wt in (p.split(":") for p in kv["weights"].split(","))
        )
        ops = []
        for ln in lines[1:]:
            toks = ln.split()
            ops.append((toks[0], *map(int, toks[1:])))
        return cls(
            int(kv["n"]),
            None if kv["c"] == "-" else int(kv["c"]),
            int(kv["seed"]),
            int(kv["length"]),
            weights,
            tuple(ops),
        )


@dataclass
class EquivalenceReport:
    ok: bool
    ops_run: int
    failure: str = ""
    witness: tuple = ()


def _apply_op(struct, op):
    return getattr(struct, op[0])(*op[1:])


def _diverges(ops, real, naive):
    """Index of the first disagreement when running ops, or -1."""
    for i, op in enumerate(ops):
        name = op[0]
        if name in ("choice", "choice_color"):
            r = _apply_op(real, op)
            _apply_op(naive, op)
            want = naive.members(None if name == "choice" else op[1])
            if (r == 0) != (not want) or (r != 0 and r not in want):
                return i
        elif name in ("contains", "color"):
            if _apply_op(real, op) != _apply_op(naive, op):
                return i
        else:
            try:
                _apply_op(real, op)
                real_err = None
            except (ValueError, IndexError) as e:
                real_err = type(e)
            try:
                _apply_op(naive, op)
                naive_err = None
            except (ValueError, IndexError) as e:
                naive_err = type(e)
            if real_err is not naive_err:
                return i
    return -1


def run_equivalence(script, real, naive, rebuild=None):
    """Replay `script` on both structures, comparing every query.

    choice-style results are compared semantically (membership plus
    emptiness agreement).  On divergence, if `rebuild` can produce fresh
    (real, naive) pairs, the failing prefix is greedily shrunk to a
    minimal witness.
    """
    ops = list(script.ops)
    bad = _diverges(ops, real, naive)
    if bad < 0:
        return EquivalenceReport(True, len(ops))
    witness = ops[: bad + 1]
    if rebuild is not None:
        keep = list(witness)
        i = 0
        while i < len(keep) - 1:
            trial = keep[:i] + keep[i + 1 :]
            if _diverges(trial, *rebuild()) >= 0:
                keep = trial
            else:
                i += 1
        witness = keep
    return EquivalenceReport(
        False,
        bad,
        f"divergence at op {bad}: {ops[bad]}",
        tuple(witness),
    )


@dataclass
class AuditReport:
    core: int
    side: int
    iteration: int
    transient: int

    @property
    def total(self):
        return self.core + self.side + self.iteration + self.transient


def audit_bits(structure):
    """Normalize structure.bits_used() into the canonical partition."""
    parts = structure.bits_used()
    extra = set(parts) - {"core", "side", "iteration", "transient"}
    if extra:
        raise ValueError(f"unknown audit categories: {sorted(extra)}")
    if any(v < 0 for v in parts.values()):
        raise ValueError("negative bit count in audit")
    return AuditReport(
        parts.get("core", 0),
        parts.get("side", 0),
        parts.get("iteration", 0),
        parts.get("transient", 0),
    )


@dataclass
class IterVerdict:
    ok: bool
    regime: str
    violations: list = field(default_factory=list)


def iteration_accounting(event_log, repeat_bound=None):
    """Judge one logged iteration window.

    The log is a sequence of tuples: ("begin", frozenset_of_members) or
    ("begin", color, frozenset), then any of ("insert", l),
    ("delete", l), ("setcolor", l, j), ("enum", l), closed by ("end",).
    The regime is inferred from which updates occur.
    """
    if not event_log or event_log[0][0] != "begin":
        return IterVerdict(False, "malformed", ["log must start with begin"])
    head = event_log[0]
    colored = len(head) == 3
    color = head[1] if colored else None
    current = set(head[-1])
    start = frozenset(current)
    counts = {}
    inserts = deletes = recolors = 0
    touched = set()
    violations = []
    closed = False
    for t, ev in enumerate(event_log[1:], 1):
        kind = ev[0]
        if kind == "end":
            closed = True
            break
        if kind == "enum":
            l = ev[1]
            if l not in current:
                violations.append(f"t={t}: enumerated {l} while not a member")
            counts[l] = counts.get(l, 0) + 1
        elif kind == "insert":
            inserts += 1
            touched.add(ev[1])
            current.add(ev[1])
        elif kind == "delete":
            deletes += 1
            touched.add(ev[1])
            current.discard(ev[1])
        elif kind == "setcolor":
            l, j = ev[1], ev[2]
            recolors += 1
            touched.add(l)
            if colored and j == color:
                current.add(l)
            else:
                current.discard(l)
        else:
            violations.append(f"t={t}: unknown event {ev!r}")
    if not closed:
        violations.append("log never ends")
    updates = inserts + deletes + recolors
    if colored:
        regime = "colored-complete"
        for l in start & set(current) - touched:
            if counts.get(l, 0) < 1:
                violations.append(f"{l} wore the color throughout, never enumerated")
        if repeat_bound is not None and sum(counts.values()) > repeat_bound:
            violations.append(
                f"{sum(counts.values())} enumerations exceed bound {repeat_bound}"
            )
    elif updates == 0:
        regime = "static"
        for l in start:
            if counts.get(l, 0) != 1:
                violations.append(f"{l} enumerated {counts.get(l, 0)} times, want 1")
        for l in counts:
            if l not in start:
                violations.append(f"{l} enumerated but never a member")
    elif inserts == 0:
        regime = "decremental"
        for l, k in counts.items():
            if k > 1:
                violations.append(f"{l} enumerated {k} times in decremental run")
        for l in start & set(current):
            if counts.get(l, 0) != 1:
                violations.append(f"surviving member {l} enumerated {counts.get(l, 0)} times")
    elif deletes == 0:
        regime = "incremental"
        for l, k in counts.items():
            if k > 2:
                violations.append(f"{l} enumerated {k} times, cap is 2")
        for l in start:
            if counts.get(l, 0) < 1:
                violations.append(f"throughout-member {l} never enumerated")
    else:
        regime = "mixed"
        for l, k in counts.items():
            if k > 1 + updates:
                violations.append(f"{l} enumerated {k} times with {updates} updates")
    return IterVerdict(not violations, regime, violations)
