import itertools

import pytest

from choicedict.oracle import (
    NaiveDict,
    WorkloadScript,
    audit_bits,
    iteration_accounting,
    run_equivalence,
)


def test_naive_uncolored_exhaustive_vs_set():
    n = 3
    moves = [(op, l) for op in ("insert", "delete") for l in range(1, n + 1)]
    for seq in itertools.product(moves, repeat=4):
        d = NaiveDict(n)
        s = set()
        for op, l in seq:
            getattr(d, op)(l)
            (s.add if op == "insert" else s.discard)(l)
            assert d.members() == s
            assert [d.contains(i) for i in range(1, n + 1)] == [
                int(i in s) for i in range(1, n + 1)
            ]
            ch = d.choice()
            assert (ch == 0) == (not s) and (ch in s or ch == 0)


def test_naive_colored_exhaustive_vs_dict():
    n, c = 2, 3
    moves = [(l, j) for l in range(1, n + 1) for j in range(c)]
    for seq in itertools.product(moves, repeat=3):
        d = NaiveDict(n, c)
        colors = {l: 0 for l in range(1, n + 1)}
        for l, j in seq:
            d.setcolor(j, l)
            colors[l] = j
            assert all(d.color(i) == colors[i] for i in colors)
            for jj in range(c):
                want = {i for i in colors if colors[i] == jj}
                assert d.members(jj) == want
                ch = d.choice_color(jj)
                assert (ch == 0) == (not want) and (ch in want or ch == 0)


def test_naive_argument_errors():
    d = NaiveDict(4)
    with pytest.raises(IndexError):
        d.insert(5)
    with pytest.raises(IndexError):
        d.contains(0)
    dc = NaiveDict(4, 3)
    with pytest.raises(ValueError):
        dc.setcolor(3, 1)
    with pytest.raises(ValueError):
        NaiveDict(4, 1)
    with pytest.raises(ValueError):
        NaiveDict(-1)


def test_workload_determinism_and_roundtrip():
    a = WorkloadScript.generate(50, seed=11, length=200)
    b = WorkloadScript.generate(50, seed=11, length=200)
    assert a == b
    assert a.ops and all(op[0] != "setcolor" for op in a.ops)
    text = a.serialize()
    assert WorkloadScript.parse(text) == a

    col = WorkloadScript.generate(20, c=4, seed=3, length=150)
    assert any(op[0] == "setcolor" for op in col.ops)
    assert WorkloadScript.parse(col.serialize()) == col

    custom = WorkloadScript.generate(
        5,
        seed=9,
        length=300,
        weights=(("insert", 0.5), ("contains", 0.3), ("choice", 0.2)),
    )
    assert {op[0] for op in custom.ops} == {"insert", "contains", "choice"}
    assert WorkloadScript.parse(custom.serialize()) == custom
    # arguments never exceed the universe size
    for op in custom.ops:
        if op[0] != "choice":
            assert 1 <= op[1] <= 5


def test_workload_parse_errors():
    with pytest.raises(ValueError):
        WorkloadScript.parse("insert 3\n")


def test_run_equivalence_identical_passes():
    script = WorkloadScript.generate(30, seed=5, length=500)
    rep = run_equivalence(script, NaiveDict(30), NaiveDict(30))
    assert rep.ok and rep.ops_run == len(script.ops)


class _Sabotaged(NaiveDict):
    def contains(self, l):
        got = super().contains(l)
        return 1 - got if l == 2 else got


def test_run_equivalence_divergence_minimized():
    script = WorkloadScript.generate(10, seed=8, length=400)
    assert any(op == ("contains", 2) for op in script.ops)
    rep = run_equivalence(
        script,
        _Sabotaged(10),
        NaiveDict(10),
        rebuild=lambda: (_Sabotaged(10), NaiveDict(10)),
    )
    assert not rep.ok
    assert rep.witness == (("contains", 2),)


class _FakeStruct:
    def __init__(self, parts):
        self._parts = parts

    def bits_used(self):
        return self._parts


def test_audit_bits():
    rep = audit_bits(_FakeStruct({"core": 4097, "side": 12, "iteration": 3}))
    assert (rep.core, rep.side, rep.iteration, rep.transient) == (4097, 12, 3, 0)
    assert rep.total == 4112
    with pytest.raises(ValueError):
        audit_bits(_FakeStruct({"core": 1, "junk": 2}))
    with pytest.raises(ValueError):
        audit_bits(_FakeStruct({"core": -1}))


def test_iteration_static_and_malformed():
    ok = iteration_accounting(
        [("begin", frozenset({2, 5})), ("enum", 5), ("enum", 2), ("end",)]
    )
    assert ok.ok and ok.regime == "static"
    missed = iteration_accounting([("begin", frozenset({2, 5})), ("enum", 5), ("end",)])
    assert not missed.ok
    twice = iteration_accounting(
        [("begin", frozenset({2})), ("enum", 2), ("enum", 2), ("end",)]
    )
    assert not twice.ok
    stranger = iteration_accounting(
        [("begin", frozenset({2})), ("enum", 2), ("enum", 7), ("end",)]
    )
    assert not stranger.ok
    assert not iteration_accounting([("enum", 1)]).ok
    assert not iteration_accounting([("begin", frozenset()), ("enum", 1)]).ok


def test_iteration_decremental():
    good = iteration_accounting(
        [
            ("begin", frozenset({1, 2, 3})),
            ("enum", 3),
            ("delete", 2),
            ("enum", 1),
            ("end",),
        ]
    )
    assert good.ok and good.regime == "decremental"
    stale = iteration_accounting(
        [("begin", frozenset({1, 2})), ("delete", 2), ("enum", 2), ("end",)]
    )
    assert not stale.ok and "not a member" in stale.violations[0]
    double = iteration_accounting(
        [
            ("begin", frozenset({1, 2})),
            ("enum", 1),
            ("delete", 2),
            ("enum", 1),
            ("end",),
        ]
    )
    assert not double.ok


def test_iteration_incremental():
    good = iteration_accounting(
        [
            ("begin", frozenset({4})),
            ("enum", 4),
            ("insert", 9),
            ("enum", 9),
            ("enum", 4),
            ("end",),
        ]
    )
    assert good.ok and good.regime == "incremental"
    late_arrival_skipped = iteration_accounting(
        [("begin", frozenset({4})), ("insert", 9), ("enum", 4), ("end",)]
    )
    assert late_arrival_skipped.ok
    missed = iteration_accounting(
        [("begin", frozenset({4, 7})), ("insert", 9), ("enum", 4), ("end",)]
    )
    assert not missed.ok
    thrice = iteration_accounting(
        [
            ("begin", frozenset({4})),
            ("insert", 9),
            ("enum", 4),
            ("enum", 4),
            ("enum", 4),
            ("enum", 9),
            ("end",),
        ]
    )
    assert not thrice.ok


def test_iteration_mixed_and_colored():
    mixed = iteration_accounting(
        [
            ("begin", frozenset({1})),
            ("enum", 1),
            ("delete", 1),
            ("insert", 1),
            ("enum", 1),
            ("end",),
        ]
    )
    assert mixed.ok and mixed.regime == "mixed"
    col = iteration_accounting(
        [
            ("begin", 2, frozenset({3, 8})),
            ("enum", 3),
            ("setcolor", 8, 0),
            ("setcolor", 5, 2),
            ("enum", 5),
            ("end",),
        ]
    )
    assert col.ok and col.regime == "colored-complete"
    missed = iteration_accounting(
        [("begin", 2, frozenset({3, 8})), ("enum", 3), ("end",)]
    )
    assert not missed.ok
    over = iteration_accounting(
        [
            ("begin", 1, frozenset({3})),
            ("enum", 3),
            ("enum", 3),
            ("enum", 3),
            ("end",),
        ],
        repeat_bound=2,
    )
    assert not over.ok
