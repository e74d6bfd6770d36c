import io
import math
import random
import sys

import pytest

from choicedict.bfs import (
    ForestRecord,
    Graph,
    GraphFormatError,
    bfs_forest,
    load_graph,
    main,
    verify_forest,
)


def forest(g, order=None, backend="succinct", m=24, stats=None):
    return list(bfs_forest(g, order, backend=backend, container_elems=m,
                           stats=stats))


def random_graph(rng, n, density, directed):
    m = n * density if n > 1 else 0
    edges = [(rng.randrange(1, n + 1), rng.randrange(1, n + 1))
             for _ in range(m)]
    return Graph.from_edges(n, edges, directed)


# -- hand-checkable forests --------------------------------------------


def test_path_identity_order():
    g = Graph.from_edges(3, [(1, 2), (2, 3)], directed=False)
    assert forest(g) == [
        ForestRecord(0, 1, 1, 0),
        ForestRecord(1, 2, 1, 1),
        ForestRecord(2, 3, 1, 2),
    ]


def test_isolated_vertices_one_tree_each():
    g = Graph.from_edges(2, [], directed=False)
    assert forest(g) == [ForestRecord(0, 1, 1, 0), ForestRecord(0, 2, 2, 0)]


def test_directed_edges_are_one_way():
    g = Graph.from_edges(3, [(2, 1), (2, 3)], directed=True)
    # 1 has no out-arc, so it is its own tree; 2 still adopts 3
    assert forest(g) == [
        ForestRecord(0, 1, 1, 0),
        ForestRecord(0, 2, 2, 0),
        ForestRecord(2, 3, 2, 1),
    ]


def test_order_decides_roots_and_parents():
    g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)], directed=False)
    recs = forest(g, order=[3, 1, 4, 2])
    assert recs[0] == ForestRecord(0, 3, 1, 0)
    assert {r.v for r in recs} == {1, 2, 3, 4}
    assert [r.d for r in recs] == [0, 1, 1, 2]
    assert verify_forest(g, recs, order=[3, 1, 4, 2]) is None


def test_depths_are_shortest_paths():
    # two routes to 5: 1-2-5 and 1-3-4-5; BFS must take the short one
    g = Graph.from_edges(
        5, [(1, 2), (1, 3), (3, 4), (4, 5), (2, 5)], directed=False)
    recs = forest(g)
    depth = {r.v: r.d for r in recs}
    assert depth[5] == 2
    parent = {r.v: r.u for r in recs}
    assert parent[5] == 2


def test_self_loops_and_duplicate_edges_tolerated():
    g = Graph.from_edges(3, [(1, 1), (1, 2), (1, 2), (2, 3)], directed=False)
    recs = forest(g)
    assert verify_forest(g, recs) is None
    assert [r.v for r in recs] == [1, 2, 3]


# -- randomized corpus against the independent checker ------------------


@pytest.mark.parametrize("density,directed", [
    (1, False), (2, False), (8, False), (1, True), (2, True), (8, True),
])
def test_random_corpus_verifies(density, directed):
    rng = random.Random(1000 * density + directed)
    for trial in range(40):
        n = rng.randrange(1, 400)
        g = random_graph(rng, n, density, directed)
        if trial % 3 == 0:
            order = list(range(1, n + 1))
            rng.shuffle(order)
        else:
            order = None
        st = {}
        recs = forest(g, order, backend="byte", stats=st)
        bad = verify_forest(g, recs, order)
        assert bad is None, bad
        assert st["records"] == n
        assert st["setcolors"] == n  # discoveries only; parking is free
        assert st["enumerations"] <= 4 * (n + st["setcolors"])


def test_backends_agree_record_for_record():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randrange(1, 300)
        g = random_graph(rng, n, rng.choice((1, 2, 8)), rng.random() < 0.5)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        assert forest(g, order) == forest(g, order, backend="byte")


def test_succinct_verifies_too():
    rng = random.Random(31)
    for _ in range(12):
        n = rng.randrange(1, 250)
        g = random_graph(rng, n, 2, rng.random() < 0.5)
        recs = forest(g)
        assert verify_forest(g, recs) is None


def test_deterministic_reruns():
    rng = random.Random(5)
    g = random_graph(rng, 200, 4, False)
    assert forest(g) == forest(g)


# -- the checker must actually check ------------------------------------


@pytest.fixture
def checked():
    g = Graph.from_edges(
        8, [(1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (7, 8)], directed=False)
    recs = forest(g)
    assert verify_forest(g, recs) is None
    return g, recs


def _mutate(recs, i, **kw):
    out = list(recs)
    out[i] = out[i]._replace(**kw)
    return out


def test_verify_rejects_wrong_depth(checked):
    g, recs = checked
    i, rec, why = verify_forest(g, _mutate(recs, 2, d=recs[2].d + 1))
    assert i == 2 and "depth" in why


def test_verify_rejects_wrong_parent(checked):
    g, recs = checked
    assert verify_forest(g, _mutate(recs, 1, u=4)) is not None
    # a same-depth impostor that is not adjacent
    assert verify_forest(g, _mutate(recs, 4, u=6)) is not None


def test_verify_rejects_shuffles_truncation_duplicates(checked):
    g, recs = checked
    assert verify_forest(g, recs[::-1]) is not None
    assert verify_forest(g, recs[:-1]) is not None
    dup = list(recs)
    dup[3] = dup[2]
    assert verify_forest(g, dup) is not None


def test_verify_rejects_wrong_tree_split(checked):
    g, recs = checked
    assert verify_forest(g, _mutate(recs, 1, k=2)) is not None


def test_verify_rejects_wrong_root():
    g = Graph.from_edges(2, [(1, 2)], directed=False)
    wrong = [ForestRecord(0, 2, 1, 0), ForestRecord(2, 1, 1, 1)]
    i, rec, why = verify_forest(g, wrong)
    # rejected at the root record itself, whether the checker trips on
    # the root identity or on the depth it implies
    assert i == 0 and why


def test_verify_rejects_bad_order_argument(checked):
    g, recs = checked
    with pytest.raises(ValueError):
        verify_forest(g, recs, order=[1] * 8)


# -- order handling -----------------------------------------------------


def test_short_order_raises():
    g = Graph.from_edges(3, [], directed=False)
    with pytest.raises(ValueError, match="permutation"):
        forest(g, order=[1, 2])


def test_out_of_range_order_entry_raises():
    g = Graph.from_edges(3, [], directed=False)
    with pytest.raises(ValueError, match="out of range"):
        forest(g, order=[1, 5, 2])


def test_duplicate_order_entries_fail_by_undercoverage():
    g = Graph.from_edges(3, [], directed=False)
    with pytest.raises(ValueError, match="permutation"):
        forest(g, order=[1, 1, 2])


def test_trailing_order_entries_are_unread():
    # once every vertex is placed the rest of the order stream is moot
    def entries():
        yield 1
        yield 2
        raise AssertionError("order read past completion")

    g = Graph.from_edges(2, [(1, 2)], directed=False)
    assert len(forest(g, order=entries())) == 2


# -- graph loading ------------------------------------------------------


def test_edgelist_roundtrip(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment\n3 2\n1 2\n2 3\n")
    g = load_graph(str(p), "edgelist", directed=False)
    assert (g.n, g.m_edges) == (3, 2)
    assert sorted(g.out(2)) == [1, 3]


def test_dimacs_roundtrip(tmp_path):
    p = tmp_path / "g.dim"
    p.write_text("c header\np sp 4 3\na 1 2\na 2 3 17\na 4 1\n")
    g = load_graph(str(p), "dimacs", directed=True)
    assert (g.n, g.m_edges) == (4, 3)
    assert list(g.out(2)) == [3]  # weight ignored
    assert list(g.out(3)) == []


@pytest.mark.parametrize("text,complaint", [
    ("3 2\n1 2\n", "declared 2"),
    ("3 1\n1 2\n2 3\n", "more than the declared"),
    ("3 1\n1 9\n", "out of range"),
    ("3 1\n1 two\n", "non-integer"),
    ("1 2 3\n", "two fields"),
    ("", "header"),
])
def test_edgelist_rejects(tmp_path, text, complaint):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(GraphFormatError, match=complaint):
        load_graph(str(p), "edgelist", directed=True)


@pytest.mark.parametrize("text,complaint", [
    ("a 1 2\n", "before the problem line"),
    ("p sp 2 1\np sp 2 1\na 1 2\n", "duplicate"),
    ("p max 2 1\na 1 2\n", "p sp n m"),
    ("p sp 2 2\na 1 2\n", "declared 2"),
    ("p sp 2 1\na 1 3\n", "out of range"),
    ("p sp 2 1\nq 1 2\n", "unknown record"),
])
def test_dimacs_rejects(tmp_path, text, complaint):
    p = tmp_path / "bad.dim"
    p.write_text(text)
    with pytest.raises(GraphFormatError, match=complaint):
        load_graph(str(p), "dimacs", directed=True)


@pytest.mark.parametrize("fmt,text,directed", [
    ("edgelist", "3000000000 1\n2999999999 1\n", True),
    ("edgelist", "1000000000000 0\n", True),
    ("edgelist", "5 1073741824\n1 2\n", False),  # 2m arcs when undirected
    ("dimacs", "p sp 3000000000 1\na 2999999999 1\n", True),
    ("dimacs", "p sp 5 1073741824\na 1 2\n", False),
], ids=["edgelist-n", "edgelist-huge-n", "edgelist-arcs", "dimacs-n",
        "dimacs-arcs"])
def test_oversized_header_rejected(tmp_path, fmt, text, directed):
    # The adjacency arrays are array('i'); sizes they cannot index are
    # refused on the header line, before any allocation.
    p = tmp_path / "big.txt"
    p.write_text(text)
    with pytest.raises(GraphFormatError, match="exceed the limit") as exc:
        load_graph(str(p), fmt, directed=directed)
    assert exc.value.line == 1


def test_header_limit_counts_arcs_not_edges(tmp_path):
    # 2^30 directed arcs fit, so the header passes and the body's short
    # count is what gets reported.
    p = tmp_path / "g.txt"
    p.write_text("5 1073741824\n1 2\n")
    with pytest.raises(GraphFormatError, match="declared 1073741824 edges"):
        load_graph(str(p), "edgelist", directed=True)


def test_format_error_carries_line_number(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3 2\n1 2\n1 9\n")
    with pytest.raises(GraphFormatError) as exc:
        load_graph(str(p), "edgelist", directed=True)
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)


# -- working-memory audit ----------------------------------------------


def test_audit_within_budget():
    rng = random.Random(9)
    for n, dens in ((500, 2), (2000, 4), (5000, 1)):
        g = random_graph(rng, n, dens, directed=False)
        st = {}
        list(bfs_forest(g, stats=st, container_elems=60))
        bound = n * math.log2(3) + 64 * math.log2(n) ** 2 + st["side_bits"]
        assert st["core_bits"] <= bound
        assert st["peak_transient_bits"] <= 64 * math.log2(n) ** 2 + \
            60 * (n.bit_length() + 2)
        assert st["header_bits"] == 16 * 64


def test_enumeration_counters_scale_linearly():
    rng = random.Random(42)
    g = random_graph(rng, 4000, 2, directed=False)
    st = {}
    list(bfs_forest(g, stats=st, container_elems=60))
    assert st["setcolors"] == 4000
    assert st["enumerations"] <= 4 * (4000 + st["setcolors"])


# -- command line -------------------------------------------------------


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_cli_end_to_end(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("3 2\n1 2\n2 3\n")
    rc, out, err = run_cli(
        ["--graph", str(p), "--format", "edgelist", "--undirected",
         "--audit", "--verify"], capsys)
    assert rc == 0
    assert out.splitlines() == ["0 1 1 0", "1 2 1 1", "2 3 1 2"]
    audit = dict(line.split("=") for line in err.splitlines())
    assert set(audit) == {"core_bits", "side_bits", "header_bits",
                          "peak_transient_bits", "enumerations", "setcolors"}
    assert int(audit["setcolors"]) == 3


def test_cli_order_file_and_backend(tmp_path, capsys):
    p = tmp_path / "g.dim"
    p.write_text("p sp 3 2\na 1 2\na 2 3\n")
    o = tmp_path / "ord.txt"
    o.write_text("3\n2\n1\n")
    rc, out, _ = run_cli(
        ["--graph", str(p), "--format", "dimacs", "--directed",
         "--order", str(o), "--backend", "byte"], capsys)
    assert rc == 0
    assert out.splitlines()[0] == "0 3 1 0"


def test_cli_parse_failure_exits_1(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("3 9\n1 2\n")
    rc, _, err = run_cli(
        ["--graph", str(p), "--format", "edgelist", "--directed"], capsys)
    assert rc == 1 and "declared" in err


def test_cli_missing_file_exits_1(tmp_path, capsys):
    rc, _, err = run_cli(
        ["--graph", str(tmp_path / "nope"), "--format", "edgelist",
         "--directed"], capsys)
    assert rc == 1


def test_cli_oversized_header_exits_1(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("1000000000000 0\n")
    rc, out, err = run_cli(
        ["--graph", str(p), "--format", "edgelist", "--directed"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("bfs: line 1:") and "exceed the limit" in err


@pytest.mark.parametrize("stage", ["load_graph", "bfs_forest"])
def test_cli_out_of_memory_exits_1(tmp_path, capsys, monkeypatch, stage):
    import choicedict.bfs as mod

    def exhausted(*args, **kwargs):
        raise MemoryError

    p = tmp_path / "g.txt"
    p.write_text("2 1\n1 2\n")
    monkeypatch.setattr(mod, stage, exhausted)
    rc, _, err = run_cli(
        ["--graph", str(p), "--format", "edgelist", "--directed"], capsys)
    assert rc == 1 and err.startswith("bfs: out of memory")


def test_cli_bad_order_exits_1(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("2 1\n1 2\n")
    o = tmp_path / "ord.txt"
    o.write_text("1\n1\n")
    rc, _, err = run_cli(
        ["--graph", str(p), "--format", "edgelist", "--undirected",
         "--order", str(o)], capsys)
    assert rc == 1 and "permutation" in err


def test_cli_verification_failure_exits_2(tmp_path, capsys, monkeypatch):
    import choicedict.bfs as mod

    def skewed(g, order=None, **kw):
        for rec in bfs_forest(g, order, **kw):
            yield rec._replace(d=rec.d + 1) if rec.u else rec

    p = tmp_path / "g.txt"
    p.write_text("2 1\n1 2\n")
    monkeypatch.setattr(mod, "bfs_forest", skewed)
    rc, _, err = run_cli(
        ["--graph", str(p), "--format", "edgelist", "--undirected",
         "--verify"], capsys)
    assert rc == 2 and "verification failed" in err
