"""Benchmark of the choicedict package: four seeded workloads, end to end
or traced layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  With `--trace 0` the run prints the end-to-end metrics
(tracing off); with `--trace 1` it prints the per-layer metrics of a
traced phase, an untraced replay of the same work and a memory pass.
Report lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 only when every output check passed.

One process, one thread, closed loop: the next call is issued only after
the previous one has returned.  Workloads:

  bfs_sparse_undirected  BFS, n=20000, 4n random undirected edges
  bfs_tiny_trees         BFS, n=8000, n random arcs (thousands of tiny trees)
  dict_uncolored         UncoloredDict(2^18), 35/25/20/20 insert/delete/contains/choice
  dict_colored           ColoredDict(2^20, c=4), 50/25/25 setcolor/color/choice_color,
                         colour 3 rare

A BFS unit of work is one streamed forest record; a dictionary unit is
one call.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")


def _import_package():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import choicedict
    except ImportError as e:
        raise SystemExit(f"cannot import choicedict from {src}: {e}")
    if not os.path.abspath(choicedict.__file__).startswith(src + os.sep):
        raise SystemExit(f"choicedict imported from {choicedict.__file__}, not {src}")


def _pct(sorted_ns, p):
    """Nearest-rank percentile of sorted nanosecond samples, in µs."""
    if not sorted_ns:
        return 0.0
    k = max(0, -(-len(sorted_ns) * p // 100) - 1)
    return sorted_ns[int(k)] / 1e3


def _per_kind(kinds, lat, codes):
    """{kind: sorted latencies in ns}."""
    out = {k: [] for k in kinds}
    for code, t in zip(codes, lat):
        out[kinds[code]].append(t)
    for v in out.values():
        v.sort()
    return out


def _typical_us(by_kind):
    """Mean over calls of the median latency of each call's kind, in µs.

    A plain median over a mix of kinds that cost different amounts jumps
    between clusters from run to run; each kind's own median does not."""
    total = sum(len(v) for v in by_kind.values())
    return sum(len(v) * _pct(v, 50) for v in by_kind.values()) / total


def _audit_total(ph):
    return sum(ph.audit.values())


def end_to_end(wl, seconds, say):
    """Set-up, rounds until the deadline, then the memory pass.  Each
    timing is taken per round and the median round is reported."""
    import loads

    setup = wl.setup_s()
    ph = loads.run_rounds(wl.one_round, seconds=seconds)
    wl.validate(ph)
    peak = wl.heap_peak()
    per_round = ph.units // len(ph.round_ns)
    p50s, p95s = [], []
    for lat, codes in ph.rounds():
        p50s.append(_typical_us(_per_kind(wl.kinds, lat, codes)))
        p95s.append(_pct(sorted(lat), 95))
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (per_round / (statistics.median(ph.round_ns) / 1e9), "1/s"),
        "op_us_p50": (statistics.median(p50s), "us"),
        "op_us_p95": (statistics.median(p95s), "us"),
        "audit_bits_per_elem": (_audit_total(ph) / wl.n, "bits"),
        "peak_heap_bytes_per_elem": (peak / wl.n, "B"),
    }
    say(f"{len(ph.round_ns)} rounds of {per_round} {wl.unit}s; "
        f"p95 of a round has {per_round - -(-per_round * 95 // 100)} samples beyond it")
    say("  round s    " + " ".join(f"{t / 1e9:8.3f}" for t in ph.round_ns))
    say("  p50 us     " + " ".join(f"{v:8.2f}" for v in p50s))
    say("  p95 us     " + " ".join(f"{v:8.2f}" for v in p95s))
    say("all rounds pooled, by kind:")
    for kind, v in _per_kind(wl.kinds, ph.lat, ph.kind).items():
        if v:
            say(f"  {kind:<14} n={len(v):<8} p50={_pct(v, 50):10.2f} us"
                f"  p99={_pct(v, 99):10.2f} us")
    _say_memory(wl, ph, peak, say)
    return metrics, ph


def _say_memory(wl, ph, peak, say):
    a = ph.audit
    total = _audit_total(ph)
    say(f"memory: audited core={a['core']} side={a['side']} "
        f"transient={a['transient']} total={total} bits; "
        f"paper reference {wl.reference_bits:.1f} bits; "
        f"tracemalloc peak {peak} B = {8 * peak / total:.2f}x audit")


def _flat_ratio(stores, seed):
    """µs per ChainStore.read on the largest store the run built, divided
    by the same on a store for an n=2^12 universe; 0 when none was built."""
    import random
    import time
    from choicedict import UncoloredDict

    if not stores:
        return 0.0
    big = max(stores, key=lambda s: s.N)
    small = UncoloredDict(1 << 12, "strict", big.w)
    rng = random.Random(seed)
    seg = 2 * small.b
    for k in range(small.N):
        small.insert(k * seg + 1 + rng.randrange(seg))

    def per_read(cs, reps):
        ks = [rng.randrange(1, cs.N + 1) for _ in range(reps)]
        rounds = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for k in ks:
                cs.read(k)
            rounds.append((time.perf_counter_ns() - t0) / reps)
        return sorted(rounds)[2]

    return per_read(big, 400) / per_read(small.D1, 4000)


def per_layer(wl, seconds, say):
    import loads
    import spans

    setup = wl.setup_s()
    load_s = setup if isinstance(wl, loads.BfsWorkload) else 0.0
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = loads.run_rounds(wl.one_round, seconds=seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    reads = sum(s.cell_reads for s in tracer.stores)
    writes = sum(s.cell_writes for s in tracer.stores)
    flat = _flat_ratio(tracer.stores, wl.seed)
    tracer.stores.clear()

    replay = loads.run_rounds(wl.one_round, rounds=len(traced.round_ns))
    wl.validate(replay)
    peak = wl.heap_peak()

    path = os.path.join(OUT, f"spans-{wl.name}.bin")
    tracer.write(path)
    by, edges = tracer.summary()

    def get(name, field):
        return by.get(name, {}).get(field, 0)

    def under(parent_prefix, child_prefix):
        return sum(v for (p, c), v in edges.items()
                   if p is not None and p.startswith(parent_prefix)
                   and c.startswith(child_prefix))

    def family(prefix):
        return sum(v["self_s"] for k, v in by.items() if k.startswith(prefix))

    units = traced.units
    m = {
        "bfs.self_s": (get(spans.DRIVER, "self_s"), "s"),
        "bfs.gate_s": (under(spans.DRIVER, "uncolored."), "s"),
        "bfs.enumerations_per_record": (
            replay.stats["enumerations"] / replay.stats["records"]
            if replay.stats["records"] else 0.0, "count"),
        "bfs.load_s": (load_s, "s"),
    }
    for op in ("color", "setcolor", "members", "choice"):
        m[f"colored.{op}.calls"] = (get(f"colored.{op}", "calls"), "count")
        m[f"colored.{op}.self_s"] = (get(f"colored.{op}", "self_s"), "s")
    calls = get("colored.members", "calls")
    m["colored.members.yield_per_call"] = (
        tracer.yielded["colored.members"] / calls if calls else 0.0, "count")
    m["colored.side_s"] = (under("colored.", "uncolored."), "s")
    for op in ("color", "setcolor", "successor"):
        m[f"container.{op}.calls"] = (get(f"container.{op}", "calls"), "count")
        m[f"container.{op}.self_s"] = (get(f"container.{op}", "self_s"), "s")
    for k in ("basechange", "compaction", "words"):
        m[f"{k}.s"] = (family(k + "."), "s")
    m["words.op_count_per_op"] = (replay.word_ops / replay.units, "count")
    for op in ("insert", "delete", "contains", "choice"):
        m[f"uncolored.{op}.self_s"] = (get(f"uncolored.{op}", "self_s"), "s")
    for op in ("read", "write", "nonzero"):
        m[f"chainstore.{op}.calls"] = (get(f"chainstore.{op}", "calls"), "count")
        m[f"chainstore.{op}.s"] = (get(f"chainstore.{op}", "self_s"), "s")
    m["chainstore.cell_reads_per_op"] = (reads / units, "count")
    m["chainstore.cell_writes_per_op"] = (writes / units, "count")
    m["chainstore.flat_ratio"] = (flat, "ratio")
    a = replay.audit
    m["audit.core_bits"] = (a["core"], "bits")
    m["audit.side_bits"] = (a["side"], "bits")
    m["audit.transient_bits"] = (a["transient"], "bits")
    m["audit.reference_bits"] = (wl.reference_bits, "bits")
    m["heap.over_audit"] = (8 * peak / _audit_total(replay), "ratio")
    # client-side latency of each dictionary call kind, untraced; 0 where
    # the workload makes no such call
    kinds = _per_kind(wl.kinds, replay.lat, replay.kind)
    for name, kind in (("uncolored.insert", "insert"), ("uncolored.delete", "delete"),
                       ("uncolored.contains", "contains"), ("uncolored.choice", "choice"),
                       ("colored.setcolor", "setcolor"), ("colored.color", "color"),
                       ("colored.choice", "choice_color")):
        m[f"{name}.us_p50"] = (_pct(kinds.get(kind), 50), "us")
    m["trace.overhead_ratio"] = (traced.prog_ns / replay.prog_ns, "ratio")
    m["trace.units"] = (units, "count")
    m["trace.spans"] = (len(tracer), "count")

    wall = traced.prog_ns / 1e9
    say(f"traced {units} {wl.unit}s ({len(tracer)} spans) in {wall:.3f} s; "
        f"untraced replay {replay.prog_ns / 1e9:.3f} s; spans in {path}")
    say("time by span, as a share of traced time inside calls:")
    for name, v in sorted(by.items(), key=lambda kv: -kv[1]["self_s"]):
        if v["calls"]:
            say(f"  {name:<34} calls={v['calls']:<9} "
                f"self={100 * v['self_s'] / wall:5.1f}%  incl={100 * v['s'] / wall:5.1f}%")
    _say_memory(wl, replay, peak, say)
    return m, traced, replay


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_package()
    import loads

    if args.workload not in loads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(loads.NAMES)}")
    os.makedirs(OUT, exist_ok=True)
    wl = loads.make(args.workload, args.seed, OUT)

    def say(line):
        print(line, flush=True)

    say(f"workload {wl.name} seed {wl.seed} n={wl.n} trace={args.trace}")
    wl.prepare()
    try:
        if args.trace:
            metrics, *phases = per_layer(wl, args.seconds, say)
        else:
            metrics, ph = end_to_end(wl, args.seconds, say)
            phases = [ph]
    finally:
        wl.cleanup()
    attempted = sum(p.units for p in phases)
    failed = sum(p.failed for p in phases)
    for name, (value, unit) in metrics.items():
        say(f"{name:<34} {value:>16.6g} {unit}")
    say(f"failed_share {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
