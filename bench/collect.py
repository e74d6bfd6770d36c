"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                             [--out FILE]

Runs BENCHMARK.json's command once per workload and seed, one run at a
time, and prints for every metric the median, the quartiles and their
distance as a share of the median (the run-to-run spread), flagged
against the metric's bound.  With --out the summary is also written as
JSON, which is how trajectory points under bench/trajectory/ are made.
Exits non-zero if any run fails or reports an incorrect result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--workloads")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end" if not args.trace else "per_layer"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    ok = True
    summary = {}
    for wl in names:
        values = {k: [] for k in specs}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            t0 = time.monotonic()
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if p.returncode == 0 and lines else None
            if res is None or not res["correct"] or set(res["metrics"]) != set(specs):
                ok = False
                print(f"{wl} seed {seed}: FAILED (exit {p.returncode})\n{p.stderr[-2000:]}")
                continue
            print(f"{wl} seed {seed}: {time.monotonic() - t0:.1f} s, "
                  f"{res['attempted']} attempted, {res['failed']} failed", flush=True)
            for k, v in res["metrics"].items():
                values[k].append(v["value"])
        rows = {}
        for k, v in values.items():
            if not v:
                continue
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "unit": specs[k]["unit"], "values": v}
            bound = specs[k].get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            print(f"  {k:<34} median={med:<12.6g} spread={spread:7.4f} {flag:<12} "
                  + " ".join(f"{x:.4g}" for x in v))
        summary[wl] = rows
    if args.out:
        doc = {"python": platform.python_version(), "machine": platform.machine(),
               "cpus": os.cpu_count(), "run_seconds": bench["run_seconds"],
               "seeds": args.seeds, "trace": args.trace, "workloads": summary}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
