"""Run-to-run steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py --label first
    python3 perfbench/steady.py --label loaded --load 2
    python3 perfbench/steady.py --compare first loaded

Runs run.py once per seed (seeds 1..RUNS) on every workload of
BENCHMARK.json, as a benchmark harness would, and reports for each
end-to-end metric the median and the distance between the first and third
quartiles as a share of the median; then one traced run per workload, for wall / CPU and the tracing
overhead.  --load N keeps N CPU-bound processes busy for the whole set.
Results go to perfbench/out/steady-<label>.json.  --compare A B checks the
two sets against BENCHMARK.json: every spread within its metric's bound,
every median of B within the bound of A's, better or worse, and the same
failed share.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RUNS = 10


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def bench(spec, workload, seed, trace):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    row = json.loads(proc.stdout.strip().splitlines()[-1])
    row["wall_s"] = time.monotonic() - t0
    shown = {k: round(v["value"], 4) for k, v in row["metrics"].items()
             if not trace or k.startswith("bench.")}
    print("%s seed %d trace %d: %.1f s wall, %s" % (workload, seed, trace, row["wall_s"], shown),
          file=sys.stderr)
    return row


def run_set(spec, load):
    """RUNS untraced runs and one traced run per workload."""
    spinners = [subprocess.Popen([sys.executable, "-c", "while True: pass"])
                for _ in range(load)]
    results = {}
    try:
        for w in [entry["name"] for entry in spec["workloads"]]:
            rows = [bench(spec, w, seed, 0) for seed in range(1, RUNS + 1)]
            results[w] = (rows, bench(spec, w, 1, 1))
    finally:
        for p in spinners:
            p.terminate()
        for p in spinners:
            p.wait()
    return results


def summarize(spec, results):
    out = {}
    for w, (rows, traced) in results.items():
        entry = {"runs": len(rows),
                 "failed_share": sorted({r["failed"] / r["attempted"] for r in rows}),
                 "correct": all(r["correct"] for r in rows) and traced["correct"],
                 "median_wall_s": statistics.median(r["wall_s"] for r in rows),
                 "max_wall_s": max(r["wall_s"] for r in rows),
                 "traced": {k: v["value"] for k, v in traced["metrics"].items()},
                 "metrics": {}}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in rows]
            entry["metrics"][m["name"]] = {
                "median": statistics.median(vals), "spread": spread(vals),
                "bound": m["bound"], "values": vals}
        out[w] = entry
    return out


def compare(spec, a, b):
    ok = True
    for w in a:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            ma, mb = a[w]["metrics"][name], b[w]["metrics"][name]
            moved = (mb["median"] - ma["median"]) / ma["median"]
            flags = []
            if max(ma["spread"], mb["spread"]) > bound:
                flags.append("spread over bound")
            if abs(moved) > bound:
                flags.append("median moved beyond bound")
            ok = ok and not flags
            print("%-9s %-14s spread %.4f / %.4f  B vs A %+.4f  bound %.2f %s" % (
                w, name, ma["spread"], mb["spread"], moved, bound, " ".join(flags)))
        same = a[w]["failed_share"] == b[w]["failed_share"]
        ok = ok and same and a[w]["correct"] and b[w]["correct"]
        print("%-9s failed share %s / %s, correct %s / %s" % (
            w, a[w]["failed_share"], b[w]["failed_share"], a[w]["correct"], b[w]["correct"]))
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label")
    ap.add_argument("--load", type=int, default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.compare:
        sets = []
        for label in args.compare:
            with open(os.path.join(OUT, "steady-%s.json" % label)) as fh:
                sets.append(json.load(fh))
        return 0 if compare(spec, *sets) else 1
    if not args.label:
        ap.error("--label is needed to name the set")
    summary = summarize(spec, run_set(spec, args.load))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "steady-%s.json" % args.label), "w") as fh:
        json.dump(summary, fh, indent=1)
    for w, entry in summary.items():
        print("%-9s run wall median %.1f s, max %.1f s; traced: wall/CPU %.3f, "
              "overhead %.3f" % (w, entry["median_wall_s"], entry["max_wall_s"],
                                 entry["traced"]["bench.wall_over_cpu"],
                                 entry["traced"]["bench.trace_overhead"]))
        for name, m in entry["metrics"].items():
            print("%-9s %-14s median %12.4f  spread %.4f  bound %.2f" % (
                w, name, m["median"], m["spread"], m["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
