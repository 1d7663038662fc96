"""Benchmark entry point; see perfbench/README.md.

    python3 perfbench/run.py --workload hotel --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  Every measured process is a fresh
interpreter with multiprice taken from ./src, BLAS pools pinned to one
thread and a fixed hash seed, all set before numpy is imported.  With
--trace 0 the run starts SETUP_PROBES processes that only set up, then one
that sets up and measures; setup_s is the median of their set-up times.
With --trace 1 one process measures untraced and then traced ops.  The last
line of stdout is the result as JSON; the exit code is 0 only if a result
was printed.
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
SETUP_PROBES = 6
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, extra, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", OUT] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "multiprice", "cli.py")):
        print("no multiprice sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    os.makedirs(OUT, exist_ok=True)

    try:
        if args.trace:
            trace_out = os.path.join(OUT, "trace-%s-%d.csv.gz" % (args.workload, args.seed))
            result = run_worker(args, ["--trace-out", trace_out], deadline)
        else:
            setups = [run_worker(args, ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            result = run_worker(args, [], deadline)
            setups.append(result["metrics"]["setup_s"])
            result["metrics"]["setup_s"] = statistics.median(setups)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print("benchmark run failed: %s" % exc, file=sys.stderr)
        return 1

    values = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print("worker reported no %s" % ", ".join(missing), file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
