"""One measured process of the benchmark; started by run.py.

The process imports multiprice, runs one warm-up op and reads its own CPU
time: that is one sample of set-up.  With --setup-only it stops there.
Otherwise it runs timed ops until they have taken --seconds of CPU and
number at least MIN_OPS, then checks every op's output and prints one JSON
line.  Every CPU time it reports is scaled to reference speed by the
kernel in reference.py, run after set-up and between ops.  With --trace 1
half the budget runs untraced and the rest repeats the same ops under the
tracer; the per-layer metrics come from the traced half.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

import multiprice.cli as cli

import reference
from workloads import WORKLOADS

MIN_OPS = 100
SETUP_KERNEL_REPS = 100
MAX_SLOWDOWN = 2.5


def cpu_s():
    """CPU seconds of this process since it started, user + system."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Runner:
    def __init__(self, workload):
        self.wl = workload
        self.tracer = None  # set while the traced ops run
        self.done = []  # (label, index) of each op that completed
        self.failed = 0
        self.problems = []

    def op(self, inp, tag):
        """One op: its CLI calls back to back.  Returns (cpu_ns, wall_ns)
        or None when a call fails."""
        argvs = self.wl.argvs(inp, tag)
        w0 = time.perf_counter_ns()
        c0 = time.process_time_ns()
        ok = True
        for argv in argvs:
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a traceback is a failed op, not a crash
                print("op %r raised %r" % (argv, exc), file=sys.stderr)
                rc = None
            if rc != 0:
                ok = False
                break
        c1 = time.process_time_ns()
        w1 = time.perf_counter_ns()
        return (c1 - c0, w1 - w0) if ok else None

    def ops(self, budget_s, min_ops, max_ops, label):
        """Ops 0, 1, ... until they have taken budget_s CPU seconds at
        reference speed and number at least min_ops, or number max_ops.
        On a host slower than MAX_SLOWDOWN times reference speed the run
        stops at min_ops.  Returns the per-op CPU times in ns scaled to
        reference speed, the raw wall / CPU ratio of all of them and the
        median scale.

        The reference kernel runs before the first op and after each op.
        An op's scale is REFERENCE_MS over the mean of the two kernel
        samples taken just before and just after it: the host's speed
        changes within a second, and a median over more samples around the
        op tracks it worse (over six adversary runs of 300 ops, the p90
        spread was 1.5% with the two nearest samples, 5.2% with eight)."""
        timed = []  # (raw CPU ns, scale) of each op that completed
        before = reference.kernel_ms()
        raw_wall = raw_cpu = 0
        spent = 0  # scaled ns
        idx = 0
        while ((spent < budget_s * 1e9 and raw_cpu < MAX_SLOWDOWN * budget_s * 1e9)
               or idx < min_ops) and idx < max_ops:
            inp = self.wl.input(idx)
            if self.tracer is not None:
                self.tracer.begin_op(label)
            timing = self.op(inp, "%s-%d" % (label, idx))
            if self.tracer is not None:
                self.tracer.end_op()
                self.problems += self.tracer.check_results()
            after = reference.kernel_ms()
            if timing is None:
                self.failed += 1
            else:
                scale = 2 * reference.REFERENCE_MS / (before + after)
                timed.append((timing[0], scale))
                raw_wall += timing[1]
                raw_cpu += timing[0]
                spent += timing[0] * scale
                self.done.append((label, idx))
            before = after
            idx += 1
        cpu = [c * f for c, f in timed]
        return cpu, raw_wall / raw_cpu, statistics.median(f for _, f in timed)

    def check(self):
        """Each op's output against the independent computation; a traced
        op must reproduce the output of the untraced op on its input."""
        for label, idx in self.done:
            out = self.wl.collect("%s-%d" % (label, idx))
            try:
                if label == "traced":
                    if out != self.wl.collect("untraced-%d" % idx):
                        raise ValueError("traced output differs from untraced")
                else:
                    self.wl.check(self.wl.input(idx), out)
            except Exception as exc:
                self.problems.append("%s op %d: %s: %s"
                                     % (label, idx, type(exc).__name__, exc))
        return not self.problems


def op_metrics(cpu):
    ms = [c / 1e6 for c in cpu]
    return {
        "ops_per_cpu_s": len(cpu) / (sum(cpu) / 1e9),
        "op_cpu_ms_p50": statistics.median(ms),
        "op_cpu_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[-1],
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, workload, scale):
    """Per-op means of the traced ops, named as in BENCHMARK.json; times
    are scaled to reference speed by `scale`."""
    import tracer as tr

    n_ops, calls, self_ns, incl_ns = tracer.summary("traced")
    self_ns = Counter({k: v * scale for k, v in self_ns.items()})
    incl_ns = Counter({k: v * scale for k, v in incl_ns.items()})
    _, setup_calls, _, _ = tracer.summary("warmup")
    per = 1.0 / n_ops
    out = {
        "cli.main.self_cpu_ms": self_ns["cli.main"] / 1e6 * per,
        "adversary.build_instance.self_cpu_ms": self_ns["adversary.build_instance"] / 1e6 * per,
        "adversary.analytic_bounds.self_cpu_ms": self_ns["adversary.analytic_bounds"] / 1e6 * per,
        "valuefn.build_value_function.calls": calls["valuefn.build_value_function"] * per,
        "valuefn.build_value_function.setup_calls": setup_calls["valuefn.build_value_function"],
        "valuefn.ValueFunction.phi.calls": calls["valuefn.ValueFunction.phi"] * per,
        "perturb.build_perturbed.calls": calls["perturb.build_perturbed"] * per,
        "perturb.build_perturbed.self_cpu_ms": self_ns["perturb.build_perturbed"] / 1e6 * per,
    }
    for p in tr.POLICIES:
        name = "engine." + p
        arrivals = calls[name + ".arrivals"]
        out[name + ".self_cpu_ms"] = self_ns[name] / 1e6 * per
        out[name + ".us_per_arrival"] = incl_ns[name] / 1e3 / arrivals if arrivals else 0.0
    oa = calls["choice.optimize_assortment"]
    sm = calls["lp.simplex_max"]
    cl = calls["lp.solve_choice_lp"]
    out.update({
        "choice.optimize_assortment.calls": oa * per,
        "choice.optimize_assortment.self_cpu_ms": self_ns["choice.optimize_assortment"] / 1e6 * per,
        "choice.optimize_assortment.nonempty_share": calls["choice.optimize_assortment.nonempty"] / oa if oa else 0.0,
        "choice.sample_choice.calls": calls["choice.sample_choice"] * per,
        "choice.sample_choice.self_cpu_ms": self_ns["choice.sample_choice"] / 1e6 * per,
        "choice.choice_probs.calls": calls["choice.choice_probs"] * per,
        "lp.simplex_max.calls": sm * per,
        "lp.simplex_max.self_cpu_ms": self_ns["lp.simplex_max"] / 1e6 * per,
        "lp.simplex_max.rows_mean": calls["lp.simplex_max.rows"] / sm if sm else 0.0,
        "lp.simplex_max.cols_mean": calls["lp.simplex_max.cols"] / sm if sm else 0.0,
        "lp.solve_primal.self_cpu_ms": self_ns["lp.solve_primal"] / 1e6 * per,
        "lp.solve_primal.vars": calls["lp.solve_primal.vars"] * per,
        "lp.solve_choice_lp.calls": cl * per,
        "lp.solve_choice_lp.self_cpu_ms": self_ns["lp.solve_choice_lp"] / 1e6 * per,
        "lp.solve_choice_lp.columns": calls["lp.solve_choice_lp.columns"] / cl if cl else 0.0,
        "lp.solve_choice_lp.useful_column_share":
            (calls["lp.solve_choice_lp.useful"] / calls["lp.solve_choice_lp.columns"]
             if cl else 0.0),
        "harness.generate_hotel_ensemble.self_cpu_ms":
            self_ns["harness.generate_hotel_ensemble"] / 1e6 * per,
        "harness.lp_bound.self_cpu_ms": self_ns["harness.lp_bound"] / 1e6 * per,
        "harness.run_experiment.self_cpu_ms": self_ns["harness.run_experiment"] / 1e6 * per,
    })
    missing = [f for f in workload.expected_calls if calls[f] == 0]
    missing += [f + " (set-up)" for f in workload.expected_setup_calls if setup_calls[f] == 0]
    return out, missing


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=args.workdir)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    wl = WORKLOADS[args.workload](args.seed, workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin_op("warmup")
    runner = Runner(wl)
    if runner.op(wl.warmup, "warmup") is None:
        print("warm-up op failed", file=sys.stderr)
        return 1
    setup_s = cpu_s()
    # set-up is one stretch of ~0.2 s, so the host's speed is read over a
    # stretch of similar length right after it
    setup_s *= reference.REFERENCE_MS / reference.kernel_ms(SETUP_KERNEL_REPS)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer is not None:
        tracer.end_op()
        runner.problems += tracer.check_results()
        tracer.uninstall()

    if not args.trace:
        cpu, _, _ = runner.ops(args.seconds, MIN_OPS, math.inf, "timed")
        metrics = op_metrics(cpu)
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["setup_s"] = setup_s
        attempted = len(cpu) + runner.failed
    else:
        # the traced ops repeat the first untraced ones, so the overhead
        # compares the same inputs and the outputs must repeat exactly
        cpu, wall_over_cpu, _ = runner.ops(args.seconds / 2, 1, math.inf, "untraced")
        runner.tracer = tracer
        tracer.install()
        t_cpu, _, scale = runner.ops(args.seconds / 2, 1, len(cpu), "traced")
        tracer.uninstall()
        runner.tracer = None
        metrics, missing = layer_metrics(tracer, wl, scale)
        metrics["bench.wall_over_cpu"] = wall_over_cpu
        metrics["bench.trace_overhead"] = (statistics.median(t_cpu)
                                           / statistics.median(cpu[:len(t_cpu)]))
        runner.problems += ["no calls recorded for %s" % f for f in missing]
        attempted = len(cpu) + len(t_cpu) + runner.failed
        if args.trace_out:
            tracer.write(args.trace_out)
    correct = runner.check()
    for p in runner.problems[:10]:
        print("check failed: %s" % p, file=sys.stderr)
    if len(runner.problems) > 10:
        print("... %d more failed checks" % (len(runner.problems) - 10), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
