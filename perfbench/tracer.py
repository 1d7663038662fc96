"""Spans around the public functions of multiprice, installed from outside.

Several modules bind the traced functions by name at import (engine binds
optimize_assortment, sample_choice, choice_probs, build_perturbed and
build_value_function; lp binds optimize_assortment and simplex_max; harness
binds solve_choice_lp; adversary binds build_value_function; cli binds the
run_* policies and holds them again in its _POLICIES dict).  The tracer
therefore replaces every binding of each function in every loaded
multiprice module, and refuses to start if one is left over.

Spans live in memory as (name, start_ns, end_ns, parent) on the process CPU
clock and are written out as gzipped CSV when the run ends.  A layer's self
time is its span minus its child spans.  Hot leaf calls that need only a count are
counted, not spanned.
"""

from __future__ import annotations

import gzip
import importlib
import math
import sys
import time
from array import array
from collections import Counter

clock = time.process_time_ns

MODULES = ("cli", "adversary", "valuefn", "perturb", "engine", "choice", "lp", "harness")

POLICIES = ("run_balance", "run_ranking", "run_myopic", "run_gnr", "run_conservative",
            "run_balance_assortment", "run_bidprice", "run_hybrid")

# (module, function) pairs recorded as spans
SPANNED = (
    [("cli", "main"), ("adversary", "build_instance"), ("adversary", "analytic_bounds"),
     ("valuefn", "build_value_function"), ("perturb", "build_perturbed"),
     ("choice", "optimize_assortment"), ("choice", "sample_choice"),
     ("lp", "simplex_max"), ("lp", "solve_primal"), ("lp", "solve_choice_lp"),
     ("harness", "generate_hotel_ensemble"), ("harness", "lp_bound"),
     ("harness", "run_experiment")]
    + [("engine", p) for p in POLICIES]
)

# (module, function) pairs only counted
COUNTED = [("choice", "choice_probs")]


class Tracer:
    def __init__(self):
        # span i is (names[name[i]], start[i], end[i], parent[i]); parallel
        # arrays keep a hotel op's ~12k spans to a few hundred kB
        self.names = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack = [-1]
        self.counts = Counter()  # calls of counted functions, and the like
        self.results = []  # (setup, RunResult) of each policy run, checked later
        self.ops = []  # (label, first span, end span, counts)
        self._patches = []

    # -- installation -------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module("multiprice." + name) for name in MODULES}
        loaded = [m for n, m in sys.modules.items()
                  if n == "multiprice" or n.startswith("multiprice.")]
        wrappers = {}
        for mod, fn in SPANNED:
            orig = getattr(mods[mod], fn)
            wrappers[orig] = self._span("%s.%s" % (mod, fn), orig, self._after_hook(mod, fn))
        for mod, fn in COUNTED:
            orig = getattr(mods[mod], fn)
            wrappers[orig] = self._count("%s.%s" % (mod, fn), orig)
        for m in loaded:
            for attr, value in list(vars(m).items()):
                if callable(value) and value in wrappers:
                    self._patch(m, attr, wrappers[value])
        policies = mods["cli"]._POLICIES
        for name, fn in list(policies.items()):
            if fn in wrappers:
                self._patch_item(policies, name, wrappers[fn])
        vf_cls = mods["valuefn"].ValueFunction
        self._patch(vf_cls, "phi", self._count("valuefn.ValueFunction.phi", vf_cls.phi))

        left = [("%s.%s" % (m.__name__, a))
                for m in loaded for a, v in vars(m).items()
                if callable(v) and v in wrappers]
        left += ["cli._POLICIES[%r]" % n for n, f in policies.items() if f in wrappers]
        if left:
            self.uninstall()
            raise RuntimeError("untraced bindings remain: %s" % ", ".join(left))

    def uninstall(self):
        for kind, owner, key, orig in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, orig)
            else:
                owner[key] = orig
        self._patches = []

    def _patch(self, owner, attr, new):
        self._patches.append(("attr", owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_item(self, owner, key, new):
        self._patches.append(("item", owner, key, owner[key]))
        owner[key] = new

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, after):
        name_id = len(self.names)
        self.names.append(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _after_hook(self, mod, fn):
        """Counts taken from a call's arguments and result, per op."""
        counts = self.counts
        if mod == "engine":
            key = "%s.%s.arrivals" % (mod, fn)

            def after(idx, args, result):
                counts[key] += args[1].T
                self.results.append((args[0], result))
        elif fn == "simplex_max":
            def after(idx, args, result):
                rows, cols = getattr(args[1], "shape", None) or (len(args[1]), len(args[1][0]))
                counts["lp.simplex_max.rows"] += rows
                counts["lp.simplex_max.cols"] += cols
                parent = self.parent[idx]
                if parent >= 0 and self.names[self.name[parent]] == "lp.solve_primal":
                    counts["lp.solve_primal.vars"] += cols
        elif fn == "optimize_assortment":
            def after(idx, args, result):
                counts["choice.optimize_assortment.nonempty"] += bool(result[0])
        elif fn == "solve_choice_lp":
            def after(idx, args, result):
                counts["lp.solve_choice_lp.columns"] += result.meta["columns"]
                counts["lp.solve_choice_lp.useful"] += len(result.primal)
        else:
            after = None
        return after

    # -- ops ----------------------------------------------------------------

    def begin_op(self, label):
        self._op = (label, len(self.start))
        self.counts.clear()

    def end_op(self):
        label, first = self._op
        self.ops.append((label, first, len(self.start), dict(self.counts)))

    def check_results(self):
        """Invariants of every RunResult seen: 0 <= final inventory <= k,
        revenue equals the sum of the sales-log prices, and each item's
        sales equal k minus its final inventory."""
        problems = []
        for setup, res in self.results:
            ks = [it.k for it in setup.items]
            sold = [0] * len(ks)
            for entry in res.sales_log:
                sold[entry[1]] += 1
            if any(not 0 <= f <= k for f, k in zip(res.final_inventory, ks)):
                problems.append("final inventory outside [0, k]")
            if not math.isclose(res.revenue, sum(e[3] for e in res.sales_log),
                                rel_tol=1e-12, abs_tol=1e-9):
                problems.append("revenue != sum of sales-log prices")
            if any(s != k - f for s, k, f in zip(sold, ks, res.final_inventory)):
                problems.append("sales != k - final inventory")
        self.results = []
        return problems

    # -- summary ------------------------------------------------------------

    def self_times(self):
        child = [0] * len(self.start)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[idx] - self.start[idx]
        return [e - s - c for s, e, c in zip(self.start, self.end, child)]

    def summary(self, label):
        """Totals over the ops labelled `label`: (ops, counts by name, self
        ns by name, inclusive ns by name)."""
        selfs = self.self_times()
        n_ops = 0
        calls = Counter()
        self_ns = Counter()
        incl_ns = Counter()
        for op_label, lo, hi, counts in self.ops:
            if op_label != label:
                continue
            n_ops += 1
            calls.update(counts)
            for idx in range(lo, hi):
                name = self.names[self.name[idx]]
                calls[name] += 1
                self_ns[name] += selfs[idx]
                incl_ns[name] += self.end[idx] - self.start[idx]
        return n_ops, calls, self_ns, incl_ns

    def write(self, path):
        """All spans of all ops as gzipped CSV, times in CPU ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for label, lo, hi, _ in self.ops:
                for idx in range(lo, hi):
                    fh.write("%s,%d,%d,%s,%d,%d\n" % (
                        label, idx, self.parent[idx], self.names[self.name[idx]],
                        self.start[idx], self.end[idx]))
