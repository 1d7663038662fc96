"""Command-line interface.

Subcommands: valuefn, perturb (verify), simulate, lp-bound, adversary,
hotel-sim.  Exit codes: 0 success, 2 validation error, 3 solver limit.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import harness
from .adversary import analytic_bounds, build_instance
from .engine import POLICIES as _POLICIES
from .engine import ArrivalSequence, Item, Setup, hotel_policies
from .errors import MultipriceError, SolverLimitError, ValidationError
from .lp import solve_primal
from .perturb import (MAX_GRID_POINTS, certified_lower_bounds, enumerate_seed_support,
                      single_unit_procedure, verify_conditions)
from .valuefn import PriceSet, build_value_function

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _parse_prices(text):
    """argparse type of a comma-separated list of numbers."""
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValidationError("not a comma-separated list of numbers: %r" % (text,))


def _count(least):
    """argparse type of an integer of at least `least`."""
    def count(text):
        try:
            value = int(text)
        except (TypeError, ValueError):
            value = least - 1
        if value < least:
            raise ValidationError("expected an integer >= %d, got %r" % (least, text))
        return value
    return count


def _emit(data, out):
    text = json.dumps(data, indent=2, default=float)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_valuefn(args):
    if args.grid >= MAX_GRID_POINTS:  # grid + 1 points
        raise SolverLimitError("a grid of %d points exceeds %d"
                               % (args.grid + 1, MAX_GRID_POINTS))
    vf = build_value_function(args.prices)
    if args.grid:
        rows = []
        for s in range(args.grid + 1):
            w = s / args.grid
            rows.append({"w": w, "phi": vf.phi(w)})
        harness.write_csv(rows, ["w", "phi"], args.out)
        return EXIT_OK
    _emit({
        "prices": list(vf.priceset.prices),
        "alphas": list(vf.alphas),
        "borders": list(vf.borders),
        "sigmas": list(vf.sigmas),
        "F": vf.F,
        "G": vf.G,
    }, args.out)
    return EXIT_OK


def cmd_perturb_verify(args):
    vf = build_value_function(args.prices)
    if args.single_unit:
        proc = single_unit_procedure(vf)
        default_c = vf.G / 2.0
    else:
        proc = enumerate_seed_support(vf, args.k)
        default_c = certified_lower_bounds(vf, args.k)["best"]
    c = args.c if args.c is not None else default_c
    _, report = verify_conditions(proc, c)
    report["certified_bounds"] = certified_lower_bounds(vf, proc.k)
    _emit(report, args.out)
    return EXIT_OK


def _load_instance(path):
    """(raw JSON, Setup, ArrivalSequence) of an instance file; one that is
    not JSON, lacks a field or holds a value of the wrong type raises
    ValidationError."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
        setup = Setup(items=tuple(Item(k=it["k"], priceset=PriceSet(it["prices"]))
                                  for it in raw["setup"]["items"]))
        arr = raw["arrivals"]
        kind = arr["kind"]
        if kind == "deterministic":
            arrivals = ArrivalSequence(kind=kind, willing=np.asarray(arr["willing"]))
        elif kind == "single_offer":
            arrivals = ArrivalSequence(kind=kind, probs=arr["probs"])
        elif kind == "assortment":
            raise ValidationError("assortment instances are driven by hotel-sim")
        else:
            raise ValidationError("simulate and lp-bound refuse %r instances" % (kind,))
    except KeyError as exc:
        raise ValidationError("%s: missing field %s" % (path, exc))
    except (TypeError, ValueError) as exc:
        raise ValidationError("%s: %s" % (path, exc))
    return raw, setup, arrivals


def cmd_simulate(args):
    raw, setup, arrivals = _load_instance(args.config)
    policies = raw.get("policies", ["balance"])
    # through str, so that a float such as 2.5 is refused, not truncated
    trials = args.trials if args.trials is not None else _count(1)(str(raw.get("trials", 1)))
    seed = args.seed if args.seed is not None else _count(0)(str(raw.get("seed", 0)))
    try:
        bound = solve_primal(setup, arrivals).objective
    except SolverLimitError:
        bound = None

    rows = []
    seeds = harness.child_seeds(np.random.SeedSequence(seed), trials)
    for name in policies:
        if not isinstance(name, str) or name not in _POLICIES:
            raise MultipriceError("unknown policy %r" % (name,))
        fn = _POLICIES[name]
        for trial, s in enumerate(seeds):
            t0 = time.perf_counter()
            res = fn(setup, arrivals, s)
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append({
                "policy": name,
                "trial": trial,
                "revenue": res.revenue,
                "ratio_vs_lp": res.revenue / bound if bound else "",
                "runtime_ms": round(ms, 3),
            })
    harness.write_csv(rows, ["policy", "trial", "revenue", "ratio_vs_lp", "runtime_ms"], args.out)
    return EXIT_OK


def cmd_lp_bound(args):
    _, setup, arrivals = _load_instance(args.instance)
    sol = solve_primal(setup, arrivals)
    _emit({
        "objective": sol.objective,
        "duals_items": sol.duals_items,
        "duals_arrivals": sol.duals_arrivals,
    }, args.out)
    return EXIT_OK


def cmd_adversary(args):
    vf = build_value_function(args.prices)
    bounds = analytic_bounds(vf, args.n, args.k)
    policy_names = ["balance", "myopic", "conservative", "gnr"]
    if args.k == 1:
        policy_names.insert(1, "ranking")
    base_seed = args.seed if args.seed is not None else 0
    trials = args.trials if args.trials is not None else 100
    seeds = harness.child_seeds(np.random.SeedSequence(base_seed), trials)
    sums = {name: 0.0 for name in policy_names}
    for s in seeds:
        inst = build_instance(vf, args.n, args.k, s)
        for name in policy_names:
            sums[name] += _POLICIES[name](inst.setup, inst.arrivals, s).revenue / inst.realized_opt
    rows = [{"policy": "analytic_bound", "mean_ratio": bounds["ratio"]}]
    for name in policy_names:
        rows.append({"policy": name, "mean_ratio": sums[name] / len(seeds)})
    harness.write_csv(rows, ["policy", "mean_ratio"], args.out)
    return EXIT_OK


def cmd_hotel_sim(args):
    cfg = harness.ExperimentConfig(
        loading_factors=tuple(args.loading_factors),
        fare_diff=args.fare_diff,
        n_days=args.days,
        mean_daily_arrivals=args.arrivals,
        trials=args.trials if args.trials is not None else 10,
        base_seed=args.seed or 0,
        policies=hotel_policies(args.arrivals, args.gamma),
    )
    report = harness.run_experiment(cfg)
    harness.write_summary_csv(report, args.out)
    if args.runs_out:
        harness.write_runs_csv(report, args.runs_out)
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser():
    """The CLI's parser, built once per process: parse_args reads it and
    writes only the Namespace it returns, so calls share nothing else."""
    p = argparse.ArgumentParser(prog="multiprice")
    p.add_argument("--seed", type=_count(0), default=None)
    p.add_argument("--trials", type=_count(1), default=None)
    p.add_argument("--out", default=None)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("valuefn", help="value function of a price set")
    sp.add_argument("--prices", type=_parse_prices, required=True)
    sp.add_argument("--grid", type=_count(0), default=0,
                    help="emit CSV of phi sampled on a uniform grid")
    sp.set_defaults(fn=cmd_valuefn)

    sp = sub.add_parser("perturb", help="randomized initialization tools")
    psub = sp.add_subparsers(dest="perturb_command", required=True)
    spv = psub.add_parser("verify", help="verify certification conditions")
    spv.add_argument("--prices", type=_parse_prices, required=True)
    spv.add_argument("--k", type=_count(1), default=1)
    spv.add_argument("--c", type=float, default=None)
    spv.add_argument("--single-unit", action="store_true")
    spv.set_defaults(fn=cmd_perturb_verify)

    sp = sub.add_parser("simulate", help="run policies on an instance file")
    sp.add_argument("--config", required=True)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("lp-bound", help="hindsight LP bound of an instance")
    sp.add_argument("--instance", required=True)
    sp.set_defaults(fn=cmd_lp_bound)

    sp = sub.add_parser("adversary", help="tight-instance Monte-Carlo")
    sp.add_argument("--prices", type=_parse_prices, required=True)
    sp.add_argument("--n", type=_count(1), default=200)
    sp.add_argument("--k", type=_count(1), default=1)
    sp.set_defaults(fn=cmd_adversary)

    sp = sub.add_parser("hotel-sim", help="synthetic hotel ensemble experiment")
    sp.add_argument("--loading-factors", type=_parse_prices, default="1.4,1.6,1.8")
    sp.add_argument("--fare-diff", action="store_true")
    sp.add_argument("--days", type=_count(1), default=35)
    sp.add_argument("--arrivals", type=float, default=260.0)
    sp.add_argument("--gamma", type=float, default=1.5)
    sp.add_argument("--runs-out", default=None)
    sp.set_defaults(fn=cmd_hotel_sim)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SolverLimitError as exc:
        print("solver limit: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    except MultipriceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # an unreadable input or unwritable output file
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
