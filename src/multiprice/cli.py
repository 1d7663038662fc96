"""Command-line interface.

Subcommands: valuefn, perturb (verify), simulate, lp-bound, adversary,
hotel-sim.  Exit codes: 0 success, 2 validation error, 3 solver limit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import harness
from .adversary import analytic_bounds, build_instance
from .engine import POLICIES as _POLICIES
from .engine import ArrivalSequence, ForecastCurve, Item, Setup, hotel_policies
from .errors import MultipriceError, SolverLimitError, ValidationError
from .lp import solve_primal
from .perturb import (certified_lower_bounds, enumerate_seed_support,
                      single_unit_procedure, verify_conditions)
from .valuefn import PriceSet, build_value_function

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _parse_prices(text):
    return [float(x) for x in text.split(",") if x.strip()]


def _emit(data, out):
    text = json.dumps(data, indent=2, default=float)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_valuefn(args):
    vf = build_value_function(_parse_prices(args.prices))
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
    prices = PriceSet(_parse_prices(args.prices))
    vf = build_value_function(prices)
    if args.single_unit:
        proc = single_unit_procedure(prices)
        k = 1
        default_c = vf.G / 2.0
    else:
        k = args.k
        proc = enumerate_seed_support(vf, k)
        default_c = certified_lower_bounds(vf, k)["best"]
    c = args.c if args.c is not None else default_c
    ok, report = verify_conditions(proc, prices, k, c)
    report["certified_bounds"] = certified_lower_bounds(vf, k)
    _emit(report, args.out)
    return EXIT_OK


def _load_instance(raw):
    items = tuple(
        Item(k=int(it["k"]), priceset=PriceSet(it["prices"]))
        for it in raw["setup"]["items"]
    )
    setup = Setup(items=items)
    arr = raw["arrivals"]
    kind = arr["kind"]
    if kind == "deterministic":
        try:
            willing = np.asarray(arr["willing"])
        except ValueError as exc:
            raise ValidationError("willing: %s" % exc)
        arrivals = ArrivalSequence(kind=kind, willing=willing)
    elif kind in ("single_offer", "fractional"):
        probs = tuple(tuple(tuple(p) for p in row) for row in arr["probs"])
        arrivals = ArrivalSequence(kind=kind, probs=probs)
    else:
        raise MultipriceError("assortment instances are driven by hotel-sim")
    return setup, arrivals


def cmd_simulate(args):
    with open(args.config) as fh:
        raw = json.load(fh)
    setup, arrivals = _load_instance(raw)
    policies = raw.get("policies", ["balance"])
    trials = args.trials or int(raw.get("trials", 1))
    seed = args.seed if args.seed is not None else int(raw.get("seed", 0))
    try:
        bound = solve_primal(setup, arrivals).objective
    except SolverLimitError:
        bound = None

    rows = []
    seeds = [int(s.generate_state(1)[0])
             for s in np.random.SeedSequence(seed).spawn(trials)]
    for name in policies:
        if name not in _POLICIES:
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
                "override_fraction": res.meta.get("override_fraction", ""),
                "runtime_ms": round(ms, 3),
            })
    harness.write_csv(rows, ["policy", "trial", "revenue", "ratio_vs_lp",
                             "override_fraction", "runtime_ms"], args.out)
    return EXIT_OK


def cmd_lp_bound(args):
    with open(args.instance) as fh:
        raw = json.load(fh)
    setup, arrivals = _load_instance(raw)
    sol = solve_primal(setup, arrivals)
    _emit({
        "objective": sol.objective,
        "duals_items": sol.duals_items,
        "duals_arrivals": sol.duals_arrivals,
    }, args.out)
    return EXIT_OK


def cmd_adversary(args):
    prices = _parse_prices(args.prices)
    bounds = analytic_bounds(prices, args.n, args.k)
    policy_names = ["balance", "myopic", "conservative", "gnr"]
    if args.k == 1:
        policy_names.insert(1, "ranking")
    base_seed = args.seed if args.seed is not None else 0
    trials = args.trials or 100
    seeds = [int(s.generate_state(1)[0])
             for s in np.random.SeedSequence(base_seed).spawn(trials)]
    sums = {name: 0.0 for name in policy_names}
    for s in seeds:
        inst = build_instance(prices, args.n, args.k, s)
        for name in policy_names:
            sums[name] += _POLICIES[name](inst.setup, inst.arrivals, s).revenue / inst.realized_opt
    rows = [{"policy": "analytic_bound", "mean_ratio": bounds["ratio"]}]
    for name in policy_names:
        rows.append({"policy": name, "mean_ratio": sums[name] / len(seeds)})
    harness.write_csv(rows, ["policy", "mean_ratio"], args.out)
    return EXIT_OK


def cmd_hotel_sim(args):
    curve = ForecastCurve(expected_total=args.arrivals)
    cfg = harness.ExperimentConfig(
        loading_factors=tuple(float(x) for x in args.loading_factors.split(",")),
        fare_diff=args.fare_diff,
        n_days=args.days,
        mean_daily_arrivals=args.arrivals,
        trials=args.trials or 10,
        base_seed=args.seed or 0,
        policies=hotel_policies(curve, args.gamma),
        workers=args.workers,
    )
    report = harness.run_experiment(cfg)
    out = args.out or "hotel_summary.csv"
    harness.write_summary_csv(report, out)
    if args.runs_out:
        harness.write_runs_csv(report, args.runs_out)
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="multiprice")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--out", default=None)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("valuefn", help="value function of a price set")
    sp.add_argument("--prices", required=True)
    sp.add_argument("--grid", type=int, default=0,
                    help="emit CSV of phi sampled on a uniform grid")
    sp.set_defaults(fn=cmd_valuefn)

    sp = sub.add_parser("perturb", help="randomized initialization tools")
    psub = sp.add_subparsers(dest="perturb_command", required=True)
    spv = psub.add_parser("verify", help="verify certification conditions")
    spv.add_argument("--prices", required=True)
    spv.add_argument("--k", type=int, default=1)
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
    sp.add_argument("--prices", required=True)
    sp.add_argument("--n", type=int, default=200)
    sp.add_argument("--k", type=int, default=1)
    sp.set_defaults(fn=cmd_adversary)

    sp = sub.add_parser("hotel-sim", help="synthetic hotel ensemble experiment")
    sp.add_argument("--loading-factors", default="1.4,1.6,1.8")
    sp.add_argument("--fare-diff", action="store_true")
    sp.add_argument("--days", type=int, default=35)
    sp.add_argument("--arrivals", type=float, default=260.0)
    sp.add_argument("--gamma", type=float, default=1.5)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--runs-out", default=None)
    sp.set_defaults(fn=cmd_hotel_sim)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SolverLimitError as exc:
        print("solver limit: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    except MultipriceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
