"""Instance generation and experiment orchestration.

Builds synthetic hotel-like ensembles and runs the policy suite over them
with common random numbers, reporting each policy's revenue as a fraction
of the hindsight choice-LP bound.  Also parses transaction CSVs into
arrival sequences.
"""

from __future__ import annotations

import contextlib
import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .choice import default_hotel_model
from .engine import BOOKING_CURVE, ArrivalSequence, Item, Setup, count_types
from .errors import SolverLimitError, ValidationError
from .lp import solve_choice_lp
from .valuefn import PriceSet

CSV_SCHEMA_HEADER = "# multiprice-csv v1"

# relative weight of each weekday (Mon..Sun); bookings peak Sun/Mon
DEFAULT_WEEK_PROFILE = (1.25, 0.95, 0.9, 0.9, 0.85, 0.85, 1.3)

_TYPE_FLAGS = {
    (0, 0, 0): 0, (0, 0, 1): 1, (0, 1, 0): 2, (0, 1, 1): 3,
    (1, 0, 0): 4, (1, 0, 1): 5, (1, 1, 0): 6, (1, 1, 1): 7,
}

# a simulated day holds at most this many mean arrivals and units of inventory
MAX_DAY_SIZE = 1_000_000

_REQUIRED_COLUMNS = (
    "booking_date", "occupancy_date", "nights", "room_category",
    "fare_class", "group", "cro", "vip",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run: the synthetic hotel ensembles, policy suite, trials and
    seeding."""

    loading_factors: tuple = (1.4, 1.6, 1.8)
    fare_diff: bool = False
    n_days: int = 35
    mean_daily_arrivals: float = 260.0
    trials: int = 10
    base_seed: int = 0
    policies: tuple = ()  # (name, callable(setup, arrivals, rng_seed)) pairs
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if not 0 <= self.mean_daily_arrivals < math.inf:
            raise ValidationError("mean daily arrivals must be finite and >= 0")
        if not self.loading_factors or not all(0 < lf < math.inf for lf in self.loading_factors):
            raise ValidationError("need one or more loading factors, all positive and finite")
        if self.mean_daily_arrivals > MAX_DAY_SIZE * min(1.0, *self.loading_factors):
            raise SolverLimitError("a day of more than %d arrivals or units" % MAX_DAY_SIZE)


def _largest_remainder(total, shares):
    """Integer split of `total` by `shares` preserving the exact sum."""
    raw = [total * s for s in shares]
    base = [int(x) for x in raw]
    short = total - sum(base)
    order = sorted(range(len(shares)), key=lambda i: -(raw[i] - base[i]))
    for i in order[:short]:
        base[i] += 1
    return base


def child_seeds(root, n):
    """One integer seed from each of n children of the SeedSequence root."""
    return [int(s.generate_state(1)[0]) for s in root.spawn(n)]


def _sample_days_out(count, rng):
    """Booking lead times (days before occupancy), via inverse transform of
    BOOKING_CURVE, ordered by booking date."""
    pts = BOOKING_CURVE
    # low quantiles map to large lead times; earliest bookings first
    us = np.sort(rng.random(count))
    out = []
    for u in us:
        d = pts[-1][0]
        for (d_hi, f_hi), (d_lo, f_lo) in zip(pts, pts[1:]):
            if f_hi <= u <= f_lo:
                d = d_hi - (u - f_hi) / (f_lo - f_hi) * (d_hi - d_lo)
                break
        out.append(d)
    return out


def hotel_setup(catalog, loading_factor, mean_daily_arrivals):
    """Starting inventories: mean arrivals per unit equals the loading
    factor; rooms split by booked-fraction shares."""
    total = int(round(mean_daily_arrivals / loading_factor))
    per_room = _largest_remainder(total, catalog.inventory_shares)
    items = tuple(
        Item(k=max(k, 1), priceset=PriceSet(catalog.room_prices(room)))
        for room, k in enumerate(per_room)
    )
    return Setup(items=items)


def generate_hotel_ensemble(config, loading_factor):
    """One (Setup, ArrivalSequence) per day.  Arrival counts follow the
    weekly profile (Poisson per day), types are drawn from the model's
    shares, lead times from the booking curve."""
    catalog = default_hotel_model(fare_diff=config.fare_diff)
    model = catalog.model
    products = tuple(zip(catalog.product_rooms, catalog.product_levels))
    setup = hotel_setup(catalog, loading_factor, config.mean_daily_arrivals)
    profile = np.array(DEFAULT_WEEK_PROFILE)
    profile = profile / profile.mean()

    root = np.random.SeedSequence((config.base_seed, hash(loading_factor) & 0xFFFF))
    out = []
    for day, child in enumerate(root.spawn(config.n_days)):
        rng = np.random.default_rng(child)
        count = max(int(rng.poisson(config.mean_daily_arrivals * profile[day % 7])), 1)
        types = tuple(int(rng.choice(model.n_types, p=model.type_shares))
                      for _ in range(count))
        days_out = tuple(_sample_days_out(count, rng))
        arrivals = ArrivalSequence(
            kind="assortment",
            types=types,
            model=model,
            products=products,
            days_out=days_out,
        )
        out.append((setup, arrivals))
    return out


def ingest_transactions(path_or_file, replicate=1, fare_diff=False):
    """Parse a transaction CSV into one ArrivalSequence per occupancy date.

    A stay of d nights becomes one arrival on each of d consecutive dates.
    Arrivals are ordered by booking date.  `replicate` repeats each arrival
    in place (the high-inventory regime).
    """
    catalog = default_hotel_model(fare_diff=fare_diff)
    model = catalog.model
    products = tuple(zip(catalog.product_rooms, catalog.product_levels))
    rooms = set(catalog.room_names)

    if hasattr(path_or_file, "read"):
        fh = path_or_file
        close = False
    else:
        fh = open(path_or_file, newline="")
        close = True
    try:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return {}
        missing = [c for c in _REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ValidationError("missing columns: %s" % ", ".join(missing))
        by_date = {}
        for rownum, row in enumerate(reader, start=2):
            try:
                booked = int(row["booking_date"])
                occupied = int(row["occupancy_date"])
                nights = int(row["nights"])
            except (TypeError, ValueError):
                raise ValidationError("row %d: bad date/nights" % rownum)
            if booked > occupied:
                raise ValidationError("row %d: booked after occupancy" % rownum)
            if nights < 1:
                raise ValidationError("row %d: nights must be >= 1" % rownum)
            if row["room_category"] not in rooms:
                raise ValidationError(
                    "row %d: unknown room %r" % (rownum, row["room_category"])
                )
            if row["fare_class"] not in ("low", "high"):
                raise ValidationError(
                    "row %d: unknown fare class %r" % (rownum, row["fare_class"])
                )
            flags = tuple(
                1 if str(row[c]).strip() in ("1", "true", "True", "yes") else 0
                for c in ("group", "cro", "vip")
            )
            a = _TYPE_FLAGS[flags]
            for night in range(nights):
                date = occupied + night
                by_date.setdefault(date, []).append((booked, a))
    finally:
        if close:
            fh.close()

    out = {}
    for date, rows in sorted(by_date.items()):
        rows.sort(key=lambda r: r[0])
        types = []
        days_out = []
        for booked, a in rows:
            for _ in range(replicate):
                types.append(a)
                days_out.append(float(date - booked))
        out[date] = ArrivalSequence(
            kind="assortment",
            types=tuple(types),
            model=model,
            products=products,
            days_out=tuple(days_out),
        )
    return out


def lp_bound(setup, arrivals):
    """Hindsight choice-LP bound with the true type counts."""
    counts = count_types(arrivals.model, arrivals.types)
    sol = solve_choice_lp(setup, counts, arrivals.model, arrivals.products)
    return sol.objective


def _run_one(args):
    name, fn, setup, arrivals, seed = args
    result = fn(setup, arrivals, seed)
    return result.revenue, result.meta


def run_experiment(config):
    """Run every configured policy over the ensembles and summarize.

    Returns {"runs": per-run rows, "summary": per-(policy, lf) aggregate
    rows}.  Policies on the same (instance, trial) share the rng seed
    (common random numbers).  Deterministic given base_seed.
    """
    runs = []
    for lf in config.loading_factors:
        ensemble = generate_hotel_ensemble(config, lf)
        bounds = [lp_bound(setup, arrivals) for setup, arrivals in ensemble]
        seed_root = np.random.SeedSequence((config.base_seed, 7919))
        seeds = [child_seeds(day, config.trials) for day in seed_root.spawn(len(ensemble))]
        jobs = []
        for d, (setup, arrivals) in enumerate(ensemble):
            for trial in range(config.trials):
                for name, fn in config.policies:
                    jobs.append((name, fn, setup, arrivals, seeds[d][trial], d, trial))
        if config.workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=config.workers) as pool:
                results = list(pool.map(_run_one, [j[:5] for j in jobs]))
        else:
            results = [_run_one(j[:5]) for j in jobs]
        for (name, _, _, _, _, d, trial), (rev, meta) in zip(jobs, results):
            runs.append({
                "loading_factor": lf,
                "day": d,
                "trial": trial,
                "policy": name,
                "revenue": rev,
                "lp_bound": bounds[d],
                "ratio": rev / bounds[d] if bounds[d] > 0 else 0.0,
                "meta": meta,
            })

    summary = []
    keys = sorted({(r["loading_factor"], r["policy"]) for r in runs},
                  key=lambda x: (x[0], x[1]))
    for lf, name in keys:
        ratios = [r["ratio"] for r in runs
                  if r["policy"] == name and r["loading_factor"] == lf]
        summary.append({
            "loading_factor": lf,
            "policy": name,
            "mean_ratio": float(np.mean(ratios)),
            "stdev_ratio": float(np.std(ratios, ddof=1)) if len(ratios) > 1 else 0.0,
            "n_runs": len(ratios),
        })
    return {"runs": runs, "summary": summary}


def write_csv(rows, fieldnames, out=None):
    """Rows under the schema header, to the file out or else to stdout;
    keys outside fieldnames are left out."""
    with open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(CSV_SCHEMA_HEADER + "\n")
        w = csv.DictWriter(fh, fieldnames=fieldnames, extrasaction="ignore")
        w.writeheader()
        w.writerows(rows)


def write_summary_csv(report, path):
    """Per-(policy, loading factor) aggregate table."""
    write_csv(report["summary"],
              ["loading_factor", "policy", "mean_ratio", "stdev_ratio", "n_runs"], path)


def write_runs_csv(report, path):
    """Per-run ratio rows (one line per policy/day/trial)."""
    rows = sorted(report["runs"],
                  key=lambda r: (r["loading_factor"], r["policy"], r["day"], r["trial"]))
    write_csv(rows, ["loading_factor", "day", "trial", "policy", "revenue",
                     "lp_bound", "ratio"], path)
