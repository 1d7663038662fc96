"""Instance generation and experiment orchestration.

Builds synthetic hotel-like ensembles and runs the policy suite over them
with common random numbers, reporting each policy's revenue as a fraction
of the hindsight choice-LP bound.  Also parses transaction CSVs into
arrival sequences.
"""

from __future__ import annotations

import contextlib
import csv
import sys
from dataclasses import dataclass

import numpy as np

from .choice import default_hotel_model
from .engine import BOOKING_CURVE, ArrivalSequence, Item, Setup, count_types, interpolate, validate
from .errors import SolverLimitError, ValidationError, as_int, as_real, as_tuple
from .lp import solve_choice_lp
from .valuefn import PriceSet

CSV_SCHEMA_HEADER = "# multiprice-csv v1"

# relative weight of each weekday (Mon..Sun); bookings peak Sun/Mon
DEFAULT_WEEK_PROFILE = (1.25, 0.95, 0.9, 0.9, 0.85, 0.85, 1.3)

_TYPE_FLAGS = {
    (0, 0, 0): 0, (0, 0, 1): 1, (0, 1, 0): 2, (0, 1, 1): 3,
    (1, 0, 0): 4, (1, 0, 1): 5, (1, 1, 0): 6, (1, 1, 1): 7,
}

# BOOKING_CURVE as days out by fraction booked
_DAYS_OUT_BY_FRACTION = tuple((f, d) for d, f in BOOKING_CURVE)

# a simulated day holds at most this many mean arrivals and units of
# inventory, and an ingested transaction file this many arrivals in all
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

    def __post_init__(self):
        for name, least in (("trials", 1), ("n_days", 1), ("base_seed", 0)):
            object.__setattr__(self, name, as_int(getattr(self, name), least, name,
                                                  ValidationError))
        object.__setattr__(self, "mean_daily_arrivals", as_real(
            self.mean_daily_arrivals, 0.0, "mean daily arrivals", ValidationError))
        object.__setattr__(self, "loading_factors", tuple(
            as_real(f, 0.0, "loading factor", ValidationError, strict=True)
            for f in as_tuple(self.loading_factors, "loading factors", ValidationError)))
        policies = tuple(as_tuple(p, "a policy", ValidationError)
                         for p in as_tuple(self.policies, "policies", ValidationError))
        for pair in policies:
            if len(pair) != 2 or not isinstance(pair[0], str) or not callable(pair[1]):
                raise ValidationError("a policy must be a (name, callable) pair, got %r" % (pair,))
        object.__setattr__(self, "policies", policies)
        if not isinstance(self.fare_diff, (bool, np.bool_)):
            raise ValidationError("fare_diff must be a bool, got %r" % (self.fare_diff,))
        object.__setattr__(self, "fare_diff", bool(self.fare_diff))
        if not self.loading_factors:
            raise ValidationError("need one or more loading factors")
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
    # low quantiles map to large lead times; earliest bookings first
    return [interpolate(u, _DAYS_OUT_BY_FRACTION) for u in np.sort(rng.random(count))]


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
        types = tuple(rng.choice(model.n_types, size=count, p=model.type_shares).tolist())
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
    in place (the high-inventory regime).  A file whose rows would expand
    to more than MAX_DAY_SIZE arrivals in all raises SolverLimitError at
    the row that passes it, before that row is expanded.
    """
    replicate = as_int(replicate, 1, "replicate", ValidationError)
    catalog = default_hotel_model(fare_diff=fare_diff)
    model = catalog.model
    products = tuple(zip(catalog.product_rooms, catalog.product_levels))
    rooms = set(catalog.room_names)

    with (contextlib.nullcontext(path_or_file) if hasattr(path_or_file, "read")
          else open(path_or_file, newline="")) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return {}
        missing = [c for c in _REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ValidationError("missing columns: %s" % ", ".join(missing))
        by_date = {}
        total = 0  # arrivals after expansion, replicates included
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
            total += nights * replicate
            if total > MAX_DAY_SIZE:
                raise SolverLimitError("row %d: the file expands to more than %d arrivals"
                                       % (rownum, MAX_DAY_SIZE))
            for night in range(nights):
                date = occupied + night
                by_date.setdefault(date, []).append((booked, a))

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
    """Hindsight choice-LP bound with the true type counts: the restricted
    master's objective plus its column-generation gap, which is 0 once
    converged and otherwise keeps the bound above the LP optimum."""
    validate(setup, arrivals, "lp_bound", "assortment")
    counts = count_types(arrivals.model, arrivals.types)
    sol = solve_choice_lp(setup, counts, arrivals.model, arrivals.products)
    return sol.objective + sol.meta["gap"]


def run_experiment(config):
    """Run every configured policy over the ensembles and summarize.

    Returns {"runs": per-run rows, "summary": per-(policy, lf) aggregate
    rows}.  Policies on the same (instance, trial) share the rng seed
    (common random numbers).  Deterministic given base_seed.
    """
    runs = []
    for lf in config.loading_factors:
        ensemble = generate_hotel_ensemble(config, lf)
        days = np.random.SeedSequence((config.base_seed, 7919)).spawn(len(ensemble))
        for d, (setup, arrivals) in enumerate(ensemble):
            bound = lp_bound(setup, arrivals)
            for trial, seed in enumerate(child_seeds(days[d], config.trials)):
                for name, fn in config.policies:
                    result = fn(setup, arrivals, seed)
                    runs.append({
                        "loading_factor": lf,
                        "day": d,
                        "trial": trial,
                        "policy": name,
                        "revenue": result.revenue,
                        "lp_bound": bound,
                        "ratio": result.revenue / bound if bound > 0 else 0.0,
                        "meta": result.meta,
                    })

    ratios = {}
    for r in runs:
        ratios.setdefault((r["loading_factor"], r["policy"]), []).append(r["ratio"])
    summary = [{
        "loading_factor": lf,
        "policy": name,
        "mean_ratio": float(np.mean(rs)),
        "stdev_ratio": float(np.std(rs, ddof=1)) if len(rs) > 1 else 0.0,
        "n_runs": len(rs),
    } for (lf, name), rs in sorted(ratios.items())]
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
