"""Output checks computed apart from the program.

Nothing here imports multiprice: each check recomputes the expected answer
from first principles (a closed form, a full-enumeration LP solved by
scipy's HiGHS, an LP dual certificate) and raises CheckError on the first
disagreement.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

CSV_HEADER = "# multiprice-csv v1"


class CheckError(Exception):
    """An op's output disagrees with the independent computation."""


def two_price_ratio(xi):
    """Competitive ratio F of the two-price set {1, xi}, in closed form."""
    return 1.0 - (math.sqrt(1.0 + 4.0 * xi * (xi - 1.0) / math.e) - 1.0) / (
        2.0 * (xi - 1.0)
    )


def low_phase_share(xi):
    """Share of the adversarial customer groups that accept only the low
    price of {1, xi}: with alpha_1 = -ln(1 - F) and alpha_2 = 1 - alpha_1,
    the high phase holds e^(1 - 2 alpha_1) / xi of the groups."""
    alpha1 = -math.log(1.0 - two_price_ratio(xi))
    return 1.0 - math.exp(1.0 - 2.0 * alpha1) / xi


def _read_csv(text):
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise CheckError("CSV does not start with %r" % CSV_HEADER)
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def check_adversary_csv(text, xi, policies):
    """The analytic_bound row equals F(xi) within 1e-9 and every policy's
    mean ratio to the hindsight optimum lies in (0, 1]."""
    rows = {r["policy"]: float(r["mean_ratio"]) for r in _read_csv(text)}
    expected = ["analytic_bound"] + list(policies)
    if sorted(rows) != sorted(expected):
        raise CheckError("policies %s, expected %s" % (sorted(rows), sorted(expected)))
    bound = rows["analytic_bound"]
    if abs(bound - two_price_ratio(xi)) > 1e-9:
        raise CheckError("analytic_bound %r != F(%g) = %r"
                         % (bound, xi, two_price_ratio(xi)))
    for name in policies:
        if not 0.0 < rows[name] <= 1.0:
            raise CheckError("%s mean_ratio %r outside (0, 1]" % (name, rows[name]))


class HotelCatalog:
    """The bundled hotel model, read straight from its JSON file."""

    def __init__(self, path):
        with open(path) as fh:
            raw = json.load(fh)
        self.rooms = raw["rooms"]
        self.product_room = [p["room"] for p in raw["products"]]
        self.fares = [
            float(self.rooms[p["room"]]["low_fare" if p["level"] == 1 else "high_fare"])
            for p in raw["products"]
        ]
        self.types = raw["types"]
        self.n_products = len(self.fares)
        self._columns = None

    def capacities(self, loading_factor, mean_daily_arrivals):
        """Rooms per type: round(mean / loading factor) split by inventory
        share with largest remainders, at least one each."""
        total = int(round(mean_daily_arrivals / loading_factor))
        raw = [total * r["inventory_share"] for r in self.rooms]
        caps = [int(x) for x in raw]
        order = sorted(range(len(raw)), key=lambda i: -(raw[i] - caps[i]))
        for i in order[: total - sum(caps)]:
            caps[i] += 1
        return [max(c, 1) for c in caps]

    def max_revenue(self, caps):
        """Every room sold at its room's highest fare."""
        top = [max(f for f, r in zip(self.fares, self.product_room) if r == room)
               for room in range(len(self.rooms))]
        return sum(k * f for k, f in zip(caps, top))

    def columns(self):
        """Room use and revenue of offering each of the 2^P - 1 non-empty
        assortments to one customer of each type, under MNL choice."""
        if self._columns is None:
            n_rooms, n_types = len(self.rooms), len(self.types)
            cols, revs = [], []
            for a, t in enumerate(self.types):
                weights = [0.0 if u is None else math.exp(u) for u in t["utilities"]]
                for mask in range(1, 1 << self.n_products):
                    offered = [p for p in range(self.n_products) if mask >> p & 1]
                    total = math.exp(t["u0"]) + sum(weights[p] for p in offered)
                    col = np.zeros(n_rooms + n_types)
                    rev = 0.0
                    for p in offered:
                        prob = weights[p] / total
                        col[self.product_room[p]] += prob
                        rev += prob * self.fares[p]
                    col[n_rooms + a] = 1.0
                    cols.append(col)
                    revs.append(rev)
            self._columns = (np.column_stack(cols), np.array(revs))
        return self._columns

    def lp_bound(self, caps, type_counts):
        """Choice-based LP over every assortment: room rows <= capacity,
        one row per type <= its count of customers."""
        from scipy.optimize import linprog

        A, c = self.columns()
        b = np.array(list(caps) + list(type_counts), dtype=float)
        res = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
        if res.status != 0:
            raise CheckError("reference LP failed: %s" % res.message)
        return -res.fun


def check_hotel_outputs(summary_text, runs_text, trials, policies, lp_ref, max_revenue):
    """Every run's lp_bound matches the reference LP within 1e-6 relative,
    every revenue lies in [0, max_revenue] and every policy has `trials`
    runs."""
    summary = _read_csv(summary_text)
    if sorted(r["policy"] for r in summary) != sorted(policies):
        raise CheckError("summary policies %s" % sorted(r["policy"] for r in summary))
    for r in summary:
        if int(r["n_runs"]) != trials:
            raise CheckError("%s has n_runs %s, expected %d"
                             % (r["policy"], r["n_runs"], trials))
    runs = _read_csv(runs_text)
    if len(runs) != trials * len(policies):
        raise CheckError("%d runs, expected %d" % (len(runs), trials * len(policies)))
    for r in runs:
        bound = float(r["lp_bound"])
        if abs(bound - lp_ref) > 1e-6 * abs(lp_ref):
            raise CheckError("lp_bound %r != reference %r" % (bound, lp_ref))
        revenue = float(r["revenue"])
        if not 0.0 <= revenue <= max_revenue:
            raise CheckError("%s revenue %r outside [0, %r]"
                             % (r["policy"], revenue, max_revenue))


def check_lp_bound(out, willing, prices, capacities):
    """Hindsight assignment LP of a nested instance.

    The objective is sum_t max_i r(willing[t, i]), since nested interest
    sets admit a perfect matching.  The emitted duals certify it: y, z >= 0,
    y_i + z_t >= r(willing[t, i]) wherever willing[t, i] > 0 (prices rise
    with the index, so lower indices follow), and sum_i k_i y_i + sum_t z_t
    equals the objective within 1e-7 relative.
    """
    willing = np.asarray(willing, dtype=int)
    r = np.concatenate([[0.0], np.asarray(prices, dtype=float)])
    reward = r[willing]
    obj = float(out["objective"])
    expected = float(reward.max(axis=1).sum())
    if abs(obj - expected) > 1e-9 * expected:
        raise CheckError("objective %r != hindsight optimum %r" % (obj, expected))
    y = np.asarray(out["duals_items"], dtype=float)
    z = np.asarray(out["duals_arrivals"], dtype=float)
    if y.shape != (willing.shape[1],) or z.shape != (willing.shape[0],):
        raise CheckError("dual vector lengths %s, %s" % (y.shape, z.shape))
    tol = 1e-7 * r.max()
    if y.min() < -tol or z.min() < -tol:
        raise CheckError("negative dual")
    slack = (y[None, :] + z[:, None] - reward)[willing > 0]
    if slack.min() < -tol:
        raise CheckError("dual constraint violated by %r" % -slack.min())
    dual_obj = float(np.dot(capacities, y) + z.sum())
    if abs(dual_obj - obj) > 1e-7 * abs(obj):
        raise CheckError("dual objective %r != primal %r" % (dual_obj, obj))
