"""Online allocation policies over arrival streams.

Implements the two competitive policies (balance over multi-unit items,
ranking over single units), the classic benchmark policies (myopic,
conservative, inventory-balancing), the forecasting bid-price policies,
and the hybrid that follows a forecast but falls back on the
forecast-independent value functions when the forecast looks too greedy.

All policies consume a Setup (items with inventories and price sets) and an
ArrivalSequence, and are deterministic given their seed.

Every policy makes one step: offer each customer the (item, price), or the
assortment, of best offer value, a bid per (item, price) combined with a
state per item: balance and ranking subtract the marginal value phi(sold),
the static-weight policies multiply by a discount psi(sold / k), bid-price
policies subtract the item's dual.  Each arrival kind has one loop that
makes this step, and fluid balance one more over single-offer arrivals;
one ledger books every sale.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .choice import MnlModel, choice_probs, expected_value, optimize_assortment, sample_choice
from .errors import DomainError, MultipriceError, ValidationError, as_int, as_real
from .perturb import build_perturbed, rounding_classes
from .streams import item_uniforms
from .valuefn import PriceSet, build_value_function

# minimum pseudorevenue for an offer to be made
POSITIVITY_EPS = 1e-12

PSI_DENOM = math.e - 1.0

FORECAST_MODES = ("one_shot", "resolving", "learning", "clairvoyant")

# cumulative fraction of eventual arrivals booked, by decreasing days before
# the occupancy date: none at 35 days out, half at 25, all on the day
BOOKING_CURVE = ((35.0, 0.0), (25.0, 0.5), (0.0, 1.0))


def interpolate(x, knots):
    """The piecewise-linear curve through knots (x, y), their x strictly
    monotone, at x: the y of the first knot before it, of the last past it."""
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        if min(x0, x1) <= x <= max(x0, x1):
            return y0 + (x - x0) / (x1 - x0) * (y1 - y0)
    (x0, y0), (x1, _) = knots[:2]
    return knots[-1][1] if (x > x0) == (x1 > x0) else y0


def psi(w):
    """Inventory-balancing discount (e - e^w)/(e - 1)."""
    return (math.e - math.exp(w)) / PSI_DENOM


@dataclass(frozen=True)
class Item:
    k: int
    priceset: PriceSet

    def __post_init__(self):
        object.__setattr__(self, "k", as_int(self.k, 1, "inventory", ValidationError))
        if not isinstance(self.priceset, PriceSet):
            raise ValidationError("priceset must be a PriceSet, got %r" % (self.priceset,))


@dataclass(frozen=True)
class Setup:
    items: tuple

    def __post_init__(self):
        items = tuple(self.items) if isinstance(self.items, Iterable) else (self.items,)
        object.__setattr__(self, "items", items)
        if len(items) < 1:
            raise ValidationError("need at least one item")
        if not all(isinstance(it, Item) for it in items):
            raise ValidationError("every item must be an Item, got %r" % (items,))

    @property
    def n(self):
        return len(self.items)

    @functools.cached_property
    def ms(self):
        """Each item's number of prices, as a read-only array."""
        return _read_only(np.array([it.priceset.m for it in self.items]))

    @functools.cached_property
    def price_table(self):
        """price_table[i, j] = r_i(j): column 0 (no interest) and the
        padding past an item's prices are 0.  Built once, read-only."""
        table = np.zeros((self.n, int(self.ms.max()) + 1))
        for i, item in enumerate(self.items):
            table[i, 1 : item.priceset.m + 1] = item.priceset.prices
        return _read_only(table)

    @functools.cached_property
    def item_groups(self):
        """{(price tuple, k): read-only array of the indices of the items
        with those prices and inventory}, in order of first appearance."""
        groups = {}
        for i, item in enumerate(self.items):
            groups.setdefault((item.priceset.prices, item.k), []).append(i)
        return {key: _read_only(np.array(items)) for key, items in groups.items()}


def _read_only(a):
    a.flags.writeable = False
    return a


_BAD_WILLING = "willing must be a T x %s integer array"
_OUT_OF_RANGE = "willing index outside an item's price range"
_BAD_PROBS = "probs needs, per customer and item, one probability in [0, 1] per price"


class ArrivalSequence:
    """A stream of T customers.

    kind "deterministic": willing[t, i] = highest acceptable price index
    (0 = not interested), held as runs of identical customers in a row.
    Give either willing, a T x n integer array whose runs are found on
    first use, or runs=(rows, counts), row r being the willingness of
    counts[r] customers in a row; willing and T are derived from the runs.
    The arrays are read, never written, and must not change once the
    sequence has been used.  kind "single_offer": probs[t][i] holds item i's
    per-price probabilities, kept as prob_table from first use.  kind
    "assortment": types[t] indexes into model, an MnlModel; products maps
    model product indices to (item, price index) pairs.
    """

    KINDS = ("deterministic", "single_offer", "assortment")

    def __init__(self, kind, willing=None, probs=None, types=None, model=None,
                 products=None, days_out=None, runs=None):
        if kind not in self.KINDS:
            raise ValidationError("unknown arrival kind %r" % (kind,))
        if runs is not None and len(runs) != 2:
            raise ValidationError("runs must be a pair (rows, counts)")
        self.kind = kind
        self.probs = probs
        self.types = types
        self.model = model
        self.products = products
        self.days_out = days_out  # optional, days before the occupancy date
        self._given = (willing, None) if runs is None else tuple(np.asarray(a) for a in runs)

    @functools.cached_property
    def _found(self):
        """(rows, counts, each item's highest index) of the runs given, or
        found in willing, on first use: DomainError unless the rows form a
        2-D integer array of non-negative indices with one positive integer
        count per row."""
        rows, counts = self._given
        if counts is None:
            w = np.asarray(rows)
            if w.ndim != 2 or w.dtype.kind not in "iu":
                raise DomainError(_BAD_WILLING % "n")
            new = np.ones(len(w), dtype=bool)
            new[1:] = np.any(w[1:] != w[:-1], axis=1)
            starts = np.flatnonzero(new)
            rows, counts = _read_only(w[starts]), np.diff(starts, append=len(w))
        if (rows.ndim != 2 or rows.dtype.kind not in "iu" or counts.shape != rows.shape[:1]
                or counts.dtype.kind not in "iu" or np.any(counts < 1)):
            raise DomainError(_BAD_WILLING % "n")
        if rows.min(initial=0) < 0:
            raise DomainError(_OUT_OF_RANGE)
        self._given = None  # held from here on as the runs alone
        return rows, counts, _read_only(rows.max(axis=0, initial=0))

    @property
    def runs(self):
        """(rows, counts) of deterministic arrivals: row r is the
        willingness of counts[r] customers in a row, and rows next to each
        other differ when found from willing.  Raises DomainError on
        malformed arrays."""
        return self._found[:2]

    @property
    def willing(self):
        """The T x n willingness matrix."""
        return np.repeat(*self.runs, axis=0)

    @functools.cached_property
    def _offered(self):
        """(prob_table, its rows as lists, each item's price count) on first use:
        DomainError unless every row holds per item as many numbers in [0, 1] as the first."""
        try:
            sizes = np.array([[len(r) for r in row] for row in self.probs], dtype=int)
            flat = np.array([p for row in self.probs for r in row for p in r])
        except (TypeError, ValueError):  # not nested sequences, or rows of unequal length
            raise DomainError(_BAD_PROBS) from None
        ms = sizes[0] if len(sizes) else sizes
        if (np.any(sizes != ms) or flat.shape != (sizes.sum(),) or flat.dtype.kind not in "biuf"
                or not ((flat >= 0) & (flat <= 1)).all()):
            raise DomainError(_BAD_PROBS)
        js = np.arange(ms.max(initial=0) + 1)
        table = np.zeros((len(sizes), len(ms), len(js)))
        table[:, (js >= 1) & (js <= ms[:, None])] = flat.reshape(len(sizes), ms.sum())
        return _read_only(table), table.tolist(), _read_only(ms)

    @property
    def prob_table(self):
        """probs as one read-only T x n x (m_max + 1) array laid out like Setup.price_table."""
        return self._offered[0]

    @functools.cached_property
    def _typed(self):
        """The types as an array on first use: DomainError unless model is an MnlModel,
        the types are among its types and days_out holds one finite lead time each."""
        try:
            types = np.asarray(self.types)
            days = None if self.days_out is None else np.asarray(self.days_out)
        except ValueError:  # ragged
            raise DomainError("types and days_out must be flat sequences") from None
        if not isinstance(self.model, MnlModel) or types.size and (
                types.ndim != 1 or types.dtype.kind not in "iu" or types.min() < 0
                or types.max() >= self.model.n_types):
            raise DomainError("customer types must be integers among an MnlModel's types")
        if days is not None and (days.shape != types.shape or days.dtype.kind not in "iuf"
                                 or not np.isfinite(days).all()):
            raise DomainError("days_out needs one finite lead time per customer")
        return types

    @property
    def T(self):
        if self.kind == "deterministic":
            return int(self.runs[1].sum())
        if self.kind == "assortment":
            return len(self._typed)
        return len(self.prob_table)


@dataclass
class RunResult:
    revenue: float
    sales_log: list  # (t, item, price index, price, pseudorevenue)
    final_inventory: list
    duals_trace: list = None
    meta: dict = field(default_factory=dict)


def check_products(setup, products):
    """Raise DomainError unless every product is an (item, price index)
    pair of the setup."""
    ms = setup.ms.tolist()
    if not isinstance(products, (list, tuple)):
        raise DomainError("products must be a list of (item, price index) pairs")
    for product in products:
        try:
            i, j = (as_int(x, 0, "index") for x in product)
        except (TypeError, ValueError, DomainError):  # not a pair of integers
            i = j = -1
        if not (0 <= i < len(ms) and 1 <= j <= ms[i]):
            raise DomainError("product %r is not an (item, price index) pair of the setup"
                              % (product,))


def validate(setup, arrivals, policy, *kinds):
    """Raise DomainError unless the arrivals are of one of the kinds that
    `policy` takes and fit the setup.  Every runner and the hindsight LP
    call this first, so malformed input never ends in an index error deep
    inside a policy."""
    if arrivals.kind not in kinds:
        raise DomainError("%s takes %s arrivals, not %s"
                          % (policy, " or ".join(kinds), arrivals.kind))
    if arrivals.kind == "deterministic":
        top = arrivals._found[2]  # found and checked with the runs, once per sequence
        if len(top) != setup.n:
            raise DomainError(_BAD_WILLING % setup.n)
        if np.any(top > setup.ms):
            raise DomainError(_OUT_OF_RANGE)
    elif arrivals.kind == "assortment":
        check_products(setup, arrivals.products)
        arrivals._typed  # checked once per sequence
    elif arrivals.T and not np.array_equal(arrivals._offered[2], setup.ms):  # single-offer
        raise DomainError(_BAD_PROBS)


def _stream(rng_seed, i):
    """Child i of the run's seed, numbered as by SeedSequence.spawn: for
    i = n the customers' choice stream.  Items 0..n-1 draw from children
    0..n-1 through streams.item_uniforms."""
    return np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(i,)))


class Ledger:
    """Sale bookkeeping shared by every policy: units sold per item, items
    sold out, revenue and the sales log.  Selling a unit of an item that has
    none left is a fault of the policy and raises MultipriceError."""

    def __init__(self, setup):
        self.items = setup.items
        self.ks = [it.k for it in setup.items]
        self.sold = [0] * setup.n
        self.sold_out = 0  # items with no unit left, counted as they sell out
        self.revenue = 0.0
        self.log = []  # (t, item, price index, amount, offer value)

    def book(self, t, i, j, amount, z):
        self.revenue += amount
        self.log.append((t, i, j, amount, z))

    def sell(self, t, i, j, z):
        """Book one unit of item i at price index j; returns the price."""
        if self.sold[i] >= self.ks[i]:
            raise MultipriceError("item %d would sell more than its %d units"
                                  % (i, self.ks[i]))
        self.sold[i] += 1
        if self.sold[i] == self.ks[i]:
            self.sold_out += 1
        price = self.items[i].priceset.price(j)
        self.book(t, i, j, price, z)
        return price

    def remaining(self):
        return [k - s for k, s in zip(self.ks, self.sold)]

    def result(self, final_inventory=None, **extra):
        if final_inventory is None:
            final_inventory = self.remaining()
        return RunResult(revenue=self.revenue, sales_log=self.log,
                         final_inventory=final_inventory, **extra)


class _Offer:
    """Offer values: item i at price index j is worth combine(bid[i, j],
    state[i]).  Columns are the items, or for ranking the units of item
    col_item[c].  With levels, a column's state after s sales is
    levels[c][s]; its last level, sold out, makes no offer on it worth it.

    An offer serves one run, with one ledger, product list and choice
    model, and three memos spare its assortment loop work done before.
    values() keeps the list it built until it goes stale: at a write to the
    state, which goes through advance, put or a refresh that solved, or
    when the ledger sells another item out.  best() keeps, per customer
    type, the last pi and the oracle's answer for it, and asks the oracle
    again only for a pi that differs; probs() keeps, per customer type, the
    last assortment and its choice probabilities, and computes them again
    only for an assortment that differs.  The oracle and choice_probs are
    pure functions, so the answers are those they would give."""

    def __init__(self, bid, combine, levels=None, col_item=None, state=None):
        self.bid = bid
        self.combine = combine
        self.levels = levels
        self.col_item = np.arange(len(bid)) if col_item is None else col_item
        self.state = np.array([lv[0] for lv in levels]) if state is None else state
        self.count = [0] * len(self.state)
        self._values = None  # (the ledger's sold-out count, values)
        self._best = {}  # type -> (pi, optimize_assortment(model, type, pi))
        self._probs = {}  # type -> (assortment, choice_probs(model, type, assortment)[0])

    @functools.cached_property
    def rows(self):
        """The bids as lists, cheaper to read one by one."""
        return self.bid.tolist()

    def values(self, products, ledger):
        """Offer value of each product, 0 once its item is sold out; the
        list is shared with later calls, so it must not be changed."""
        memo = self._values
        if memo is not None and memo[0] == ledger.sold_out:
            return memo[1]
        rows, state, combine = self.rows, self.state.tolist(), self.combine
        sold, ks = ledger.sold, ledger.ks
        values = [combine(rows[i][j], state[i]) if sold[i] < ks[i] else 0.0
                  for i, j in products]
        self._values = (ledger.sold_out, values)
        return values

    def best(self, model, a, pi):
        """optimize_assortment(model, a, pi), asked again only when pi
        differs from the last this offer saw for type a."""
        memo = self._best.get(a)
        if memo is None or memo[0] != pi:
            memo = self._best[a] = (pi, optimize_assortment(model, a, pi))
        return memo[1]

    def probs(self, model, a, s):
        """choice_probs(model, a, s)[0], computed again only when s differs
        from the last assortment this offer saw for type a; the dict is
        shared with later calls, so it must not be changed."""
        memo = self._probs.get(a)
        if memo is None or memo[0] != s:
            memo = self._probs[a] = (s, choice_probs(model, a, s)[0])
        return memo[1]

    def put(self, c, state):
        """Set column c's state."""
        self.state[c] = state
        self._values = None

    def advance(self, c):
        if self.levels is not None:
            self.count[c] += 1
            self.state[c] = self.levels[c][self.count[c]]
            self._values = None

    def refresh(self, t):
        """Runs before arrival t; only bid prices change here."""


def _balance_offer(setup, rng_seed, perturbed):
    """Balance values: the (perturbed) value function at the (rounded) price
    border minus at the sold level.  Also returns each item's value grid
    over sold counts 0..k.  Items that round alike share one grid and one
    level table, built once per distinct rounding of their (prices, k)."""
    bid = setup.price_table.copy() if perturbed else setup.price_table
    if perturbed:
        seeds = item_uniforms(rng_seed, [1] * setup.n)
        seed_array = np.array(seeds)
    grids, levels = [None] * setup.n, [None] * setup.n
    for (prices, k), items in setup.item_groups.items():
        vf = build_value_function(prices)
        if perturbed:
            first, inverse = rounding_classes(vf, k, seed_array[items])
            pvfs = [build_perturbed(vf, k, seeds[i]) for i in items[first].tolist()]
            borders = [[pvf.border_value(j) for j in range(1, vf.m + 1)] for pvf in pvfs]
            bid[items, 1 : vf.m + 1] = np.array(borders)[inverse]
            grid_per_rounding = [pvf.grid_values for pvf in pvfs]
        else:
            inverse = np.zeros(len(items), dtype=int)
            grid_per_rounding = [[vf.phi(s / k) for s in range(k + 1)]]
        shared = [(grid, list(grid[:-1]) + [np.inf]) for grid in grid_per_rounding]
        for i, r in zip(items.tolist(), inverse.tolist()):
            grids[i], levels[i] = shared[r]
    return _Offer(bid, operator.sub, levels), grids


def _deterministic_loop(setup, arrivals, offer, ledger, on_sale=None):
    """One argmax per arrival: the customer buys from the first column of
    largest offer value at their willingness price, since the offer value
    rises with the price; bid 0 of an uninterested customer never wins.
    The customers of a run share one bid row, and once one of them finds
    no offer worth making the state stands still, so the rest find none."""
    rows, counts = arrivals.runs
    cols = offer.col_item
    bids = offer.bid.ravel().take(rows[:, cols] + cols * offer.bid.shape[1])
    combine, state, col_item = offer.combine, offer.state, cols.tolist()
    start = 0
    for r, count in enumerate(counts.tolist()):
        bid, row = bids[r], rows[r]
        for t in range(start, start + count):
            v = combine(bid, state)
            c = int(v.argmax())
            z = float(v[c])
            if z <= POSITIVITY_EPS:
                break
            i = col_item[c]
            price = ledger.sell(t, i, int(row[i]), z)
            if on_sale is not None:
                on_sale(t, c, z, price)
            offer.advance(c)
        start += count
    return ledger


def _best_offers(arrivals, offer):
    """(t, item, price index, p * offer value, p) of each customer's best offer
    worth making: the first strict maximum over the items in order, each
    item's prices from high to low.  A sold-out item's state makes none worth it."""
    for t, row in enumerate(arrivals._offered[1]):
        best = (POSITIVITY_EPS, -1, -1, 0.0)
        for i, probs in enumerate(row):
            for j in range(len(probs) - 1, 0, -1):  # column 0 and the padding hold 0
                if probs[j] > 0.0:
                    z = probs[j] * offer.combine(offer.rows[i][j], offer.state[i])
                    if z > best[0]:
                        best = (z, i, j, probs[j])
        if best[1] >= 0:
            yield t, best[1], best[2], float(best[0]), best[3]


def _single_offer_loop(setup, arrivals, rng_seed, offer, ledger, on_sale=None):
    """Each customer is offered the best (item, price) and buys it with its
    probability, drawn from the choice stream."""
    rng = _stream(rng_seed, setup.n)
    for t, i, j, z, p in _best_offers(arrivals, offer):
        if rng.random() < p:
            price = ledger.sell(t, i, j, z)
            if on_sale is not None:
                on_sale(t, i, z, price)
            offer.advance(i)
    return ledger


def _fractional_loop(setup, arrivals, offer, ledger, vfs):
    """Fluid balance: the best offer's probability mass is bought outright,
    truncated to what the item has left; the item's offer state is its
    value function at the new fraction sold."""
    ks = ledger.ks
    w = np.zeros(setup.n)
    truncations = 0
    for t, i, j, z, p in _best_offers(arrivals, offer):
        accept = min(p, (1.0 - w[i]) * ks[i])
        if accept < p:
            truncations += 1
        w[i] = min(1.0, w[i] + accept / ks[i])
        offer.put(i, vfs[i].phi(w[i]))
        ledger.book(t, i, j, accept * setup.items[i].priceset.price(j), z)
    return ledger.result(final_inventory=[k * (1.0 - wi) for k, wi in zip(ks, w)],
                         meta={"truncations": truncations})


def _assortment_loop(setup, arrivals, rng_seed, offer, ledger, choose=None):
    """Offer each customer the assortment of largest expected offer value,
    or what choose(t, a) returns as (the assortment's choice probabilities,
    offer value per product); the customer picks by the MNL model from the
    choice stream."""
    rng = _stream(rng_seed, setup.n)
    model, products = arrivals.model, arrivals.products
    for t, a in enumerate(arrivals.types):
        offer.refresh(t)
        if choose is None:
            pi = offer.values(products, ledger)
            probs = offer.probs(model, a, offer.best(model, a, pi)[0])
        else:
            probs, pi = choose(t, a)
        if not probs:  # the empty assortment
            continue
        chosen = sample_choice(probs, rng)
        if chosen is None:
            continue
        i, j = products[chosen]
        ledger.sell(t, i, j, pi[chosen])
        offer.advance(i)
    return ledger


def _offer_loop(setup, arrivals, rng_seed, offer, on_sale=None):
    """Run the loop of the arrivals' kind on one offer, with a new ledger."""
    ledger = Ledger(setup)
    if arrivals.kind == "deterministic":
        return _deterministic_loop(setup, arrivals, offer, ledger, on_sale)
    if arrivals.kind == "single_offer":
        return _single_offer_loop(setup, arrivals, rng_seed, offer, ledger, on_sale)
    return _assortment_loop(setup, arrivals, rng_seed, offer, ledger)


def run_balance(setup, arrivals, rng_seed, perturbed=True, duals_trace=False):
    """Balance policy: offer the (item, price) with the largest expected
    pseudorevenue, where an item's unit is valued by its perturbed value
    function at the rounded price border minus at the current sold level."""
    validate(setup, arrivals, "balance", "deterministic", "single_offer")
    as_int(rng_seed, 0, "rng_seed")
    offer, grids = _balance_offer(setup, rng_seed, perturbed)
    trace = [] if duals_trace else None

    def record(t, i, z, price):
        s = offer.count[i]
        delta = setup.items[i].k * (grids[i][s + 1] - grids[i][s])
        trace.append((t, i, float(delta), z, price))

    on_sale = record if duals_trace else None
    return _offer_loop(setup, arrivals, rng_seed, offer, on_sale).result(duals_trace=trace)


def run_ranking(setup, arrivals, rng_seed, check_assignments=False):
    """Ranking policy: items are split into single units, each unit gets a
    fixed uniform seed W, and every customer is assigned the available unit
    maximizing her willingness price minus the unit's value Phi(W)."""
    validate(setup, arrivals, "ranking", "deterministic")
    as_int(rng_seed, 0, "rng_seed")
    vfs = [build_value_function(it.priceset) for it in setup.items]
    unit_item = [i for i, item in enumerate(setup.items) for _ in range(item.k)]
    unit_w = item_uniforms(rng_seed, [item.k for item in setup.items])
    levels = [[vfs[i].phi(w), np.inf] for i, w in zip(unit_item, unit_w)]
    offer = _Offer(setup.price_table, operator.sub, levels, np.array(unit_item, dtype=int))

    def check(t, u, z, price):
        vf = vfs[unit_item[u]]
        lhs = (1.0 - math.exp(-vf.alphas[0])) * (vf.phi_prime(unit_w[u]) + z)
        if lhs > price + 1e-9:
            raise MultipriceError("assignment bound violated at arrival %d" % t)

    on_sale = check if check_assignments else None
    return _deterministic_loop(setup, arrivals, offer, Ledger(setup), on_sale).result()


def _run_static_weight(setup, arrivals, rng_seed, discount, high_only=False):
    """Shared runner for policies whose offer value is the price times a
    discount that depends only on the item's sold fraction."""
    validate(setup, arrivals, "static-weight policy",
             "deterministic", "single_offer", "assortment")
    as_int(rng_seed, 0, "rng_seed")
    tables = {k: [discount(s / k) for s in range(k)] + [0.0] for k in {it.k for it in setup.items}}
    bid = setup.price_table
    if high_only:  # each item's highest price alone
        bid = np.where(np.arange(bid.shape[1]) == setup.ms[:, None], bid, 0.0)
    offer = _Offer(bid, operator.mul, [tables[it.k] for it in setup.items])
    return _offer_loop(setup, arrivals, rng_seed, offer).result()


def run_myopic(setup, arrivals, rng_seed):
    """Maximize immediate expected revenue, ignoring inventory value."""
    return _run_static_weight(setup, arrivals, rng_seed, lambda w: 1.0)


def run_gnr(setup, arrivals, rng_seed):
    """Inventory balancing: weight each offer by price times psi(sold fraction)."""
    return _run_static_weight(setup, arrivals, rng_seed, psi)


def run_conservative(setup, arrivals, rng_seed):
    """Offer items only at their highest price, balanced by psi."""
    return _run_static_weight(setup, arrivals, rng_seed, psi, high_only=True)


def run_balance_fractional(setup, arrivals, rng_seed):
    """Balance in the fluid regime over single-offer arrivals: deterministic
    value functions, bids pay and consume fractionally, cut at capacity."""
    validate(setup, arrivals, "balance_fractional", "single_offer")
    as_int(rng_seed, 0, "rng_seed")
    vfs = [build_value_function(it.priceset) for it in setup.items]
    offer = _Offer(setup.price_table, operator.sub, state=np.array([vf.phi(0.0) for vf in vfs]))
    return _fractional_loop(setup, arrivals, offer, Ledger(setup), vfs)


def run_balance_assortment(setup, arrivals, rng_seed, perturbed=True):
    """Balance over assortment arrivals: offer the assortment maximizing
    expected pseudorevenue under the perturbed value functions."""
    validate(setup, arrivals, "balance_assortment", "assortment")
    as_int(rng_seed, 0, "rng_seed")
    offer, _ = _balance_offer(setup, rng_seed, perturbed)
    return _offer_loop(setup, arrivals, rng_seed, offer).result()


def count_types(model, types):
    """Customers per type of the model, as floats."""
    counts = np.bincount(np.asarray(types, dtype=np.intp), minlength=model.n_types)
    return counts.astype(float).tolist()


def _forecast_counts(mode, model, arrivals, t, expected_total):
    """Remaining customers per type under the given forecasting mode, the
    day's expected_total customers booked over the days before it as
    BOOKING_CURVE."""
    if mode == "clairvoyant":
        return count_types(model, arrivals.types[t:])
    if t == 0 or arrivals.days_out is None:
        remaining = max(expected_total - t, 0.0)
    else:
        frac = interpolate(arrivals.days_out[t], BOOKING_CURVE)
        if frac <= 1e-9:
            remaining = max(expected_total - t, 0.0)
        else:
            remaining = max(t / frac - t, 0.0)
    if mode == "learning" and t > 0:
        shares = [s / t for s in count_types(model, arrivals.types[:t])]
    else:
        shares = list(model.type_shares)
    return [remaining * s for s in shares]


class _BidPriceOffer(_Offer):
    """Fare minus the item's bid price, its dual in the choice LP over the
    forecast remaining demand and the remaining inventory, solved at t = 0
    and, unless the mode is one_shot, every resolve_every arrivals."""

    def __init__(self, setup, arrivals, ledger, mode, resolve_every, expected_total):
        if mode not in FORECAST_MODES:
            raise DomainError("unknown mode %r" % (mode,))
        if mode != "clairvoyant":
            as_real(expected_total, 0.0, "expected_total")
        super().__init__(setup.price_table, operator.sub, state=np.zeros(setup.n))
        self.mode, self.every = mode, as_int(resolve_every, 1, "resolve_every")
        self.context = (setup, arrivals, ledger, expected_total)
        self.pool = {}  # the choice LP's columns, kept across re-solves
        self.solves = 0

    def refresh(self, t):
        if t and (self.mode == "one_shot" or t % self.every):
            return
        from .lp import solve_choice_lp

        setup, arrivals, ledger, expected_total = self.context
        counts = _forecast_counts(self.mode, arrivals.model, arrivals, t, expected_total)
        sol = solve_choice_lp(setup, [max(c, 0.0) for c in counts], arrivals.model,
                              arrivals.products, capacities=ledger.remaining(), pool=self.pool)
        self.state[:] = sol.duals_items
        self._values = None
        self.solves += 1


def run_bidprice(setup, arrivals, rng_seed, mode="resolving", resolve_every=100,
                 expected_total=None):
    """Forecasting bid-price policy over assortment arrivals.

    Solves the choice LP with forecasted remaining type counts and offers
    each customer the assortment maximizing expected fare minus bid price.
    Modes differ only in the forecast: one_shot (solve once), resolving
    (booking-curve forecast, aggregate type shares), learning (empirical
    type shares), clairvoyant (true remaining counts).  Every mode but
    clairvoyant needs the day's expected number of customers,
    expected_total.
    """
    validate(setup, arrivals, "bidprice", "assortment")
    as_int(rng_seed, 0, "rng_seed")
    ledger = Ledger(setup)
    offer = _BidPriceOffer(setup, arrivals, ledger, mode, resolve_every, expected_total)
    _assortment_loop(setup, arrivals, rng_seed, offer, ledger)
    return ledger.result(meta={"lp_solves": offer.solves})


def run_hybrid(setup, arrivals, rng_seed, gamma=1.5, resolve_every=100, expected_total=None):
    """Follow the resolving forecast's assortment unless its pseudorevenue
    (under the deterministic value functions) falls below 1/gamma of the
    best achievable, in which case offer the pseudorevenue maximizer."""
    validate(setup, arrivals, "hybrid", "assortment")
    as_int(rng_seed, 0, "rng_seed")
    as_real(gamma, 1.0, "gamma", strict=True)
    ledger = Ledger(setup)
    forecast_offer = _BidPriceOffer(setup, arrivals, ledger, "resolving", resolve_every,
                                    expected_total)
    balance_offer, _ = _balance_offer(setup, rng_seed, perturbed=False)
    model, products = arrivals.model, arrivals.products
    overrides = 0

    def choose(t, a):
        nonlocal overrides
        forecast_offer.refresh(t)
        pi_bal = balance_offer.values(products, ledger)
        s_fcst, _ = forecast_offer.best(model, a, forecast_offer.values(products, ledger))
        s_bal, v_max = balance_offer.best(model, a, pi_bal)
        p_fcst = forecast_offer.probs(model, a, s_fcst)
        if expected_value(p_fcst, pi_bal) + POSITIVITY_EPS >= v_max / gamma:
            return p_fcst, pi_bal
        overrides += 1
        return balance_offer.probs(model, a, s_bal), pi_bal

    _assortment_loop(setup, arrivals, rng_seed, balance_offer, ledger, choose)
    T = arrivals.T
    return ledger.result(meta={"override_fraction": overrides / T if T else 0.0})


# the policy registry: every policy the CLI runs by name, each called as
# run(setup, arrivals, rng_seed)
POLICIES = {
    "balance": run_balance,
    "ranking": run_ranking,
    "myopic": run_myopic,
    "conservative": run_conservative,
    "gnr": run_gnr,
    "balance_fractional": run_balance_fractional,
    "balance_assortment": run_balance_assortment,
}


def hotel_policies(expected_total, gamma):
    """The hotel simulation's suite as (name, policy) pairs: myopic, gnr,
    balance over assortments, a bid-price policy per forecasting mode and the
    hybrid.  Its runners are looked up when this is called, not at import,
    so a wrapper put on them in the meantime is the one the suite calls.
    A bad expected_total or gamma is refused here, before any run."""
    as_real(expected_total, 0.0, "expected_total")
    as_real(gamma, 1.0, "gamma", strict=True)
    return (
        ("myopic", POLICIES["myopic"]),
        ("gnr", POLICIES["gnr"]),
        ("balance", POLICIES["balance_assortment"]),
        *(("bidprice_" + mode,
           functools.partial(run_bidprice, mode=mode, expected_total=expected_total))
          for mode in FORECAST_MODES),
        ("hybrid_resolving",
         functools.partial(run_hybrid, gamma=gamma, expected_total=expected_total)),
    )
