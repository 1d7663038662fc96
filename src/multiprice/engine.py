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
makes this step, and one ledger books every sale.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .choice import assortment_value, optimize_assortment, sample_choice
from .errors import DomainError, MultipriceError, ValidationError
from .perturb import build_perturbed
from .valuefn import PriceSet, build_value_function

# minimum pseudorevenue for an offer to be made
POSITIVITY_EPS = 1e-12

PSI_DENOM = math.e - 1.0

FORECAST_MODES = ("one_shot", "resolving", "learning", "clairvoyant")

# cumulative fraction of eventual arrivals booked, by decreasing days before
# the occupancy date: none at 35 days out, half at 25, all on the day
BOOKING_CURVE = ((35.0, 0.0), (25.0, 0.5), (0.0, 1.0))


def psi(w):
    """Inventory-balancing discount (e - e^w)/(e - 1)."""
    return (math.e - math.exp(w)) / PSI_DENOM


@dataclass(frozen=True)
class Item:
    k: int
    priceset: PriceSet

    def __post_init__(self):
        if type(self.k) is not int:  # numpy integers are taken as ints
            if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
                raise ValidationError("inventory must be an integer, got %r" % (self.k,))
            object.__setattr__(self, "k", int(self.k))
        if self.k < 1:
            raise ValidationError("inventory must be >= 1")


@dataclass(frozen=True)
class Setup:
    items: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if len(self.items) < 1:
            raise ValidationError("need at least one item")

    @property
    def n(self):
        return len(self.items)


@dataclass(frozen=True)
class ArrivalSequence:
    """A stream of T customers.

    kind "deterministic": willing[t, i] = highest acceptable price index
    (0 = not interested).  kind "single_offer"/"fractional": probs[t] is a
    per-item tuple of per-price probabilities.  kind "assortment": types[t]
    indexes into model; products maps model product indices to (item,
    price index) pairs.
    """

    kind: str
    willing: object = None  # T x n integer array
    probs: tuple = None
    types: tuple = None
    model: object = None
    products: tuple = None
    days_out: tuple = None  # optional, days before the occupancy date

    def __post_init__(self):
        if self.kind not in ("deterministic", "single_offer", "fractional", "assortment"):
            raise ValidationError("unknown arrival kind %r" % (self.kind,))

    @property
    def T(self):
        if self.kind == "deterministic":
            return len(self.willing)
        if self.kind == "assortment":
            return len(self.types)
        return len(self.probs)


@dataclass
class RunResult:
    revenue: float
    sales_log: list  # (t, item, price index, price, pseudorevenue)
    final_inventory: list
    duals_trace: list = None
    meta: dict = field(default_factory=dict)


def validate(setup, arrivals, policy, *kinds):
    """Raise DomainError unless the arrivals are of one of the kinds that
    `policy` takes and fit the setup.  Every runner and the hindsight LP
    call this first, so malformed input never ends in an index error deep
    inside a policy."""
    if arrivals.kind not in kinds:
        raise DomainError("%s takes %s arrivals, not %s"
                          % (policy, " or ".join(kinds), arrivals.kind))
    n = setup.n
    ms = [it.priceset.m for it in setup.items]
    if arrivals.kind == "deterministic":
        willing = np.asarray(arrivals.willing)
        if willing.ndim != 2 or willing.shape[1] != n or willing.dtype.kind not in "iu":
            raise DomainError("willing must be a T x %d integer array" % n)
        if np.any(willing < 0) or np.any(willing > np.array(ms)):
            raise DomainError("willing index outside an item's price range")
    elif arrivals.kind == "assortment":
        for i, j in arrivals.products:
            if not (0 <= i < n and 1 <= j <= ms[i]):
                raise DomainError("product %r names an unknown item or price" % ((i, j),))
        if any(not 0 <= a < arrivals.model.n_types for a in arrivals.types):
            raise DomainError("customer type outside the model's types")
    else:
        for row in arrivals.probs:
            if len(row) != n or any(len(r) != m for r, m in zip(row, ms)):
                raise DomainError("probs row needs one probability per price of each item")
            if not all(0.0 <= p <= 1.0 for r in row for p in r):
                raise DomainError("probability outside [0, 1]")


def _stream(rng_seed, i):
    """Child i of the run's seed, numbered as by SeedSequence.spawn: item
    i's stream, or for i = n the customers' choice stream."""
    return np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(i,)))


class Ledger:
    """Sale bookkeeping shared by every policy: units sold per item, revenue
    and the sales log.  Selling a unit of an item that has none left is a
    fault of the policy and raises MultipriceError."""

    def __init__(self, setup):
        self.items = setup.items
        self.ks = [it.k for it in setup.items]
        self.sold = [0] * setup.n
        self.revenue = 0.0
        self.log = []  # (t, item, price index, amount, offer value)

    def is_open(self, i):
        return self.sold[i] < self.ks[i]

    def book(self, t, i, j, amount, z):
        self.revenue += amount
        self.log.append((t, i, j, amount, z))

    def sell(self, t, i, j, z):
        """Book one unit of item i at price index j; returns the price."""
        if not self.is_open(i):
            raise MultipriceError("item %d would sell more than its %d units"
                                  % (i, self.ks[i]))
        self.sold[i] += 1
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
    levels[c][s]; its last level, sold out, makes no offer on it worth it."""

    def __init__(self, bid, combine, levels=None, col_item=None, state=None):
        self.bid = bid
        self.rows = bid.tolist()  # the same values, cheaper to read one by one
        self.combine = combine
        self.levels = levels
        self.col_item = np.arange(len(bid)) if col_item is None else col_item
        self.state = np.array([lv[0] for lv in levels]) if state is None else state
        self.count = [0] * len(self.state)

    def value(self, i, j):
        return self.combine(self.rows[i][j], self.state[i])

    def values(self, products, ledger):
        """Offer value of each product, 0 once its item is sold out."""
        rows, state, combine = self.rows, self.state.tolist(), self.combine
        sold, ks = ledger.sold, ledger.ks
        return [combine(rows[i][j], state[i]) if sold[i] < ks[i] else 0.0
                for i, j in products]

    def advance(self, c):
        if self.levels is not None:
            self.count[c] += 1
            self.state[c] = self.levels[c][self.count[c]]

    def refresh(self, t):
        """Runs before arrival t; only bid prices change here."""


def _price_bids(setup, high_only=False):
    """Bid table of the prices, column 0 (no interest) and padding 0;
    high_only keeps only each item's top price."""
    bid = np.zeros((setup.n, max(it.priceset.m for it in setup.items) + 1))
    for i, item in enumerate(setup.items):
        prices = item.priceset.prices
        lo = len(prices) if high_only else 1
        bid[i, lo : len(prices) + 1] = prices[lo - 1 :]
    return bid


def _balance_offer(setup, rng_seed, perturbed):
    """Balance values: the (perturbed) value function at the (rounded) price
    border minus at the sold level.  Also returns each item's value grid
    over sold counts 0..k."""
    bid = _price_bids(setup)
    grids = []
    for i, item in enumerate(setup.items):
        vf = build_value_function(item.priceset)
        if perturbed:
            pvf = build_perturbed(vf, item.k, _stream(rng_seed, i).random())
            bid[i, 1 : vf.m + 1] = [pvf.border_value(j) for j in range(1, vf.m + 1)]
            grids.append(pvf.grid_values)
        else:
            grids.append([vf.phi(s / item.k) for s in range(item.k + 1)])
    levels = [list(g[:-1]) + [np.inf] for g in grids]
    return _Offer(bid, operator.sub, levels), grids


def _deterministic_loop(setup, arrivals, offer, ledger, on_sale=None):
    """One argmax per arrival: the customer buys from the first column of
    largest offer value at their willingness price, since the offer value
    rises with the price; bid 0 of an uninterested customer never wins."""
    willing = np.asarray(arrivals.willing)
    cols = offer.col_item
    bid_per_t = offer.bid[cols[None, :], willing[:, cols]]
    combine, state = offer.combine, offer.state
    for t in range(len(willing)):
        v = combine(bid_per_t[t], state)
        c = int(np.argmax(v))
        z = v[c]
        if z <= POSITIVITY_EPS:
            continue
        i = int(cols[c])
        j = int(willing[t, i])
        price = ledger.sell(t, i, j, float(z))
        if on_sale is not None:
            on_sale(t, c, float(z), price)
        offer.advance(c)
    return ledger


def _best_offer(row, value, items):
    """(p * value, item, price index) of the first strict maximum over the
    items in order, each item's prices from high to low; item -1 when no
    offer is worth making."""
    best = (POSITIVITY_EPS, -1, -1)
    for i in items:
        for j in range(len(row[i]), 0, -1):
            p = row[i][j - 1]
            if p > 0.0:
                z = p * value(i, j)
                if z > best[0]:
                    best = (z, i, j)
    return best


def _single_offer_loop(setup, arrivals, rng_seed, offer, ledger, on_sale=None):
    """Each customer is offered the best (item, price) and buys it with its
    probability, drawn from the choice stream."""
    rng = _stream(rng_seed, setup.n)
    for t, row in enumerate(arrivals.probs):
        z, i, j = _best_offer(row, offer.value, [i for i in range(setup.n) if ledger.is_open(i)])
        if i >= 0 and rng.random() < row[i][j - 1]:
            price = ledger.sell(t, i, j, float(z))
            if on_sale is not None:
                on_sale(t, i, float(z), price)
            offer.advance(i)
    return ledger


def _fractional_loop(setup, arrivals, offer, ledger, vfs):
    """Fluid balance: the best offer's probability mass is bought outright,
    truncated to what the item has left; the item's offer state is its
    value function at the new fraction sold."""
    ks = ledger.ks
    w = np.zeros(setup.n)
    truncations = 0
    for t, row in enumerate(arrivals.probs):
        z, i, j = _best_offer(row, offer.value, [i for i in range(setup.n) if w[i] < 1.0 - 1e-15])
        if i < 0:
            continue
        p = row[i][j - 1]
        accept = min(p, (1.0 - w[i]) * ks[i])
        if accept < p:
            truncations += 1
        w[i] = min(1.0, w[i] + accept / ks[i])
        offer.state[i] = vfs[i].phi(w[i])
        ledger.book(t, i, j, accept * setup.items[i].priceset.price(j), float(z))
    return ledger.result(final_inventory=[k * (1.0 - wi) for k, wi in zip(ks, w)],
                         meta={"truncations": truncations})


def _assortment_loop(setup, arrivals, rng_seed, offer, ledger, choose=None):
    """Offer each customer the assortment of largest expected offer value,
    or what choose(t, a) returns as (assortment, offer value per product);
    the customer picks by the MNL model from the choice stream."""
    rng = _stream(rng_seed, setup.n)
    model, products = arrivals.model, arrivals.products
    for t, a in enumerate(arrivals.types):
        offer.refresh(t)
        if choose is None:
            pi = offer.values(products, ledger)
            s = optimize_assortment(model, a, pi)[0]
        else:
            s, pi = choose(t, a)
        if not s:
            continue
        chosen = sample_choice(model, a, s, rng)
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
    vfs = [build_value_function(it.priceset) for it in setup.items]
    unit_item, unit_w = [], []
    for i, item in enumerate(setup.items):
        unit_item += [i] * item.k
        unit_w.extend(_stream(rng_seed, i).random(item.k))
    levels = [[vfs[i].phi(w), np.inf] for i, w in zip(unit_item, unit_w)]
    offer = _Offer(_price_bids(setup), operator.sub, levels, np.array(unit_item, dtype=int))

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
    levels = [[discount(s / it.k) for s in range(it.k)] + [0.0] for it in setup.items]
    offer = _Offer(_price_bids(setup, high_only), operator.mul, levels)
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
    """Balance in the fluid regime: deterministic value functions, bids pay
    and consume fractionally, bids overshooting capacity are truncated."""
    validate(setup, arrivals, "balance_fractional", "fractional")
    vfs = [build_value_function(it.priceset) for it in setup.items]
    offer = _Offer(_price_bids(setup), operator.sub, state=np.array([vf.phi(0.0) for vf in vfs]))
    return _fractional_loop(setup, arrivals, offer, Ledger(setup), vfs)


def run_balance_assortment(setup, arrivals, rng_seed, perturbed=True):
    """Balance over assortment arrivals: offer the assortment maximizing
    expected pseudorevenue under the perturbed value functions."""
    validate(setup, arrivals, "balance_assortment", "assortment")
    offer, _ = _balance_offer(setup, rng_seed, perturbed)
    return _offer_loop(setup, arrivals, rng_seed, offer).result()


@dataclass(frozen=True)
class ForecastCurve:
    """Expected arrivals of a day, booked over the days before it as
    BOOKING_CURVE, linear between its knots."""

    expected_total: float

    def fraction(self, days_out):
        """Fraction of the arrivals booked by `days_out` days out."""
        pts = BOOKING_CURVE
        if days_out >= pts[0][0]:
            return pts[0][1]
        for (d_hi, f_hi), (d_lo, f_lo) in zip(pts, pts[1:]):
            if d_lo <= days_out <= d_hi:
                t = (d_hi - days_out) / (d_hi - d_lo)
                return f_hi + t * (f_lo - f_hi)
        return 1.0


def count_types(model, types):
    """Customers per type of the model, as floats."""
    counts = [0.0] * model.n_types
    for a in types:
        counts[a] += 1.0
    return counts


def _forecast_counts(mode, model, arrivals, t, forecast):
    """Remaining customers per type under the given forecasting mode."""
    if mode == "clairvoyant":
        return count_types(model, arrivals.types[t:])
    if forecast is None:
        raise DomainError("forecasting mode %r needs a ForecastCurve" % (mode,))
    if t == 0 or arrivals.days_out is None:
        remaining = max(forecast.expected_total - t, 0.0)
    else:
        frac = forecast.fraction(arrivals.days_out[t])
        if frac <= 1e-9:
            remaining = max(forecast.expected_total - t, 0.0)
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

    def __init__(self, setup, arrivals, ledger, mode, resolve_every, forecast):
        if mode not in FORECAST_MODES:
            raise DomainError("unknown mode %r" % (mode,))
        super().__init__(_price_bids(setup), operator.sub, state=np.zeros(setup.n))
        self.mode, self.every = mode, resolve_every
        self.context = (setup, arrivals, ledger, forecast)
        self.pool = {}  # the choice LP's columns, kept across re-solves
        self.solves = 0

    def refresh(self, t):
        if t and (self.mode == "one_shot" or t % self.every):
            return
        from .lp import solve_choice_lp

        setup, arrivals, ledger, forecast = self.context
        counts = _forecast_counts(self.mode, arrivals.model, arrivals, t, forecast)
        sol = solve_choice_lp(setup, [max(c, 0.0) for c in counts], arrivals.model,
                              arrivals.products, capacities=ledger.remaining(), pool=self.pool)
        self.state[:] = sol.duals_items
        self.solves += 1


def run_bidprice(setup, arrivals, mode="resolving", resolve_every=100,
                 forecast=None, rng_seed=0):
    """Forecasting bid-price policy over assortment arrivals.

    Solves the choice LP with forecasted remaining type counts and offers
    each customer the assortment maximizing expected fare minus bid price.
    Modes differ only in the forecast: one_shot (solve once), resolving
    (booking-curve forecast, aggregate type shares), learning (empirical
    type shares), clairvoyant (true remaining counts).
    """
    validate(setup, arrivals, "bidprice", "assortment")
    ledger = Ledger(setup)
    offer = _BidPriceOffer(setup, arrivals, ledger, mode, resolve_every, forecast)
    _assortment_loop(setup, arrivals, rng_seed, offer, ledger)
    return ledger.result(meta={"lp_solves": offer.solves})


def run_hybrid(setup, arrivals, base="resolving", gamma=1.5, resolve_every=100,
               forecast=None, rng_seed=0):
    """Follow the forecast assortment unless its pseudorevenue (under the
    deterministic value functions) falls below 1/gamma of the best
    achievable, in which case offer the pseudorevenue maximizer instead."""
    validate(setup, arrivals, "hybrid", "assortment")
    if not 1.0 < gamma < math.inf:
        raise DomainError("gamma must exceed 1 and be finite")
    ledger = Ledger(setup)
    forecast_offer = _BidPriceOffer(setup, arrivals, ledger, base, resolve_every, forecast)
    balance_offer, _ = _balance_offer(setup, rng_seed, perturbed=False)
    model, products = arrivals.model, arrivals.products
    overrides = 0

    def choose(t, a):
        nonlocal overrides
        forecast_offer.refresh(t)
        pi_bal = balance_offer.values(products, ledger)
        s_fcst, _ = optimize_assortment(model, a, forecast_offer.values(products, ledger))
        s_bal, v_max = optimize_assortment(model, a, pi_bal)
        v_fcst = assortment_value(model, a, s_fcst, pi_bal)
        if v_fcst + POSITIVITY_EPS >= v_max / gamma:
            return s_fcst, pi_bal
        overrides += 1
        return s_bal, pi_bal

    _assortment_loop(setup, arrivals, rng_seed, balance_offer, ledger, choose)
    T = arrivals.T
    return ledger.result(meta={"override_fraction": overrides / T if T else 0.0})


@dataclass(frozen=True)
class PolicySpec:
    """A policy of the harness and the CLI: engine.run_<runner> called with
    fixed keyword arguments.  It holds the runner's name, not the function,
    so it is hashable and pickles, and a suite can go to worker processes."""

    runner: str
    kwargs: tuple = ()  # sorted (name, value) pairs

    @classmethod
    def of(cls, runner, **kwargs):
        return cls(runner, tuple(sorted(kwargs.items())))

    def __call__(self, setup, arrivals, rng_seed):
        run = globals()["run_" + self.runner]
        return run(setup, arrivals, rng_seed=rng_seed, **dict(self.kwargs))


# the policy registry: every policy the CLI runs by name
POLICIES = {
    name: PolicySpec(name)
    for name in ("balance", "ranking", "myopic", "conservative", "gnr", "balance_assortment")
}


def hotel_policies(forecast, gamma):
    """The hotel simulation's suite as (name, PolicySpec) pairs: myopic, gnr,
    balance over assortments, a bid-price policy per forecasting mode and the
    hybrid over the resolving forecast."""
    return (
        ("myopic", POLICIES["myopic"]),
        ("gnr", POLICIES["gnr"]),
        ("balance", POLICIES["balance_assortment"]),
        *(("bidprice_" + mode, PolicySpec.of("bidprice", mode=mode, forecast=forecast))
          for mode in FORECAST_MODES),
        ("hybrid_resolving",
         PolicySpec.of("hybrid", base="resolving", gamma=gamma, forecast=forecast)),
    )
