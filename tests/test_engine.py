"""Online policies: correctness on tiny instances, determinism, inventory
safety, the dual-trail certificate, and the forecasting/hybrid variants."""

import math
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiprice import (
    ArrivalSequence,
    DomainError,
    MultipriceError,
    Item,
    MnlModel,
    PriceSet,
    Setup,
    ValidationError,
    build_value_function,
    certified_lower_bounds,
    run_balance,
    run_balance_assortment,
    run_balance_fractional,
    run_bidprice,
    run_conservative,
    run_gnr,
    run_hybrid,
    run_myopic,
    run_ranking,
    solve_primal,
)
from multiprice import choice, cli, engine, perturb
from multiprice.engine import (BOOKING_CURVE, POLICIES, Ledger, hotel_policies, interpolate, psi,
                               validate)

from test_golden import canon, digest_result
from test_lp import random_instance, small_choice_setting
from test_perturb import END_FRACS, PRICE_LISTS, nudged_ends

ALL_DETERMINISTIC = (run_balance, run_ranking, run_myopic, run_gnr, run_conservative)


def det(willing):
    return ArrivalSequence(kind="deterministic", willing=np.array(willing))


def assortment_arrivals(model, products, types, days_out=None):
    return ArrivalSequence(
        kind="assortment",
        types=tuple(types),
        model=model,
        products=products,
        days_out=days_out,
    )


class TestBasics:
    def test_psi(self):
        assert psi(0.0) == pytest.approx(1.0, abs=1e-12)
        assert psi(1.0) == pytest.approx(0.0, abs=1e-12)
        assert psi(0.5) == pytest.approx(
            (math.e - math.sqrt(math.e)) / (math.e - 1.0), abs=1e-12
        )

    def test_item_validation(self):
        with pytest.raises(ValidationError):
            Item(k=0, priceset=PriceSet([1.0]))
        with pytest.raises(ValidationError):
            Setup(items=())
        with pytest.raises(ValidationError):
            ArrivalSequence(kind="bogus")

    @pytest.mark.parametrize("priceset", [[1.0, 2.0], (1.0,), None, build_value_function([1.0])])
    def test_item_needs_a_priceset(self, priceset):
        with pytest.raises(ValidationError, match="^priceset must be a PriceSet"):
            Item(k=1, priceset=priceset)

    @pytest.mark.parametrize("items", [5, None, [5], (Item(k=1, priceset=PriceSet([1.0])), "x"),
                                       [PriceSet([1.0])]])
    def test_setup_needs_items(self, items):
        with pytest.raises(ValidationError, match="^every item must be an Item"):
            Setup(items=items)

    @pytest.mark.parametrize("k", [1.5, 2.0, True, np.bool_(True), "2", None])
    def test_item_rejects_non_integral_inventory(self, k):
        with pytest.raises(ValidationError):
            Item(k=k, priceset=PriceSet([1.0]))

    def test_item_takes_numpy_integers(self):
        item = Item(k=np.int64(2), priceset=PriceSet([1.0, 3.0]))
        assert type(item.k) is int and item == Item(k=2, priceset=PriceSet([1.0, 3.0]))
        setup = Setup(items=(item,))
        for fn in (run_myopic, run_balance, run_ranking):
            assert fn(setup, det([[2], [1], [2]]), 5).revenue > 0.0

    def test_dimension_mismatch(self):
        setup = Setup(items=(Item(k=1, priceset=PriceSet([1.0])),))
        with pytest.raises(DomainError):
            run_balance(setup, det([[1, 1]]), 0)

    def test_kind_guards(self):
        setup = Setup(items=(Item(k=1, priceset=PriceSet([1.0])),))
        with pytest.raises(ValidationError):  # fluid balance is a policy, not an arrival kind
            ArrivalSequence(kind="fractional", probs=(((0.5,),),))
        offers = ArrivalSequence(kind="single_offer", probs=(((0.5,),),))
        with pytest.raises(DomainError):
            run_ranking(setup, offers, 0)
        with pytest.raises(DomainError):
            run_balance_fractional(setup, det([[1]]), 0)
        with pytest.raises(DomainError):
            run_bidprice(setup, det([[1]]), 0)
        with pytest.raises(DomainError):
            run_hybrid(setup, det([[1]]), 0)


class TestValidate:
    setup = Setup(items=(Item(k=1, priceset=PriceSet([1.0, 3.0])),
                         Item(k=2, priceset=PriceSet([2.0]))))

    @pytest.mark.parametrize("willing", [
        [1, 1],                       # 1-D
        [[1, 1, 1]],                  # three items, not two
        np.array([[1.0, 1.0]]),       # not integers
        [[3, 1]],                     # price index above item 0's m = 2
        [[1, 2]],                     # price index above item 1's m = 1
        [[-1, 0]],                    # negative index
    ])
    def test_bad_willing(self, willing):
        arrivals = ArrivalSequence(kind="deterministic", willing=np.asarray(willing))
        with pytest.raises(DomainError):
            validate(self.setup, arrivals, "myopic", "deterministic")
        with pytest.raises(DomainError):
            run_myopic(self.setup, arrivals, 0)

    # single-offer arrivals, run by a stochastic policy or by fluid balance
    @pytest.mark.parametrize("regime", ["single_offer", "fractional"])
    @pytest.mark.parametrize("row", [
        ((0.5, 0.5),),                # one item's entry missing
        ((0.5,), (0.5,)),             # item 0 needs two prices
        ((0.5, 0.5), (0.5, 0.5)),     # item 1 has one price
        ((0.5, 1.5), (0.5,)),         # probability above 1
        ((0.5, -0.1), (0.5,)),        # probability below 0
        ((0.5, "0.5"), (0.5,)),       # not a number
        None,                         # no probs at all
        0.5,                          # a row that is not a sequence
        ((0.5, 0.5), 0.5),            # an item's entry that is not a sequence
    ])
    def test_bad_probs(self, regime, row):
        arrivals = ArrivalSequence(kind="single_offer", probs=None if row is None else (row,))
        with pytest.raises(DomainError):
            validate(self.setup, arrivals, "test", "single_offer")
        with pytest.raises(DomainError):
            (run_balance_fractional if regime == "fractional" else run_balance)(
                self.setup, arrivals, 0)

    def test_wrong_kind_names_policy_and_kinds(self):
        arrivals = ArrivalSequence(kind="single_offer", probs=(((0.0, 1.0), (0.3,)),))
        with pytest.raises(DomainError, match="^ranking takes deterministic arrivals, "
                                              "not single_offer$"):
            validate(self.setup, arrivals, "ranking", "deterministic")
        with pytest.raises(DomainError, match="^ranking takes deterministic arrivals"):
            run_ranking(self.setup, arrivals, 0)

    def test_good_arrivals_pass(self):
        validate(self.setup, det([[2, 1], [0, 0]]), "myopic", "deterministic")
        validate(self.setup, ArrivalSequence(kind="single_offer", probs=(((0.0, 1.0), (0.3,)),)),
                 "myopic", "single_offer")

    def test_bad_assortment(self):
        setup, products, model = small_choice_setting()
        validate(setup, assortment_arrivals(model, products, [0, 1]), "test", "assortment")
        with pytest.raises(DomainError):
            validate(setup, assortment_arrivals(model, products, [0, 2]), "test", "assortment")
        for bad in (((0, 1), (2, 1)), ((0, 1), (0, 3)), ((0, 0), (1, 1))):
            with pytest.raises(DomainError):
                validate(setup, assortment_arrivals(model, bad, [0]), "test", "assortment")
        with pytest.raises(DomainError):
            run_balance_assortment(setup, assortment_arrivals(model, products, [5]), 0)

    @pytest.mark.parametrize("types, products, days_out", [
        ((1.5, 0), None, None),            # a type that is not an integer
        ((0, "1"), None, None),
        ((0, 1), ((0, 1), (0, 1.5)), None),  # a price index that is not an integer
        ((0, 1), ((0.0, 1), (1, 1)), None),  # an item index that is not an integer
        ((0, 1, 1), None, (3.0, 2.0)),       # fewer lead times than customers
        ((0, 1), None, (3.0, 2.0, 1.0)),     # more lead times than customers
        ((0, 1), None, (3.0, math.nan)),
        ((0, 1), None, (math.inf, 1.0)),
        ((0, 1), None, (3.0, "2")),
        ((0, 1), ((0, 1), (0, 1, 2)), None),  # a product that is not a pair
        ((0, 1), ((0, 1), 5), None),
        ((0, 1), "products", None),          # no products
        ((0, 1), "model", None),             # no model
        (((0,), (0, 1)), None, None),        # ragged types
        ((0, 1), None, ((1.0,), (1.0, 2.0))),  # ragged lead times
    ])
    def test_bad_assortment_entries(self, types, products, days_out):
        setup, good_products, model = small_choice_setting()
        left_out = products if products in ("products", "model") else None
        arrivals = assortment_arrivals(model, products if products and not left_out
                                       else good_products, types, days_out)
        if left_out:
            setattr(arrivals, left_out, None)
        with pytest.raises(DomainError):
            validate(setup, arrivals, "test", "assortment")
        with pytest.raises(DomainError):
            run_myopic(setup, arrivals, 0)
        with pytest.raises(DomainError):
            run_bidprice(setup, arrivals, 0, resolve_every=1, expected_total=3.0)

    def test_assortment_types_of_numpy_integers_pass(self):
        setup, products, model = small_choice_setting()
        for types in ((), np.array([0, 1], dtype=np.uint8), (np.int64(1), 0)):
            validate(setup, assortment_arrivals(model, products, types, [1.0] * len(types)),
                     "test", "assortment")


def seed_cases():
    """Every runner with arrivals of a kind it takes: (runner, setup, arrivals, options)."""
    one = Setup(items=(Item(k=2, priceset=PriceSet([1.0, 3.0])),))
    setup, products, model = small_choice_setting()
    shop = assortment_arrivals(model, products, [0, 1, 1, 0])
    fluid = ArrivalSequence(kind="single_offer", probs=(((0.2, 0.7),),))
    return {
        **{fn.__name__: (fn, one, det([[2], [1]]), {}) for fn in ALL_DETERMINISTIC},
        "run_balance_fractional": (run_balance_fractional, one, fluid, {}),
        "run_balance_assortment": (run_balance_assortment, setup, shop, {}),
        "run_bidprice": (run_bidprice, setup, shop, {"mode": "clairvoyant"}),
        "run_hybrid": (run_hybrid, setup, shop, {"expected_total": 4.0}),
    }


class TestSeeds:
    @pytest.mark.parametrize("seed", [None, -1, 1.5, "7", True])
    @pytest.mark.parametrize("runner", sorted(seed_cases()))
    def test_bad_seed_refused(self, runner, seed):
        fn, setup, arrivals, options = seed_cases()[runner]
        with pytest.raises(DomainError, match="rng_seed"):
            fn(setup, arrivals, seed, **options)

    @pytest.mark.parametrize("runner", sorted(seed_cases()))
    def test_integer_seeds_taken(self, runner):
        fn, setup, arrivals, options = seed_cases()[runner]
        runs = [fn(setup, arrivals, seed, **options) for seed in (3, np.int64(3), np.uint64(3))]
        assert runs[0] == runs[1] == runs[2]
        fn(setup, arrivals, 2**70, **options)


class TestRoundingMemo:
    def test_one_build_per_distinct_rounding(self, monkeypatch):
        # 100 identical items round their m = 3 borders comonotonically, so a
        # run sees at most m + 1 distinct roundings; every item's grid and
        # bids are still those of its own build
        m, k = 3, 7
        setup = Setup(items=(Item(k=k, priceset=PriceSet([1.0, 2.0, 4.0])),) * 100)
        vf = build_value_function(setup.items[0].priceset)
        builds = []

        def counted(*args):
            builds.append(args)
            return perturb.build_perturbed(*args)

        monkeypatch.setattr(engine, "build_perturbed", counted)
        for seed in range(5):
            builds.clear()
            offer, grids = engine._balance_offer(setup, seed, perturbed=True)
            assert 1 <= len(builds) <= m + 1
            assert len({id(g) for g in grids}) == len(builds)
            for i in range(setup.n):
                own = perturb.build_perturbed(vf, k, engine._stream(seed, i).random())
                assert [x.hex() for x in grids[i]] == [x.hex() for x in own.grid_values]
                assert [offer.rows[i][j].hex() for j in range(1, m + 1)] == \
                    [own.border_value(j).hex() for j in range(1, m + 1)]


@st.composite
def mixed_setups(draw):
    """(Setup, {prices: value function}): 2-3 price sets, each with
    several ks, over 1-40 items drawn interleaved; a price set's value
    function may have its border 0 or m nudged off the grid, so that
    roundings differ there alone (where round_borders pins them)."""
    price_sets = draw(st.lists(PRICE_LISTS.map(lambda ps: tuple(float(r) for r in ps)),
                               min_size=2, max_size=3, unique=True))
    ks = draw(st.lists(st.integers(1, 12), min_size=2, max_size=4, unique=True))
    vfs = {ps: nudged_ends(build_value_function(ps), max(ks), *draw(st.tuples(END_FRACS,
                                                                              END_FRACS)))
           for ps in price_sets}
    kinds = draw(st.lists(st.tuples(st.sampled_from(price_sets), st.sampled_from(ks)),
                          min_size=1, max_size=40))
    items = tuple(Item(k=k, priceset=PriceSet(ps)) for ps, k in kinds)
    return Setup(items=items), vfs


class TestBalanceOfferProperty:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=mixed_setups(), seed=st.integers(0, 2**32 - 1))
    def test_equals_per_item_builds(self, case, seed):
        # every item's bid row and grid equal, by float.hex, those of its own
        # build_perturbed on child i's uniform; one build per distinct
        # rounding of each (prices, k), as round_borders tells them apart
        setup, vfs = case
        builds = []

        def counted(vf, k, w):
            builds.append((vf.priceset.prices, k, tuple(perturb.round_borders(vf, k, w))))
            return perturb.build_perturbed(vf, k, w)

        with mock.patch.object(engine, "build_value_function", vfs.__getitem__), \
                mock.patch.object(engine, "build_perturbed", counted):
            offer, grids = engine._balance_offer(setup, seed, perturbed=True)
        assert len(builds) == len(set(builds))
        expected = set()
        for i, item in enumerate(setup.items):
            vf, k, m = vfs[item.priceset.prices], item.k, item.priceset.m
            w = engine._stream(seed, i).random()
            expected.add((item.priceset.prices, k, tuple(perturb.round_borders(vf, k, w))))
            own = perturb.build_perturbed(vf, k, w)
            assert [x.hex() for x in grids[i]] == [x.hex() for x in own.grid_values]
            assert [x.hex() for x in offer.rows[i][1 : m + 1]] == \
                [own.border_value(j).hex() for j in range(1, m + 1)]
            assert all(x == 0.0 for x in offer.rows[i][m + 1 :])
            assert offer.levels[i] == list(own.grid_values[:-1]) + [np.inf]
        assert set(builds) == expected
        assert len({id(g) for g in grids}) == len(builds)


def row_by_row_loop(setup, arrivals, offer, ledger, on_sale=None):
    """The deterministic loop as it was before runs: one bid row gathered
    and one argmax made per customer.  The reference for the run-based
    loop, kept verbatim."""
    willing = np.asarray(arrivals.willing)
    cols = offer.col_item
    bid_per_t = offer.bid[cols[None, :], willing[:, cols]]
    combine, state = offer.combine, offer.state
    for t in range(len(willing)):
        v = combine(bid_per_t[t], state)
        c = int(v.argmax())
        z = v[c]
        if z <= engine.POSITIVITY_EPS:
            continue
        i = int(cols[c])
        j = int(willing[t, i])
        price = ledger.sell(t, i, j, float(z))
        if on_sale is not None:
            on_sale(t, c, float(z), price)
        offer.advance(c)
    return ledger


def exact(res):
    """A run's revenue, sales log, inventory and duals trace, floats as hex."""
    return canon((res.revenue, res.sales_log, res.final_inventory, res.duals_trace))


RUN_POLICIES = (
    (run_balance, {"duals_trace": True}),
    (run_ranking, {"check_assignments": True}),
    (run_myopic, {}),
    (run_gnr, {}),
    (run_conservative, {}),
)


@st.composite
def run_instances(draw):
    """A setup and runs of customers drawn from a pool of at most three
    rows: runs of one row repeated, rows alternating, all rows distinct,
    with k up to 3 so that items sell out within a run."""
    n = draw(st.integers(1, 4))
    pricesets = [PriceSet(p) for p in ([1.0], [1.0, 3.0], [2.0, 5.0], [1.0, 2.0, 4.0])]
    items = tuple(Item(k=draw(st.integers(1, 3)), priceset=draw(st.sampled_from(pricesets)))
                  for _ in range(n))
    pool = draw(st.lists(st.tuples(*(st.integers(0, it.priceset.m) for it in items)),
                         min_size=1, max_size=3))
    runs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 6)), max_size=8))
    return Setup(items=items), runs


class TestRuns:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=run_instances(), seed=st.integers(0, 2**32))
    @example(case=(Setup(items=(Item(k=2, priceset=PriceSet([1.0, 3.0])),)), []), seed=0)
    @example(case=(Setup(items=(Item(k=2, priceset=PriceSet([1.0, 3.0])),) * 2),
                   [((2, 1), 5), ((2, 1), 1), ((0, 2), 3), ((2, 1), 4)]), seed=7)
    def test_equals_row_by_row_loop(self, case, seed):
        # the run-based loop against the loop it replaced, bit for bit, on
        # the full matrix (runs found on first use) and on the runs as
        # drawn, which may put equal rows in neighbouring runs
        setup, runs = case
        rows = np.array([row for row, _ in runs], dtype=int).reshape(-1, setup.n)
        counts = np.array([count for _, count in runs], dtype=int)
        willing = np.repeat(rows, counts, axis=0)
        for fn, options in RUN_POLICIES:
            with mock.patch.object(engine, "_deterministic_loop", row_by_row_loop):
                want = exact(fn(setup, det(willing), seed, **options))
            for arrivals in (det(willing),
                             ArrivalSequence(kind="deterministic", runs=(rows, counts))):
                assert arrivals.T == len(willing)
                assert exact(fn(setup, arrivals, seed, **options)) == want

    def test_runs_found_once(self):
        willing = np.array([[1, 0]] * 3 + [[0, 2]] + [[1, 0]] * 2)
        arrivals = det(willing)
        rows, counts = arrivals.runs
        assert rows.tolist() == [[1, 0], [0, 2], [1, 0]]
        assert counts.tolist() == [3, 1, 2]
        assert arrivals.runs[0] is rows
        assert np.array_equal(ArrivalSequence(kind="deterministic", runs=(rows, counts)).willing,
                              willing)

    def test_caller_arrays_stay_writeable(self):
        # the sequence holds its runs alone, yet never marks the caller's
        # arrays read-only
        willing = np.array([[1, 0]] * 2 + [[0, 1]])
        rows, counts = np.array([[1, 0], [0, 1]]), np.array([2, 1])
        setup = Setup(items=(Item(k=1, priceset=PriceSet([1.0])),) * 2)
        for arrivals in (det(willing), ArrivalSequence(kind="deterministic", runs=(rows, counts))):
            assert exact(run_myopic(setup, arrivals, 0)) == exact(run_myopic(setup, det(willing), 0))
            assert arrivals.T == 3
            assert np.array_equal(arrivals.willing, willing)
        assert willing.flags.writeable and rows.flags.writeable and counts.flags.writeable

    @pytest.mark.parametrize("counts", [[1, 0], [1], [1.0, 2.0], [[1, 2]], [-1, 3]])
    def test_bad_counts(self, counts):
        arrivals = ArrivalSequence(kind="deterministic",
                                   runs=(np.array([[1, 0], [0, 1]]), np.array(counts)))
        setup = Setup(items=(Item(k=1, priceset=PriceSet([1.0])),) * 2)
        with pytest.raises(DomainError):
            run_myopic(setup, arrivals, 0)

    def test_runs_must_be_a_pair(self):
        with pytest.raises(ValidationError):
            ArrivalSequence(kind="deterministic", runs=(np.array([[1, 0]]),))


def scalar_best_offer(row, value):
    """(p * value, item, price index) of the first strict maximum over the
    items in order, each item's prices from high to low; item -1 when no
    offer is worth making.  The single-offer scan as it was before the
    probability table, kept verbatim as the reference for the scan over the
    table's rows."""
    best = (engine.POSITIVITY_EPS, -1, -1)
    for i, probs in enumerate(row):
        for j in range(len(probs), 0, -1):
            p = probs[j - 1]
            if p > 0.0:
                z = p * value(i, j)
                if z > best[0]:
                    best = (z, i, j)
    return best


def scalar_value(offer):
    return lambda i, j: offer.combine(offer.rows[i][j], offer.state[i])


def scalar_single_offer_loop(setup, arrivals, rng_seed, offer, ledger, on_sale=None):
    """The single-offer loop over the probability tuples, one scalar scan
    per customer, as it was before the probability table."""
    rng = engine._stream(rng_seed, setup.n)
    for t, row in enumerate(arrivals.probs):
        z, i, j = scalar_best_offer(row, scalar_value(offer))
        if i >= 0 and rng.random() < row[i][j - 1]:
            price = ledger.sell(t, i, j, float(z))
            if on_sale is not None:
                on_sale(t, i, float(z), price)
            offer.advance(i)
    return ledger


def scalar_fractional_loop(setup, arrivals, offer, ledger, vfs):
    """The fluid loop over the probability tuples, as it was before the
    probability table."""
    ks = ledger.ks
    w = np.zeros(setup.n)
    truncations = 0
    for t, row in enumerate(arrivals.probs):
        z, i, j = scalar_best_offer(row, scalar_value(offer))
        if i < 0:
            continue
        p = row[i][j - 1]
        accept = min(p, (1.0 - w[i]) * ks[i])
        if accept < p:
            truncations += 1
        w[i] = min(1.0, w[i] + accept / ks[i])
        offer.put(i, vfs[i].phi(w[i]))
        ledger.book(t, i, j, accept * setup.items[i].priceset.price(j), float(z))
    return ledger.result(final_inventory=[k * (1.0 - wi) for k, wi in zip(ks, w)],
                         meta={"truncations": truncations})


SINGLE_OFFER_POLICIES = (
    (run_balance, {"duals_trace": True}),
    (run_balance, {"perturbed": False, "duals_trace": True}),
    (run_myopic, {}),
    (run_gnr, {}),
    (run_conservative, {}),
    (run_balance_fractional, {}),
)


@st.composite
def single_offer_instances(draw):
    """A setup of items with 1-3 prices and 1-3 units, and up to 12
    customers whose probabilities are often 0 or equal, so that offers tie
    exactly, within an item and across items of one price set."""
    pricesets = [PriceSet(p) for p in ([2.0], [1.0, 2.0], [1.0, 2.0, 4.0], [2.0, 5.0])]
    items = tuple(Item(k=draw(st.integers(1, 3)), priceset=draw(st.sampled_from(pricesets)))
                  for _ in range(draw(st.integers(1, 4))))
    prob = st.one_of(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    row = st.tuples(*(st.tuples(*[prob] * it.priceset.m) for it in items))
    return Setup(items=items), tuple(draw(st.lists(row, max_size=12)))


class TestSingleOfferScan:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=single_offer_instances(), seed=st.integers(0, 2**32))
    @example(case=(Setup(items=(Item(k=1, priceset=PriceSet([1.0, 2.0])),)), ()), seed=0)
    @example(case=(Setup(items=(Item(k=1, priceset=PriceSet([1.0, 2.0])),) * 2),
                   (((0.5, 0.25), (0.5, 0.25)),) * 4), seed=3)
    def test_equals_scalar_scan(self, case, seed):
        # every single-offer runner against the loops over the tuples with
        # the scalar scan they replaced, bit for bit: ties go to the first
        # item and its highest price, T = 0 included
        setup, probs = case
        for fn, options in SINGLE_OFFER_POLICIES:
            with mock.patch.object(engine, "_single_offer_loop", scalar_single_offer_loop), \
                    mock.patch.object(engine, "_fractional_loop", scalar_fractional_loop):
                want = fn(setup, ArrivalSequence(kind="single_offer", probs=probs), seed, **options)
            got = fn(setup, ArrivalSequence(kind="single_offer", probs=probs), seed, **options)
            assert (exact(got), canon(got.meta)) == (exact(want), canon(want.meta))


class TestCheckedOnce:
    """A single-offer or assortment sequence is checked once, on first use."""

    @staticmethod
    def counted(prop, calls):
        func = prop.func
        return mock.patch.object(prop, "func", lambda self: calls.append(1) or func(self))

    def test_single_offer_table_built_once(self):
        setup = Setup(items=(Item(k=2, priceset=PriceSet([1.0, 3.0])),
                             Item(k=1, priceset=PriceSet([2.0]))))
        arrivals = ArrivalSequence(kind="single_offer",
                                   probs=(((0.5, 0.25), (1.0,)), ((0.0, 1.0), (0.5,))))
        builds = []
        with self.counted(ArrivalSequence._offered, builds):
            for seed in range(2):
                for fn in (run_balance, run_myopic, run_balance_fractional):
                    fn(setup, arrivals, seed)
            solve_primal(setup, arrivals)
        assert len(builds) == 1
        table = arrivals.prob_table
        assert table is arrivals.prob_table and not table.flags.writeable
        assert table.tolist() == [[[0.0, 0.5, 0.25], [0.0, 1.0, 0.0]],
                                  [[0.0, 0.0, 1.0], [0.0, 0.5, 0.0]]]
        assert arrivals.T == 2

    def test_assortment_types_checked_once(self):
        setup, products, model = small_choice_setting()
        arrivals = assortment_arrivals(model, products, [0, 1, 1, 0], days_out=[3, 2.5, 1, 0])
        checks = []
        with self.counted(ArrivalSequence._typed, checks):
            for seed in range(2):
                for fn in (run_myopic, run_balance_assortment):
                    fn(setup, arrivals, seed)
                run_bidprice(setup, arrivals, seed, resolve_every=2, expected_total=4.0)
                run_hybrid(setup, arrivals, seed, expected_total=4.0)
            assert arrivals.T == 4
        assert len(checks) == 1
        assert arrivals._typed.tolist() == [0, 1, 1, 0]


class TestPriceTableCache:
    def test_balance_leaves_the_cached_table_intact(self):
        items = (Item(k=2, priceset=PriceSet([1.0, 3.0])), Item(k=3, priceset=PriceSet([2.0])),
                 Item(k=1, priceset=PriceSet([1.0, 2.0, 4.0])))
        arrivals = det([[2, 1, 3], [1, 0, 2], [2, 1, 1], [0, 1, 3], [1, 1, 1]] * 3)
        shared = Setup(items=items)
        for seed in range(3):
            assert exact(run_balance(shared, arrivals, seed)) == \
                exact(run_balance(Setup(items=items), arrivals, seed))
            for fn in (run_myopic, run_conservative):
                fresh = Setup(items=items)
                assert exact(fn(shared, arrivals, seed)) == exact(fn(fresh, arrivals, seed))
        for table in (shared.price_table, shared.ms):
            with pytest.raises(ValueError):
                table[0, ...] = 0


class TestLedger:
    def test_never_sells_more_than_k(self):
        ledger = Ledger(Setup(items=(Item(k=1, priceset=PriceSet([4.0])),)))
        assert ledger.sell(0, 0, 1, 1.0) == 4.0
        with pytest.raises(MultipriceError) as info:
            ledger.sell(1, 0, 1, 1.0)
        assert not isinstance(info.value, ValidationError)
        res = ledger.result()
        assert (res.revenue, res.final_inventory) == (4.0, [0])


class TestPolicyRegistry:
    def suite(self):
        return hotel_policies(30.0, gamma=2.0)

    def test_spec_calls_its_runner(self):
        setup, products, model = small_choice_setting()
        arrivals = assortment_arrivals(model, products, [0, 1, 1, 0, 1] * 4)
        suite = dict(self.suite())
        direct = run_hybrid(setup, arrivals, 9, gamma=2.0, expected_total=30.0)
        assert suite["hybrid_resolving"](setup, arrivals, 9) == direct
        assert POLICIES["gnr"](setup, arrivals, 9) == run_gnr(setup, arrivals, 9)

    def test_cli_runs_the_engine_registry(self):
        assert cli._POLICIES is engine.POLICIES

    def test_suite_binds_runners_when_built(self, monkeypatch):
        # a wrapper put on engine.run_bidprice or engine.run_hybrid after
        # import, as a profiler does, is the one the suite calls
        calls = []

        def stub(name):
            def run(setup, arrivals, rng_seed, **options):
                calls.append((name, rng_seed, options["expected_total"]))
            return run

        monkeypatch.setattr(engine, "run_bidprice", stub("bidprice"))
        monkeypatch.setattr(engine, "run_hybrid", stub("hybrid"))
        suite = dict(self.suite())
        for name in ("bidprice_one_shot", "hybrid_resolving"):
            suite[name](None, None, 4)
        assert calls == [("bidprice", 4, 30.0), ("hybrid", 4, 30.0)]

    @pytest.mark.parametrize("gamma", [1.0, 0.5, math.inf, math.nan, "2"])
    def test_suite_refuses_gamma(self, gamma):
        with pytest.raises(DomainError):
            hotel_policies(30.0, gamma)

    @pytest.mark.parametrize("total", [-1.0, math.nan, math.inf, "30", None])
    def test_suite_refuses_expected_total(self, total):
        # refused when the suite is built, by the rule the bid-price runners use
        with pytest.raises(DomainError, match="expected_total"):
            hotel_policies(total, 1.5)


class TestTinyInstances:
    def test_single_sale(self):
        setup = Setup(items=(Item(k=1, priceset=PriceSet([10.0])),))
        for fn in ALL_DETERMINISTIC:
            res = fn(setup, det([[1]]), 0)
            assert res.revenue == pytest.approx(10.0)
            assert res.final_inventory == [0]

    def test_no_interest_no_sale(self):
        setup = Setup(items=(Item(k=2, priceset=PriceSet([10.0, 20.0])),))
        for fn in ALL_DETERMINISTIC:
            res = fn(setup, det([[0], [0]]), 0)
            assert res.revenue == 0.0
            assert res.final_inventory == [2]

    def test_highest_acceptable_price_charged(self):
        # myopic always serves an interested customer, at her willingness price
        setup = Setup(items=(Item(k=5, priceset=PriceSet([10.0, 20.0, 40.0])),))
        res = run_myopic(setup, det([[2], [3], [1]]), 0)
        assert res.revenue == pytest.approx(70.0)
        prices = [entry[3] for entry in res.sales_log]
        assert prices == [20.0, 40.0, 10.0]

    def test_balance_declines_low_price_late(self):
        # balance rationally skips a low-price customer once the value of the
        # remaining units exceeds her price
        setup = Setup(items=(Item(k=5, priceset=PriceSet([10.0, 20.0, 40.0])),))
        res = run_balance(setup, det([[2], [3], [1]]), 0)
        assert res.revenue <= 70.0
        for _, _, j, price, _ in res.sales_log:
            assert price == setup.items[0].priceset.price(j)

    def test_conservative_only_top_price(self):
        setup = Setup(items=(Item(k=3, priceset=PriceSet([10.0, 20.0])),))
        res = run_conservative(setup, det([[1], [2], [1]]), 0)
        assert res.revenue == pytest.approx(20.0)

    def test_stock_out_respected(self):
        setup = Setup(items=(Item(k=1, priceset=PriceSet([10.0])),))
        for fn in ALL_DETERMINISTIC:
            res = fn(setup, det([[1], [1], [1]]), 0)
            assert res.revenue == pytest.approx(10.0)
            assert res.final_inventory == [0]

    def test_myopic_prefers_higher_immediate_price(self):
        setup = Setup(items=(
            Item(k=1, priceset=PriceSet([10.0])),
            Item(k=1, priceset=PriceSet([15.0])),
        ))
        res = run_myopic(setup, det([[1, 1]]), 0)
        assert res.sales_log[0][1] == 1
        assert res.revenue == pytest.approx(15.0)


class TestInvariants:
    def test_inventory_safety_and_log_consistency(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            setup, arrivals, _ = random_instance(rng, n_max=4, T_max=12)
            for fn in ALL_DETERMINISTIC:
                res = fn(setup, arrivals, int(rng.integers(1 << 30)))
                assert all(v >= 0 for v in res.final_inventory)
                sold = [0] * setup.n
                total = 0.0
                for t, i, j, price, z in res.sales_log:
                    sold[i] += 1
                    total += price
                    assert z > 0.0
                    assert price == pytest.approx(setup.items[i].priceset.price(j))
                assert total == pytest.approx(res.revenue)
                for i in range(setup.n):
                    assert sold[i] + res.final_inventory[i] == setup.items[i].k

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(73)
        setup, arrivals, _ = random_instance(rng, n_max=3, T_max=10)
        for fn in ALL_DETERMINISTIC:
            a = fn(setup, arrivals, 12345)
            b = fn(setup, arrivals, 12345)
            assert a.revenue == b.revenue
            assert a.sales_log == b.sales_log

    def test_dual_trail_certificate(self):
        # every granted sale satisfies k * delta_phi + z <= price / c for the
        # rounding-based certified ratio c of the item's price set and
        # inventory (the per-step optimality condition, realized online)
        rng = np.random.default_rng(79)
        for _ in range(10):
            setup, arrivals, _ = random_instance(rng, n_max=3, T_max=12, k_max=4)
            res = run_balance(setup, arrivals, 7, duals_trace=True)
            for t, i, delta, z, price in res.duals_trace:
                item = setup.items[i]
                vf = build_value_function(item.priceset)
                c = certified_lower_bounds(vf, item.k)["perturbation"]
                assert delta + z <= price / c + 1e-7

    def test_ranking_assignment_bound(self):
        # the per-assignment inequality behind the single-unit guarantee
        # holds on every granted sale (assertion inside the runner)
        rng = np.random.default_rng(83)
        setup = Setup(items=tuple(
            Item(k=1, priceset=PriceSet([1.0, 3.0])) for _ in range(20)
        ))
        willing = rng.integers(0, 3, size=(60, 20))
        for seed in range(5):
            run_ranking(setup, det(willing), seed, check_assignments=True)

    def test_perturbed_coalesces_at_large_k(self):
        # with k = 1000 the rounding noise is negligible: perturbed and
        # ideal balance agree within 2%
        setup = Setup(items=(Item(k=1000, priceset=PriceSet([150.0, 450.0])),))
        rng = np.random.default_rng(5)
        willing = rng.integers(0, 3, size=(1500, 1))
        arrivals = det(willing)
        r_pert = run_balance(setup, arrivals, 11, perturbed=True).revenue
        r_ideal = run_balance(setup, arrivals, 11, perturbed=False).revenue
        assert abs(r_pert - r_ideal) / r_ideal < 0.02


class TestSingleOffer:
    def test_probability_one_matches_deterministic(self):
        setup = Setup(items=(Item(k=2, priceset=PriceSet([10.0, 20.0])),))
        probs = (((0.0, 1.0),), ((1.0, 0.0),))
        arrivals = ArrivalSequence(kind="single_offer", probs=probs)
        res = run_balance(setup, arrivals, 0)
        ref = run_balance(setup, det([[2], [1]]), 0)
        assert res.revenue == pytest.approx(ref.revenue)

    def test_acceptance_frequency(self):
        setup = Setup(items=(Item(k=1, priceset=PriceSet([10.0])),))
        arrivals = ArrivalSequence(kind="single_offer", probs=(((0.3,),),))
        hits = sum(
            1 for s in range(4000) if run_balance(setup, arrivals, s).revenue > 0
        )
        p = hits / 4000
        assert abs(p - 0.3) < 3 * math.sqrt(0.3 * 0.7 / 4000)


class TestFractional:
    def make(self, k, probs):
        setup = Setup(items=(Item(k=k, priceset=PriceSet([150.0, 450.0])),))
        arrivals = ArrivalSequence(kind="single_offer", probs=probs)
        return setup, arrivals

    def test_basic_accounting(self):
        setup, arrivals = self.make(1, (((1.0, 0.0),), ((0.0, 1.0),)))
        res = run_balance_fractional(setup, arrivals, 0)
        assert res.revenue <= 450.0 + 1e-9
        assert res.final_inventory[0] >= -1e-12

    def test_truncation_logged_then_vanishes(self):
        # single price: the value function stays below the price until the
        # item is exhausted, so the last bid is cut down to the remainder
        probs = tuple(((0.9,),) for _ in range(40))
        arrivals = ArrivalSequence(kind="single_offer", probs=probs)
        small_setup = Setup(items=(Item(k=2, priceset=PriceSet([150.0])),))
        res_small = run_balance_fractional(small_setup, arrivals, 0)
        assert res_small.meta["truncations"] >= 1
        assert res_small.revenue == pytest.approx(2 * 150.0, abs=1e-9)
        big_setup = Setup(items=(Item(k=100, priceset=PriceSet([150.0])),))
        res_big = run_balance_fractional(big_setup, arrivals, 0)
        assert res_big.meta["truncations"] == 0
        # fluid revenue equals mass served times price once nothing truncates
        assert res_big.revenue == pytest.approx(40 * 0.9 * 150.0, abs=1e-6)

    def test_seed_independent(self):
        setup, arrivals = self.make(3, (((0.4, 0.2),), ((0.1, 0.6),)))
        assert (
            run_balance_fractional(setup, arrivals, 1).revenue
            == run_balance_fractional(setup, arrivals, 99).revenue
        )


class TestForecastCurve:
    """The forecast: a day's expected_total customers, booked over the days
    before it as BOOKING_CURVE."""

    def test_interpolation(self):
        fraction = [interpolate(d, BOOKING_CURVE) for d in (40.0, 35.0, 30.0, 25.0, 12.5, 0.0)]
        assert fraction == pytest.approx([0.0, 0.0, 0.25, 0.5, 0.75, 1.0])
        assert fraction[0] == fraction[1] == 0.0 and fraction[-1] == 1.0

    @pytest.mark.parametrize("total", [math.nan, math.inf, -1.0, "30", None])
    def test_bad_expected_total(self, total):
        setup, products, model = small_choice_setting()
        arrivals = assortment_arrivals(model, products, [0, 1])
        for mode in ("one_shot", "resolving", "learning"):
            with pytest.raises(DomainError, match="expected_total"):
                run_bidprice(setup, arrivals, 0, mode=mode, expected_total=total)
        with pytest.raises(DomainError, match="expected_total"):
            run_hybrid(setup, arrivals, 0, expected_total=total)
        run_bidprice(setup, arrivals, 0, mode="clairvoyant", expected_total=total)

    def test_expected_total_takes_numbers(self):
        setup, products, model = small_choice_setting()
        arrivals = assortment_arrivals(model, products, [0, 1, 1, 0])
        runs = [run_bidprice(setup, arrivals, 0, resolve_every=1, expected_total=total)
                for total in (30, 30.0, np.float64(30.0), np.int64(30))]
        assert len({digest_result(run) for run in runs}) == 1
        run_bidprice(setup, arrivals, 0, expected_total=0)


class TestAssortmentPolicies:
    def setting(self, T=30, seed=0):
        setup, products, model = small_choice_setting()
        rng = np.random.default_rng(seed)
        types = [int(rng.integers(0, model.n_types)) for _ in range(T)]
        days = tuple(float(d) for d in np.linspace(30, 0, T))
        return setup, assortment_arrivals(model, products, types, days)

    def test_balance_assortment_runs(self):
        setup, arrivals = self.setting()
        res = run_balance_assortment(setup, arrivals, 3)
        assert res.revenue >= 0.0
        assert all(v >= 0 for v in res.final_inventory)
        a = run_balance_assortment(setup, arrivals, 3)
        assert a.revenue == res.revenue

    def test_one_shot_single_lp_solve(self):
        setup, arrivals = self.setting()
        res = run_bidprice(setup, arrivals, 0, mode="one_shot", expected_total=30.0)
        assert res.meta["lp_solves"] == 1

    def test_resolving_degenerates_to_one_shot(self):
        setup, arrivals = self.setting()
        one = run_bidprice(setup, arrivals, mode="one_shot", expected_total=30.0, rng_seed=5)
        slow = run_bidprice(setup, arrivals, mode="resolving", expected_total=30.0,
                            resolve_every=10**9, rng_seed=5)
        assert one.revenue == pytest.approx(slow.revenue)
        assert one.sales_log == slow.sales_log

    def test_resolving_solves_repeatedly(self):
        setup, arrivals = self.setting()
        res = run_bidprice(setup, arrivals, 0, mode="resolving", expected_total=30.0,
                           resolve_every=5)
        assert res.meta["lp_solves"] > 1

    def test_clairvoyant_needs_no_curve(self):
        setup, arrivals = self.setting()
        res = run_bidprice(setup, arrivals, 0, mode="clairvoyant", resolve_every=10)
        assert res.revenue >= 0.0

    def test_forecast_required(self):
        setup, arrivals = self.setting()
        with pytest.raises(DomainError):
            run_bidprice(setup, arrivals, 0, mode="resolving", expected_total=None)
        with pytest.raises(DomainError):
            run_bidprice(setup, arrivals, 0, mode="bogus", expected_total=30.0)

    def test_hybrid_gamma_bounds(self):
        setup, arrivals = self.setting()
        with pytest.raises(DomainError):
            run_hybrid(setup, arrivals, 0, gamma=1.0, expected_total=30.0)
        with pytest.raises(DomainError, match="gamma"):
            run_hybrid(setup, arrivals, 0, gamma="2", expected_total=30.0)

    @pytest.mark.parametrize("every", [0, -1, 1.5, "5", True, None])
    @pytest.mark.parametrize("mode", ["one_shot", "resolving", "hybrid"])
    def test_bad_resolve_every(self, mode, every):
        setup, arrivals = self.setting()
        with pytest.raises(DomainError, match="resolve_every"):
            if mode == "hybrid":
                run_hybrid(setup, arrivals, 0, resolve_every=every, expected_total=30.0)
            else:
                run_bidprice(setup, arrivals, 0, mode=mode, resolve_every=every,
                             expected_total=30.0)

    def test_resolve_every_takes_numpy_integers(self):
        setup, arrivals = self.setting()
        runs = [run_bidprice(setup, arrivals, 0, resolve_every=every, expected_total=30.0)
                for every in (5, np.int64(5))]
        assert runs[0] == runs[1]

    def test_hybrid_large_gamma_mostly_follows_forecast(self):
        # with a huge gamma only forecast offers with nonpositive
        # pseudorevenue are overridden
        setup, arrivals = self.setting()
        hyb = run_hybrid(setup, arrivals, gamma=1e9,
                         expected_total=30.0, rng_seed=2)
        tight = run_hybrid(setup, arrivals, gamma=1.0 + 1e-9,
                           expected_total=30.0, rng_seed=2)
        assert hyb.meta["override_fraction"] <= tight.meta["override_fraction"]
        again = run_hybrid(setup, arrivals, gamma=1e9,
                           expected_total=30.0, rng_seed=2)
        assert again.revenue == hyb.revenue

    def test_hybrid_override_monotone_in_gamma(self):
        setup, arrivals = self.setting(T=60, seed=3)
        total = 20.0  # deliberately poor forecast
        tight = run_hybrid(setup, arrivals, gamma=1.0 + 1e-9, expected_total=total,
                           rng_seed=4)
        loose = run_hybrid(setup, arrivals, gamma=5.0, expected_total=total, rng_seed=4)
        assert tight.meta["override_fraction"] >= loose.meta["override_fraction"]


class TestOfferMemo:
    def test_forecast_values_drop_a_sold_out_item(self):
        # the hybrid's forecast offer never advances, so only the ledger
        # tells its cached values that an item has sold out
        setup, products, model = small_choice_setting()
        arrivals = assortment_arrivals(model, products, [0, 1] * 5)
        ledger = Ledger(setup)
        offer = engine._BidPriceOffer(setup, arrivals, ledger, "resolving", 100, 30.0)
        offer.refresh(0)
        before = offer.values(products, ledger)
        item = 1
        for unit in range(setup.items[item].k):
            assert offer.values(products, ledger) is before  # nothing sold out yet
            ledger.sell(unit, item, 1, 0.0)
        after = offer.values(products, ledger)
        assert [v for (i, _), v in zip(products, after) if i == item] == [0.0, 0.0]
        assert [v for (i, _), v in zip(products, after) if i != item] == \
            [v for (i, _), v in zip(products, before) if i != item]
        assert any(v != 0.0 for (i, _), v in zip(products, before) if i == item)

    def test_state_writes_make_values_stale(self):
        setup, products, model = small_choice_setting()
        ledger = Ledger(setup)
        offer, _ = engine._balance_offer(setup, 0, perturbed=False)
        first = offer.values(products, ledger)
        offer.advance(0)
        advanced = offer.values(products, ledger)
        assert advanced[:2] != first[:2] and advanced[2:] == first[2:]
        offer.put(1, 0.0)
        assert offer.values(products, ledger)[2:] == \
            [offer.combine(offer.rows[i][j], offer.state[i]) for i, j in products[2:]]

    def test_best_asks_the_oracle_once_per_pi(self, monkeypatch):
        setup, products, model = small_choice_setting()
        calls = []

        def counted(*args):
            calls.append(args[1])
            return choice.optimize_assortment(*args)

        monkeypatch.setattr(engine, "optimize_assortment", counted)
        offer = engine._Offer(setup.price_table, operator.sub, state=np.zeros(setup.n))
        pi = [1.0, 2.0, 0.5, 0.0]
        for a, query in ((0, pi), (0, list(pi)), (1, pi), (0, pi), (0, pi[::-1]), (1, pi)):
            assert offer.best(model, a, query) == choice.optimize_assortment(model, a, query)
        assert calls == [0, 1, 0]

    def test_probs_computed_once_per_assortment(self, monkeypatch):
        setup, products, model = small_choice_setting()
        calls = []

        def counted(*args):
            calls.append(args[1:])
            return choice.choice_probs(*args)

        monkeypatch.setattr(engine, "choice_probs", counted)
        offer = engine._Offer(setup.price_table, operator.sub, state=np.zeros(setup.n))
        for a, s in ((0, (0, 1)), (0, (0, 1)), (1, (0, 1)), (0, (0, 1)), (0, (2,)), (1, (0, 1))):
            assert offer.probs(model, a, s) == choice.choice_probs(model, a, s)[0]
        assert calls == [(0, (0, 1)), (1, (0, 1)), (0, (2,))]

    @pytest.mark.parametrize("policy", ["bidprice", "hybrid"])
    def test_runs_compute_probs_fewer_times_than_they_sample(self, monkeypatch, policy):
        # a type is offered one assortment until a sale or a re-solve
        # changes it, and each draw reads the probabilities kept for it
        setup, products, model = small_choice_setting()
        setup = Setup(items=tuple(Item(k=40, priceset=it.priceset) for it in setup.items))
        rng = np.random.default_rng(5)
        arrivals = assortment_arrivals(model, products, rng.integers(0, 2, size=200).tolist())
        calls = {"choice_probs": 0, "sample_choice": 0}

        def count(name):
            real = getattr(engine, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(engine, name, counted)

        for name in calls:
            count(name)
        run = run_hybrid if policy == "hybrid" else run_bidprice
        run(setup, arrivals, 0, expected_total=200.0)
        assert 0 < calls["choice_probs"] < calls["sample_choice"] / 4
