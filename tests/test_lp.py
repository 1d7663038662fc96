"""Simplex core, hindsight LP bounds, and choice-LP column generation."""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from multiprice import (
    ArrivalSequence,
    DomainError,
    Item,
    MnlModel,
    PriceSet,
    Setup,
    SolverLimitError,
    assortment_value,
    run_balance,
    run_gnr,
    run_myopic,
    simplex_max,
    solve_choice_lp,
    solve_primal,
)
from multiprice.lp import ColumnPool, _column_for


def hindsight_opt(setup, willing):
    """Exact hindsight optimum of a deterministic instance by memoized DP
    over (customer index, remaining inventory vector)."""
    prices = [
        [0.0] + [it.priceset.price(j) for j in range(1, it.priceset.m + 1)]
        for it in setup.items
    ]
    T = len(willing)
    n = setup.n

    @lru_cache(maxsize=None)
    def best(t, inv):
        if t == T:
            return 0.0
        out = best(t + 1, inv)  # skip this customer
        for i in range(n):
            j = willing[t][i]
            if j > 0 and inv[i] > 0:
                nxt = inv[:i] + (inv[i] - 1,) + inv[i + 1 :]
                out = max(out, prices[i][j] + best(t + 1, nxt))
        return out

    return best(0, tuple(it.k for it in setup.items))


def random_instance(rng, n_max=4, T_max=12, m_max=3, k_max=3):
    n = int(rng.integers(1, n_max + 1))
    T = int(rng.integers(1, T_max + 1))
    items = []
    for _ in range(n):
        m = int(rng.integers(1, m_max + 1))
        prices = np.sort(rng.uniform(1, 100, size=m))
        items.append(Item(k=int(rng.integers(1, k_max + 1)), priceset=PriceSet(list(prices))))
    setup = Setup(items=tuple(items))
    willing = [
        [int(rng.integers(0, items[i].priceset.m + 1)) for i in range(n)]
        for _ in range(T)
    ]
    arrivals = ArrivalSequence(kind="deterministic", willing=np.array(willing))
    return setup, arrivals, willing


class TestSimplex:
    def test_basic(self):
        # max 3x + 2y s.t. x + y <= 4, x <= 2
        obj, x, duals = simplex_max([3.0, 2.0], [[1.0, 1.0], [1.0, 0.0]], [4.0, 2.0])
        assert obj == pytest.approx(10.0, abs=1e-9)
        assert x == pytest.approx([2.0, 2.0], abs=1e-9)
        # strong duality
        assert np.dot(duals, [4.0, 2.0]) == pytest.approx(obj, abs=1e-9)

    def test_duals_complementary(self):
        obj, x, duals = simplex_max(
            [5.0, 4.0], [[6.0, 4.0], [1.0, 2.0]], [24.0, 6.0]
        )
        assert obj == pytest.approx(21.0, abs=1e-9)
        assert duals == pytest.approx([0.75, 0.5], abs=1e-9)

    def test_degenerate(self):
        # redundant rows force degenerate pivots; must still terminate
        A = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        obj, x, _ = simplex_max([1.0, 1.0], A, [1.0, 1.0, 1.0])
        assert obj == pytest.approx(2.0, abs=1e-9)

    def test_unbounded(self):
        with pytest.raises(SolverLimitError):
            simplex_max([1.0, 0.0], [[0.0, 1.0]], [1.0])

    def test_negative_b_rejected(self):
        with pytest.raises(DomainError):
            simplex_max([1.0], [[1.0]], [-1.0])

    def test_zero_rhs(self):
        obj, x, _ = simplex_max([1.0], [[1.0]], [0.0])
        assert obj == pytest.approx(0.0, abs=1e-12)

    def test_random_against_scipy(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(53)
        for _ in range(30):
            m, nv = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            A = rng.uniform(0, 2, size=(m, nv))
            b = rng.uniform(0.5, 3, size=m)
            c = rng.uniform(0, 2, size=nv)
            obj, _, duals = simplex_max(c, A, b)
            ref = linprog(-c, A_ub=A, b_ub=b, method="highs")
            assert obj == pytest.approx(-ref.fun, abs=1e-7)
            assert np.dot(duals, b) == pytest.approx(obj, abs=1e-7)


class TestPrimalLp:
    def test_matches_exhaustive(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            setup, arrivals, willing = random_instance(rng)
            sol = solve_primal(setup, arrivals)
            assert sol.objective == pytest.approx(
                hindsight_opt(setup, tuple(map(tuple, willing))), abs=1e-7
            )

    def test_slack_capacity_zero_duals(self):
        setup = Setup(items=(Item(k=10, priceset=PriceSet([5.0])),))
        willing = np.array([[1], [1]])
        sol = solve_primal(setup, ArrivalSequence(kind="deterministic", willing=willing))
        assert sol.objective == pytest.approx(10.0, abs=1e-9)
        assert sol.duals_items[0] == pytest.approx(0.0, abs=1e-9)

    def test_policy_dominated_by_lp(self):
        # the LP value is a hard upper bound on every online policy
        rng = np.random.default_rng(61)
        for _ in range(30):
            setup, arrivals, _ = random_instance(rng)
            bound = solve_primal(setup, arrivals).objective
            for fn in (run_balance, run_myopic, run_gnr):
                assert fn(setup, arrivals, 0).revenue <= bound + 1e-7

    def test_single_offer_dominance(self):
        # stochastic arrivals: mean revenue <= LP of the expected instance
        # plus sampling noise
        rng = np.random.default_rng(67)
        setup = Setup(items=(
            Item(k=2, priceset=PriceSet([10.0, 30.0])),
            Item(k=1, priceset=PriceSet([20.0])),
        ))
        probs = tuple(
            (
                (float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.5))),
                (float(rng.uniform(0, 0.8)),),
            )
            for _ in range(12)
        )
        arrivals = ArrivalSequence(kind="single_offer", probs=probs)
        bound = solve_primal(setup, arrivals).objective
        revs = [run_balance(setup, arrivals, s).revenue for s in range(200)]
        mean = float(np.mean(revs))
        sem = float(np.std(revs)) / math.sqrt(len(revs))
        assert mean <= bound + 3 * sem

    def test_single_offer_one_offer_per_customer(self):
        # one unit at price 1 and one customer who accepts with p = 0.5: no
        # policy earns more than 0.5 in expectation, and neither does the LP
        setup = Setup(items=(Item(k=1, priceset=PriceSet([1.0])),))
        arrivals = ArrivalSequence(kind="single_offer", probs=(((0.5,),),))
        assert solve_primal(setup, arrivals).objective == pytest.approx(0.5, abs=1e-12)

    def test_rejects_fractional(self):
        setup = Setup(items=(Item(k=1, priceset=PriceSet([1.0])),))
        arr = ArrivalSequence(kind="fractional", probs=(((0.5,),),))
        with pytest.raises(DomainError):
            solve_primal(setup, arr)

    def test_size_guard(self):
        setup = Setup(items=tuple(
            Item(k=1, priceset=PriceSet([1.0, 2.0, 3.0, 4.0, 5.0])) for _ in range(20)
        ))
        willing = np.full((600, 20), 5)
        with pytest.raises(SolverLimitError):
            solve_primal(setup, ArrivalSequence(kind="deterministic", willing=willing))


def small_choice_setting():
    setup = Setup(items=(
        Item(k=3, priceset=PriceSet([100.0, 150.0])),
        Item(k=2, priceset=PriceSet([120.0, 200.0])),
    ))
    # products: (item, price level)
    products = ((0, 1), (0, 2), (1, 1), (1, 2))
    model = MnlModel(
        n_products=4,
        type_shares=(0.5, 0.5),
        u0=(0.3, -0.2),
        utilities=((1.0, 0.2, 0.8, 0.1), (0.4, 1.1, -0.3, 0.9)),
    )
    return setup, products, model


def full_column_lp(setup, type_counts, model, products):
    """Reference: solve the choice LP with every assortment enumerated."""
    fares = [setup.items[i].priceset.price(j) for i, j in products]
    n, A = setup.n, model.n_types
    cols, revs, keys = [], [], []
    for a in range(A):
        for r in range(1, model.n_products + 1):
            for s in itertools.combinations(range(model.n_products), r):
                col, rev = _column_for(model, a, s, products, fares, n, A)
                cols.append(col)
                revs.append(rev)
                keys.append((a, s))
    b = [float(it.k) for it in setup.items] + [float(c) for c in type_counts]
    obj, x, duals = simplex_max(np.array(revs), np.column_stack(cols), np.array(b))
    return obj, duals


class TestChoiceLp:
    def test_colgen_matches_full_enumeration(self):
        setup, products, model = small_choice_setting()
        for counts in ([4.0, 4.0], [10.0, 2.0], [0.0, 6.0], [1.5, 2.5]):
            sol = solve_choice_lp(setup, counts, model, products)
            ref_obj, _ = full_column_lp(setup, counts, model, products)
            assert sol.objective == pytest.approx(ref_obj, abs=1e-6)
            assert sol.meta["gap"] == 0.0

    def test_bid_prices_nonnegative(self):
        setup, products, model = small_choice_setting()
        sol = solve_choice_lp(setup, [20.0, 20.0], model, products)
        assert all(y >= 0.0 for y in sol.duals_items)
        # scarce inventory at high demand must price at least one item
        assert max(sol.duals_items) > 0.0

    def test_slack_capacity_free(self):
        setup, products, model = small_choice_setting()
        sol = solve_choice_lp(setup, [0.5, 0.5], model, products)
        assert sol.duals_items == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_pool_reuse_identical_result(self):
        setup, products, model = small_choice_setting()
        pool = ColumnPool()
        first = solve_choice_lp(setup, [4.0, 4.0], model, products, pool=pool)
        n_cols = len(pool.cols)
        again = solve_choice_lp(setup, [4.0, 4.0], model, products, pool=pool)
        fresh = solve_choice_lp(setup, [4.0, 4.0], model, products)
        assert again.objective == pytest.approx(fresh.objective, abs=1e-9)
        assert len(pool.cols) >= n_cols  # pool only grows

    def test_capacities_override(self):
        setup, products, model = small_choice_setting()
        full = solve_choice_lp(setup, [8.0, 8.0], model, products)
        tight = solve_choice_lp(setup, [8.0, 8.0], model, products,
                                capacities=[1, 0])
        assert tight.objective < full.objective

    def test_count_validation(self):
        setup, products, model = small_choice_setting()
        with pytest.raises(DomainError):
            solve_choice_lp(setup, [1.0], model, products)
        with pytest.raises(DomainError):
            solve_choice_lp(setup, [-1.0, 2.0], model, products)

    def test_objective_monotone_in_counts(self):
        setup, products, model = small_choice_setting()
        lo = solve_choice_lp(setup, [1.0, 1.0], model, products).objective
        hi = solve_choice_lp(setup, [3.0, 3.0], model, products).objective
        assert hi >= lo - 1e-9
