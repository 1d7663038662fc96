"""Simplex core, hindsight LP bounds, and choice-LP column generation."""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiprice import lp
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


def reference_simplex_max(c, A, b, max_iter=None):
    """The simplex_max that checked and updated every tableau row in turn,
    kept verbatim as the reference for bit-identical output."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, nv = A.shape
    if np.any(b < -lp.PIVOT_TOL):
        raise DomainError("simplex_max requires b >= 0")
    b = np.maximum(b, 0.0)
    if max_iter is None:
        max_iter = 50 * (m + nv) + 1000
    bland_after = max_iter // 2

    # tableau: [A | I | b] with objective row [-c | 0 | 0] on top of it
    T = np.zeros((m + 1, nv + m + 1))
    T[:m, :nv] = A
    T[:m, nv : nv + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :nv] = -c
    basis = list(range(nv, nv + m))

    for it in range(max_iter):
        costs = T[m, :-1]
        if it < bland_after:
            e = int(np.argmin(costs))
            if costs[e] >= -lp.PIVOT_TOL:
                break
        else:
            neg = np.flatnonzero(costs < -lp.PIVOT_TOL)
            if len(neg) == 0:
                break
            e = int(neg[0])
        col = T[:m, e]
        pos = col > lp.PIVOT_TOL
        if not np.any(pos):
            raise SolverLimitError("unbounded LP")
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / col[pos]
        rmin = ratios.min()
        cand = np.flatnonzero(ratios <= rmin + 1e-12)
        if it >= bland_after:
            # Bland: leave the row whose basic variable has lowest index
            leave = int(min(cand, key=lambda r: basis[r]))
        else:
            leave = int(cand[0])
        piv = T[leave, e]
        T[leave] /= piv
        for r in range(m + 1):
            if r != leave and abs(T[r, e]) > 1e-14:
                T[r] -= T[r, e] * T[leave]
        basis[leave] = e
    else:
        raise SolverLimitError("simplex iteration limit reached")

    x = np.zeros(nv)
    for r, v in enumerate(basis):
        if v < nv:
            x[v] = T[r, -1]
    duals = T[m, nv : nv + m].copy()
    return float(T[m, -1]), x, duals


def simplex_outcome(fn, c, A, b, max_iter):
    """(objective, x, duals) as hex strings, or the solver-limit message."""
    try:
        obj, x, duals = fn(c, A, b, max_iter)
    except SolverLimitError as exc:
        return ("SolverLimitError", str(exc))
    return (obj.hex(), [float(v).hex() for v in x], [float(v).hex() for v in duals])


# integer entries over mostly zero right-hand sides make degenerate ties
# likely, under both pivot rules; 1e-13 sits between the elimination's zero
# threshold and PIVOT_TOL
_TIED = (st.sampled_from([-1.0, 0.0, 1.0, 1.0, 2.0, 1e-13]),
         st.sampled_from([0.0, 0.0, 1.0]), st.sampled_from([0.0, 1.0, 2.0, 3.0]))
_SPREAD = (st.floats(-4.0, 4.0), st.floats(0.0, 5.0), st.floats(-3.0, 5.0))


@st.composite
def small_lps(draw):
    coef, rhs, cost = draw(st.sampled_from([_TIED, _SPREAD]))
    m, nv = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    A = [draw(st.lists(coef, min_size=nv, max_size=nv)) for _ in range(m)]
    if draw(st.booleans()):
        A[draw(st.integers(0, m - 1))] = [0.0] * nv
    b = draw(st.lists(rhs, min_size=m, max_size=m))
    c = draw(st.lists(cost, min_size=nv, max_size=nv))
    # a small iteration limit reaches the Bland branch and the limit error
    max_iter = draw(st.none() | st.integers(0, 12))
    return c, A, b, max_iter


@settings(max_examples=400, deadline=None)
@given(small_lps())
# a tie that Bland's rule breaks towards the later row
@example(([2.0, 2.0], [[-1.0, 0.0], [0.0, 2.0], [2.0, 1.0]], [0.0, 0.0, 0.0], 3))
def test_simplex_bit_identical_to_reference(lp_args):
    assert simplex_outcome(simplex_max, *lp_args) == simplex_outcome(reference_simplex_max, *lp_args)


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

    def test_single_offer_equals_singleton_choice_lp(self):
        # the choice LP restricted to singleton assortments: offering (i, j)
        # to customer t sells p units of i for p * r_ij, and each customer
        # is shown at most one assortment in total
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(71)
        for _ in range(20):
            n, T = int(rng.integers(1, 4)), int(rng.integers(1, 9))
            items = tuple(
                Item(k=int(rng.integers(1, 3)),
                     priceset=PriceSet(sorted(rng.uniform(1, 50, size=int(rng.integers(1, 4))))))
                for _ in range(n)
            )
            setup = Setup(items=items)
            probs = tuple(
                tuple(tuple(float(p) if rng.random() < 0.7 else 0.0
                            for p in rng.uniform(0, 1, size=it.priceset.m)) for it in items)
                for _ in range(T)
            )
            cols, revs = [], []
            for t in range(T):
                for i, it in enumerate(items):
                    for j, p in enumerate(probs[t][i], start=1):
                        col = np.zeros(n + T)
                        col[i] = p
                        col[n + t] = 1.0
                        cols.append(col)
                        revs.append(p * it.priceset.price(j))
            b = [float(it.k) for it in items] + [1.0] * T
            ref = linprog(-np.array(revs), A_ub=np.column_stack(cols), b_ub=b, method="highs")
            sol = solve_primal(setup, ArrivalSequence(kind="single_offer", probs=probs))
            assert sol.objective == pytest.approx(-ref.fun, abs=1e-7)

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
        with pytest.raises(DomainError):
            solve_choice_lp(setup, [1.0, 1.0], model, products, max_columns=0)

    def test_objective_monotone_in_counts(self):
        setup, products, model = small_choice_setting()
        lo = solve_choice_lp(setup, [1.0, 1.0], model, products).objective
        hi = solve_choice_lp(setup, [3.0, 3.0], model, products).objective
        assert hi >= lo - 1e-9


@pytest.fixture
def empty_memo():
    """An empty choice-LP memo before and after the test."""
    lp._fresh_solve.cache_clear()
    yield lp._fresh_solve
    lp._fresh_solve.cache_clear()


def solution_digest(sol):
    return (
        sol.objective.hex(),
        sorted((key, float(v).hex()) for key, v in sol.primal.items()),
        [float(v).hex() for v in sol.duals_items],
        [float(v).hex() for v in sol.duals_arrivals],
        sorted(sol.meta.items()),
    )


def pool_keys(pool):
    return [(a, s) for a, s, _, _ in pool.cols]


class TestChoiceLpMemo:
    def test_hit_equals_miss(self, empty_memo):
        setup, products, model = small_choice_setting()
        miss = solve_choice_lp(setup, [4.0, 4.0], model, products)
        hit = solve_choice_lp(setup, [4.0, 4.0], model, products)
        assert empty_memo.cache_info().hits == 1
        assert solution_digest(hit) == solution_digest(miss)

    def test_mutating_a_solution_leaves_the_memo_intact(self, empty_memo):
        setup, products, model = small_choice_setting()
        first = solve_choice_lp(setup, [10.0, 2.0], model, products)
        digest = solution_digest(first)
        first.primal.clear()
        first.duals_items[0] = 99.0
        first.duals_arrivals.append(1.0)
        first.meta["gap"] = 5.0
        again = solve_choice_lp(setup, [10.0, 2.0], model, products)
        assert empty_memo.cache_info().hits == 1
        assert solution_digest(again) == digest

    def test_hit_fills_the_pool_like_a_miss(self, empty_memo):
        setup, products, model = small_choice_setting()
        missed, hit = ColumnPool(), ColumnPool()
        solve_choice_lp(setup, [4.0, 4.0], model, products, pool=missed)
        solve_choice_lp(setup, [4.0, 4.0], model, products, pool=hit)
        assert empty_memo.cache_info().hits == 1
        assert pool_keys(hit) == pool_keys(missed)
        assert hit.seen == missed.seen
        # the next re-solve from either pool is the same
        tight = [solve_choice_lp(setup, [4.0, 4.0], model, products, capacities=[1, 1],
                                 pool=pool) for pool in (missed, hit)]
        assert solution_digest(tight[0]) == solution_digest(tight[1])

    def test_default_capacities_share_an_entry(self, empty_memo):
        setup, products, model = small_choice_setting()
        solve_choice_lp(setup, [8.0, 8.0], model, products)
        solve_choice_lp(setup, [8.0, 8.0], model, products, capacities=[3, 2])
        info = empty_memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_nonempty_pool_bypasses_the_memo(self, empty_memo):
        setup, products, model = small_choice_setting()
        pool = ColumnPool()
        solve_choice_lp(setup, [4.0, 4.0], model, products, pool=pool)
        before = empty_memo.cache_info()
        solve_choice_lp(setup, [4.0, 4.0], model, products, pool=pool)
        assert empty_memo.cache_info() == before

    def test_bad_counts_raise_every_time(self, empty_memo):
        setup, products, model = small_choice_setting()
        for _ in range(2):
            with pytest.raises(DomainError):
                solve_choice_lp(setup, [1.0], model, products)
            with pytest.raises(DomainError):
                solve_choice_lp(setup, [-1.0, 2.0], model, products)
        assert empty_memo.cache_info().currsize == 0

    def test_stalled_pricing_reports_the_gap(self, empty_memo, monkeypatch):
        # pricing keeps re-offering a pooled assortment at an inflated value:
        # column generation stalls, and the gap bounds what it left out
        real = lp.optimize_assortment

        def inflated(*args, **kwargs):
            s, v = real(*args, **kwargs)
            return s, v + 100.0

        monkeypatch.setattr(lp, "optimize_assortment", inflated)
        setup, products, model = small_choice_setting()
        sol = solve_choice_lp(setup, [4.0, 2.0], model, products)
        assert sol.meta["gap"] > 0.0
        assert sol.meta["gap"] == pytest.approx(100.0 * 6.0, abs=1e-5)
