"""Simplex core, hindsight LP bounds, and choice-LP column generation."""

import itertools
import math
import warnings
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiprice import lp
from multiprice import (
    ArrivalSequence,
    DomainError,
    ExperimentConfig,
    Item,
    MnlModel,
    NEVER,
    PriceSet,
    Setup,
    SolverLimitError,
    assortment_value,
    build_instance,
    build_value_function,
    generate_hotel_ensemble,
    lp_bound,
    run_balance,
    run_balance_fractional,
    run_gnr,
    run_myopic,
    simplex_max,
    solve_choice_lp,
    solve_primal,
)
from multiprice.engine import validate
from multiprice.lp import _column_for


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

    @pytest.mark.parametrize("c, A, b", [
        ([1.0], [[1.0]], [math.nan]),
        ([math.nan], [[1.0]], [1.0]),
        ([1.0], [[math.inf]], [1.0]),
        ([-math.inf], [[1.0]], [1.0]),
        ([1.0], [[1.0, 1.0]], [1.0]),  # c shorter than a row of A
        ([1.0, 1.0], [[1.0]], [1.0]),  # c longer
        ([1.0], [[1.0]], [1.0, 1.0]),  # b longer than A's column
        ([1.0], [1.0], [1.0]),  # A not a matrix
        ([1.0], [[1.0], [1.0, 2.0]], [1.0, 1.0]),  # ragged
        (["x"], [[1.0]], [1.0]),
    ])
    def test_refuses_input_it_cannot_solve(self, c, A, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^simplex_max needs"):
                simplex_max(c, A, b)

    @pytest.mark.parametrize("max_iter", [2.5, "3", True, -1])
    def test_max_iter_must_be_an_integer(self, max_iter):
        with pytest.raises(DomainError, match="^max_iter must be an integer >= 0"):
            simplex_max([1.0], [[1.0]], [1.0], max_iter)

    def test_max_iter_counts_pivots(self):
        # the last optimality check is not an iteration of its own
        assert simplex_max([1.0], [[1.0]], [1.0], max_iter=1)[0] == 1.0
        assert simplex_max([-1.0], [[1.0]], [1.0], max_iter=0)[0] == 0.0
        with pytest.raises(SolverLimitError, match="iteration limit"):
            simplex_max([1.0], [[1.0]], [1.0], max_iter=0)

    def test_max_iter_may_be_a_numpy_integer(self):
        assert simplex_max([1.0], [[1.0]], [1.0], np.int64(5))[0] == 1.0

    def test_empty_lp(self):
        obj, x, duals = simplex_max([], np.zeros((0, 0)), [])
        assert type(obj) is float and obj == 0.0
        for v in (x, duals):
            assert isinstance(v, np.ndarray) and v.shape == (0,)

    def test_no_constraints(self):
        with pytest.raises(SolverLimitError, match="^unbounded LP$"):
            simplex_max([1.0], np.zeros((0, 1)), [])
        obj, x, duals = simplex_max([-1.0], np.zeros((0, 1)), [])
        assert (obj, x.tolist(), duals.tolist()) == (0.0, [0.0], [])

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
    kept verbatim as the reference for bit-identical output, but for its
    iteration limit, which allows max_iter pivots and a last optimality
    check as simplex_max does."""
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

    for it in range(max_iter + 1):
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
        if it == max_iter:
            raise SolverLimitError("simplex iteration limit reached")
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


def assert_both_paths_give(expected, *lp_args):
    """simplex_max gives `expected` with every pivot on the block path (a
    cut of 0) and at the default cut, which sends a tableau of at most
    WHOLE_PIVOT_CELLS cells, such as every LP small_lps draws, down the
    whole one."""
    for whole_cells in (0, lp.WHOLE_PIVOT_CELLS):
        with mock.patch.object(lp, "WHOLE_PIVOT_CELLS", whole_cells):
            assert simplex_outcome(simplex_max, *lp_args) == expected


# integer entries over mostly zero right-hand sides make degenerate ties
# likely, under both pivot rules; 1e-13 sits between the elimination's zero
# threshold and PIVOT_TOL.  Right-hand sides may start at -0.0, which the
# property keeps under keeps_negative_zero
_TIED = (st.sampled_from([-1.0, 0.0, 1.0, 1.0, 2.0, 1e-13]),
         st.sampled_from([0.0, -0.0, 0.0, 1.0]), st.sampled_from([0.0, 1.0, 2.0, 3.0]))
_SPREAD = (st.floats(-4.0, 4.0), st.floats(-0.0, 5.0), st.floats(-3.0, 5.0))


def keeps_negative_zero(x, y):
    """np.maximum, but keeping x's -0.0 against y's +0.0 (IEEE leaves
    max(-0, +0) open), so that a -0.0 right-hand side reaches the solve."""
    return np.where(x >= y, x, y)


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
# -0.0 in A, b and c, and zero costs: the block update leaves a -0.0 where
# the full-row update has +0.0 in the objective row's structural entries
@example(([-1.0, -0.0, 1.0], [[-1.0, -0.0, 1.0], [-0.0, -0.0, 2.0]], [-0.0, 2.0], None))
@example(([0.0, 0.0, 1.0], [[2.0, -0.0, -1.0], [0.0, 2.0, 1.0]], [-0.0, 1.0], None))
@example(([2.0, 0.0, 0.0], [[2.0, 0.0, 1.0]], [0.0], None))
@example(([0.0, 2.0], [[0.0, 2.0], [2.0, -1.0], [0.0, 2.0]], [-0.0, 0.0, 1.0], 3))
# a pivot division rounds a tiny negative right-hand side to -0.0, which a
# later pivot must update as the full-row update does
@example(([2.0, 2.0, 1.0, -1.0], [[1.0, -5e-324, -1.0, 1e-310], [1.0, -1.0, 4.0, -0.0],
                                  [-0.0, 1.0, 1.0, -5e-324], [5e-324, -1.0, 5e-324, 1.0]],
          [5e-324, 0.0, 0.0, 0.0], None))
# max_iter counts pivots: one pivot solves the first, none the second
@example(([1.0], [[1.0]], [1.0], 1))
@example(([-1.0], [[1.0]], [1.0], 0))
def test_simplex_bit_identical_to_reference(lp_args):
    with mock.patch.object(np, "maximum", keeps_negative_zero):
        assert_both_paths_give(simplex_outcome(reference_simplex_max, *lp_args), *lp_args)


@pytest.mark.parametrize("lp_args", [
    ([1.0, -0.0], [[1.0, -1.0], [1.0, 1.0]], [-0.0, 0.0], None),
    ([1.0, -0.0], [[-1.0, 2.0], [2.0, -1.0]], [-0.0, 0.0], None),
    # the first pivot leaves the second row untouched: it keeps its -0.0,
    # which subtracting a zero multiplier times the pivot row's -0.0 would
    # turn into the +0.0 that x then reads
    ([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [-0.0, -0.0], None),
])
def test_negative_zero_right_hand_side_matches_reference(lp_args):
    """Under a maximum that keeps -0.0, the right-hand side starts with a
    -0.0, and the solve still gives the reference's floats."""
    with mock.patch.object(np, "maximum", keeps_negative_zero):
        assert_both_paths_give(simplex_outcome(reference_simplex_max, *lp_args), *lp_args)


# LPs whose ratio tests the whole path must take as the reference does
WHOLE_PATH_LPS = {
    # the first row within 1e-12 of the least ratio leaves, not the argmin
    "ratios tied within 1e-12": ([1.0], [[1.0], [1.0]], [1.0 + 5e-13, 1.0]),
    "a tie Bland's rule breaks towards the later row": (
        [2.0, 2.0], [[-1.0, 0.0], [0.0, 2.0], [2.0, 1.0]], [0.0, 0.0, 0.0]),
    "-0.0 and +0.0 right-hand sides": ([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [-0.0, 0.0]),
    "a zero-ratio degenerate pivot": ([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0]),
    "a ratio overflowing to inf beside a finite one": ([1.0], [[1e-8], [1.0]], [1e308, 1.0]),
    # every ratio is inf, so the row whose entry is not positive ties and
    # leaves first
    "only ratios overflowing to inf": ([1.0], [[-1.0], [1e-8]], [0.0, 1e308]),
}


@pytest.mark.parametrize("max_iter", [None, 1, 3])  # 1 and 3 reach Bland's rule
@pytest.mark.parametrize("name", sorted(WHOLE_PATH_LPS))
def test_whole_path_ratio_test_matches_reference(name, max_iter):
    c, A, b = WHOLE_PATH_LPS[name]
    assert (len(b) + 1) * (len(c) + len(b) + 1) <= lp.WHOLE_PIVOT_CELLS
    with mock.patch.object(np, "maximum", keeps_negative_zero), np.errstate(all="ignore"):
        assert_both_paths_give(simplex_outcome(reference_simplex_max, c, A, b, max_iter),
                               c, A, b, max_iter)


@pytest.mark.parametrize("max_iter", [None, 5])
def test_overflowed_tableau_is_a_solver_limit(max_iter):
    """A pivot by 1e-8 turns the right-hand side into inf and the next one
    into NaN: on either path the NaN ratio raises SolverLimitError."""
    c, A, b = [1.0, -1.0], [[1e-8, -1.0], [-1.0, 1e300]], [1e308, 0.0]
    with np.errstate(all="ignore"):
        assert_both_paths_give(("SolverLimitError", "simplex tableau overflowed"),
                               c, A, b, max_iter)


def lps_solved_by(solve, *args):
    """The (c, A, b) of every simplex_max call that solve(*args) makes."""
    lps = []

    def spy(c, A, b, max_iter=None):
        lps.append((np.array(c), np.array(A), np.array(b)))
        return simplex_max(c, A, b, max_iter)

    with mock.patch.object(lp, "simplex_max", spy):
        solve(*args)
    return lps


def workload_lps():
    """LPs of the sizes the program solves: the assignment LPs of nested
    k = 1 adversarial instances at n = 60 (120 rows, 1950 columns, about
    980 pivots, of which about 9% touch more than PIVOT_BLOCK_CELLS cells),
    one at k = 3, and the choice-LP masters of one hotel day (12 rows, at
    most about 2,000 tableau cells)."""
    vf = build_value_function([1.0, 3.0])
    lps = []
    for n, k, seed in ((60, 1, 0), (60, 1, 1), (60, 1, 2), (20, 3, 0)):
        inst = build_instance(vf, n, k, seed)
        lps += lps_solved_by(solve_primal, inst.setup, inst.arrivals)
    cfg = ExperimentConfig(loading_factors=(1.6,), n_days=1, base_seed=1)
    lps += lps_solved_by(lp_bound, *generate_hotel_ensemble(cfg, 1.6)[0])
    return lps


@pytest.mark.parametrize("block_cells", [lp.PIVOT_BLOCK_CELLS, 1000])
def test_workload_size_lps_bit_identical_to_reference(block_cells, empty_memo):
    lps = workload_lps()
    assert [A.shape[0] for _, A, _ in lps[:4]] == [120, 120, 120, 80]
    assert len(lps) > 4 and all(A.shape[0] == 12 for _, A, _ in lps[4:])
    with mock.patch.object(lp, "PIVOT_BLOCK_CELLS", block_cells):
        for c, A, b in lps:
            assert_both_paths_give(simplex_outcome(reference_simplex_max, c, A, b, None),
                                   c, A, b, None)


def test_workload_lps_take_the_path_their_size_sets(empty_memo):
    """The hotel masters are eliminated whole and the assignment LPs by
    blocks; a change to the cut or to the LPs' sizes shows here."""
    # simplex_max's tableau has m + 1 rows of n + m + 1 cells
    cells = [(m + 1) * (n + m + 1) for m, n in (A.shape for _, A, _ in workload_lps())]
    assert min(cells[:4]) > lp.WHOLE_PIVOT_CELLS
    assert max(cells[4:]) <= lp.WHOLE_PIVOT_CELLS


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

    def test_bounds_the_fluid_run(self):
        # fluid balance offers customer t one (item, price) and books the
        # mass accepted = x p with x <= 1, within the item's inventory: a
        # feasible point of this LP, so the LP bounds its revenue
        rng = np.random.default_rng(72)
        for _ in range(30):
            n, T = int(rng.integers(1, 4)), int(rng.integers(1, 12))
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
            arrivals = ArrivalSequence(kind="single_offer", probs=probs)
            fluid = run_balance_fractional(setup, arrivals, 0)
            for t, i, j, amount, _ in fluid.sales_log:
                assert amount <= probs[t][i][j - 1] * items[i].priceset.price(j) + 1e-12
            assert fluid.revenue <= solve_primal(setup, arrivals).objective + 1e-9

    def test_size_guard(self):
        setup = Setup(items=tuple(
            Item(k=1, priceset=PriceSet([1.0, 2.0, 3.0, 4.0, 5.0])) for _ in range(20)
        ))
        willing = np.full((600, 20), 5)
        with pytest.raises(SolverLimitError):
            solve_primal(setup, ArrivalSequence(kind="deterministic", willing=willing))

    @pytest.mark.parametrize("kind", ["deterministic", "single_offer"])
    def test_size_guard_bounds_the_tableau(self, kind):
        # 50,000 customers who all accept the one price of one item: 50,000
        # variables, but a tableau of 5e9 cells, refused before it is built
        setup = Setup(items=(Item(k=1, priceset=PriceSet([1.0])),))
        if kind == "deterministic":
            arrivals = ArrivalSequence(kind=kind, runs=(np.array([[1]]), np.array([50_000])))
        else:
            arrivals = ArrivalSequence(kind=kind, probs=(((1.0,),),) * 50_000)
        with pytest.raises(SolverLimitError, match="tableau cells"):
            solve_primal(setup, arrivals)



def reference_solve_primal(setup, arrivals):
    """The solve_primal that built the deterministic and the single-offer
    variables in two loops, kept verbatim as the reference for bit-identical
    output but for the size guard, which bounds the tableau's cells."""
    validate(setup, arrivals, "solve_primal", "deterministic", "single_offer")
    n = setup.n
    T_len = arrivals.T

    # variables: one per (t, i, j) with positive probability
    var_keys = []
    var_p = []
    var_r = []
    if arrivals.kind == "deterministic":
        willing = np.asarray(arrivals.willing, dtype=int)
        for t in range(T_len):
            for i in range(n):
                for j in range(1, int(willing[t, i]) + 1):
                    var_keys.append((t, i, j))
                    var_p.append(1.0)
                    var_r.append(setup.items[i].priceset.price(j))
    else:
        for t, row in enumerate(arrivals.probs):
            for i in range(n):
                for j, p in enumerate(row[i], start=1):
                    if p > 0.0:
                        var_keys.append((t, i, j))
                        var_p.append(p)
                        var_r.append(setup.items[i].priceset.price(j))

    nv = len(var_keys)
    cells = (n + T_len + 1) * (nv + n + T_len + 1)
    if cells > lp.MAX_TABLEAU_CELLS:
        raise SolverLimitError("primal LP too large (%d variables, %d tableau cells)"
                               % (nv, cells))
    A = np.zeros((n + T_len, nv))
    # expected units sold count against inventory; the offers made to one
    # customer, accepted or not, are at most one in total
    for v, ((t, i, j), p) in enumerate(zip(var_keys, var_p)):
        A[i, v] = p
        A[n + t, v] = 1.0
    b = np.array([it.k for it in setup.items] + [1.0] * T_len, dtype=float)
    c = np.array(var_p) * np.array(var_r)

    obj, x, duals = simplex_max(c, A, b)
    primal = {k: xv for k, xv in zip(var_keys, x) if xv > 1e-12}
    return lp.LpSolution(
        objective=obj,
        primal=primal,
        duals_items=list(duals[:n]),
        duals_arrivals=list(duals[n:]),
    )


def primal_outcome(fn, setup, arrivals):
    """The solution as hex strings, primal in its dict order, or the
    solver-limit message."""
    try:
        sol = fn(setup, arrivals)
    except SolverLimitError as exc:
        return ("SolverLimitError", str(exc))
    return (float(sol.objective).hex(),
            [(tuple(map(int, k)), float(v).hex()) for k, v in sol.primal.items()],
            [float(v).hex() for v in sol.duals_items],
            [float(v).hex() for v in sol.duals_arrivals])


@st.composite
def primal_instances(draw):
    """A deterministic or single-offer instance whose items hold 1-4
    prices each, and an offset of the size guard from its tableau's cells
    (None: the guard stays at MAX_TABLEAU_CELLS)."""
    n, T = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    items = tuple(
        Item(k=draw(st.integers(1, 3)), priceset=PriceSet(sorted(draw(
            st.lists(st.floats(1.0, 100.0), min_size=m, max_size=m, unique=True)))))
        for m in draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    )
    setup = Setup(items=items)
    if draw(st.booleans()):
        willing = [[draw(st.integers(0, it.priceset.m)) for it in items] for _ in range(T)]
        arrivals = ArrivalSequence(kind="deterministic",
                                   willing=np.array(willing, dtype=int).reshape(T, n))
        nv = int(np.sum(willing))
    else:
        prob = st.sampled_from([0.0, 0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
        probs = tuple(tuple(tuple(draw(prob) for _ in range(it.priceset.m)) for it in items)
                      for _ in range(T))
        arrivals = ArrivalSequence(kind="single_offer", probs=probs)
        nv = sum(p > 0.0 for row in probs for r in row for p in r)
    offset = draw(st.none() | st.integers(-2, 1))
    cells = (n + T + 1) * (nv + n + T + 1)
    return setup, arrivals, None if offset is None else cells + offset


@settings(max_examples=300, deadline=None)
@given(primal_instances())
def test_solve_primal_bit_identical_to_reference(instance):
    setup, arrivals, limit = instance
    with mock.patch.object(lp, "MAX_TABLEAU_CELLS",
                           lp.MAX_TABLEAU_CELLS if limit is None else limit):
        assert (primal_outcome(solve_primal, setup, arrivals)
                == primal_outcome(reference_solve_primal, setup, arrivals))


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
        pool = {}
        first = solve_choice_lp(setup, [4.0, 4.0], model, products, pool=pool)
        n_cols = len(pool)
        again = solve_choice_lp(setup, [4.0, 4.0], model, products, pool=pool)
        fresh = solve_choice_lp(setup, [4.0, 4.0], model, products)
        assert again.objective == pytest.approx(fresh.objective, abs=1e-9)
        assert len(pool) >= n_cols  # pool only grows

    def test_capacities_override(self):
        setup, products, model = small_choice_setting()
        full = solve_choice_lp(setup, [8.0, 8.0], model, products)
        tight = solve_choice_lp(setup, [8.0, 8.0], model, products,
                                capacities=[1, 0])
        assert tight.objective < full.objective

    @pytest.mark.parametrize("bad", [(0, 3), (2, 1), (0, 0), (0, 1.5), (0, 1, 2), 5])
    def test_products_must_be_pairs_of_the_setup(self, bad):
        # item 0 has two prices and the setup two items
        setup, products, model = small_choice_setting()
        with pytest.raises(DomainError, match="not an .item, price index. pair"):
            solve_choice_lp(setup, [4.0, 4.0], model, products[:3] + (bad,))

    def test_count_validation(self):
        setup, products, model = small_choice_setting()
        with pytest.raises(DomainError):
            solve_choice_lp(setup, [1.0], model, products)
        with pytest.raises(DomainError):
            solve_choice_lp(setup, [-1.0, 2.0], model, products)

    @pytest.mark.parametrize("counts", [2.0, 2, "22", None])
    def test_counts_must_be_a_sequence(self, counts):
        setup, products, model = small_choice_setting()
        with pytest.raises(DomainError, match="type counts must be a sequence"):
            solve_choice_lp(setup, counts, model, products)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "2", None])
    def test_counts_must_be_finite_numbers(self, bad):
        # a NaN count passes a "cnt < 0" test and would be solved as the
        # right-hand side of its row
        setup, products, model = small_choice_setting()
        pooled = {}
        solve_choice_lp(setup, [2.0, 2.0], model, products, pool=pooled)
        for pool in (None, pooled):  # a fresh solve, and one from pooled columns
            with pytest.raises(DomainError, match="type counts"):
                solve_choice_lp(setup, [bad, 2.0], model, products, pool=pool)

    @pytest.mark.parametrize("caps", [[1], [1, 2, 3], [1, "a"], [1, None], [1, math.nan],
                                      [math.inf, 1], [1, -1], 1, 2.0, "12"])
    def test_capacities_must_fit_the_items(self, empty_memo, caps):
        # one finite number >= 0 per item, refused before the memo is read
        setup, products, model = small_choice_setting()
        pooled = {}
        solve_choice_lp(setup, [2.0, 2.0], model, products, pool=pooled)
        before = empty_memo.cache_info()
        for pool in (None, pooled):
            with pytest.raises(DomainError, match="capacities"):
                solve_choice_lp(setup, [2.0, 2.0], model, products, capacities=caps, pool=pool)
        assert empty_memo.cache_info() == before

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
        missed, hit = {}, {}
        solve_choice_lp(setup, [4.0, 4.0], model, products, pool=missed)
        solve_choice_lp(setup, [4.0, 4.0], model, products, pool=hit)
        assert empty_memo.cache_info().hits == 1
        assert list(hit) == list(missed)
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
        pool = {}
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
        solves = mock.Mock(wraps=lp.simplex_max)
        monkeypatch.setattr(lp, "simplex_max", solves)
        setup, products, model = small_choice_setting()
        sol = solve_choice_lp(setup, [4.0, 2.0], model, products)
        assert sol.meta["gap"] > 0.0
        assert sol.meta["gap"] == pytest.approx(100.0 * 6.0, abs=1e-5)
        # the round that adds no new column is the last: every master solve
        # but the last follows a round that added a column
        assert solves.call_count <= sol.meta["columns"] + 1

    def test_list_built_arguments_hit_the_memo(self, empty_memo):
        setup, products, model = small_choice_setting()
        miss = solve_choice_lp(setup, [4.0, 4.0], model, products)
        listed_model = MnlModel(n_products=model.n_products, type_shares=list(model.type_shares),
                                u0=list(model.u0), utilities=[list(r) for r in model.utilities])
        hit = solve_choice_lp(Setup(items=list(setup.items)), [4.0, 4.0], listed_model,
                              [list(p) for p in products])
        assert empty_memo.cache_info().hits == 1
        assert solution_digest(hit) == solution_digest(miss)


def test_iteration_guard_reports_the_gap(empty_memo, monkeypatch):
    # one master solve, then the guard: the columns priced in that round
    # are left unsolved, and the gap bounds what they could add
    monkeypatch.setattr(lp, "MAX_COLGEN_ROUNDS", 1)
    setup, products, model = small_choice_setting()
    counts = [10.0, 2.0]
    sol = solve_choice_lp(setup, counts, model, products)
    fares = [setup.items[i].priceset.price(j) for i, j in products]
    pi = [fares[p] - sol.duals_items[i] for p, (i, _) in enumerate(products)]
    values = [lp.optimize_assortment(model, a, pi)[1] for a in range(model.n_types)]
    gap = sum(max(v - z, 0.0) * cnt for v, z, cnt in zip(values, sol.duals_arrivals, counts))
    assert sol.meta["gap"] > 0.0
    assert sol.meta["gap"] == pytest.approx(gap, rel=1e-12)
    assert len(sol.primal) < sol.meta["columns"]
    ref_obj, _ = full_column_lp(setup, counts, model, products)
    assert sol.objective < ref_obj <= sol.objective + sol.meta["gap"] + 1e-9


class RefColumnPool:
    """The two-field column pool of the list-based solve_choice_lp."""

    def __init__(self):
        self.cols = []  # (a, assortment, column vector, revenue)
        self.seen = set()


def ref_solve_choice_lp(setup, type_counts, model, products, capacities=None,
                        family="unconstrained", tol=1e-7, max_columns=10_000,
                        pool=None):
    """The list-pool solve_choice_lp with its family, tol and max_columns
    knobs, kept verbatim as the reference for bit-identical output.  It
    calls the oracle, simplex_max and _column_for through `lp`, so that a
    test patches both versions at once; the unconstrained family, its only
    one in use, is all the oracle has."""
    caps = tuple(it.k for it in setup.items) if capacities is None else tuple(capacities)
    key = None
    if pool is None or not pool.cols:
        key = (setup, tuple(type_counts), model, tuple(products), caps, family, tol, max_columns)
        try:
            hash(key)
        except TypeError:
            key = None
    if key is None:
        return ref_column_generation(setup, type_counts, model, products, caps,
                                     family, tol, max_columns, pool or RefColumnPool())
    sol, cols = ref_fresh_solve(*key)
    if pool is not None:
        pool.cols.extend(cols)
        pool.seen.update((a, s) for a, s, _, _ in cols)
    return lp.LpSolution(sol.objective, dict(sol.primal), list(sol.duals_items),
                         list(sol.duals_arrivals), dict(sol.meta))


@lru_cache(maxsize=8)
def ref_fresh_solve(setup, type_counts, model, products, capacities, family, tol, max_columns):
    pool = RefColumnPool()
    sol = ref_column_generation(setup, type_counts, model, products, capacities,
                                family, tol, max_columns, pool)
    for _, _, col, _ in pool.cols:
        col.flags.writeable = False
    return sol, tuple(pool.cols)


def ref_column_generation(setup, type_counts, model, products, capacities, family,
                          tol, max_columns, pool):
    n = setup.n
    A_types = model.n_types
    if len(type_counts) != A_types:
        raise DomainError("type_counts length mismatch")
    if any(cnt < 0 for cnt in type_counts):
        raise DomainError("negative type count")
    if max_columns < 1:
        raise DomainError("max_columns must be at least 1")
    fares = [setup.items[i].priceset.price(j) for i, j in products]
    cols = pool.cols
    seen = pool.seen

    def add_col(a, s):
        key = (a, s)
        if key in seen:
            return False
        col, rev = lp._column_for(model, a, s, products, fares, n, A_types)
        cols.append((a, s, col, rev))
        seen.add(key)
        return True

    # start from each type's myopic-best assortment
    for a in range(A_types):
        s, _ = lp.optimize_assortment(model, a, fares)
        if s:
            add_col(a, s)

    b = np.array([float(c) for c in capacities] + [float(cnt) for cnt in type_counts])
    y = np.zeros(n)
    z = np.zeros(A_types)
    obj = 0.0
    x = np.zeros(0)
    for _ in range(max_columns):
        if cols:
            A_mat = np.column_stack([col for _, _, col, _ in cols])
            c_vec = np.array([rev for _, _, _, rev in cols])
            obj, x, duals = lp.simplex_max(c_vec, A_mat, b)
            y = duals[:n]
            z = duals[n:]
        # pricing: each type's best assortment under fare - y; a type with
        # no customers prices at 0 and adds nothing
        pi = [fares[p] - y[products[p][0]] for p in range(len(products))]
        priced = [lp.optimize_assortment(model, a, pi) if type_counts[a] > 0
                  else ((), 0.0) for a in range(A_types)]
        added = False
        for a, (s, v) in enumerate(priced):
            if v > z[a] + tol and s:
                added = add_col(a, s) or added
        if not added:
            break
    # stalled on pooled columns or at the iteration guard: the objective is
    # within sum_a max(v_a - z_a, 0) * count_a of the LP optimum
    gap = 0.0
    if any(v > z[a] + tol for a, (_, v) in enumerate(priced)):
        gap = sum(max(v - z[a], 0.0) * type_counts[a] for a, (_, v) in enumerate(priced))

    primal = {
        (cols[v][0], cols[v][1]): x[v] for v in range(len(cols)) if len(x) and x[v] > 1e-12
    }
    return lp.LpSolution(
        objective=obj,
        primal=primal,
        duals_items=[max(v, 0.0) for v in y],
        duals_arrivals=list(z),
        meta={"columns": len(cols), "gap": gap},
    )


@st.composite
def choice_lp_cases(draw, min_solves=1, max_solves=4):
    """A small choice LP: 1-3 items of 1-3 prices, an MNL model over some
    of their (item, price) products with NEVER utilities, and 1-4 (or
    min_solves to max_solves) solves of type counts (zeros among them) and
    capacities (zeros among them, or None for the full inventory)."""
    n = draw(st.integers(1, 3))
    items = tuple(
        Item(k=draw(st.integers(1, 4)), priceset=PriceSet(sorted(draw(
            st.lists(st.floats(1.0, 100.0), min_size=m, max_size=m, unique=True)))))
        for m in draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    )
    pairs = [(i, j) for i, it in enumerate(items) for j in range(1, it.priceset.m + 1)]
    products = tuple(draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs),
                                   unique=True)))
    n_types = draw(st.integers(1, 3))
    utility = st.just(NEVER) | st.floats(-2.0, 2.0)
    model = MnlModel(
        n_products=len(products),
        type_shares=(1.0 / n_types,) * n_types,
        u0=tuple(draw(st.floats(-1.0, 1.0)) for _ in range(n_types)),
        utilities=tuple(tuple(draw(utility) for _ in products) for _ in range(n_types)),
    )
    count = st.sampled_from([0.0, 0.0, 1.0, 2.5]) | st.floats(0.0, 20.0)
    solves = draw(st.lists(st.tuples(
        st.lists(count, min_size=n_types, max_size=n_types),
        st.none() | st.lists(st.integers(0, 4), min_size=n, max_size=n)),
        min_size=min_solves, max_size=max_solves))
    return Setup(items=items), model, products, solves, draw(st.booleans())


def choice_outcome(sol, solves):
    """The solution as hex strings, primal in its dict order, and the number
    of master solves it took."""
    return (float(sol.objective).hex(),
            [(a, s, float(v).hex()) for (a, s), v in sol.primal.items()],
            [float(v).hex() for v in sol.duals_items],
            [float(v).hex() for v in sol.duals_arrivals],
            sol.meta["columns"], float(sol.meta["gap"]).hex(), solves.call_count)


@settings(max_examples=150, deadline=None)
@given(choice_lp_cases())
def test_solve_choice_lp_bit_identical_to_reference(case):
    """Fresh and pooled re-solve sequences give the list-pool version's
    output; with stalled pricing (every assortment valued 100 above its
    worth) too, where only the pool's duplicate check ends a solve."""
    setup, model, products, solves_, stall = case
    real = lp.optimize_assortment

    def oracle(model, a, pi):
        s, v = real(model, a, pi)
        return s, v + 100.0 if stall else v

    counter = mock.Mock(wraps=lp.simplex_max)
    with mock.patch.object(lp, "optimize_assortment", oracle), \
            mock.patch.object(lp, "simplex_max", counter):
        for pooled in (False, True):
            lp._fresh_solve.cache_clear()
            ref_fresh_solve.cache_clear()
            pool, ref_pool = ({}, RefColumnPool()) if pooled else (None, None)
            for counts, caps in solves_:
                outcomes = []
                for fn, p in ((solve_choice_lp, pool), (ref_solve_choice_lp, ref_pool)):
                    counter.reset_mock()
                    sol = fn(setup, counts, model, products, capacities=caps, pool=p)
                    outcomes.append(choice_outcome(sol, counter))
                assert outcomes[0] == outcomes[1]
            if pooled:
                assert list(pool) == [(a, s) for a, s, _, _ in ref_pool.cols]
    lp._fresh_solve.cache_clear()


@settings(max_examples=50, deadline=None)
@given(choice_lp_cases())
def test_choice_lp_duals_are_python_floats(case):
    """The duals, fresh and pooled, are Python floats with the reference's
    values, which it read as numpy floats."""
    setup, model, products, solves_, _ = case
    lp._fresh_solve.cache_clear()
    ref_fresh_solve.cache_clear()
    for pool, ref_pool in ((None, None), ({}, RefColumnPool())):
        for counts, caps in solves_:
            sol = solve_choice_lp(setup, counts, model, products, capacities=caps, pool=pool)
            ref = ref_solve_choice_lp(setup, counts, model, products, capacities=caps,
                                      pool=ref_pool)
            for got, want in ((sol.duals_items, ref.duals_items),
                              (sol.duals_arrivals, ref.duals_arrivals)):
                assert all(type(v) is float for v in got)
                assert [v.hex() for v in got] == [float(v).hex() for v in want]
    lp._fresh_solve.cache_clear()


def restacked_column_generation(setup, type_counts, model, products, capacities, pool):
    """_column_generation as it was before its master was grown in place,
    stacking the whole pool afresh every round, kept verbatim as the
    reference for the grown master.  It calls the oracle, simplex_max,
    _column_for and the column-generation limits through `lp`."""
    n = setup.n
    A_types = model.n_types
    fares = [setup.items[i].priceset.price(j) for i, j in products]

    def add_col(a, s):
        if (a, s) in pool:
            return False
        pool[a, s] = lp._column_for(model, a, s, products, fares, n, A_types)
        return True

    # start from each type's myopic-best assortment
    for a in range(A_types):
        s, _ = lp.optimize_assortment(model, a, fares)
        if s:
            add_col(a, s)

    b = np.array([float(c) for c in capacities] + [float(cnt) for cnt in type_counts])
    obj, x = 0.0, ()
    y, z = np.zeros(n), np.zeros(A_types)
    for _ in range(lp.MAX_COLGEN_ROUNDS):
        if pool:
            A_mat = np.column_stack([col for col, _ in pool.values()])
            c_vec = np.array([rev for _, rev in pool.values()])
            obj, x, duals = lp.simplex_max(c_vec, A_mat, b)
            y = duals[:n]
            z = duals[n:]
        # pricing: each type's best assortment under fare - y; a type with
        # no customers prices at 0 and adds nothing
        pi = [fares[p] - y[products[p][0]] for p in range(len(products))]
        priced = [lp.optimize_assortment(model, a, pi) if type_counts[a] > 0
                  else ((), 0.0) for a in range(A_types)]
        added = False
        for a, (s, v) in enumerate(priced):
            if v > z[a] + lp.COLGEN_TOL and s:
                added = add_col(a, s) or added
        if not added:
            break
    # stalled on pooled columns or at the iteration guard: the objective is
    # within sum_a max(v_a - z_a, 0) * count_a of the LP optimum
    gap = 0.0
    if any(v > z[a] + lp.COLGEN_TOL for a, (_, v) in enumerate(priced)):
        gap = sum(max(v - z[a], 0.0) * type_counts[a] for a, (_, v) in enumerate(priced))

    # at the iteration guard the columns of the last round are unsolved
    primal = {key: xv for key, xv in zip(pool, x) if xv > 1e-12}
    return lp.LpSolution(
        objective=obj,
        primal=primal,
        duals_items=[max(v, 0.0) for v in y],
        duals_arrivals=list(z),
        meta={"columns": len(pool), "gap": gap},
    )


@settings(max_examples=100, deadline=None)
@given(case=choice_lp_cases(min_solves=3, max_solves=3), min_width=st.sampled_from([1, 2, 64]))
def test_grown_master_equals_a_restacked_one(case, min_width):
    """Three re-solves over one pool, each master grown in place from a
    buffer of min_width columns (so that it doubles, or does not), give the
    float.hex objective, primal and duals, the same number of master solves
    and the same pool as the reference stacking that pool afresh; with
    stalled pricing too, which grows the pool until its duplicate check
    ends a solve."""
    setup, model, products, solves_, stall = case
    real = lp.optimize_assortment

    def oracle(model, a, pi):
        s, v = real(model, a, pi)
        return s, v + 100.0 if stall else v

    counter = mock.Mock(wraps=lp.simplex_max)
    pool = {}
    lp._fresh_solve.cache_clear()
    with mock.patch.object(lp, "optimize_assortment", oracle), \
            mock.patch.object(lp, "simplex_max", counter), \
            mock.patch.object(lp._Master, "MIN_WIDTH", min_width):
        for counts, caps in solves_:
            ref_pool = dict(pool)
            counter.reset_mock()
            sol = solve_choice_lp(setup, counts, model, products, capacities=caps, pool=pool)
            grown = choice_outcome(sol, counter)
            counter.reset_mock()
            full = tuple(it.k for it in setup.items) if caps is None else tuple(caps)
            ref = restacked_column_generation(setup, counts, model, products, full, ref_pool)
            assert grown == choice_outcome(ref, counter)
            assert list(pool) == list(ref_pool)
    lp._fresh_solve.cache_clear()
