"""Tight adversarial instance family: phase fractions, realized optimum,
and the closed-form online upper bound cross-checked by a nonlinear solver."""

import math
import tracemalloc

import numpy as np
import pytest

from multiprice import (
    ArrivalSequence,
    DomainError,
    PriceSet,
    SolverLimitError,
    analytic_bounds,
    build_instance,
    build_value_function,
    run_balance,
    solve_betas,
    solve_primal,
)

from multiprice.adversary import MAX_INSTANCE_SIZE
from test_valuefn import random_priceset

VF13 = build_value_function([1.0, 3.0])


class TestSolveBetas:
    def test_single_price(self):
        B, betas = solve_betas(build_value_function([5.0]))
        assert B == [1.0]
        assert betas == [1.0]

    def test_1_3(self):
        B, betas = solve_betas(VF13)
        assert B[0] == 1.0
        assert B[1] == pytest.approx(0.2582, abs=1e-4)
        assert sum(betas) == pytest.approx(1.0, abs=1e-12)

    def test_tail_sums_decreasing(self):
        rng = np.random.default_rng(89)
        for _ in range(50):
            ps = random_priceset(rng, m_max=5)
            vf = build_value_function(ps)
            B, betas = solve_betas(vf)
            assert all(a > b for a, b in zip(B, B[1:]))
            assert all(x > 0 for x in betas)
            assert sum(betas) == pytest.approx(1.0, abs=1e-12)
            # recursion consistency: r(j) B_j e^{-alpha_j} is constant
            consts = [
                ps.price(j + 1) * B[j] * math.exp(-vf.alphas[j])
                for j in range(ps.m)
            ]
            assert max(consts) - min(consts) < 1e-10 * max(consts)


class TestAnalyticBounds:
    def test_ratio_equals_F(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            ps = random_priceset(rng, m_max=5)
            vf = build_value_function(ps)
            bounds = analytic_bounds(vf, 100, 3)
            assert bounds["ratio"] == pytest.approx(vf.F, abs=1e-12)
            assert bounds["online_ub"] < bounds["opt"]

    @pytest.mark.parametrize("n, k", [(0, 1), (1, 0), (2.5, 1)])
    def test_refuses_empty_or_fractional_sizes(self, n, k):
        with pytest.raises(DomainError):
            analytic_bounds(VF13, n, k)

    def test_scaling(self):
        a = analytic_bounds(VF13, 10, 1)
        b = analytic_bounds(VF13, 20, 2)
        assert b["opt"] == pytest.approx(4 * a["opt"], abs=1e-9)
        assert b["ratio"] == pytest.approx(a["ratio"], abs=1e-12)


def looped_instance(vf, n, k, rng_seed):
    """willing and the group phases as build_instance filled them one group
    at a time before it emitted runs: the reference for the vectorised
    build."""
    m = vf.priceset.m
    _, betas = solve_betas(vf)
    bounds, acc = [0], 0.0
    for j in range(m):
        acc += betas[j]
        bounds.append(n if j == m - 1 else int(round(acc * n)))
    perm = np.random.default_rng(rng_seed).permutation(n)
    willing = np.zeros((n * k, n), dtype=int)
    phases = []
    for g in range(n):
        phase = next(j for j in range(m) if bounds[j] <= g < bounds[j + 1])
        phases.append(phase + 1)
        willing[g * k : (g + 1) * k, perm[g:]] = phase + 1
    return willing, tuple(phases)


class TestBuildInstance:
    @pytest.mark.parametrize("k", [1, 3])
    def test_runs_expand_to_the_looped_matrix(self, k):
        for vf, n in ((VF13, 12), (build_value_function([1.0, 2.0, 4.0]), 9)):
            for seed in range(4):
                inst = build_instance(vf, n, k, seed)
                willing, phases = looped_instance(vf, n, k, seed)
                assert inst.arrivals.T == n * k
                assert inst.arrivals.willing.dtype == willing.dtype
                assert np.array_equal(inst.arrivals.willing, willing)
                assert inst.group_phases == phases
                assert inst.arrivals.runs[1].tolist() == [k] * n
                got = solve_primal(inst.setup, inst.arrivals)
                want = solve_primal(inst.setup,
                                    ArrivalSequence(kind="deterministic", willing=willing))
                assert got.objective == want.objective
                assert got.duals_items == want.duals_items
                assert got.duals_arrivals == want.duals_arrivals

    def test_trials_of_one_shape_share_the_setup(self):
        a, b = build_instance(VF13, 12, 2, 0), build_instance(VF13, 12, 2, 1)
        assert a.setup is b.setup and a.permutation != b.permutation
        # one Item per slot, not one shared by all
        assert len({id(item) for item in a.setup.items}) == 12
        assert not a.arrivals.runs[1].flags.writeable
        for other in (build_instance(VF13, 12, 3, 0), build_instance(VF13, 13, 2, 0),
                      build_instance(build_value_function([1.0, 4.0]), 12, 2, 0)):
            assert other.setup is not a.setup
        # the memo holds the last 8 shapes: a's survives three others, then
        # eight more push it out
        assert build_instance(VF13, 12, 2, 0).setup is a.setup
        for n in range(14, 22):
            build_instance(VF13, n, 2, 0)
        again = build_instance(VF13, 12, 2, 0)
        assert again.setup is not a.setup
        assert np.array_equal(again.arrivals.willing, a.arrivals.willing)

    def test_structure(self):
        inst = build_instance(VF13, 20, 2, 0)
        assert inst.setup.n == 20
        willing = np.asarray(inst.arrivals.willing)
        assert willing.shape == (40, 20)
        # group g is interested in exactly n - g items, all at its phase price
        for g in range(20):
            for row in willing[2 * g : 2 * g + 2]:
                assert np.count_nonzero(row) == 20 - g
                assert set(row[row > 0]) == {inst.group_phases[g]}
        # phases are nondecreasing along the groups and cover all levels
        assert list(inst.group_phases) == sorted(inst.group_phases)
        assert set(inst.group_phases) == {1, 2}
        assert sorted(inst.permutation) == list(range(20))

    def test_phase_sizes_match_betas(self):
        inst = build_instance(VF13, 200, 1, 3)
        n1 = sum(1 for p in inst.group_phases if p == 1)
        _, betas = solve_betas(VF13)
        assert n1 == round(betas[0] * 200)

    def test_realized_opt_matches_lp(self):
        for seed in range(5):
            inst = build_instance(VF13, 8, 2, seed)
            sol = solve_primal(inst.setup, inst.arrivals)
            assert sol.objective == pytest.approx(inst.realized_opt, abs=1e-6)

    def test_deterministic_in_seed(self):
        a = build_instance(VF13, 15, 1, 42)
        b = build_instance(VF13, 15, 1, 42)
        assert a.permutation == b.permutation
        c = build_instance(VF13, 15, 1, 43)
        assert a.permutation != c.permutation

    def test_validation(self):
        with pytest.raises(DomainError):
            build_instance(VF13, 10, 0, 0)
        with pytest.raises(DomainError):
            build_instance(build_value_function([1.0, 2.0, 4.0]), 2, 1, 0)

    def test_refuses_a_fractional_n(self):
        with pytest.raises(DomainError, match="^n must be an integer"):
            build_instance(VF13, 10.5, 1, 0)

    def test_refuses_a_negative_seed(self):
        with pytest.raises(DomainError, match="^rng_seed must be an integer"):
            build_instance(VF13, 10, 1, -1)

    @pytest.mark.parametrize("n, k", [
        (math.isqrt(MAX_INSTANCE_SIZE) + 1, 1),  # n * n cells of bid rows
        (2, MAX_INSTANCE_SIZE // 2 + 1),  # n * k units
        (10**8, 1),
    ])
    def test_refuses_a_size_past_the_bound_before_allocating(self, n, k):
        tracemalloc.start()
        try:
            with pytest.raises(SolverLimitError, match="exceeds"):
                build_instance(VF13, n, k, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_takes_units_up_to_the_bound(self):
        inst = build_instance(VF13, 2, MAX_INSTANCE_SIZE // 2, 0)
        assert inst.arrivals.T == MAX_INSTANCE_SIZE

    def test_realized_opt_near_analytic(self):
        n = 200
        inst = build_instance(VF13, n, 1, 0)
        bounds = analytic_bounds(VF13, n, 1)
        # rounding the phase boundary moves the optimum by at most one group
        assert abs(inst.realized_opt - bounds["opt"]) <= 3.0

    def test_policy_between_bounds(self):
        # sanity on a mid-size instance: balance lands below the hindsight
        # optimum and above half the guarantee
        inst = build_instance(VF13, 100, 1, 1)
        revs = [
            run_balance(inst.setup, inst.arrivals, s).revenue for s in range(20)
        ]
        mean_ratio = float(np.mean(revs)) / inst.realized_opt
        assert mean_ratio < 1.0
        assert mean_ratio > VF13.F / 2.0


class TestOnlineBoundOracle:
    def test_matches_nonlinear_optimum(self):
        # the per-level allocation that maximizes the online haul,
        # sum_j r(j) B_j (1 - e^{-lam_j}) over the simplex, is lam = alpha;
        # verify with a constrained solver from many random starts
        minimize = pytest.importorskip("scipy.optimize").minimize
        rng = np.random.default_rng(101)
        for prices in ([1.0, 3.0], [2.0, 5.0, 11.0], [1.0, 1.5, 4.0, 9.0]):
            ps = PriceSet(prices)
            vf = build_value_function(ps)
            B, _ = solve_betas(vf)
            m = ps.m
            coeff = [ps.price(j + 1) * B[j] for j in range(m)]

            def neg(lam):
                return -sum(c * -math.expm1(-x) for c, x in zip(coeff, lam))

            best = -math.inf
            best_x = None
            cons = {"type": "eq", "fun": lambda lam: sum(lam) - 1.0}
            bnds = [(0.0, 1.0)] * m
            for _ in range(64):
                x0 = rng.dirichlet(np.ones(m))
                res = minimize(neg, x0, method="SLSQP", bounds=bnds,
                               constraints=[cons],
                               options={"maxiter": 200, "ftol": 1e-14})
                if res.success and -res.fun > best:
                    best, best_x = -res.fun, res.x
            bounds = analytic_bounds(vf, 1, 1)
            assert best == pytest.approx(bounds["online_ub"], abs=1e-6)
            assert best_x == pytest.approx(list(vf.alphas), abs=1e-4)
