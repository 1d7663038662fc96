"""Randomized border rounding: distribution laws, support enumeration,
and the two-condition ratio certification."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiprice import (
    DomainError,
    PriceSet,
    RandomizedProcedure,
    SolverLimitError,
    ValidationError,
    build_perturbed,
    build_value_function,
    certified_lower_bounds,
    enumerate_seed_support,
    round_borders,
    single_unit_procedure,
    verify_conditions,
)
from multiprice import perturb
from multiprice.perturb import PerturbedValueFunction, rounding_classes

from test_valuefn import random_priceset


class TestRoundBorders:
    def test_endpoints_pinned(self):
        vf = build_value_function([150.0, 450.0])
        for w in (0.0, 0.3, 0.999):
            b = round_borders(vf, 7, w)
            assert b[0] == 0.0 and b[-1] == 1.0

    def test_grid_membership(self):
        vf = build_value_function([1.0, 2.0, 5.0])
        for k in (1, 3, 10):
            for w in (0.0, 0.25, 0.5, 0.9):
                for b in round_borders(vf, k, w):
                    assert abs(b * k - round(b * k)) < 1e-9

    def test_up_down_rule(self):
        vf = build_value_function([150.0, 450.0])
        L1 = vf.borders[1]
        k = 4
        frac = L1 * k - math.floor(L1 * k)
        up = round_borders(vf, k, frac - 1e-6)[1]
        down = round_borders(vf, k, frac + 1e-6)[1]
        assert up == pytest.approx((math.floor(L1 * k) + 1) / k)
        assert down == pytest.approx(math.floor(L1 * k) / k)

    def test_exact_multiple_never_moves(self):
        # with prices {1, xi} at k large enough some synthetic border can be
        # exact; easier: m=1 has the only interior borders 0 and 1
        vf = build_value_function([5.0])
        for w in (0.0, 0.42, 0.99):
            assert round_borders(vf, 3, w) == [0.0, 1.0]

    def test_fraction_just_below_one_snaps_up(self):
        # L(1) k = 1 - 2e-13: a fractional part within _FRAC_SNAP of 1 is
        # an exact multiple, so the border sits at 1/2 for every seed
        vf = dataclasses.replace(build_value_function([1.0, 3.0]),
                                 borders=(0.0, 0.5 - 1e-13, 1.0))
        for w in (0.0, 1e-12, 0.5, 1.0 - 1e-12):
            assert round_borders(vf, 2, w) == [0.0, 0.5, 1.0]
        proc = enumerate_seed_support(vf, 2)
        assert [(rho, pvf.tilde_borders) for rho, pvf in proc.configurations] == \
            [(1.0, (0.0, 0.5, 1.0))]

    def test_bad_args(self):
        vf = build_value_function([1.0])
        with pytest.raises(DomainError):
            round_borders(vf, 0, 0.5)
        with pytest.raises(DomainError):
            round_borders(vf, 2, 1.0)

    def test_takes_numpy_integers(self):
        vf = build_value_function([1.0, 3.0])
        for k in (np.int64(2), np.uint8(2)):
            assert round_borders(vf, k, 0.3) == round_borders(vf, 2, 0.3)
        for k in (True, 2.0):
            with pytest.raises(DomainError):
                round_borders(vf, k, 0.3)

    @pytest.mark.parametrize("k", [0, 2.5])
    def test_certified_bounds_refuse_k(self, k):
        with pytest.raises(DomainError):
            certified_lower_bounds(build_value_function([1.0, 3.0]), k)


def nudged_ends(vf, k, low, high):
    """vf with L(0) k and L(m) k given the fractional parts low and high
    (0 keeps the border): roundings of it that differ at border 0 or m
    alone, which round_borders pins to 0 and 1, are one rounding."""
    borders = ((low / k if low else 0.0,) + vf.borders[1:-1]
               + (1.0 - (1.0 - high) / k if high else 1.0,))
    return dataclasses.replace(vf, borders=borders)


PRICE_LISTS = st.lists(st.integers(1, 1000), min_size=1, max_size=6, unique=True).map(sorted)
END_FRACS = st.sampled_from([0.0, 0.2, 0.5, 0.9])


class TestRoundingClasses:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(prices=PRICE_LISTS, k=st.integers(1, 40), ends=st.tuples(END_FRACS, END_FRACS),
           seeds=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=30),
           at_fracs=st.booleans())
    @example(prices=[1, 3], k=4, ends=(0.5, 0.9), seeds=[0.1, 0.6, 0.95, 0.3], at_fracs=True)
    def test_classes_are_the_distinct_roundings(self, prices, k, ends, seeds, at_fracs):
        vf = nudged_ends(build_value_function([float(r) for r in prices]), k, *ends)
        if at_fracs:  # seeds on each fractional part and just below it
            fracs = [f for _, f in perturb._floor_frac(vf.borders, k)]
            seeds = seeds + fracs + [math.nextafter(f, 0.0) for f in fracs]
        first, inverse = rounding_classes(vf, k, seeds)
        roundings = [tuple(round_borders(vf, k, w)) for w in seeds]
        assert len(inverse) == len(seeds)
        assert len(set(roundings)) == len(first)
        assert [roundings[first[r]] for r in inverse] == roundings


class TestSupportBound:
    def test_grid_points_bounded(self, monkeypatch):
        # (m + 1)(k + 1) points: 30 at m = 2, k = 9, and 33 at k = 10
        vf = build_value_function([1.0, 3.0])
        monkeypatch.setattr(perturb, "MAX_GRID_POINTS", 30)
        assert enumerate_seed_support(vf, 9).k == 9
        with pytest.raises(SolverLimitError, match="33 grid points"):
            enumerate_seed_support(vf, 10)

    @pytest.mark.parametrize("k", [0, 2.5, True])
    def test_refuses_k(self, k):
        with pytest.raises(DomainError):
            enumerate_seed_support(build_value_function([1.0, 3.0]), k)


class TestDistributionLaws:
    def test_expectation_and_distortion(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            ps = random_priceset(rng, m_max=5)
            vf = build_value_function(ps)
            k = int(rng.integers(1, 30))
            proc = enumerate_seed_support(vf, k)
            probs = [rho for rho, _ in proc.configurations]
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)
            for j in range(vf.m + 1):
                mean = sum(
                    rho * pvf.tilde_borders[j]
                    for rho, pvf in proc.configurations
                )
                # endpoints are pinned; interior borders unbiased
                assert mean == pytest.approx(vf.borders[j], abs=1e-12)
            for _, pvf in proc.configurations:
                for j in range(vf.m + 1):
                    assert abs(pvf.tilde_borders[j] - vf.borders[j]) <= 1.0 / k + 1e-12
                # comonotone: realized borders stay sorted
                assert all(
                    a <= b + 1e-12
                    for a, b in zip(pvf.tilde_borders, pvf.tilde_borders[1:])
                )

    def test_support_size(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            vf = build_value_function(random_priceset(rng, m_max=6))
            proc = enumerate_seed_support(vf, int(rng.integers(1, 50)))
            assert len(proc.configurations) <= vf.m + 1

    def test_support_matches_sampling(self):
        vf = build_value_function([150.0, 450.0])
        k = 4
        proc = enumerate_seed_support(vf, k)
        rng = np.random.default_rng(0)
        counts = {}
        n = 20000
        for _ in range(n):
            pvf = build_perturbed(vf, k, rng.random())
            counts[pvf.tilde_borders] = counts.get(pvf.tilde_borders, 0) + 1
        for rho, pvf in proc.configurations:
            emp = counts.get(pvf.tilde_borders, 0) / n
            assert emp == pytest.approx(rho, abs=4 * math.sqrt(rho / n) + 1e-3)


class TestPerturbedValues:
    def test_exact_borders_recover_ideal(self):
        # when every border happens to be a grid multiple the tabulated
        # values telescope back to the ideal curve
        vf = build_value_function([150.0, 450.0])
        k = 1000000  # borders round by < 1e-6, values nearly ideal
        pvf = build_perturbed(vf, k, 0.5)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert pvf.grid_values[round(q * k)] == pytest.approx(vf.phi(q), abs=1e-3)

    def test_top_value_and_zero(self):
        vf = build_value_function([1.0, 2.0, 4.0])
        for w in (0.1, 0.6, 0.95):
            pvf = build_perturbed(vf, 5, w)
            assert pvf.grid_values[0] == 0.0
            assert pvf.grid_values[-1] == pytest.approx(4.0, rel=0.5)

    def test_monotone_grid(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            vf = build_value_function(random_priceset(rng, m_max=4))
            pvf = build_perturbed(vf, int(rng.integers(1, 20)), rng.random())
            g = pvf.grid_values
            assert all(a <= b + 1e-12 for a, b in zip(g, g[1:]))

    def test_large_k_proxy_gap(self):
        # expected border value converges to the exact price as k grows
        vf = build_value_function([150.0, 450.0])
        proc = enumerate_seed_support(vf, 10000)
        for j in (1, 2):
            expected = sum(rho * pvf.border_value(j) for rho, pvf in proc.configurations)
            assert abs(expected - vf.priceset.price(j)) < 0.2

    def test_empty_segment_when_m_exceeds_k(self):
        vf = build_value_function([1.0, 2.0, 4.0, 8.0])
        proc = enumerate_seed_support(vf, 2)  # m=4 > k=2: some spans collapse
        for _, pvf in proc.configurations:
            spans = [
                pvf.tilde_borders[j + 1] - pvf.tilde_borders[j]
                for j in range(pvf.m)
            ]
            assert min(spans) >= -1e-12
        # values still well-defined and monotone
        for _, pvf in proc.configurations:
            g = pvf.grid_values
            assert all(a <= b + 1e-12 for a, b in zip(g, g[1:]))


def parent_build_perturbed(vf, k, w_seed):
    """build_perturbed as it was before its grids were memoized, kept
    verbatim as the reference."""
    borders = round_borders(vf, k, w_seed)
    grid = perturb._grid_from_borders(vf, k, borders)
    return PerturbedValueFunction(k=k, tilde_borders=tuple(borders), grid_values=tuple(grid))


def pvf_hex(pvf):
    return pvf.k, [b.hex() for b in pvf.tilde_borders], [v.hex() for v in pvf.grid_values]


class TestGridMemo:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(prices=PRICE_LISTS, k=st.integers(1, 80))
    @example(prices=[150, 450], k=5)
    @example(prices=[1, 2, 4, 8, 16, 32], k=1)
    def test_memoized_grid_equals_an_unmemoized_build(self, prices, k):
        # every rounding of the (price set, k), from a seed at 0, at each
        # fractional part and just below it, built twice, the second time
        # read from the memo: by float.hex the unmemoized build's grid
        perturb._perturbed.cache_clear()
        vf = build_value_function([float(r) for r in prices])
        fracs = [f for _, f in perturb._floor_frac(vf.borders, k) if f]
        seeds = [0.0] + fracs + [math.nextafter(f, 0.0) for f in fracs]
        for w in seeds:
            want = pvf_hex(parent_build_perturbed(vf, k, w))
            first = build_perturbed(vf, k, w)
            assert pvf_hex(first) == want
            assert build_perturbed(vf, k, w) is first
        roundings = {tuple(round_borders(vf, k, w)) for w in seeds}
        info = perturb._perturbed.cache_info()
        assert info.misses == len(roundings) <= vf.m + 1
        assert info.hits == 2 * len(seeds) - len(roundings)

    def test_support_reuses_the_grids(self):
        vf = build_value_function([1.0, 2.0, 5.0])
        first = enumerate_seed_support(vf, 9)
        again = enumerate_seed_support(vf, 9)
        assert [pvf for _, pvf in again.configurations] == \
            [pvf for _, pvf in first.configurations]
        assert all(a is b for (_, a), (_, b) in zip(first.configurations,
                                                    again.configurations))

    def test_large_grids_are_not_kept(self):
        vf = build_value_function([1.0, 3.0])
        k = perturb.MEMO_GRID_POINTS
        assert pvf_hex(build_perturbed(vf, k, 0.3)) == pvf_hex(parent_build_perturbed(vf, k, 0.3))
        assert perturb._perturbed.cache_info().currsize == 0
        build_perturbed(vf, k - 1, 0.3)
        assert perturb._perturbed.cache_info().currsize == 1


class TestSingleUnit:
    def test_structure(self):
        proc = single_unit_procedure(build_value_function([250.0, 750.0]))
        assert proc.k == 1
        assert len(proc.configurations) == 2
        rhos = [rho for rho, _ in proc.configurations]
        assert rhos == pytest.approx([0.6, 0.4], abs=1e-12)
        tops = [pvf.grid_values[1] for _, pvf in proc.configurations]
        assert tops[0] == pytest.approx(250.0 / 0.6, abs=1e-9)
        assert tops[1] == pytest.approx(750.0 / 0.6, abs=1e-9)

    def test_certifies_G_over_2(self):
        vf = build_value_function([250.0, 750.0])
        proc = single_unit_procedure(vf)
        ok, report = verify_conditions(proc, vf.G / 2.0)
        assert ok
        # the bound is tight: both conditions hold with (near) zero slack
        assert report["feasibility_min_slack"] == pytest.approx(0.0, abs=1e-9)
        ok_inflated, _ = verify_conditions(proc, vf.G / 2.0 * 1.01)
        assert not ok_inflated

    def test_random_sets(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            vf = build_value_function(random_priceset(rng, m_max=5))
            ok, _ = verify_conditions(single_unit_procedure(vf), vf.G / 2.0)
            assert ok


def parent_border_value(pvf, j):
    """PerturbedValueFunction.border_value as it was, through value(q)."""
    q = pvf.tilde_borders[j]
    idx = int(round(q * pvf.k))
    if abs(q * pvf.k - idx) > 1e-9 or not 0 <= idx <= pvf.k:
        raise DomainError("q=%r is not a grid point of 1/%d" % (q, pvf.k))
    return pvf.grid_values[idx]


def parent_verify_conditions(proc, priceset, k, c, rel_tol=1e-9):
    """verify_conditions as it was, when the caller passed the price set and
    k; border values through parent_border_value."""
    if not isinstance(priceset, PriceSet):
        priceset = PriceSet(priceset)
    if c <= 0:
        raise DomainError("c must be positive")
    m = priceset.m
    tol = rel_tol * priceset.price(m)

    min_opt = math.inf
    for _, pvf in proc.configurations:
        grid = pvf.grid_values
        for j in range(1, m + 1):
            border_val = parent_border_value(pvf, j)
            n_max = int(round(pvf.tilde_borders[j] * k))
            for n_sold in range(n_max):
                lhs = k * (grid[n_sold + 1] - grid[n_sold]) + border_val - grid[n_sold]
                min_opt = min(min_opt, priceset.price(j) / c - lhs)

    min_feas = math.inf
    feas_slacks = []
    for j in range(1, m + 1):
        expected = sum(rho * parent_border_value(pvf, j) for rho, pvf in proc.configurations)
        slack = expected - priceset.price(j)
        feas_slacks.append(slack)
        min_feas = min(min_feas, slack)

    ok = min_opt >= -tol and min_feas >= -tol
    report = {
        "ok": ok,
        "c": c,
        "optimality_min_slack": min_opt,
        "feasibility_min_slack": min_feas,
        "feasibility_slacks": feas_slacks,
    }
    return ok, report


def hexed(report):
    return {key: ([x.hex() for x in v] if isinstance(v, list) else
                  v.hex() if isinstance(v, float) else v) for key, v in report.items()}


class TestVerifier:
    def test_bit_identical_to_parent(self):
        # the procedure's own price set and k give the slacks the caller's
        # (priceset, k) gave, on both sides of the certified bound
        rng = np.random.default_rng(47)
        oks = set()
        for _ in range(60):
            vf = build_value_function(random_priceset(rng, m_max=5))
            k = int(rng.integers(1, 61))
            for proc in (enumerate_seed_support(vf, k), single_unit_procedure(vf)):
                best = certified_lower_bounds(vf, proc.k)["best"]
                for c in (0.5 * best, best, 1.05 * best, 2.0 * best):
                    ok, report = verify_conditions(proc, c)
                    _, old = parent_verify_conditions(proc, proc.priceset, proc.k, c)
                    assert hexed(report) == hexed(old)
                    oks.add(ok)
        assert oks == {True, False}

    def test_certified_bounds_pass(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            vf = build_value_function(random_priceset(rng, m_max=4))
            k = int(rng.integers(1, 12))
            c = certified_lower_bounds(vf, k)["perturbation"]
            ok, _ = verify_conditions(enumerate_seed_support(vf, k), c)
            assert ok

    def test_single_price_improved_bound(self):
        vf = build_value_function([100.0])
        for k in (1, 2, 5, 10, 100):
            bounds = certified_lower_bounds(vf, k)
            c = bounds["single_price"]
            assert c > bounds["perturbation"] - 1e-12
            proc = enumerate_seed_support(vf, k)
            ok, _ = verify_conditions(proc, c)
            assert ok
            ok_inflated, _ = verify_conditions(proc, c * 1.05)
            assert not ok_inflated

    def test_bounds_k1_closed_form(self):
        ps = PriceSet([1.0, 3.0])
        vf = build_value_function(ps)
        b = certified_lower_bounds(vf, 1)
        assert b["single_unit"] == pytest.approx(vf.G / 2.0, abs=1e-15)
        assert b["best"] >= b["perturbation"]

    def test_rejects_nonpositive_c(self):
        proc = single_unit_procedure(build_value_function([1.0]))
        with pytest.raises(DomainError):
            verify_conditions(proc, 0.0)

    @pytest.mark.parametrize("c", [-0.5, math.nan, math.inf])
    def test_rejects_c_not_finite_positive(self, c):
        proc = single_unit_procedure(build_value_function([1.0]))
        with pytest.raises(DomainError):
            verify_conditions(proc, c)

    def test_procedure_validation(self):
        pvf = PerturbedValueFunction(
            k=1, tilde_borders=(0.0, 1.0), grid_values=(0.0, 1.0)
        )
        with pytest.raises(ValidationError):
            RandomizedProcedure(
                priceset=PriceSet([1.0]), k=1, configurations=((0.5, pvf),)
            )
        with pytest.raises(ValidationError):
            RandomizedProcedure(
                priceset=PriceSet([1.0]),
                k=1,
                configurations=((1.5, pvf), (-0.5, pvf)),
            )
