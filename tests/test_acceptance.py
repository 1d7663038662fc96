"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (bypassing capture so the line is
visible in plain `pytest -v` output) and asserts the same condition.
"""

import itertools
import math
import sys
import time

import numpy as np
import pytest

from multiprice import (
    ArrivalSequence,
    Item,
    MnlModel,
    PriceSet,
    Setup,
    assortment_value,
    build_continuum,
    build_instance,
    build_value_function,
    certified_lower_bounds,
    enumerate_seed_support,
    optimize_assortment,
    run_balance,
    run_conservative,
    run_gnr,
    run_myopic,
    run_ranking,
    single_unit_procedure,
    solve_choice_lp,
    solve_primal,
    two_price_F,
    verify_conditions,
)
from multiprice.engine import POLICIES, hotel_policies
from multiprice.harness import ExperimentConfig, run_experiment

from test_choice import brute_force, random_model
from test_lp import full_column_lp, hindsight_opt, random_instance
from test_valuefn import random_priceset


# one line per criterion, echoed in the terminal summary by conftest.py
RESULT_LINES = []


def report(num, ok, detail):
    line = "[acceptance %02d] %s — %s" % (num, "PASS" if ok else "FAIL", detail)
    RESULT_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_value_function_residuals():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_res, worst_sum, worst_phi = 0.0, 0.0, 0.0
    for _ in range(200):
        ps = random_priceset(rng, m_max=6, ratio_max=100.0)
        vf = build_value_function(ps)
        worst_sum = max(worst_sum, abs(sum(vf.alphas) - 1.0))
        vals = [
            -math.expm1(-vf.alphas[j - 1]) / (1.0 - ps.price(j - 1) / ps.price(j))
            for j in range(1, ps.m + 1)
        ]
        worst_res = max(worst_res, (max(vals) - min(vals)) / max(vals))
        for j in range(1, ps.m + 1):
            worst_phi = max(
                worst_phi, abs(vf.phi(vf.borders[j]) - ps.price(j)) / ps.price(j)
            )
    elapsed = time.perf_counter() - t0
    ok = (worst_res < 1e-10 and worst_sum < 1e-12 and worst_phi < 1e-9
          and elapsed < 1.0)
    report(1, ok,
           "200 sets: residual %.2e, |sum(alpha)-1| %.2e, border error %.2e, "
           "%.2fs" % (worst_res, worst_sum, worst_phi, elapsed))


def test_criterion_02_two_price_closed_form():
    worst = 0.0
    for xi in (1.01, 2.0, 3.0, 10.0, 1e3):
        vf = build_value_function([1.0, xi])
        worst = max(worst, abs(two_price_F(xi) - vf.F))
    limit_err = abs(two_price_F(1e12) - (1.0 - 1.0 / math.sqrt(math.e)))
    m1_err = abs(build_value_function([7.0]).F - (1.0 - 1.0 / math.e))
    ok = worst < 1e-9 and limit_err < 1e-3 and m1_err < 1e-12
    report(2, ok,
           "closed form err %.2e, xi->inf err %.2e, m=1 err %.2e"
           % (worst, limit_err, m1_err))


def test_criterion_03_ratio_inequalities():
    rng = np.random.default_rng(303)
    checked = 0
    ok = True
    while checked < 500:
        ps = random_priceset(rng, m_max=6, ratio_max=100.0)
        if ps.m < 2:
            continue
        checked += 1
        vf = build_value_function(ps)
        s1 = vf.G
        cont = build_continuum(ps.price(1), ps.price(ps.m))
        ok = ok and (1.0 - 1.0 / math.e) * s1 < 1.0 - math.exp(-s1)
        ok = ok and 1.0 - math.exp(-s1) < vf.F
        ok = ok and 1.0 / (1.0 + math.log(ps.price(ps.m) / ps.price(1))) < s1
        ok = ok and cont.F < vf.F
        ok = ok and vf.alphas[0] > s1
        if not ok:
            break
    report(3, ok, "four inequality families strict on %d/500 sets" % checked)


def test_criterion_04_rounding_laws():
    rng = np.random.default_rng(404)
    worst_mean, worst_scaled = 0.0, 0.0
    for _ in range(100):
        ps = random_priceset(rng, m_max=6)
        vf = build_value_function(ps)
        k = int(rng.integers(1, 60))
        proc = enumerate_seed_support(vf, k)
        for j in range(vf.m + 1):
            mean = sum(rho * pvf.tilde_borders[j] for rho, pvf in proc.configurations)
            worst_mean = max(worst_mean, abs(mean - vf.borders[j]))
        for _, pvf in proc.configurations:
            deltas = [
                pvf.tilde_borders[j] - vf.borders[j] for j in range(vf.m + 1)
            ]
            worst_scaled = max(worst_scaled, max(abs(d) for d in deltas) * k)
            for da, db in itertools.combinations(deltas, 2):
                worst_scaled = max(worst_scaled, abs(da - db) * k)
    ok = worst_mean < 1e-12 and worst_scaled <= 1.0 + 1e-9
    report(4, ok,
           "100 (P,k) pairs: mean error %.2e, max distortion*k %.4f"
           % (worst_mean, worst_scaled))


def test_criterion_05_certification_tightness():
    t0 = time.perf_counter()
    ok = True
    notes = []
    probe = PriceSet([50.0, 95.0, 99.0, 99.5, 100.0])
    single = PriceSet([100.0])
    for k in (1, 2, 5, 10, 100):
        # generic rounding certificate on a closely spaced m=5 set
        vf = build_value_function(probe)
        c = certified_lower_bounds(vf, k)["perturbation"]
        proc = enumerate_seed_support(vf, k)
        passed, _ = verify_conditions(proc, c)
        failed, _ = verify_conditions(proc, c * 1.05)
        ok = ok and passed and not failed
        # improved single-price certificate
        vf1 = build_value_function(single)
        c1 = certified_lower_bounds(vf1, k)["single_price"]
        proc1 = enumerate_seed_support(vf1, k)
        passed1, _ = verify_conditions(proc1, c1)
        failed1, _ = verify_conditions(proc1, c1 * 1.05)
        ok = ok and passed1 and not failed1
        notes.append("k=%d" % k)
    # k=1 closed form G/2 via the optimal single-unit procedure
    for prices in ([250.0, 750.0], [1.0, 3.0], [10.0, 20.0, 80.0]):
        ps = PriceSet(prices)
        vf = build_value_function(ps)
        proc = single_unit_procedure(vf)
        passed, _ = verify_conditions(proc, vf.G / 2.0)
        failed, _ = verify_conditions(proc, vf.G / 2.0 * 1.05)
        ok = ok and passed and not failed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(5, ok,
           "certified c pass / 1.05c fail at %s and k=1 closed form, %.2fs"
           % (",".join(notes), elapsed))


@pytest.mark.slow
def test_criterion_06_single_unit_pincer():
    t0 = time.perf_counter()
    prices = [1.0, 3.0]
    vf = build_value_function(prices)
    policies = (
        ("ranking", run_ranking),
        ("balance", run_balance),
        ("myopic", run_myopic),
        ("gnr", run_gnr),
        ("conservative", run_conservative),
    )
    sums = {name: 0.0 for name, _ in policies}
    n_seeds = 1000
    for s in range(n_seeds):
        inst = build_instance(vf, 500, 1, s)
        opt = inst.realized_opt
        for name, fn in policies:
            sums[name] += fn(inst.setup, inst.arrivals, s).revenue / opt
    means = {name: v / n_seeds for name, v in sums.items()}
    elapsed = time.perf_counter() - t0
    ok = 0.436 <= means["ranking"] <= 0.496
    ok = ok and all(v <= 0.486 for v in means.values())
    ok = ok and elapsed < 120.0
    report(6, ok,
           "ranking %.4f in [0.436, 0.496] (F=%.4f); max policy %.4f <= 0.486; "
           "%.1fs" % (means["ranking"], vf.F, max(means.values()), elapsed))


@pytest.mark.slow
def test_criterion_07_multi_unit_ratio():
    vf, vf1 = build_value_function([1.0, 3.0]), build_value_function([5.0])
    sums = 0.0
    n_seeds = 200
    for s in range(n_seeds):
        inst = build_instance(vf, 200, 100, s)
        sums += run_balance(inst.setup, inst.arrivals, s).revenue / inst.realized_opt
    mean = sums / n_seeds
    sums1 = 0.0
    for s in range(n_seeds):
        inst = build_instance(vf1, 200, 100, s)
        sums1 += run_balance(inst.setup, inst.arrivals, s).revenue / inst.realized_opt
    mean1 = sums1 / n_seeds
    ok = 0.436 <= mean <= 0.496 and abs(mean1 - (1.0 - 1.0 / math.e)) <= 0.03
    report(7, ok,
           "balance k=100: %.4f in [0.436, 0.496]; m=1 %.4f within 0.03 of "
           "%.4f" % (mean, mean1, 1.0 - 1.0 / math.e))


def test_criterion_08_lp_integrality_and_dominance():
    rng = np.random.default_rng(808)
    ok = True
    worst = 0.0
    for _ in range(50):
        setup, arrivals, willing = random_instance(rng, n_max=4, T_max=12)
        lp = solve_primal(setup, arrivals).objective
        exact = hindsight_opt(setup, tuple(map(tuple, willing)))
        worst = max(worst, abs(lp - exact))
        ok = ok and abs(lp - exact) < 1e-7
    viol = 0
    for i in range(30):
        n = int(rng.integers(1, 4))
        items = tuple(
            Item(k=int(rng.integers(1, 4)),
                 priceset=PriceSet(sorted(rng.uniform(1, 100, size=int(rng.integers(1, 4))))))
            for _ in range(n)
        )
        setup = Setup(items=items)
        T = int(rng.integers(4, 12))
        probs = tuple(
            tuple(
                tuple(float(p) for p in rng.uniform(0, 1.0 / it.priceset.m, size=it.priceset.m))
                for it in items
            )
            for _ in range(T)
        )
        arrivals = ArrivalSequence(kind="single_offer", probs=probs)
        bound = solve_primal(setup, arrivals).objective
        revs = [run_balance(setup, arrivals, s).revenue for s in range(120)]
        mean = float(np.mean(revs))
        sem = float(np.std(revs, ddof=1)) / math.sqrt(len(revs)) if np.std(revs) > 0 else 0.0
        if mean > bound + 3 * sem + 1e-9:
            viol += 1
    ok = ok and viol == 0
    report(8, ok,
           "LP = exhaustive on 50 instances (max gap %.1e); dominance "
           "violations %d/30" % (worst, viol))


def test_criterion_09_choice_lp_and_prefix_oracle():
    # column generation vs full enumeration, 6 products / 2 types
    setup = Setup(items=(
        Item(k=3, priceset=PriceSet([100.0, 150.0, 190.0])),
        Item(k=2, priceset=PriceSet([120.0, 200.0, 260.0])),
    ))
    products = ((0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3))
    model = MnlModel(
        n_products=6,
        type_shares=(0.5, 0.5),
        u0=(0.3, -0.2),
        utilities=((1.0, 0.5, 0.2, 0.8, 0.4, 0.1),
                   (0.4, 0.9, 1.1, -0.3, 0.5, 0.9)),
    )
    worst_lp = 0.0
    for counts in ([5.0, 5.0], [12.0, 3.0], [2.0, 9.0]):
        sol = solve_choice_lp(setup, counts, model, products)
        ref, _ = full_column_lp(setup, counts, model, products)
        worst_lp = max(worst_lp, abs(sol.objective - ref))
    # prefix oracle vs 2^8 brute force, 100 random models
    rng = np.random.default_rng(909)
    worst_pref = 0.0
    for _ in range(100):
        m = random_model(rng, 8)
        a = int(rng.integers(0, m.n_types))
        pi = tuple(float(rng.uniform(-1, 3)) for _ in range(8))
        _, v1 = optimize_assortment(m, a, pi)
        _, v2 = brute_force(m, a, pi)
        worst_pref = max(worst_pref, abs(v1 - v2))
    ok = worst_lp < 1e-6 and worst_pref < 1e-9
    report(9, ok,
           "colgen vs full LP gap %.1e; prefix vs brute force gap %.1e"
           % (worst_lp, worst_pref))


def test_criterion_10_two_phase_example():
    # one item, k = 100, prices {150, 450}: 100 low-willing customers then
    # 100 high-willing ones
    setup = Setup(items=(Item(k=100, priceset=PriceSet([150.0, 450.0])),))
    willing = np.array([[1]] * 100 + [[2]] * 100)
    arrivals = ArrivalSequence(kind="deterministic", willing=willing)
    bal = run_balance(setup, arrivals, 0).revenue
    gnr = run_gnr(setup, arrivals, 0).revenue
    # the rounded border lands on 62 or 63 low sales
    ok = bal in (26100.0, 26400.0) and gnr == 15000.0 and bal >= 1.7 * gnr
    report(10, ok,
           "balance %.0f (expect 26100/26400), gnr %.0f, ratio %.2fx >= 1.7x"
           % (bal, gnr, bal / gnr))


@pytest.mark.slow
def test_criterion_11_hotel_shape():
    t0 = time.perf_counter()
    curve_total = 260.0
    suite = dict(hotel_policies(curve_total, gamma=1.5))
    fcst_policies = tuple(
        (name, suite[key]) for name, key in (
            ("one_shot", "bidprice_one_shot"),
            ("resolving", "bidprice_resolving"),
            ("learning", "bidprice_learning"),
            ("clairvoyant", "bidprice_clairvoyant"),
            ("hybrid", "hybrid_resolving"),
        )
    )
    cfg = ExperimentConfig(
        loading_factors=(1.4, 1.6, 1.8),
        n_days=35,
        mean_daily_arrivals=curve_total,
        trials=10,
        base_seed=0,
        policies=fcst_policies,
    )
    main = run_experiment(cfg)

    def agg(report_, name):
        return [r["ratio"] for r in report_["runs"] if r["policy"] == name]

    # (a) clairvoyant forecasting beats the other forecasting modes
    means = {
        name: float(np.mean(agg(main, name)))
        for name in ("one_shot", "resolving", "learning", "clairvoyant")
    }
    ok_a = all(means["clairvoyant"] >= v for v in means.values())

    # (b) the hybrid matches or beats its base and is no more volatile, on
    # at least 2 of the 3 loading factors
    wins = 0
    for lf in cfg.loading_factors:
        hyb = [r["ratio"] for r in main["runs"]
               if r["policy"] == "hybrid" and r["loading_factor"] == lf]
        base = [r["ratio"] for r in main["runs"]
                if r["policy"] == "resolving" and r["loading_factor"] == lf]
        if (np.mean(hyb) >= np.mean(base)
                and np.std(hyb, ddof=1) <= np.std(base, ddof=1)):
            wins += 1
    ok_b = wins >= 2

    # (c) under fare differentiation, balance beats inventory balancing.
    # The fare-differentiation study sweeps a complete range of loading
    # factors spanning the myopic-optimal and conservative-optimal extremes
    # (the +2 no-purchase shift cuts sell-through ~2.7x, moving the tension
    # region to higher nominal loading factors).
    fd_cfg = ExperimentConfig(
        loading_factors=(1.4, 2.0, 3.0, 5.0, 8.0),
        fare_diff=True,
        n_days=35,
        mean_daily_arrivals=curve_total,
        trials=10,
        base_seed=0,
        policies=(("balance", POLICIES["balance_assortment"]), ("gnr", POLICIES["gnr"])),
    )
    fd = run_experiment(fd_cfg)
    bal_mean = float(np.mean(agg(fd, "balance")))
    gnr_mean = float(np.mean(agg(fd, "gnr")))
    ok_c = bal_mean > gnr_mean

    elapsed = time.perf_counter() - t0
    ok = ok_a and ok_b and ok_c and elapsed < 600.0
    report(11, ok,
           "clairvoyant %.4f top of %s; hybrid wins %d/3 factors; fare-diff "
           "balance %.4f > gnr %.4f; %.0fs"
           % (means["clairvoyant"],
              {k: round(v, 4) for k, v in means.items()}, wins,
              bal_mean, gnr_mean, elapsed))
