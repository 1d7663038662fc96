"""Online policies: correctness on tiny instances, determinism, inventory
safety, the dual-trail certificate, and the forecasting/hybrid variants."""

import math
import pickle

import numpy as np
import pytest

from multiprice import (
    ArrivalSequence,
    DomainError,
    ForecastCurve,
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
)
from multiprice.engine import POLICIES, Ledger, PolicySpec, hotel_policies, psi, validate

from test_lp import random_instance, small_choice_setting

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
        frac = ArrivalSequence(kind="fractional", probs=(((0.5,),),))
        with pytest.raises(DomainError):
            run_balance(setup, frac, 0)
        with pytest.raises(DomainError):
            run_ranking(setup, frac, 0)
        with pytest.raises(DomainError):
            run_balance_fractional(setup, det([[1]]), 0)
        with pytest.raises(DomainError):
            run_bidprice(setup, det([[1]]))
        with pytest.raises(DomainError):
            run_hybrid(setup, det([[1]]))


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

    @pytest.mark.parametrize("kind", ["single_offer", "fractional"])
    @pytest.mark.parametrize("row", [
        ((0.5, 0.5),),                # one item's entry missing
        ((0.5,), (0.5,)),             # item 0 needs two prices
        ((0.5, 0.5), (0.5, 0.5)),     # item 1 has one price
        ((0.5, 1.5), (0.5,)),         # probability above 1
        ((0.5, -0.1), (0.5,)),        # probability below 0
    ])
    def test_bad_probs(self, kind, row):
        with pytest.raises(DomainError):
            validate(self.setup, ArrivalSequence(kind=kind, probs=(row,)), "test", kind)

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
        return hotel_policies(ForecastCurve(expected_total=30.0), gamma=2.0)

    def test_specs_hash_and_pickle(self):
        specs = list(POLICIES.values()) + [spec for _, spec in self.suite()]
        for spec in specs:
            assert isinstance(spec, PolicySpec)
            copy = pickle.loads(pickle.dumps(spec))
            assert copy == spec and hash(copy) == hash(spec)
        assert len(set(specs)) == len(specs) - 3  # myopic, gnr, balance reused

    def test_spec_calls_its_runner(self):
        setup, products, model = small_choice_setting()
        arrivals = assortment_arrivals(model, products, [0, 1, 1, 0, 1] * 4)
        suite = dict(self.suite())
        direct = run_hybrid(setup, arrivals, base="resolving", gamma=2.0,
                            forecast=ForecastCurve(expected_total=30.0), rng_seed=9)
        assert suite["hybrid_resolving"](setup, arrivals, 9) == direct
        assert POLICIES["gnr"](setup, arrivals, 9) == run_gnr(setup, arrivals, 9)


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
        arrivals = ArrivalSequence(kind="fractional", probs=probs)
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
        arrivals = ArrivalSequence(kind="fractional", probs=probs)
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
    def test_interpolation(self):
        c = ForecastCurve(expected_total=100.0)
        assert c.fraction(40.0) == 0.0
        assert c.fraction(35.0) == 0.0
        assert c.fraction(30.0) == pytest.approx(0.25)
        assert c.fraction(25.0) == pytest.approx(0.5)
        assert c.fraction(12.5) == pytest.approx(0.75)
        assert c.fraction(0.0) == 1.0


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
        curve = ForecastCurve(expected_total=30.0)
        res = run_bidprice(setup, arrivals, mode="one_shot", forecast=curve)
        assert res.meta["lp_solves"] == 1

    def test_resolving_degenerates_to_one_shot(self):
        setup, arrivals = self.setting()
        curve = ForecastCurve(expected_total=30.0)
        one = run_bidprice(setup, arrivals, mode="one_shot", forecast=curve, rng_seed=5)
        slow = run_bidprice(setup, arrivals, mode="resolving", forecast=curve,
                            resolve_every=10**9, rng_seed=5)
        assert one.revenue == pytest.approx(slow.revenue)
        assert one.sales_log == slow.sales_log

    def test_resolving_solves_repeatedly(self):
        setup, arrivals = self.setting()
        curve = ForecastCurve(expected_total=30.0)
        res = run_bidprice(setup, arrivals, mode="resolving", forecast=curve,
                           resolve_every=5)
        assert res.meta["lp_solves"] > 1

    def test_clairvoyant_needs_no_curve(self):
        setup, arrivals = self.setting()
        res = run_bidprice(setup, arrivals, mode="clairvoyant", resolve_every=10)
        assert res.revenue >= 0.0

    def test_forecast_required(self):
        setup, arrivals = self.setting()
        with pytest.raises(DomainError):
            run_bidprice(setup, arrivals, mode="resolving", forecast=None)
        with pytest.raises(DomainError):
            run_bidprice(setup, arrivals, mode="bogus",
                         forecast=ForecastCurve(expected_total=30.0))

    def test_hybrid_gamma_bounds(self):
        setup, arrivals = self.setting()
        with pytest.raises(DomainError):
            run_hybrid(setup, arrivals, gamma=1.0,
                       forecast=ForecastCurve(expected_total=30.0))

    def test_hybrid_large_gamma_mostly_follows_forecast(self):
        # with a huge gamma only forecast offers with nonpositive
        # pseudorevenue are overridden
        setup, arrivals = self.setting()
        curve = ForecastCurve(expected_total=30.0)
        hyb = run_hybrid(setup, arrivals, base="resolving", gamma=1e9,
                         forecast=curve, rng_seed=2)
        tight = run_hybrid(setup, arrivals, base="resolving", gamma=1.0 + 1e-9,
                           forecast=curve, rng_seed=2)
        assert hyb.meta["override_fraction"] <= tight.meta["override_fraction"]
        again = run_hybrid(setup, arrivals, base="resolving", gamma=1e9,
                           forecast=curve, rng_seed=2)
        assert again.revenue == hyb.revenue

    def test_hybrid_override_monotone_in_gamma(self):
        setup, arrivals = self.setting(T=60, seed=3)
        curve = ForecastCurve(expected_total=20.0)  # deliberately poor forecast
        tight = run_hybrid(setup, arrivals, gamma=1.0 + 1e-9, forecast=curve,
                           rng_seed=4)
        loose = run_hybrid(setup, arrivals, gamma=5.0, forecast=curve, rng_seed=4)
        assert tight.meta["override_fraction"] >= loose.meta["override_fraction"]
