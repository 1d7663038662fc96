"""The real rule, errors.as_real, and every real input of the API that
goes through it: each refuses what is not a finite real number of its
range with the error its module documents, and takes numpy scalars as the
Python float of the same value."""

import dataclasses
import math

import numpy as np
import pytest

from multiprice import (
    ArrivalSequence,
    DomainError,
    ExperimentConfig,
    InvalidPriceSet,
    InvalidRange,
    MnlModel,
    MultipriceError,
    PriceSet,
    ValidationError,
    build_continuum,
    build_value_function,
    enumerate_seed_support,
    lambert_w,
    round_borders,
    run_bidprice,
    run_hybrid,
    solve_choice_lp,
    two_price_F,
    verify_conditions,
)
from multiprice import valuefn
from multiprice.engine import hotel_policies
from multiprice.errors import as_real

from test_golden import canon
from test_lp import small_choice_setting

SETUP, PRODUCTS, MODEL = small_choice_setting()
SHOP = ArrivalSequence(kind="assortment", types=(0, 1, 1, 0, 1), model=MODEL, products=PRODUCTS)
VF = build_value_function([1.0, 3.0])
PROC = enumerate_seed_support(VF, 2)


def outcome(res):
    return res.revenue, res.sales_log, res.final_inventory, res.meta


def suite_run(expected_total, gamma, name):
    return outcome(dict(hotel_policies(expected_total, gamma))[name](SETUP, SHOP, 0))


# each real input: (a call that passes it x, the error that refuses it, a
# good value that is an integer, a value below its least)
REAL_INPUTS = {
    "capacity": (lambda x: solve_choice_lp(SETUP, [2.0, 2.0], MODEL, PRODUCTS,
                                           capacities=[x, 1]).objective, DomainError, 1, -1.0),
    "type count": (lambda x: solve_choice_lp(SETUP, [x, 2.0], MODEL, PRODUCTS).objective,
                   DomainError, 2, -1.0),
    "expected_total": (lambda x: outcome(run_bidprice(SETUP, SHOP, 0, resolve_every=2,
                                                      expected_total=x)), DomainError, 4, -1.0),
    "suite expected_total": (lambda x: suite_run(x, 2.0, "bidprice_resolving"),
                             DomainError, 4, -1.0),
    "gamma": (lambda x: outcome(run_hybrid(SETUP, SHOP, 0, gamma=x, expected_total=4.0)),
              DomainError, 2, 1.0),
    "suite gamma": (lambda x: suite_run(4.0, x, "hybrid_resolving"), DomainError, 2, 1.0),
    "mean daily arrivals": (lambda x: ExperimentConfig(mean_daily_arrivals=x).mean_daily_arrivals,
                            ValidationError, 30, -1.0),
    "loading factor": (lambda x: ExperimentConfig(loading_factors=(x,)).loading_factors,
                       ValidationError, 2, 0.0),
    "type share": (lambda x: MnlModel(n_products=1, type_shares=(x,), u0=(0.0,),
                                      utilities=((0.0,),)).type_shares, ValidationError, 1, -1.0),
    "c": (lambda x: verify_conditions(PROC, x)[1], DomainError, 1, 0.0),
    "rounding seed": (lambda x: round_borders(VF, 2, x), DomainError, 0, -0.5),
    "price": (lambda x: PriceSet([x, 5.0]).prices, InvalidPriceSet, 1, 0.0),
    "xi": (two_price_F, InvalidRange, 3, 1.0),
    "lambert_w": (lambert_w, DomainError, 1, -0.5),
    "r_min": (lambda x: dataclasses.astuple(build_continuum(x, 3.0)), InvalidRange, 1, 0.0),
    "r_max": (lambda x: dataclasses.astuple(build_continuum(1.0, x)), InvalidRange, 3, 1.0),
    "phi's w": (VF.phi, DomainError, 1, -0.5),
    "phi_prime's w": (VF.phi_prime, DomainError, 1, -0.5),
    "segment's w": (VF.segment, DomainError, 1, -0.5),
    "continuum phi's w": (build_continuum(1.0, 3.0).phi, DomainError, 1, -0.5),
}

BELOW = "below"  # stands for each input's value below its least
BAD = {"str": "0.5", "None": None, "bool": True, "np.bool_": np.bool_(True), "nan": math.nan,
       "inf": math.inf, "-inf": -math.inf, "10**400": 10 ** 400, "below": BELOW}


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("name", sorted(REAL_INPUTS))
def test_real_input_refused(name, bad):
    call, error, _, below = REAL_INPUTS[name]
    with pytest.raises(error):
        call(below if BAD[bad] is BELOW else BAD[bad])


@pytest.mark.parametrize("name", sorted(REAL_INPUTS))
def test_real_input_takes_numpy_scalars(name):
    call, _, good, _ = REAL_INPUTS[name]
    want = canon(call(float(good)))
    for x in (good, np.int64(good), np.float64(good)):
        assert canon(call(x)) == want


class TestAsReal:
    def test_returns_a_python_float(self):
        for x in (2, 2.0, np.int64(2), np.float64(2.0), np.float32(2.0), np.uint8(2)):
            y = as_real(x, 0.0, "x")
            assert type(y) is float and y.hex() == (2.0).hex()

    def test_least_and_strict(self):
        assert as_real(1.0, 1.0, "x") == 1.0
        assert as_real(-0.0, 0.0, "x") == 0.0
        with pytest.raises(DomainError, match=r"^gamma must be a finite number > 1\.0, got 1\.0$"):
            as_real(1.0, 1.0, "gamma", strict=True)
        with pytest.raises(ValidationError, match=r"^x must be a finite number >= 0\.0, got -1$"):
            as_real(-1, 0.0, "x", ValidationError)

    @pytest.mark.parametrize("x", ["1", None, True, False, np.bool_(False), [1.0], math.nan,
                                   math.inf, -math.inf, 10 ** 400, -10 ** 400, 1j])
    def test_refuses_what_is_not_a_finite_real(self, x):
        with pytest.raises(DomainError):
            as_real(x, -math.inf, "x")


@pytest.mark.parametrize("call", [lambda: lambert_w(math.inf),
                                  lambda: build_continuum(1.0, math.inf)],
                         ids=["lambert_w", "build_continuum"])
def test_infinity_refused_before_any_step(monkeypatch, call):
    """An infinite input is refused before the Halley iteration starts."""
    used = []

    class CountingMath:
        def __getattr__(self, name):
            used.append(name)
            return getattr(math, name)

    monkeypatch.setattr(valuefn, "math", CountingMath())
    with pytest.raises(MultipriceError):
        call()
    assert used == []
