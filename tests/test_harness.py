"""Experiment harness: ensemble generation, CSV ingestion, and reporting."""

import io
import math

import numpy as np
import pytest

from multiprice import (
    ArrivalSequence,
    DomainError,
    ExperimentConfig,
    SolverLimitError,
    ValidationError,
    default_hotel_model,
    generate_hotel_ensemble,
    ingest_transactions,
    lp_bound,
    run_bidprice,
    run_experiment,
    run_myopic,
    solve_choice_lp,
)
from multiprice import harness, lp
from multiprice.engine import BOOKING_CURVE, _forecast_counts, count_types, interpolate
from multiprice.harness import (
    CSV_SCHEMA_HEADER,
    DEFAULT_WEEK_PROFILE,
    _largest_remainder,
    _sample_days_out,
    hotel_setup,
    write_runs_csv,
    write_summary_csv,
)


def small_config(**kw):
    defaults = dict(
        loading_factors=(1.6,),
        n_days=3,
        mean_daily_arrivals=30.0,
        trials=2,
        base_seed=0,
        policies=(("myopic", run_myopic),),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


CSV_HEADER = ("booking_date,occupancy_date,nights,room_category,"
              "fare_class,group,cro,vip\n")


class TestLargestRemainder:
    def test_exact_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            shares = rng.dirichlet(np.ones(4))
            total = int(rng.integers(1, 500))
            parts = _largest_remainder(total, list(shares))
            assert sum(parts) == total
            assert all(p >= 0 for p in parts)
            for p, s in zip(parts, shares):
                assert abs(p - total * s) < 1.0 + 1e-9

    def test_homogeneous(self):
        assert _largest_remainder(100, [0.25] * 4) == [25, 25, 25, 25]


class TestHotelSetup:
    def test_inventory_scale(self):
        cat = default_hotel_model()
        setup = hotel_setup(cat, 1.6, 260.0)
        total = sum(it.k for it in setup.items)
        assert total == int(round(260.0 / 1.6))
        # higher loading factor means scarcer inventory
        tighter = hotel_setup(cat, 1.8, 260.0)
        assert sum(it.k for it in tighter.items) < total

    def test_room_prices_sorted(self):
        cat = default_hotel_model()
        setup = hotel_setup(cat, 1.6, 260.0)
        for item in setup.items:
            assert item.priceset.m == 2


class TestSampleDaysOut:
    def test_range_and_order(self):
        rng = np.random.default_rng(1)
        days = _sample_days_out(500, rng)
        assert all(0.0 <= d <= 35.0 for d in days)
        # earliest bookings (largest lead time) come first
        assert days == sorted(days, reverse=True)

    def test_median_near_curve(self):
        # half the mass books by 25 days out
        rng = np.random.default_rng(2)
        days = _sample_days_out(4000, rng)
        frac_early = sum(1 for d in days if d >= 25.0) / len(days)
        assert abs(frac_early - 0.5) < 3 * math.sqrt(0.25 / 4000)


def parent_fraction(days_out):
    """The forecast's booked fraction as it walked BOOKING_CURVE by hand."""
    pts = BOOKING_CURVE
    if days_out >= pts[0][0]:
        return pts[0][1]
    for (d_hi, f_hi), (d_lo, f_lo) in zip(pts, pts[1:]):
        if d_lo <= days_out <= d_hi:
            t = (d_hi - days_out) / (d_hi - d_lo)
            return f_hi + t * (f_lo - f_hi)
    return 1.0


def parent_days_out(u):
    """One lead time of _sample_days_out as it walked BOOKING_CURVE by hand."""
    pts = BOOKING_CURVE
    d = pts[-1][0]
    for (d_hi, f_hi), (d_lo, f_lo) in zip(pts, pts[1:]):
        if f_hi <= u <= f_lo:
            d = d_hi - (u - f_hi) / (f_lo - f_hi) * (d_hi - d_lo)
            break
    return d


class TestBookingCurve:
    def test_fraction_bit_identical_to_parent(self):
        def fraction(days_out):
            return interpolate(days_out, BOOKING_CURVE)

        rng = np.random.default_rng(5)
        days = list(rng.uniform(-5.0, 45.0, 20000)) + [-1.0, 0.0, 25.0, 35.0, 36.0]
        for d in days:
            assert fraction(d).hex() == parent_fraction(d).hex()
        assert (fraction(35.0), fraction(1e9), fraction(-0.5)) == (0, 0, 1)

    def test_days_out_bit_identical_to_parent(self):
        rng = np.random.default_rng(6)
        us = np.sort(rng.random(20000))
        assert [d.hex() for d in _sample_days_out(20000, np.random.default_rng(6))] == \
            [parent_days_out(u).hex() for u in us]


def parent_ensemble(config, loading_factor):
    """Each day's (types, days_out) as generate_hotel_ensemble drew them, one
    Generator.choice call per customer."""
    model = default_hotel_model(fare_diff=config.fare_diff).model
    profile = np.array(DEFAULT_WEEK_PROFILE)
    profile = profile / profile.mean()
    root = np.random.SeedSequence((config.base_seed, hash(loading_factor) & 0xFFFF))
    out = []
    for day, child in enumerate(root.spawn(config.n_days)):
        rng = np.random.default_rng(child)
        count = max(int(rng.poisson(config.mean_daily_arrivals * profile[day % 7])), 1)
        types = tuple(int(rng.choice(model.n_types, p=model.type_shares))
                      for _ in range(count))
        days_out = tuple(_sample_days_out(count, rng))
        out.append((types, days_out))
    return out


class TestEnsemble:
    @pytest.mark.parametrize("mean", [1.0, 2.0, 260.0, 1000.0])
    @pytest.mark.parametrize("lf", [1.4, 1.8])
    def test_one_choice_call_per_day_equals_parent(self, lf, mean):
        # days of one customer (the Poisson draw of a mean of 1 or 2 is
        # often 0) up to a thousand
        for seed in (0, 1, 17):
            cfg = small_config(loading_factors=(lf,), base_seed=seed, mean_daily_arrivals=mean)
            got = [(a.types, [d.hex() for d in a.days_out])
                   for _, a in generate_hotel_ensemble(cfg, lf)]
            assert got == [(types, [d.hex() for d in days])
                           for types, days in parent_ensemble(cfg, lf)]
            assert all(type(a) is int for types, _ in got for a in types)

    def test_shape_and_determinism(self):
        cfg = small_config()
        ens = generate_hotel_ensemble(cfg, 1.6)
        assert len(ens) == 3
        again = generate_hotel_ensemble(cfg, 1.6)
        for (s1, a1), (s2, a2) in zip(ens, again):
            assert a1.types == a2.types
            assert a1.days_out == a2.days_out

    def test_type_shares_converge(self):
        cfg = small_config(n_days=7, mean_daily_arrivals=400.0)
        ens = generate_hotel_ensemble(cfg, 1.6)
        model = ens[0][1].model
        counts = np.zeros(model.n_types)
        total = 0
        for _, arrivals in ens:
            for a in arrivals.types:
                counts[a] += 1
            total += len(arrivals.types)
        for a, share in enumerate(model.type_shares):
            emp = counts[a] / total
            assert abs(emp - share) < 3 * math.sqrt(share * (1 - share) / total) + 1e-9

    def test_week_profile_shifts_volume(self):
        cfg = small_config(n_days=14, mean_daily_arrivals=300.0)
        ens = generate_hotel_ensemble(cfg, 1.6)
        counts = [len(a.types) for _, a in ens]
        # Sunday/Monday peak vs the midweek trough, averaged over two weeks
        peak = np.mean([counts[0], counts[6], counts[7], counts[13]])
        trough = np.mean([counts[4], counts[5], counts[11], counts[12]])
        assert peak > trough


class TestIngest:
    def test_multi_night_expansion(self):
        text = CSV_HEADER + "3,10,3,King,low,0,0,0\n"
        by_date = ingest_transactions(io.StringIO(text))
        assert sorted(by_date) == [10, 11, 12]
        for date in (10, 11, 12):
            arr = by_date[date]
            assert arr.types == (0,)
            assert arr.days_out == (float(date - 3),)

    def test_ordering_and_types(self):
        text = (CSV_HEADER
                + "8,10,1,King,low,1,0,0\n"
                + "2,10,1,Suite,high,0,1,1\n")
        by_date = ingest_transactions(io.StringIO(text))
        arr = by_date[10]
        # earlier booking first; flags (group, cro, vip) map to type index
        assert arr.types == (3, 4)
        assert arr.days_out == (8.0, 2.0)

    def test_replicate(self):
        text = CSV_HEADER + "1,5,1,Queen,low,0,0,0\n"
        by_date = ingest_transactions(io.StringIO(text), replicate=3)
        assert len(by_date[5].types) == 3

    @pytest.mark.parametrize("replicate", [2.5, 0, -1])
    def test_replicate_must_be_a_positive_integer(self, replicate):
        text = CSV_HEADER + "1,5,1,Queen,low,0,0,0\n"
        with pytest.raises(ValidationError, match="replicate"):
            ingest_transactions(io.StringIO(text), replicate=replicate)

    def test_empty_file(self):
        assert ingest_transactions(io.StringIO("")) == {}

    def test_header_only(self):
        assert ingest_transactions(io.StringIO(CSV_HEADER)) == {}

    def test_missing_columns(self):
        with pytest.raises(ValidationError, match="missing columns"):
            ingest_transactions(io.StringIO("booking_date,nights\n1,2\n"))

    def test_row_errors_carry_row_number(self):
        bad_rows = [
            "x,10,1,King,low,0,0,0\n",
            "12,10,1,King,low,0,0,0\n",
            "1,10,0,King,low,0,0,0\n",
            "1,10,1,Penthouse,low,0,0,0\n",
            "1,10,1,King,medium,0,0,0\n",
        ]
        for bad in bad_rows:
            with pytest.raises(ValidationError, match="row 3"):
                ingest_transactions(
                    io.StringIO(CSV_HEADER + "1,10,1,King,low,0,0,0\n" + bad)
                )

    @pytest.mark.parametrize("row, replicate", [("1,4,1000000000,King,low,0,0,0\n", 1),
                                                ("1,4,1,King,low,0,0,0\n", 10**12),
                                                ("1,4,1001,King,low,0,0,0\n", 1000)])
    def test_refuses_a_row_past_the_size_bound(self, row, replicate):
        # refused before the row is expanded, so it returns at once
        with pytest.raises(SolverLimitError, match="row 2"):
            ingest_transactions(io.StringIO(CSV_HEADER + row), replicate=replicate)

    def test_size_bound_counts_every_row(self, monkeypatch):
        monkeypatch.setattr(harness, "MAX_DAY_SIZE", 6)
        rows = "1,4,2,King,low,0,0,0\n" + "2,4,1,Queen,low,0,0,0\n"
        by_date = ingest_transactions(io.StringIO(CSV_HEADER + rows), replicate=2)
        assert sum(len(a.types) for a in by_date.values()) == 6
        with pytest.raises(SolverLimitError, match="row 4"):
            ingest_transactions(io.StringIO(CSV_HEADER + rows + "3,9,1,King,low,0,0,0\n"),
                                replicate=2)

    def test_caller_file_left_open(self):
        fh = io.StringIO(CSV_HEADER + "1,4,1,King,low,0,0,0\n")
        ingest_transactions(fh)
        assert not fh.closed

    def test_early_bookings_forecast_the_expected_total(self):
        # bookings made more than 35 days out, before the curve books any:
        # the resolving forecast after t = 0 is the expected total less the
        # customers seen, split by the model's type shares
        text = CSV_HEADER + "".join("%d,50,1,King,low,0,0,0\n" % b for b in (5, 6, 7, 40))
        arrivals = ingest_transactions(io.StringIO(text))[50]
        assert arrivals.days_out == (45.0, 44.0, 43.0, 10.0)
        model = arrivals.model
        for t in (1, 2):
            assert _forecast_counts("resolving", model, arrivals, t, 30.0) == \
                [(30.0 - t) * s for s in model.type_shares]
        # 10 days out the curve has booked 0.8 of the day: 3 seen, 0.75 to come
        assert _forecast_counts("resolving", model, arrivals, 3, 30.0) == \
            pytest.approx([0.75 * s for s in model.type_shares])
        setup = hotel_setup(default_hotel_model(), 1.6, 30.0)
        res = run_bidprice(setup, arrivals, 0, resolve_every=1, expected_total=30.0)
        assert res.meta["lp_solves"] == 4

    def test_file_path(self, tmp_path):
        p = tmp_path / "tx.csv"
        p.write_text(CSV_HEADER + "1,4,1,TwoDouble,high,0,0,1\n")
        by_date = ingest_transactions(p)
        assert by_date[4].types == (1,)


class TestRunExperiment:
    def test_structure_and_ratios(self):
        report = run_experiment(small_config())
        assert len(report["runs"]) == 3 * 2 * 1  # days x trials x policies
        for row in report["runs"]:
            assert 0.0 <= row["ratio"] <= 1.0 + 1e-9
        assert len(report["summary"]) == 1
        s = report["summary"][0]
        assert s["n_runs"] == 6
        assert 0.0 <= s["mean_ratio"] <= 1.0 + 1e-9

    def test_deterministic(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert [r["revenue"] for r in a["runs"]] == [r["revenue"] for r in b["runs"]]

    def test_common_random_numbers(self):
        # both policies on the same (day, trial) share the seed: a policy
        # paired with itself under two names gives identical revenues
        cfg = small_config(policies=(("a", run_myopic), ("b", run_myopic)))
        report = run_experiment(cfg)
        revs = {}
        for r in report["runs"]:
            revs.setdefault((r["day"], r["trial"]), {})[r["policy"]] = r["revenue"]
        for pair in revs.values():
            assert pair["a"] == pair["b"]

    def test_lp_bound_positive(self):
        cfg = small_config()
        ens = generate_hotel_ensemble(cfg, 1.6)
        for setup, arrivals in ens:
            assert lp_bound(setup, arrivals) > 0.0

    @pytest.mark.parametrize("types", [(1.5, 0), (-1, 0), (8,)])
    def test_lp_bound_refuses_bad_types(self, types):
        setup, arrivals = generate_hotel_ensemble(small_config(), 1.6)[0]
        bad = ArrivalSequence(kind="assortment", types=types, model=arrivals.model,
                              products=arrivals.products)
        with pytest.raises(DomainError):
            lp_bound(setup, bad)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            small_config(trials=0)
        with pytest.raises(ValidationError):
            small_config(loading_factors=(1.5, -1.0))

    @pytest.mark.parametrize("field, value", [
        ("trials", 2.5), ("trials", None), ("n_days", 1.5), ("n_days", -1),
        ("base_seed", -1), ("base_seed", 1.5), ("loading_factors", ("a",)),
        # a single number or a string where a sequence is asked
        ("loading_factors", 1.4), ("loading_factors", 2), ("loading_factors", None),
        ("loading_factors", "x"), ("loading_factors", {1.4, 1.6}),
    ])
    def test_config_refuses_counts_and_factors(self, field, value):
        with pytest.raises(ValidationError):
            small_config(**{field: value})

    def test_config_takes_any_sequence_of_loading_factors(self):
        for factors in ([1.4, 1.6], np.array([1.4, 1.6]), (f for f in (1.4, 1.6))):
            assert small_config(loading_factors=factors).loading_factors == (1.4, 1.6)

    @pytest.mark.parametrize("flag", ["no", "False", 0, 1, None, 1.0])
    def test_config_refuses_a_fare_diff_that_is_not_a_bool(self, flag):
        with pytest.raises(ValidationError, match="fare_diff"):
            small_config(fare_diff=flag)

    def test_config_takes_numpy_bools_as_fare_diff(self):
        for flag in (False, True):
            cfg = small_config(fare_diff=np.bool_(flag))
            assert cfg.fare_diff is flag and cfg == small_config(fare_diff=flag)

    @pytest.mark.parametrize("policies", [
        3, None, "myopic", (("x", 3),), (("x",),), ((3, run_myopic),),
        (("x", run_myopic, run_myopic),), (run_myopic,), {("x", run_myopic)},
    ])
    def test_config_refuses_policies_that_are_not_name_callable_pairs(self, policies):
        with pytest.raises(ValidationError, match="polic"):
            small_config(policies=policies)

    def test_config_takes_any_sequence_of_policy_pairs(self):
        pairs = (("a", run_myopic), ("b", run_bidprice))
        for policies in ([list(p) for p in pairs], iter(pairs), np.array(pairs, dtype=object)):
            assert small_config(policies=policies).policies == pairs
        assert small_config(policies=()).policies == ()

    def test_config_takes_numpy_integers(self):
        cfg = small_config(trials=np.int64(2), n_days=np.uint8(1), base_seed=np.int64(3))
        assert (type(cfg.trials), type(cfg.n_days), type(cfg.base_seed)) == (int, int, int)
        assert cfg == small_config(trials=2, n_days=1, base_seed=3)

    @pytest.mark.parametrize("mean", [-1.0, math.nan, math.inf])
    def test_config_refuses_mean_daily_arrivals(self, mean):
        with pytest.raises(ValidationError):
            small_config(mean_daily_arrivals=mean)

    def test_lp_bound_stays_above_the_optimum_before_convergence(self, monkeypatch):
        # stopped after one master solve, the restricted master's objective
        # is below the LP optimum; the bound adds the column-generation gap
        cfg = small_config(mean_daily_arrivals=260.0, base_seed=3)
        setup, arrivals = generate_hotel_ensemble(cfg, 1.6)[0]
        converged = lp_bound(setup, arrivals)
        monkeypatch.setattr(lp, "MAX_COLGEN_ROUNDS", 1)
        lp._cached_solve.cache_clear()  # or the stopped solve reads the converged one
        stopped = solve_choice_lp(setup, count_types(arrivals.model, arrivals.types),
                                  arrivals.model, arrivals.products)
        assert stopped.objective < converged - 1000.0
        assert lp_bound(setup, arrivals) >= converged


class TestCsvOutput:
    def test_summary_roundtrip_byte_identical(self, tmp_path):
        report = run_experiment(small_config())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_summary_csv(report, p1)
        write_summary_csv(run_experiment(small_config()), p2)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.startswith(CSV_SCHEMA_HEADER + "\n")
        assert "mean_ratio" in text

    def test_runs_csv(self, tmp_path):
        report = run_experiment(small_config())
        p = tmp_path / "runs.csv"
        write_runs_csv(report, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == CSV_SCHEMA_HEADER
        assert len(lines) == 2 + len(report["runs"])
