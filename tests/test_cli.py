"""Command-line interface: subcommands, output formats, exit codes."""

import csv
import io
import json
import math
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from multiprice import ArrivalSequence, Item, PriceSet, Setup, harness, run_balance_fractional
from multiprice.cli import EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, build_parser, main
from multiprice.perturb import MAX_GRID_POINTS
from multiprice.harness import CSV_SCHEMA_HEADER
from multiprice.valuefn import _value_function


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv_text(text):
    lines = text.splitlines()
    assert lines[0] == CSV_SCHEMA_HEADER
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


class TestValuefn:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "valuefn", "--prices", "150,450")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["alphas"][0] == pytest.approx(0.6277618613, abs=1e-8)
        assert data["F"] == pytest.approx(0.4662, abs=1e-3)

    def test_grid_csv(self, capsys):
        code, out, _ = run_cli(capsys, "valuefn", "--prices", "150,450",
                               "--grid", "4")
        assert code == EXIT_OK
        rows = read_csv_text(out)
        assert len(rows) == 5
        assert float(rows[0]["phi"]) == 0.0
        assert float(rows[-1]["phi"]) == pytest.approx(450.0, abs=1e-6)

    def test_invalid_prices(self, capsys):
        code, _, err = run_cli(capsys, "valuefn", "--prices", "450,150")
        assert code == EXIT_VALIDATION
        assert "error" in err

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "vf.json"
        code, _, _ = run_cli(capsys, "--out", str(path), "valuefn",
                             "--prices", "10")
        assert code == EXIT_OK
        assert json.loads(path.read_text())["F"] == pytest.approx(0.632, abs=1e-3)


class TestGridBounds:
    # the grid checks run before any grid is built, so refusing a huge one
    # allocates next to nothing
    @pytest.mark.parametrize("argv", [
        ["valuefn", "--prices", "1,3", "--grid", str(MAX_GRID_POINTS)],
        ["valuefn", "--prices", "1,3", "--grid", "100000000"],
        # (m + 1)(k + 1) = 3 * 3,333,334 grid points, just past the bound
        ["perturb", "verify", "--prices", "1,3", "--k", "3333333"],
        ["perturb", "verify", "--prices", "1,3", "--k", "100000000"],
    ], ids=" ".join)
    def test_past_the_bound_is_a_solver_limit(self, capsys, argv):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_SOLVER
        assert out == "" and err.startswith("solver limit:") and "exceeds" in err
        assert peak < 1 << 20


class TestPerturbVerify:
    def test_default_certified_c_passes(self, capsys):
        code, out, _ = run_cli(capsys, "perturb", "verify",
                               "--prices", "150,450", "--k", "3")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["ok"] is True
        assert "certified_bounds" in report

    def test_inflated_c_fails(self, capsys):
        code, out, _ = run_cli(capsys, "perturb", "verify",
                               "--prices", "100", "--k", "5", "--c", "0.9")
        assert code == EXIT_OK
        assert json.loads(out)["ok"] is False

    def test_single_unit(self, capsys):
        code, out, _ = run_cli(capsys, "perturb", "verify",
                               "--prices", "250,750", "--single-unit")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["ok"] is True
        assert report["c"] == pytest.approx(0.3, abs=1e-9)


def instance_file(tmp_path, willing):
    raw = {
        "setup": {"items": [{"k": 2, "prices": [10.0, 20.0]},
                            {"k": 1, "prices": [15.0]}]},
        "arrivals": {"kind": "deterministic", "willing": willing},
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(raw))
    return path


class TestSimulateAndLpBound:
    def test_simulate(self, tmp_path, capsys):
        path = instance_file(tmp_path, [[2, 1], [1, 0], [2, 1]])
        code, out, _ = run_cli(capsys, "--trials", "2", "simulate",
                               "--config", str(path))
        assert code == EXIT_OK
        rows = read_csv_text(out)
        assert len(rows) == 2  # default single policy x 2 trials
        assert {r["policy"] for r in rows} == {"balance"}
        for r in rows:
            assert 0.0 <= float(r["ratio_vs_lp"]) <= 1.0 + 1e-9

    def test_simulate_columns(self, tmp_path, capsys):
        # no policy of the registry reports an override fraction, so
        # simulate writes no column for it
        path = instance_file(tmp_path, [[2, 1], [1, 0]])
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == EXIT_OK
        assert list(read_csv_text(out)[0]) == ["policy", "trial", "revenue", "ratio_vs_lp",
                                               "runtime_ms"]

    def test_simulate_policy_list(self, tmp_path, capsys):
        raw = json.loads(instance_file(tmp_path, [[1, 1]]).read_text())
        raw["policies"] = ["myopic", "gnr"]
        path = tmp_path / "multi.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == EXIT_OK
        assert {r["policy"] for r in read_csv_text(out)} == {"myopic", "gnr"}

    def test_simulate_unknown_policy(self, tmp_path, capsys):
        raw = json.loads(instance_file(tmp_path, [[1, 1]]).read_text())
        raw["policies"] = ["bogus"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == EXIT_VALIDATION

    def test_simulate_fluid_balance(self, tmp_path, capsys):
        # fluid balance is in the registry: simulate runs it over
        # single-offer arrivals, with the LP bound above its revenue, and
        # refuses deterministic ones
        raw = {"setup": {"items": [{"k": 1, "prices": [10.0, 20.0]}]},
               "arrivals": {"kind": "single_offer", "probs": [[[0.5, 0.25]], [[1.0, 0.5]]]},
               "policies": ["balance_fractional"]}
        path = tmp_path / "fluid.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run_cli(capsys, "--trials", "2", "simulate", "--config", str(path))
        assert code == EXIT_OK
        rows = read_csv_text(out)
        setup = Setup(items=(Item(k=1, priceset=PriceSet([10.0, 20.0])),))
        arrivals = ArrivalSequence(kind="single_offer", probs=raw["arrivals"]["probs"])
        revenue = run_balance_fractional(setup, arrivals, 0).revenue
        assert [(r["policy"], float(r["revenue"])) for r in rows] == \
            [("balance_fractional", revenue)] * 2
        assert all(0.0 < float(r["ratio_vs_lp"]) <= 1.0 + 1e-9 for r in rows)
        raw["arrivals"] = {"kind": "deterministic", "willing": [[2], [1]]}
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == EXIT_VALIDATION and out == ""
        assert err.startswith("error: balance_fractional takes single_offer arrivals")

    def test_lp_bound(self, tmp_path, capsys):
        path = instance_file(tmp_path, [[2, 1], [2, 1], [2, 1]])
        code, out, _ = run_cli(capsys, "lp-bound", "--instance", str(path))
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["objective"] == pytest.approx(55.0, abs=1e-6)
        assert len(data["duals_items"]) == 2

    @staticmethod
    def huge_instance(tmp_path):
        """600 customers over 20 items: an assignment LP past the solver's size."""
        raw = {
            "setup": {"items": [{"k": 1, "prices": [float(j) for j in range(1, 6)]}
                                for _ in range(20)]},
            "arrivals": {"kind": "deterministic",
                         "willing": [[5] * 20 for _ in range(600)]},
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(raw))
        return path

    def test_lp_bound_solver_limit(self, tmp_path, capsys):
        path = self.huge_instance(tmp_path)
        code, _, err = run_cli(capsys, "lp-bound", "--instance", str(path))
        assert code == EXIT_SOLVER
        assert "solver limit" in err

    def test_simulate_without_the_bound(self, tmp_path, capsys):
        # simulate runs the policies all the same, with no ratio to report
        path = self.huge_instance(tmp_path)
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == EXIT_OK and err == ""
        rows = read_csv_text(out)
        assert len(rows) == 1
        assert rows[0]["ratio_vs_lp"] == ""
        assert float(rows[0]["revenue"]) == 100.0  # each item's unit sold at 5


ONE_ITEM = {"k": 1, "prices": [1.0, 3.0]}


def deterministic_text(willing, item=ONE_ITEM):
    return json.dumps({"setup": {"items": [item]},
                       "arrivals": {"kind": "deterministic", "willing": willing}})


# instance file text of each malformed case; None: no file at the path
BAD_INSTANCES = {
    "willing0": deterministic_text([[3]]),  # price index above the item's two
    "willing1": deterministic_text([1, 2]),  # 1-D
    "fractional-k": deterministic_text([[1]], {"k": 1.5, "prices": [1.0, 3.0]}),
    "no-items": json.dumps({"setup": {}, "arrivals": {"kind": "deterministic",
                                                      "willing": [[1]]}}),
    "bad-prices": deterministic_text([[1]], {"k": 1, "prices": ["a"]}),
    # a string of digits is a sequence, but of strings, not the prices 1 and 2
    "string-prices": deterministic_text([[1]], {"k": 1, "prices": "12"}),
    "bool-prices": deterministic_text([[1]], {"k": 1, "prices": [True, 2.0]}),
    "number-prices": deterministic_text([[1]], {"k": 1, "prices": 5}),
    "number-item": json.dumps({"setup": {"items": [5]}, "arrivals": {"kind": "deterministic",
                                                                     "willing": [[1]]}}),
    "bad-json": '{"setup": ',
    "missing-file": None,
}


def write_file(tmp_path, name, text):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    return path


def instance_argv(text, command):
    def argv(tmp_path):
        path = write_file(tmp_path, "bad.json", text)
        return [command, "--config" if command == "simulate" else "--instance", str(path)]
    return argv


# argv of each malformed-input case, made in a test's tmp_path
MALFORMED = {
    "%s-%s" % (name, command): instance_argv(text, command)
    for name, text in BAD_INSTANCES.items() for command in ("lp-bound", "simulate")
}
MALFORMED.update({
    "valuefn-prices": lambda tmp_path: ["valuefn", "--prices", "a,b"],
    "hotel-sim-loading-factors": lambda tmp_path: ["hotel-sim", "--loading-factors", "x"],
    "hotel-sim-no-loading-factors": lambda tmp_path: ["hotel-sim", "--loading-factors", ","],
    "hotel-sim-arrivals": lambda tmp_path: ["hotel-sim", "--arrivals", "-5"],
    "simulate-policy-list": lambda tmp_path: [
        "simulate", "--config", str(write_file(tmp_path, "policies.json", json.dumps(
            {**json.loads(deterministic_text([[1]])), "policies": [["balance"]]})))],
    "unwritable-out": lambda tmp_path: ["--out", str(tmp_path / "no-dir" / "vf.json"),
                                        "valuefn", "--prices", "1"],
    # NaN and infinity fail every numeric check
    "valuefn-prices-nan": lambda tmp_path: ["valuefn", "--prices", "nan"],
    "valuefn-prices-inf": lambda tmp_path: ["valuefn", "--prices", "1,inf"],
    "perturb-c-nan": lambda tmp_path: ["perturb", "verify", "--prices", "1,3", "--c", "nan"],
    "hotel-sim-gamma-nan": lambda tmp_path: ["--trials", "1", "--out", str(tmp_path / "s.csv"),
                                             "hotel-sim", "--days", "1", "--arrivals", "12",
                                             "--gamma", "nan"],
    "hotel-sim-arrivals-inf": lambda tmp_path: ["hotel-sim", "--arrivals", "inf"],
    "hotel-sim-loading-factors-nan": lambda tmp_path: ["hotel-sim", "--loading-factors", "nan"],
})


class TestMalformedInstance:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exit_2_without_traceback(self, tmp_path, capsys, case):
        code, out, err = run_cli(capsys, *MALFORMED[case](tmp_path))
        assert code == EXIT_VALIDATION
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command", ["lp-bound", "simulate"])
    def test_fractional_instance_is_named(self, tmp_path, capsys, command):
        # fluid balance is a policy, not an arrival kind: the kind is named
        text = json.dumps({"setup": {"items": [ONE_ITEM]},
                           "arrivals": {"kind": "fractional", "probs": [[[0.5, 0.5]]]}})
        code, out, err = run_cli(capsys, *instance_argv(text, command)(tmp_path))
        assert code == EXIT_VALIDATION
        assert err.startswith("error:") and "fractional" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["lp-bound", "simulate"])
    def test_assortment_instance_is_refused(self, tmp_path, capsys, command):
        text = json.dumps({"setup": {"items": [ONE_ITEM]},
                           "arrivals": {"kind": "assortment", "types": [0]}})
        code, out, err = run_cli(capsys, *instance_argv(text, command)(tmp_path))
        assert code == EXIT_VALIDATION
        assert err.startswith("error:") and "hotel-sim" in err
        assert out == ""


class TestCountFlags:
    @pytest.mark.parametrize("argv", [
        ["--trials", "0", "adversary", "--prices", "1,3"],
        ["--trials", "-1", "adversary", "--prices", "1,3"],
        ["--trials", "0", "hotel-sim", "--days", "1"],
        ["--trials", "x", "hotel-sim", "--days", "1"],
        ["--seed", "-1", "valuefn", "--prices", "1"],
        ["hotel-sim", "--days", "0"],
        ["valuefn", "--prices", "1,3", "--grid", "-1"],
        ["adversary", "--prices", "1,3", "--n", "0"],
        ["adversary", "--prices", "1,3", "--k", "0"],
        ["perturb", "verify", "--prices", "1,3", "--k", "0"],
    ], ids=" ".join)
    def test_below_least_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert err.startswith("error:") and "expected an integer" in err
        assert out == ""

    @pytest.mark.parametrize("field, value", [("trials", 0), ("trials", 2.5), ("seed", -1),
                                              ("seed", 1.5), ("seed", True)])
    def test_instance_counts(self, tmp_path, capsys, field, value):
        raw = json.loads(instance_file(tmp_path, [[1, 1]]).read_text())
        raw[field] = value
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == EXIT_VALIDATION
        assert err.startswith("error:")

    def test_grid_zero_is_json(self, capsys):
        code, out, _ = run_cli(capsys, "valuefn", "--prices", "1,3", "--grid", "0")
        assert code == EXIT_OK
        assert json.loads(out)["prices"] == [1.0, 3.0]


class TestParserBuiltOnce:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_options_do_not_reach_the_next_call(self, tmp_path, capsys):
        out = tmp_path / "first.csv"
        code, _, _ = run_cli(capsys, "--seed", "5", "--trials", "2", "--out", str(out),
                             "adversary", "--prices", "1,3", "--n", "10", "--k", "2")
        assert code == EXIT_OK and out.exists()
        code, printed, _ = run_cli(capsys, "perturb", "verify", "--prices", "1,3", "--k", "3",
                                   "--c", "0.1")
        assert code == EXIT_OK and json.loads(printed)["c"] == 0.1
        args = build_parser().parse_args(["perturb", "verify", "--prices", "1,3"])
        assert (args.seed, args.trials, args.out, args.k, args.c, args.single_unit) == \
            (None, None, None, 1, None, False)
        assert not hasattr(args, "n")
        # a later run gets its own defaults: stdout, the command's default seed
        code, printed, _ = run_cli(capsys, "--trials", "2", "adversary", "--prices", "1,3",
                                   "--n", "10")
        assert code == EXIT_OK and printed
        first = read_csv_text(out.read_text())
        again = read_csv_text(printed)
        assert [r["policy"] for r in first] != [r["policy"] for r in again]  # k = 2, then 1
        code, printed, _ = run_cli(capsys, "--seed", "0", "--trials", "2", "adversary",
                                   "--prices", "1,3", "--n", "10")
        assert read_csv_text(printed) == again


class TestAdversary:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "--trials", "3", "--seed", "1",
                               "adversary", "--prices", "1,3",
                               "--n", "20", "--k", "1")
        assert code == EXIT_OK
        rows = read_csv_text(out)
        names = [r["policy"] for r in rows]
        assert names[0] == "analytic_bound"
        assert "ranking" in names  # included at k = 1
        assert float(rows[0]["mean_ratio"]) == pytest.approx(0.4664, abs=1e-3)
        for r in rows[1:]:
            assert 0.0 < float(r["mean_ratio"]) <= 1.0 + 1e-9

    def test_no_ranking_for_multiunit(self, capsys):
        code, out, _ = run_cli(capsys, "--trials", "2", "adversary",
                               "--prices", "1,3", "--n", "10", "--k", "2")
        assert code == EXIT_OK
        assert "ranking" not in [r["policy"] for r in read_csv_text(out)]

    def test_too_large_an_instance_is_a_solver_limit(self, capsys):
        code, out, err = run_cli(capsys, "adversary", "--prices", "1,3", "--n", "100000000")
        assert code == EXIT_SOLVER
        assert out == "" and err.startswith("solver limit:") and "exceeds" in err

    def test_one_value_function_build_per_command(self, capsys):
        _value_function.cache_clear()
        code, _, _ = run_cli(capsys, "--trials", "3", "adversary", "--prices", "1,3",
                             "--n", "10")
        assert code == EXIT_OK
        assert _value_function.cache_info().misses == 1


class TestHotelSim:
    def test_small_run(self, tmp_path, capsys):
        out_path = tmp_path / "summary.csv"
        runs_path = tmp_path / "runs.csv"
        code, _, _ = run_cli(
            capsys, "--trials", "1", "--out", str(out_path),
            "hotel-sim", "--loading-factors", "1.6", "--days", "2",
            "--arrivals", "12", "--runs-out", str(runs_path),
        )
        assert code == EXIT_OK
        rows = read_csv_text(out_path.read_text())
        assert {r["policy"] for r in rows} == {
            "myopic", "gnr", "balance", "bidprice_one_shot",
            "bidprice_resolving", "bidprice_learning",
            "bidprice_clairvoyant", "hybrid_resolving",
        }
        for r in rows:
            assert 0.0 <= float(r["mean_ratio"]) <= 1.0 + 1e-9
        assert runs_path.exists()

    def test_summary_to_stdout_without_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "--trials", "1", "hotel-sim", "--days", "1",
                               "--arrivals", "12", "--loading-factors", "1.6")
        assert code == EXIT_OK
        assert len(read_csv_text(out)) == 8  # one row per policy of the suite
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--arrivals", "1e300"],
                                      ["--arrivals", "30", "--loading-factors", "1e-9"]])
    def test_oversized_day_is_a_solver_limit(self, capsys, argv):
        code, out, err = run_cli(capsys, "hotel-sim", "--days", "1", *argv)
        assert code == EXIT_SOLVER
        assert err.startswith("solver limit:") and out == ""

    def test_bad_gamma_refused_before_any_work(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("ensemble built before gamma was checked")

        monkeypatch.setattr(harness, "generate_hotel_ensemble", fail)
        code, out, err = run_cli(capsys, "--trials", "10", "hotel-sim", "--gamma", "0.5")
        assert code == EXIT_VALIDATION
        assert err.startswith("error:") and "gamma" in err and out == ""


# -- generated argv ------------------------------------------------------------

# any float, NaN, infinities and negatives included, or a plausible one
FLOATS = st.one_of(st.floats(), st.floats(0.5, 50.0))
PRICE_LISTS = st.one_of(st.lists(FLOATS, max_size=4),
                        st.lists(st.floats(0.5, 50.0), min_size=1, max_size=3,
                                 unique=True).map(sorted))
COUNTS = st.integers(-1, 3)


@st.composite
def fitting_instances(draw):
    """Instances whose arrivals fit their items."""
    items = draw(st.lists(st.fixed_dictionaries({"k": st.integers(1, 3), "prices": PRICE_LISTS}),
                          min_size=1, max_size=3))
    ms = [len(it["prices"]) for it in items]
    rows = range(draw(st.integers(0, 6)))
    if draw(st.booleans()):
        arrivals = {"kind": "deterministic",
                    "willing": [[draw(st.integers(0, m)) for m in ms] for _ in rows]}
    else:
        arrivals = {"kind": "single_offer",
                    "probs": [[[draw(st.floats(0.0, 1.0)) for _ in range(m)] for m in ms]
                              for _ in rows]}
    return {"setup": {"items": items}, "arrivals": arrivals}


INSTANCES = st.one_of(fitting_instances(), st.fixed_dictionaries(
    {"setup": st.fixed_dictionaries({"items": st.lists(st.fixed_dictionaries(
        {"k": st.one_of(COUNTS, FLOATS), "prices": PRICE_LISTS}), max_size=3)}),
     "arrivals": st.one_of(
         st.fixed_dictionaries({"kind": st.just("deterministic"), "willing": st.lists(
             st.lists(st.integers(-1, 4), max_size=3), max_size=6)}),
         # rows of per-item lists, and rows or entries of other JSON types,
         # which the arrivals' own check refuses after _load_instance
         st.fixed_dictionaries({"kind": st.just("single_offer"), "probs": st.lists(
             st.one_of(st.lists(st.one_of(st.lists(FLOATS, max_size=3), st.text(max_size=2)),
                                max_size=3),
                       FLOATS, st.dictionaries(st.text(max_size=2), FLOATS, max_size=2)),
             max_size=4)}),
         st.fixed_dictionaries({"kind": st.sampled_from(["fractional", "assortment", "x"])}))},
    optional={"trials": st.one_of(st.integers(-1, 2), FLOATS),
              "seed": st.one_of(st.integers(-1, 2**70), FLOATS),
              "policies": st.lists(st.sampled_from(
                  ["balance", "ranking", "myopic", "conservative", "gnr", "x"]), max_size=3)}))


def opt(name, values):
    """[--name=value] or [] (the = form lets a value such as -inf reach the
    option's own check)."""
    return st.one_of(st.just([]), values.map(lambda v: ["--%s=%s" % (name, v)]))


def prices_text(prices):
    return ",".join(repr(float(r)) for r in prices)


@st.composite
def cli_argv(draw):
    """(argv with a {tmp} placeholder for paths, instance JSON or None)."""
    argv = draw(opt("seed", st.integers(-1, 2**70))) + draw(opt("trials", st.integers(-1, 2)))
    argv += ["--out={tmp}/out"]
    command = draw(st.sampled_from(
        ["valuefn", "perturb", "simulate", "lp-bound", "adversary", "hotel-sim"]))
    prices = ["--prices=" + prices_text(draw(PRICE_LISTS))]
    raw = None
    if command == "valuefn":
        argv += ["valuefn"] + prices + draw(opt("grid", st.integers(-1, 5)))
    elif command == "perturb":
        argv += ["perturb", "verify"] + prices + draw(opt("k", COUNTS)) + draw(opt("c", FLOATS))
        argv += draw(st.sampled_from([[], ["--single-unit"]]))
    elif command in ("simulate", "lp-bound"):
        raw = draw(INSTANCES)
        argv += [command, ("--config=" if command == "simulate" else "--instance=")
                 + "{tmp}/instance.json"]
    elif command == "adversary":
        argv += ["adversary"] + prices
        argv += draw(opt("n", st.integers(-1, 8))) + draw(opt("k", COUNTS))
    else:
        arrivals = st.one_of(st.floats(max_value=30.0), st.floats(0.0, 30.0),
                             st.sampled_from([math.nan, math.inf, -math.inf]))
        argv += ["hotel-sim", "--days=1", "--arrivals=%r" % draw(arrivals)]
        argv += draw(opt("loading-factors", st.lists(FLOATS, max_size=3).map(prices_text)))
        argv += draw(opt("gamma", FLOATS))
        argv += draw(st.sampled_from([[], ["--fare-diff"]]))
        argv += draw(st.sampled_from([[], ["--runs-out={tmp}/runs.csv"]]))
    return argv, raw


class TestGeneratedArgv:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(case=(["--out={tmp}/out", "valuefn", "--prices=nan"], None))
    @example(case=(["--out={tmp}/out", "perturb", "verify", "--prices=1,3", "--c=nan"], None))
    @example(case=(["--out={tmp}/out", "--trials=1", "hotel-sim", "--days=1",
                    "--arrivals=inf"], None))
    @given(case=cli_argv())
    def test_exit_code_and_stderr(self, tmp_path, capsys, case):
        # every input ends in exit 0, a validation error (2) or a solver
        # limit (3); stderr holds nothing but those errors' one-line reports
        # or argparse's own usage text
        template, raw = case
        argv = [a.replace("{tmp}", str(tmp_path)) for a in template]
        if raw is not None:
            (tmp_path / "instance.json").write_text(json.dumps(raw))
        try:
            code = main(argv)
            usage = False
        except SystemExit as exc:
            code, usage = exc.code, True
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_SOLVER)
        if usage:
            assert code == EXIT_VALIDATION
            assert err.startswith("usage: ") and ": error: " in err.splitlines()[-1]
        else:
            assert (code == EXIT_OK) == (err == "")
            assert all(line.startswith(("error: ", "solver limit: "))
                       for line in err.splitlines())
