"""The benchmark's output checks pass on real outputs and fail on wrong ones.

    python3 -m pytest -q perfbench/test_checks.py

Each check is fed an output of the program, then the same output with one
value made wrong, so that a check that could never fail shows up here.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from multiprice.cli import main as cli_main  # noqa: E402
from workloads import Bounds, Hotel  # noqa: E402


def _run(*argv):
    assert cli_main(list(argv)) == 0


def _rewrite_csv(text, policy, column, value):
    lines = text.splitlines()
    header = lines[1].split(",")
    col = header.index(column)
    for i, line in enumerate(lines[2:], start=2):
        cells = line.split(",")
        if cells[header.index("policy")] == policy:
            cells[col] = repr(value)
            lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


# -- adversary --------------------------------------------------------------

POLICIES_K1 = ["balance", "ranking", "myopic", "conservative", "gnr"]


def _adversary_csv(tmp_path, prices):
    out = tmp_path / "adv.csv"
    _run("--seed", "5", "--trials", "2", "--out", str(out),
         "adversary", "--prices", prices, "--n", "20", "--k", "1")
    return out.read_text()


def test_adversary_accepts_program_output(tmp_path):
    checks.check_adversary_csv(_adversary_csv(tmp_path, "1,3"), 3.0, POLICIES_K1)


def test_adversary_rejects_F_of_wrong_xi(tmp_path):
    text = _adversary_csv(tmp_path, "1,2")
    with pytest.raises(checks.CheckError, match="analytic_bound"):
        checks.check_adversary_csv(text, 3.0, POLICIES_K1)


def test_adversary_rejects_ratio_above_one(tmp_path):
    text = _rewrite_csv(_adversary_csv(tmp_path, "1,3"), "gnr", "mean_ratio", 1.001)
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_adversary_csv(text, 3.0, POLICIES_K1)


def test_adversary_rejects_missing_header(tmp_path):
    text = _adversary_csv(tmp_path, "1,3").split("\n", 1)[1]
    with pytest.raises(checks.CheckError, match="CSV"):
        checks.check_adversary_csv(text, 3.0, POLICIES_K1)


def test_low_phase_share_matches_closed_form_F():
    # B_2 = e^(1 - 2 alpha_1) / xi with alpha_1 = -ln(1 - F); at xi = 3
    # the low phase holds about 74% of the groups
    assert abs(checks.low_phase_share(3.0) - 0.7418297457056817) < 1e-12
    assert abs(checks.two_price_ratio(3.0) - 0.46621484974697075) < 1e-12


# -- bounds -----------------------------------------------------------------

@pytest.fixture
def bounds_case(tmp_path):
    wl = Bounds(seed=3, workdir=str(tmp_path))
    wl.n = 12
    path = wl.make_input(11, 1)
    for argv in wl.argvs(path, "t"):
        _run(*argv)
    with open(path) as fh:
        willing = np.array(json.load(fh)["arrivals"]["willing"])
    return json.loads(wl.collect("t")), willing


def _check_bounds(out, willing):
    checks.check_lp_bound(out, willing, (1.0, 3.0), [1] * willing.shape[1])


def test_bounds_accepts_program_output(bounds_case):
    _check_bounds(*bounds_case)


def test_bounds_rejects_objective_off_by_1e3(bounds_case):
    out, willing = bounds_case
    out["objective"] *= 1.0 + 1e-3
    with pytest.raises(checks.CheckError, match="objective"):
        _check_bounds(out, willing)


def test_bounds_rejects_one_violated_dual_constraint(bounds_case):
    out, willing = bounds_case
    z = out["duals_arrivals"]
    # move dual mass from one customer to another: the dual objective is
    # unchanged, but the first customer's constraints are now short
    t = int(np.argmax(z))
    other = (t + 1) % len(z)
    z[t] -= 0.5
    z[other] += 0.5
    with pytest.raises(checks.CheckError, match="dual constraint violated"):
        _check_bounds(out, willing)


def test_bounds_rejects_wrong_dual_objective(bounds_case):
    out, willing = bounds_case
    out["duals_items"] = [y + 0.1 for y in out["duals_items"]]
    with pytest.raises(checks.CheckError, match="dual objective"):
        _check_bounds(out, willing)


# -- hotel ------------------------------------------------------------------

@pytest.fixture(scope="module")
def hotel_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("hotel")
    wl = Hotel(seed=2, workdir=str(tmp))
    inp = wl.make_input(7, 1)
    for argv in wl.argvs(inp, "t"):
        _run(*argv)
    return wl, inp, wl.collect("t")


def test_hotel_accepts_program_output(hotel_case):
    wl, inp, output = hotel_case
    wl.check(inp, output)


def test_hotel_rejects_lp_bound_off_by_1e3(hotel_case):
    wl, inp, (summary, runs) = hotel_case
    lines = runs.splitlines()
    header = lines[1].split(",")
    col = header.index("lp_bound")
    cells = lines[2].split(",")
    cells[col] = repr(float(cells[col]) * (1.0 + 1e-3))
    lines[2] = ",".join(cells)
    with pytest.raises(checks.CheckError, match="lp_bound"):
        wl.check(inp, (summary, "\n".join(lines) + "\n"))


def test_hotel_rejects_revenue_above_capacity(hotel_case):
    wl, inp, (summary, runs) = hotel_case
    bad = _rewrite_csv(runs, "myopic", "revenue", 1e9)
    with pytest.raises(checks.CheckError, match="revenue"):
        wl.check(inp, (summary, bad))


def test_hotel_rejects_wrong_run_count(hotel_case):
    wl, inp, (summary, runs) = hotel_case
    bad = _rewrite_csv(summary, "gnr", "n_runs", 3)
    with pytest.raises(checks.CheckError, match="n_runs"):
        wl.check(inp, (bad, runs))


def test_reference_choice_lp_is_the_hindsight_bound_of_a_tiny_case():
    # one customer of type 0, ample rooms: the LP offers that customer the
    # single best assortment, so it must equal the best assortment revenue
    cat = checks.HotelCatalog(os.path.join(ROOT, "src", "multiprice", "data", "hotel_mnl.json"))
    A, c = cat.columns()
    counts = [1] + [0] * (len(cat.types) - 1)
    best = max(c[: (1 << cat.n_products) - 1])
    assert abs(cat.lp_bound([100] * len(cat.rooms), counts) - best) < 1e-9
