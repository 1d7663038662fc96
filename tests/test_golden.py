"""Golden traces: every policy runner on every arrival kind it accepts, and
two CLI runs, must reproduce the digests pinned in golden_digests.json
bit for bit (revenue, sales log, final inventory, meta and dual trail,
floats compared by their hex form, so RNG draw order and tie-breaking are
pinned too).

Regenerate the file only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import os
import sys
from functools import lru_cache

import numpy as np
import pytest

from multiprice import (
    ArrivalSequence,
    ExperimentConfig,
    Item,
    PriceSet,
    Setup,
    build_instance,
    build_value_function,
    generate_hotel_ensemble,
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
from multiprice.cli import main

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "golden_digests.json")
SEEDS = (0, 1, 12345)


def canon(x):
    """Plain, exact form of a run's outputs: numpy scalars become Python
    numbers and floats their hex string, so repr fixes every bit."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, dict):
        return tuple(sorted((k, canon(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple, np.ndarray)):
        return tuple(canon(v) for v in x)
    if x is None:
        return None
    raise TypeError("no canonical form for %r" % (type(x),))


def digest_result(res):
    text = repr(canon((res.revenue, res.sales_log, res.final_inventory,
                       res.meta, res.duals_trace)))
    return hashlib.sha256(text.encode()).hexdigest()


def _random_items(rng, n, m_max, k_max):
    return tuple(
        Item(k=int(rng.integers(1, k_max + 1)),
             priceset=PriceSet(sorted(rng.uniform(1, 100, size=int(rng.integers(1, m_max + 1))))))
        for _ in range(n)
    )


@lru_cache(maxsize=None)
def instance(name):
    if name == "det_random":
        rng = np.random.default_rng(1001)
        items = _random_items(rng, 5, 3, 8)
        willing = np.array([[int(rng.integers(0, it.priceset.m + 1)) for it in items]
                            for _ in range(60)])
        return Setup(items=items), ArrivalSequence(kind="deterministic", willing=willing)
    if name == "det_adversary":
        inst = build_instance(build_value_function([1.0, 3.0]), 12, 2, 5)
        return inst.setup, inst.arrivals
    if name in ("single_offer", "fractional"):  # fractional: the fluid policy's instance
        rng = np.random.default_rng(1002 if name == "single_offer" else 1003)
        items = _random_items(rng, 3, 3, 6)
        probs = tuple(
            tuple(tuple(float(p) * (rng.random() < 0.8)
                        for p in rng.uniform(0, 1.0 / it.priceset.m, size=it.priceset.m))
                  for it in items)
            for _ in range(40)
        )
        return Setup(items=items), ArrivalSequence(kind="single_offer", probs=probs)
    if name.startswith("ties_"):
        # identical items, and p * price equal at both prices: exact ties
        # that only the scan order breaks
        items = tuple(Item(k=2, priceset=PriceSet([1.0, 2.0])) for _ in range(3))
        rows = (((0.5, 0.25),) * 3,
                ((0.8, 0.4), (0.8, 0.4), (0.0, 0.0)),
                ((0.0, 0.0), (0.6, 0.3), (0.6, 0.3)))
        return Setup(items=items), ArrivalSequence(kind="single_offer", probs=rows * 10)
    if name.startswith("assortment"):
        # rooms to spare, or scarce enough that the hybrid overrides often
        lf = 1.8 if name == "assortment_scarce" else 0.9
        cfg = ExperimentConfig(loading_factors=(lf,), n_days=1,
                               mean_daily_arrivals=120.0, base_seed=3)
        return generate_hotel_ensemble(cfg, lf)[0]
    raise KeyError(name)


CURVE = 120.0  # the expected number of customers of the day
DET = ("det_random", "det_adversary")
ASSORT = ("assortment", "assortment_scarce")
SINGLE = ("single_offer", "ties_single_offer")
STATIC = DET + SINGLE + ASSORT

# (case name, runner, instance names, keyword arguments)
CASES = (
    [("balance", run_balance, DET + SINGLE, {}),
     ("balance_ideal", run_balance, DET + SINGLE, {"perturbed": False}),
     ("balance_duals", run_balance, DET + SINGLE, {"duals_trace": True}),
     ("ranking", run_ranking, DET, {}),
     ("myopic", run_myopic, STATIC, {}),
     ("gnr", run_gnr, STATIC, {}),
     ("conservative", run_conservative, STATIC, {}),
     ("balance_fractional", run_balance_fractional, ("fractional", "ties_fractional"), {}),
     ("balance_assortment", run_balance_assortment, ASSORT, {}),
     ("balance_assortment_ideal", run_balance_assortment, ASSORT,
      {"perturbed": False})]
    + [("bidprice_" + mode, run_bidprice, ASSORT,
        {"mode": mode, "expected_total": CURVE, "resolve_every": 30})
       for mode in ("one_shot", "resolving", "learning", "clairvoyant")]
    + [("hybrid_gamma_%s" % gamma, run_hybrid, ASSORT,
        {"gamma": gamma, "expected_total": CURVE, "resolve_every": 30})
       for gamma in (1.2, 3.0)]
)

CASE_IDS = ["%s/%s" % (case, inst) for case, _, insts, _ in CASES for inst in insts]


def policy_digests(case_id):
    case, inst = case_id.split("/")
    _, fn, _, kw = next(c for c in CASES if c[0] == case)
    setup, arrivals = instance(inst)
    return {"%s/%d" % (case_id, s): digest_result(fn(setup, arrivals, rng_seed=s, **kw))
            for s in SEEDS}


CLI_RUNS = {
    "cli_adversary": ["--trials", "3", "adversary", "--prices", "1,3",
                      "--n", "30", "--k", "2"],
    "cli_hotel_sim": ["--trials", "1", "hotel-sim", "--days", "1",
                      "--loading-factors", "1.6"],
}


def cli_digests(name, tmp_dir):
    """Digest of each CSV file one CLI run writes."""
    out = os.path.join(tmp_dir, name + "-out.csv")
    argv = ["--out", out] + CLI_RUNS[name]
    paths = {"out": out}
    if name == "cli_hotel_sim":
        paths["runs"] = os.path.join(tmp_dir, name + "-runs.csv")
        argv += ["--runs-out", paths["runs"]]
    assert main(argv) == 0
    digests = {}
    for label, path in paths.items():
        with open(path, "rb") as fh:
            digests["%s/%s" % (name, label)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def pinned():
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_policy_trace(case_id):
    expected = pinned()
    got = policy_digests(case_id)
    assert got == {k: expected[k] for k in got}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_csv(name, tmp_path):
    expected = pinned()
    got = cli_digests(name, str(tmp_path))
    assert got == {k: expected[k] for k in got}


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile

    digests = {}
    for case_id in CASE_IDS:
        digests.update(policy_digests(case_id))
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CLI_RUNS):
            digests.update(cli_digests(name, tmp))
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d digests to %s" % (len(digests), DIGESTS_PATH))
