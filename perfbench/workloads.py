"""The benchmark's workloads.

Every op drives the public CLI entry point multiprice.cli.main in process.
Op i takes its input from seed i of a list fixed by the run's seed, so
every run with that seed does the same ops in the same order.  The warm-up
op's input is the same for every seed, so that set-up does the same work
in every run.  An op's input, instance files included, is made before the
op's timing starts.  Each op writes its outputs to files of its own in a
scratch directory; they are read back and checked once the timed part is
over, so the outputs never add to the process's memory while it is timed.
"""

from __future__ import annotations

import json
import os

import numpy as np

import checks

PRICES = (1.0, 3.0)
XI = PRICES[1] / PRICES[0]
WARMUP_SEED = 0


def op_seed(seed, index):
    """Seed of op `index` in the list of run seed `seed`."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def _read(path):
    with open(path) as fh:
        return fh.read()


class Workload:
    """An op is a list of CLI argument vectors run back to back; `tag`
    names the op's output files."""

    name = None
    expected_calls = ()  # traced functions that must record calls per op
    expected_setup_calls = ()  # ... or during the warm-up op

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self._inputs = []
        self.warmup = self.make_input(op_seed(WARMUP_SEED, 0), -1)

    def input(self, index):
        """Input of op `index` (0, 1, ...), made on first use."""
        while len(self._inputs) <= index:
            i = len(self._inputs)
            self._inputs.append(self.make_input(op_seed(self.seed, i + 1), i))
        return self._inputs[index]

    def make_input(self, seed, index):
        return seed

    def path(self, tag, name):
        return os.path.join(self.workdir, "%s-%s" % (tag, name))

    def argvs(self, inp, tag):
        raise NotImplementedError

    def collect(self, tag):
        raise NotImplementedError

    def check(self, inp, output):
        raise NotImplementedError


class Adversary(Workload):
    """A reduced round of the tight-instance Monte Carlo: k = 1, where
    ranking joins the suite, then a multi-unit k with long arrival streams."""

    name = "adversary"
    runs = (("1", "100", "4"), ("10", "40", "2"))  # (k, n, trials)
    expected_calls = (
        "cli.main", "adversary.build_instance", "adversary.analytic_bounds",
        "valuefn.build_value_function", "valuefn.ValueFunction.phi",
        "perturb.build_perturbed", "engine.run_balance", "engine.run_ranking",
        "engine.run_myopic", "engine.run_gnr", "engine.run_conservative",
    )

    def argvs(self, seed, tag):
        return [["--seed", str(seed), "--trials", trials,
                 "--out", self.path(tag, "k%s.csv" % k),
                 "adversary", "--prices", "%g,%g" % PRICES, "--n", n, "--k", k]
                for k, n, trials in self.runs]

    def collect(self, tag):
        return tuple(_read(self.path(tag, "k%s.csv" % k)) for k, _, _ in self.runs)

    def check(self, seed, output):
        for (k, _, _), text in zip(self.runs, output):
            policies = ["balance", "myopic", "conservative", "gnr"]
            if k == "1":
                policies.insert(1, "ranking")
            checks.check_adversary_csv(text, XI, policies)


class Hotel(Workload):
    """One hotel day at one loading factor, the CLI's 8-policy suite over
    common-random-number trials."""

    name = "hotel"
    loading_factors = (1.4, 1.6, 1.8)
    trials = 2
    mean_daily_arrivals = 260.0
    policies = ("myopic", "gnr", "balance", "bidprice_one_shot", "bidprice_resolving",
                "bidprice_learning", "bidprice_clairvoyant", "hybrid_resolving")
    expected_calls = (
        "cli.main", "harness.generate_hotel_ensemble", "harness.lp_bound",
        "harness.run_experiment", "lp.solve_choice_lp", "lp.simplex_max",
        "choice.optimize_assortment", "choice.sample_choice", "choice.choice_probs",
        "valuefn.ValueFunction.phi", "perturb.build_perturbed",
        "engine.run_myopic", "engine.run_gnr", "engine.run_balance_assortment",
        "engine.run_bidprice", "engine.run_hybrid",
    )
    expected_setup_calls = ("valuefn.build_value_function",)
    _catalog = None

    def make_input(self, seed, index):
        return (seed, self.loading_factors[index % len(self.loading_factors)])

    def argvs(self, inp, tag):
        seed, lf = inp
        return [["--seed", str(seed), "--trials", str(self.trials),
                 "--out", self.path(tag, "summary.csv"),
                 "hotel-sim", "--loading-factors", repr(lf), "--days", "1",
                 "--arrivals", repr(self.mean_daily_arrivals),
                 "--runs-out", self.path(tag, "runs.csv")]]

    def collect(self, tag):
        return (_read(self.path(tag, "summary.csv")), _read(self.path(tag, "runs.csv")))

    def check(self, inp, output):
        from multiprice import harness

        seed, lf = inp
        catalog = self.catalog()
        caps = catalog.capacities(lf, self.mean_daily_arrivals)
        # the day's customer types are the program's input, not its output
        cfg = harness.ExperimentConfig(loading_factors=(lf,), n_days=1, trials=self.trials,
                                       mean_daily_arrivals=self.mean_daily_arrivals,
                                       base_seed=seed)
        (_, arrivals), = harness.generate_hotel_ensemble(cfg, lf)
        counts = np.bincount(arrivals.types, minlength=len(catalog.types))
        checks.check_hotel_outputs(output[0], output[1], self.trials, self.policies,
                                   catalog.lp_bound(caps, counts), catalog.max_revenue(caps))

    def catalog(self):
        if self._catalog is None:
            import multiprice

            path = os.path.join(os.path.dirname(multiprice.__file__), "data", "hotel_mnl.json")
            self._catalog = checks.HotelCatalog(path)
        return self._catalog


class Bounds(Workload):
    """The hindsight assignment LP of one k = 1 adversarial instance."""

    name = "bounds"
    n = 60
    expected_calls = ("cli.main", "lp.solve_primal", "lp.simplex_max")

    def make_input(self, seed, index):
        """Writes a nested instance and returns its path: customer t accepts
        items pi[t:], at the low price for the first round(beta_1 n)
        customers and the high price after, as in the tight adversarial
        family."""
        rng = np.random.default_rng(seed)
        perm = rng.permutation(self.n)
        split = int(round(checks.low_phase_share(XI) * self.n))
        willing = np.zeros((self.n, self.n), dtype=int)
        for t in range(self.n):
            willing[t, perm[t:]] = 1 if t < split else 2
        path = os.path.join(self.workdir, "instance-%d.json" % (index + 1))
        with open(path, "w") as fh:
            json.dump({"setup": {"items": [{"k": 1, "prices": list(PRICES)}] * self.n},
                       "arrivals": {"kind": "deterministic", "willing": willing.tolist()}},
                      fh)
        return path

    def argvs(self, path, tag):
        return [["--out", self.path(tag, "lp.json"), "lp-bound", "--instance", path]]

    def collect(self, tag):
        return _read(self.path(tag, "lp.json"))

    def check(self, path, output):
        with open(path) as fh:
            raw = json.load(fh)
        caps = [item["k"] for item in raw["setup"]["items"]]
        checks.check_lp_bound(json.loads(output), raw["arrivals"]["willing"], PRICES, caps)


WORKLOADS = {w.name: w for w in (Adversary, Hotel, Bounds)}
