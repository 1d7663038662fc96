"""Tight adversarial instance family.

n identical items, nk customers arriving in n groups of k; group g is
interested in the items with permuted labels g..n, and the groups are
partitioned into m phases whose customers accept exactly price r(j).  The
hindsight optimum is the same for every permutation, while no online
policy can beat F times it in expectation over permutations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .engine import ArrivalSequence, Item, Setup, _read_only
from .errors import DomainError, SolverLimitError, as_int
from .valuefn import PriceSet

# an instance holds at most this many bid-row cells (n * n) and this many
# units (n * k, one column each under ranking)
MAX_INSTANCE_SIZE = 10_000_000


def solve_betas(vf):
    """Phase fractions: tail sums follow the recursion
    B_j = B_{j-1} * r(j-1) e^{-alpha(j-1)} / (r(j) e^{-alpha(j)}), B_1 = 1;
    beta_j = B_j - B_{j+1} with B_{m+1} = 0."""
    priceset = vf.priceset
    m = priceset.m
    B = [1.0]
    for j in range(2, m + 1):
        prev = B[-1]
        num = priceset.price(j - 1) * math.exp(-vf.alphas[j - 2])
        den = priceset.price(j) * math.exp(-vf.alphas[j - 1])
        B.append(prev * num / den)
    B.append(0.0)
    betas = [B[j] - B[j + 1] for j in range(m)]
    return B[:-1], betas


@dataclass(frozen=True)
class AdversarialInstance:
    priceset: PriceSet
    n: int
    k: int
    setup: Setup
    arrivals: ArrivalSequence
    permutation: tuple
    group_phases: tuple  # phase index (1-based price level) per group

    @functools.cached_property
    def realized_opt(self):
        """Exact hindsight optimum of this instance: the nested interest
        sets admit a perfect group-to-item matching, so every customer is
        served at her phase price."""
        return self.k * sum(self.priceset.price(j) for j in self.group_phases)


def build_instance(vf, n, k, rng_seed):
    """One permuted instance of the price set of vf: customer group g (of k
    identical customers) is interested in items pi[g-1..n-1] and pays the
    price of its phase.  Instances of one (vf, n, k) share the Setup."""
    priceset = vf.priceset
    n, k = as_int(n, priceset.m, "n"), as_int(k, 1, "k")
    if max(n, k) * n > MAX_INSTANCE_SIZE:
        raise SolverLimitError("an instance of n = %d items of k = %d units exceeds %d "
                               "cells (n * n) or units (n * k)" % (n, k, MAX_INSTANCE_SIZE))
    setup, phases, counts = _instance_shape(vf, n, k)

    rng = np.random.default_rng(as_int(rng_seed, 0, "rng_seed"))
    perm = rng.permutation(n)

    # group g's row: item perm[h] at the group's phase for h >= g
    rows = np.where(np.arange(n)[:, None] <= np.argsort(perm), phases[:, None], 0).astype(int)
    return AdversarialInstance(
        priceset=priceset,
        n=n,
        k=k,
        setup=setup,
        arrivals=ArrivalSequence(kind="deterministic", runs=(rows, counts)),
        permutation=tuple(perm.tolist()),
        group_phases=tuple(phases.tolist()),
    )


@functools.lru_cache(maxsize=8)
def _instance_shape(vf, n, k):
    """What every permutation of an instance shares, built once for the
    trials of one command and kept for the last 8 shapes asked for, so that
    commands that take turns with a few shapes build each once: the Setup
    of n items of k units, each group's phase and each group's k customers,
    the arrays read-only."""
    _, betas = solve_betas(vf)
    m = vf.m

    # phase boundaries in whole groups, round-half-even on the tail sums
    bounds = [0]
    acc = 0.0
    for j in range(m):
        acc += betas[j]
        bounds.append(n if j == m - 1 else int(round(acc * n)))
    for j in range(m):
        if bounds[j + 1] <= bounds[j]:
            raise DomainError("n too small for the phase partition")

    phases = np.searchsorted(bounds[1:], np.arange(n), side="right") + 1
    setup = Setup(items=tuple(Item(k=k, priceset=vf.priceset) for _ in range(n)))
    return setup, _read_only(phases), _read_only(np.full(n, k))


def analytic_bounds(vf, n, k):
    """Closed-form hindsight optimum, online upper bound, and their ratio
    (which equals F of the price set exactly)."""
    priceset = vf.priceset
    n, k = as_int(n, 1, "n"), as_int(k, 1, "k")
    B, betas = solve_betas(vf)
    m = priceset.m
    opt = n * k * sum(priceset.price(j + 1) * betas[j] for j in range(m))
    online_ub = n * k * sum(
        priceset.price(j + 1) * B[j] * (1.0 - math.exp(-vf.alphas[j]))
        for j in range(m)
    )
    return {"opt": opt, "online_ub": online_ub, "ratio": online_ub / opt}
