"""Randomized rounding of segment borders onto the 1/k inventory grid.

An item holding k units only ever has a fraction sold that is a multiple of
1/k, so the ideal value function is replaced by a random perturbation whose
borders are comonotonically rounded to the grid using a single uniform seed.
The module also provides the optimal single-unit randomized procedure and a
numeric verifier for the two conditions (per-step optimality and
feasibility-in-expectation) that certify a competitive ratio c.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SolverLimitError, ValidationError, as_int, as_real
from .valuefn import PriceSet

# fractional parts this close to an integer are treated as exact multiples
_FRAC_SNAP = 1e-12

# slack a certification condition may fall short by, relative to the top price
REL_TOL = 1e-9

# a procedure's grids hold at most this many points, (m + 1)(k + 1) over its
# at most m + 1 configurations
MAX_GRID_POINTS = 10_000_000

# build_perturbed keeps the last MEMO_GRIDS grids of at most MEMO_GRID_POINTS
# points, at most about 2 MB of floats
MEMO_GRIDS = 64
MEMO_GRID_POINTS = 1_025


@dataclass(frozen=True)
class PerturbedValueFunction:
    """A realized rounding of the segment borders, with the induced value
    function tabulated on the grid {0, 1/k, ..., 1}."""

    k: int
    tilde_borders: tuple  # length m + 1, multiples of 1/k
    grid_values: tuple  # length k + 1

    @property
    def m(self):
        return len(self.tilde_borders) - 1

    def border_value(self, j):
        """Value at the rounded border of price level j, a grid point."""
        return self.grid_values[round(self.tilde_borders[j] * self.k)]


@lru_cache(maxsize=256)
def _floor_frac(borders, k):
    """(floor, fractional part) of L(j) k per border, a part within _FRAC_SNAP
    of an integer snapped onto it as 0; memoized, as items share price sets."""
    out = []
    for lj in borders:
        x = lj * k
        fl = math.floor(x)
        frac = x - fl
        if frac >= 1.0 - _FRAC_SNAP:
            fl, frac = fl + 1, 0.0
        out.append((fl, frac if frac > _FRAC_SNAP else 0.0))
    return tuple(out)


def round_borders(vf, k, w_seed):
    """Comonotone rounding of all borders to multiples of 1/k: border j
    moves up to (floor(L(j) k) + 1)/k exactly when the shared seed falls
    below its fractional part, else down.  Exact multiples never move."""
    k = as_int(k, 1, "k")
    if as_real(w_seed, 0.0, "seed") >= 1.0:
        raise DomainError("seed must lie in [0, 1)")
    out = [(fl + (w_seed < frac)) / k for fl, frac in _floor_frac(vf.borders, k)]
    out[0] = 0.0
    out[-1] = 1.0
    return out


def rounding_classes(vf, k, seeds):
    """The distinct roundings round_borders makes of many seeds, from one
    comparison of every seed with every interior border's fractional part
    (borders 0 and m are pinned to 0 and 1): (first, inverse), seeds[first[r]]
    giving rounding r and seeds[i] rounding inverse[i].  The borders a seed
    rounds up are those whose fractional part passes it, so how many there
    are tells the roundings apart."""
    fracs = np.array([frac for _, frac in _floor_frac(vf.borders, k)[1:-1]])
    ups = (np.asarray(seeds, dtype=float)[:, None] < fracs).sum(axis=1)
    _, first, inverse = np.unique(ups, return_index=True, return_inverse=True)
    return first, inverse


def _grid_from_borders(vf, k, tilde_borders):
    """Tabulate the perturbed value function: per realized segment, the same
    exponential shape as the ideal curve but over the realized span, with
    the ideal booking limit in the denominator.  Empty segments add 0."""
    prices = vf.priceset
    seg_terms = [0.0]
    for j in range(1, vf.m + 1):
        span = tilde_borders[j] - tilde_borders[j - 1]
        seg_terms.append(
            (prices.price(j) - prices.price(j - 1))
            * math.expm1(span)
            / math.expm1(vf.alphas[j - 1])
        )
    prefix = [0.0]
    for term in seg_terms[1:]:
        prefix.append(prefix[-1] + term)

    values = []
    for n_sold in range(k + 1):
        q = n_sold / k
        # segment index: smallest j with q < border(j); top grid point -> m
        j = bisect.bisect_right(tilde_borders, q)
        j = min(j, vf.m)
        partial = (
            (prices.price(j) - prices.price(j - 1))
            * math.expm1(q - tilde_borders[j - 1])
            / math.expm1(vf.alphas[j - 1])
        )
        values.append(prefix[j - 1] + partial)
    return values


def build_perturbed(vf, k, w_seed):
    """The perturbed value function of the rounding round_borders makes of
    w_seed.  A grid of at most MEMO_GRID_POINTS points is memoized on (vf, k,
    the rounded borders), the last MEMO_GRIDS of them: a (price set, k) has
    at most m + 1 roundings, so later runs and trials reuse each grid."""
    borders = tuple(round_borders(vf, k, w_seed))
    build = _perturbed if k < MEMO_GRID_POINTS else _perturbed.__wrapped__
    return build(vf, k, borders)


@lru_cache(maxsize=MEMO_GRIDS)
def _perturbed(vf, k, tilde_borders):
    """The PerturbedValueFunction of one rounding, shared by every caller:
    it is frozen and holds tuples."""
    grid = _grid_from_borders(vf, k, tilde_borders)
    return PerturbedValueFunction(k=k, tilde_borders=tilde_borders, grid_values=tuple(grid))


@dataclass(frozen=True)
class RandomizedProcedure:
    """A finite-support distribution over perturbed value functions."""

    priceset: PriceSet
    k: int
    configurations: tuple  # of (probability, PerturbedValueFunction)

    def __post_init__(self):
        total = sum(rho for rho, _ in self.configurations)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError("support probabilities sum to %r, not 1" % total)
        if any(rho < 0 for rho, _ in self.configurations):
            raise ValidationError("negative support probability")


def enumerate_seed_support(vf, k):
    """Exact support of the comonotone rounding: the outcome is a step
    function of the seed with breakpoints at the distinct fractional parts
    of L(j) k, so at most m + 1 seed intervals.  Interval lengths are the
    exact probabilities; no sampling involved.  Raises SolverLimitError,
    before any grid is built, when the grids would pass MAX_GRID_POINTS."""
    k = as_int(k, 1, "k")
    points = (vf.m + 1) * (k + 1)
    if points > MAX_GRID_POINTS:
        raise SolverLimitError("k = %d on %d prices needs %d grid points, which exceeds %d"
                               % (k, vf.m, points, MAX_GRID_POINTS))
    fracs = {frac for _, frac in _floor_frac(vf.borders, k) if frac}
    cuts = [0.0] + sorted(fracs) + [1.0]
    configs = []
    for lo, hi in zip(cuts, cuts[1:]):
        configs.append((hi - lo, build_perturbed(vf, k, lo)))
    return RandomizedProcedure(
        priceset=vf.priceset, k=k, configurations=tuple(configs)
    )


def single_unit_procedure(vf):
    """Optimal randomized procedure for a single unit of inventory: with
    probability sigma(d) place every border at 0 up to level d and at 1
    from level d on, valuing the unit at r(d)/sigma(1).  Certifies the
    ratio sigma(1)/2."""
    m = vf.m
    sigma1 = vf.sigmas[0]
    configs = []
    for d in range(1, m + 1):
        borders = tuple(0.0 if j < d else 1.0 for j in range(m + 1))
        top = vf.priceset.price(d) / sigma1
        pvf = PerturbedValueFunction(k=1, tilde_borders=borders, grid_values=(0.0, top))
        configs.append((vf.sigmas[d - 1], pvf))
    return RandomizedProcedure(priceset=vf.priceset, k=1, configurations=tuple(configs))


def verify_conditions(proc, c):
    """Check the two certification conditions of a procedure at ratio c.

    Per-step optimality must hold for every configuration, price level j,
    and sold count N below the rounded border; feasibility must hold in
    expectation over the support.  Returns (ok, report) where the report
    carries the minimum slack of each condition (negative slack = violated).
    """
    priceset, k = proc.priceset, proc.k
    c = as_real(c, 0.0, "c", strict=True)
    m = priceset.m
    tol = REL_TOL * priceset.price(m)

    min_opt = math.inf
    for _, pvf in proc.configurations:
        grid = pvf.grid_values
        for j in range(1, m + 1):
            border_val = pvf.border_value(j)
            n_max = int(round(pvf.tilde_borders[j] * k))
            for n_sold in range(n_max):
                lhs = k * (grid[n_sold + 1] - grid[n_sold]) + border_val - grid[n_sold]
                min_opt = min(min_opt, priceset.price(j) / c - lhs)

    min_feas = math.inf
    feas_slacks = []
    for j in range(1, m + 1):
        expected = sum(rho * pvf.border_value(j) for rho, pvf in proc.configurations)
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


def certified_lower_bounds(vf, k):
    """The three certified lower bounds on the best achievable ratio for an
    item with inventory k: the rounding-based bound, the single-unit bound
    G/2, and the improved single-price bound.  Returns a dict; the overall
    certificate is the max of the applicable values."""
    k = as_int(k, 1, "k")
    bounds = {
        "perturbation": vf.F / ((1.0 + k) * math.expm1(1.0 / k)),
        "single_unit": vf.G / 2.0,
    }
    if vf.m == 1:
        bounds["single_price"] = (1.0 - 1.0 / math.e) / ((1.0 + k) * -math.expm1(-1.0 / k))
    bounds["best"] = max(v for key, v in bounds.items() if key != "best")
    return bounds
