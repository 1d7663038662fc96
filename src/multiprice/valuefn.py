"""Value functions for price sets.

For a strictly increasing price list r(1) < ... < r(m) this module computes
the booking limits alpha(j), the single-item limits sigma(j), the segment
borders L(j), the piecewise-exponential bid-price curve Phi, and the two
ratios F and G that govern the achievable competitive performance.  A
continuum-price variant (prices anywhere in [r_min, r_max]) is also provided.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidPriceSet, InvalidRange, as_real, as_tuple

# w values this close to a segment border are snapped onto it
BORDER_SNAP = 1e-15

# lambert_w stops once a Halley step is within LAMBERT_TOL of |w| + 1, or
# raises after LAMBERT_MAX_ITER steps
LAMBERT_TOL = 1e-12
LAMBERT_MAX_ITER = 80


@dataclass(frozen=True)
class PriceSet:
    """Strictly increasing positive finite prices of one item.

    The implicit price r(0) = 0 is never stored.
    """

    prices: tuple

    def __init__(self, prices):
        object.__setattr__(self, "prices", tuple(
            as_real(r, 0.0, "a price", InvalidPriceSet, strict=True)
            for r in as_tuple(prices, "prices", InvalidPriceSet)))
        self._validate()

    def _validate(self):
        if len(self.prices) < 1:
            raise InvalidPriceSet("need at least one price")
        for lo, hi in zip(self.prices, self.prices[1:]):
            if not hi > lo:
                raise InvalidPriceSet(
                    "prices must be strictly increasing, got %r" % (self.prices,)
                )

    @property
    def m(self):
        return len(self.prices)

    def price(self, j):
        """r(j) with the convention r(0) = 0."""
        return 0.0 if j == 0 else self.prices[j - 1]

    def ratios(self):
        """r(j-1)/r(j) for j = 1..m (the j = 1 entry is 0)."""
        return [self.price(j - 1) / self.price(j) for j in range(1, self.m + 1)]


def solve_alphas(priceset):
    """Booking limits alpha(1)..alpha(m): the unique positive solution with
    sum 1 of the equal-ratio system linking 1 - e^{-alpha(j)} across
    consecutive price ratios.

    Solved by bisection on gamma(1) = e^{-alpha(1)} over [1/e, 1): the
    product gamma(1) * prod_j ((1 - rho_j) gamma(1) + rho_j) is continuous
    and strictly increasing in gamma(1), so the root of product = 1/e is
    unique.  The remaining gamma(j) follow in closed form.
    """
    rhos = priceset.ratios()  # rho_1 = 0

    def product(g1):
        p = g1
        for rho in rhos[1:]:
            p *= (1.0 - rho) * g1 + rho
        return p

    lo, hi = 1.0 / math.e, 1.0
    # bisect to machine precision; 200 iterations is far more than needed
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if product(mid) < 1.0 / math.e:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 5e-16:
            break
    g1 = 0.5 * (lo + hi)
    gammas = [(1.0 - rho) * g1 + rho for rho in rhos]
    return [-math.log(g) for g in gammas]


def solve_sigmas(priceset):
    """Single-item booking limits sigma(1)..sigma(m), in closed form:
    sigma(j) proportional to 1 - r(j-1)/r(j), normalized to sum 1."""
    weights = [1.0 - rho for rho in priceset.ratios()]
    total = sum(weights)
    return [w / total for w in weights]


@dataclass(frozen=True)
class ValueFunction:
    """Piecewise-exponential bid-price curve of one price set.

    The curve rises from 0 at w = 0 to r(m) at w = 1, hitting r(j) exactly
    at the cumulative border L(j).  F and G are the competitive ratios
    associated with the price set.
    """

    priceset: PriceSet
    alphas: tuple
    borders: tuple  # L(0)..L(m), L(0)=0, L(m)=1
    sigmas: tuple
    F: float
    G: float

    @property
    def m(self):
        return self.priceset.m

    def segment(self, w):
        """Index j of the half-open segment [L(j-1), L(j)) containing w,
        with segment(1) = m."""
        return self._locate(w)[1]

    def _locate(self, w):
        """(w, segment of w), with w snapped onto [0, 1] and onto any border
        within BORDER_SNAP of it, the top border L(m) = 1 first."""
        if type(w) is not float:  # plain floats skip the real rule
            w = as_real(w, -math.inf, "w")
        if not -BORDER_SNAP <= w <= 1.0 + BORDER_SNAP:
            raise DomainError("w=%r outside [0, 1]" % (w,))
        if w >= 1.0 - BORDER_SNAP:
            return 1.0, self.m
        w = max(w, 0.0)
        for b in self.borders:
            if abs(w - b) <= BORDER_SNAP:
                w = b
                break
        return w, min(bisect.bisect_right(self.borders, w), self.m)

    def _locate_all(self, ws):
        """_locate of each w in one pass: the lists of snapped ws and of their segments."""
        ws = np.array([w if type(w) is float else as_real(w, -math.inf, "w") for w in ws])
        inside = (ws >= -BORDER_SNAP) & (ws <= 1.0 + BORDER_SNAP)
        if not inside.all():
            raise DomainError("w=%r outside [0, 1]" % (ws[inside.argmin()].item(),))
        top = ws >= 1.0 - BORDER_SNAP
        borders = np.array(self.borders)
        # the first border near wins; a w below 0 is near L(0) = 0
        near = np.abs(ws[:, None] - borders) <= BORDER_SNAP
        ws = np.where(near.any(axis=1), borders[near.argmax(axis=1)], ws)
        js = np.minimum(np.searchsorted(borders, ws, side="right"), self.m)
        ws[top], js[top] = 1.0, self.m
        return ws.tolist(), js.tolist()

    def phi(self, w):
        """Bid price at fraction sold w; for a list or tuple of ws, the list
        of their bid prices, each the float phi gives it alone."""
        if isinstance(w, (list, tuple)):
            r, borders = (0.0,) + self.priceset.prices, self.borders
            scales = [math.expm1(a) for a in self.alphas]
            return [r[-1] if x == 1.0  # r(m) exactly, as below
                    else r[j - 1] + (r[j] - r[j - 1]) * math.expm1(x - borders[j - 1])
                    / scales[j - 1] for x, j in zip(*self._locate_all(w))]
        w, j = self._locate(w)
        if w == 1.0:  # r(m) exactly, where the formula may miss it in the last bits
            return self.priceset.prices[-1]
        r_lo = self.priceset.price(j - 1)
        r_hi = self.priceset.price(j)
        a = self.alphas[j - 1]
        return r_lo + (r_hi - r_lo) * math.expm1(w - self.borders[j - 1]) / math.expm1(a)

    def phi_prime(self, w):
        """Right derivative of phi (left derivative at w = 1)."""
        w, j = self._locate(w)
        r_lo = self.priceset.price(j - 1)
        r_hi = self.priceset.price(j)
        a = self.alphas[j - 1]
        return (r_hi - r_lo) * math.exp(w - self.borders[j - 1]) / math.expm1(a)


def build_value_function(prices):
    """The value function of a price list, checked as a PriceSet, or of a
    PriceSet, the one way into this layer.  Memoized on the price tuple,
    which hashes faster than a PriceSet, as items and runs share a few
    price sets."""
    if not isinstance(prices, PriceSet):
        prices = PriceSet(prices)
    return _value_function(prices.prices)


@lru_cache(maxsize=4096)
def _value_function(prices):
    priceset = PriceSet(prices)
    alphas = solve_alphas(priceset)
    sigmas = solve_sigmas(priceset)
    borders = [0.0]
    for a in alphas:
        borders.append(borders[-1] + a)
    borders[-1] = 1.0  # exact by construction, pin against float drift
    F = -math.expm1(-alphas[0])
    G = sigmas[0]
    return ValueFunction(
        priceset=priceset,
        alphas=tuple(alphas),
        borders=tuple(borders),
        sigmas=tuple(sigmas),
        F=F,
        G=G,
    )


def two_price_F(xi):
    """Closed-form competitive ratio of a two-price set {r, xi*r}."""
    xi = as_real(xi, 1.0, "xi", InvalidRange, strict=True)
    return 1.0 - (math.sqrt(1.0 + 4.0 * xi * (xi - 1.0) / math.e) - 1.0) / (
        2.0 * (xi - 1.0)
    )


def lambert_w(x):
    """Principal branch of the Lambert W function for x >= 0, by Halley
    iteration seeded at log(1 + x)."""
    x = as_real(x, 0.0, "lambert_w's x")
    if x == 0.0:
        return 0.0
    w = math.log1p(x)
    for _ in range(LAMBERT_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        step = f / denom
        w -= step
        if abs(step) <= LAMBERT_TOL * (1.0 + abs(w)):
            return w
    raise DomainError("lambert_w failed to converge for x=%r" % (x,))


@dataclass(frozen=True)
class ContinuumValueFunction:
    """Bid-price curve for an item whose price may take any value in
    [r_min, r_max]: exponential up to the booking limit alpha, geometric
    interpolation above it."""

    r_min: float
    r_max: float
    alpha: float
    F: float
    R: float  # log(r_max / r_min)

    def phi(self, w):
        if type(w) is not float:  # plain floats skip the real rule
            w = as_real(w, -math.inf, "w")
        if not -BORDER_SNAP <= w <= 1.0 + BORDER_SNAP:
            raise DomainError("w=%r outside [0, 1]" % (w,))
        w = min(max(w, 0.0), 1.0)
        if w <= self.alpha:
            return self.r_min * math.expm1(w) / math.expm1(self.alpha)
        t = (w - self.alpha) / (1.0 - self.alpha)
        return self.r_min ** (1.0 - t) * self.r_max**t


def build_continuum(r_min, r_max):
    """Continuum-price value function.  The booking limit solves
    1 - e^{-alpha} = (1 - alpha)/R and equals W(R e^{R-1}) - R + 1."""
    r_min = as_real(r_min, 0.0, "r_min", InvalidRange, strict=True)
    r_max = as_real(r_max, r_min, "r_max", InvalidRange, strict=True)
    R = math.log(r_max / r_min)
    alpha = lambert_w(R * math.exp(R - 1.0)) - R + 1.0
    return ContinuumValueFunction(
        r_min=r_min,
        r_max=r_max,
        alpha=alpha,
        F=-math.expm1(-alpha),
        R=R,
    )
