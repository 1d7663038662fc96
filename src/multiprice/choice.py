"""Multinomial-logit choice: evaluation, sampling, and the single-shot
assortment optimization oracle.

A model holds mean utilities per (customer type, product); a utility of
-inf marks a product the type never chooses.  Optimization over
unconstrained assortments uses the standard prefix argument: the optimum is
an upper set of products ordered by adjusted value, so only the prefixes of
the sorted positive-value products need evaluating.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

from .errors import DomainError, ValidationError, as_int, as_real, as_tuple

NEVER = float("-inf")


@dataclass(frozen=True)
class MnlModel:
    """Mean utilities of each customer type over a fixed product list.

    utilities[a][p] may be -inf; u0[a] is the no-purchase utility.  The
    fields are stored as tuples, so that a model is hashable.
    """

    n_products: int
    type_shares: tuple
    u0: tuple
    utilities: tuple  # tuple per type, aligned with product indices

    def __post_init__(self):
        object.__setattr__(self, "type_shares", tuple(
            as_real(s, 0.0, "a type share", ValidationError)
            for s in as_tuple(self.type_shares, "type_shares", ValidationError)))
        object.__setattr__(self, "u0", as_tuple(self.u0, "u0", ValidationError))
        object.__setattr__(self, "utilities", tuple(
            as_tuple(row, "a utility row", ValidationError)
            for row in as_tuple(self.utilities, "utilities", ValidationError)))
        object.__setattr__(self, "n_types", len(self.type_shares))  # an attribute, cheap to read
        if abs(sum(self.type_shares) - 1.0) > 1e-12:
            raise ValidationError("type shares must sum to 1")
        if len(self.u0) != self.n_types or len(self.utilities) != self.n_types:
            raise ValidationError("need one u0 and one utility row per type")
        for row in self.utilities:
            if len(row) != self.n_products:
                raise ValidationError("utility row length mismatch")
        # the weights exp(u), 0.0 where u is NEVER, and exp(u0), computed once:
        # exp(u0) > 0 and each type's weights summing to a finite total
        try:
            weights = tuple(tuple(map(math.exp, r)) for r in self.utilities)
            w0 = tuple(map(math.exp, self.u0))
            usable = all(0.0 < w < math.inf and math.isfinite(w + sum(ws))
                         for w, ws in zip(w0, weights))
        except (OverflowError, TypeError):  # a utility above about 709, or not a number
            usable = False
        if not usable:
            raise ValidationError("utilities must give finite choice weights and exp(u0) > 0")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "w0", w0)
        # each type's choosable products, those of utility above NEVER
        object.__setattr__(self, "choosable", tuple(
            tuple(p for p, u in enumerate(row) if u != NEVER) for row in self.utilities))


def choice_probs(model, a, assortment):
    """Choice probability of each offered product and of no-purchase.

    Returns (probs, p0) where probs is a dict product -> probability, in
    the assortment's order.  The assortment must name distinct products.
    """
    if as_int(a, 0, "customer type") >= model.n_types:
        raise DomainError("unknown customer type %r" % (a,))
    ws, w0 = model.weights[a], model.w0[a]
    n = model.n_products
    weights = {}
    total = w0
    for p in assortment:
        if type(p) is not int or not 0 <= p < n:
            p = as_int(p, 0, "product")
            if p >= n:
                raise DomainError("unknown product %r" % (p,))
        weights[p] = w = ws[p]
        total += w
    if len(weights) != len(assortment):
        raise DomainError("assortment %r offers a product twice" % (assortment,))
    probs = {p: w / total for p, w in weights.items()}
    return probs, w0 / total


def expected_value(probs, pi):
    """sum_p probs[p] * pi[p], over choice probabilities as choice_probs
    gives them."""
    return sum(prob * pi[p] for p, prob in probs.items())


def assortment_value(model, a, assortment, pi):
    """Expected adjusted value sum_{p in S} P(p | S) * pi[p]."""
    if len(pi) != model.n_products:
        raise DomainError("pi length mismatch")
    return expected_value(choice_probs(model, a, assortment)[0], pi)


def optimize_assortment(model, a, pi):
    """Best assortment for customer type a under adjusted values pi, by
    prefix enumeration over products sorted by decreasing pi (only
    positive-value, choosable products can help).
    Returns (assortment tuple, objective); the empty assortment scores 0.
    """
    if as_int(a, 0, "customer type") >= model.n_types:
        raise DomainError("unknown customer type %r" % (a,))
    if len(pi) != model.n_products:
        raise DomainError("pi length mismatch")
    cands = [p for p in model.choosable[a] if pi[p] > 0.0]
    cands.sort(key=pi.__getitem__, reverse=True)  # stable: ties keep product order
    best_end, best_v = 0, 0.0
    ws, weight_sum = model.weights[a], model.w0[a]
    value_sum = 0.0
    for end, p in enumerate(cands, 1):
        w = ws[p]
        weight_sum += w
        value_sum += w * pi[p]
        v = value_sum / weight_sum
        if v > best_v + 1e-15:
            best_end, best_v = end, v
    return tuple(sorted(cands[:best_end])), best_v


def sample_choice(probs, u):
    """The choice a uniform u in [0, 1) picks from choice probabilities as
    choice_probs gives them: the first product whose running sum of
    probabilities passes u, or None for no-purchase."""
    acc = 0.0
    for p, prob in probs.items():
        acc += prob
        if u < acc:
            return p
    return None


@dataclass(frozen=True)
class HotelCatalog:
    """The bundled 4-room / 8-product hotel instance."""

    model: MnlModel
    room_names: tuple
    inventory_shares: tuple
    product_labels: tuple
    product_rooms: tuple  # room index per product
    product_levels: tuple  # price level per product (1 = low, 2 = high)
    fares: tuple  # fare per product

    def room_prices(self, room):
        """Strictly increasing fares of one room."""
        return sorted(f for f, r in zip(self.fares, self.product_rooms) if r == room)


def default_hotel_model(fare_diff=False):
    """The bundled hotel catalog (a null utility marks a product the type
    never chooses); fare_diff doubles every high fare and raises each
    type's no-purchase utility accordingly."""
    raw = json.loads(
        resources.files("multiprice.data").joinpath("hotel_mnl.json").read_text()
    )
    shift = raw["no_purchase_shift_fare_diff"] if fare_diff else 0.0
    types = raw["types"]
    model = MnlModel(
        n_products=len(raw["products"]),
        type_shares=tuple(float(t["share"]) for t in types),
        u0=tuple(float(t["u0"]) + shift for t in types),
        utilities=tuple(tuple(NEVER if u is None else float(u) for u in t["utilities"])
                        for t in types),
    )
    fares = []
    for p in raw["products"]:
        room = raw["rooms"][p["room"]]
        if p["level"] == 1:
            fares.append(float(room["low_fare"]))
        else:
            fares.append(float(room["high_fare_diff" if fare_diff else "high_fare"]))
    return HotelCatalog(
        model=model,
        room_names=tuple(r["name"] for r in raw["rooms"]),
        inventory_shares=tuple(r["inventory_share"] for r in raw["rooms"]),
        product_labels=tuple(p["label"] for p in raw["products"]),
        product_rooms=tuple(p["room"] for p in raw["products"]),
        product_levels=tuple(p["level"] for p in raw["products"]),
        fares=tuple(fares),
    )
