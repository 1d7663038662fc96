"""Multinomial-logit choice model and the assortment optimization oracle."""

import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiprice import (
    DomainError,
    MnlModel,
    NEVER,
    ValidationError,
    assortment_value,
    choice_probs,
    default_hotel_model,
    optimize_assortment,
    sample_choice,
)
from multiprice import engine


def simple_model():
    return MnlModel(
        n_products=3,
        type_shares=(0.7, 0.3),
        u0=(0.0, 1.0),
        utilities=((1.0, 0.0, -1.0), (NEVER, 2.0, 0.5)),
    )


def random_model(rng, n_products, n_types=3):
    shares = rng.dirichlet(np.ones(n_types))
    utilities = tuple(
        tuple(
            NEVER if rng.random() < 0.1 else float(rng.normal())
            for _ in range(n_products)
        )
        for _ in range(n_types)
    )
    return MnlModel(
        n_products=n_products,
        type_shares=tuple(float(s) for s in shares),
        u0=tuple(float(rng.normal()) for _ in range(n_types)),
        utilities=utilities,
    )


def brute_force(model, a, pi):
    best_s, best_v = (), 0.0
    for r in range(1, model.n_products + 1):
        for s in itertools.combinations(range(model.n_products), r):
            v = assortment_value(model, a, s, pi)
            if v > best_v + 1e-15:
                best_s, best_v = s, v
    return best_s, best_v


class TestChoiceProbs:
    def test_sum_to_one(self):
        m = simple_model()
        probs, p0 = choice_probs(m, 0, (0, 1, 2))
        assert sum(probs.values()) + p0 == pytest.approx(1.0, abs=1e-12)

    def test_values(self):
        m = simple_model()
        probs, p0 = choice_probs(m, 0, (0,))
        z = math.exp(0.0) + math.exp(1.0)
        assert probs[0] == pytest.approx(math.exp(1.0) / z, abs=1e-12)
        assert p0 == pytest.approx(1.0 / z, abs=1e-12)

    def test_never_product_is_inert(self):
        m = simple_model()
        with_it, p0a = choice_probs(m, 1, (0, 1))
        without, p0b = choice_probs(m, 1, (1,))
        assert with_it[0] == 0.0
        assert with_it[1] == pytest.approx(without[1], abs=1e-12)
        assert p0a == pytest.approx(p0b, abs=1e-12)

    def test_shift_invariance(self):
        m = simple_model()
        shifted = MnlModel(
            n_products=3,
            type_shares=m.type_shares,
            u0=tuple(u + 5.0 for u in m.u0),
            utilities=tuple(
                tuple(u if u == NEVER else u + 5.0 for u in row)
                for row in m.utilities
            ),
        )
        p1, q1 = choice_probs(m, 0, (0, 1))
        p2, q2 = choice_probs(shifted, 0, (0, 1))
        assert q1 == pytest.approx(q2, abs=1e-12)
        for p in p1:
            assert p1[p] == pytest.approx(p2[p], abs=1e-12)

    def test_empty_assortment(self):
        probs, p0 = choice_probs(simple_model(), 0, ())
        assert probs == {}
        assert p0 == 1.0

    def test_unknown_type(self):
        with pytest.raises(DomainError):
            choice_probs(simple_model(), 5, (0,))


class TestRefusals:
    # the hotel model: 8 types over 8 products
    MODEL = default_hotel_model().model
    PI = (1.0,) * 8

    @pytest.mark.parametrize("assortment", [(0, 0), (2, 1, 2), (-1,), (8,), (9,), (1.5,),
                                            (True,), (np.int64(-1),), ("0",), (None,)])
    def test_bad_assortment(self, assortment):
        with pytest.raises(DomainError):
            choice_probs(self.MODEL, 0, assortment)
        with pytest.raises(DomainError):
            assortment_value(self.MODEL, 0, assortment, self.PI)

    @pytest.mark.parametrize("a", [1.5, True, False, -1, 8, np.int64(8), np.float64(0.0),
                                   "0", None])
    def test_bad_type(self, a):
        with pytest.raises(DomainError, match="customer type"):
            choice_probs(self.MODEL, a, (0,))
        with pytest.raises(DomainError, match="customer type"):
            assortment_value(self.MODEL, a, (0,), self.PI)
        with pytest.raises(DomainError, match="customer type"):
            optimize_assortment(self.MODEL, a, self.PI)

    def test_numpy_integers_pass(self):
        probs = choice_probs(self.MODEL, np.int64(3), (np.int32(1), np.int64(0)))
        assert probs == choice_probs(self.MODEL, 3, (1, 0))
        assert list(probs[0]) == [1, 0]
        assert optimize_assortment(self.MODEL, np.int64(3), self.PI) == \
            optimize_assortment(self.MODEL, 3, self.PI)

    def test_pi_length(self):
        with pytest.raises(DomainError, match="pi length"):
            assortment_value(self.MODEL, 0, (0,), self.PI[:3])


class TestModelValidation:
    def test_share_sum(self):
        with pytest.raises(ValidationError):
            MnlModel(n_products=1, type_shares=(0.6, 0.6), u0=(0.0, 0.0),
                     utilities=((1.0,), (1.0,)))

    def test_negative_share(self):
        with pytest.raises(ValidationError):
            MnlModel(n_products=1, type_shares=(1.5, -0.5), u0=(0.0, 0.0),
                     utilities=((1.0,), (1.0,)))

    def test_row_length(self):
        with pytest.raises(ValidationError):
            MnlModel(n_products=2, type_shares=(1.0,), u0=(0.0,),
                     utilities=((1.0,),))

    @pytest.mark.parametrize("fields", [
        {"utilities": ((800.0,),)},       # exp overflows
        {"utilities": ((math.inf,),)},    # an infinite weight
        {"utilities": ((math.nan,),)},
        {"utilities": ((709.0, 709.0, 709.0),)},  # finite weights, infinite sum
        {"u0": (math.nan,)},
        {"u0": (-math.inf,)},             # exp(u0) = 0: nothing offered divides by 0
        {"u0": (-800.0,)},
        {"type_shares": (math.nan,)},
        {"type_shares": ("1",)},
        # a single number, a string or a set where a sequence is asked
        {"type_shares": {1.0}}, {"type_shares": 1.0}, {"type_shares": "1"}, {"type_shares": None},
        {"u0": 0.0}, {"u0": "0"}, {"utilities": "1"}, {"utilities": ((1.0,), 1.0)},
    ])
    def test_refuses_unusable_weights(self, fields):
        model = {"type_shares": (1.0,), "u0": (0.0,), "utilities": ((1.0,),), **fields}
        with pytest.raises(ValidationError):
            MnlModel(n_products=len(model["utilities"][0]), **model)

    def test_takes_any_sequence(self):
        want = MnlModel(n_products=1, type_shares=(1.0,), u0=(0.0,), utilities=((1.0,),))
        got = MnlModel(n_products=1, type_shares=np.array([1.0]), u0=[0.0],
                       utilities=[np.array([1.0])])
        assert got == want and (got.type_shares, got.u0, got.utilities) == ((1.0,), (0.0,), ((1.0,),))


def prefix_reference(model, a, pi):
    """optimize_assortment as it was before each type's choosable products
    were kept on the model: the candidates filtered from every product and
    sorted on -pi, the prefix sorted on each improvement.  Kept verbatim as
    the reference for the oracle and for the offers' memo of it, but for its
    type check, which called the since-removed MnlModel._check_type."""
    if not 0 <= a < model.n_types:
        raise DomainError("unknown customer type %r" % (a,))
    if len(pi) != model.n_products:
        raise DomainError("pi length mismatch")
    cands = [
        p
        for p in range(model.n_products)
        if pi[p] > 0.0 and model.utilities[a][p] != NEVER
    ]
    cands.sort(key=lambda p: -pi[p])
    best_s, best_v = (), 0.0
    ws, weight_sum = model.weights[a], model.w0[a]
    value_sum = 0.0
    for end in range(1, len(cands) + 1):
        p = cands[end - 1]
        w = ws[p]
        weight_sum += w
        value_sum += w * pi[p]
        v = value_sum / weight_sum
        if v > best_v + 1e-15:
            best_s, best_v = tuple(sorted(cands[:end])), v
    return best_s, best_v


# few distinct values, so that utilities and adjusted values tie
UTILITIES = st.one_of(st.sampled_from([NEVER, -1.0, 0.0, 0.5, 1.0]), st.floats(-3.0, 3.0))
PI_VALUES = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]),
                      st.floats(-5.0, 5.0))


@st.composite
def oracle_queries(draw):
    """A model and a sequence of (type, pi) queries drawn from a pool of a
    few pis, so that a type sees the same pi again, as an equal list or as
    the same one."""
    n, n_types = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    model = MnlModel(
        n_products=n,
        type_shares=(1.0,) + (0.0,) * (n_types - 1),
        u0=tuple(draw(st.lists(st.floats(-2.0, 2.0), min_size=n_types, max_size=n_types))),
        utilities=draw(st.lists(st.lists(UTILITIES, min_size=n, max_size=n),
                                min_size=n_types, max_size=n_types)),
    )
    pool = draw(st.lists(st.lists(PI_VALUES, min_size=n, max_size=n), min_size=1, max_size=3))
    queries = draw(st.lists(st.tuples(st.integers(0, n_types - 1), st.sampled_from(pool)),
                            min_size=1, max_size=12))
    copies = draw(st.lists(st.booleans(), min_size=len(queries), max_size=len(queries)))
    return model, [(a, list(pi) if copy else pi) for (a, pi), copy in zip(queries, copies)]


def exact(result):
    s, v = result
    return s, v.hex()


class TestOptimizeAssortment:
    def test_prefix_vs_brute_force(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            m = random_model(rng, n)
            a = int(rng.integers(0, m.n_types))
            pi = tuple(float(rng.uniform(-1, 3)) for _ in range(n))
            s1, v1 = optimize_assortment(m, a, pi)
            s2, v2 = brute_force(m, a, pi)
            assert v1 == pytest.approx(v2, abs=1e-10)
            assert assortment_value(m, a, s1, pi) == pytest.approx(v2, abs=1e-10)

    def test_all_negative_pi(self):
        m = simple_model()
        s, v = optimize_assortment(m, 0, (-1.0, -2.0, -0.5))
        assert s == () and v == 0.0

    def test_pi_length(self):
        with pytest.raises(DomainError):
            optimize_assortment(simple_model(), 0, (1.0,))

    @settings(max_examples=300, deadline=None)
    @given(case=oracle_queries())
    def test_equals_the_prefix_reference(self, case):
        # bit for bit, called directly and through an offer's memo, which
        # asks the oracle again only for a pi it has not just seen
        model, queries = case
        offer = engine._Offer(np.zeros((1, 1)), operator.sub, state=np.zeros(1))
        for a, pi in queries:
            want = exact(prefix_reference(model, a, pi))
            assert exact(optimize_assortment(model, a, pi)) == want
            assert exact(offer.best(model, a, pi)) == want

    def test_choosable_products(self):
        assert simple_model().choosable == ((0, 1, 2), (1, 2))


class TestSampling:
    def test_choice_frequencies(self):
        m = simple_model()
        rng = np.random.default_rng(1)
        exact, p0 = choice_probs(m, 0, (0, 1))
        n = 20000
        counts = {0: 0, 1: 0, None: 0}
        for _ in range(n):
            counts[sample_choice(exact, rng)] += 1
        for p, target in list(exact.items()) + [(None, p0)]:
            emp = counts[p] / n
            assert abs(emp - target) < 3 * math.sqrt(target * (1 - target) / n) + 1e-9

class TestHotelCatalog:
    def test_shape(self):
        cat = default_hotel_model()
        assert len(cat.room_names) == 4
        assert cat.model.n_products == 8
        assert cat.model.n_types == 8
        assert sum(cat.inventory_shares) == pytest.approx(1.0, abs=1e-9)
        assert sum(cat.model.type_shares) == pytest.approx(1.0, abs=1e-12)

    def test_fares(self):
        cat = default_hotel_model()
        fares = {cat.product_labels[p]: cat.fares[p] for p in range(8)}
        assert fares["KingL"] == 307.0 and fares["KingH"] == 361.0
        assert fares["SuiteL"] == 384.0 and fares["SuiteH"] == 496.0
        for room in range(4):
            lo, hi = cat.room_prices(room)
            assert lo < hi

    def test_fare_diff_variant(self):
        base = default_hotel_model()
        fd = default_hotel_model(fare_diff=True)
        for p in range(8):
            if fd.product_levels[p] == 2:
                assert fd.fares[p] > base.fares[p]
            else:
                assert fd.fares[p] == base.fares[p]
        # no-purchase utility is raised for every type
        for a in range(8):
            assert fd.model.u0[a] == pytest.approx(base.model.u0[a] + 2.0)

    def test_never_utility_roundtrip(self):
        cat = default_hotel_model()
        queen_l = cat.product_labels.index("QueenL")
        never_types = [
            a for a in range(8) if cat.model.utilities[a][queen_l] == NEVER
        ]
        assert len(never_types) == 4
        # a type that never buys QueenL splits the rest as if it were absent
        a = never_types[0]
        with_it, p0a = choice_probs(cat.model, a, tuple(range(8)))
        assert with_it[queen_l] == 0.0
