"""Value-function construction: solver residuals, closed forms, and the
inequality suite relating the discrete and continuum ratios."""

import bisect
import math

import numpy as np
import pytest

from multiprice import (
    DomainError,
    InvalidPriceSet,
    InvalidRange,
    PriceSet,
    build_continuum,
    build_value_function,
    lambert_w,
    solve_alphas,
    solve_sigmas,
    two_price_F,
)
from multiprice.valuefn import BORDER_SNAP, _value_function


def random_priceset(rng, m_max=6, ratio_max=100.0):
    m = int(rng.integers(1, m_max + 1))
    base = rng.uniform(1.0, 10.0)
    ratios = np.sort(rng.uniform(1.01, ratio_max ** (1.0 / max(m, 2)), size=m - 1))
    prices = [base]
    for r in ratios:
        prices.append(prices[-1] * r)
    return PriceSet(prices)


class TestPriceSet:
    def test_rejects_unsorted(self):
        with pytest.raises(InvalidPriceSet):
            PriceSet([3.0, 1.0])

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidPriceSet):
            PriceSet([2.0, 2.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidPriceSet):
            PriceSet([0.0, 1.0])
        with pytest.raises(InvalidPriceSet):
            PriceSet([-1.0, 1.0])

    @pytest.mark.parametrize("prices", [[math.nan], [math.inf], [1.0, math.inf]])
    def test_rejects_nonfinite(self, prices):
        with pytest.raises(InvalidPriceSet):
            PriceSet(prices)

    def test_rejects_empty(self):
        with pytest.raises(InvalidPriceSet):
            PriceSet([])

    @pytest.mark.parametrize("prices", [5, None, 2.5, {1.0, 3.0}, np.array(2.0), "12",
                                        [[1.0], [3.0]]])
    def test_rejects_what_is_not_a_sequence_of_numbers(self, prices):
        # a string or a set is not taken as a price sequence; single prices
        # that are not numbers are in tests/test_errors.py
        with pytest.raises(InvalidPriceSet):
            PriceSet(prices)
        with pytest.raises(InvalidPriceSet):
            build_value_function(prices)

    def test_takes_a_numpy_price_array(self):
        for prices in (np.array([1.0, 3.0]), np.array([1, 3]), range(1, 4, 2)):
            assert PriceSet(prices).prices == (1.0, 3.0)
            assert build_value_function(prices) is build_value_function([1.0, 3.0])
        assert PriceSet(p for p in (1.0, 3.0)).prices == (1.0, 3.0)

    def test_implicit_zero_price(self):
        ps = PriceSet([5.0, 7.0])
        assert ps.price(0) == 0.0
        assert ps.price(2) == 7.0
        assert ps.m == 2

class TestSolveAlphas:
    def test_single_price(self):
        alphas = solve_alphas(PriceSet([42.0]))
        assert alphas[0] == pytest.approx(1.0, abs=1e-12)
        vf = build_value_function([42.0])
        assert vf.F == pytest.approx(1.0 - 1.0 / math.e, abs=1e-12)

    def test_150_450(self):
        alphas = solve_alphas(PriceSet([150.0, 450.0]))
        assert alphas[0] == pytest.approx(0.6277618613, abs=1e-9)
        assert alphas[1] == pytest.approx(0.3722381387, abs=1e-9)

    def test_1_3_matches_closed_form(self):
        vf = build_value_function([1.0, 3.0])
        expected = 1.0 - (math.sqrt(1.0 + 24.0 / math.e) - 1.0) / 4.0
        assert vf.F == pytest.approx(expected, abs=1e-9)

    def test_residuals_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            ps = random_priceset(rng)
            alphas = solve_alphas(ps)
            assert abs(sum(alphas) - 1.0) < 1e-12
            vals = [
                -math.expm1(-alphas[j - 1]) / (1.0 - ps.price(j - 1) / ps.price(j))
                for j in range(1, ps.m + 1)
            ]
            assert max(vals) - min(vals) < 1e-10


class TestSolveSigmas:
    def test_single(self):
        assert solve_sigmas(PriceSet([9.0])) == [1.0]

    def test_150_450(self):
        s = solve_sigmas(PriceSet([150.0, 450.0]))
        assert s[0] == pytest.approx(0.6, abs=1e-12)
        assert s[1] == pytest.approx(0.4, abs=1e-12)

    def test_1_2_4(self):
        s = solve_sigmas(PriceSet([1.0, 2.0, 4.0]))
        assert s == pytest.approx([0.5, 0.25, 0.25], abs=1e-12)

    def test_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert sum(solve_sigmas(random_priceset(rng))) == pytest.approx(1.0)


class TestPhi:
    def test_endpoints(self):
        vf = build_value_function([150.0, 450.0])
        assert vf.phi(0.0) == 0.0
        assert vf.phi(1.0) == pytest.approx(450.0, abs=1e-9)
        assert vf.phi(vf.borders[1]) == pytest.approx(150.0, abs=1e-10)

    def test_spot_value(self):
        vf = build_value_function([150.0, 450.0])
        expected = 150.0 * math.expm1(0.3) / math.expm1(vf.alphas[0])
        assert vf.phi(0.3) == pytest.approx(expected, abs=1e-12)
        assert vf.phi(0.3) == pytest.approx(60.09, abs=0.01)

    def test_single_price_shape(self):
        vf = build_value_function([7.0])
        for w in np.linspace(0, 1, 11):
            assert vf.phi(w) == pytest.approx(
                7.0 * math.expm1(w) / math.expm1(1.0), abs=1e-12
            )

    def test_strictly_increasing_and_convex_per_segment(self):
        vf = build_value_function([150.0, 450.0])
        grid = np.linspace(0.0, 1.0, 101)
        vals = [vf.phi(w) for w in grid]
        diffs = np.diff(vals)
        assert np.all(diffs > 0)
        # convexity within each segment: second difference nonnegative away
        # from the interior border
        b = vf.borders[1]
        for i in range(1, len(grid) - 1):
            if abs(grid[i] - b) > 0.02 and abs(grid[i + 1] - b) > 0.02:
                assert vals[i + 1] - 2 * vals[i] + vals[i - 1] > -1e-9

    def test_domain_error(self):
        vf = build_value_function([1.0])
        with pytest.raises(DomainError):
            vf.phi(1.5)
        with pytest.raises(DomainError):
            vf.phi(-0.2)

    def test_border_snap(self):
        vf = build_value_function([150.0, 450.0])
        b = vf.borders[1]
        assert vf.phi(b + 5e-16) == pytest.approx(150.0, abs=1e-9)

    def test_segment_indexing(self):
        vf = build_value_function([1.0, 2.0, 4.0])
        assert vf.segment(0.0) == 1
        assert vf.segment(1.0) == 3
        assert vf.segment(vf.borders[1]) == 2

    def test_phi_prime_positive(self):
        vf = build_value_function([2.0, 3.0, 10.0])
        for w in np.linspace(0, 1, 23):
            assert vf.phi_prime(w) > 0


class ParentValueFunction:
    """segment, _clamp, phi and phi_prime of a ValueFunction as they were
    before phi and phi_prime shared one clamp and one segment lookup."""

    def __init__(self, vf):
        self.priceset, self.alphas, self.borders, self.m = (
            vf.priceset, vf.alphas, vf.borders, vf.m)

    def segment(self, w):
        """Index j of the half-open segment [L(j-1), L(j)) containing w,
        with segment(1) = m."""
        w = self._clamp(w)
        j = bisect.bisect_right(self.borders, w)
        return min(j, self.m)

    def _clamp(self, w):
        if -BORDER_SNAP <= w < 0.0:
            return 0.0
        if 1.0 < w <= 1.0 + BORDER_SNAP:
            return 1.0
        if w < 0.0 or w > 1.0:
            raise DomainError("w=%r outside [0, 1]" % (w,))
        for b in self.borders:
            if abs(w - b) <= BORDER_SNAP:
                return b
        return w

    def phi(self, w):
        """Bid price at fraction sold w."""
        w = self._clamp(w)
        j = self.segment(w)
        r_lo = self.priceset.price(j - 1)
        r_hi = self.priceset.price(j)
        a = self.alphas[j - 1]
        return r_lo + (r_hi - r_lo) * math.expm1(w - self.borders[j - 1]) / math.expm1(a)

    def phi_prime(self, w):
        """Right derivative of phi (left derivative at w = 1)."""
        w = self._clamp(w)
        j = self.segment(w)
        r_lo = self.priceset.price(j - 1)
        r_hi = self.priceset.price(j)
        a = self.alphas[j - 1]
        return (r_hi - r_lo) * math.exp(w - self.borders[j - 1]) / math.expm1(a)


class TestSharedLookup:
    def test_phi_bit_identical_to_parent(self):
        # but for the top of the curve, which is r(m) exactly
        rng = np.random.default_rng(131)
        for _ in range(200):
            vf = build_value_function(random_priceset(rng))
            old = ParentValueFunction(vf)
            ws = list(rng.random(20)) + [0.0, 1.0, -BORDER_SNAP, 1.0 + BORDER_SNAP]
            for b in vf.borders:
                ws += [b, b - BORDER_SNAP, b + BORDER_SNAP, b - 2 * BORDER_SNAP,
                       b + 2 * BORDER_SNAP]
            for w in ws:
                if not -BORDER_SNAP <= w <= 1.0 + BORDER_SNAP:
                    continue
                if w >= 1.0 - BORDER_SNAP:
                    assert vf.phi(w) == vf.priceset.prices[-1]
                else:
                    assert vf.phi(w).hex() == old.phi(w).hex()
                assert vf.phi_prime(w).hex() == old.phi_prime(w).hex()
                assert vf.segment(w) == old.segment(w)

    @pytest.mark.parametrize("prices", [[1.0, 3.0], [1.0, 1.0000000000000002],
                                        [1.0, 1e308, 1.7e308]])
    def test_phi_at_one_is_top_price(self, prices):
        # the last segment's formula gives 3.0000000000000018 for [1, 3]; for
        # [1, 1 + 2^-52] w = 1 lies within BORDER_SNAP of L(1) too
        vf = build_value_function(prices)
        for w in (1.0, 1.0 - BORDER_SNAP, 1.0 + BORDER_SNAP):
            assert vf.phi(w) == prices[-1]

    def test_outside_unit_interval_raises(self):
        vf = build_value_function([1.0, 3.0])
        for w in (-2 * BORDER_SNAP, 1.0 + 2 * BORDER_SNAP, math.nan):
            with pytest.raises(DomainError):
                vf.phi(w)
            with pytest.raises(DomainError):
                vf.phi_prime(w)


class TestBuilderMemo:
    def test_one_object_per_price_tuple(self):
        prices = [2.0, 5.0, 11.5]
        vf = build_value_function(prices)
        assert build_value_function(tuple(prices)) is vf
        assert build_value_function(PriceSet(prices)) is vf
        fresh = _value_function.__wrapped__(tuple(prices))
        assert fresh is not vf
        assert repr(fresh) == repr(vf)  # field by field, floats bit for bit


class TestTwoPriceF:
    def test_rejects_xi_leq_1(self):
        with pytest.raises(InvalidRange):
            two_price_F(1.0)

    @pytest.mark.parametrize("xi", [1.01, 2.0, 3.0, 10.0, 1000.0])
    def test_matches_bisection(self, xi):
        vf = build_value_function([1.0, xi])
        assert two_price_F(xi) == pytest.approx(vf.F, abs=1e-9)

    def test_limits(self):
        assert two_price_F(1.0 + 1e-9) == pytest.approx(1.0 - 1.0 / math.e, abs=1e-6)
        assert two_price_F(1e9) == pytest.approx(1.0 - 1.0 / math.sqrt(math.e), abs=1e-6)

    def test_booking_limit_lower_bound(self):
        # alpha(1) of {r, xi r} exceeds xi/(2 xi - 1)
        for xi in (1.5, 3.0, 20.0):
            vf = build_value_function([1.0, xi])
            assert vf.alphas[0] > xi / (2.0 * xi - 1.0)


class TestLambertW:
    def test_known_values(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(1.0) == pytest.approx(0.5671432904097838, abs=1e-12)
        assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-12)

    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        for x in [0.01, 0.5, 2.0, 10.0, 1e4]:
            assert lambert_w(x) == pytest.approx(
                float(scipy_special.lambertw(x).real), abs=1e-10
            )

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            lambert_w(-0.5)


class TestContinuum:
    def test_rejects_bad_range(self):
        with pytest.raises(InvalidRange):
            build_continuum(2.0, 2.0)
        with pytest.raises(InvalidRange):
            build_continuum(0.0, 1.0)

    def test_defining_equation(self):
        for r_max in (1.5, math.e, 10.0, 200.0):
            cv = build_continuum(1.0, r_max)
            assert 1.0 - math.exp(-cv.alpha) == pytest.approx(
                (1.0 - cv.alpha) / cv.R, abs=1e-10
            )

    def test_R_equals_one(self):
        # both routes (Lambert-W closed form and the defining equation by
        # bisection) give the same alpha = W(1)
        cv = build_continuum(1.0, math.e)
        lo, hi = 1e-9, 1.0 - 1e-9
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if 1.0 - math.exp(-mid) < 1.0 - mid:
                lo = mid
            else:
                hi = mid
        assert cv.alpha == pytest.approx(0.5 * (lo + hi), abs=1e-9)
        assert cv.alpha == pytest.approx(0.5671432904, abs=1e-9)

    def test_small_R_limit(self):
        cv = build_continuum(1.0, 1.0 + 1e-9)
        assert cv.alpha == pytest.approx(1.0, abs=1e-3)
        assert cv.F == pytest.approx(1.0 - 1.0 / math.e, abs=1e-3)

    def test_phi_shape(self):
        cv = build_continuum(2.0, 50.0)
        assert cv.phi(0.0) == pytest.approx(0.0, abs=1e-12)
        assert cv.phi(cv.alpha) == pytest.approx(2.0, abs=1e-9)
        assert cv.phi(1.0) == pytest.approx(50.0, abs=1e-9)
        # continuity and differentiability at alpha
        h = 1e-7
        left = (cv.phi(cv.alpha) - cv.phi(cv.alpha - h)) / h
        right = (cv.phi(cv.alpha + h) - cv.phi(cv.alpha)) / h
        assert left == pytest.approx(right, rel=1e-4)

    def test_domain(self):
        cv = build_continuum(1.0, 2.0)
        with pytest.raises(DomainError):
            cv.phi(1.1)


class TestInequalitySuite:
    def test_prop3_families(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ps = random_priceset(rng)
            if ps.m < 2:
                continue
            vf = build_value_function(ps)
            s1 = vf.G
            # chain linking the single-unit and multi-unit ratios
            assert (1.0 - 1.0 / math.e) * s1 < 1.0 - math.exp(-s1) + 1e-15
            assert 1.0 - math.exp(-s1) < vf.F
            # log-range lower bound on G
            assert s1 > 1.0 / (1.0 + math.log(ps.price(ps.m) / ps.price(1)))
            # the continuum ratio over the same endpoints is smaller
            cont = build_continuum(ps.price(1), ps.price(ps.m))
            assert cont.F < vf.F
            # and the first booking limit exceeds the single-unit one
            assert vf.alphas[0] > s1

    def test_ratio_bounds(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            vf = build_value_function(random_priceset(rng))
            m = vf.m
            assert 1.0 - math.exp(-1.0 / m) <= vf.F + 1e-12
            assert vf.F <= 1.0 - 1.0 / math.e + 1e-12
            assert 1.0 / m <= vf.G + 1e-12
            assert vf.G <= 1.0 + 1e-12

    def test_price_ratio_dominance(self):
        # r(j-1)/r(j) <= e^{-alpha(j)} for j >= 2
        rng = np.random.default_rng(23)
        for _ in range(100):
            ps = random_priceset(rng)
            vf = build_value_function(ps)
            for j in range(2, ps.m + 1):
                assert ps.price(j - 1) / ps.price(j) <= math.exp(-vf.alphas[j - 1]) + 1e-12
