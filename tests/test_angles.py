"""Certified angle arithmetic: exactness, enclosures, undecidability."""

from __future__ import annotations

import itertools
import re
import threading
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symjump import (DEFAULT_BUDGET, Decomposition, Enclosure, IrrationalAngle,
                     PathSeed, RationalAngle, RotationBlock, UndecidableComparison,
                     complement_angle, decimal_angle, mean_index,
                     quadratic_angle, rational_angle, same_angle,
                     splitting_numbers)
from symjump.angles import DECIMAL_LIMIT, _check_delta

from conftest import quadratics


def quad_floor_oracle(a: int, b: int, c: int, d: int, m: int) -> int:
    """floor(m * (a + b*sqrt(d)) / c) by scaled integer square roots."""
    scale = 10**40
    s = isqrt(b * b * m * m * d * scale * scale)  # floor(scale * |b| * m * sqrt(d))
    sign = 1 if b > 0 else -1
    lo = (m * a * scale + sign * (s + (0 if sign > 0 else 1))) // (c * scale)
    hi = (m * a * scale + sign * (s + (1 if sign > 0 else 0))) // (c * scale)
    assert lo == hi, "oracle scale too coarse"
    return lo


rationals = st.tuples(st.integers(2, 97), st.integers(1, 96)).filter(
    lambda t: t[1] < t[0] and gcd(t[0], t[1]) > 0)


class TestRational:
    def test_floor_examples(self):
        assert rational_angle(2, 3).floor_mul(4) == 2
        assert rational_angle(1, 2).floor_mul(2) == 1

    def test_ceil_examples(self):
        assert rational_angle(2, 3).ceil_mul(3) == 2
        assert rational_angle(2, 3).ceil_mul(1) == 1

    def test_varphi_examples(self):
        assert rational_angle(1, 3).varphi_mul(3) == 0
        assert rational_angle(1, 3).varphi_mul(2) == 1

    def test_frac_examples(self):
        assert rational_angle(2, 3).frac_mul(5) == Fraction(1, 3)
        assert rational_angle(1, 4).frac_mul(4) == 0

    def test_rejects_endpoints(self):
        for p, q in ((0, 1), (1, 1), (3, 3), (-1, 4), (5, 4)):
            with pytest.raises(ValueError):
                rational_angle(p, q)

    @given(pq=rationals, m=st.integers(1, 10**6))
    def test_ceil_minus_floor_is_varphi(self, pq, m):
        x = rational_angle(pq[1], pq[0])
        assert x.ceil_mul(m) - x.floor_mul(m) == x.varphi_mul(m)

    @given(pq=rationals, m=st.integers(1, 10**6))
    def test_varphi_zero_iff_denominator_divides(self, pq, m):
        x = rational_angle(pq[1], pq[0])
        q = x.value.denominator
        assert (x.varphi_mul(m) == 0) == (m % q == 0)

    @given(pq=rationals, m=st.integers(1, 10**6))
    def test_frac_plus_floor_reconstructs(self, pq, m):
        x = rational_angle(pq[1], pq[0])
        assert x.frac_mul(m) + x.floor_mul(m) == m * x.value


GOLDEN = (-1, 1, 2, 5)


class TestQuadratic:
    def test_floor_matches_oracle_golden_conjugate(self):
        g = quadratic_angle(*GOLDEN)
        assert g.floor_mul(10) == 6 == quad_floor_oracle(*GOLDEN, 10)

    def test_ceil_golden_conjugate(self):
        assert quadratic_angle(*GOLDEN).ceil_mul(2) == 2

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.sampled_from([
        (-1, 1, 1, 2), (-1, 1, 2, 5), (-1, 1, 1, 3), (-2, 1, 1, 7),
        (0, 1, 3, 3), (5, -1, 4, 5), (3, -1, 2, 3)]),
        m=st.integers(1, 10**9))
    def test_floor_matches_oracle(self, coeffs, m):
        x = quadratic_angle(*coeffs)
        assert x.floor_mul(m) == quad_floor_oracle(*coeffs, m)

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.sampled_from([(-1, 1, 1, 2), (-1, 1, 2, 5), (0, 1, 3, 3)]),
           m=st.integers(1, 10**6))
    def test_ceil_floor_varphi_relation(self, coeffs, m):
        x = quadratic_angle(*coeffs)
        assert x.ceil_mul(m) - x.floor_mul(m) == x.varphi_mul(m) == 1

    def test_frac_enclosure_certifies(self):
        g = quadratic_angle(*GOLDEN)
        tol = Fraction(1, 10**9)
        enc = g.frac_mul(3, tol=tol)
        assert isinstance(enc, Enclosure)
        assert enc.width <= tol
        # {3 * (sqrt5-1)/2} = (3*sqrt5 - 5)/2: certify lo <= value <= hi by
        # squaring: p/q <= (3*sqrt5-5)/2  <=>  (2p + 5q)^2 <= 45 q^2.
        lo, hi = enc.lo, enc.hi
        assert (2 * lo.numerator + 5 * lo.denominator) ** 2 <= 45 * lo.denominator**2
        assert (2 * hi.numerator + 5 * hi.denominator) ** 2 >= 45 * hi.denominator**2

    def test_frac_enclosure_deterministic_under_cache_warming(self):
        g = quadratic_angle(*GOLDEN)
        first = g.frac_mul(7, tol=Fraction(1, 10**6))
        g.floor_mul(10**15)  # force deep refinement elsewhere
        assert g.frac_mul(7, tol=Fraction(1, 10**6)) == first

    def test_frac_plus_floor_encloses_product(self):
        g = quadratic_angle(*GOLDEN)
        m = 97
        enc = g.frac_mul(m, tol=Fraction(1, 10**12))
        f = g.floor_mul(m)
        lo, hi = g.enclosure()
        assert enc.lo + f <= m * hi and m * lo <= enc.hi + f

    def test_normalization_reduces_square_factors(self):
        assert same_angle(quadratic_angle(0, 1, 4, 8), quadratic_angle(0, 1, 2, 2))

    def test_large_radicand_is_never_factored(self):
        # about 0.1414; trial division of d up to sqrt(d) would never finish
        x = quadratic_angle(-1, 1, 10**20, 2 * 10**38 + 1)
        assert x.floor_mul(10**30) == quad_floor_oracle(-1, 1, 10**20, 2 * 10**38 + 1, 10**30)
        y = quadratic_angle(-3, 3, 3 * 10**20, 2 * 10**38 + 1)
        assert x == y and hash(x) == hash(y)

    def test_rejects_rational_disguises(self):
        with pytest.raises(ValueError):
            quadratic_angle(1, 1, 4, 4)   # sqrt(4) = 2
        with pytest.raises(ValueError):
            quadratic_angle(1, 0, 2, 5)   # b = 0
        with pytest.raises(ValueError):
            quadratic_angle(5, 1, 2, 2)   # value > 1
        with pytest.raises(ValueError):
            quadratic_angle(10**400, 1, 1, 2)  # value > 1, too large for a float

    @settings(max_examples=60, deadline=None)
    @given(coeffs=quadratics(), m=st.integers(1, 24))
    def test_convergent_denominators_match_the_decimal_expansion(self, coeffs, m):
        a, b, c, d = coeffs
        want, q_prev, q = [], 1, 0
        with localcontext() as ctx:
            ctx.prec = 200
            y = m * (a + b * Decimal(d).sqrt()) / c
            for _ in range(12):
                t = int(y.to_integral_value(ROUND_FLOOR))
                q_prev, q = q, t * q + q_prev
                want.append(q)
                y = 1 / (y - t)
        got = quadratic_angle(*coeffs).convergent_denominators(m)
        assert list(itertools.islice(got, 12)) == want

    def test_sides(self):
        g = quadratic_angle(*GOLDEN)
        # {2*g} = 0.2360679... -> mid at delta=1/10, low at delta=1/4
        assert g.frac_side(2, Fraction(1, 10)) == "mid"
        assert g.frac_side(2, Fraction(1, 4)) == "low"
        # {13*g} = {8.034}: low side at 1/25
        assert g.frac_side(13, Fraction(1, 25)) == "low"


class TestDecimal:
    def test_works_within_declared_precision(self):
        d = decimal_angle("0.6180339887", "1e-10")
        assert d.floor_mul(10) == 6

    def test_undecidable_beyond_declared_precision(self):
        d = decimal_angle("0.6180339887", "1e-6")
        with pytest.raises(UndecidableComparison):
            d.floor_mul(10**8)

    def test_varphi_always_one(self):
        assert decimal_angle("0.6180339887", "1e-6").varphi_mul(10**30) == 1

    def test_rejects_enclosure_outside_unit_interval(self):
        with pytest.raises(ValueError):
            decimal_angle("1.5", "0.1")
        with pytest.raises(ValueError):
            decimal_angle("0.5", "0")

    @pytest.mark.parametrize("approx,error", [
        ("0.6", "1e-999999999"), ("1e999999999", "1e-6"), ("0.6", "1E-1_000_001"),
        ("0." + "6" * DECIMAL_LIMIT, "1e-6")],
        ids=["tiny_error", "huge_approximant", "underscored_exponent", "long_string"])
    def test_rejects_unbounded_strings(self, approx, error):
        with pytest.raises(ValueError, match=str(DECIMAL_LIMIT)):
            decimal_angle(approx, error)

    def test_accepts_strings_at_the_limit(self):
        d = decimal_angle("0.6180339887", f"1e-{DECIMAL_LIMIT}")
        assert d.floor_mul(10) == 6


class TestIdentity:
    def test_complement(self):
        assert complement_angle(rational_angle(1, 3)).value == Fraction(2, 3)
        g = quadratic_angle(*GOLDEN)
        c = complement_angle(g)
        assert same_angle(c, quadratic_angle(3, -1, 2, 5))
        assert not same_angle(c, g)

    def test_complement_keeps_the_refiner(self):
        def sqrt2_minus_1(level):  # 24*(level+1) bits
            k = 24 * (level + 1)
            s = isqrt(2 << (2 * k))
            return Fraction(s - (1 << k), 1 << k), Fraction(s + 1 - (1 << k), 1 << k)

        def near_complement(level):  # 1 - (sqrt(2) - 1) + 1e-9
            lo, hi = sqrt2_minus_1(level)
            return 1 - hi + Fraction(1, 10**9), 1 - lo + Fraction(1, 10**9)

        x = IrrationalAngle(Fraction("0.414"), Fraction("0.01"), sqrt2_minus_1)
        y = IrrationalAngle(Fraction("0.586"), Fraction("0.01"), near_complement)
        # level 1 already separates y from 1 - x
        assert splitting_numbers(RotationBlock(x), y, budget=8) == (0, 0)
        assert not same_angle(complement_angle(x), y, budget=1)

    def test_decimal_complement_keeps_its_enclosure_and_equality(self):
        c = complement_angle(decimal_angle("0.6180339887", "1e-7"))
        assert c.enclosure() == (Fraction("0.3819660113") - Fraction("1e-7"),
                                 Fraction("0.3819660113") + Fraction("1e-7"))
        assert c == complement_angle(decimal_angle("0.6180339887", "1e-7"))
        assert c != complement_angle(decimal_angle("0.6180339887", "2e-7"))
        assert c != decimal_angle("0.3819660113", "1e-7")

    def test_same_angle_undecidable_for_refinerless_overlap(self):
        a = decimal_angle("0.33333333", "1e-4")
        with pytest.raises(UndecidableComparison):
            same_angle(a, rational_angle(1, 3))

    def test_budget_zero_raises_fast(self):
        x = sqrt2_minus_1_by_refiner()
        with pytest.raises(UndecidableComparison):
            # budget 0 reads level 0 only, 2**-8 wide
            x.floor_mul(10**60, budget=0)
        assert x.floor_mul(3, budget=0) == 1  # already decidable at level 0
        assert x.floor_mul(10**60) == quad_floor_oracle(-1, 1, 1, 2, 10**60)


class TestValueSemantics:
    def test_equal_rationals_are_one_value(self):
        a, b = rational_angle(2, 6), rational_angle(1, 3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_rational_never_equals_quadratic(self):
        r, q = rational_angle(1, 3), quadratic_angle(-1, 1, 1, 2)
        assert r != q and q != r
        assert len({r, q}) == 2

    def test_rational_angle_is_immutable(self):
        x = rational_angle(1, 3)
        with pytest.raises(AttributeError):
            x.value = Fraction(1, 2)
        assert x.value == Fraction(1, 3)

    def test_is_rational_is_a_class_constant(self):
        assert RationalAngle.is_rational is True
        assert IrrationalAngle.is_rational is False
        assert rational_angle(1, 3).is_rational is True
        assert quadratic_angle(*GOLDEN).is_rational is False
        assert decimal_angle("0.6180339887", "1e-10").is_rational is False


class TestRefusalNamesLevelAndBudget:
    """An undecided query names the last level it read and the budget."""

    def test_refiner_angle(self):
        x = sqrt2_minus_1_by_refiner()
        with pytest.raises(UndecidableComparison, match="at level 0 of budget 0$"):
            x.floor_mul(10**60, budget=0)
        with pytest.raises(UndecidableComparison, match="at level 3 of budget 3$"):
            x.frac_side(10**60, Fraction(1, 7), budget=3)
        with pytest.raises(UndecidableComparison, match="at level 2 of budget 2$"):
            x.frac_mul(10**30, budget=2)
        with pytest.raises(UndecidableComparison, match="at level 1 of budget 1$"):
            same_angle(x, sqrt2_minus_1_by_refiner(), budget=1)

    def test_refinerless_angle_reads_level_zero_only(self):
        d = decimal_angle("0.6180339887", "1e-6")
        with pytest.raises(UndecidableComparison,
                           match=f"at level 0 of budget {DEFAULT_BUDGET}$"):
            d.floor_mul(10**8)

    def test_mean_index(self):
        # a quadratic mean index is exact: its enclosures ignore the budget
        golden = quadratic_angle(*GOLDEN)
        mi = mean_index(PathSeed(2, 1, 0, Decomposition([RotationBlock(golden)])))
        lo, hi = mi.enclosure(Fraction(1, 10**100), budget=0)
        assert hi - lo <= Fraction(1, 10**100)
        with localcontext() as ctx:
            ctx.prec = 400
            value = Fraction(Decimal(5).sqrt() - 1)  # 1 - 1 + 2*(sqrt(5) - 1)/2
        assert lo < value < hi
        # a refiner's mean index reads its levels
        x = sqrt2_minus_1_by_refiner()
        mi = mean_index(PathSeed(2, 1, 0, Decomposition([RotationBlock(x)])))
        with pytest.raises(UndecidableComparison, match="at level 2 of budget 2$"):
            mi.enclosure(Fraction(1, 10**100), budget=2)
        with pytest.raises(UndecidableComparison, match=re.escape(
                "floor(1000000000000 / (1 * mean index)) undecided at level 0 of budget 0")):
            mi.floor_quotient(10**12, 1, budget=0)
        lo, hi = mi.enclosure(Fraction(1, 10**40))
        with pytest.raises(UndecidableComparison, match="at level 1 of budget 1$"):
            mi.cmp((lo + hi) / 2, budget=1)


def sqrt2_minus_1_by_refiner() -> IrrationalAngle:
    """sqrt(2) - 1 as a user angle: level k is 2**-(8*(k+1)) wide."""
    def refiner(level):
        k = 8 * (level + 1)
        s = isqrt(2 << (2 * k))
        return Fraction(s - (1 << k), 1 << k), Fraction(s + 1 - (1 << k), 1 << k)
    lo, hi = refiner(0)
    return IrrationalAngle((lo + hi) / 2, (hi - lo) / 2, refiner)


class TestHistoryIndependence:
    """A certified query is a function of (angle, multiplier, budget) alone."""

    def test_quadratic_budget_zero_fresh_and_after_deep_query(self):
        assert quadratic_angle(*GOLDEN).floor_mul(10**12, budget=0) == 618033988749
        g = quadratic_angle(*GOLDEN)
        g.floor_mul(10**30)
        assert g.floor_mul(10**12, budget=0) == 618033988749

    @pytest.mark.parametrize("budget", [0, 2, 5])
    def test_refiner_angle_same_answer_fresh_and_after_deep_query(self, budget):
        def answers(x):
            out = []
            for m in (3, 10**5, 10**9, 10**20):
                try:
                    out.append((x.floor_mul(m, budget),
                                x.frac_side(m, Fraction(1, 7), budget)))
                except UndecidableComparison:
                    out.append("undecidable")
            return out

        fresh = answers(sqrt2_minus_1_by_refiner())
        warm = sqrt2_minus_1_by_refiner()
        warm.floor_mul(10**40)
        warm.frac_mul(10**30, tol=Fraction(1, 10**6))
        assert answers(warm) == fresh
        assert "undecidable" in fresh  # the budget really bounds this angle

    def test_mean_index_same_answer_fresh_and_after_deep_query(self):
        # a seed's mean index is built once and shared by every caller, so
        # deep queries through one caller must not change another's answers
        for angle in (lambda: quadratic_angle(*GOLDEN), sqrt2_minus_1_by_refiner):
            self.check_mean_index_shared(angle)

    @staticmethod
    def check_mean_index_shared(angle):
        def seed():
            return PathSeed(2, 1, 0, Decomposition([RotationBlock(angle())]))

        def answers(queries):
            out = []
            for query in queries:
                try:
                    out.append(query())
                except UndecidableComparison as exc:
                    out.append(str(exc))
            return out

        def shallow(mi, budget):
            return answers([lambda: mi.floor_quotient(16238, 1, budget),
                            lambda: mi.floor_quotient(10**9, 1, budget),
                            lambda: mi.floor_quotient(10**40, 1, budget),
                            lambda: mi.cmp(Fraction(1, 3), budget),
                            lambda: mi.lower_bound(budget),
                            lambda: mi.enclosure(Fraction(1, 10**12), budget)])

        shared = seed()
        answers([lambda: shared.mean.floor_quotient(10**300, 1),
                 lambda: shared.mean.enclosure(Fraction(1, 10**100)),
                 lambda: mean_index(shared).floor_quotient(10**200, 3)])
        assert mean_index(shared) is shared.mean
        for budget in (0, 1, 3):
            assert shallow(shared.mean, budget) == shallow(seed().mean, budget)


def test_concurrent_refinement_stays_consistent():
    g = quadratic_angle(-2, 1, 1, 7)
    results = []

    def worker(m):
        results.append((m, g.floor_mul(m)))

    threads = [threading.Thread(target=worker, args=(10**k,)) for k in range(1, 9)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for m, value in results:
        assert value == quad_floor_oracle(-2, 1, 1, 7, m)


def decimal_value(coeffs, m: int = 1) -> Decimal:
    """m * (a + b*sqrt(d)) / c to 400 significant digits."""
    a, b, c, d = coeffs
    with localcontext() as ctx:
        ctx.prec = 400
        return (m * a + m * b * Decimal(d).sqrt()) / c


deltas = st.tuples(st.integers(1, 10**6), st.integers(3, 10**6)).filter(
    lambda t: 2 * t[0] < t[1]).map(lambda t: Fraction(*t))


class TestQuadraticKernel:
    """The closed-form kernel against the scaled-isqrt oracle and an
    independent 400-digit decimal evaluation."""

    @settings(max_examples=300, deadline=None)
    @given(coeffs=quadratics(), m=st.integers(1, 10**120), delta=deltas)
    def test_floor_and_side(self, coeffs, m, delta):
        x = quadratic_angle(*coeffs)
        value = decimal_value(coeffs, m)
        f = int(value.to_integral_value(rounding=ROUND_FLOOR))
        assert x.floor_mul(m) == quad_floor_oracle(*coeffs, m) == f
        with localcontext() as ctx:
            ctx.prec = 400
            frac = value - f
            d = Decimal(delta.numerator) / delta.denominator
            want = "low" if frac < d else "high" if frac > 1 - d else "mid"
        assert x.frac_side(m, delta) == want

    @settings(max_examples=200, deadline=None)
    @given(x=quadratics(), y=quadratics(), k=st.integers(1, 9), f=st.integers(1, 5),
           disguise=st.booleans())
    def test_same_angle(self, x, y, k, f, disguise):
        if disguise:  # the same value, written with scaled coefficients
            a, b, c, d = x
            y = (k * f * a, k * b, k * f * c, d * f * f)
        equal = abs(decimal_value(x) - decimal_value(y)) < Decimal(10) ** -300
        assert same_angle(quadratic_angle(*x), quadratic_angle(*y)) == equal
        assert not same_angle(quadratic_angle(*x), rational_angle(1, 3))


class TestDeltaCheck:
    """The integer test of a Fraction delta accepts exactly 0 < delta < 1/2."""

    @staticmethod
    def accepted(delta) -> bool:
        try:
            _check_delta(delta)
        except ValueError as exc:
            assert str(exc) == f"delta must lie in (0, 1/2), got {delta}"
            return False
        return True

    @pytest.mark.parametrize("delta", [
        Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(-1, 2), Fraction(1),
        Fraction(1, 3), Fraction(49, 100), Fraction(50, 101), Fraction(51, 101),
        Fraction(10**999, 2 * 10**999 + 1), Fraction(10**999 + 1, 2 * 10**999 + 1),
        Fraction(1, 10**1000), Fraction(-1, 10**1000), 0, 1, -1, 0.25, 0.5, 0.0])
    def test_boundaries(self, delta):
        assert self.accepted(delta) == (0 < delta < Fraction(1, 2))

    @settings(max_examples=400, deadline=None)
    @given(num=st.one_of(st.integers(-10, 10), st.integers(-10**1000, 10**1000)),
           den=st.one_of(st.integers(1, 30), st.integers(1, 10**1000)),
           near_half=st.booleans())
    def test_random_fractions(self, num, den, near_half):
        delta = Fraction(den + num % 3 - 1, 2 * den) if near_half else Fraction(num, den)
        assert self.accepted(delta) == (0 < delta < Fraction(1, 2))

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), float("-inf")])
    def test_nan_and_infinities(self, delta):
        assert not self.accepted(delta)

    @settings(max_examples=200, deadline=None)
    @given(delta=st.floats(2.0**-60, 0.5, exclude_max=True), x=quadratics(),
           m=st.integers(1, 10**12), p=st.integers(1, 11))
    def test_float_delta_gives_the_side_of_the_equal_fraction(self, delta, x, m, p):
        for angle in (rational_angle(p, 12), quadratic_angle(*x),
                      decimal_angle("0.6180339887498948482", "1e-19")):
            sides = []
            for d in (delta, Fraction(delta)):
                try:
                    sides.append(angle.frac_side(m, d))
                except UndecidableComparison as exc:
                    sides.append(str(exc))
            assert sides[0] == sides[1]
