"""Certified angle arithmetic: exactness, enclosures, undecidability."""

from __future__ import annotations

import threading
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symjump import (Decomposition, ExactAngle, IrrationalAngle,
                     PathSeed, QuadraticAngle, RationalAngle, RotationBlock, UndecidableComparison,
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

    @settings(max_examples=300, deadline=None)
    @given(pq=rationals, m=st.integers(1, 10**6),
           delta=st.tuples(st.integers(1, 200), st.integers(3, 10**4)).filter(
               lambda t: 2 * t[0] < t[1]).map(lambda t: Fraction(*t)))
    def test_frac_side_matches_the_fraction_definition(self, pq, m, delta):
        x = rational_angle(pq[1], pq[0])
        f = m * x.value - x.floor_mul(m)
        want = "zero" if f == 0 else "low" if f < delta else "high" if f > 1 - delta else "mid"
        assert x.frac_side(m, delta) == want

    def test_frac_side_at_the_thresholds(self):
        # {x} = 1/10 and 9/10 at delta = 1/10 are neither low nor high
        assert rational_angle(1, 10).frac_side(1, Fraction(1, 10)) == "mid"
        assert rational_angle(1, 10).frac_side(9, Fraction(1, 10)) == "mid"
        assert rational_angle(1, 10).frac_side(10, Fraction(1, 10)) == "zero"
        assert rational_angle(1, 20).frac_side(1, Fraction(1, 10)) == "low"
        assert rational_angle(1, 20).frac_side(19, Fraction(1, 10)) == "high"



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
        m=st.integers(1, 10**9), mult=st.integers(1, 10**4))
    def test_floor_matches_oracle(self, coeffs, m, mult):
        # and the folded kernel of a near-return walk, at g = m
        x = quadratic_angle(*coeffs)
        assert x.floor_mul(m) == quad_floor_oracle(*coeffs, m)
        assert x._floor_kernel(mult)(m) == quad_floor_oracle(*coeffs, mult * m)

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.sampled_from([(-1, 1, 1, 2), (-1, 1, 2, 5), (0, 1, 3, 3)]),
           m=st.integers(1, 10**6))
    def test_ceil_floor_varphi_relation(self, coeffs, m):
        x = quadratic_angle(*coeffs)
        assert x.ceil_mul(m) - x.floor_mul(m) == x.varphi_mul(m) == 1

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

    def test_range_is_decided_exactly(self):
        # 5741*sqrt(2) - 8118 = 1 + 0.0000616...; 5741*sqrt(2) exceeds 8119 by
        # about 1/16238, and 5741*2**-24 is wider than that
        with pytest.raises(ValueError, match=r"\(-8118\+5741\*sqrt\(2\)\)/1 lies outside"):
            quadratic_angle(-8118, 5741, 1, 2)
        assert quadratic_angle(-8119, 5741, 1, 2).floor_mul(16238) == 0

    def test_sides(self):
        g = quadratic_angle(*GOLDEN)
        # {2*g} = 0.2360679... -> mid at delta=1/10, low at delta=1/4
        assert g.frac_side(2, Fraction(1, 10)) == "mid"
        assert g.frac_side(2, Fraction(1, 4)) == "low"
        # {13*g} = {8.034}: low side at 1/25
        assert g.frac_side(13, Fraction(1, 25)) == "low"

    def test_frac_side_takes_one_floor(self, monkeypatch):
        g, calls = quadratic_angle(*GOLDEN), []
        floor = QuadraticAngle._floor

        def counted(self, m):
            calls.append(m)
            return floor(self, m)

        monkeypatch.setattr(QuadraticAngle, "_floor", counted)
        for m, delta, side in ((2, Fraction(1, 10), "mid"), (13, Fraction(1, 25), "low"),
                               (10**40, Fraction(1, 10**6), "mid")):
            calls.clear()
            assert g.frac_side(m, delta) == side
            assert calls == [delta.denominator * m]


@pytest.mark.parametrize("x", [rational_angle(1, 3), quadratic_angle(*GOLDEN),
                               decimal_angle("0.6180339887", "1e-10")], ids=repr)
def test_frac_side_names_a_bad_operand_first(x):
    # both operands bad: every kind names the multiplier first
    with pytest.raises(ValueError, match=r"multiplier must be a positive integer, got 0"):
        x.frac_side(0, Fraction(1, 2))
    with pytest.raises(ValueError, match=r"multiplier must be a positive integer, got 1\.5"):
        x.frac_side(1.5, Fraction(1, 10))
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1/2\), got 1/2"):
        x.frac_side(1, Fraction(1, 2))


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

    @pytest.mark.parametrize("approx,error,message", [
        ("1.5", "0.1", "enclosure lies outside (0,1)"),
        ("-0.5", "0.1", "enclosure lies outside (0,1)"),
        ("0.5", "0", "error bound must be positive"),
        ("0.5", "-1e-3", "error bound must be positive")])
    def test_refusal_messages(self, approx, error, message):
        with pytest.raises(ValueError) as exc:
            decimal_angle(approx, error)
        assert str(exc.value) == message

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

    def test_decimal_enclosure_just_off_a_quadratic(self):
        # sqrt(2) - 1 lies in ((r - 1)/S - 1, r/S - 1], r = isqrt(2*S*S) + 1,
        # S = 10**990; an enclosure of error 1/S around (r - 3)/S - 1 ends 1
        # to 2 S below it, which only an exact test can see
        S = 10**990
        r = isqrt(2 * S * S) + 1
        y = quadratic_angle(-1, 1, 1, 2)
        x = decimal_angle(f"0.{r - 3 - S:0990d}", "1e-990")
        hi = x.enclosure()[1]
        assert (hi + 1) ** 2 < 2 < (hi + 1 + Fraction(2, S)) ** 2
        for a, b in ((x, y), (complement_angle(x), complement_angle(y))):
            assert not same_angle(a, b) and not same_angle(b, a)
        assert splitting_numbers(RotationBlock(y), x) == (0, 0)
        # moved by 2/S the enclosure holds sqrt(2) - 1: no answer
        inside = decimal_angle(f"0.{r - 1 - S:0990d}", "1e-990")
        for a, b in ((inside, y), (complement_angle(inside), complement_angle(y))):
            with pytest.raises(UndecidableComparison):
                same_angle(a, b)
            with pytest.raises(UndecidableComparison):
                same_angle(b, a)

    def test_decimal_complement_keeps_its_enclosure_and_equality(self):
        c = complement_angle(decimal_angle("0.6180339887", "1e-7"))
        assert c.enclosure() == (Fraction("0.3819660113") - Fraction("1e-7"),
                                 Fraction("0.3819660113") + Fraction("1e-7"))
        assert c == complement_angle(decimal_angle("0.6180339887", "1e-7"))
        assert c != complement_angle(decimal_angle("0.6180339887", "2e-7"))
        assert c != decimal_angle("0.3819660113", "1e-7")

    def test_decimal_complement_reflects_the_enclosure(self):
        for x in (decimal_angle("0.6180339887", "1e-7"), decimal_angle("0.99", "0.05")):
            c = complement_angle(x)
            assert c.enclosure() == (1 - x.hi, 1 - x.lo)
            assert c.source == ("complement", x.source)
        assert complement_angle(decimal_angle("0.99", "0.05")).enclosure() == (
            0, Fraction(3, 50))  # the clipped end 1 becomes 0

    def test_same_angle_undecidable_for_refinerless_overlap(self):
        a = decimal_angle("0.33333333", "1e-4")
        with pytest.raises(UndecidableComparison):
            same_angle(a, rational_angle(1, 3))


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

    def test_quadratic_angle_is_a_frozen_value(self):
        x = quadratic_angle(*GOLDEN)
        assert (x.a, x.b, x.c, x.d) == GOLDEN
        with pytest.raises(AttributeError):
            x.a = 0
        assert isinstance(x, ExactAngle) and not isinstance(x, IrrationalAngle)
        assert QuadraticAngle(*GOLDEN) == x
        for coeffs in ((1, -1, -2, 5), (-2, 2, 4, 5)):  # only quadratic_angle reduces
            with pytest.raises(ValueError, match=r"needs c > 0 and gcd\(a, b, c\) = 1"):
                QuadraticAngle(*coeffs)

    def test_quadratic_disguises_are_one_value(self):
        for y, z in ((quadratic_angle(0, 1, 4, 8), quadratic_angle(0, 1, 2, 2)),  # sqrt(8)/4
                     (quadratic_angle(-2, 2, 2, 2), quadratic_angle(-1, 1, 1, 2)),
                     (quadratic_angle(3, -1, 2, 5), quadratic_angle(-6, 2, -4, 5))):
            assert y == z and hash(y) == hash(z)
            assert len({y, z}) == 1
        assert quadratic_angle(0, 1, 2, 2) != quadratic_angle(0, 1, 3, 3)
        assert quadratic_angle(-1, 1, 2, 5) != quadratic_angle(3, -1, 2, 5)

    @pytest.mark.parametrize("coeffs, value", [
        ((-1, 1, 2, 5), 0.6180339887498949), ((-1, 1, 1, 2), 0.41421356237309503),
        ((0, 1, 4, 8), 0.7071067811865476), ((-19600, 13860, 1, 2), 0.9999744910973764),
        ((-8119, 5741, 1, 2), 6.158393867517049e-05)])
    def test_quadratic_float_is_the_first_enclosure_midpoint(self, coeffs, value):
        # the double nearest the value, not the midpoint of the first enclosure
        # (sqrt(d) between multiples of 2**-24, clipped to [0, 1]), which the
        # last two reach past 1 and below 0
        a, b, c, d = coeffs
        with localcontext() as ctx:
            ctx.prec = 60
            assert float((a + b * Decimal(d).sqrt()) / c) == value
        assert float(quadratic_angle(*coeffs)) == value

    def test_reprs(self):
        assert repr(quadratic_angle(*GOLDEN)) == "QuadraticAngle((-1+1*sqrt(5))/2)"
        assert repr(quadratic_angle(6, -2, 4, 5)) == "QuadraticAngle((3-1*sqrt(5))/2)"
        assert repr(rational_angle(1, 3)) == "RationalAngle(1/3)"

    def test_rational_enclosure_is_the_value(self):
        assert rational_angle(2, 6).enclosure(Fraction(1, 10)) == (Fraction(1, 3),) * 2

    def test_irrational_angle_is_a_frozen_value(self):
        x = decimal_angle("0.618", "1e-3")
        assert (x.lo, x.hi, x.source) == (
            Fraction(617, 1000), Fraction(619, 1000), ("decimal", ("0.618", "1e-3")))
        with pytest.raises(AttributeError):
            x.lo = Fraction(0)
        assert x.lo == Fraction(617, 1000)
        assert IrrationalAngle(x.lo, x.hi, x.source) == x

    def test_decimal_angles_with_the_same_strings_are_one_value(self):
        x, y = decimal_angle("0.618", "1e-3"), decimal_angle("0.618", "1e-3")
        assert x == y and hash(x) == hash(y)
        assert len({x, y}) == 1 and same_angle(x, y)

    def test_decimal_angles_differ_by_their_strings(self):
        x, y = decimal_angle("0.6180", "1e-3"), decimal_angle("0.618", "1e-3")
        assert x.enclosure() == y.enclosure()
        assert x != y
        with pytest.raises(UndecidableComparison):
            same_angle(x, y)

    @pytest.mark.parametrize("lo, hi", [
        (Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 5), Fraction(1, 2)),
        (Fraction(-1, 10), Fraction(1, 2)), (Fraction(1, 2), Fraction(11, 10))],
        ids=["empty", "reversed", "below_zero", "above_one"])
    def test_irrational_angle_rejects_bad_enclosures(self, lo, hi):
        with pytest.raises(ValueError, match=r"needs 0 <= lo < hi <= 1"):
            IrrationalAngle(lo, hi, ("decimal", ("?", "?")))

    @pytest.mark.parametrize("x, value, text", [
        (rational_angle(1, 3), 0.3333333333333333, "RationalAngle(1/3)"),
        (quadratic_angle(*GOLDEN), 0.6180339887498949, "QuadraticAngle((-1+1*sqrt(5))/2)"),
        (decimal_angle("0.6180339887", "1e-6"), 0.6180339887, "IrrationalAngle(~0.6180339887)"),
        (decimal_angle("0.99", "0.05"), 0.97, "IrrationalAngle(~0.9700000000)")],
        ids=["rational", "quadratic", "decimal", "clipped_decimal"])
    def test_float_and_repr_per_kind(self, x, value, text):
        # the nearest double, or a decimal's stated-enclosure midpoint; the
        # clipped decimal's enclosure is [0.94, 1]
        assert float(x) == value
        assert repr(x) == text

    def test_is_rational_is_a_class_constant(self):
        assert RationalAngle.is_rational is True
        assert IrrationalAngle.is_rational is False
        assert QuadraticAngle.is_rational is False
        assert rational_angle(1, 3).is_rational is True
        assert quadratic_angle(*GOLDEN).is_rational is False
        assert decimal_angle("0.6180339887", "1e-10").is_rational is False


class TestRefusalNamesTheQuery:
    """An undecided query names the query and the angle, and nothing else:
    it reads one enclosure, so there is no level or budget to name."""

    def test_decimal_angle(self):
        d = decimal_angle("0.6180339887", "1e-6")
        name = "IrrationalAngle(~0.6180339887)"
        for query, message in (
                (lambda: d.ceil_mul(10**8), f"floor(100000000 * {name}) undecided"),
                (lambda: d.frac_side(10**6, Fraction(1, 7)),
                 f"side of frac(1000000 * {name}) vs delta=1/7 undecided"),
                (lambda: same_angle(d, decimal_angle("0.6180339", "1e-6")),
                 f"equality of {name} and IrrationalAngle(~0.6180339000) undecided")):
            with pytest.raises(UndecidableComparison) as exc:
                query()
            assert str(exc.value) == message

    def test_decimal_angle_decides_within_its_enclosure_only(self):
        d = decimal_angle("0.6180339887", "1e-6")
        assert d.floor_mul(10**5) == 61803
        with pytest.raises(UndecidableComparison) as exc:
            d.floor_mul(10**8)
        assert str(exc.value) == "floor(100000000 * IrrationalAngle(~0.6180339887)) undecided"

    def test_mean_index(self):
        # a quadratic mean index is exact: closed form at any width
        golden = quadratic_angle(*GOLDEN)
        mi = mean_index(PathSeed(1, Decomposition([RotationBlock(golden)])))
        lo, hi = mi.enclosure(Fraction(1, 10**100))
        assert hi - lo <= Fraction(1, 10**100)
        with localcontext() as ctx:
            ctx.prec = 400
            value = Fraction(Decimal(5).sqrt() - 1)  # 1 - 1 + 2*(sqrt(5) - 1)/2
        assert lo < value < hi
        # a decimal angle's mean index reads its one stated enclosure
        x = decimal_angle("0.41421356237", "1e-11")
        mi = mean_index(PathSeed(1, Decomposition([RotationBlock(x)])))
        with pytest.raises(UndecidableComparison) as exc:
            mi.enclosure(Fraction(1, 10**100))
        assert str(exc.value) == f"mean index enclosure of width 1/{10**100} undecided"
        with pytest.raises(UndecidableComparison) as exc:
            mi.floor_quotient(10**12, 1)
        assert str(exc.value) == "floor(1000000000000 / (1 * mean index)) undecided"
        lo, hi = mi.enclosure(Fraction(1, 10**9))
        with pytest.raises(UndecidableComparison) as exc:
            mi.cmp((lo + hi) / 2)
        assert str(exc.value) == f"mean index vs {(lo + hi) / 2} undecided"


class TestHistoryIndependence:
    """A certified query is a function of (angle, operands) alone."""

    def test_quadratic_fresh_and_after_deep_query(self):
        assert quadratic_angle(*GOLDEN).floor_mul(10**12) == 618033988749
        g = quadratic_angle(*GOLDEN)
        g.floor_mul(10**30)
        g.enclosure(Fraction(1, 10**100))
        assert g.floor_mul(10**12) == 618033988749

    def test_decimal_angle_same_answer_fresh_and_after_deep_query(self):
        def answers(x):
            out = []
            for m in (3, 10**5, 10**9, 10**20):
                try:
                    out.append((x.floor_mul(m), x.frac_side(m, Fraction(1, 7))))
                except UndecidableComparison:
                    out.append("undecidable")
            return out

        def angle():
            return decimal_angle("0.41421356237309504880", "1e-15")

        fresh = answers(angle())
        warm = angle()
        with pytest.raises(UndecidableComparison):
            warm.floor_mul(10**40)
        assert answers(warm) == fresh
        assert "undecidable" in fresh  # the stated enclosure really bounds this angle

    def test_mean_index_same_answer_fresh_and_after_deep_query(self):
        # a seed's mean index is built once and shared by every caller, so
        # deep queries through one caller must not change another's answers
        for angle in (lambda: quadratic_angle(*GOLDEN),
                      lambda: decimal_angle("0.41421356237309504880", "1e-15")):
            self.check_mean_index_shared(angle)

    @staticmethod
    def check_mean_index_shared(angle):
        def seed():
            return PathSeed(1, Decomposition([RotationBlock(angle())]))

        def answers(queries):
            out = []
            for query in queries:
                try:
                    out.append(query())
                except UndecidableComparison as exc:
                    out.append(str(exc))
            return out

        def shallow(mi):
            return answers([lambda: mi.floor_quotient(16238, 1),
                            lambda: mi.floor_quotient(10**9, 1),
                            lambda: mi.floor_quotient(10**40, 1),
                            lambda: mi.cmp(Fraction(1, 3)),
                            lambda: mi.enclosure(Fraction(1, 10**12))])

        shared = seed()
        answers([lambda: shared.mean.floor_quotient(10**300, 1),
                 lambda: shared.mean.enclosure(Fraction(1, 10**100)),
                 lambda: mean_index(shared).floor_quotient(10**200, 3)])
        assert mean_index(shared) is shared.mean
        assert shallow(shared.mean) == shallow(seed().mean)


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
