"""Iteration formulas: initial consistency, matrix oracles, mean index, gaps."""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from contextlib import contextmanager
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from math import isqrt, lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symjump import (ConstraintViolation, Decomposition, HyperbolicBlock,
                     IrrationalAngle, IterationRow, MeanIndex, N1Block, N2Block, NoTupleFound,
                     PathSeed, RotationBlock, ScenarioError, UndecidableComparison, bott_gap,
                     complement_angle, decimal_angle, elliptic_height,
                     find_jump_tuples, index_iterate, iteration_rows,
                     mean_index, nullity_iterate, parse_scenario, quadratic_angle,
                     rational_angle, realize, splitting_numbers)
from symjump.angles import QuadraticAngle, RationalAngle
from symjump.iteration import _index_slack
from symjump.jumps import _last_step

from conftest import angle_lcm, nu_of, quadratics, random_seed

GOLDEN = quadratic_angle(-1, 1, 2, 5)


@contextmanager
def no_angle_read():
    """Fail on any read of an angle's enclosure: a mean index whose angles
    are all quadratic decides from its exact part alone."""
    def spy(self, width=None):
        raise AssertionError(f"the enclosure of {self!r} was read")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IrrationalAngle, "enclosure", spy)
        mp.setattr(QuadraticAngle, "enclosure", spy)
        yield


def analytic_kernel_dim(decomp: Decomposition, m: int) -> int:
    """Independent per-block dim ker(B^m - I): shears keep one kernel vector
    (two when the shear vanishes), -1-eigenvalue blocks only at even m,
    rotation-type blocks exactly when the angle multiple is an integer."""
    total = 0
    for blk in decomp.blocks:
        if isinstance(blk, N1Block):
            if blk.lam == 1 or m % 2 == 0:
                total += 2 if blk.b == 0 else 1
        elif isinstance(blk, (RotationBlock, N2Block)):
            a = blk.angle
            if a.is_rational and (m * a.value.numerator) % a.value.denominator == 0:
                total += 2
    return total


class TestExamples:
    def test_m1_reproduces_initial_data(self):
        s = PathSeed(1, Decomposition([RotationBlock(GOLDEN)]))
        assert index_iterate(s, 1) == 1
        assert nullity_iterate(s, 1) == 0

    def test_golden_rotation_m2(self):
        s = PathSeed(1, Decomposition([RotationBlock(GOLDEN)]))
        assert index_iterate(s, 2) == 3

    def test_identity_block_m5(self):
        s = PathSeed(1, Decomposition([N1Block(1, 0)]))
        assert index_iterate(s, 5) == 9
        assert nullity_iterate(s, 11) == 2

    def test_third_rotation_nullity(self):
        s = PathSeed(1, Decomposition([RotationBlock(rational_angle(1, 3))]))
        assert nullity_iterate(s, 3) == 2

    def test_minus_identity_nullity(self):
        s = PathSeed(0, Decomposition([N1Block(-1, 0)]))
        assert nullity_iterate(s, 2) == 2
        assert nullity_iterate(s, 3) == 0

    def test_mean_index_examples(self):
        s = PathSeed(1, Decomposition([RotationBlock(rational_angle(1, 3))]))
        assert mean_index(s).exact() == Fraction(2, 3)
        s = PathSeed(1, Decomposition([N1Block(1, 0)]))
        assert mean_index(s).exact() == 2
        s = PathSeed(5, Decomposition([HyperbolicBlock()]))
        assert mean_index(s).exact() == 5

    @pytest.mark.parametrize("i1,others,mean", [
        (2, [(2, -1, 1, 2)], 2),      # 1 - x: the irrational parts cancel
        (2, [(4, -1, 2, 8)], 2),      # 1 - x, written (4 - sqrt(8))/2
        (2, [(0, 1, 4, 2)], None),    # sqrt(2)/4: another irrational part
        (2, [(-1, 1, 2, 5)], None),   # another field
        # (2 - sqrt(2))/2 twice: the parts 2*sqrt(2) and -sqrt(2) - sqrt(2)
        (4, [(2, -1, 2, 2), (2, -1, 2, 2)], 3)],
        ids=["conjugate", "conjugate_disguised", "other_part", "other_field",
             "two_halves"])
    def test_mean_index_of_conjugate_quadratic_rotations(self, i1, others, mean):
        x = quadratic_angle(-1, 1, 1, 2)
        blocks = [RotationBlock(x)] + [RotationBlock(quadratic_angle(*o)) for o in others]
        s = PathSeed(i1, Decomposition(blocks))
        mi = mean_index(s)
        assert mi.is_exact == (mean is not None)
        if mean is not None:
            assert mi.exact() == mean
            d = s.decomp
            bound = 3 * d.r + 2 * d.r_star + d.p_minus + d.p_zero + d.q_zero + d.q_plus
            for m in (10**3, 10**6, 10**30):
                assert abs(index_iterate(s, m) - mean * m) <= bound

    def test_mean_index_equality_ignores_the_memo(self):
        s = PathSeed(1, Decomposition([RotationBlock(GOLDEN)]))
        used = mean_index(s)
        used.floor_quotient(10**300, 1)
        assert used == mean_index(s)
        assert used != mean_index(PathSeed(2, Decomposition([RotationBlock(GOLDEN)])))

    def test_negative_irrational_mean_index_is_refused_at_once(self):
        # 0 - 1 + 2(sqrt(2) - 1) < 0
        s = PathSeed(0, Decomposition([RotationBlock(quadratic_angle(-1, 1, 1, 2))]))
        mi = mean_index(s)
        # the exact form certifies the sign: no angle is read
        with no_angle_read(), pytest.raises(ValueError, match="mean index must be positive"):
            mi.floor_quotient(5, 1)

    def test_bott_gap_examples(self):
        s = PathSeed(1, Decomposition([N1Block(1, 0)]))
        assert bott_gap(s, 1) == 0
        s = PathSeed(1, Decomposition([RotationBlock(GOLDEN)]))
        for m in range(1, 1001):
            assert bott_gap(s, m) >= 0
        s = PathSeed(2, Decomposition([RotationBlock(rational_angle(1, 4)),
                                       HyperbolicBlock()]))
        assert bott_gap(s, 4) >= 2 - elliptic_height(s.decomp) // 2

    def test_rows_are_lazy_and_consistent(self):
        s = PathSeed(1, Decomposition([RotationBlock(rational_angle(1, 3))]))
        rows = iteration_rows(s, 10**9)  # must not evaluate eagerly
        first = next(rows)
        assert first == IterationRow(1, 1, 0)

    @pytest.mark.parametrize("m_max", [2.5, 0, 3.0])
    def test_rows_refuse_a_count_that_is_not_a_positive_integer(self, m_max):
        s = PathSeed(1, Decomposition([N1Block(1, 0)]))
        with pytest.raises(ValueError, match=rf"^m_max must be a positive integer, got {m_max}$"):
            iteration_rows(s, m_max)

    def test_rejects_nonpositive_iterate(self):
        s = PathSeed(1, Decomposition([N1Block(1, 0)]))
        with pytest.raises(ValueError):
            index_iterate(s, 0)


class TestSeedValidation:
    def test_nullity_census_mismatch(self):
        # nu1 is derived; a scenario that states another one is refused
        doc = ('{"version": 1, "system": {"n": 2}, '
               '"seeds": [{"i1": 1, "nu1": 1, "blocks": [{"n1": [1, 0]}]}]}')
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert str(exc.value) == ("seeds[0]: initial nullity must equal the 1-eigenvalue "
                                  "kernel of the endpoint: expected 2, got 1")

    def test_dimension_mismatch(self):
        # n and nu1 are derived from the endpoint, so no call can state others
        d = Decomposition([N1Block(1, 0), N1Block(1, -1), N2Block(GOLDEN, True)])
        s = PathSeed(1, d)
        assert (s.n, s.nu1) == (d.n, d.p_minus + 2 * d.p_zero + d.p_plus) == (5, 3)
        with pytest.raises(TypeError):
            PathSeed(5, 1, 3, d)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            PathSeed(0, Decomposition([]))

    def test_nullity_range_check_is_a_raise(self):
        # an explicit raise, not an assert, so `python -O` keeps the check
        s = PathSeed(1, Decomposition([N1Block(1, 0)]))
        object.__setattr__(s, "nu1", 7)  # a seed that bypassed validation
        with pytest.raises(ConstraintViolation, match=r"nullity of iterate m=1 is 7"):
            nullity_iterate(s, 1)


@pytest.mark.parametrize("rng_seed", range(20))
def test_m1_consistency_randomized(rng_seed):
    rng = random.Random(1000 + rng_seed)
    s = random_seed(rng)
    assert index_iterate(s, 1) == s.i1
    assert nullity_iterate(s, 1) == s.nu1


@pytest.mark.parametrize("rng_seed", range(12))
def test_nullity_matches_analytic_kernel(rng_seed):
    rng = random.Random(2000 + rng_seed)
    while True:
        s = random_seed(rng, allow_irrational=False)
        if angle_lcm(s.decomp) <= 40:
            break
    for m in range(1, 4 * angle_lcm(s.decomp) + 1):
        assert nullity_iterate(s, m) == s.nu1 - nu_of(s.decomp) + analytic_kernel_dim(s.decomp, m)


@pytest.mark.parametrize("rng_seed", range(6))
def test_nullity_matches_numerical_kernel(rng_seed):
    rng = random.Random(3000 + rng_seed)
    while True:
        s = random_seed(rng, allow_irrational=False, allow_hyperbolic=False)
        if angle_lcm(s.decomp) <= 24:
            break
    M = np.asarray(realize(s.decomp))
    power = np.eye(M.shape[0])
    for m in range(1, 4 * angle_lcm(s.decomp) + 1):
        power = power @ M
        sv = np.linalg.svd(power - np.eye(M.shape[0]), compute_uv=False)
        numerical = int(np.sum(sv < 1e-8))
        assert numerical == nullity_iterate(s, m) - (s.nu1 - nu_of(s.decomp))


@pytest.mark.parametrize("rng_seed", range(10))
def test_mean_index_convergence_bound(rng_seed):
    rng = random.Random(4000 + rng_seed)
    s = random_seed(rng)
    bound = _index_slack(s.decomp)
    mi = mean_index(s)
    for m in (1, 2, 3, 10, 100, 1000):
        i_m = index_iterate(s, m)
        if mi.is_exact:
            assert abs(i_m - m * mi.exact()) <= bound
        else:
            lo, hi = mi.enclosure(Fraction(1, 10**9))
            assert i_m - m * hi >= -bound and i_m - m * lo <= bound


@pytest.mark.parametrize("rng_seed", range(10))
def test_mean_index_is_cesaro_limit(rng_seed):
    rng = random.Random(5000 + rng_seed)
    s = random_seed(rng, allow_irrational=False)
    value = mean_index(s).exact()
    m = 30000
    assert abs(Fraction(index_iterate(s, m), m) - value) <= Fraction(1, 1000)


@pytest.mark.parametrize("rng_seed", range(8))
def test_periodicity_on_rational_lattice(rng_seed):
    rng = random.Random(6000 + rng_seed)
    s = random_seed(rng, allow_irrational=False)
    m0 = 1
    for _, _, a in s.decomp.spectrum_angles():
        m0 = lcm(m0, a.value.denominator)
    growth = 2 * m0 * mean_index(s).exact()
    assert growth.denominator == 1
    for m in range(1, 2 * m0 + 1):
        assert index_iterate(s, m + 2 * m0) - index_iterate(s, m) == growth


@pytest.mark.parametrize("rng_seed", range(10))
def test_bott_gap_bound_randomized(rng_seed):
    rng = random.Random(7000 + rng_seed)
    n = rng.randint(2, 6)
    s = random_seed(rng, n=n, i1_low=n - 1, i1_high=n + 3)
    floor_bound = s.i1 - elliptic_height(s.decomp) // 2
    for m in range(1, 101):
        assert bott_gap(s, m) >= floor_bound


# Square classes of radicands: sqrt(8) = 2*sqrt(2) beside sqrt(2) must merge.
SQUARE_CLASSES = ((2, 8, 18), (3, 12), (5, 20), (7, 63))

# A0 + B1*sqrt(2) + B2*sqrt(3) within 5e-6 of 0, among the closest with
# |B_i| < 1500 (their signs checked to 60 digits).  At half the norm bound's
# precision 15 of them fall where the integer floors cannot show the sign.
NEAR_ZERO = [
    (-28, 495, -388), (-56, 990, -776), (-84, 1485, -1164), (-1097, -803, 1289),
    (-1125, -308, 901), (-1153, 187, 513), (-1181, 682, 125), (-1209, 1177, -263),
    (-2278, -121, 1414), (-2306, 374, 1026), (-2334, 869, 638), (-2362, 1364, 250),
    (-3487, 1056, 1151), (-4180, 1426, 1249), (-3027, 1239, 736), (-2999, 744, 1124),
    (-1874, 1052, 223), (-1846, 557, 611), (-1818, 62, 999), (-1790, -433, 1387),
    (-749, 1360, -678), (-721, 865, -290), (-693, 370, 98), (-665, -125, 486),
    (-637, -620, 874), (-609, -1115, 1262), (-404, -1173, 1191), (-432, -678, 803),
    (-460, -183, 415), (-488, 312, 27), (-516, 807, -361), (-544, 1302, -749),
    (-1585, -491, 1316), (-1613, 4, 928), (-1641, 499, 540), (-1669, 994, 152),
    (-1697, 1489, -236), (-2766, 191, 1441), (-2794, 686, 1053), (-2822, 1181, 665)]


def _quadratic_in(draw, d: int) -> tuple:
    """(a, b, c, d) with (a + b*sqrt(d))/c in (0, 1)."""
    b = draw(st.integers(-60, 60).filter(bool))
    c = draw(st.integers(1, 200))
    floor_minus_b_root = -isqrt(b * b * d) - 1 if b > 0 else isqrt(b * b * d)
    return floor_minus_b_root + draw(st.integers(1, c)), b, c, d


@st.composite
def quadratic_seeds(draw, fields: int):
    """A seed of quadratic rotations over ``fields`` square classes, with a
    positive mean index, and that mean index to 400 digits.  Sometimes the
    first angle's complement 1 - x is added, written over sqrt(4d)."""
    angles = []
    for radicands in draw(st.permutations(SQUARE_CLASSES))[:fields]:
        for _ in range(draw(st.integers(1, 2))):
            angles.append(_quadratic_in(draw, draw(st.sampled_from(radicands))))
    if draw(st.booleans()):
        a, b, c, d = angles[0]
        angles.append((2 * (c - a), -b, 2 * c, 4 * d))
    i1 = len(angles) + draw(st.integers(0, 3))
    seed = PathSeed(i1, Decomposition(
        [RotationBlock(quadratic_angle(*x)) for x in angles]))
    with localcontext() as ctx:
        ctx.prec = 400
        value = i1 - len(angles) + sum(2 * (a + b * Decimal(d).sqrt()) / c
                                       for a, b, c, d in angles)
    return seed, value


def _convergents(value: Decimal, q_max: int):
    """Continued-fraction convergents p/q of value with q <= q_max."""
    num, den = Fraction(value).as_integer_ratio()
    p0, q0, p1, q1 = 0, 1, 1, 0
    while den:
        t = num // den
        p0, q0, p1, q1 = p1, q1, t * p1 + p0, t * q1 + q0
        if q1 > q_max:
            return
        yield p1, q1
        num, den = den, num - t * den


def _decimal_floor(x: Decimal):
    """floor(x), or None when x lies too near an integer for 400 digits."""
    with localcontext() as ctx:
        ctx.prec = 400
        f = int(x.to_integral_value(rounding=ROUND_FLOOR))
        margin = Decimal(10) ** (x.adjusted() - 380)
        return f if margin < x - f < 1 - margin else None


class TestSurdKernel:
    """floor_quotient and cmp of quadratic mean indices, decided in integers
    from the exact form, against an independent 400-digit decimal value,
    at random operands and at the continued-fraction convergents p/q of the
    mean index, where p/q, p/mean and p/(q*mean) lie nearest an integer."""

    @pytest.mark.parametrize("fields", [1, 2, 3])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), num=st.integers(0, 10**300), den=st.integers(1, 10**9))
    def test_against_decimal(self, fields, data, num, den):
        seed, value = data.draw(quadratic_seeds(fields))
        mi = mean_index(seed)
        if mi.is_exact:  # the complement cancelled every irrational part
            assert abs(Fraction(value) - mi.exact()) < Fraction(1, 10**390)
            return
        with localcontext() as ctx, no_angle_read():
            ctx.prec = 400
            want = _decimal_floor(Decimal(num) / (den * value))
            assume(want is not None)
            assert mi.floor_quotient(num, den) == want
            for p, q in _convergents(value, 10**100):
                gap = value - Decimal(p) / q
                assert abs(gap) > Decimal(10) ** -390
                assert mi.cmp(Fraction(p, q)) == (1 if gap > 0 else -1)
                for n, d in ((p, 1), (p, q), (p * den, den)):
                    want = _decimal_floor(Decimal(n) / (d * value))
                    if want is not None:
                        assert mi.floor_quotient(n, d) == want

    @pytest.mark.parametrize("vector", NEAR_ZERO)
    def test_sign_of_near_zero_surds(self, vector):
        with localcontext() as ctx:
            ctx.prec = 60
            a0, b1, b2 = vector
            value = a0 + b1 * Decimal(2).sqrt() + b2 * Decimal(3).sqrt()
        for sign in (1, -1):
            a0, b1, b2 = (sign * v for v in vector)
            # 2x = a + b*sqrt(d) for x = (a + b*sqrt(d))/2 in (0, 1), so the mean
            # index of the seed minus a1 + a2 - a0 is a0 + b1*sqrt(2) + b2*sqrt(3)
            (a1, *x1), (a2, *x2) = (
                (1 + (-isqrt(b * b * d) - 1 if b > 0 else isqrt(b * b * d)), b, 2, d)
                for b, d in ((b1, 2), (b2, 3)))
            seed = PathSeed(2, Decomposition([
                RotationBlock(quadratic_angle(a1, *x1)),
                RotationBlock(quadratic_angle(a2, *x2))]))
            assert mean_index(seed).cmp(a1 + a2 - a0) == (1 if sign * value > 0 else -1)

    def test_many_square_classes_decide_at_low_precision(self, monkeypatch):
        """The norm bound of 20 square classes needs about 2**20 * bits(H)
        bits; a value of size 1 shows its sign near bits(H) + 64 bits, and
        no square root of the kernel may be taken much wider than that."""
        from symjump import iteration

        def bounded_isqrt(n: int) -> int:
            assert n.bit_length() < 4096, f"isqrt of {n.bit_length()} bits"
            return isqrt(n)

        monkeypatch.setattr(iteration, "isqrt", bounded_isqrt)
        radicands = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30, 31, 33)
        seed = PathSeed(20, Decomposition(
            [RotationBlock(quadratic_angle(-isqrt(d), 1, 1, d)) for d in radicands]))
        mi = mean_index(seed)
        assert len(mi.surd[2]) == 20
        with localcontext() as ctx, no_angle_read():
            assert mi.cmp(0) == 1
            ctx.prec = 400
            value = sum(2 * (Decimal(d).sqrt() - isqrt(d)) for d in radicands)
            lo, hi = mi.enclosure(Fraction(1, 10**6))
            assert Decimal(lo.numerator) / lo.denominator < value
            assert value < Decimal(hi.numerator) / hi.denominator
            for p, q in _convergents(value, 10**30):
                assert mi.cmp(Fraction(p, q)) == (1 if value > Decimal(p) / q else -1)
            assert mi.floor_quotient(10**40, 7) == _decimal_floor(Decimal(10**40) / (7 * value))
            with pytest.raises(NoTupleFound):
                find_jump_tuples([seed], Fraction(1, 3), 200)


class TestMeanIndexIsAValue:
    """A MeanIndex is frozen, and refuses a surd that breaks the terms of
    its exact part: a rational value there made cmp and floor_quotient
    read ever more bits without end."""

    @pytest.mark.parametrize("surd, message", [
        ((1, 3, ((0, 2),)), "mean index term 0*sqrt(2) has a zero coefficient"),
        ((1, 1, ((1, 2), (-1, 2))),
         "mean index terms 1*sqrt(2) and -1*sqrt(2) share a square class"),
        ((1, 1, ((1, 2), (3, 8))),
         "mean index terms 1*sqrt(2) and 3*sqrt(8) share a square class"),
        ((1, 1, ((1, 4),)), "mean index term 1*sqrt(4): sqrt(4) is not irrational"),
        ((1, 1, ((1, 1),)), "mean index term 1*sqrt(1): sqrt(1) is not irrational"),
        ((0, 1, ()), "mean index scale L must be >= 1, got 0"),
    ], ids=["zero_coefficient", "cancelling_terms", "one_square_class", "square",
            "one", "zero_scale"])
    def test_a_malformed_surd_is_refused(self, surd, message):
        # the first two hung in cmp(3) and floor_quotient(5, 1) when accepted
        with pytest.raises(ValueError) as exc:
            MeanIndex(surd, ())
        assert str(exc.value) == message

    def test_a_shared_mean_index_cannot_be_changed(self):
        s = PathSeed(2, Decomposition([RotationBlock(quadratic_angle(-1, 1, 1, 2)),
                                       N1Block(1, 0)]))
        assert s.mean.floor_quotient(100, 1) == 35
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.mean.surd = (1, 5, ())
        assert s.mean.floor_quotient(100, 1) == 35


def _pell(digits: int) -> tuple[int, int]:
    """(p, b) with p*p - 2*b*b = -1 and b >= 10**digits: p + b*sqrt(2) is
    an odd power of 1 + sqrt(2), so b*sqrt(2) - p = 1/(p + b*sqrt(2))."""
    p, b = 1, 1
    while b < 10**digits:
        p, b = 3 * p + 4 * b, 2 * p + 3 * b
    return p, b


def _side(x: Fraction, p: int, b: int) -> int:
    """The sign of b*sqrt(2) - p - x, in integers."""
    s = x.numerator + p * x.denominator  # against b*sqrt(2)*x.denominator
    t = 2 * (b * x.denominator) ** 2
    return 1 if s < 0 else (t > s * s) - (t < s * s)


class TestMeanNearARational:
    """One rotation (-p + b*sqrt(2))/2 with i1 = 1: the mean index
    v = b*sqrt(2) - p lies about 10**-100 or 10**-1000 above 0 and within
    about v**2 of 1/(2p + 1).  Every answer is checked in integers, and
    the work is bounded by the kernel's integer square roots, counted by a
    spy: bits(1/v) <= w = bits(2p), so a walk of 24-bit levels would take
    w/24 roots where a doubling one takes about log2(w)."""

    @pytest.mark.parametrize("digits", [100, 1000])
    def test_answers_and_work(self, digits, monkeypatch):
        from symjump import iteration

        roots = []

        def counted_isqrt(n: int) -> int:
            roots.append(n.bit_length())
            return isqrt(n)

        def work(query):
            roots.clear()
            answer = query()
            assert len(roots) <= w.bit_length() + 4, f"{len(roots)} roots"
            assert max(roots) <= 12 * w, f"a root of {max(roots)} bits"
            return answer

        p, b = _pell(digits)
        w = (2 * p).bit_length()
        mi = mean_index(PathSeed(1, Decomposition(
            [RotationBlock(quadratic_angle(-p, b, 2, 2))])))
        assert mi.surd == (1, -p, ((b, 2),))
        below, above = Fraction(1, 2 * p + 1), Fraction(1, 2 * p)
        assert (_side(below, p, b), _side(above, p, b)) == (1, -1)
        monkeypatch.setattr(iteration, "isqrt", counted_isqrt)
        with no_angle_read():
            assert work(lambda: mi.cmp(0)) == 1
            assert work(lambda: mi.cmp(below)) == 1
            assert work(lambda: mi.cmp(above)) == -1
            f = work(lambda: mi.floor_quotient(10**5, 1))
            # f*v <= 10**5 < (f + 1)*v, each side squared
            assert 2 * (f * b) ** 2 <= (10**5 + f * p) ** 2
            assert (10**5 + (f + 1) * p) ** 2 < 2 * ((f + 1) * b) ** 2
            tol = Fraction(1, 10**(digits + 30))
            lo, hi = work(lambda: mi.enclosure(tol))
            assert 0 < lo and hi - lo <= tol
            assert (_side(lo, p, b), _side(hi, p, b)) == (1, -1)


@st.composite
def mixed_seeds(draw):
    """A seed of one to four rotations whose angles are rational, quadratic
    or ``decimal`` (errors 1e-7 to 1e-19), and its mean index to 400
    digits, each decimal angle taken at its approximant."""
    angles, values = [], []
    for kind in draw(st.lists(st.sampled_from(["rational", "quadratic", "decimal"]),
                              min_size=1, max_size=4)):
        if kind == "rational":
            q = draw(st.integers(3, 12))
            x = rational_angle(draw(st.sampled_from([p for p in range(1, q) if 2 * p != q])), q)
            angles.append(x)
            values.append(x.value)
            continue
        a, b, c, d = draw(quadratics())
        with localcontext() as ctx:
            ctx.prec = 400
            value = (a + b * Decimal(d).sqrt()) / c
        if kind == "quadratic":
            angles.append(quadratic_angle(a, b, c, d))
        else:
            e = draw(st.integers(7, 19))
            value = round(value, e + draw(st.integers(0, 3)))
            angles.append(decimal_angle(str(value), f"1e-{e}"))
        values.append(Fraction(value))
    i1 = draw(st.integers(-1, 6))
    seed = PathSeed(i1, Decomposition([RotationBlock(x) for x in angles]))
    return seed, i1 - len(angles) + 2 * sum(values)


class TestOneExactPart:
    """Mean indices that mix every kind of angle: each answer holds for the
    400-digit value and is kept when asked again after deep queries, and
    only a mean that holds a ``decimal`` angle refuses."""

    @settings(max_examples=80, deadline=None)
    @given(case=mixed_seeds(), num=st.integers(0, 10**60), den=st.integers(1, 10**6),
           other=st.fractions(-3, 20, max_denominator=50))
    def test_answers_hold_and_keep(self, case, num, den, other):
        seed, value = case
        mi = mean_index(seed)
        near = [Fraction(round(value * 10**j), 10**j) for j in (3, 9, 18, 30)]
        queries = [(("cmp", o), lambda o=o: mi.cmp(o)) for o in [other, *near]]
        queries.append((("floor_quotient",), lambda: mi.floor_quotient(num, den)))
        queries += [(("enclosure", tol), lambda tol=tol: mi.enclosure(tol))
                    for tol in (Fraction(1, 10**6), Fraction(1, 10**12), Fraction(1, 10**30))]

        def answers():
            out = []
            for _, ask in queries:
                try:
                    out.append(ask())
                except UndecidableComparison:
                    out.append("undecidable")
                except ValueError:
                    out.append("not positive")
            return out

        first = answers()
        for deep in (lambda: mi.floor_quotient(10**300, 1),
                     lambda: mi.enclosure(Fraction(1, 10**100))):
            try:
                deep()
            except (UndecidableComparison, ValueError):
                pass
        assert answers() == first
        for (key, _), answer in zip(queries, first):
            if answer == "undecidable":
                assert mi.angles, f"{key} refused on an exact mean"
            else:
                self._holds(key, answer, value, num, den)

    @settings(max_examples=80, deadline=None)
    @given(case=mixed_seeds(), n=st.integers(1, 10**12), M=st.integers(1, 12))
    def test_last_step_is_exact(self, case, n, M):
        # the jump scan's step bound: the largest s with
        # (2*M*s + 1)*mean - slack <= 2n + i1, slack restated from the
        # index's distance to its linear part
        seed, value = case
        assume(value > Fraction(1, 10**380))
        d = seed.decomp
        slack = 3 * d.r + 2 * d.r_star + d.p_minus + d.p_zero + d.q_zero + d.q_plus
        y = (2 * n + slack + seed.i1) / value
        assume(abs(y - round(y)) > Fraction(1, 10**300))
        try:
            got = _last_step(seed, M, n)
        except UndecidableComparison:
            assert seed.mean.angles
            return
        assert got == ((y - 1) / (2 * M)).__floor__()

    @staticmethod
    def _holds(key, answer, value, num, den):
        if answer == "not positive":
            assert key[0] == "floor_quotient"
            assert value < Fraction(1, 10**380)
        elif key[0] == "cmp":
            assert answer == (value > key[1]) - (value < key[1])
        elif key[0] == "floor_quotient":
            q = Fraction(num, den) / value
            assume(abs(q - round(q)) > Fraction(1, 10**300))
            assert answer == q.__floor__()
        else:
            lo, hi = answer
            assert lo <= value <= hi and hi - lo <= key[1]


def test_undecidable_names_offending_iterate():
    coarse = decimal_angle("0.4142135623", "1e-8")
    s = PathSeed(1, Decomposition([RotationBlock(coarse)]))
    with pytest.raises(UndecidableComparison, match="m=10000000000"):
        index_iterate(s, 10**10)


def test_parallel_rows_independent_of_partition():
    import concurrent.futures
    s = PathSeed(2, Decomposition([RotationBlock(GOLDEN), N1Block(1, 0)]))
    sequential = [(r.m, r.index, r.nullity) for r in iteration_rows(s, 400)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        rows = list(pool.map(
            lambda m: (m, index_iterate(s, m), nullity_iterate(s, m)),
            range(1, 401)))
    assert rows == sequential


# -- the seed's derived constants against a per-block restatement -------------

N1_KINDS = [N1Block(lam, b) for lam in (1, -1) for b in (1, 0, -1)]


@st.composite
def any_angle(draw, decimal: bool = True):
    """A rational, quadratic or (when allowed) decimal angle ratio."""
    kind = draw(st.sampled_from(["rational", "quadratic", "decimal"] if decimal
                                else ["rational", "quadratic"]))
    if kind == "rational":
        q = draw(st.integers(3, 40))
        p = draw(st.integers(1, q - 1).filter(lambda p: 2 * p != q))
        return rational_angle(p, q)
    if kind == "quadratic":
        return quadratic_angle(*draw(quadratics()))
    digits = draw(st.integers(10**5, 10**10 - 1))
    return decimal_angle(f"0.{digits:010d}", draw(st.sampled_from(["1e-12", "1e-6"])))


@st.composite
def every_kind_seeds(draw, decimal: bool = True):
    """Seeds of 1 to 6 blocks drawn from all six N1 blocks, the hyperbolic
    block, rotations and trivial and nontrivial N2 blocks."""
    angle = any_angle(decimal)
    block = st.one_of(st.sampled_from(N1_KINDS), st.just(HyperbolicBlock()),
                      st.builds(RotationBlock, angle),
                      st.builds(N2Block, angle, st.booleans()))
    d = Decomposition(draw(st.lists(block, min_size=1, max_size=6)))
    return PathSeed(draw(st.integers(-5, 10)), d)


def restated_index(seed: PathSeed, m: int) -> int:
    """i(m) summed block by block over seed.decomp.blocks."""
    even = m % 2 == 0
    total = m * seed.i1
    try:
        for blk in seed.decomp.blocks:
            if isinstance(blk, N1Block):
                if blk.lam == 1:
                    total += (m - 1) if blk.b != -1 else 0
                else:
                    total -= 1 if even and blk.b != 1 else 0
            elif isinstance(blk, RotationBlock):
                total += 2 * blk.angle.ceil_mul(m) - m - 1
            elif isinstance(blk, N2Block) and not blk.trivial:
                total += 2 * blk.angle.varphi_mul(m) - 2
    except UndecidableComparison as exc:
        raise UndecidableComparison(f"index of iterate m={m}: {exc}") from exc
    return total


def restated_nullity(seed: PathSeed, m: int) -> int:
    """nu(m) summed block by block: the kernel of each block's m-th power."""
    total = 0
    for blk in seed.decomp.blocks:
        if isinstance(blk, N1Block):
            if blk.lam == 1 or m % 2 == 0:
                total += 2 if blk.b == 0 else 1
        elif isinstance(blk, (RotationBlock, N2Block)):
            total += 2 - 2 * blk.angle.varphi_mul(m)
    return total


def _outcome(f, *args):
    try:
        return f(*args)
    except UndecidableComparison as exc:
        return "undecidable", str(exc)


class TestDerivedConstants:
    """PathSeed derives its mean index and the constants of the index and
    nullity formulas once; every answer equals the restatement."""

    @settings(max_examples=300, deadline=None)
    @given(seed=every_kind_seeds(),
           m=st.one_of(st.integers(1, 200), st.integers(1, 10**300)))
    def test_index_nullity_and_gap_match_the_restatement(self, seed, m):
        assert _outcome(index_iterate, seed, m) == _outcome(restated_index, seed, m)
        assert nullity_iterate(seed, m) == restated_nullity(seed, m)

        def gap(s, m):
            return restated_index(s, m + 1) - restated_index(s, m) - restated_nullity(s, m)

        assert _outcome(bott_gap, seed, m) == _outcome(gap, seed, m)

    def test_decimal_angle_refusal_text_is_unchanged(self):
        x = decimal_angle("0.6180339887", "1e-7")
        s = PathSeed(2, Decomposition([RotationBlock(x), N1Block(1, 0)]))
        refusal = ("index of iterate m={}: floor({} * IrrationalAngle(~0.6180339887)) "
                   "undecided")
        with pytest.raises(UndecidableComparison) as exc:
            index_iterate(s, 10**8)
        assert str(exc.value) == refusal.format(10**8, 10**8)
        with pytest.raises(UndecidableComparison) as exc:
            bott_gap(s, 10**8)
        assert str(exc.value) == refusal.format(10**8 + 1, 10**8 + 1)
        assert nullity_iterate(s, 10**8) == 2

    def test_equality_hash_and_repr_ignore_the_derived_fields(self):
        def build():
            return PathSeed(2, Decomposition([RotationBlock(GOLDEN), N1Block(1, 0)]))

        a, b = build(), build()
        assert a.mean is not b.mean
        a.mean.floor_quotient(10**300, 1)
        assert a == b and hash(a) == hash(b) == hash((a.i1, a.decomp))
        assert repr(a) == f"PathSeed(i1=2, decomp={a.decomp!r})"
        assert [f.name for f in dataclasses.fields(a) if f.compare] == ["i1", "decomp"]
        assert mean_index(a) is a.mean

    def test_replace_derives_the_fields_afresh(self):
        s = PathSeed(2, Decomposition([RotationBlock(GOLDEN), N1Block(1, 0)]))
        t = dataclasses.replace(s, i1=4)
        fresh = PathSeed(4, s.decomp)
        assert t == fresh and t.mean == fresh.mean != s.mean
        for m in (1, 2, 7, 10**40):
            assert index_iterate(t, m) == index_iterate(fresh, m) == index_iterate(s, m) + 2 * m
            assert nullity_iterate(t, m) == nullity_iterate(s, m)


# -- an independent oracle: the Bott-type iteration formula -------------------


def _below(z, k: int, m: int) -> bool:
    """z < k/m for a rational or quadratic angle z, -1 standing for 1/2;
    decided in integers: m*z < k exactly when floor(m*z) < k, m*z being
    irrational or an exact rational."""
    if z == -1:
        return 2 * k > m
    if z.is_rational:
        return z.value < Fraction(k, m)
    return z.floor_mul(m) < k


def bott_oracle_index(seed: PathSeed, m: int) -> int:
    """i(m) = sum over omega**m = 1 of the omega-index of the seed, with

        i_omega = i_1 + S+(1) + sum over 0 < z < omega of (S+(z) - S-(z)) - S-(omega),

    the splitting numbers summed over the blocks (Long, Index Theory for
    Symplectic Paths with Applications, 2002).  The points z are the block
    eigenvalues on the circle: -1 and each rotation angle and its conjugate.
    """
    blocks = seed.decomp.blocks

    def S(omega):
        pairs = [splitting_numbers(blk, omega) for blk in blocks]
        return sum(p for p, _ in pairs), sum(q for _, q in pairs)

    points = [-1]
    for blk in blocks:
        if isinstance(blk, (RotationBlock, N2Block)):
            for z in (blk.angle, complement_angle(blk.angle)):
                if z not in points:
                    points.append(z)
    jumps = [(z, S(z)) for z in points]
    at_one = seed.i1 + S(1)[0]
    total = seed.i1
    for k in range(1, m):
        index = at_one - S(rational_angle(k, m))[1]
        index += sum(sp - sm for z, (sp, sm) in jumps if _below(z, k, m))
        total += index
    return total


@settings(max_examples=150, deadline=None)
@given(seed=every_kind_seeds(decimal=False), m=st.integers(1, 30))
def test_index_matches_the_bott_formula(seed, m):
    assert index_iterate(seed, m) == bott_oracle_index(seed, m)


class TestNonIntegerIterates:
    """An iterate that is not an integer is refused with one ValueError
    before any angle or mean-index query: the angle kernels take m as it
    is, and a seed with no angle used to return a float."""

    SEEDS = [PathSeed(2, Decomposition([N1Block(1, 0), N1Block(-1, 0)])),
             PathSeed(2, Decomposition([RotationBlock(GOLDEN), N1Block(1, 0)])),
             PathSeed(2, Decomposition([RotationBlock(rational_angle(1, 3)),
                                        N2Block(GOLDEN, False)]))]

    @pytest.mark.parametrize("seed", SEEDS, ids=["no_angle", "quadratic", "rational_and_n2"])
    @pytest.mark.parametrize("query", [index_iterate, nullity_iterate, bott_gap],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("m", [2.5, Fraction(5, 2), 3.0, "3"])
    def test_is_refused_before_any_query(self, monkeypatch, seed, query, m):
        def no_query(self, *args):
            raise AssertionError(f"{self!r} was queried")

        for kind in (QuadraticAngle, RationalAngle):
            for kernel in ("_floor", "_ceil", "_varphi", "_side"):
                monkeypatch.setattr(kind, kernel, no_query, raising=False)
        with pytest.raises(ValueError) as exc:
            query(seed, m)
        assert str(exc.value) == f"iterate must be an integer, got {m!r}"

    @pytest.mark.parametrize("query", [index_iterate, nullity_iterate, bott_gap],
                             ids=lambda f: f.__name__)
    def test_a_nonpositive_iterate_keeps_its_message(self, query):
        for m in (0, -3):
            with pytest.raises(ValueError) as exc:
                query(self.SEEDS[1], m)
            assert str(exc.value) == "iterate must be positive"

    @pytest.mark.parametrize("num, den", [(10.5, 1), (10, 1.0), (Fraction(21, 2), 1)])
    def test_floor_quotient_refuses_a_non_integer(self, num, den):
        for seed in self.SEEDS:
            with pytest.raises(ValueError) as exc:
                seed.mean.floor_quotient(num, den)
            assert str(exc.value) == (f"floor_quotient expects integers, "
                                      f"got {num!r} and {den!r}")


def _quotient_oracle(scale: int, a0: int, b: int, d: int, num: int, den: int) -> int:
    """floor(num*scale / (den*(a0 + b*sqrt(d)))) for a positive value, from
    Fraction bounds on sqrt(d) at doubling precision until they agree."""
    bits = 64
    while True:
        r = isqrt(d << 2 * bits)
        ends = [a0 + b * Fraction(s, 1 << bits) for s in (r, r + 1)]
        lo, hi = min(ends), max(ends)
        assert hi > 0
        if lo > 0:
            below = num * scale // (den * hi)
            if below == num * scale // (den * lo):
                return below
        bits *= 2


class TestClosedFormFloorQuotient:
    """A mean index of one surd and no other angle answers floor_quotient
    in closed form; checked against an independent oracle on quotients a
    hair below and above an integer, num up to 10**300."""

    @staticmethod
    def _means(rng, sign: int, count: int):
        """(scale, a0, b, d) for ``count`` positive means whose surd has sign
        ``sign``, some barely above 0; with b > 0, E = a0^2 - b^2*d takes
        both signs (a positive mean with b < 0 has E > 0)."""
        out = []
        while len(out) < count:
            d = rng.randint(2, 10**rng.randint(1, 12))
            if isqrt(d) ** 2 == d:
                continue
            b = sign * rng.randint(1, 10**rng.randint(0, 40))
            fb = isqrt(b * b * d) if b > 0 else -isqrt(b * b * d) - 1  # floor(b*sqrt(d))
            a0 = -fb + rng.choice([0, 1, rng.randint(2, 10**rng.randint(1, 45))])
            out.append((rng.randint(1, 10**rng.randint(0, 20)), a0, b, d))
        return out

    @pytest.mark.parametrize("sign", [1, -1], ids=["b_positive", "b_negative"])
    def test_matches_the_oracle_near_integers(self, sign):
        rng = random.Random(f"closed-form floor_quotient/{sign}")
        conjugates = set()
        for scale, a0, b, d in self._means(rng, sign, 60):
            mi = MeanIndex((scale, a0, ((b, d),)))
            conjugates.add(a0 * a0 > b * b * d)
            for _ in range(5):
                den = rng.randint(1, 10**rng.randint(0, 12))
                j = rng.randint(1, 10**rng.randint(0, 250))
                # floor(j*den*value) and the next integer: num/(den*value)
                # lies just below and just above j
                fb = isqrt((j * den * b) ** 2 * d)
                below = (j * den * a0 + (fb if b > 0 else -fb - 1)) // scale
                for num in (below, below + 1, 10**300 - rng.randint(0, 10**6)):
                    with no_angle_read():
                        got = mi.floor_quotient(num, den)
                    assert got == _quotient_oracle(scale, a0, b, d, num, den), (mi, num, den)
        assert conjugates == ({True, False} if sign > 0 else {True})

    def test_takes_one_square_root(self, monkeypatch):
        from symjump import iteration

        roots = []

        def counted_isqrt(n: int) -> int:
            roots.append(n)
            return isqrt(n)

        mi = mean_index(PathSeed(1, Decomposition([RotationBlock(GOLDEN)])))
        monkeypatch.setattr(iteration, "isqrt", counted_isqrt)
        assert mi.floor_quotient(10**300, 7) == _quotient_oracle(*mi.surd[:2], *mi.surd[2][0],
                                                                 10**300, 7)
        assert len(roots) == 1

    @pytest.mark.parametrize("a0, b", [(-2, 1), (1, -1), (-1, -1), (0, -1)])
    def test_a_mean_at_most_zero_is_refused(self, a0, b):
        # -2 + sqrt(2), 1 - sqrt(2), -1 - sqrt(2) and -sqrt(2) are negative
        mi = MeanIndex((3, a0, ((b, 2),)))
        for num in (0, 1, 10**300):
            with pytest.raises(ValueError, match="^mean index must be positive$"):
                mi.floor_quotient(num, 1)

    def test_zero_over_a_positive_mean_is_zero(self):
        assert MeanIndex((1, -1, ((1, 2),))).floor_quotient(0, 5) == 0


# -- the seed's census and mean index against the Counter and Fraction
# arithmetic they replaced -----------------------------------------------------


def counter_census(blocks) -> dict:
    """The census of a decomposition, tallied in a Counter, with its
    rational-first theta order."""
    census, angles = Counter(), {"theta": [], "alpha": [], "beta": []}
    for blk in blocks:
        if isinstance(blk, N1Block):
            census[blk.lam, blk.b] += 1
        elif isinstance(blk, HyperbolicBlock):
            census["h"] += 1
        else:
            kind = ("theta" if isinstance(blk, RotationBlock)
                    else "beta" if blk.trivial else "alpha")
            angles[kind].append(blk.angle)
            census[kind, blk.angle.is_rational] += 1
    return {"n": len(blocks) + len(angles["alpha"]) + len(angles["beta"]) + 1,
            "p_minus": census[1, 1], "p_zero": census[1, 0], "p_plus": census[1, -1],
            "q_minus": census[-1, 1], "q_zero": census[-1, 0], "q_plus": census[-1, -1],
            "h": census["h"], "r": len(angles["theta"]), "r_star": len(angles["alpha"]),
            "r_zero": len(angles["beta"]), "r_prime": census["theta", True],
            "r_star_prime": census["alpha", True], "r_zero_prime": census["beta", True],
            "theta_angles": tuple(sorted(angles["theta"], key=lambda a: 0 if a.is_rational else 1)),
            "alpha_angles": tuple(angles["alpha"]), "beta_angles": tuple(angles["beta"])}


def fraction_mean_of(i1: int, d: Decomposition) -> MeanIndex:
    """The mean index in Fraction arithmetic, one square class per surd
    (see ``iteration._mean_of``)."""
    rational = Fraction(i1 + d.p_minus + d.p_zero - d.r)
    coefficients = {}
    angles = []
    for x in d.theta_angles:
        if x.is_rational:
            rational += 2 * x.value
        elif isinstance(x, QuadraticAngle):
            a, b, c, r = x.a, x.b, x.c, x.d
            rep = next((q for q in coefficients if isqrt(q * r) ** 2 == q * r), r)
            coefficients[rep] = (coefficients.get(rep, 0)
                                 + Fraction(2 * b * isqrt(rep * r), c * rep))
            rational += Fraction(2 * a, c)
        else:
            angles.append(x)
    terms = {r: b for r, b in coefficients.items() if b}
    scale = lcm(rational.denominator, *(b.denominator for b in terms.values()))
    return MeanIndex((scale, int(rational * scale),
                      tuple((int(b * scale), r) for r, b in terms.items())), tuple(angles))


@st.composite
def quadratic_in_class(draw, d: int):
    """A quadratic angle over sqrt(d), sqrt(4d) or sqrt(9d)."""
    return quadratic_angle(*_quadratic_in(draw, d * draw(st.sampled_from([1, 4, 9]))))


@st.composite
def census_blocks(draw):
    """Blocks of every kind whose angles are rational, ``decimal``, quadratic
    of any class or quadratic in one square class (sqrt(d) beside sqrt(4d)
    and sqrt(9d)), and sometimes the complement 1 - x of the first
    quadratic rotation, over sqrt(d) or sqrt(4d), whose class then cancels."""
    one_class = quadratic_in_class(draw(st.sampled_from([2, 3, 5, 6, 7])))
    angle = st.one_of(any_angle(), one_class)
    block = st.one_of(st.sampled_from(N1_KINDS), st.just(HyperbolicBlock()),
                      st.builds(RotationBlock, angle), st.builds(RotationBlock, one_class),
                      st.builds(N2Block, angle, st.booleans()))
    blocks = draw(st.lists(block, min_size=1, max_size=8))
    x = next((b.angle for b in blocks if isinstance(b, RotationBlock)
              and isinstance(b.angle, QuadraticAngle)), None)
    if x is not None and draw(st.booleans()):
        a, b, c, r = x.a, x.b, x.c, x.d
        complement = (quadratic_angle(2 * (c - a), -b, 2 * c, 4 * r) if draw(st.booleans())
                      else complement_angle(x))
        blocks.insert(draw(st.integers(0, len(blocks))), RotationBlock(complement))
    return blocks


class TestIntegerSeeds:
    """A seed's census and mean index, built in plain integers, equal the
    Counter tally and the Fraction arithmetic they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(blocks=census_blocks(), i1=st.integers(-5, 10))
    def test_census_and_mean_match_the_reference(self, blocks, i1):
        seed = PathSeed(i1, Decomposition(blocks))
        d, want = seed.decomp, counter_census(blocks)
        assert {name: getattr(d, name) for name in want} == want
        assert [id(x) for x in d.theta_angles] == [id(x) for x in want["theta_angles"]]
        assert seed.mean == fraction_mean_of(i1, d)

    def test_a_class_that_cancels_keeps_no_term(self):
        # sqrt(2) - 1 beside 1 - (sqrt(2) - 1) = (4 - sqrt(8))/2
        x, y = quadratic_angle(-1, 1, 1, 2), quadratic_angle(4, -1, 2, 8)
        seed = PathSeed(3, Decomposition([RotationBlock(x), RotationBlock(y)]))
        assert seed.mean.surd == (1, 3, ()) == fraction_mean_of(3, seed.decomp).surd
