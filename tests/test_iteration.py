"""Iteration formulas: initial consistency, matrix oracles, mean index, gaps."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from symjump import (ConstraintViolation, Decomposition, HyperbolicBlock,
                     IterationRow, N1Block,
                     N2Block, PathSeed, RotationBlock, UndecidableComparison,
                     bott_gap, decimal_angle, elliptic_height, index_iterate,
                     iteration_rows, mean_index, nullity_iterate,
                     quadratic_angle, rational_angle, realize)

from conftest import angle_lcm, nu_of, random_seed

GOLDEN = quadratic_angle(-1, 1, 2, 5)


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
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(GOLDEN)]))
        assert index_iterate(s, 1) == 1
        assert nullity_iterate(s, 1) == 0

    def test_golden_rotation_m2(self):
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(GOLDEN)]))
        assert index_iterate(s, 2) == 3

    def test_identity_block_m5(self):
        s = PathSeed(2, 1, 2, Decomposition([N1Block(1, 0)]))
        assert index_iterate(s, 5) == 9
        assert nullity_iterate(s, 11) == 2

    def test_third_rotation_nullity(self):
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(rational_angle(1, 3))]))
        assert nullity_iterate(s, 3) == 2

    def test_minus_identity_nullity(self):
        s = PathSeed(2, 0, 0, Decomposition([N1Block(-1, 0)]))
        assert nullity_iterate(s, 2) == 2
        assert nullity_iterate(s, 3) == 0

    def test_mean_index_examples(self):
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(rational_angle(1, 3))]))
        assert mean_index(s).exact() == Fraction(2, 3)
        s = PathSeed(2, 1, 2, Decomposition([N1Block(1, 0)]))
        assert mean_index(s).exact() == 2
        s = PathSeed(2, 5, 0, Decomposition([HyperbolicBlock()]))
        assert mean_index(s).exact() == 5

    @pytest.mark.parametrize("other,exact", [
        ((2, -1, 1, 2), True),     # 1 - x: the irrational parts cancel
        ((4, -1, 2, 8), True),     # 1 - x, written (4 - sqrt(8))/2
        ((0, 1, 4, 2), False),     # sqrt(2)/4: another irrational part
        ((-1, 1, 2, 5), False)],   # another field
        ids=["conjugate", "conjugate_disguised", "other_part", "other_field"])
    def test_mean_index_of_conjugate_quadratic_rotations(self, other, exact):
        x = quadratic_angle(-1, 1, 1, 2)
        s = PathSeed(3, 2, 0, Decomposition([RotationBlock(x),
                                             RotationBlock(quadratic_angle(*other))]))
        mi = mean_index(s)
        assert mi.is_exact == exact
        if exact:
            assert mi.exact() == 2
            d = s.decomp
            bound = 3 * d.r + 2 * d.r_star + d.p_minus + d.p_zero + d.q_zero + d.q_plus
            for m in (10**3, 10**6, 10**30):
                assert abs(index_iterate(s, m) - 2 * m) <= bound

    def test_mean_index_equality_ignores_the_memo(self):
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(GOLDEN)]))
        used = mean_index(s)
        used.floor_quotient(10**300, 1)
        assert used == mean_index(s)
        assert used != mean_index(PathSeed(2, 2, 0, Decomposition([RotationBlock(GOLDEN)])))

    def test_negative_irrational_mean_index_is_refused_at_once(self):
        # 0 - 1 + 2(sqrt(2) - 1) < 0
        s = PathSeed(2, 0, 0, Decomposition([RotationBlock(quadratic_angle(-1, 1, 1, 2))]))
        mi = mean_index(s)
        with pytest.raises(ValueError, match="mean index must be positive"):
            mi.floor_quotient(5, 1)
        assert list(mi._sums) == [0]  # level 0 already certifies the sign

    def test_bott_gap_examples(self):
        s = PathSeed(2, 1, 2, Decomposition([N1Block(1, 0)]))
        assert bott_gap(s, 1) == 0
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(GOLDEN)]))
        for m in range(1, 1001):
            assert bott_gap(s, m) >= 0
        s = PathSeed(3, 2, 0, Decomposition([RotationBlock(rational_angle(1, 4)),
                                             HyperbolicBlock()]))
        assert bott_gap(s, 4) >= 2 - elliptic_height(s.decomp) // 2

    def test_rows_are_lazy_and_consistent(self):
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(rational_angle(1, 3))]))
        rows = iteration_rows(s, 10**9)  # must not evaluate eagerly
        first = next(rows)
        assert first == IterationRow(1, 1, 0)

    def test_rejects_nonpositive_iterate(self):
        s = PathSeed(2, 1, 2, Decomposition([N1Block(1, 0)]))
        with pytest.raises(ValueError):
            index_iterate(s, 0)


class TestSeedValidation:
    def test_nullity_census_mismatch(self):
        with pytest.raises(ValueError, match="kernel"):
            PathSeed(2, 1, 1, Decomposition([N1Block(1, 0)]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PathSeed(3, 1, 2, Decomposition([N1Block(1, 0)]))

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            PathSeed(1, 0, 0, Decomposition([], n=1))

    def test_nullity_range_check_is_a_raise(self):
        # an explicit raise, not an assert, so `python -O` keeps the check
        s = PathSeed(2, 1, 2, Decomposition([N1Block(1, 0)]))
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
    M = realize(s.decomp)
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
    d = s.decomp
    bound = 3 * d.r + 2 * d.r_star + d.p_minus + d.p_zero + d.q_zero + d.q_plus
    mi = mean_index(s)
    for m in (10, 100, 1000):
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


def test_undecidable_names_offending_iterate():
    coarse = decimal_angle("0.4142135623", "1e-8")
    s = PathSeed(2, 1, 0, Decomposition([RotationBlock(coarse)]))
    with pytest.raises(UndecidableComparison, match="m=10000000000"):
        index_iterate(s, 10**10)


def test_parallel_rows_independent_of_partition():
    import concurrent.futures
    s = PathSeed(3, 2, 2, Decomposition([RotationBlock(GOLDEN), N1Block(1, 0)]))
    sequential = [(r.m, r.index, r.nullity) for r in iteration_rows(s, 400)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        rows = list(pool.map(
            lambda m: (m, index_iterate(s, m), nullity_iterate(s, m)),
            range(1, 401)))
    assert rows == sequential
