"""Analysis pipeline: pinching bounds, peaks, forced vanishing, second geodesic."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from symjump import (ConstraintViolation, Decomposition, GeodesicSystem,
                     HyperbolicBlock, N1Block, N2Block, NoTupleFound, PathSeed,
                     RotationBlock, betti_constant, compute_delta,
                     derive_peak_constraints, find_complementary_tuples,
                     find_jump_tuples, find_peak_geodesic, index_at_even_jump,
                     index_iterate, nullity_at_even_jump, nullity_iterate,
                     quadratic_angle, rational_angle, run_analysis,
                     second_geodesic, validate_pinching_bounds)
from symjump import analysis

GOLDEN = quadratic_angle(-1, 1, 2, 5)
SQRT2M1 = quadratic_angle(-1, 1, 1, 2)

SEED_A = PathSeed(3, 2, 2, Decomposition([RotationBlock(SQRT2M1), N1Block(1, 0)]))
SEED_B = PathSeed(3, 2, 2, Decomposition([RotationBlock(GOLDEN), N1Block(1, 0)]))
DELTA = Fraction(1, 100)


def two_seed_system():
    return GeodesicSystem(3, Fraction(9, 8), (SEED_A, SEED_B), True)


class TestPinching:
    def test_golden_seed_passes(self):
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(GOLDEN)]))
        rec = validate_pinching_bounds(GeodesicSystem(2, Fraction(1), (s,)))[0]
        assert rec.passed

    def test_low_initial_index_fails(self):
        s = PathSeed(3, 1, 0, Decomposition([RotationBlock(GOLDEN), HyperbolicBlock()]))
        rec = validate_pinching_bounds(GeodesicSystem(3, Fraction(1), (s,), False))[0]
        assert not rec.initial_index_ok

    def test_small_mean_index_fails_strictly(self):
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(rational_angle(1, 3))]))
        rec = validate_pinching_bounds(GeodesicSystem(2, Fraction(1), (s,), False))[0]
        assert rec.initial_index_ok and not rec.mean_index_ok

    def test_run_analysis_rejects_failing_system(self):
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(rational_angle(1, 3))]))
        with pytest.raises(ConstraintViolation, match="pinching"):
            run_analysis(GeodesicSystem(2, Fraction(1), (s,)), delta=DELTA)


class TestEvenJumpNullity:
    def test_identity_block(self):
        assert nullity_at_even_jump(PathSeed(2, 1, 2, Decomposition([N1Block(1, 0)]))) == 2

    def test_rational_rotation(self):
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(rational_angle(1, 3))]))
        assert nullity_at_even_jump(s) == 2

    def test_irrational_rotation(self):
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(GOLDEN)]))
        assert nullity_at_even_jump(s) == 0

    def test_matches_direct_evaluation_on_tuples(self):
        seeds = [SEED_A, SEED_B]
        for t in find_jump_tuples(seeds, DELTA, 10**6, 2):
            for k, s in enumerate(seeds):
                assert nullity_at_even_jump(s) == nullity_iterate(s, 2 * t.m[k])


class TestPeaks:
    def test_single_elliptic_seed_peaks(self):
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(GOLDEN)]))
        system = GeodesicSystem(2, Fraction(1), (s,))
        t = find_jump_tuples([s], DELTA, 10**5, 1,
                             required_sides=[("low",)])[0]
        assert find_peak_geodesic(system, t) == [0]

    def test_hyperbolic_part_blocks_peak(self):
        s = PathSeed(3, 2, 0, Decomposition([RotationBlock(GOLDEN), HyperbolicBlock()]))
        system = GeodesicSystem(3, Fraction(1), (s,), False)
        for t in find_jump_tuples([s], DELTA, 10**5, 3):
            assert find_peak_geodesic(system, t) == []

    def test_mixed_system_reports_only_peaks(self):
        system = two_seed_system()
        t = find_jump_tuples(system.seeds, DELTA, 10**6, 1,
                             required_sides=[("low",), ("high",)])[0]
        assert find_peak_geodesic(system, t) == [0]


class TestPeakConstraints:
    def _peak_fixture(self, seed):
        t = find_jump_tuples([seed], DELTA, 10**6, 1,
                             required_sides=[("low",) * (seed.decomp.r - seed.decomp.r_prime)])[0]
        d = compute_delta(seed, t.m[0], t.delta)
        return t, d

    def test_irrational_rotation_peak(self):
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(GOLDEN)]))
        t, d = self._peak_fixture(s)
        rec = derive_peak_constraints(s, d)
        assert all(z.value == 0 for z in rec.zero_set)
        assert rec.elliptic and rec.elliptic_height == 2
        assert rec.irrational_rotation_count == 1 == d.delta_k
        assert not rec.rational_geodesic_flag

    def test_two_irrational_rotations_need_two_near_integers(self):
        s = PathSeed(3, 2, 0, Decomposition([RotationBlock(GOLDEN),
                                             RotationBlock(SQRT2M1)]))
        t, d = self._peak_fixture(s)
        assert d.delta_k == 2
        rec = derive_peak_constraints(s, d)
        assert rec.irrational_rotation_count == 2
        assert rec.elliptic

    def test_rational_peak_raises_flag_not_error(self):
        s = PathSeed(2, 2, 2, Decomposition([N1Block(1, 0)]))
        t = find_jump_tuples([s], DELTA, 100, 1)[0]
        rec = derive_peak_constraints(s, compute_delta(s, t.m[0], t.delta))
        assert rec.rational_geodesic_flag and rec.irrational_rotation_count == 0

    def test_hyperbolic_injection_violates(self):
        s = PathSeed(3, 2, 0, Decomposition([RotationBlock(GOLDEN), HyperbolicBlock()]))
        t = find_jump_tuples([s], DELTA, 10**5, 1)[0]
        d = compute_delta(s, t.m[0], t.delta)
        with pytest.raises(ConstraintViolation, match="hyperbolic"):
            derive_peak_constraints(s, d)

    def test_negative_shear_injection_violates(self):
        s = PathSeed(3, 2, 0, Decomposition([RotationBlock(GOLDEN), N1Block(-1, -1)]))
        t = find_jump_tuples([s], DELTA, 10**5, 1)[0]
        d = compute_delta(s, t.m[0], t.delta)
        with pytest.raises(ConstraintViolation, match="q_plus"):
            derive_peak_constraints(s, d)

    def test_nontrivial_double_rotation_violates(self):
        s = PathSeed(3, 2, 0, Decomposition([N2Block(GOLDEN, False)]))
        t = find_jump_tuples([s], Fraction(1, 50), 10**5, 1)[0]
        d = compute_delta(s, t.m[0], t.delta)
        with pytest.raises(ConstraintViolation, match="nontrivial"):
            derive_peak_constraints(s, d)


class TestSecondGeodesic:
    def test_two_seed_success(self):
        system = two_seed_system()
        t = find_jump_tuples(system.seeds, DELTA, 10**6, 1,
                             required_sides=[("low",), ("high",)])[0]
        t2 = find_complementary_tuples(system.seeds, t, n_max=10**6)[0]
        result = second_geodesic(system, 0, t2)
        assert result.second == 1
        assert result.first_bound.passed
        # the first geodesic sits strictly below the peak ceiling
        assert result.peak_values[0] <= 2 * t2.N + (system.n - 2)
        assert result.peak_values[1] == 2 * t2.N + (system.n - 1)

    def test_single_seed_has_no_second(self):
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(GOLDEN)]))
        system = GeodesicSystem(2, Fraction(1), (s,))
        t = find_jump_tuples([s], DELTA, 10**5, 1, required_sides=[("low",)])[0]
        t2 = find_complementary_tuples([s], t, n_max=10**5)[0]
        assert second_geodesic(system, 0, t2).second is None


class TestBettiConstant:
    @pytest.mark.parametrize("n,value", [(2, Fraction(-1)), (3, Fraction(1)),
                                         (4, Fraction(-2, 3)), (5, Fraction(3, 4))])
    def test_values(self, n, value):
        assert betti_constant(n) == value

    @pytest.mark.parametrize("n", range(2, 13))
    def test_closed_forms(self, n):
        b = betti_constant(n)
        if n % 2 == 0:
            assert 2 * b == Fraction(-n, n - 1)
        else:
            assert 2 * b == Fraction(n + 1, n - 1)
        assert abs(2 * b) * (n - 1) in (n, n + 1)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            betti_constant(1)


class TestRunAnalysis:
    def test_two_elliptic_irrational(self):
        report = run_analysis(two_seed_system(), delta=DELTA, n_max=10**6)
        assert report.status == "two_elliptic_irrational"
        assert report.first.seed_index != report.second.seed_index
        for cand in (report.first, report.second):
            assert cand.constraints.elliptic
            assert cand.constraints.irrational_rotation_count >= 1
        assert report.first_bound_at_second.passed
        # complement identity across the pair, for the first candidate
        d = report.first.delta_report
        dc = two_seed_system().seeds[report.first.seed_index].decomp
        assert d.delta_k + d.delta_k_prime == dc.r - dc.r_prime

    def test_single_seed_contradiction(self):
        s = PathSeed(3, 2, 2, Decomposition([RotationBlock(GOLDEN), N1Block(1, 0)]))
        report = run_analysis(GeodesicSystem(3, Fraction(1), (s,)),
                              delta=DELTA, n_max=10**6)
        assert report.status == "fcg_contradiction"
        assert report.flag == "no_second_geodesic"
        assert report.betti == betti_constant(3)
        # the fallback keeps the first candidate and its complementary tuple
        assert report.first.tuple_N == report.tuple_used.N
        assert report.second_tuple is not None and report.second is None
        assert report.first_bound_at_second is not None

    def test_hyperbolic_system_flags_no_peak(self):
        s = PathSeed(3, 2, 0, Decomposition([RotationBlock(GOLDEN), HyperbolicBlock()]))
        report = run_analysis(GeodesicSystem(3, Fraction(1), (s,), False),
                              delta=DELTA, n_max=10**5, tuple_limit=3)
        assert report.status == "fcg_contradiction"
        assert report.flag == "no_peak_iterate"
        assert report.tuple_used is None and report.candidates == () and report.first is None

    def test_rational_system_flags_rational_branch(self):
        s = PathSeed(2, 2, 2, Decomposition([N1Block(1, 0)]))
        report = run_analysis(GeodesicSystem(2, Fraction(1), (s,)),
                              delta=DELTA, n_max=10**4, tuple_limit=2)
        assert report.status == "fcg_contradiction"
        assert report.flag == "rational_peak_geodesic"
        assert report.first.tuple_N == report.tuple_used.N and report.candidates
        assert report.second_tuple is None and report.first_bound_at_second is None

    def test_complement_past_n_max_is_no_tuple_found(self):
        # seed 0 peaks at N = 12776; its complement lies at N = 70145
        with pytest.raises(NoTupleFound, match=re.escape(
                "no complementary tuple with N <= 20000 for the peak at N = 12776; "
                "raise n_max")):
            run_analysis(two_seed_system(), delta=DELTA, n_max=20000)

    def test_a_fired_flag_wins_over_a_missing_complement(self):
        # at N = 6050 both seeds peak: seed 0's complement (N = 6347) lies past
        # n_max, and the rational seed 1 raises the rational-geodesic flag
        rational = PathSeed(3, 3, 2, Decomposition([RotationBlock(rational_angle(1, 3)),
                                                    N1Block(1, 0)]))
        report = run_analysis(GeodesicSystem(3, Fraction(1), (SEED_A, rational)),
                              delta=DELTA, n_max=6300)
        assert report.flag == "rational_peak_geodesic"
        assert report.tuple_used.N == 6050 and report.candidates == (0, 1)

    def test_each_tuple_is_complemented_once(self, monkeypatch):
        firsts = []

        def counting(seeds, first, **kwargs):
            firsts.append(first.N)
            return find_complementary_tuples(seeds, first, **kwargs)

        monkeypatch.setattr(analysis, "find_complementary_tuples", counting)
        # both copies of the seed peak at every tuple
        report = run_analysis(GeodesicSystem(3, Fraction(1), (SEED_A, SEED_A)),
                              delta=DELTA, n_max=10**6)
        assert report.flag == "no_second_geodesic"
        assert firsts == [379, 478]

    def test_each_complementary_tuple_is_checked_once(self, monkeypatch):
        closed_forms = []

        def counting(seed, N, delta_k):
            closed_forms.append(N)
            return index_at_even_jump(seed, N, delta_k)

        monkeypatch.setattr(analysis, "index_at_even_jump", counting)
        # both tuples, N = 379 and 478, complement at N' = 99, where each of
        # the two peak seeds asks for the values of every seed
        report = run_analysis(GeodesicSystem(3, Fraction(1), (SEED_A, SEED_A)),
                              delta=DELTA, n_max=10**6)
        assert report.flag == "no_second_geodesic"
        assert report.second_tuple.N == 99
        assert closed_forms == [99, 99]


def test_first_geodesic_bound_identity_at_complement():
    """At the complementary tuple the first seed's value matches the census
    closed form and stays below the peak whenever it has an irrational
    rotation."""
    system = two_seed_system()
    t = find_jump_tuples(system.seeds, DELTA, 10**6, 1,
                         required_sides=[("low",), ("high",)])[0]
    t2 = find_complementary_tuples(system.seeds, t, n_max=10**6)[0]
    s = system.seeds[0]
    dc = s.decomp
    value = index_iterate(s, 2 * t2.m[0]) + nullity_iterate(s, 2 * t2.m[0])
    closed = (2 * t2.N + dc.p_zero + dc.p_plus + dc.q_minus + dc.q_zero
              + 2 * dc.r_zero_prime + dc.r_prime - (dc.r - dc.r_prime))
    assert value == closed
    assert dc.r - dc.r_prime >= 1
    assert value <= 2 * t2.N + (system.n - 2)
