"""Jump tuples: scan oracle, verification, near-integer counts, complements."""

from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symjump import (ConstraintViolation, Decomposition, N1Block, N2Block,
                     NoTupleFound, JumpTuple, PathSeed, RotationBlock,
                     UndecidableComparison,
                     angle_period, compute_delta, find_complementary_tuples,
                     find_jump_tuples, index_at_even_jump, index_iterate,
                     jump_tuples_at, mean_index, nullity_iterate, quadratic_angle,
                     rational_angle, run_analysis, verify_tuple)
from symjump import jumps
from symjump.angles import IrrationalAngle, QuadraticAngle, RationalAngle, decimal_angle
from symjump.iteration import MeanIndex
from symjump.scenario import parse_scenario
from symjump.normal_forms import c_total, elliptic_height, splitting_plus_at_one

from conftest import QUADRATIC_POOL, pinched_seed, quadratics, random_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

GOLDEN = quadratic_angle(-1, 1, 2, 5)
SQRT2M1 = quadratic_angle(-1, 1, 1, 2)

SEED_R3 = PathSeed(1, Decomposition([RotationBlock(rational_angle(1, 3))]))
SEED_R4 = PathSeed(1, Decomposition([RotationBlock(rational_angle(1, 4))]))
SEED_I2 = PathSeed(1, Decomposition([N1Block(1, 0)]))
SEED_IRR_A = PathSeed(2, Decomposition([RotationBlock(SQRT2M1), N1Block(1, 0)]))
SEED_IRR_B = PathSeed(2, Decomposition([RotationBlock(GOLDEN), N1Block(1, 0)]))
# a quadratic N2 angle beside a rational rotation: the lattice period M is 3
SEED_N2_R3 = PathSeed(2, Decomposition([N2Block(GOLDEN, False),
                                        RotationBlock(rational_angle(1, 3))]))
# a quadratic pilot beside a decimal angle that some lattice steps
# cannot decide
COARSE = decimal_angle("0.6180339887", "1e-7")
SEED_PILOT_COARSE = PathSeed(2, Decomposition([RotationBlock(SQRT2M1),
                                               RotationBlock(COARSE),
                                               N1Block(1, 0)]))
# no quadratic angle to pilot on and not rational-only: the scan walks
# every lattice step (M = 3)
SEED_DECIMAL_R3 = PathSeed(3, Decomposition([
    RotationBlock(decimal_angle("0.41421356237", "1e-11")),
    RotationBlock(rational_angle(1, 3)), N1Block(1, 0)]))


def brute_force_tuples(seeds, n_max, delta):
    """Independent oracle: enumerate N directly, build m by the floor
    construction, verify the alignment conditions by direct formula
    evaluation.  Rational-only seeds, so mean indices are exact."""
    M = angle_period(seeds)
    out = []
    for N in range(1, n_max + 1):
        t = [int(Fraction(N) / (M * mean_index(s).exact())) for s in seeds]
        for chi in _all_chis(len(seeds)):
            m = [(tk + ck) * M for tk, ck in zip(t, chi)]
            if any(mk < 1 for mk in m):
                continue
            if all(_conditions_hold(s, N, mk, delta) for s, mk in zip(seeds, m)):
                out.append((N, tuple(m), tuple(chi)))
    return out


def floor_construction_tuples(seeds, n_max, delta):
    """Independent oracle for any seeds: every N <= n_max and chi in
    {0, 1}^q, m_k = (floor(N / (M * mean index)) + chi_k) * M, kept when
    verify_tuple passes.  No lattice walk, so no sieve."""
    M = angle_period(seeds)
    mis = [mean_index(s) for s in seeds]
    out = []
    for N in range(1, n_max + 1):
        t = [mi.floor_quotient(N, M) for mi in mis]
        for chi in _all_chis(len(seeds)):
            m = tuple((tk + ck) * M for tk, ck in zip(t, chi))
            if any(mk < 1 for mk in m):
                continue
            if verify_tuple(JumpTuple(N, m, chi, M, delta, ()), seeds).passed:
                out.append((N, m, tuple(chi)))
    return out


def _all_chis(q):
    if q == 0:
        return [()]
    return [(*rest, c) for rest in _all_chis(q - 1) for c in (0, 1)]


def _conditions_hold(s, N, mk, delta):
    i1, nu1 = s.i1, s.nu1
    e = elliptic_height(s.decomp)
    sp = splitting_plus_at_one(s.decomp)
    if nullity_iterate(s, 2 * mk - 1) != nu1:
        return False
    if nullity_iterate(s, 2 * mk + 1) != nu1:
        return False
    if index_iterate(s, 2 * mk - 1) + nu1 != 2 * N - (i1 + 2 * sp - nu1):
        return False
    if index_iterate(s, 2 * mk + 1) != 2 * N + i1:
        return False
    if index_iterate(s, 2 * mk) < 2 * N - e // 2:
        return False
    if index_iterate(s, 2 * mk) + nullity_iterate(s, 2 * mk) > 2 * N + e // 2:
        return False
    for _, _, a in s.decomp.spectrum_angles():
        if a.frac_side(2 * mk, delta) == "mid":
            return False
    return True


class TestAnglePeriod:
    def test_two_rational_angles(self):
        assert angle_period([SEED_R3, SEED_R4]) == 6

    def test_no_rational_angles(self):
        assert angle_period([PathSeed(1, Decomposition([RotationBlock(GOLDEN)]))]) == 1

    def test_single_sixth(self):
        s = PathSeed(1, Decomposition([RotationBlock(rational_angle(1, 6))]))
        assert angle_period([s]) == 3

    def test_counts_n2_angles(self):
        s = PathSeed(1, Decomposition([N2Block(rational_angle(1, 5), True)]))
        assert angle_period([s]) == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            angle_period([])


class TestFinderAgainstBruteForce:
    @pytest.mark.parametrize("seeds", [[SEED_R3], [SEED_I2], [SEED_R3, SEED_R4]],
                             ids=["third", "identity", "pair"])
    def test_matches_exhaustive_scan(self, seeds):
        delta = Fraction(1, 100)
        expected = brute_force_tuples(seeds, 40, delta)
        got = find_jump_tuples(seeds, delta, 40, limit=len(expected) + 5)
        assert [(t.N, t.m, t.chi) for t in got] == expected

    @pytest.mark.parametrize("delta", [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10)],
                             ids=["tenth", "fifth", "three_tenths"])
    @pytest.mark.parametrize("seeds,n_max", [([SEED_IRR_A], 200),
                                             ([SEED_IRR_A, SEED_IRR_B], 1000),
                                             ([SEED_N2_R3], 200)],
                             ids=["irrational", "irrational_pair", "n2_beside_third"])
    def test_irrational_pilot_matches_floor_construction(self, seeds, n_max, delta):
        expected = floor_construction_tuples(seeds, n_max, delta)
        assert len(expected) >= 2
        got = find_jump_tuples(seeds, delta, n_max, limit=len(expected) + 5)
        assert [(t.N, t.m, t.chi) for t in got] == expected

    def test_refusals_off_the_near_returns_are_never_met(self):
        # Lattice steps 707 and 1535 refuse (a side of COARSE, then the floor
        # construction at N = 4704), but neither is a near return of the
        # pilot, so the scan never asks; a walk over every step refuses.
        delta = Fraction(1, 10)
        with pytest.raises(UndecidableComparison):
            COARSE.frac_side(2 * 707, delta)
        c = index_iterate(SEED_PILOT_COARSE, 2 * 1535 + 1) - SEED_PILOT_COARSE.i1
        assert c == 2 * 4704
        with pytest.raises(UndecidableComparison):
            mean_index(SEED_PILOT_COARSE).floor_quotient(4704, 1)
        assert not {707, 1535} & set(jumps._joint_returns([(SQRT2M1, None, delta)], 2, 1535))
        got = find_jump_tuples([SEED_PILOT_COARSE], delta, 5000, 3)
        assert ([(t.N, t.m, t.chi) for t in got]
                == floor_construction_tuples([SEED_PILOT_COARSE], 233, delta))

    def test_smallest_tuple_for_third_rotation(self):
        t = find_jump_tuples([SEED_R3], Fraction(1, 100), 1000, 1)[0]
        assert (t.N, t.m, t.chi) == (2, (3,), (0,))

    def test_smallest_tuple_for_identity_block(self):
        t = find_jump_tuples([SEED_I2], Fraction(1, 100), 1000, 1)[0]
        assert (t.N, t.m) == (2, (1,))


class TestVerification:
    def test_finder_output_reverifies(self):
        for t in find_jump_tuples([SEED_R3, SEED_R4], Fraction(1, 100), 10**4, 3):
            assert verify_tuple(t, [SEED_R3, SEED_R4]).passed

    def test_off_lattice_mutation_fails(self):
        t = find_jump_tuples([SEED_R3], Fraction(1, 100), 100, 1)[0]
        bad = JumpTuple(t.N, (t.m[0] + 1,), t.chi, t.M_period, t.delta, t.per_path)
        result = verify_tuple(bad, [SEED_R3])
        assert not result.passed

    def test_wrong_n_fails(self):
        t = find_jump_tuples([SEED_I2], Fraction(1, 100), 100, 1)[0]
        bad = JumpTuple(t.N + 1, t.m, t.chi, t.M_period, t.delta, t.per_path)
        assert not verify_tuple(bad, [SEED_I2]).passed

    def test_empty_seed_list_rejected(self):
        t = find_jump_tuples([SEED_I2], Fraction(1, 100), 100, 1)[0]
        with pytest.raises(ValueError, match="empty"):
            verify_tuple(t, [])

    def test_a_candidate_can_fail_at_its_record(self, monkeypatch):
        # on S^2 with i1 = 2 and a rotation by sqrt(3) - 1, at delta = 1/3, the
        # iterate m = 5 of N = 13 passes the index-after-jump and side checks
        # ("low"), and its record then fails two conditions
        seeds = [PathSeed(2, Decomposition([RotationBlock(quadratic_angle(-1, 1, 1, 3))]))]
        delta = Fraction(1, 3)
        records, path_record = [], jumps._path_record

        def recorded(*args):
            records.append(path_record(*args))
            return records[-1]

        monkeypatch.setattr(jumps, "_path_record", recorded)
        assert jump_tuples_at(seeds, 13, delta) == []
        [record] = records
        assert [side.side for side in record.angle_sides] == ["low"]
        assert [(c.name, c.lhs, c.rhs) for c in record.conditions if not c.passed] == [
            ("index_nullity_before_jump", 22, 24), ("even_index_splitting_identity", 25, 27)]
        by_hand = JumpTuple(13, (5,), (0,), 1, delta, ())
        [path] = verify_tuple(by_hand, seeds).per_path
        assert [c.name for c in path.conditions if not c.passed] == [
            "index_nullity_before_jump", "even_index_splitting_identity"]
        found = [t.N for t in find_jump_tuples(seeds, delta, 200, 50)]
        assert found[:4] == [5, 10, 15, 17] and 13 not in found

    @pytest.mark.parametrize("change, message", [
        (dict(N=12776.5), "tuple at N = 12776.5: N must be a positive integer, got 12776.5"),
        (dict(m=(4517.0, 3948)), "tuple at N = 12776: m[0] must be a positive integer, got 4517.0"),
    ], ids=["float_N", "float_m"])
    def test_a_non_integer_entry_is_named_before_any_query(self, monkeypatch, shipped_seeds,
                                                           change, message):
        t = jump_tuples_at(shipped_seeds, 12776, Fraction(1, 100))[0]
        assert t.m == (4517, 3948)
        calls = _count_queries(monkeypatch)
        monkeypatch.setattr(jumps, "index_iterate", lambda *args: calls.append("index_iterate"))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_tuple(dataclasses.replace(t, **change), shipped_seeds)
        assert calls == []

    def test_condition_records_reevaluate_as_stored(self):
        t = find_jump_tuples([SEED_IRR_A, SEED_IRR_B], Fraction(1, 100), 10**6, 1)[0]
        fresh = verify_tuple(t, [SEED_IRR_A, SEED_IRR_B])
        for stored, again in zip(t.per_path, fresh.per_path):
            assert stored.conditions == again.conditions
            assert stored.angle_sides == again.angle_sides


@pytest.fixture(scope="module")
def tuples():
    return find_jump_tuples([SEED_IRR_A, SEED_IRR_B], Fraction(1, 100), 10**6, 3)


class TestIrrationalSystems:
    def test_three_tuples_found(self, tuples):
        assert len(tuples) == 3
        assert all(t.N <= 10**6 and t.passed for t in tuples)

    def test_every_condition_reverifies(self, tuples):
        for t in tuples:
            verdict = verify_tuple(t, [SEED_IRR_A, SEED_IRR_B])
            assert verdict.passed and verdict.per_path == t.per_path

    def test_even_jump_identity_both_paths(self, tuples):
        for t in tuples:
            for k, s in enumerate([SEED_IRR_A, SEED_IRR_B]):
                d = compute_delta(s, t.m[k], t.delta)
                assert index_at_even_jump(s, t.N, d.delta_k) == index_iterate(s, 2 * t.m[k])

    def test_sandwich_bounds(self, tuples):
        n = 3
        for t in tuples:
            for k, s in enumerate([SEED_IRR_A, SEED_IRR_B]):
                e = elliptic_height(s.decomp)
                iv = index_iterate(s, 2 * t.m[k]) + nullity_iterate(s, 2 * t.m[k])
                assert index_iterate(s, 2 * t.m[k]) >= 2 * t.N - e // 2
                assert iv <= 2 * t.N + e // 2 <= 2 * t.N + (n - 1)

    def test_monotone_separation(self, tuples):
        t = tuples[0]
        for k, s in enumerate([SEED_IRR_A, SEED_IRR_B]):
            m_k = t.m[k]
            peak = index_iterate(s, 2 * m_k)
            for m in range(1, 2 * m_k):
                assert index_iterate(s, m) + nullity_iterate(s, m) <= peak
            ceiling = 2 * t.N + (s.n - 1)
            for m in range(2 * m_k + 1, 4 * m_k + 1):
                assert ceiling <= index_iterate(s, m)

    def test_complement_identity(self, tuples):
        first = tuples[0]
        second = find_complementary_tuples([SEED_IRR_A, SEED_IRR_B], first,
                                           n_max=10**6)[0]
        assert second.N != first.N
        for k, s in enumerate([SEED_IRR_A, SEED_IRR_B]):
            d = compute_delta(s, first.m[k], first.delta, complement_m=second.m[k])
            dc = s.decomp
            assert d.delta_k + d.delta_k_prime == (dc.r - dc.r_prime
                                                   + 2 * (dc.r_star - dc.r_star_prime))

    def test_delta_bound(self, tuples):
        for t in tuples:
            for k, s in enumerate([SEED_IRR_A, SEED_IRR_B]):
                d = compute_delta(s, t.m[k], t.delta)
                dc = s.decomp
                assert d.delta_k <= (dc.r - dc.r_prime) + (dc.r_star - dc.r_star_prime)


class TestComputeDelta:
    def test_rational_decomposition_gives_zero(self):
        t = find_jump_tuples([SEED_R3], Fraction(1, 100), 100, 1)[0]
        d = compute_delta(SEED_R3, t.m[0], Fraction(1, 100))
        assert d.delta_k == 0 and d.delta_k_prime == 0
        assert d.c_k == c_total(SEED_R3.decomp)
        assert d.s_plus == splitting_plus_at_one(SEED_R3.decomp)

    def test_single_irrational_rotation_pair_sums_to_one(self):
        seeds = [SEED_IRR_A]
        first = find_jump_tuples(seeds, Fraction(1, 50), 10**5, 1)[0]
        second = find_complementary_tuples(seeds, first, n_max=10**5)[0]
        d = compute_delta(SEED_IRR_A, first.m[0], first.delta,
                          complement_m=second.m[0])
        assert d.delta_k + d.delta_k_prime == 1

    def test_nontrivial_double_rotation_counts(self):
        s = PathSeed(2, Decomposition([N2Block(GOLDEN, False)]))
        t = find_jump_tuples([s], Fraction(1, 50), 10**5, 1)[0]
        d = compute_delta(s, t.m[0], t.delta)
        assert d.delta_k == 1  # exactly one of the conjugate pair is near-integer
        assert d.delta_k + d.delta_k_prime == 2

    def test_non_complementary_pair_rejected(self):
        # an iterate paired with itself lands on its own side twice
        first = find_jump_tuples([SEED_IRR_A], Fraction(1, 50), 10**5, 2)
        m = first[0].m[0]
        assert m == 35 and first[0].per_path[0].irrational_rotation_sides() == ("high",)
        with pytest.raises(ConstraintViolation, match=re.escape(
                "counts 0 + 0 != 1: iterates 35, 35 are not a complementary pair")):
            compute_delta(SEED_IRR_A, m, Fraction(1, 50), complement_m=m)

    def test_count_beyond_the_census_is_refused(self):
        # {2*2/3} = 1/3 < 2/5 is "low", but a rational rotation is no census entry
        s = PathSeed(2, Decomposition([RotationBlock(rational_angle(1, 3)), N1Block(1, 0)]))
        with pytest.raises(ConstraintViolation, match=re.escape(
                "near-integer count 1 exceeds the irrational rotation census; "
                "m_k = 2 does not come from a verified tuple")):
            compute_delta(s, 2, Fraction(2, 5))

    @pytest.mark.parametrize("seed", [PathSeed(2, Decomposition([N1Block(1, 0), N1Block(1, 1)])),
                                      SEED_IRR_A, SEED_R3], ids=["no_angle", "quadratic",
                                                                 "rational"])
    @pytest.mark.parametrize("m_k, delta, complement_m, message", [
        (0, Fraction(1, 5), None, "multiplier must be a positive integer, got 0"),
        (1.5, Fraction(1, 5), None, "multiplier must be a positive integer, got 3.0"),
        (1, Fraction(1, 5), 0, "multiplier must be a positive integer, got 0"),
        (1, 5, None, "delta must lie in (0, 1/2), got 5"),
        (0, 5, None, "multiplier must be a positive integer, got 0"),
        (1, 5, -2, "multiplier must be a positive integer, got -4"),
    ], ids=["m_zero", "m_half", "complement_zero", "delta", "m_before_delta",
            "complement_before_delta"])
    def test_operands_are_checked_before_any_query(self, monkeypatch, seed, m_k, delta,
                                                   complement_m, message):
        # every seed, with or without rotation angles: each iterate, then delta
        calls = _count_queries(monkeypatch)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compute_delta(seed, m_k, delta, complement_m=complement_m)
        assert calls == []

    def test_even_jump_closed_form_examples(self):
        # rational-only: 2N - S+ - C
        t = find_jump_tuples([SEED_I2], Fraction(1, 100), 100, 1)[0]
        assert index_at_even_jump(SEED_I2, t.N, 0) == 2 * t.N - 1
        assert index_at_even_jump(SEED_I2, t.N, 0) == index_iterate(SEED_I2, 2 * t.m[0])


class TestScanControls:
    @pytest.mark.parametrize("scan, message", [
        (lambda seeds, base: find_jump_tuples(seeds, Fraction(1, 10), 2.5),
         "n_max must be a positive integer, got 2.5"),
        (lambda seeds, base: find_jump_tuples(seeds, Fraction(1, 10), 10**3, 1.0),
         "limit must be a positive integer, got 1.0"),
        (lambda seeds, base: find_jump_tuples(seeds, Fraction(1, 10), 0),
         "n_max must be a positive integer, got 0"),
        (lambda seeds, base: find_jump_tuples(seeds, Fraction(1, 10), 10**3, -1),
         "limit must be a positive integer, got -1"),
        (lambda seeds, base: find_complementary_tuples(seeds, base, n_max=10.0**5),
         "n_max must be a positive integer, got 100000.0"),
        (lambda seeds, base: find_complementary_tuples(seeds, base, limit=Fraction(1)),
         "limit must be a positive integer, got Fraction(1, 1)"),
        (lambda seeds, base: jump_tuples_at(seeds, 1.5), "N must be a positive integer, got 1.5"),
    ], ids=["n_max", "limit", "n_max_zero", "limit_negative", "complement_n_max",
            "complement_limit", "tuples_at_N"])
    def test_a_count_that_is_not_a_positive_integer_is_named(self, monkeypatch, shipped_seeds,
                                                             scan, message):
        base = jump_tuples_at(shipped_seeds, 12776, Fraction(1, 100))[0]
        calls = _count_queries(monkeypatch)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scan(shipped_seeds, base)
        assert calls == []

    def test_no_tuple_found_is_bounds_diagnostic(self):
        with pytest.raises(NoTupleFound, match="n_max"):
            find_jump_tuples([SEED_R3], Fraction(1, 100), 1, 1)

    def test_mean_index_precondition(self):
        s = PathSeed(0, Decomposition([RotationBlock(rational_angle(1, 3))]))
        assert mean_index(s).exact() < 0
        with pytest.raises(ValueError, match="positive"):
            find_jump_tuples([s], Fraction(1, 100), 100, 1)

    def test_delta_domain(self):
        with pytest.raises(ValueError, match="delta"):
            find_jump_tuples([SEED_I2], Fraction(1, 2), 100, 1)

    def test_exclude(self):
        base = find_jump_tuples([SEED_I2], Fraction(1, 100), 100, 3)
        skipped = find_jump_tuples([SEED_I2], Fraction(1, 100), 100, 2,
                                   exclude={base[0].N})
        assert skipped[0].N == base[1].N

    @pytest.mark.parametrize("delta", [Fraction(1, 10), Fraction(1, 100)],
                             ids=["tenth", "hundredth"])
    def test_tuples_at_one_n_match_a_full_scan(self, delta):
        n_max, systems = 3000, 0
        for rng_seed in range(20):
            rng = random.Random(f"at/{rng_seed}")
            n = rng.randint(2, 4)
            seeds = [pinched_seed(rng, n, denom_max=8) for _ in range(rng.randint(1, 3))]
            try:
                full = find_jump_tuples(seeds, delta, n_max, limit=10**6)
            except NoTupleFound:
                full = []
            found = {t.N for t in full}
            systems += bool(found)
            for N in found:
                assert jump_tuples_at(seeds, N, delta) == [t for t in full if t.N == N]
                for other in {N - 1, N + 1} - found:
                    if 1 <= other <= n_max:
                        assert jump_tuples_at(seeds, other, delta) == []
        assert systems >= 10

    def test_tuples_at_a_nonpositive_n_are_refused(self):
        for N in (0, -5):
            with pytest.raises(ValueError, match=f"N must be a positive integer, got {N}$"):
                jump_tuples_at([SEED_I2], N, Fraction(1, 100))

    def test_results_sorted_by_n_then_chi(self):
        ts = find_jump_tuples([SEED_R3, SEED_R4], Fraction(1, 100), 10**4, 5)
        keys = [(t.N, t.chi) for t in ts]
        assert keys == sorted(keys)

    def test_progress_callback_invoked(self):
        calls = []
        find_jump_tuples([SEED_I2], Fraction(1, 100), 100, 1,
                         progress=lambda m, n: calls.append((m, n)))
        assert calls

    def test_mean_index_below_the_enclosure_width_scans(self):
        # mean index ~1e-16: its enclosure of width 1e-6 reaches below 0, and
        # the step bound needs a positive lower bound
        x = quadratic_angle(0, 1, 2 * 10**8, 10**16 + 2)
        seed = PathSeed(0, Decomposition([RotationBlock(x)]))

        class Stop(Exception):
            pass

        def stop(m_done, n_max):
            raise Stop

        with pytest.raises(Stop):
            find_jump_tuples([seed], Fraction(1, 10), 1000, 1, progress=stop)

    def test_tiny_delta_scan_ends(self):
        # Without the step bound the sieve would search for a first return
        # near step 10**900; the scan must end, in a subprocess so a hang
        # fails on the timeout instead of stalling the suite.
        code = ("from fractions import Fraction\n"
                "from symjump import (Decomposition, N1Block, NoTupleFound, PathSeed,\n"
                "                     RotationBlock, find_jump_tuples, quadratic_angle)\n"
                "x = quadratic_angle(-1, 1, 1, 2)\n"
                "seed = PathSeed(2, Decomposition([RotationBlock(x), N1Block(1, 0)]))\n"
                "try:\n"
                "    find_jump_tuples([seed], Fraction(1, 10**900), 2000, 1)\n"
                "except NoTupleFound:\n"
                "    print('no tuple')\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
        assert r.returncode == 0, r.stderr
        assert r.stdout == b"no tuple\n"


def _count_frac_side(monkeypatch, limit):
    """The multipliers of every quadratic frac_side call from here on; the
    call past ``limit`` fails the test."""
    calls = []
    frac_side = QuadraticAngle.frac_side

    def counted(self, m, delta):
        calls.append(m)
        if len(calls) > limit:
            raise AssertionError(f"the search makes more than {limit} queries")
        return frac_side(self, m, delta)

    monkeypatch.setattr(QuadraticAngle, "frac_side", counted)
    return calls


def _count_kernel_reads(monkeypatch):
    """The multipliers of every quadratic side-kernel read from here on: each
    _side call and each call of a folded kernel (QuadraticAngle._side_test,
    and QuadraticAngle._floor_kernel, which finds the gaps of a flat walk)."""
    reads, side = [], QuadraticAngle._side

    def counted(self, m, p, q):
        reads.append(m)
        return side(self, m, p, q)

    def counted_fold(fold):
        def folded(self, mult, *args):
            kernel = fold(self, mult, *args)

            def read(g):
                reads.append(mult * g)
                return kernel(g)

            return read

        return folded

    monkeypatch.setattr(QuadraticAngle, "_side", counted)
    for name in ("_side_test", "_floor_kernel"):
        monkeypatch.setattr(QuadraticAngle, name, counted_fold(getattr(QuadraticAngle, name)))
    return reads


class TestNearReturns:
    @settings(max_examples=400, deadline=None)
    @given(coeffs=quadratics(), M=st.integers(1, 12),
           delta=st.tuples(st.integers(1, 60),
                           st.one_of(st.integers(3, 400), st.integers(401, 10**7))).filter(
               lambda t: 2 * t[0] < t[1]).map(lambda t: Fraction(*t)),
           last=st.integers(-2, 1500), side=st.sampled_from((None, "low", "high")))
    # sqrt(10**12 + 1) - 10**6 = [0; 2*10**6, 2*10**6, ...] and sqrt(1000001) -
    # 1000 = [0; 2000, 2000, ...]: the walk for a and b gallops through a
    # partial quotient far past last, or ends at last
    @example(coeffs=(-10**6, 1, 1, 10**12 + 1), M=1, delta=Fraction(1, 60), last=1500, side=None)
    @example(coeffs=(-10**6, 1, 1, 10**12 + 1), M=7, delta=Fraction(1, 200), last=1500,
             side="low")
    @example(coeffs=(-10**6, 1, 1, 10**12 + 1), M=1000, delta=Fraction(1, 1000), last=1500,
             side="high")
    @example(coeffs=(-1000, 1, 1, 1000001), M=1, delta=Fraction(1, 1000), last=1500, side=None)
    @example(coeffs=(-1000, 1, 1, 1000001), M=1, delta=Fraction(1, 1000), last=1500, side="high")
    @example(coeffs=(-1000, 1, 1, 1000001), M=12, delta=Fraction(1, 100), last=1500, side="low")
    def test_matches_brute_force(self, coeffs, M, delta, last, side):
        x = quadratic_angle(*coeffs)
        want = [s for s in range(1, last + 1)
                if x.frac_side(2 * M * s, delta) in ((side,) if side else ("low", "high"))]
        assert list(jumps._joint_returns([(x, side, delta)], 2 * M, last)) == want

    @staticmethod
    def _count_side_reads(monkeypatch):
        """The multipliers of every quadratic side-kernel read from here on;
        a checked frac_side call fails the test: the walk checks delta once
        and tests each candidate gap with the unchecked kernel."""
        _count_frac_side(monkeypatch, 0)
        return _count_kernel_reads(monkeypatch)

    def test_many_returns_take_few_kernel_reads(self, monkeypatch):
        reads = self._count_side_reads(monkeypatch)
        returns = jumps._joint_returns([(SQRT2M1, None, Fraction(1, 10**6))], 2, 10**9)
        steps = list(itertools.islice(returns, 200))
        assert len(steps) == 200 and steps[:3] == [235416, 1136689, 1372105]
        assert 200 <= len(reads) <= 5000

    def test_a_large_partial_quotient_takes_few_kernel_reads(self, monkeypatch):
        # 2*x ~ 10**-6 for x = sqrt(10**12 + 1) - 10**6, so b ~ 10**6: a walk of
        # single Stern-Brocot steps would read about 10**6 times to find it
        x = quadratic_angle(-10**6, 1, 1, 10**12 + 1)
        reads = self._count_side_reads(monkeypatch)
        returns = jumps._joint_returns([(x, None, Fraction(1, 100))], 2, 10**9)
        assert list(itertools.islice(returns, 5)) == [1, 2, 3, 4, 5]
        assert len(reads) <= 200

    def test_no_step_within_liouville_bound_reads_no_kernel(self, monkeypatch):
        reads = self._count_side_reads(monkeypatch)
        delta = Fraction(1, 8 * 10**6 + 1)
        for side in (None, "low", "high"):
            assert list(jumps._joint_returns([(SQRT2M1, side, delta)], 2, 10**6)) == []
        assert reads == []

    def test_no_step_within_liouville_bound_makes_no_query(self, monkeypatch):
        # ||2g*(sqrt(2) - 1)|| > 1/(1 + 2*10**6*2*2) for every g <= 10**6
        calls = _count_frac_side(monkeypatch, 0)
        for side in (None, "low", "high"):
            for delta in (Fraction(1, 10**999), Fraction(1, 8 * 10**6 + 1)):
                assert list(jumps._joint_returns([(SQRT2M1, side, delta)], 2, 10**6)) == []
        assert calls == []

    def test_many_returns_take_few_queries(self, monkeypatch):
        # the gaps come from the same search at 2*delta, 4*delta, ...; a scan
        # of every gap from the first convergent on made 901,653 queries here
        calls = _count_frac_side(monkeypatch, 5000)
        returns = jumps._joint_returns([(SQRT2M1, None, Fraction(1, 10**6))], 2, 10**9)
        steps = list(itertools.islice(returns, 200))
        assert len(steps) == 200 and steps[:3] == [235416, 1136689, 1372105]
        assert all(SQRT2M1.frac_side(2 * s, Fraction(1, 10**6)) != "mid" for s in steps)

    def test_nesting_depth_is_bounded(self):
        # 1/delta of 800 bits still answers, and one more bit is refused unless
        # no step can exist: a search over one angle no longer nests, but the
        # refusal stands, so that no outcome depends on the search's method
        x, delta, last = SQRT2M1, Fraction(1, 2**800 - 1), 10**300
        steps = list(itertools.islice(jumps._joint_returns([(x, None, delta)], 2, last), 3))
        assert len(steps) == 3 and all(x.frac_side(2 * s, delta) != "mid" for s in steps)
        for side in ("low", "high"):
            returns = jumps._joint_returns([(x, side, delta)], 2, last)
            one_sided = list(itertools.islice(returns, 2))
            assert len(one_sided) == 2 and all(x.frac_side(2 * s, delta) == side
                                               for s in one_sided)
        for side in (None, "low", "high"):
            with pytest.raises(ValueError, match=r"delta at most 2\*\*-800"):
                next(jumps._joint_returns([(x, side, Fraction(1, 2**800))], 2, last))
            with pytest.raises(ValueError, match=r"delta at most 2\*\*-800"):
                next(jumps._joint_returns([(x, side, Fraction(1, 10**999))], 2, 10**1005))


@pytest.fixture(scope="module")
def shipped_seeds():
    system, _ = parse_scenario((ROOT / "scenarios" / "two_seed_s3.json").read_bytes())
    return system.seeds


def _scan(*args, scan=find_jump_tuples, **kwargs):
    """The tuples of a scan (None when it finds none) and its progress calls."""
    calls = []
    try:
        return scan(*args, progress=lambda m, n: calls.append(m), **kwargs), calls
    except NoTupleFound:
        return None, calls


class TestScanStops:
    """The lattice walk visits no step past the last one whose N can be at
    most n_max, or at most the limit-th smallest N found, and stops there;
    progress is still reported at every chunk end (2048 lattice steps) up to
    the first one past that step.  A rational-only system's walk visits
    only seed 1's steps j*S that hold the multiples of P = lcm_k(M*mu_k)."""

    def test_stops_at_the_step_of_the_limit_th_tuple(self, monkeypatch):
        # every multiple of P = 2 is a tuple of the rational-only SEED_R3,
        # N = 2j at m = 3j, step S = 1: the walk asks those N and no other
        M = angle_period([SEED_R3])
        asked = []
        tuples_at = jumps._tuples_at

        def counted_n(seeds, N, M, delta, rules, first=None):
            asked.append(N)
            return tuples_at(seeds, N, M, delta, rules, first)

        monkeypatch.setattr(jumps, "_tuples_at", counted_n)
        ts, calls = _scan([SEED_R3], Fraction(1, 100), 10**5, 3)
        assert [t.N for t in ts] == [2, 4, 6]
        assert asked == [2, 4, 6]
        assert calls == [2048 * M]
        # a rotation by 2/3 with i1 = 0 has N = j at step j, and the slack of
        # last_step(2) takes in step 3, which is not asked
        seed = PathSeed(0, Decomposition([RotationBlock(rational_angle(2, 3))]))
        asked.clear()
        assert jumps._last_step(seed, 3, 2) == 3
        assert [t.N for t in find_jump_tuples([seed], Fraction(1, 100), 2000, 2)] == [1, 2]
        assert asked == [1, 2]

        # seed 1 with a decimal angle and no quadratic one walks every lattice
        # step, up to the last whose N can be at most the third N, 346
        M = angle_period([SEED_DECIMAL_R3])
        odd_steps = []

        def counted(seed, m):
            if seed is SEED_DECIMAL_R3 and m % (2 * M) == 1:
                odd_steps.append(m // (2 * M))
            return index_iterate(seed, m)

        monkeypatch.setattr(jumps, "index_iterate", counted)
        ts, calls = _scan([SEED_DECIMAL_R3], Fraction(1, 20), 10**5, 3)
        assert [t.N for t in ts] == [21, 325, 346]
        # the largest s with ((2sM + 1)*mean - slack - i1)/2 <= 346, slack = 7,
        # where 702/mean lies in (200, 201) for the mean's enclosure
        lo, hi = mean_index(SEED_DECIMAL_R3).enclosure(Fraction(1, 10**6))
        assert 200 < (2 * 346 + 7 + SEED_DECIMAL_R3.i1) / hi < 702 / lo < 201
        assert odd_steps == list(range(1, (200 - 1) // (2 * M) + 1)) == list(range(1, 34))
        assert calls == [2048 * M]

    def test_finds_the_tuple_at_the_last_step(self):
        # N = 6 sits at lattice step 3, the last step whose N can be at most
        # n_max = 6: a bound one step short would miss it
        M = angle_period([SEED_R3])
        assert jumps._last_step(SEED_R3, M, 6) == 3
        ts, _ = _scan([SEED_R3], Fraction(1, 100), 6, 5)
        assert [(t.N, t.m[0]) for t in ts] == [(2, M), (4, 2 * M), (6, 3 * M)]

    def test_stops_after_the_limit_th_tuple(self, shipped_seeds):
        ts, calls = _scan(shipped_seeds, Fraction(1, 100), 10**6, 5)
        assert [t.N for t in ts] == [12776, 70145, 82921, 95697, 108473]
        assert calls == [2048 * k for k in range(1, 20)]
        comp, calls = _scan(shipped_seeds, ts[0], n_max=10**6,
                            scan=find_complementary_tuples)
        assert [t.N for t in comp] == [70145]
        assert len(calls) == 13 and calls[-1] == 26624

    def test_chunks_go_on_after_the_walk_runs_out(self, shipped_seeds):
        # no near return of seed 1 below the last step, yet every chunk up to
        # the bound is reported before the scan gives up
        ts, calls = _scan(shipped_seeds, Fraction(1, 10**7), 10**5, 1)
        assert ts is None
        assert calls == [2048 * k for k in range(1, 19)]

    # the quadratic systems spread their first five tuples over two to seven chunks
    @pytest.mark.parametrize("irrational, rng_seed",
                             [(False, 0), (False, 1), (False, 3), (True, 1), (True, 2),
                              (True, 24), (True, 46), (True, 55)])
    def test_limit_keeps_the_first_tuples_of_a_longer_scan(self, irrational, rng_seed):
        rng = random.Random(f"stop/{rng_seed}")
        n = rng.randint(2, 4)
        seeds = [pinched_seed(rng, n, allow_irrational=irrational, denom_max=8)
                 for _ in range(rng.randint(1, 3))]
        delta = Fraction(1, rng.choice((10, 100, 1000)))
        full, calls = _scan(seeds, delta, 10**5, 50)
        assert full and (len(calls) > 1) == irrational
        for limit in range(1, 5):
            ts, some_calls = _scan(seeds, delta, 10**5, limit)
            assert ts == full[:limit]
            # all of them when the longer scan reports one chunk
            assert some_calls == calls[:len(some_calls)]


def _rational_system(rng):
    """1-3 rational-only seeds of N1, N2, rotation and hyperbolic blocks,
    pinched or not, each with a positive mean index."""
    n = rng.randint(2, 5)
    seeds = []
    while len(seeds) < rng.randint(1, 3):
        seed = (pinched_seed(rng, n, allow_irrational=False, denom_max=6) if rng.random() < 0.5
                else random_seed(rng, n, allow_irrational=False, denom_max=6))
        if seed.mean.exact() > 0:
            seeds.append(seed)
    return seeds


def _period_of_tuples(seeds):
    """P = lcm_k(M*mu_k), from the exact mean indices; each M*mu_k is an
    integer."""
    M = angle_period(seeds)
    periods = [M * mean_index(s).exact() for s in seeds]
    assert all(p.denominator == 1 for p in periods)
    return lcm(*(p.numerator for p in periods))


def _chunk_ends(seeds, n):
    """The progress calls of a lattice walk whose bound is last_step(n)."""
    M = angle_period(seeds)
    last = jumps._last_step(seeds[0], M, n)
    return [2048 * M * k for k in range(1, max(last, 0) // 2048 + 2)]


def _large_period_seeds():
    """Three rational-only seeds with M = 462 and P = 14,238,840."""
    return parse_scenario(json.dumps(
        {"version": 1, "system": {"n": 4}, "seeds": [
            {"i1": 4, "nu1": 1, "blocks": [
                {"n1": [1, -1]}, {"n2": {"angle": {"rational": [5, 6]}, "trivial": True}}]},
            {"i1": 5, "nu1": 1, "blocks": [
                {"r": {"rational": [4, 7]}}, {"r": {"rational": [2, 3]}}, {"n1": [1, -1]}]},
            {"i1": 5, "nu1": 0, "blocks": [
                {"r": {"rational": [5, 11]}}, {"n1": [-1, 1]}, {"r": {"rational": [7, 12]}}]},
        ]}).encode())[0].seeds


class TestRationalProgression:
    """When every spectrum angle is rational, the jump tuples are exactly one
    at each multiple of P = lcm_k(M*mu_k), at seed 1's lattice steps j*S,
    S = P/(M*mu_1); the lattice walk visits those steps only, so it asks
    those N only, with the progress calls of a walk over every step."""

    def test_the_walk_stops_at_the_limit_th_tuple(self, monkeypatch):
        # where P lies below seed 1's slack, last_step of the limit-th N takes
        # in later steps j*S; the walk reads no index there.  A rotation by
        # 2/3 with i1 = 0 has P = 1 and N = j at step j, and 3 of 400 random
        # systems have P below the slack too
        systems = [[PathSeed(0, Decomposition([RotationBlock(rational_angle(2, 3))]))]]
        systems += [_rational_system(random.Random(f"stride/{i}")) for i in range(400)]
        steps, below = [], 0
        for system in systems:
            M, P = angle_period(system), _period_of_tuples(system)
            S = P // (M * mean_index(system[0]).exact())
            for limit in range(1, 5):
                if jumps._last_step(system[0], M, limit * P) < (limit + 1) * S:
                    continue
                below += limit == 1

                def counted(seed, m):
                    if seed is system[0] and m % (2 * M) == 1:
                        steps.append(m // (2 * M))
                    return index_iterate(seed, m)

                steps.clear()
                with monkeypatch.context() as mp:
                    mp.setattr(jumps, "index_iterate", counted)
                    ts, calls = _scan(system, Fraction(1, 100), 10**6, limit)
                assert [t.N for t in ts] == [j * P for j in range(1, limit + 1)]
                assert steps == [j * S for j in range(1, limit + 1)]
                assert calls == _chunk_ends(system, limit * P)
        assert below == 4

    @pytest.mark.parametrize("rng_seed", range(6))
    def test_matches_tuples_at_every_n(self, rng_seed):
        rng = random.Random(f"progression/{rng_seed}")
        n_max, with_tuples = 700, 0
        for _ in range(12):
            seeds = _rational_system(rng)
            delta = rng.choice((Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)))
            every = [t for N in range(1, n_max + 1) for t in jump_tuples_at(seeds, N, delta)]
            P = _period_of_tuples(seeds)
            assert [t.N for t in every] == list(range(P, n_max + 1, P))
            with_tuples += bool(every)
            for limit in range(1, 5):
                exclude = set(rng.sample(range(1, 3 * P + 1), rng.randint(0, 3)))
                required = rng.choice((None, [()] * len(seeds), [None] * len(seeds)))
                want = [t for t in every if t.N not in exclude][:limit]
                got, calls = _scan(seeds, delta, n_max, limit, exclude=exclude,
                                   required_sides=required)
                assert (got or []) == want
                assert calls == _chunk_ends(seeds, want[-1].N if len(want) == limit else n_max)
        assert with_tuples >= 2

    def test_work_does_not_grow_with_n_max(self, monkeypatch):
        # P = 14,238,840: a walk over every step would visit about 5*10**8
        seeds = _large_period_seeds()
        P = _period_of_tuples(seeds)
        assert P == 14238840
        asked = []
        tuples_at = jumps._tuples_at

        def counted(seeds, N, M, delta, rules, first=None):
            asked.append(N)
            return tuples_at(seeds, N, M, delta, rules, first)

        monkeypatch.setattr(jumps, "_tuples_at", counted)
        for limit in range(1, 5):
            asked.clear()
            ts = find_jump_tuples(seeds, Fraction(1, 100), 10**12, limit, exclude={P})
            assert [t.N for t in ts] == [j * P for j in range(2, limit + 2)]
            assert asked == [t.N for t in ts] and len(asked) <= limit + 1
            assert all(verify_tuple(t, seeds).passed for t in ts)
        asked.clear()
        with pytest.raises(NoTupleFound, match=r"N <= 1000000 .*multiple of P = 14238840"):
            find_jump_tuples(seeds, Fraction(1, 100), 10**6, 3)
        assert asked == []

    def test_seed_1_is_asked_at_its_steps_only(self, monkeypatch):
        # seed 1's odd index is read once per visited step j*S, the excluded
        # N = P included, and its iterate at chi = 1 is never asked
        seeds = _large_period_seeds()
        M = angle_period(seeds)
        P = _period_of_tuples(seeds)
        S = P // (M * mean_index(seeds[0]).exact())
        assert (M, S) == (462, 7705)
        steps = []

        def counted(seed, m):
            if seed is seeds[0] and m % (2 * M) == 1:
                steps.append(m // (2 * M))
            return index_iterate(seed, m)

        monkeypatch.setattr(jumps, "index_iterate", counted)
        for limit in range(1, 5):
            steps.clear()
            ts = find_jump_tuples(seeds, Fraction(1, 100), 10**12, limit, exclude={P})
            assert [t.m[0] for t in ts] == [j * S * M for j in range(2, limit + 2)]
            assert steps == [j * S for j in range(1, limit + 2)]

    def test_a_period_past_n_max_ends_at_once(self):
        # P = 10**15 + 1 lies past n_max = 10**15, and so does seed 1's first
        # step: the walk asks no index and no N.  A walk that counted its
        # chunks would loop about 5*10**11 times, so the scan runs in a
        # subprocess where a hang fails on the timeout.
        code = ("from fractions import Fraction\n"
                "from symjump import Decomposition, N1Block, NoTupleFound, PathSeed, jumps\n"
                "def refused(*args):\n"
                "    raise AssertionError('asked')\n"
                "jumps.index_iterate = jumps._tuples_at = refused\n"
                "seeds = [PathSeed(i1, Decomposition([N1Block(1, -1)]))\n"
                "         for i1 in (1, 10**15 + 1)]\n"
                "try:\n"
                "    jumps.find_jump_tuples(seeds, Fraction(1, 100), 10**15, 1)\n"
                "except NoTupleFound as e:\n"
                "    print(e)\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
        assert r.returncode == 0, r.stderr
        assert r.stdout.decode() == (
            "no jump tuple with N <= 1000000000000000 at delta = 1/100: every angle is "
            "rational, so the jump tuples are one at each multiple of P = 1000000000000001; "
            "raise n_max\n")

    @pytest.mark.parametrize("rng_seed", range(3))
    def test_every_multiple_of_p_holds_one_tuple(self, rng_seed):
        # the proof in _pilot_steps: none off P*Z, one at each multiple,
        # so a NoTupleFound is only ever about n_max (or exclude)
        rng = random.Random(f"multiples/{rng_seed}")
        for _ in range(20):
            seeds = _rational_system(rng)
            P = _period_of_tuples(seeds)
            delta = Fraction(1, rng.choice((10, 1000)))
            for N in (P, 2 * P, 7 * P):
                assert [(t.N, t.chi) for t in jump_tuples_at(seeds, N, delta)] == [
                    (N, (0,) * len(seeds))]
            for N in {P - 1, P + 1, 2 * P - 1, 2 * P + 1}:
                if N % P:
                    assert jump_tuples_at(seeds, N, delta) == []
            with pytest.raises(NoTupleFound, match=f"multiple of P = {P}; raise n_max$"):
                find_jump_tuples(seeds, delta, P, 1, exclude={P})


def _both_walks(seeds, delta, n_max, limit, required_sides=None, exclude=()):
    """The first ``limit`` tuples of the N-walk and of the lattice walk on
    one scan, and the lattice walk's step bound."""
    seeds = tuple(seeds)
    M = angle_period(seeds)
    last = jumps._last_step(seeds[0], M, n_max)
    rules = jumps._side_rules(seeds, required_sides)
    scan = (seeds, M, delta, rules, n_max, limit, frozenset(exclude), None)
    by_n = sorted(jumps._walk_n(*scan), key=JumpTuple.sort_key)[:limit]
    by_step = sorted(jumps._walk_steps(*scan, None, last), key=JumpTuple.sort_key)[:limit]
    return by_n, by_step, last


class TestNWalk:
    """When seed 1's lattice walk has more steps to visit than n_max the scan
    walks N = 1 .. n_max instead, with the tuples the lattice walk gives."""

    # x = sqrt(10**16 + 2)/(2*10**8) ~ 1/2 + 5e-17 in the one rotation block
    # of a seed with i1 = 0: mean index ~1e-16, about 10**19 lattice steps
    TINY = PathSeed(0, Decomposition([RotationBlock(
        quadratic_angle(0, 1, 2 * 10**8, 10**16 + 2))]))

    def test_tiny_mean_index_walks_n(self):
        ts, calls = _scan([self.TINY], Fraction(1, 10), 1000, 5)
        assert [(t.N, t.chi) for t in ts] == [(1, (0,)), (1, (1,)), (2, (0,)), (2, (1,)),
                                             (3, (0,))]
        assert all(verify_tuple(t, [self.TINY]).passed for t in ts)
        assert calls == [2048]
        _, calls = _scan([self.TINY], Fraction(1, 10), 5000, 10**6)
        assert calls == [2048, 4096, 6144]

    def test_the_route_with_fewer_candidates_is_taken(self, monkeypatch):
        # sqrt(3) - 1 with i1 = 0: mean index ~0.46, so 21,549 lattice steps for
        # n_max = 10**4, but only 431 near returns at delta = 1/100: counted
        # once against n_max by _joint_returns, then listed again for the walk
        # (a search over one angle nests no gap search)
        seed = PathSeed(0, Decomposition([RotationBlock(quadratic_angle(-1, 1, 1, 3))]))
        asked, deltas = [], []
        tuples_at, walk = jumps._tuples_at, jumps._joint_returns

        def counted(seeds, N, M, delta, rules, first=None):
            asked.append(first)
            return tuples_at(seeds, N, M, delta, rules, first)

        def recorded(angles, mult, last):
            deltas.extend(w for _, _, w in angles)
            return walk(angles, mult, last)

        monkeypatch.setattr(jumps, "_tuples_at", counted)
        monkeypatch.setattr(jumps, "_joint_returns", recorded)
        assert jumps._last_step(seed, 1, 10**4) == 21549
        ts = find_jump_tuples([seed], Fraction(1, 100), 10**4, 10**6)
        assert len(ts) == len(asked) == 431 and None not in asked
        assert deltas.count(Fraction(1, 100)) == 2
        asked.clear()
        ts = find_jump_tuples([self.TINY], Fraction(1, 10), 300, 10**6)
        assert len(asked) == 300 and set(asked) == {None}
        assert [t.N for t in ts] == sorted(2 * list(range(1, 301)))
        # N = 1 and N = 2 hold two tuples each: a limit of 4 stops at N = 2
        asked.clear()
        assert len(find_jump_tuples([self.TINY], Fraction(1, 10), 300, 4)) == len(asked) * 2 == 4

    def test_a_counted_walk_takes_the_pair_walk(self, monkeypatch):
        # the seed above beside a seed with two quadratic angles: its 2,155 near
        # returns at delta = 1/20 are counted only to pick the route; the walk
        # then lists the pair walk's steps, where seed 2's angles pass too
        # (seed 2's first angle alone keeps 532 of the 2,155)
        seeds = [PathSeed(0, Decomposition([RotationBlock(quadratic_angle(-1, 1, 1, 3))])),
                 PathSeed(2, Decomposition([RotationBlock(GOLDEN), RotationBlock(SQRT2M1)]))]
        delta, n_max = Fraction(1, 20), 10**4
        last = jumps._last_step(seeds[0], 1, n_max)
        (_, _, x), = seeds[0].decomp.spectrum_angles()
        counted = len(list(jumps._joint_returns([(x, None, delta)], 2, last)))
        assert 2 * delta * last <= n_max < last and counted == 2155
        asked, paired = [], []
        tuples_at, pair_returns = jumps._tuples_at, jumps._pair_returns

        def counted_tuples_at(seeds, N, M, delta, rules, first=None):
            asked.append(first)
            return tuples_at(seeds, N, M, delta, rules, first)

        def recorded(*args):
            paired.append(args)
            return pair_returns(*args)

        with monkeypatch.context() as mp:
            mp.setattr(jumps, "_tuples_at", counted_tuples_at)
            mp.setattr(jumps, "_pair_returns", recorded)
            got = _scan(seeds, delta, n_max, 10**6)
        assert [t.N for t in got[0]] == [3297, 6594, 7556, 8002]
        assert len(paired) == 1 and 0 < 10 * len(asked) < counted
        _unsieved(monkeypatch)
        assert got == _scan(seeds, delta, n_max, 10**6)

    def test_a_near_return_walk_longer_than_its_estimate_is_not_taken(self, monkeypatch):
        # TINY's angle ~1/2 + 5e-17 beside 1/2 - sqrt(2)/200 (i1 = 0, mean index
        # ~0.0041): 242,145 lattice steps for n_max = 1000, estimated at
        # 2*delta*last ~ 484 near returns, but every one is a near return of
        # TINY's angle, so the estimate is checked and the N-walk taken
        seed = PathSeed(0, Decomposition([
            RotationBlock(quadratic_angle(0, 1, 2 * 10**8, 10**16 + 2)),
            RotationBlock(quadratic_angle(99, 1, 200, 2))]))
        asked, iterates = [], []
        tuples_at, index = jumps._tuples_at, jumps.index_iterate

        def counted(seeds, N, M, delta, rules, first=None):
            asked.append(first)
            return tuples_at(seeds, N, M, delta, rules, first)

        def indexed(seed, m):
            iterates.append(m)
            return index(seed, m)

        monkeypatch.setattr(jumps, "_tuples_at", counted)
        monkeypatch.setattr(jumps, "index_iterate", indexed)
        assert jumps._last_step(seed, 1, 1000) == 242145
        ts = find_jump_tuples([seed], Fraction(1, 1000), 1000, 10**6)
        assert [t.N for t in ts[:3]] == [2, 5, 7] and len(ts) == 483
        assert len(asked) == 1000 and set(asked) == {None}
        assert len(iterates) <= 3 * 1000

    @pytest.mark.parametrize("rng_seed", range(4))
    def test_matches_the_lattice_walk(self, rng_seed):
        rng = random.Random(f"n-walk/{rng_seed}")
        cases = {"n_walk": 0, "tuples": 0, "ties": 0, "one_sided": 0}
        while cases["n_walk"] < 8:
            n = rng.randint(2, 3)
            seeds = []
            while len(seeds) < rng.randint(1, 2):
                seed = random_seed(rng, n, i1_low=-2, i1_high=3, denom_max=6)
                if seed.mean.cmp(Fraction(1, 50)) > 0:
                    seeds.append(seed)
            if all(a.is_rational for s in seeds for _, _, a in s.decomp.spectrum_angles()):
                continue
            delta = rng.choice((Fraction(1, 10), Fraction(1, 100)))
            n_max, limit = rng.choice((60, 300)), rng.randint(1, 4)
            if jumps._last_step(seeds[0], angle_period(seeds), n_max) > 20000:
                continue
            by_n, by_step, last = _both_walks(seeds, delta, n_max, limit)
            assert by_n == by_step
            try:
                assert find_jump_tuples(seeds, delta, n_max, limit) == by_n
            except NoTupleFound:
                assert by_n == []
            cases["n_walk"] += last > n_max
            cases["tuples"] += bool(by_n)
            cases["ties"] += len({t.N for t in by_n}) < len(by_n)
            if by_n:
                # the complement scan of the first tuple, and one that skips it
                comp = _both_walks(seeds, delta, n_max, limit,
                                   required_sides=jumps.flipped_sides(by_n[0]),
                                   exclude={by_n[0].N})
                assert comp[0] == comp[1]
                cases["one_sided"] += bool(comp[0])
        assert cases["tuples"] >= 20, cases

    def test_tiny_mean_index_ties_at_the_limit(self):
        # N = 1 holds two tuples (chi = 0 and 1): a limit of 1 keeps the first
        seed = PathSeed(0, Decomposition([RotationBlock(quadratic_angle(0, 1, 20, 102))]))
        assert jumps._last_step(seed, 1, 40) > 40
        for limit in range(1, 5):
            by_n, by_step, _ = _both_walks([seed], Fraction(1, 10), 40, limit)
            assert by_n == by_step == find_jump_tuples([seed], Fraction(1, 10), 40, limit)
            for exclude in ({1}, {1, 2}):
                by_n, by_step, _ = _both_walks([seed], Fraction(1, 10), 40, limit,
                                               exclude=exclude)
                assert by_n == by_step


@pytest.mark.parametrize("rng_seed", range(4))
def test_randomized_pinched_systems_reverify(rng_seed):
    rng = random.Random(8000 + rng_seed)
    n = rng.randint(2, 4)
    seeds = [pinched_seed(rng, n, allow_irrational=False, denom_max=6)
             for _ in range(rng.randint(1, 2))]
    tuples = find_jump_tuples(seeds, Fraction(1, 100), 10**5, 2)
    for t in tuples:
        verdict = verify_tuple(t, seeds)
        assert verdict.passed and verdict.per_path == t.per_path
        for k, s in enumerate(seeds):
            d = compute_delta(s, t.m[k], t.delta)
            assert index_at_even_jump(s, t.N, d.delta_k) == index_iterate(s, 2 * t.m[k])


def _required_patterns(seeds):
    """Every well-formed required_sides: each low/high pattern, and each
    with None for one seed."""
    counts = [s.decomp.r - s.decomp.r_prime for s in seeds]  # irrational rotations
    full = list(itertools.product(*(itertools.product(("low", "high"), repeat=c)
                                    for c in counts)))
    out = full + [p[:k] + (None,) + p[k + 1:] for p in full for k in range(len(seeds))]
    return list(dict.fromkeys(out))


class TestOneSidedPilotWalk:
    """A scan whose required sides fix the side of an angle of seed 1, or of
    a later seed with a window, lists only the steps where that angle lands
    on that side (each search and each pair walk tests its angles on their
    sides); the tuples, the NoTupleFound and the progress calls are those of
    the walk over every step with no tests."""

    @staticmethod
    def _equivalent(monkeypatch, seeds, delta, n_max, limit):
        """Compare every pattern against the walk over every step; the
        (angle, side) of every folded side test the one-sided scan built
        (each near-return search builds one too)."""
        sides = []
        side_test = QuadraticAngle._side_test

        def recorded(x, mult, p, q, side=None):
            sides.append((x, side))
            return side_test(x, mult, p, q, side)

        for required in _required_patterns(seeds):
            with monkeypatch.context() as mp:
                mp.setattr(QuadraticAngle, "_side_test", recorded)
                got = _scan(seeds, delta, n_max, limit, required_sides=required)
            with monkeypatch.context() as mp:
                _unsieved(mp)
                want = _scan(seeds, delta, n_max, limit, required_sides=required)
            assert got == want, required
        return sides

    @pytest.mark.parametrize("delta", [Fraction(1, 10), Fraction(1, 100)])
    def test_shipped_seeds(self, monkeypatch, shipped_seeds, delta):
        sides = self._equivalent(monkeypatch, shipped_seeds, delta, 10**5, 2)
        # the four full patterns and the two with None for the other seed fix
        # the side of seed 1's pilot, and of seed 2's sieve angle
        for seed in shipped_seeds:
            (_, _, x), = seed.decomp.spectrum_angles()
            assert sorted(s for y, s in sides if y == x and s) == ["high"] * 3 + ["low"] * 3

    @pytest.mark.parametrize("rng_seed", range(6))
    def test_random_quadratic_systems(self, monkeypatch, rng_seed):
        # seed 1 holds a quadratic angle, so the scan walks a pilot's returns
        rng = random.Random(f"one-sided/{rng_seed}")
        one_sided = 0
        for _ in range(4):
            n = rng.randint(2, 4)
            seed1 = pinched_seed(rng, n, allow_irrational=True, denom_max=6)
            while not any(isinstance(a, QuadraticAngle)
                          for _, _, a in seed1.decomp.spectrum_angles()):
                seed1 = pinched_seed(rng, n, allow_irrational=True, denom_max=6)
            seeds = [seed1] + [pinched_seed(rng, n, allow_irrational=True, denom_max=6)
                               for _ in range(rng.randint(0, 1))]
            delta = rng.choice((Fraction(1, 10), Fraction(1, 100)))
            sides = self._equivalent(monkeypatch, seeds, delta, 10**4, 2)
            one_sided += any(side for _, side in sides)
        assert one_sided

    def test_complement_scan_visits_the_pilot_side_only(self, monkeypatch, shipped_seeds):
        # the two-sided walk visits 495 steps of an even N in range, the
        # one-sided pilot 249, and seed 2's one-sided sieve keeps 9 of those
        base = jump_tuples_at(shipped_seeds, 12776, Fraction(1, 100))[0]
        visited = []
        tuples_at = jumps._tuples_at

        def counted(seeds, N, M, delta, rules, first=None):
            visited.append(first[0])
            return tuples_at(seeds, N, M, delta, rules, first)

        monkeypatch.setattr(jumps, "_tuples_at", counted)
        comp, calls = _scan(shipped_seeds, base, n_max=10**6, scan=find_complementary_tuples)
        assert [t.N for t in comp] == [70145] and calls[-1] == 26624
        pilot, = (a for _, _, a in shipped_seeds[0].decomp.spectrum_angles())
        assert len(visited) == 9
        assert {pilot.frac_side(2 * m, base.delta) for m in visited} == {
            jumps.flipped_sides(base)[0][0]}

    def test_free_scan_builds_angle_sides_for_records_only(self, monkeypatch, shipped_seeds):
        built, recorded = [], []
        angle_side, path_record = jumps.AngleSide, jumps._path_record

        def counted_side(*args):
            built.append(args)
            return angle_side(*args)

        def counted_record(seed, k, N, m_k, lattice_m, sides, i_next):
            recorded.extend(sides)
            return path_record(seed, k, N, m_k, lattice_m, sides, i_next)

        monkeypatch.setattr(jumps, "AngleSide", counted_side)
        monkeypatch.setattr(jumps, "_path_record", counted_record)
        ts, _ = _scan(shipped_seeds, Fraction(1, 100), 10**6, 5)
        assert len(ts) == 5
        assert len(built) == len(recorded) == 10


def _sieve_system(rng, decimal=False):
    """1-3 seeds of dimension 2-4 with rational and quadratic angles (and, when
    ``decimal``, some seeds with a decimal angle too), each of positive mean."""
    n = rng.randint(2, 4)
    seeds = []
    while len(seeds) < rng.randint(1, 3):
        seed = (pinched_seed(rng, n, allow_irrational=True, denom_max=6) if rng.random() < 0.6
                else random_seed(rng, n, allow_irrational=True, denom_max=6))
        if decimal and rng.random() < 0.5:
            seed = PathSeed(seed.i1, Decomposition([*seed.decomp.blocks, RotationBlock(COARSE)]))
        if seed.mean.cmp(0) > 0:
            seeds.append(seed)
    return seeds


def _no_quadratic_seed_1(rng, seeds, decimal=False):
    """``seeds`` with seed 1 replaced by a pinched seed of dimension 2-4 with
    rational angles only (when ``decimal``, half the time beside a decimal
    angle too)."""
    seed = pinched_seed(rng, rng.randint(2, 4), allow_irrational=False, denom_max=6)
    if decimal and rng.random() < 0.5:
        seed = PathSeed(seed.i1, Decomposition([*seed.decomp.blocks, RotationBlock(COARSE)]))
    return [seed, *seeds[1:]]


def _every_step(seeds, M, delta, rules, last, stride):
    """_pilot_steps for a reference walk: every step (or j*S), no tests."""
    return range(stride or 1, last + 1, stride or 1), []


def _unsieved(monkeypatch):
    monkeypatch.setattr(jumps, "_pilot_steps", _every_step)


class TestSieve:
    """Before seed 1's index read, a lattice step s is dropped unless seed 1's
    quadratic angles are off "mid" at m_1 = s*M and every later seed with a
    quadratic angle has a joint near return of its quadratic angles in the
    step's window of candidates u = m_k/M; the tuples, NoTupleFound texts
    and progress calls are those of the walk over every step."""

    def test_window_holds_every_candidate(self):
        # u = floor_quotient(N, M) + chi for N read off seed 1's odd index at
        # step s; some u lies on each end, so neither end can move in by one
        touched = set()
        for i in range(40):
            rng = random.Random(f"window/{i}")
            seeds = _sieve_system(rng, decimal=i % 4 == 3)
            M, last = angle_period(seeds), 150
            seed1 = seeds[0]
            for seed in seeds[1:]:
                (a0, b0, c0), (a1, b1, c1) = jumps._window(seed1, seed, M, last)
                assert a0 > 0
                for s in range(1, last + 1):
                    try:
                        N, odd = divmod(index_iterate(seed1, 2 * s * M + 1) - seed1.i1, 2)
                        if odd or N < 1:
                            continue
                        t = seed.mean.floor_quotient(N, M)
                    except UndecidableComparison:
                        continue
                    start, stop = (a0 * s + b0) // c0, (a1 * s + b1) // c1
                    assert start <= t and t + 1 <= stop, (i, s)
                    touched |= {"low"} if t == start else set()
                    touched |= {"high"} if t + 1 == stop else set()
        assert touched == {"low", "high"}

    def test_shipped_window_touches_both_ends(self, shipped_seeds):
        seed1, seed2 = shipped_seeds
        (a0, b0, c0), (a1, b1, c1) = jumps._window(seed1, seed2, 1, 2000)
        ends = set()
        for s in range(1, 2001):
            N, odd = divmod(index_iterate(seed1, 2 * s + 1) - seed1.i1, 2)
            if not odd:
                t = seed2.mean.floor_quotient(N, 1)
                ends.add(((a0 * s + b0) // c0 - t, (a1 * s + b1) // c1 - (t + 1)))
        # the window is [t, t + 1] or one wider, on either side
        assert ends == {(0, 0), (-1, 0), (0, 1)}

    @pytest.mark.parametrize("rng_seed", range(4))
    def test_scan_is_complete(self, monkeypatch, rng_seed):
        # an oracle independent of the walk: every tuple at N = 1 .. n_max
        # whose sides fit the required ones and whose N is not excluded; the
        # last systems have a seed 1 with no quadratic angle, which pairs with
        # the first seed with a window or, beside none, walks every step
        rng = random.Random(f"complete/{rng_seed}")
        routes = collections.Counter()
        pilot_steps = jumps._pilot_steps

        def counted(*args):
            steps, tests = pilot_steps(*args)
            routes["stride" if args[5] else "every step" if isinstance(steps, range)
                   else "sieved"] += 1
            return steps, tests

        monkeypatch.setattr(jumps, "_pilot_steps", counted)
        found = 0
        systems = itertools.chain((_sieve_system(rng) for _ in range(25)), (
            _no_quadratic_seed_1(rng, _sieve_system(rng, decimal=True), decimal=True)
            for _ in range(15)))
        for seeds in systems:
            delta = rng.choice((Fraction(1, 5), Fraction(1, 10), Fraction(1, 20)))
            n_max = rng.randint(60, 200)
            required = rng.choice([None, *_required_patterns(seeds)])
            exclude = set(rng.sample(range(1, n_max + 1), rng.randint(0, 3)))
            want = [t for N in range(1, n_max + 1) if N not in exclude
                    for t in jump_tuples_at(seeds, N, delta)
                    if required is None or all(
                        r is None or pv.irrational_rotation_sides() == tuple(r)
                        for r, pv in zip(required, t.per_path))]
            got, _ = _scan(seeds, delta, n_max, 10**6, required_sides=required, exclude=exclude)
            assert (got or []) == sorted(want, key=JumpTuple.sort_key)
            found += bool(want)
        assert found >= 20 and routes["sieved"] >= 3 and routes["every step"] >= 5, routes

    def test_a_decimal_angle_beside_the_sieve_angle(self, monkeypatch):
        # seed 2's mean holds a decimal angle: its window comes from the stated
        # enclosure, which the read never refuses, and only widens the window;
        # seed 2 is the pair walk's paired seed
        seeds = (SEED_IRR_B, SEED_PILOT_COARSE)
        M, delta = angle_period(seeds), Fraction(1, 10)
        last = jumps._last_step(seeds[0], M, 5000)
        steps, tests = jumps._pilot_steps(seeds, M, delta, (None, None), last, None)
        assert steps.__name__ == "_pair_returns" and tests == []
        got = _scan(seeds, delta, 5000, 3)
        assert [t.N for t in got[0]] == [233, 2660, 2948]
        _unsieved(monkeypatch)
        assert got == _scan(seeds, delta, 5000, 3)

    def test_a_stream_that_cannot_search_is_left_out(self, monkeypatch):
        # seed 1 has no quadratic angle: it pairs with seed 2's stream at
        # delta = 1/100, but at delta <= 2**-800 that stream either has no
        # return by the Liouville bound or would refuse its delta: it is left
        # out, the walk takes every step, and the scan is the walk's
        seeds = (SEED_R3, SEED_IRR_A)
        M = angle_period(seeds)

        def pilot(delta, last):
            steps, tests = jumps._pilot_steps(seeds, M, delta, (None, None), last, None)
            return getattr(steps, "__name__", steps), tests

        assert pilot(Fraction(1, 100), 10**3) == ("_pair_returns", [])
        for delta in (Fraction(1, 2**800), Fraction(1, 2**801)):
            assert pilot(delta, 10**3) == (range(1, 10**3 + 1), [])
        delta, last = Fraction(1, 2**801), 10**300
        with pytest.raises(ValueError, match=r"delta at most 2\*\*-800"):
            next(jumps._joint_returns([(SQRT2M1, None, delta)], 2 * M, last))
        assert pilot(delta, last) == (range(1, last + 1), [])
        got = _scan(seeds, Fraction(1, 2**800), 2000, 1)
        assert got[0] is None
        _unsieved(monkeypatch)
        assert got == _scan(seeds, Fraction(1, 2**800), 2000, 1)

    def test_seed_1_reads_its_index_where_its_quadratic_angles_pass(self, monkeypatch):
        # the walk lists the steps where both quadratic angles of seed 1 pass
        # at m_1 = s*M before it reads i(2*s*M + 1), so neither is "mid"
        # there (M = 3: the records' reads at 2*m_1 - 1 fall elsewhere mod 2M)
        seed1 = PathSeed(3, Decomposition([RotationBlock(SQRT2M1), RotationBlock(GOLDEN),
                                           RotationBlock(rational_angle(1, 3)), N1Block(1, 0)]))
        M, delta, steps = 3, Fraction(1, 10), []

        def counted(seed, m):
            if m % (2 * M) == 1:
                steps.append(m // (2 * M))
            return index_iterate(seed, m)

        monkeypatch.setattr(jumps, "index_iterate", counted)
        got = _scan([seed1], delta, 10**5, 3)
        assert angle_period([seed1]) == M and len(got[0]) == 3
        assert steps and all(x.frac_side(2 * s * M, delta) != "mid" for s in steps
                             for x in (SQRT2M1, GOLDEN))
        read = len(steps)
        _unsieved(monkeypatch)
        assert got == _scan([seed1], delta, 10**5, 3)
        assert len(steps) > 2 * read


_SIDES = (None, "low", "high")


def _passes(angles, mult, g, delta):
    return all(x.frac_side(mult * g, delta) in ((side,) if side else ("low", "high"))
               for x, side in angles)


def _pair_filter(own, paired, mult, delta, window, last, top):
    """_pair_returns' steps by testing every step and every u of its window
    with the public frac_side."""
    (a0, b0, c0), (a1, b1, c1) = window
    return [s for s in range(1, last + 1) if _passes(own, mult, s, delta) and any(
        _passes(paired, mult, u, delta)
        for u in range(max((a0 * s + b0) // c0, 1), min((a1 * s + b1) // c1, top) + 1))]


def _pair_case(rng, x_side, y_side):
    """A random pilot x and paired y (each with 0-1 more quadratic angles on a
    random side), multiplier, delta in [1/300, 1/5], and the window of a
    random pinched seed pair up to a random last, with top its upper end."""
    while True:
        n = rng.randint(2, 4)
        seed1, seed2 = (pinched_seed(rng, n, allow_irrational=True, denom_max=6) for _ in "12")
        M, last = angle_period([seed1, seed2]), rng.randint(1, 300)
        window = jumps._window(seed1, seed2, M, last)
        if window is not None:
            break
    angles = [quadratic_angle(*rng.choice(QUADRATIC_POOL)) for _ in range(4)]
    own = [(angles[0], x_side)] + [(angles[2], rng.choice(_SIDES))] * rng.randint(0, 1)
    paired = [(angles[1], y_side)] + [(angles[3], rng.choice(_SIDES))] * rng.randint(0, 1)
    den = rng.randint(5, 300)
    delta = Fraction(rng.randint(1, den // 5), den)
    top = (window[1][0] * last + window[1][1]) // window[1][2]
    return own, paired, 2 * rng.randint(1, 6), delta, window, last, top


def _pair_system(rng):
    """2-3 seeds of dimension 2-4, seeds 1 and 2 each with a quadratic angle."""
    while True:
        seeds = _sieve_system(rng)
        if len(seeds) > 1 and all(any(isinstance(a, QuadraticAngle)
                                      for _, _, a in seed.decomp.spectrum_angles())
                                  for seed in seeds[:2]):
            return seeds


class TestPairReturns:
    """The pair walk lists the steps where seed 1's quadratic angles pass at
    mult*s and the paired seed's at some u of the window, exactly; a scan
    that takes its steps from it finds what the walk over every step finds."""

    @pytest.mark.parametrize("x_side, y_side", list(itertools.product(_SIDES, _SIDES)))
    def test_matches_a_filter_of_every_step(self, x_side, y_side):
        rng = random.Random(f"pair/{x_side}/{y_side}")
        members = 0
        for _ in range(25):
            case = _pair_case(rng, x_side, y_side)
            want = _pair_filter(*case)
            assert list(jumps._pair_returns(*case)) == want, case
            members += len(want)
        assert members >= 25

    def test_kernel_reads_over_the_filter_cases(self, monkeypatch):
        # 33,109 reads over the 225 cases of test_matches_a_filter_of_every_step,
        # gap searches included: 30,766 side-kernel reads and 2,343 floor reads
        # that find the one-angle gap walks' a and b (35,599 when each gap
        # search over one angle nested searches at doubled widths).  Own's
        # kernels are read once per (member, ds) whatever the group holds,
        # paired's once per u + du
        reads, members = _count_kernel_reads(monkeypatch), 0
        for x_side, y_side in itertools.product(_SIDES, _SIDES):
            rng = random.Random(f"pair/{x_side}/{y_side}")
            for _ in range(25):
                members += len(list(jumps._pair_returns(*_pair_case(rng, x_side, y_side))))
        assert (len(reads), members) == (33109, 744)

    @pytest.mark.parametrize("rng_seed", range(4))
    def test_joint_returns_match_a_filter_of_every_step(self, rng_seed):
        # 1-3 angles, each with its own side and width, as the gap searches
        # of a pair walk mix them
        rng = random.Random(f"joint/{rng_seed}")
        for _ in range(30):
            angles = []
            for _ in range(rng.randint(1, 3)):
                den = rng.randint(3, 80)
                angles.append((quadratic_angle(*rng.choice(QUADRATIC_POOL)), rng.choice(_SIDES),
                               Fraction(rng.randint(1, (den - 1) // 2), den)))
            mult, last = 2 * rng.randint(1, 6), rng.randint(1, 600)
            want = [s for s in range(1, last + 1) if all(
                _passes([(x, side)], mult, s, w) for x, side, w in angles)]
            assert list(jumps._joint_returns(angles, mult, last)) == want, angles

    def test_an_angle_with_no_return_reads_no_kernel(self, monkeypatch, shipped_seeds):
        # ||2g*(sqrt(2) - 1)|| > 1/(1 + 2*10**6*2*2) for every g <= 10**6, as
        # the pilot or as the paired angle; the golden angle's bound is looser
        reads = _count_kernel_reads(monkeypatch)
        calls = _count_frac_side(monkeypatch, 0)
        window = jumps._window(*shipped_seeds, 1, 10**6)
        delta = Fraction(1, 8 * 10**6 + 1)
        assert not jumps._no_return(GOLDEN, 2, 1, 8 * 10**6 + 1, 10**6)
        for x_side, y_side in itertools.product(_SIDES, _SIDES):
            for x, y in ((SQRT2M1, GOLDEN), (GOLDEN, SQRT2M1)):
                assert list(jumps._pair_returns([(x, x_side)], [(y, y_side)], 2, delta,
                                                window, 10**6, 10**6)) == []
        assert reads == calls == []

    @pytest.mark.parametrize("rng_seed", range(3))
    def test_scan_matches_the_sieved_pilot_walk(self, monkeypatch, rng_seed):
        # against the walk over every step, with no tests; in the last
        # systems seed 1 has no quadratic angle, and pairs with no angle of its own
        rng = random.Random(f"pair-scan/{rng_seed}")
        paired = []
        pilot_steps = jumps._pilot_steps

        def counted(*args):
            steps, tests = pilot_steps(*args)
            if getattr(steps, "__name__", None) == "_pair_returns":
                paired.append(bool(jumps._quadratic_angles(args[0][0], None)))
            return steps, tests

        systems = itertools.chain((_pair_system(rng) for _ in range(8)), (
            _no_quadratic_seed_1(rng, _pair_system(rng)) for _ in range(4)))
        for seeds in systems:
            delta = rng.choice((Fraction(1, 7), Fraction(1, 20), Fraction(1, 60)))
            required = rng.choice([None, *_required_patterns(seeds)])
            with monkeypatch.context() as mp:
                mp.setattr(jumps, "_pilot_steps", counted)
                got = _scan(seeds, delta, 20000, 4, required_sides=required)
            with monkeypatch.context() as mp:
                _unsieved(mp)
                assert got == _scan(seeds, delta, 20000, 4, required_sides=required)
        assert paired.count(True) >= 3 and paired.count(False) >= 1, paired


def _count_queries(monkeypatch):
    """The name of every frac_side call on any angle kind and every mean-index
    cmp or floor_quotient from here on."""
    calls = []
    for cls, name in ((QuadraticAngle, "frac_side"), (RationalAngle, "frac_side"),
                      (IrrationalAngle, "frac_side"), (MeanIndex, "cmp"),
                      (MeanIndex, "floor_quotient")):
        def counted(self, *args, _query=getattr(cls, name), _name=f"{cls.__name__}.{name}"):
            calls.append(_name)
            return _query(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return calls


class TestRequiredSides:
    """A required_sides pattern holds one entry per seed, each None or "low"
    or "high" for every irrational rotation angle of that seed; anything
    else raises one ValueError naming the entry, before any angle or
    mean-index query.  The shipped seeds have one irrational rotation each."""

    @pytest.mark.parametrize("required, message", [
        ([("low",)], r"one entry per seed \(2\), got \[\('low',\)\]$"),
        ([("low",), ("high",), ("low",)], r"one entry per seed \(2\)"),
        ([("low", "low"), ("high",)], r"^required_sides\[0\] = \('low', 'low'\): seed 0"),
        ([("low",), ()], r"^required_sides\[1\] = \(\): seed 1"),
        ([("mid",), ("high",)], r"^required_sides\[0\] = \('mid',\): seed 0"),
        ([("low",), ("zero",)], r"^required_sides\[1\] = \('zero',\): seed 1"),
        ([("low",), "high"], r"^required_sides\[1\] = 'high': seed 1"),
    ], ids=["too_short", "too_long", "entry_too_long", "entry_too_short", "mid", "zero",
            "bare_string"])
    def test_malformed_pattern_is_refused_before_any_query(self, monkeypatch, shipped_seeds,
                                                            required, message):
        calls = _count_queries(monkeypatch)
        with pytest.raises(ValueError, match=message):
            find_jump_tuples(shipped_seeds, Fraction(1, 100), 10**5, 1, required_sides=required)
        assert calls == []

    def test_complement_of_a_tuple_that_does_not_fit(self, monkeypatch, shipped_seeds):
        base = jump_tuples_at(shipped_seeds, 12776, Fraction(1, 100))[0]
        pv = base.per_path[0]
        mid_sides = tuple(dataclasses.replace(s, side="mid") for s in pv.angle_sides)
        mid = dataclasses.replace(
            base, per_path=(dataclasses.replace(pv, angle_sides=mid_sides),) + base.per_path[1:])
        assert not mid.passed
        calls = _count_queries(monkeypatch)
        with pytest.raises(ValueError, match=r"^required_sides\[0\] = \('mid',\)"):
            find_complementary_tuples(shipped_seeds, mid, n_max=10**5)
        with pytest.raises(ValueError, match=r"one entry per seed \(1\)"):
            find_complementary_tuples(shipped_seeds[:1], base, n_max=10**5)
        assert calls == []

    def test_rules_are_resolved_once_per_scan(self, monkeypatch, shipped_seeds):
        resolved = []
        side_rules = jumps._side_rules

        def counted(seeds, required_sides):
            resolved.append(required_sides)
            return side_rules(seeds, required_sides)

        monkeypatch.setattr(jumps, "_side_rules", counted)
        ts, _ = _scan(shipped_seeds, Fraction(1, 100), 10**6, 1)
        comp, _ = _scan(shipped_seeds, ts[0], n_max=10**6, scan=find_complementary_tuples)
        assert [t.N for t in ts] == [12776] and [t.N for t in comp] == [70145]
        assert resolved == [None, jumps.flipped_sides(ts[0])] == [None, (("high",), ("low",))]


def _count_work(monkeypatch, seed1_mean):
    """Counts, from here on, of _tuples_at calls, of seed 1's floor_quotient
    inside a _tuples_at call that pins seed 1, of the argument checks
    behind the public angle queries and the scan, of the quadratic
    side-kernel reads and of the index_iterate calls."""
    from symjump import analysis, angles, iteration

    counts, pinned = dict.fromkeys(
        ("tuples_at", "pinned_floor_quotient", "check_multiplier", "check_delta"), 0), []
    reads, index = _count_kernel_reads(monkeypatch), []
    tuples_at, floor_quotient = jumps._tuples_at, MeanIndex.floor_quotient

    def counted_tuples_at(seeds, N, M, delta, rules, first=None):
        counts["tuples_at"] += 1
        pinned.append(first is not None)
        try:
            return tuples_at(seeds, N, M, delta, rules, first)
        finally:
            pinned.pop()

    def counted_floor_quotient(self, num, den):
        counts["pinned_floor_quotient"] += bool(pinned and pinned[-1] and self is seed1_mean)
        return floor_quotient(self, num, den)

    def counter(name, check):
        def counted(*args):
            counts[name] += 1
            return check(*args)
        return counted

    monkeypatch.setattr(jumps, "_tuples_at", counted_tuples_at)
    monkeypatch.setattr(MeanIndex, "floor_quotient", counted_floor_quotient)
    check_multiplier = counter("check_multiplier", angles._check_multiplier)
    check_delta = counter("check_delta", angles._check_delta)
    for module in (angles, jumps):
        monkeypatch.setattr(module, "_check_multiplier", check_multiplier)
        monkeypatch.setattr(module, "_check_delta", check_delta)
    index_iterate = iteration.index_iterate

    def counted_index(seed, m):
        index.append(m)
        return index_iterate(seed, m)

    for module in (iteration, jumps, analysis):
        monkeypatch.setattr(module, "index_iterate", counted_index)
    return counts, reads, index


def _s5x3_seeds():
    """Two seeds on S^5, each with i1 = 4, three quadratic rotations and an
    N1Block(1, 0): sqrt(2) - 1, (sqrt(5) - 1)/2, sqrt(3)/3 for seed 1 and
    sqrt(3) - 1, sqrt(7) - 2, sqrt(6) - 2 for seed 2."""
    return [PathSeed(4, Decomposition([*(RotationBlock(quadratic_angle(*x)) for x in angles),
                                       N1Block(1, 0)]))
            for angles in (((-1, 1, 1, 2), (-1, 1, 2, 5), (0, 1, 3, 3)),
                           ((-1, 1, 1, 3), (-2, 1, 1, 7), (-2, 1, 1, 6)))]


class TestPairWalkWork:
    """The exact work of a pair walk with three quadratic angles on each side,
    in counts, never in time."""

    def test_s5x3_scan(self, monkeypatch):
        # measured on the walk that tested each gap's group on the integer
        # window: 327 steps reach _tuples_at, with 124,667 side-kernel reads
        # and 936 progress calls, for all 22 tuples
        seeds = _s5x3_seeds()
        counts, reads, _ = _count_work(monkeypatch, seeds[0].mean)
        ts, calls = _scan(seeds, Fraction(1, 10), 10**7, 100)
        assert [t.N for t in ts[:3]] == [939758, 1139246, 1553744] and len(ts) == 22
        assert (counts["tuples_at"], len(reads), len(calls)) == (327, 124667, 936)

    def test_s5x3_with_a_later_seed(self, monkeypatch):
        # the third seed tests each pair-walk member by reading the u of its
        # window directly: 502,667 folded side-kernel reads and 306 _side
        # calls, where listing its joint near returns up to the window's top
        # and merging them forward made 1,128,680 folded reads
        seeds = [*_s5x3_seeds(), PathSeed(4, Decomposition([
            *(RotationBlock(quadratic_angle(*x)) for x in ((-1, 1, 2, 6), (3, -1, 2, 3),
                                                          (0, 1, 4, 2))), N1Block(1, 0)]))]
        counts, reads, _ = _count_work(monkeypatch, seeds[0].mean)
        ts, calls = _scan(seeds, Fraction(1, 6), 10**7, 3)
        assert [t.N for t in ts] == [1315013, 4704280, 7041608]
        assert (counts["tuples_at"], len(reads), len(calls)) == (425, 502973, 659)


class TestShippedAnalysisWork:
    """The exact work of one analysis of the shipped scenario (the
    benchmark's s3_analyze op), in counts, never in time.  The pair walk
    visits only the steps where seed 1's angle passes and some u of seed
    2's window passes seed 2's, so 40 steps reach _tuples_at (767 + 249,
    and 3,076 index_iterate calls, without seed 2's window; the pilot walk
    with seed 2's stream made 3,726 side-kernel reads).  Its four near-return
    searches each have one angle, so each is a flat walk: 1,184 kernel
    reads, 58 of them finding the walks' a and b (1,490 when 22 searches
    nested at doubled widths).  A pinned seed 1
    is checked after seed 2, so its floor_quotient runs only where seed 2
    keeps a candidate, and the scan checks its arguments once per scan,
    not per step or search (9,492 multiplier and 3,203 delta checks when
    every query checked).  Each of the 5 compute_delta calls checks delta
    once and each of its iterates once, 7 in all."""

    def test_counts(self, monkeypatch):
        system, options = parse_scenario((ROOT / "scenarios" / "two_seed_s3.json").read_bytes())
        counts, reads, index = _count_work(monkeypatch, system.seeds[0].mean)
        report = run_analysis(system, delta=options.delta, n_max=options.n_max,
                              tuple_limit=max(options.limit, 5))
        assert report.status == "two_elliptic_irrational"
        assert counts == {"tuples_at": 40, "pinned_floor_quotient": 6,
                          "check_multiplier": 7, "check_delta": 7}
        assert (len(reads), len(index)) == (1184, 148)

    def test_argument_checks_do_not_grow_with_the_steps(self, monkeypatch, shipped_seeds):
        seen = []
        for limit in (1, 3, 6):
            with monkeypatch.context() as mp:
                counts, _, _ = _count_work(mp, shipped_seeds[0].mean)
                assert len(find_jump_tuples(shipped_seeds, Fraction(1, 100), 10**6, limit)) == limit
                seen.append(counts)
        assert seen[0]["tuples_at"] < seen[1]["tuples_at"] < seen[2]["tuples_at"]
        assert [(c["check_multiplier"], c["check_delta"]) for c in seen] == [(0, 1)] * 3

    def test_a_pinned_seed_1_goes_last_unless_another_seed_can_refuse(self, monkeypatch,
                                                                      shipped_seeds):
        asked = []
        floor_quotient = MeanIndex.floor_quotient

        def counted(self, num, den):
            asked.append(self)
            return floor_quotient(self, num, den)

        monkeypatch.setattr(MeanIndex, "floor_quotient", counted)
        seed1 = shipped_seeds[0]
        delta = Fraction(1, 100)
        for seeds in (shipped_seeds, (seed1, SEED_PILOT_COARSE)):
            M = angle_period(seeds)
            for s in range(1, 30):
                i_odd = index_iterate(seed1, 2 * s * M + 1)
                N, odd = divmod(i_odd - seed1.i1, 2)
                if odd or N < 1:
                    continue
                asked.clear()
                got = jumps._tuples_at(seeds, N, M, delta, (None, None), (s * M, i_odd))
                assert asked[0] is (seeds[1].mean if seeds[1]._exact else seed1.mean)
                assert got == [t for t in jump_tuples_at(seeds, N, delta) if t.m[0] == s * M]
