"""Jump tuples: scan oracle, verification, near-integer counts, complements."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symjump import (ConstraintViolation, Decomposition, N1Block, N2Block,
                     NoTupleFound, JumpTuple, PathSeed, RotationBlock,
                     UndecidableComparison,
                     angle_period, compute_delta, find_complementary_tuples,
                     find_jump_tuples, index_at_even_jump, index_iterate,
                     jump_tuples_at, mean_index, nullity_iterate, quadratic_angle,
                     rational_angle, verify_tuple)
from symjump import jumps
from symjump.angles import QuadraticAngle, decimal_angle
from symjump.jumps import near_returns
from symjump.scenario import parse_scenario
from symjump.normal_forms import c_total, elliptic_height, splitting_plus_at_one

from conftest import pinched_seed, quadratics

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

GOLDEN = quadratic_angle(-1, 1, 2, 5)
SQRT2M1 = quadratic_angle(-1, 1, 1, 2)

SEED_R3 = PathSeed(2, 1, 0, Decomposition([RotationBlock(rational_angle(1, 3))]))
SEED_R4 = PathSeed(2, 1, 0, Decomposition([RotationBlock(rational_angle(1, 4))]))
SEED_I2 = PathSeed(2, 1, 2, Decomposition([N1Block(1, 0)]))
SEED_IRR_A = PathSeed(3, 2, 2, Decomposition([RotationBlock(SQRT2M1), N1Block(1, 0)]))
SEED_IRR_B = PathSeed(3, 2, 2, Decomposition([RotationBlock(GOLDEN), N1Block(1, 0)]))
# a quadratic N2 angle beside a rational rotation: the lattice period M is 3
SEED_N2_R3 = PathSeed(4, 2, 0, Decomposition([N2Block(GOLDEN, False),
                                              RotationBlock(rational_angle(1, 3))]))
# a quadratic pilot beside a decimal angle that some lattice steps
# cannot decide
COARSE = decimal_angle("0.6180339887", "1e-7")
SEED_PILOT_COARSE = PathSeed(4, 2, 2, Decomposition([RotationBlock(SQRT2M1),
                                                     RotationBlock(COARSE),
                                                     N1Block(1, 0)]))


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
        assert angle_period([PathSeed(2, 1, 0, Decomposition([RotationBlock(GOLDEN)]))]) == 1

    def test_single_sixth(self):
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(rational_angle(1, 6))]))
        assert angle_period([s]) == 3

    def test_counts_n2_angles(self):
        s = PathSeed(3, 1, 0, Decomposition([N2Block(rational_angle(1, 5), True)]))
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
        assert not {707, 1535} & set(near_returns(SQRT2M1, 2, delta, 1535))
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
        s = PathSeed(3, 2, 0, Decomposition([N2Block(GOLDEN, False)]))
        t = find_jump_tuples([s], Fraction(1, 50), 10**5, 1)[0]
        d = compute_delta(s, t.m[0], t.delta)
        assert d.delta_k == 1  # exactly one of the conjugate pair is near-integer
        assert d.delta_k + d.delta_k_prime == 2

    def test_non_complementary_pair_rejected(self):
        seeds = [SEED_IRR_A]
        first = find_jump_tuples(seeds, Fraction(1, 50), 10**5, 2)
        same_side = [t for t in first if t.per_path[0].irrational_rotation_sides()
                     == first[0].per_path[0].irrational_rotation_sides()]
        if len(same_side) >= 2:
            with pytest.raises(ConstraintViolation, match="complementary"):
                compute_delta(SEED_IRR_A, same_side[0].m[0], Fraction(1, 50),
                              complement_m=same_side[1].m[0])

    def test_even_jump_closed_form_examples(self):
        # rational-only: 2N - S+ - C
        t = find_jump_tuples([SEED_I2], Fraction(1, 100), 100, 1)[0]
        assert index_at_even_jump(SEED_I2, t.N, 0) == 2 * t.N - 1
        assert index_at_even_jump(SEED_I2, t.N, 0) == index_iterate(SEED_I2, 2 * t.m[0])


class TestScanControls:
    def test_no_tuple_found_is_bounds_diagnostic(self):
        with pytest.raises(NoTupleFound, match="n_max"):
            find_jump_tuples([SEED_R3], Fraction(1, 100), 1, 1)

    def test_mean_index_precondition(self):
        s = PathSeed(2, 0, 0, Decomposition([RotationBlock(rational_angle(1, 3))]))
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
        seed = PathSeed(2, 0, 0, Decomposition([RotationBlock(x)]))

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
                "seed = PathSeed(3, 2, 2, Decomposition([RotationBlock(x), N1Block(1, 0)]))\n"
                "try:\n"
                "    find_jump_tuples([seed], Fraction(1, 10**900), 2000, 1)\n"
                "except NoTupleFound:\n"
                "    print('no tuple')\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
        assert r.returncode == 0, r.stderr
        assert r.stdout == b"no tuple\n"


class TestNearReturns:
    @settings(max_examples=150, deadline=None)
    @given(coeffs=quadratics(), M=st.integers(1, 12),
           delta=st.tuples(st.integers(1, 60), st.integers(3, 400)).filter(
               lambda t: 2 * t[0] < t[1]).map(lambda t: Fraction(*t)),
           last=st.integers(-2, 1500))
    def test_matches_brute_force(self, coeffs, M, delta, last):
        x = quadratic_angle(*coeffs)
        want = [s for s in range(1, last + 1) if x.frac_side(2 * M * s, delta) != "mid"]
        assert list(near_returns(x, 2 * M, delta, last)) == want

    def test_rejects_delta_outside_domain(self):
        with pytest.raises(ValueError, match="delta"):
            next(near_returns(GOLDEN, 2, Fraction(1, 2), 10))

    def test_tiny_delta_searches_from_the_convergents(self, monkeypatch):
        # no gap below 10**6 comes within 2*delta of an integer; only the
        # convergent denominators of 2x below it are tested to show that
        calls = []
        frac_side = QuadraticAngle.frac_side

        def counted(self, m, delta):
            calls.append(m)
            if len(calls) >= 200:
                raise AssertionError("near_returns tests gap after gap")
            return frac_side(self, m, delta)

        monkeypatch.setattr(QuadraticAngle, "frac_side", counted)
        assert list(near_returns(SQRT2M1, 2, Fraction(1, 10**999), 10**6)) == []


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
    """The scan visits no lattice step past the last one whose N can be at
    most n_max, or at most the limit-th smallest N found, and stops there;
    progress is still reported at every chunk end (2048 lattice steps) up to
    the first one past that step."""

    def test_stops_at_the_step_of_the_limit_th_tuple(self, monkeypatch):
        # every lattice step s of SEED_R3 is a tuple, N = 2s at m = 3s
        M = angle_period([SEED_R3])
        odd_steps = []

        def counted(seed, m):
            if seed is SEED_R3 and m % (2 * M) == 1:
                odd_steps.append(m // (2 * M))
            return index_iterate(seed, m)

        monkeypatch.setattr(jumps, "index_iterate", counted)
        ts, calls = _scan([SEED_R3], Fraction(1, 100), 10**5, 3)
        assert [t.N for t in ts] == [2, 4, 6]
        # the largest s with ((2sM + 1)*mean - slack - i1)/2 <= 6, slack = 3
        last = ((2 * 6 + 3 + SEED_R3.i1) / mean_index(SEED_R3).exact() - 1) // (2 * M)
        assert odd_steps == list(range(1, last + 1)) == [1, 2, 3]
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
