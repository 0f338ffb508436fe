"""Acceptance criteria.

Each test prints one PASS line (run with -s to see them inline).  The
criteria are property- and oracle-based: every expected value is either
computed by an independent in-test oracle or certified exact arithmetic.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from symjump import (ConstraintViolation, Decomposition, GeodesicSystem,
                     HyperbolicBlock, N1Block, N2Block, PathSeed,
                     RotationBlock, betti_constant, compute_delta,
                     derive_peak_constraints, elliptic_height,
                     find_complementary_tuples, find_jump_tuples,
                     find_peak_geodesic, index_at_even_jump, index_iterate,
                     mean_index, nullity_at_even_jump, nullity_iterate,
                     quadratic_angle, rational_angle, realize, verify_tuple)

from conftest import angle_lcm, random_seed

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _report(k: int, elapsed: float, detail: str) -> None:
    print(f"\nACCEPTANCE {k}: PASS ({elapsed:.1f}s) {detail}")


# -- criterion 1: first-iterate consistency ----------------------------------


def test_criterion_1_first_iterate_consistency():
    t0 = time.monotonic()
    rng = random.Random(11)
    for _ in range(1000):
        s = random_seed(rng, rng.randint(2, 6))
        assert index_iterate(s, 1) == s.i1
        assert nullity_iterate(s, 1) == s.nu1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(1, elapsed, "index/nullity at m=1 reproduce seed data on 1000 seeds")


# -- criterion 2: nullity against matrix kernels ------------------------------


def _analytic_kernel_dim(decomp: Decomposition, m: int) -> int:
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


def test_criterion_2_nullity_matrix_oracle():
    t0 = time.monotonic()
    rng = random.Random(22)
    seeds = []
    while len(seeds) < 200:
        s = random_seed(rng, rng.randint(2, 6), allow_irrational=False)
        if angle_lcm(s.decomp) <= 60:
            seeds.append(s)
    for s in seeds:
        for m in range(1, 4 * angle_lcm(s.decomp) + 1):
            assert nullity_iterate(s, m) == _analytic_kernel_dim(s.decomp, m)
    checked = 0
    for s in seeds:
        if s.decomp.h or angle_lcm(s.decomp) > 24 or checked >= 50:
            continue
        M = np.asarray(realize(s.decomp))
        power = np.eye(M.shape[0])
        for m in range(1, 4 * angle_lcm(s.decomp) + 1):
            power = power @ M
            sv = np.linalg.svd(power - np.eye(M.shape[0]), compute_uv=False)
            assert int(np.sum(sv < 1e-8)) == nullity_iterate(s, m)
        checked += 1
    assert checked == 50
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(2, elapsed, "200 seeds vs analytic kernels, 50 vs SVD kernels")


# -- criterion 3: iterate index gap bound -------------------------------------


def test_criterion_3_index_gap_bound():
    t0 = time.monotonic()
    rng = random.Random(33)
    for _ in range(200):
        n = rng.randint(2, 6)
        s = random_seed(rng, n=n, i1_low=n - 1, i1_high=n + 3)
        floor_bound = s.i1 - elliptic_height(s.decomp) // 2
        indices = [index_iterate(s, m) for m in range(1, 202)]
        nullities = [nullity_iterate(s, m) for m in range(1, 201)]
        for m in range(1, 201):
            assert indices[m] - indices[m - 1] - nullities[m - 1] >= floor_bound
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(3, elapsed, "gap >= i1 - e/2 on 200 seeds, m <= 200")


# -- criterion 4: mean index convergence rate ---------------------------------


def test_criterion_4_mean_index_convergence():
    t0 = time.monotonic()
    rng = random.Random(44)
    for _ in range(100):
        s = random_seed(rng, rng.randint(2, 6))
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
    elapsed = time.monotonic() - t0
    assert elapsed < 20.0
    _report(4, elapsed, "|i(m)/m - mean| within stated envelope on 100 seeds")


# -- criteria 5 and 6: jump tuples and dual-path identities -------------------


def _seed(n, i1, blocks):
    d = Decomposition(blocks)
    return PathSeed(i1, d)


def _r(p, q):
    return RotationBlock(rational_angle(p, q))


SQRT2M1 = quadratic_angle(-1, 1, 1, 2)
GOLDEN = quadratic_angle(-1, 1, 2, 5)
SQRT3M1 = quadratic_angle(-1, 1, 1, 3)

D = Fraction(1, 100)


def _twenty_systems():
    out = [
        ("S1", [_seed(2, 2, [_r(1, 3)])], D),
        ("S2", [_seed(2, 1, [N1Block(1, 0)])], D),
        ("S3", [_seed(3, 2, [_r(1, 4), N1Block(1, 0)])], D),
        ("S4", [_seed(4, 5, [_r(1, 3), _r(1, 6), N1Block(-1, 0)])], D),
        ("S5", [_seed(3, 3, [N2Block(rational_angle(1, 3), True)])], D),
        ("S6", [_seed(3, 3, [_r(2, 3), HyperbolicBlock()])], D),
        ("S7", [_seed(2, 2, [_r(1, 3)]), _seed(2, 2, [_r(1, 4)])], D),
        ("S8", [_seed(3, 2, [N1Block(1, 0), N1Block(1, 0)]),
                _seed(3, 3, [_r(1, 6), _r(2, 3)])], D),
        ("S9", [_seed(2, 2, [_r(1, 3)]), _seed(2, 2, [_r(1, 4)]),
                _seed(2, 1, [N1Block(1, 0)])], D),
        ("S10", [_seed(3, 2, [_r(1, 4), N1Block(1, 0)]),
                 _seed(3, 3, [N2Block(rational_angle(1, 3), True)]),
                 _seed(3, 2, [_r(2, 3), N1Block(1, 1)])], D),
        ("S11", [_seed(4, 3, [_r(1, 3), _r(1, 4), N1Block(1, 0)]),
                 _seed(4, 4, [N1Block(1, -1), HyperbolicBlock(), _r(5, 6)])], D),
        ("S12", [_seed(5, 4, [_r(1, 3), N1Block(1, 0),
                              N2Block(rational_angle(1, 4), False)])], D),
        ("S13", [_seed(6, 6, [_r(1, 6), _r(1, 4), N1Block(-1, 1),
                              HyperbolicBlock(), N1Block(1, 0)])], D),
        ("S14", [_seed(2, 2, [N1Block(-1, -1)]), _seed(2, 2, [_r(5, 6)])], D),
        ("S15", [_seed(2, 2, [RotationBlock(SQRT2M1)])], Fraction(1, 40)),
        ("S16", [_seed(3, 2, [RotationBlock(GOLDEN), N1Block(1, 0)]),
                 _seed(3, 2, [_r(1, 3), N1Block(1, 0)])], Fraction(1, 40)),
        ("S17", [_seed(2, 2, [RotationBlock(SQRT2M1)]), _seed(2, 2, [_r(1, 4)])],
         Fraction(1, 40)),
        ("S18", [_seed(3, 2, [RotationBlock(SQRT2M1), N1Block(1, 0)]),
                 _seed(3, 2, [RotationBlock(GOLDEN), N1Block(1, 0)])],
         Fraction(1, 25)),
        ("S19", [_seed(3, 2, [RotationBlock(GOLDEN), N1Block(1, 0)]),
                 _seed(3, 2, [_r(1, 3), N1Block(1, 0)]),
                 _seed(3, 2, [N1Block(1, 0), N1Block(1, 0)])], Fraction(1, 25)),
        ("S20", [_seed(4, 3, [RotationBlock(GOLDEN), _r(1, 3), N1Block(1, 0)]),
                 _seed(4, 3, [RotationBlock(SQRT3M1), N1Block(1, 1),
                              N1Block(1, 0)])], Fraction(1, 25)),
    ]
    assert len(out) == 20
    return out


@pytest.fixture(scope="module")
def jump_corpus():
    systems = _twenty_systems()
    t0 = time.monotonic()
    results = []
    for name, seeds, delta in systems:
        for s in seeds:
            assert mean_index(s).cmp(Fraction(s.n - 1)) > 0, name
        tuples = find_jump_tuples(seeds, delta, 10**6, 3)
        assert len(tuples) == 3, name
        for t in tuples:
            assert t.N <= 10**6
            assert verify_tuple(t, seeds).passed, (name, t.N)
        results.append((name, seeds, delta, tuples))
    return results, time.monotonic() - t0


def test_criterion_5_jump_tuples(jump_corpus):
    results, elapsed = jump_corpus
    assert len(results) == 20
    assert elapsed < 120.0
    total = sum(len(tuples) for _, _, _, tuples in results)
    _report(5, elapsed, f"{total} tuples over 20 systems, all independently re-verified")


def test_scan_and_verify_tuple_build_identical_records(jump_corpus):
    results, _ = jump_corpus
    for name, seeds, _, tuples in results:
        for t in tuples:
            assert verify_tuple(t, seeds).per_path == t.per_path, (name, t.N)


def test_criterion_6_dual_path_identities(jump_corpus):
    results, _ = jump_corpus
    t0 = time.monotonic()
    for name, seeds, delta, tuples in results:
        for t in tuples:
            for k, s in enumerate(seeds):
                d = compute_delta(s, t.m[k], t.delta)
                assert index_at_even_jump(s, t.N, d.delta_k) == \
                    index_iterate(s, 2 * t.m[k]), name
                assert nullity_at_even_jump(s) == nullity_iterate(s, 2 * t.m[k]), name
                dc = s.decomp
                assert d.delta_k <= (dc.r - dc.r_prime) + (dc.r_star - dc.r_star_prime)
        first = tuples[0]
        second = find_complementary_tuples(seeds, first, n_max=10**6)[0]
        for k, s in enumerate(seeds):
            d = compute_delta(s, first.m[k], first.delta, complement_m=second.m[k])
            dc = s.decomp
            assert d.delta_k + d.delta_k_prime == \
                (dc.r - dc.r_prime) + 2 * (dc.r_star - dc.r_star_prime), name
    _report(6, time.monotonic() - t0,
            "even-jump index/nullity closed forms and complement identities")


# -- criterion 7: peak constraint algebra -------------------------------------


def _twenty_peak_fixtures():
    ra = rational_angle
    fixtures = [
        (_seed(2, 1, [RotationBlock(GOLDEN)]), Fraction(1, 40)),
        (_seed(2, 1, [RotationBlock(SQRT2M1)]), Fraction(1, 40)),
        (_seed(2, 2, [N1Block(1, 0)]), D),
        (_seed(2, 2, [_r(1, 3)]), D),
        (_seed(2, 2, [N1Block(1, -1)]), D),
        (_seed(3, 2, [RotationBlock(GOLDEN), N1Block(1, 0)]), Fraction(1, 40)),
        (_seed(3, 2, [RotationBlock(SQRT2M1), _r(1, 4)]), Fraction(1, 40)),
        (_seed(3, 2, [RotationBlock(GOLDEN), RotationBlock(SQRT2M1)]), Fraction(1, 25)),
        (_seed(3, 2, [_r(1, 3), _r(1, 4)]), D),
        (_seed(3, 3, [N1Block(1, 0), N1Block(-1, 0)]), D),
        (_seed(3, 3, [N2Block(ra(1, 3), True)]), D),
        (_seed(3, 2, [N1Block(1, 0), N1Block(-1, 1)]), D),
        (_seed(4, 3, [RotationBlock(GOLDEN), _r(1, 3), N1Block(1, 0)]), Fraction(1, 25)),
        (_seed(4, 3, [RotationBlock(SQRT3M1), N1Block(1, 0), N1Block(1, 0)]), Fraction(1, 40)),
        (_seed(4, 4, [_r(1, 6), _r(2, 3), N1Block(-1, 0)]), D),
        (_seed(5, 4, [N2Block(ra(1, 4), True), _r(1, 3), N1Block(1, -1)]), D),
        (_seed(5, 4, [RotationBlock(GOLDEN), _r(1, 4), N1Block(1, 0), N1Block(1, 0)]),
         Fraction(1, 40)),
        (_seed(6, 5, [N2Block(ra(1, 6), True), N1Block(1, 0), N1Block(-1, 0), _r(3, 4)]), D),
        (_seed(6, 5, [RotationBlock(SQRT2M1), RotationBlock(GOLDEN), _r(1, 3),
                      N1Block(1, 0), N1Block(1, -1)]), Fraction(1, 25)),
        (_seed(6, 6, [_r(1, 4), _r(1, 6), _r(2, 3), N1Block(1, 0), N1Block(-1, 1)]), D),
    ]
    assert len(fixtures) == 20
    return fixtures


def test_criterion_7_peak_constraint_algebra():
    t0 = time.monotonic()
    for seed, delta in _twenty_peak_fixtures():
        dc = seed.decomp
        irr = dc.r - dc.r_prime
        t = find_jump_tuples([seed], delta, 10**6, 1,
                             required_sides=[("low",) * irr])[0]
        system = GeodesicSystem(seed.n, Fraction(1), (seed,), False)
        assert find_peak_geodesic(system, t) == [0]
        d = compute_delta(seed, t.m[0], t.delta)
        rec = derive_peak_constraints(seed, d)
        assert [z.value for z in rec.zero_set] == [0] * 6
        assert rec.elliptic and rec.elliptic_height == 2 * (seed.n - 1)
        assert rec.irrational_rotation_count == irr == d.delta_k

    # mutation fixtures: inject a hyperbolic block / a negative shear at -1
    base = _seed(3, 2, [RotationBlock(GOLDEN), N1Block(1, 0)])
    t = find_jump_tuples([base], Fraction(1, 40), 10**6, 1,
                         required_sides=[("low",)])[0]
    for mutant in (_seed(3, 2, [RotationBlock(GOLDEN), HyperbolicBlock()]),
                   _seed(3, 2, [RotationBlock(GOLDEN), N1Block(-1, -1)])):
        d = compute_delta(mutant, t.m[0], t.delta)
        with pytest.raises(ConstraintViolation):
            derive_peak_constraints(mutant, d)
    elapsed = time.monotonic() - t0
    _report(7, elapsed, "20 peak fixtures all-zero; mutants raise ConstraintViolation")


# -- criterion 8: alternating-sum constant -------------------------------------


def test_criterion_8_betti_constant():
    t0 = time.monotonic()
    assert betti_constant(2) == Fraction(-1)
    assert betti_constant(3) == Fraction(1)
    assert betti_constant(4) == Fraction(-2, 3)
    assert betti_constant(5) == Fraction(3, 4)
    for n in range(2, 13):
        expected = Fraction(-n, n - 1) if n % 2 == 0 else Fraction(n + 1, n - 1)
        assert 2 * betti_constant(n) == expected
    _report(8, time.monotonic() - t0, "constants match both closed forms for n <= 12")


# -- criterion 9: end-to-end analyze -------------------------------------------


def test_criterion_9_end_to_end_analyze(tmp_path):
    t0 = time.monotonic()
    scenario = {
        "version": 1,
        "system": {"n": 3, "lambda": [9, 8], "pinching_asserted": True},
        "seeds": [
            {"i1": 2, "nu1": 2, "blocks": [{"r": {"quadratic": [-1, 1, 1, 2]}},
                                           {"n1": [1, 0]}]},
            {"i1": 2, "nu1": 2, "blocks": [{"r": {"quadratic": [-1, 1, 2, 5]}},
                                           {"n1": [1, 0]}]},
        ],
        "options": {"delta": [1, 100], "n_max": 1000000},
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(scenario))
    import os
    proc = subprocess.run(
        [sys.executable, "-m", "symjump.cli", "--format", "machine",
         "analyze", "--system", str(path)],
        capture_output=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(proc.stdout)
    assert doc["status"] == "two_elliptic_irrational"
    for cand in (doc["first"], doc["second"]):
        assert cand["constraints"]["elliptic"]
        assert cand["constraints"]["irrational_rotation_count"] >= 1
    assert doc["first"]["seed_index"] != doc["second"]["seed_index"]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(9, elapsed, "analyze exits 0 with two elliptic irrational geodesics")
