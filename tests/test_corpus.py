"""The differential corpus of ``corpus.py`` replays its stored digest.

Every scan of the corpus must give the tuples, the refusal and the progress
calls recorded in ``fixtures/corpus_digest.json``, under ``python`` and, for
every 8th system, under ``python -O``; together the scans take every route
of the scan but the walk over every step (a seed 1 with no quadratic angle
beside no seed with a window, which ``test_jumps.TestSieve`` scans), with
free, fully sided and mixed required sides.  The corpus's first systems
also serve an oracle that checks no scan against itself: their scans under
every other seed order find the same tuples, permuted.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import corpus
from symjump import NoTupleFound, find_jump_tuples, jumps

ROOT = Path(__file__).resolve().parent.parent
DIGEST = ROOT / "tests" / "fixtures" / "corpus_digest.json"


def _digest() -> dict[str, dict]:
    return json.loads(DIGEST.read_bytes())


@pytest.fixture(scope="module")
def replay() -> tuple[dict[str, dict], collections.Counter]:
    """Every record of the corpus, and how many of its scans took each route:
    the lattice walk's steps from _pilot_steps ("stride", "every step",
    "joint" or "pair"), "counted" when its step bound passed n_max, and the
    N-walk."""
    routes = collections.Counter()
    pilot_steps, walk_steps, walk_n = jumps._pilot_steps, jumps._walk_steps, jumps._walk_n
    names = {"_joint_returns": "joint", "_pair_returns": "pair"}

    def spied_pilot_steps(seeds, M, delta, rules, last, stride):
        steps, tests = pilot_steps(seeds, M, delta, rules, last, stride)
        routes["stride" if stride is not None else
               "every step" if isinstance(steps, range) else names[steps.__name__]] += 1
        return steps, tests

    def spied_walk_steps(*args):
        n_max, stride, last = args[4], args[8], args[9]
        routes["counted"] += stride is None and last > n_max
        return walk_steps(*args)

    def spied_walk_n(*args):
        routes["N-walk"] += 1
        return walk_n(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jumps, "_pilot_steps", spied_pilot_steps)
        mp.setattr(jumps, "_walk_steps", spied_walk_steps)
        mp.setattr(jumps, "_walk_n", spied_walk_n)
        return corpus.records(), routes


def test_the_digest_covers_tuples_refusals_and_complements():
    want = _digest()
    free = [v for k, v in want.items() if k.count("/") == 2]
    assert len(free) == (corpus.SYSTEMS + corpus.SINGLES + corpus.LOW_MEANS) * len(corpus.DELTAS)
    assert sum(bool(v.get("N")) for v in free) >= 150
    assert sum(v.get("error") == "NoTupleFound" for v in free) >= 150
    assert sum("complement" in k for k in want) >= 300
    # the mixed scans: one per pattern for each of the first systems with a tuple
    mixed = [k.split("/")[3].rsplit("-of-", 1)[0] for k in want if "flip-" in k]
    assert collections.Counter(mixed) == {"flip-seed-1": 23, "flip-later-seeds": 23}
    assert len(want) == len(free) + sum("complement" in k for k in want) + len(mixed)


def test_every_scan_matches_the_digest(replay):
    want, got = _digest(), replay[0]
    assert [k for k in want.keys() | got.keys() if got.get(k) != want.get(k)] == []


def test_every_route_runs(replay):
    # a seed 1 with no quadratic angle pairs with the first seed with a
    # window: no scan here walks every step
    assert replay[1] == {"stride": 92, "joint": 477, "pair": 791, "counted": 232, "N-walk": 7}


def test_a_subset_matches_under_optimize():
    # -O strips assert statements; no scan may rest on one
    r = subprocess.run([sys.executable, "-O", str(ROOT / "tests" / "corpus.py"), "--every", "8"],
                       capture_output=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                       timeout=300)
    assert r.returncode == 0, r.stderr
    want = {k: v for k, v in _digest().items() if int(k.split("/")[0]) % 8 == 0}
    assert want and json.loads(r.stdout) == want


def _tuple_set(seeds, delta) -> set:
    """(N, m, chi) of every tuple a scan to n_max = 4000 finds, with no limit."""
    try:
        return {(t.N, t.m, t.chi) for t in find_jump_tuples(seeds, delta, 4000, 10**6)}
    except NoTupleFound:
        return set()


def test_permuted_seeds_permute_each_tuple():
    # The tuple conditions are symmetric in the seeds, so the seeds in another
    # order hold the same N with m and chi permuted.  Only seed 1 pilots the
    # walk, so each order runs another pilot, pair and set of window tests.
    found = scans = 0
    for seeds in corpus.systems()[:60]:
        for delta in (Fraction(1, 7), Fraction(1, 20)):
            want = _tuple_set(seeds, delta)
            found += bool(want)
            for order in list(itertools.permutations(range(len(seeds))))[1:]:
                assert _tuple_set([seeds[k] for k in order], delta) == {
                    (N, tuple(m[k] for k in order), tuple(chi[k] for k in order))
                    for N, m, chi in want}
                scans += 1
    assert (scans, found) == (352, 60)
