"""A differential corpus of jump scans, replayed against a stored digest.

``systems()`` draws 120 systems of 2-3 seeds from one seeded
``random.Random``; most of their spectrum angles are quadratic rotations.
``low_systems()`` draws 40 more from a second one, numbered on from 120:
20 single seeds of 2-3 quadratic rotations, and 20 seeds with i1 = 0 and
one quadratic rotation, of mean index below 1, alone or beside a later
seed, whose scans take the counted near-return route or the N-walk.
Each system is scanned at four deltas, and each scan that finds tuples is
followed by the complementary scans of its first two.  The first 40
systems at delta = 1/20 that find a tuple are then scanned twice more,
with the sides of the first tuple flipped for seed 1 only ("flip-seed-1")
and for every later seed only ("flip-later-seeds"), the other seeds'
sides free; their records follow all the others.  A scan's record is
its outcome (the tuples' N, or the exception's type), its count of
progress calls and the first 16 hex digits of the sha256 of its
``--format machine`` bytes, or of the exception's text, followed by its
progress calls.  ``corpus_digest.json`` holds the records of the version
that made it; a change that keeps every record keeps the tuples, the
refusals and the progress of every scan here.

    PYTHONPATH=src python tests/corpus.py > tests/fixtures/corpus_digest.json
    PYTHONPATH=src python tests/corpus.py --every 8    # every 8th system only

Regenerating the digest is a behaviour change: name it, with the count of
records that changed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction

from symjump import (Decomposition, N1Block, N2Block, PathSeed, RotationBlock, SymjumpError,
                     find_complementary_tuples, find_jump_tuples, quadratic_angle,
                     rational_angle)
from symjump.jumps import flipped_sides
from symjump.scenario import emit_report

SYSTEMS = 120
SINGLES = 20
LOW_MEANS = 20
DELTAS = (Fraction(1, 7), Fraction(1, 20), Fraction(1, 60), Fraction(1, 200))
N_MAX = 20000
LIMIT = 3
MIXED_SYSTEMS, MIXED_DELTA = 40, Fraction(1, 20)  # the systems and delta of the mixed scans
# (a, b, c, d) meaning (a + b*sqrt(d))/c in (0, 1)
QUADRATIC = [(-1, 1, 1, 2), (-1, 1, 2, 5), (-1, 1, 1, 3), (-2, 1, 1, 7), (0, 1, 3, 3),
             (0, 1, 4, 2), (5, -1, 4, 5), (-1, 1, 2, 6), (-2, 1, 1, 6), (3, -1, 2, 3)]


def _angle(rng: random.Random):
    if rng.random() < 0.8:
        return quadratic_angle(*rng.choice(QUADRATIC))
    while True:
        q = rng.randint(3, 6)
        p = rng.randint(1, q - 1)
        if 2 * p != q:  # 1/2 is the -I2 normal form, not a rotation
            return rational_angle(p, q)


def _seed(rng: random.Random, n: int) -> PathSeed:
    """n - 1 units of blocks, mostly rotations, with i1 in n - 1 .. n + 2 and
    a positive mean index."""
    while True:
        blocks, units = [], n - 1
        while units:
            roll = rng.random()
            if roll < 0.7:
                blocks.append(RotationBlock(_angle(rng)))
                units -= 1
            elif roll < 0.8 and units >= 2:
                blocks.append(N2Block(_angle(rng), rng.random() < 0.5))
                units -= 2
            else:
                blocks.append(N1Block(rng.choice((1, -1)), rng.choice((1, 0, -1))))
                units -= 1
        seed = PathSeed(rng.randint(n - 1, n + 2), Decomposition(blocks))
        if seed.mean.cmp(0) > 0:
            return seed


def systems() -> list[tuple[PathSeed, ...]]:
    rng = random.Random("symjump corpus v1")
    out = []
    for _ in range(SYSTEMS):
        n = rng.randint(2, 4)
        out.append(tuple(_seed(rng, n) for _ in range(rng.randint(2, 3))))
    return out


def low_systems() -> list[tuple[PathSeed, ...]]:
    rng = random.Random("symjump corpus v2: single seeds and low means")
    out = []
    for _ in range(SINGLES):
        n = rng.randint(3, 4)
        blocks = [RotationBlock(quadratic_angle(*rng.choice(QUADRATIC))) for _ in range(n - 1)]
        out.append((PathSeed(rng.randint(n - 1, n + 2), Decomposition(blocks)),))
    for _ in range(LOW_MEANS):
        while True:  # mean 2*x - 1, positive for x > 1/2
            x = quadratic_angle(*rng.choice(QUADRATIC))
            seed = PathSeed(0, Decomposition([RotationBlock(x)]))
            if seed.mean.cmp(0) > 0:
                break
        out.append((seed, _seed(rng, 2)) if rng.random() < 0.5 else (seed,))
    return out


def _record(scan) -> tuple[dict, list]:
    """The record of one scan, ``scan(progress)``, and the tuples it found."""
    calls, tuples = [], []
    try:
        tuples = scan(lambda done, n_max: calls.append((done, n_max)))
    except (SymjumpError, ValueError) as e:
        outcome, data = {"error": type(e).__name__}, f"{type(e).__name__}: {e}".encode()
    else:
        outcome, data = {"N": [t.N for t in tuples]}, emit_report(tuples, "machine")
    digest = hashlib.sha256(data + json.dumps(calls).encode()).hexdigest()[:16]
    return {**outcome, "progress": len(calls), "sha256": digest}, tuples


def records(every: int = 1) -> dict[str, dict]:
    """The record of every scan of every ``every``-th system, by key."""
    out, mixed = {}, []
    for i, seeds in enumerate(systems() + low_systems()):
        if i % every:
            continue
        for delta in DELTAS:
            key = f"{i}/{delta}"
            out[key], found = _record(lambda progress: find_jump_tuples(
                seeds, delta, N_MAX, LIMIT, progress=progress))
            if i < MIXED_SYSTEMS and delta == MIXED_DELTA and found:
                mixed.append((key, seeds, found[0]))
            for t in found[:2]:
                out[f"{key}/complement-of-{t.N}"], _ = _record(
                    lambda progress: find_complementary_tuples(
                        seeds, t, N_MAX, LIMIT, progress=progress))
    for key, seeds, t in mixed:
        flipped = flipped_sides(t)
        for name, sides in (("flip-seed-1", (flipped[0], *[None] * (len(seeds) - 1))),
                            ("flip-later-seeds", (None, *flipped[1:]))):
            out[f"{key}/{name}-of-{t.N}"], _ = _record(lambda progress: find_jump_tuples(
                seeds, MIXED_DELTA, N_MAX, LIMIT, required_sides=sides, progress=progress))
    return out


if __name__ == "__main__":
    every = int(sys.argv[sys.argv.index("--every") + 1]) if "--every" in sys.argv else 1
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in records(every).items()]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
