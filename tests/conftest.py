"""Shared fixture generators: random decompositions, seeds and systems."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hypothesis import settings
from hypothesis import strategies as st

from symjump import (Decomposition, GeodesicSystem, HyperbolicBlock, N1Block,
                     N2Block, PathSeed, RotationBlock, mean_index,
                     quadratic_angle, rational_angle)

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# quadratic irrationals (a + b*sqrt(d))/c with values in (0,1), away from 0, 1/2, 1
QUADRATIC_POOL = [
    (-1, 1, 1, 2),   # sqrt(2) - 1      ~ 0.4142
    (-1, 1, 2, 5),   # (sqrt(5) - 1)/2  ~ 0.6180
    (-1, 1, 1, 3),   # sqrt(3) - 1      ~ 0.7321
    (-2, 1, 1, 7),   # sqrt(7) - 2      ~ 0.6458
    (0, 1, 3, 3),    # sqrt(3)/3        ~ 0.5774
    (0, 1, 4, 2),    # sqrt(2)/4        ~ 0.3536
    (5, -1, 4, 5),   # (5 - sqrt(5))/4  ~ 0.6910
    (-1, 1, 2, 6),   # (sqrt(6) - 1)/2  ~ 0.7247
    (-2, 1, 1, 6),   # sqrt(6) - 2      ~ 0.4495
    (3, -1, 2, 3),   # (3 - sqrt(3))/2  ~ 0.6340
]


@st.composite
def quadratics(draw):
    """Random (a, b, c, d) with (a + b*sqrt(d))/c in (0, 1), d not a square."""
    d = draw(st.integers(2, 500).filter(lambda d: isqrt(d) ** 2 != d))
    b = draw(st.integers(-60, 60).filter(bool))
    c = draw(st.integers(1, 200))
    floor_minus_b_root = -isqrt(b * b * d) - 1 if b > 0 else isqrt(b * b * d)
    a = floor_minus_b_root + draw(st.integers(1, c))  # 0 < a + b*sqrt(d) < c
    return a, b, c, d


def random_rational_angle(rng: random.Random, denom_max: int = 12):
    while True:
        q = rng.randint(2, denom_max)
        p = rng.randint(1, q - 1)
        if Fraction(p, q) != Fraction(1, 2):
            return rational_angle(p, q)


def random_quadratic_angle(rng: random.Random):
    return quadratic_angle(*rng.choice(QUADRATIC_POOL))


def random_angle(rng: random.Random, allow_irrational: bool = True,
                 denom_max: int = 12):
    if allow_irrational and rng.random() < 0.35:
        return random_quadratic_angle(rng)
    return random_rational_angle(rng, denom_max)


def random_decomposition(rng: random.Random, n: int, *,
                         allow_irrational: bool = True,
                         allow_hyperbolic: bool = True,
                         denom_max: int = 12) -> Decomposition:
    units = n - 1
    blocks = []
    while units > 0:
        roll = rng.random()
        if roll < 0.40:
            blocks.append(N1Block(rng.choice((1, -1)), rng.choice((1, 0, -1))))
            units -= 1
        elif roll < 0.70:
            blocks.append(RotationBlock(random_angle(rng, allow_irrational, denom_max)))
            units -= 1
        elif roll < 0.85 and units >= 2:
            blocks.append(N2Block(random_angle(rng, allow_irrational, denom_max),
                                  rng.random() < 0.5))
            units -= 2
        elif allow_hyperbolic:
            blocks.append(HyperbolicBlock())
            units -= 1
    rng.shuffle(blocks)
    return Decomposition(blocks)  # the loop fills exactly n - 1 units


def nu_of(decomp: Decomposition) -> int:
    return decomp.p_minus + 2 * decomp.p_zero + decomp.p_plus


def random_seed(rng: random.Random, n: int | None = None, *,
                i1_low: int = -2, i1_high: int = 6, **kwargs) -> PathSeed:
    if n is None:
        n = rng.randint(2, 6)
    d = random_decomposition(rng, n, **kwargs)
    return PathSeed(rng.randint(i1_low, i1_high), d)


def pinched_seed(rng: random.Random, n: int, **kwargs) -> PathSeed:
    """A seed satisfying i1 >= n-1 and mean index > n-1."""
    while True:
        d = random_decomposition(rng, n, **kwargs)
        i1 = rng.randint(n - 1, n + 2)
        seed = PathSeed(i1, d)
        if mean_index(seed).cmp(Fraction(n - 1)) > 0:
            return seed


def angle_lcm(decomp: Decomposition) -> int:
    """Least m with every rational angle times m an integer (1 if none)."""
    out = 1
    for _, _, a in decomp.spectrum_angles():
        if a.is_rational:
            out = lcm(out, a.value.denominator)
    return out


def simple_system(n: int, seeds) -> GeodesicSystem:
    return GeodesicSystem(n, Fraction(1), tuple(seeds), True)
