"""Index and nullity iteration for symplectic paths.

A path is summarized by a :class:`PathSeed`: its initial index i1 and
nullity nu1 together with the normal-form decomposition of its endpoint
matrix.  The m-th iterate's index grows linearly in m with a ceiling
correction per rotation angle, a parity term from the -1-eigenvalue
blocks and an integrality correction per nontrivial 4x4 rotation block;
the nullity picks up the kernel of each block's m-th power.  All angle
arithmetic is certified, so every returned integer is exact or the call
raises ``UndecidableComparison``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .angles import IrrationalAngle, QuadraticAngle, _levels, _undecided
from .errors import ConstraintViolation, UndecidableComparison
from .normal_forms import Decomposition


@dataclass(frozen=True)
class PathSeed:
    """Initial data of a symplectic path: dimension, index, nullity, endpoint."""

    n: int
    i1: int
    nu1: int
    decomp: Decomposition

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"manifold dimension must be >= 2, got {self.n}")
        if self.decomp.n != self.n:
            raise ValueError(
                f"decomposition fills {self.decomp.n - 1} units but n - 1 = {self.n - 1}")
        expected = self.decomp.p_minus + 2 * self.decomp.p_zero + self.decomp.p_plus
        if self.nu1 != expected:
            raise ValueError(
                f"initial nullity must equal the 1-eigenvalue kernel of the endpoint: "
                f"expected {expected}, got {self.nu1}")


@dataclass(frozen=True)
class IterationRow:
    m: int
    index: int
    nullity: int


def index_iterate(seed: PathSeed, m: int, budget: Optional[int] = None) -> int:
    """Index of the m-th iterate."""
    if m < 1:
        raise ValueError("iterate must be positive")
    d = seed.decomp
    even = 1 if m % 2 == 0 else 0
    try:
        total = m * (seed.i1 + d.p_minus + d.p_zero - d.r)
        total += 2 * sum(x.ceil_mul(m, budget) for x in d.theta_angles)
        total -= d.r + d.p_minus + d.p_zero + even * (d.q_zero + d.q_plus)
        total += 2 * sum(x.varphi_mul(m, budget) for x in d.alpha_angles)
        total -= 2 * d.r_star
    except UndecidableComparison as exc:
        raise UndecidableComparison(f"index of iterate m={m}: {exc}") from exc
    return total


def nullity_iterate(seed: PathSeed, m: int, budget: Optional[int] = None) -> int:
    """Nullity of the m-th iterate."""
    if m < 1:
        raise ValueError("iterate must be positive")
    d = seed.decomp
    even = 1 if m % 2 == 0 else 0
    sigma = d.r + d.r_star + d.r_zero
    try:
        for x in d.theta_angles:
            sigma -= x.varphi_mul(m, budget)
        for x in d.alpha_angles:
            sigma -= x.varphi_mul(m, budget)
        for x in d.beta_angles:
            sigma -= x.varphi_mul(m, budget)
    except UndecidableComparison as exc:
        raise UndecidableComparison(f"nullity of iterate m={m}: {exc}") from exc
    nullity = seed.nu1 + even * (d.q_minus + 2 * d.q_zero + d.q_plus) + 2 * sigma
    if not 0 <= nullity <= 2 * (seed.n - 1):
        raise ConstraintViolation(
            f"nullity of iterate m={m} is {nullity}, outside [0, {2 * (seed.n - 1)}]")
    return nullity


def iteration_rows(seed: PathSeed, m_max: int,
                   budget: Optional[int] = None) -> Iterator[IterationRow]:
    """Lazy table of (m, index, nullity) for m = 1 .. m_max."""
    if m_max < 1:
        raise ValueError(f"m_max must be a positive integer, got {m_max}")
    return (IterationRow(m, index_iterate(seed, m, budget), nullity_iterate(seed, m, budget))
            for m in range(1, m_max + 1))


def bott_gap(seed: PathSeed, m: int, budget: Optional[int] = None) -> int:
    """i(m+1) - i(m) - nu(m); bounded below by i1 - e/2 for every m."""
    return (index_iterate(seed, m + 1, budget)
            - index_iterate(seed, m, budget)
            - nullity_iterate(seed, m, budget))


@dataclass(slots=True)
class MeanIndex:
    """The linear growth rate lim i(m)/m: an exact rational plus twice each
    irrational rotation angle.

    Irrational values are decided on the sum of the angles' enclosures at
    levels 0 .. budget.  The sum at each level is memoized: a pure
    function of the level, so no answer depends on earlier queries.
    """

    base: Fraction
    angles: tuple[IrrationalAngle, ...]
    _sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def is_exact(self) -> bool:
        return not self.angles

    def exact(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("mean index has irrational contributions; use enclosure()")
        return self.base

    def _bounds(self, level: int) -> tuple[Fraction, Fraction]:
        bounds = self._sums.get(level)
        if bounds is None:
            lo = hi = self.base
            for a in self.angles:
                a_lo, a_hi = a.enclosure_at(level)
                lo += 2 * a_lo
                hi += 2 * a_hi
            bounds = self._sums[level] = (lo, hi)
        return bounds

    def _bounds_upto(self, budget: Optional[int], first: int = 0):
        """Bounds at levels first .. budget, first clipped to the budget."""
        levels = _levels(budget, self.angles)
        for level in levels[min(first, len(levels) - 1):]:
            yield self._bounds(level)

    def enclosure(self, tol: Optional[Fraction] = None,
                  budget: Optional[int] = None) -> tuple[Fraction, Fraction]:
        """Certified rational interval around the mean index."""
        if self.is_exact:
            return self.base, self.base
        if tol is None:
            tol = Fraction(1, 10**12)
        for lo, hi in self._bounds_upto(budget):
            if hi - lo <= tol:
                return lo, hi
        raise _undecided(f"mean index enclosure of width {tol}", budget, self.angles)

    def cmp(self, other: Fraction, budget: Optional[int] = None) -> int:
        """Certified comparison against a rational: -1, 0 or +1."""
        other = Fraction(other)
        if self.is_exact:
            v = self.base
            return -1 if v < other else (0 if v == other else 1)
        for lo, hi in self._bounds_upto(budget):
            if lo > other:
                return 1
            if hi < other:
                return -1
        raise _undecided(f"mean index vs {other}", budget, self.angles)

    def floor_quotient(self, num: int, den: int, budget: Optional[int] = None) -> int:
        """Certified floor(num / (den * value)); value must be positive."""
        if num < 0 or den < 1:
            raise ValueError("floor_quotient expects num >= 0, den >= 1")
        if self.is_exact:
            if self.base <= 0:
                raise ValueError("mean index must be positive")
            return (num * self.base.denominator) // (den * self.base.numerator)
        # A level of 24 more bits decides quotients about 2**24 times larger,
        # so start near the level the operands' size needs.
        first = max(0, (num.bit_length() - den.bit_length()) // 24 - 1)
        for lo, hi in self._bounds_upto(budget, first):
            if lo.numerator > 0:
                f = (num * hi.denominator) // (den * hi.numerator)
                if f == (num * lo.denominator) // (den * lo.numerator):
                    return f
            elif hi.numerator <= 0:
                raise ValueError("mean index must be positive")
        raise _undecided(f"floor({num} / ({den} * mean index))", budget, self.angles)

    def __float__(self):
        lo, hi = self._bounds(0)
        return float((lo + hi) / 2)

    def __repr__(self):
        if self.is_exact:
            return f"MeanIndex({self.base})"
        return f"MeanIndex({self.base} + irrational, ~{float(self):.6f})"


def mean_index(seed: PathSeed) -> MeanIndex:
    """Closed form of lim i(m)/m: i1 + p- + p0 - r + sum of theta_j/pi.

    A quadratic angle is a/c + sign(b)*sqrt(b^2 d/c^2).  When the signs of
    the quadratic angles sharing one irrational part sqrt(b^2 d/c^2) sum
    to zero (x and 1 - x, say), their sum is the rational sum of the a/c.
    """
    d = seed.decomp
    base = Fraction(seed.i1 + d.p_minus + d.p_zero - d.r)
    signs = Counter()
    for a in d.theta_angles:
        if isinstance(a, QuadraticAngle):
            _, positive, part = a._key()
            signs[part] += 1 if positive else -1
    irr = []
    for a in d.theta_angles:
        if a.is_rational:
            base += 2 * a.value
        elif isinstance(a, QuadraticAngle) and signs[a._key()[2]] == 0:
            base += 2 * a._key()[0]
        else:
            irr.append(a)
    return MeanIndex(base, tuple(irr))
