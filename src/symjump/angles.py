"""Certified arithmetic for angle ratios x = theta / (2*pi).

Every index formula in this package reduces to floors, ceilings,
integrality tests and fractional parts of m*x for a positive integer m.
A silently wrong floor corrupts every quantity computed downstream, so
each query either returns a certified answer or raises
``UndecidableComparison`` -- never a guess.

Rational ratios are exact integer arithmetic, and so are quadratic
irrationals (a + b*sqrt(d))/c: floor(m*x) takes one integer square root.
Other irrational ratios carry a rational enclosure
``[approximant - error, approximant + error]`` and optionally a refiner:
a pure function mapping a level ``0, 1, 2, ...`` to enclosures whose
widths at least halve per level.  A query at budget B reads levels
0 .. B of that pure sequence (a quadratic query, all it needs) and
nothing else, so every answer is a function of the angle, the operands
and the budget alone.  Angles are immutable and hold no cache.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Iterable, Iterator, Optional

from .errors import UndecidableComparison

# Refinement levels a query may read beyond level 0 before giving up.
# The theory puts no a-priori bound on how close m*x may come to an
# integer, so some bound must be chosen; 64 levels (at least 64 halvings)
# is far beyond any scan this package performs, and callers can override.
DEFAULT_BUDGET = 64

Refiner = Callable[[int], tuple[Fraction, Fraction]]

# Most characters, and largest exponent magnitude, a decimal angle string
# may carry: Fraction("1e-999999999") would build a gigabyte power of ten.
DECIMAL_LIMIT = 1000


@dataclass(frozen=True)
class Enclosure:
    """A certified rational interval [lo, hi] containing the true value."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, value) -> bool:
        return self.lo <= value <= self.hi


def _resolve_budget(budget: Optional[int]) -> int:
    if budget is None:
        return DEFAULT_BUDGET
    if budget < 0:
        raise ValueError(f"budget must be a non-negative integer, got {budget}")
    return budget


def _levels(budget: Optional[int], angles) -> Iterable[int]:
    """Refinement levels a query at this budget reads: 0 .. budget, or
    level 0 alone when no angle has a refiner (its levels all coincide),
    or every level when all are quadratic (closed form: such a query ends)."""
    top = _resolve_budget(budget)
    if angles and all(isinstance(a, QuadraticAngle) for a in angles):
        return itertools.count()
    return range(top + 1 if any(a._refiner for a in angles) else 1)


class ExactAngle:
    """Base class for angle ratios; see :class:`RationalAngle` and
    :class:`IrrationalAngle`."""

    __slots__ = ()
    is_rational: bool  # a class constant of each kind

    def floor_mul(self, m: int, budget: Optional[int] = None) -> int:
        """Certified floor(m * x)."""
        raise NotImplementedError

    def ceil_mul(self, m: int, budget: Optional[int] = None) -> int:
        """Certified min{k in Z : k >= m*x}."""
        raise NotImplementedError

    def varphi_mul(self, m: int, budget: Optional[int] = None) -> int:
        """0 if m*x is an integer, 1 otherwise."""
        raise NotImplementedError

    def frac_mul(self, m: int, tol: Fraction = Fraction(1, 10**9),
                 budget: Optional[int] = None):
        """Fractional part of m*x: an exact Fraction when rational, else a
        certified :class:`Enclosure` of width <= tol."""
        raise NotImplementedError

    def frac_side(self, m: int, delta: Fraction,
                  budget: Optional[int] = None) -> str:
        """Locate {m*x} relative to a rational threshold delta in (0, 1/2).

        Returns ``"zero"`` ({m*x} = 0, rational only), ``"low"``
        (0 < {m*x} < delta), ``"high"`` ({m*x} > 1 - delta) or ``"mid"``.
        """
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class RationalAngle(ExactAngle):
    """x = value with 0 < value < 1, built by :func:`rational_angle`.

    The endpoints 0 and 1 are rejected: a full turn is not a rotation
    block, and the flat angles belong to the dedicated +/-1-eigenvalue
    normal forms.
    """

    value: Fraction
    is_rational = True

    def __post_init__(self):
        if not 0 < self.value < 1:
            raise ValueError(f"rational angle ratio must lie strictly in (0,1), got {self.value}")

    def floor_mul(self, m: int, budget: Optional[int] = None) -> int:
        _check_multiplier(m)
        return (m * self.value.numerator) // self.value.denominator

    def ceil_mul(self, m: int, budget: Optional[int] = None) -> int:
        _check_multiplier(m)
        return -((-m * self.value.numerator) // self.value.denominator)

    def varphi_mul(self, m: int, budget: Optional[int] = None) -> int:
        _check_multiplier(m)
        return 0 if (m * self.value.numerator) % self.value.denominator == 0 else 1

    def frac_mul(self, m: int, tol: Fraction = Fraction(1, 10**9),
                 budget: Optional[int] = None) -> Fraction:
        _check_multiplier(m)
        return Fraction((m * self.value.numerator) % self.value.denominator,
                        self.value.denominator)

    def frac_side(self, m: int, delta: Fraction,
                  budget: Optional[int] = None) -> str:
        delta = _check_delta(delta)
        f = self.frac_mul(m)
        if f == 0:
            return "zero"
        if f < delta:
            return "low"
        if f > 1 - delta:
            return "high"
        return "mid"

    def __repr__(self):
        return f"RationalAngle({self.value})"

    def __float__(self):
        return float(self.value)


class IrrationalAngle(ExactAngle):
    """An irrational x in (0, 1) given by an enclosure and optional refiner.

    The irrational flavor is trusted, not inferred: callers declaring a
    value irrational get irrational semantics (m*x is never an integer).
    ``source`` tags the construction for equality and serialization,
    e.g. ``("quadratic", (a, b, c, d))`` or ``("decimal", (s, e))``.
    """

    __slots__ = ("_lo", "_hi", "_refiner", "source")
    is_rational = False

    def __init__(self, approximant: Fraction, error_bound: Fraction,
                 refiner: Optional[Refiner] = None,
                 source: Optional[tuple] = None):
        approximant = Fraction(approximant)
        error_bound = Fraction(error_bound)
        if error_bound <= 0:
            raise ValueError("error bound must be positive")
        lo = approximant - error_bound
        hi = approximant + error_bound
        if hi <= 0 or lo >= 1:
            raise ValueError("enclosure lies outside (0,1)")
        object.__setattr__(self, "_lo", max(lo, Fraction(0)))
        object.__setattr__(self, "_hi", min(hi, Fraction(1)))
        object.__setattr__(self, "_refiner", refiner)
        object.__setattr__(self, "source", source)

    def __setattr__(self, name, value):
        raise AttributeError("IrrationalAngle exposes no mutable attributes")

    def enclosure(self) -> tuple[Fraction, Fraction]:
        """The stated enclosure, approximant +/- error clipped to [0, 1]."""
        return self._lo, self._hi

    def enclosure_at(self, level: int) -> tuple[Fraction, Fraction]:
        """Enclosure at a refinement level: the refiner's, clipped to the
        stated one.  A pure function of the level."""
        if self._refiner is None:
            return self._lo, self._hi
        lo, hi = self._refiner(level)
        return max(lo, self._lo), min(hi, self._hi)

    # -- certified queries ------------------------------------------------

    def _decided(self, m: int, budget: Optional[int]):
        """(floor(m*x), lo, hi) for each level 0 .. budget whose enclosure
        [lo, hi] fixes floor(m*x)."""
        for level in _levels(budget, (self,)):
            lo, hi = self.enclosure_at(level)
            f = (m * lo.numerator) // lo.denominator
            if f == (m * hi.numerator) // hi.denominator:
                yield f, lo, hi

    def floor_mul(self, m: int, budget: Optional[int] = None) -> int:
        _check_multiplier(m)
        for f, _, _ in self._decided(m, budget):
            return f
        raise _undecided(f"floor({m} * {self!r})", budget, (self,))

    def ceil_mul(self, m: int, budget: Optional[int] = None) -> int:
        # m*x is never an integer for irrational x.
        return self.floor_mul(m, budget) + 1

    def varphi_mul(self, m: int, budget: Optional[int] = None) -> int:
        _check_multiplier(m)
        return 1

    def frac_mul(self, m: int, tol: Fraction = Fraction(1, 10**9),
                 budget: Optional[int] = None) -> Enclosure:
        """Certified enclosure of {m*x}, width <= tol, snapped to a decimal
        grid so the result is reproducible and serializes losslessly."""
        _check_multiplier(m)
        tol = Fraction(tol)
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        for f, lo, hi in self._decided(m, budget):
            frac_lo, frac_hi = m * lo - f, m * hi - f
            if frac_hi - frac_lo <= tol / 2:
                return Enclosure(*_snap_outward(frac_lo, frac_hi, tol / 4))
        raise _undecided(f"frac({m} * {self!r}) at width {tol}", budget, (self,))

    def frac_side(self, m: int, delta: Fraction,
                  budget: Optional[int] = None) -> str:
        _check_multiplier(m)
        delta = _check_delta(delta)
        for f, lo, hi in self._decided(m, budget):
            frac_lo, frac_hi = m * lo - f, m * hi - f
            if frac_hi < delta:
                return "low"
            if frac_lo > 1 - delta:
                return "high"
            if delta < frac_lo and frac_hi < 1 - delta:
                return "mid"
        raise _undecided(f"side of frac({m} * {self!r}) vs delta={delta}", budget, (self,))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, IrrationalAngle):
            return False
        return self.source is not None and self.source == other.source

    def __hash__(self):
        return hash(("irrational", self.source)) if self.source else id(self)

    def __float__(self):
        return float((self._lo + self._hi) / 2)

    def __repr__(self):
        if self.source and self.source[0] == "quadratic":
            a, b, c, d = self.source[1]
            return f"IrrationalAngle(({a}{b:+}*sqrt({d}))/{c})"
        return f"IrrationalAngle(~{float(self):.10f})"


class QuadraticAngle(IrrationalAngle):
    """(a + b*sqrt(d))/c with c > 0 and gcd(a, b, c) = 1, built by
    :func:`quadratic_angle`.

    m*b*sqrt(d) is never an integer, so floor(m*b*sqrt(d)) is
    isqrt(m^2 b^2 d) when b > 0 and -isqrt(m^2 b^2 d) - 1 when b < 0, and
    with c > 0 the floor of m*x needs only that floor of the numerator.
    ``floor_mul``, ``ceil_mul`` and ``frac_side`` are therefore exact at
    every multiplier and ignore the budget, and so do ``frac_mul`` and
    matrix realizations, which read as many of the refiner's closed-form
    levels as they need; a mean index holds the angle in its exact part.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        # x = a/c + sign(b)*sqrt(b^2 d/c^2), and 1 and an irrational sqrt(D) are
        # independent over Q: a canonical key of the value with d unfactored
        a, b, c, d = self.source[1]
        return Fraction(a, c), b > 0, Fraction(b * b * d, c * c)

    def __eq__(self, other):
        return isinstance(other, QuadraticAngle) and self._key() == other._key()

    def __hash__(self):
        return hash(("quadratic", self._key()))

    def floor_mul(self, m: int, budget: Optional[int] = None) -> int:
        _check_multiplier(m)
        a, b, c, d = self.source[1]
        f = isqrt(m * m * b * b * d)
        return (m * a + (f if b > 0 else -f - 1)) // c

    def frac_side(self, m: int, delta: Fraction,
                  budget: Optional[int] = None) -> str:
        _check_multiplier(m)
        delta = _check_delta(delta)
        p, q = delta.numerator, delta.denominator
        # r = floor(q*{m*x}); q*{m*x} is irrational, so it is below p exactly
        # when r < p and above q - p exactly when r >= q - p
        r = self.floor_mul(q * m) - q * self.floor_mul(m)
        return "low" if r < p else "high" if r >= q - p else "mid"

    def convergent_denominators(self, m: int) -> Iterator[int]:
        """The denominators 1 = q_0 <= q_1 < q_2 < ... of the continued
        fraction convergents of m*x, without end.

        m*x = (P + sqrt(D))/Q with Q dividing D - P^2, and each partial
        quotient is floor((P + sqrt(D))/Q) for the next exact (P, Q) of the
        recurrence P' = t*Q - P, Q' = (D - P'^2)/Q.
        """
        _check_multiplier(m)
        a, b, c, d = self.source[1]
        P, D, Q = m * a * c, m * m * b * b * d * c * c, c * c
        if b < 0:
            P, Q = -P, -Q
        s = isqrt(D)  # sqrt(D) is irrational: floor((P + sqrt(D))/Q) reads only s
        q_prev, q = 1, 0
        while True:
            t = (P + s) // Q if Q > 0 else (P + s + 1) // Q
            q_prev, q = q, t * q + q_prev
            yield q
            P = t * Q - P
            Q = (D - P * P) // Q


# -- constructors ----------------------------------------------------------


def rational_angle(p, q=None) -> RationalAngle:
    return RationalAngle(Fraction(p, q))


def quadratic_angle(a: int, b: int, c: int, d: int) -> QuadraticAngle:
    """The quadratic irrational (a + b*sqrt(d)) / c, required to lie in (0,1).

    Queries are closed form (see :class:`QuadraticAngle`).  Enclosures
    refine by exact integer-square-root bisection: level k encloses
    sqrt(d) between consecutive multiples of 2**-(24*(k+1)).
    """
    for name, v in (("a", a), ("b", b), ("c", c), ("d", d)):
        if not isinstance(v, int):
            raise ValueError(f"quadratic coefficient {name} must be an integer")
    if c == 0:
        raise ValueError("quadratic denominator c must be nonzero")
    if b == 0:
        raise ValueError("quadratic angle with b = 0 is rational; use rational_angle")
    if d < 2 or isqrt(d) ** 2 == d:
        raise ValueError(f"sqrt({d}) is not irrational")
    if c < 0:
        a, b, c = -a, -b, -c
    g = gcd(a, b, c)
    a, b, c = a // g, b // g, c // g

    def refiner(level: int) -> tuple[Fraction, Fraction]:
        k = 24 * (level + 1)
        s = isqrt(d << (2 * k))  # floor(2**k * sqrt(d))
        den = c << k
        if b > 0:
            return (Fraction((a << k) + b * s, den),
                    Fraction((a << k) + b * (s + 1), den))
        return (Fraction((a << k) + b * (s + 1), den),
                Fraction((a << k) + b * s, den))

    lo, hi = refiner(0)
    if hi <= 0 or lo >= 1:
        raise ValueError(f"({a}{b:+}*sqrt({d}))/{c} lies outside (0,1)")
    mid = (lo + hi) / 2
    return QuadraticAngle(mid, hi - mid, refiner, source=("quadratic", (a, b, c, d)))


def decimal_angle(approximant, error) -> IrrationalAngle:
    """An irrational declared by a decimal approximant and error bound.

    No refiner is available, so queries needing more precision than the
    stated error raise UndecidableComparison.  Either string is refused
    with ValueError beyond DECIMAL_LIMIT characters or exponent magnitude.
    """
    approx_str = str(approximant)
    err_str = str(error)
    return IrrationalAngle(_bounded_decimal(approx_str), _bounded_decimal(err_str),
                           source=("decimal", (approx_str, err_str)))


def complement_angle(x: ExactAngle) -> ExactAngle:
    """The angle ratio 1 - x (the conjugate rotation e^{-i*theta})."""
    if isinstance(x, RationalAngle):
        return RationalAngle(1 - x.value)
    if isinstance(x, QuadraticAngle):
        a, b, c, d = x.source[1]
        return quadratic_angle(c - a, -b, c, d)
    if isinstance(x, IrrationalAngle):
        def refiner(level: int) -> tuple[Fraction, Fraction]:
            lo, hi = x.enclosure_at(level)
            return 1 - hi, 1 - lo

        lo, hi = x.enclosure()
        return IrrationalAngle(1 - (lo + hi) / 2, (hi - lo) / 2,
                               refiner if x._refiner else None,
                               ("complement", x.source) if x.source else None)
    raise TypeError(f"not an ExactAngle: {x!r}")


def same_angle(x: ExactAngle, y: ExactAngle, budget: Optional[int] = None) -> bool:
    """Certified equality of two angle ratios.

    Equal representations compare equal immediately.  Rationals and
    quadratic irrationals are decided by their canonical keys: distinct
    ones differ, since 1 and sqrt(d) are linearly independent over Q.
    Otherwise levels 0 .. budget of the enclosures are read until they
    are disjoint.  Raises UndecidableComparison when none is (distinct
    representations of the same irrational value cannot be certified
    equal).
    """
    if x == y:
        return True
    exact = (RationalAngle, QuadraticAngle)
    if isinstance(x, exact) and isinstance(y, exact):
        return False
    irrational = [z for z in (x, y) if isinstance(z, IrrationalAngle)]
    for level in _levels(budget, irrational):
        x_lo, x_hi = _bounds(x, level)
        y_lo, y_hi = _bounds(y, level)
        if x_hi < y_lo or y_hi < x_lo:
            return False
    raise _undecided(f"equality of {x!r} and {y!r}", budget, irrational)


# -- helpers ----------------------------------------------------------------


def _undecided(what: str, budget: Optional[int], angles) -> UndecidableComparison:
    """The refusal of a query that read levels 0 .. L of ``angles`` (L the
    last level :func:`_levels` allows) without deciding ``what``."""
    level = _levels(budget, angles)[-1]
    return UndecidableComparison(
        f"{what} undecided at level {level} of budget {_resolve_budget(budget)}")


def _bounded_decimal(s: str) -> Fraction:
    """Fraction(s) for a decimal string within DECIMAL_LIMIT."""
    if len(s) > DECIMAL_LIMIT:
        raise ValueError(f"decimal string of {len(s)} characters exceeds {DECIMAL_LIMIT}")
    _, _, exponent = s.lower().partition("e")
    try:
        scale = abs(int(exponent)) if exponent else 0
    except ValueError:
        scale = 0  # no integer exponent: Fraction refuses the string itself
    if scale > DECIMAL_LIMIT:
        raise ValueError(f"decimal exponent {exponent.strip()} exceeds +/-{DECIMAL_LIMIT}")
    return Fraction(s)


def _bounds(x: ExactAngle, level: int) -> tuple[Fraction, Fraction]:
    if isinstance(x, RationalAngle):
        return x.value, x.value
    return x.enclosure_at(level)


def _check_multiplier(m: int) -> None:
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"multiplier must be a positive integer, got {m!r}")


def _check_delta(delta) -> Fraction:
    """delta as a Fraction, required to lie in (0, 1/2)."""
    try:
        f = delta if isinstance(delta, Fraction) else Fraction(delta)
    except (ValueError, OverflowError):  # nan, +/-inf
        f = Fraction(0)
    # in integers (the denominator is positive): Fraction's comparisons
    # dispatch through the numbers ABCs, at several times the cost
    if not (0 < f.numerator and 2 * f.numerator < f.denominator):
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    return f


def _snap_outward(lo: Fraction, hi: Fraction, grid: Fraction) -> tuple[Fraction, Fraction]:
    """Widen [lo, hi] outward to the coarsest decimal grid 10**-k <= grid."""
    scale = 1
    while Fraction(1, scale) > grid:
        scale *= 10
    return (Fraction(lo.numerator * scale // lo.denominator, scale),
            Fraction(-(-hi.numerator * scale // hi.denominator), scale))
