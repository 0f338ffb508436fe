"""Certified arithmetic for angle ratios x = theta / (2*pi).

Every index formula in this package reduces to floors, ceilings,
integrality tests and fractional parts of m*x for a positive integer m.
A silently wrong floor corrupts every quantity computed downstream, so
each query either returns a certified answer or raises
``UndecidableComparison`` -- never a guess.

Rational ratios are exact integer arithmetic, and so are quadratic
irrationals (a + b*sqrt(d))/c: floor(m*x) takes one integer square root.
Any other irrational ratio carries one stated rational enclosure
``[approximant - error, approximant + error]``, and a query on it decides
from that enclosure or refuses.  Every query reads its angle once, so
every answer is a function of the angle and the operands alone.  Angles
are immutable and hold no cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Optional

from .errors import UndecidableComparison

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


class ExactAngle:
    """Base class for angle ratios; see :class:`RationalAngle` and
    :class:`IrrationalAngle`."""

    __slots__ = ()
    is_rational: bool  # a class constant of each kind

    def floor_mul(self, m: int) -> int:
        """Certified floor(m * x)."""
        raise NotImplementedError

    def ceil_mul(self, m: int) -> int:
        """Certified min{k in Z : k >= m*x}."""
        raise NotImplementedError

    def varphi_mul(self, m: int) -> int:
        """0 if m*x is an integer, 1 otherwise."""
        raise NotImplementedError

    def frac_mul(self, m: int, tol: Fraction = Fraction(1, 10**9)):
        """Fractional part of m*x: an exact Fraction when rational, else a
        certified :class:`Enclosure` of width <= tol."""
        raise NotImplementedError

    def frac_side(self, m: int, delta: Fraction) -> str:
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

    def floor_mul(self, m: int) -> int:
        _check_multiplier(m)
        return (m * self.value.numerator) // self.value.denominator

    def ceil_mul(self, m: int) -> int:
        _check_multiplier(m)
        return -((-m * self.value.numerator) // self.value.denominator)

    def varphi_mul(self, m: int) -> int:
        _check_multiplier(m)
        return 0 if (m * self.value.numerator) % self.value.denominator == 0 else 1

    def frac_mul(self, m: int, tol: Fraction = Fraction(1, 10**9)) -> Fraction:
        _check_multiplier(m)
        return Fraction((m * self.value.numerator) % self.value.denominator,
                        self.value.denominator)

    def frac_side(self, m: int, delta: Fraction) -> str:
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
    """An irrational x in (0, 1) given by one stated enclosure.

    The irrational flavor is trusted, not inferred: callers declaring a
    value irrational get irrational semantics (m*x is never an integer).
    ``source`` tags the construction for equality and serialization,
    e.g. ``("quadratic", (a, b, c, d))`` or ``("decimal", (s, e))``.
    """

    __slots__ = ("_lo", "_hi", "source")
    is_rational = False

    def __init__(self, approximant: Fraction, error_bound: Fraction,
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
        object.__setattr__(self, "source", source)

    def __setattr__(self, name, value):
        raise AttributeError("IrrationalAngle exposes no mutable attributes")

    def enclosure(self, width: Optional[Fraction] = None) -> tuple[Fraction, Fraction]:
        """The stated enclosure, approximant +/- error clipped to [0, 1],
        whatever the ``width`` asked for."""
        return self._lo, self._hi

    # -- certified queries ------------------------------------------------

    def _fixed_floor(self, m: int) -> Optional[int]:
        """floor(m*x) when the stated enclosure fixes it, else None."""
        lo, hi = self._lo, self._hi
        f = (m * lo.numerator) // lo.denominator
        return f if f == (m * hi.numerator) // hi.denominator else None

    def floor_mul(self, m: int) -> int:
        _check_multiplier(m)
        f = self._fixed_floor(m)
        if f is None:
            raise _undecided(f"floor({m} * {self!r})")
        return f

    def ceil_mul(self, m: int) -> int:
        # m*x is never an integer for irrational x.
        return self.floor_mul(m) + 1

    def varphi_mul(self, m: int) -> int:
        _check_multiplier(m)
        return 1

    def frac_mul(self, m: int, tol: Fraction = Fraction(1, 10**9)) -> Enclosure:
        """Certified enclosure of {m*x}, width <= tol, snapped to a decimal
        grid so the result is reproducible and serializes losslessly."""
        _check_multiplier(m)
        tol = _check_tolerance(tol)
        f = self._fixed_floor(m)
        if f is None or m * (self._hi - self._lo) > tol / 2:
            raise _undecided(f"frac({m} * {self!r}) at width {tol}")
        return Enclosure(*_snap_outward(m * self._lo - f, m * self._hi - f, tol / 4))

    def frac_side(self, m: int, delta: Fraction) -> str:
        _check_multiplier(m)
        delta = _check_delta(delta)
        f = self._fixed_floor(m)
        if f is not None:
            frac_lo, frac_hi = m * self._lo - f, m * self._hi - f
            if frac_hi < delta:
                return "low"
            if frac_lo > 1 - delta:
                return "high"
            if delta < frac_lo and frac_hi < 1 - delta:
                return "mid"
        raise _undecided(f"side of frac({m} * {self!r}) vs delta={delta}")

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
    ``floor_mul``, ``ceil_mul``, ``frac_side`` and ``frac_mul`` are
    therefore exact at every multiplier, ``enclosure`` is closed form at
    every width, and a mean index holds the angle in its exact part.
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

    def floor_mul(self, m: int) -> int:
        _check_multiplier(m)
        a, b, c, d = self.source[1]
        f = isqrt(m * m * b * b * d)
        return (m * a + (f if b > 0 else -f - 1)) // c

    def frac_side(self, m: int, delta: Fraction) -> str:
        _check_multiplier(m)
        delta = _check_delta(delta)
        p, q = delta.numerator, delta.denominator
        # r = floor(q*{m*x}); q*{m*x} is irrational, so it is below p exactly
        # when r < p and above q - p exactly when r >= q - p
        r = self.floor_mul(q * m) - q * self.floor_mul(m)
        return "low" if r < p else "high" if r >= q - p else "mid"

    def frac_mul(self, m: int, tol: Fraction = Fraction(1, 10**9)) -> Enclosure:
        _check_multiplier(m)
        tol = _check_tolerance(tol)
        # r = floor(2**k * {m*x}) for the first k with 2**-k <= tol/2
        k = (-(-2 * tol.denominator // tol.numerator) - 1).bit_length()
        r = self.floor_mul(m << k) - (self.floor_mul(m) << k)
        return Enclosure(*_snap_outward(Fraction(r, 1 << k), Fraction(r + 1, 1 << k), tol / 4))

    def enclosure(self, width: Optional[Fraction] = None) -> tuple[Fraction, Fraction]:
        """The closed-form enclosure at the first step of sqrt(d) to a
        multiple of 2**-24, 2**-48, ... that, clipped to the stated
        enclosure (the first step), is no wider than ``width``."""
        width = None if width is None else _check_tolerance(width)
        k = 24
        while True:
            lo, hi = _quadratic_ends(*self.source[1], k)
            lo, hi = max(lo, self._lo), min(hi, self._hi)
            if width is None or hi - lo <= width:
                return lo, hi
            k += 24

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

    Queries are closed form (see :class:`QuadraticAngle`).  The stated
    enclosure puts sqrt(d) between consecutive multiples of 2**-24.
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
    lo, hi = _quadratic_ends(a, b, c, d, 24)
    if hi <= 0 or lo >= 1:
        raise ValueError(f"({a}{b:+}*sqrt({d}))/{c} lies outside (0,1)")
    mid = (lo + hi) / 2
    return QuadraticAngle(mid, hi - mid, source=("quadratic", (a, b, c, d)))


def decimal_angle(approximant, error) -> IrrationalAngle:
    """An irrational declared by a decimal approximant and error bound.

    Queries needing more precision than the stated error raise
    UndecidableComparison.  Either string is refused with ValueError
    beyond DECIMAL_LIMIT characters or exponent magnitude.
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
        lo, hi = x.enclosure()
        return IrrationalAngle(1 - (lo + hi) / 2, (hi - lo) / 2,
                               ("complement", x.source) if x.source else None)
    raise TypeError(f"not an ExactAngle: {x!r}")


def same_angle(x: ExactAngle, y: ExactAngle) -> bool:
    """Certified equality of two angle ratios.

    Equal representations compare equal immediately.  Rationals and
    quadratic irrationals are decided by their canonical keys: distinct
    ones differ, since 1 and sqrt(d) are linearly independent over Q.
    Otherwise one side is a stated enclosure [lo, hi], and the angles
    differ when the other lies outside it: a rational or another stated
    enclosure when the two are disjoint, a quadratic irrational exactly,
    in integers.  Raises UndecidableComparison when it lies inside
    (distinct representations of the same irrational value cannot be
    certified equal).
    """
    if x == y:
        return True
    exact = (RationalAngle, QuadraticAngle)
    if isinstance(x, exact) and isinstance(y, exact):
        return False
    stated, other = (y, x) if isinstance(x, exact) else (x, y)
    lo, hi = stated.enclosure()
    if isinstance(other, QuadraticAngle):
        # q*z is irrational, so z < p/q exactly when floor(q*z) < p, and
        # z > p/q exactly when floor(q*z) >= p
        outside = (other.floor_mul(lo.denominator) < lo.numerator
                   or other.floor_mul(hi.denominator) >= hi.numerator)
    else:
        z_lo, z_hi = ((other.value, other.value) if isinstance(other, RationalAngle)
                      else other.enclosure())
        outside = hi < z_lo or z_hi < lo
    if outside:
        return False
    raise _undecided(f"equality of {x!r} and {y!r}")


# -- helpers ----------------------------------------------------------------


def _undecided(what: str) -> UndecidableComparison:
    """The refusal of a query whose one read did not decide ``what``."""
    return UndecidableComparison(f"{what} undecided")


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


def _quadratic_ends(a: int, b: int, c: int, d: int, k: int) -> tuple[Fraction, Fraction]:
    """(a + b*sqrt(d))/c with sqrt(d) between consecutive multiples of 2**-k."""
    s = isqrt(d << (2 * k))  # floor(2**k * sqrt(d))
    ends = (Fraction((a << k) + b * s, c << k), Fraction((a << k) + b * (s + 1), c << k))
    return ends if b > 0 else ends[::-1]


def _check_multiplier(m: int) -> None:
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"multiplier must be a positive integer, got {m!r}")


def _check_tolerance(tol) -> Fraction:
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return tol


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
