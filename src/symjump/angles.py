"""Certified arithmetic for angle ratios x = theta / (2*pi).

Every index formula in this package reduces to floors, ceilings,
integrality tests and fractional parts of m*x for a positive integer m.
A silently wrong floor corrupts every quantity computed downstream, so
each query either returns a certified answer or raises
``UndecidableComparison`` -- never a guess.

Rational ratios are exact integer arithmetic, and so are quadratic
irrationals (a + b*sqrt(d))/c: floor(m*x), and the side of {m*x}
against delta, each take one integer square root.
Any other irrational ratio carries one stated rational enclosure
[lo, hi], and a query on it decides from that enclosure or refuses.
Every query reads its angle once, so every answer is a function of the
angle and the operands alone.  Every angle kind is a frozen dataclass
and holds no cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Optional

from .errors import UndecidableComparison

# Most characters, and largest exponent magnitude, a decimal angle string
# may carry: Fraction("1e-999999999") would build a gigabyte power of ten.
DECIMAL_LIMIT = 1000


class ExactAngle:
    """Base class for angle ratios; see :class:`RationalAngle`,
    :class:`QuadraticAngle` and :class:`IrrationalAngle`.

    The public queries check their operands, then call unchecked kernels;
    ``_ceil`` and ``_varphi`` are written here for an irrational x, whose
    multiples m*x are never integers, and only :class:`RationalAngle`
    overrides them.  ``float`` of every kind is the midpoint of an
    ``enclosure`` narrowed to 2**-64 of that midpoint, or of a stated
    enclosure, which does not narrow.
    """

    __slots__ = ()
    is_rational: bool  # a class constant of each kind

    def floor_mul(self, m: int) -> int:
        """Certified floor(m * x)."""
        raise NotImplementedError

    def ceil_mul(self, m: int) -> int:
        """Certified min{k in Z : k >= m*x}."""
        _check_multiplier(m)
        return self._ceil(m)

    def varphi_mul(self, m: int) -> int:
        """0 if m*x is an integer, 1 otherwise."""
        _check_multiplier(m)
        return self._varphi(m)

    def enclosure(self, width: Optional[Fraction] = None) -> tuple[Fraction, Fraction]:
        """Certified rational bounds lo <= x <= hi: the value itself when
        rational, closed form no wider than ``width`` when quadratic, and
        otherwise the stated enclosure, whatever the ``width``."""
        raise NotImplementedError

    def frac_side(self, m: int, delta: Fraction) -> str:
        """Locate {m*x} relative to a rational threshold delta in (0, 1/2).

        Returns ``"zero"`` ({m*x} = 0, rational only), ``"low"``
        (0 < {m*x} < delta), ``"high"`` ({m*x} > 1 - delta) or ``"mid"``.
        Every kind checks the multiplier, then delta, then reads ``_side``.
        """
        _check_multiplier(m)
        return self._side(m, *_check_delta(delta).as_integer_ratio())

    # kernels, unchecked: m is a positive integer, delta = p/q in lowest terms

    def _ceil(self, m: int) -> int:
        return self._floor(m) + 1

    def _varphi(self, m: int) -> int:
        return 1

    def __float__(self):
        # mid within mid/2**64 of the value: the double nearest mid is within
        # one ulp of the value, and its nearest unless the value is that near a tie
        lo, hi = self.enclosure()
        while True:
            mid = (lo + hi) / 2
            if hi - lo <= mid / 2**64:
                return float(mid)
            narrower = self.enclosure(mid / 2**64)
            if narrower == (lo, hi):  # a stated enclosure
                return float(mid)
            lo, hi = narrower


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

    def _ceil(self, m: int) -> int:
        return -((-m * self.value.numerator) // self.value.denominator)

    def _varphi(self, m: int) -> int:
        return 0 if (m * self.value.numerator) % self.value.denominator == 0 else 1

    def enclosure(self, width: Optional[Fraction] = None) -> tuple[Fraction, Fraction]:
        return self.value, self.value

    def _side(self, m: int, p: int, q: int) -> str:
        num, den = self.value.as_integer_ratio()
        r = (m * num) % den  # {m*x} = r/den, compared in integers
        if r == 0:
            return "zero"
        if r * q < p * den:
            return "low"
        if (den - r) * q < p * den:
            return "high"
        return "mid"

    def __repr__(self):
        return f"RationalAngle({self.value})"


@dataclass(frozen=True, slots=True)
class IrrationalAngle(ExactAngle):
    """An irrational x in (0, 1) given by one stated enclosure
    lo <= x <= hi with 0 <= lo < hi <= 1, built by :func:`decimal_angle`.

    The irrational flavor is trusted, not inferred: callers declaring a
    value irrational get irrational semantics (m*x is never an integer).
    ``source`` tags the construction and fixes the enclosure, so two
    angles are equal exactly when their sources are, e.g.
    ``("decimal", (s, e))`` or ``("complement", source)``.
    """

    lo: Fraction
    hi: Fraction
    source: tuple
    is_rational = False

    def __post_init__(self):
        if not 0 <= self.lo < self.hi <= 1:
            raise ValueError(f"stated enclosure [{self.lo}, {self.hi}] needs 0 <= lo < hi <= 1")

    def enclosure(self, width: Optional[Fraction] = None) -> tuple[Fraction, Fraction]:
        """The stated enclosure, whatever the ``width`` asked for."""
        return self.lo, self.hi

    # -- certified queries ------------------------------------------------

    def _fixed_floor(self, m: int) -> Optional[int]:
        """floor(m*x) when the stated enclosure fixes it, else None."""
        lo, hi = self.lo, self.hi
        f = (m * lo.numerator) // lo.denominator
        return f if f == (m * hi.numerator) // hi.denominator else None

    def floor_mul(self, m: int) -> int:
        _check_multiplier(m)
        return self._floor(m)

    def _floor(self, m: int) -> int:
        f = self._fixed_floor(m)
        if f is None:
            raise _undecided(f"floor({m} * {self!r})")
        return f

    def _side(self, m: int, p: int, q: int) -> str:
        delta = Fraction(p, q)
        f = self._fixed_floor(m)
        if f is not None:
            lo, hi = m * self.lo - f, m * self.hi - f  # bounds on {m*x}
            if hi < delta:
                return "low"
            if lo > 1 - delta:
                return "high"
            if delta < lo and hi < 1 - delta:
                return "mid"
        raise _undecided(f"side of frac({m} * {self!r}) vs delta={delta}")

    def __repr__(self):
        return f"IrrationalAngle(~{float(self):.10f})"


@dataclass(frozen=True, slots=True, eq=False)
class QuadraticAngle(ExactAngle):
    """x = (a + b*sqrt(d))/c in (0, 1) with c > 0, gcd(a, b, c) = 1 and
    sqrt(d) irrational; :func:`quadratic_angle` reduces any other form.

    m*b*sqrt(d) is never an integer, so floor(m*b*sqrt(d)) is
    isqrt(m^2 b^2 d) when b > 0 and -isqrt(m^2 b^2 d) - 1 when b < 0, and
    with c > 0 the floor of m*x needs only that floor of the numerator.
    Every query is therefore exact at every multiplier, ``enclosure`` is
    closed form at every width, and a mean index holds the angle in its
    exact part.
    """

    a: int
    b: int
    c: int
    d: int
    is_rational = False

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        if b == 0:
            raise ValueError("quadratic angle with b = 0 is rational; use rational_angle")
        if d < 2 or isqrt(d) ** 2 == d:
            raise ValueError(f"sqrt({d}) is not irrational")
        if c < 1 or gcd(a, b, c) != 1:
            raise ValueError(f"({a}{b:+}*sqrt({d}))/{c} needs c > 0 and gcd(a, b, c) = 1")
        if self._floor(1) != 0:  # x is irrational: 0 < x < 1 exactly when floor(x) = 0
            raise ValueError(f"({a}{b:+}*sqrt({d}))/{c} lies outside (0,1)")

    def _key(self) -> tuple:
        # x = a/c + sign(b)*sqrt(b^2 d/c^2), and 1 and an irrational sqrt(D) are
        # independent over Q: a canonical key of the value with d unfactored
        return (Fraction(self.a, self.c), self.b > 0,
                Fraction(self.b * self.b * self.d, self.c * self.c))

    def __eq__(self, other):
        return isinstance(other, QuadraticAngle) and self._key() == other._key()

    def __hash__(self):
        return hash(("quadratic", self._key()))

    def floor_mul(self, m: int) -> int:
        _check_multiplier(m)
        return self._floor(m)

    def _floor(self, m: int) -> int:
        f = isqrt(m * m * self.b * self.b * self.d)
        return (m * self.a + (f if self.b > 0 else -f - 1)) // self.c

    def _side(self, m: int, p: int, q: int) -> str:
        # floor(m*x) = floor(q*m*x) // q, so r = floor(q*{m*x}) is the remainder;
        # q*{m*x} is irrational, so it is below p exactly when r < p and above
        # q - p exactly when r >= q - p
        r = self._floor(q * m) % q
        return "low" if r < p else "high" if r >= q - p else "mid"

    def _side_test(self, mult: int, p: int, q: int,
                   side: Optional[str] = None) -> Callable[[int], bool]:
        """The test g -> ``self._side(mult * g, p, q)`` is ``side`` ("low" or
        "high"), or is not "mid" when ``side`` is None, for integers g >= 1,
        with a, b, c, d, mult, p and q folded once.  For n = q*mult*g*a +
        floor(q*mult*g*b*sqrt(d)), floor(q*mult*g*x) = floor(n/c) and its
        remainder mod q is (n mod c*q) // c, so that remainder is below p
        exactly when n mod c*q < p*c, and at least q - p exactly when
        n mod c*q >= (q - p)*c; f ^ -1 is -f - 1, the floor for b < 0."""
        qa, bbd, cq = q * mult * self.a, (q * mult * self.b) ** 2 * self.d, self.c * q
        sign = 0 if self.b > 0 else -1
        low, high = p * self.c, (q - p) * self.c
        # keep g unless its residue lies in [start, stop)
        start, stop = {None: (low, high), "low": (low, cq), "high": (0, high)}[side]
        return lambda g: not start <= (g * qa + (isqrt(g * g * bbd) ^ sign)) % cq < stop

    def _floor_kernel(self, mult: int) -> Callable[[int], int]:
        """The map g -> ``self._floor(mult * g)`` for integers g >= 1, with
        a, b, c, d and mult folded once, as in :meth:`_side_test`."""
        ma, bbd, c = mult * self.a, (mult * self.b) ** 2 * self.d, self.c
        sign = 0 if self.b > 0 else -1
        return lambda g: (g * ma + (isqrt(g * g * bbd) ^ sign)) // c

    def enclosure(self, width: Optional[Fraction] = None) -> tuple[Fraction, Fraction]:
        """The closed-form enclosure, clipped to [0, 1], at the first step
        of sqrt(d) to a multiple of 2**-24, 2**-48, ... no wider than
        ``width`` (the first step when ``width`` is None)."""
        width = None if width is None else _check_tolerance(width)
        k = 24
        while True:
            lo, hi = _quadratic_ends(self.a, self.b, self.c, self.d, k)
            lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
            if width is None or hi - lo <= width:
                return lo, hi
            k += 24

    def __repr__(self):
        return f"QuadraticAngle(({self.a}{self.b:+}*sqrt({self.d}))/{self.c})"


# -- constructors ----------------------------------------------------------


def rational_angle(p, q=None) -> RationalAngle:
    return RationalAngle(Fraction(p, q))


def quadratic_angle(a: int, b: int, c: int, d: int) -> QuadraticAngle:
    """The quadratic irrational (a + b*sqrt(d)) / c, required to lie in (0,1).

    Queries are closed form (see :class:`QuadraticAngle`).
    """
    for name, v in (("a", a), ("b", b), ("c", c), ("d", d)):
        if not isinstance(v, int):
            raise ValueError(f"quadratic coefficient {name} must be an integer")
    if c == 0:
        raise ValueError("quadratic denominator c must be nonzero")
    if c < 0:
        a, b, c = -a, -b, -c
    g = gcd(a, b, c)
    return QuadraticAngle(a // g, b // g, c // g, d)


def decimal_angle(approximant, error) -> IrrationalAngle:
    """An irrational declared by a decimal approximant and error bound:
    the stated enclosure approximant +/- error, clipped to [0, 1].

    Queries needing more precision than the stated error raise
    UndecidableComparison.  Either string is refused with ValueError
    beyond DECIMAL_LIMIT characters or exponent magnitude.
    """
    s, e = str(approximant), str(error)
    approx, err = _bounded_decimal(s), _bounded_decimal(e)
    if err <= 0:
        raise ValueError("error bound must be positive")
    if approx + err <= 0 or approx - err >= 1:
        raise ValueError("enclosure lies outside (0,1)")
    return IrrationalAngle(max(approx - err, Fraction(0)), min(approx + err, Fraction(1)),
                           ("decimal", (s, e)))


def complement_angle(x: ExactAngle) -> ExactAngle:
    """The angle ratio 1 - x (the conjugate rotation e^{-i*theta})."""
    if isinstance(x, RationalAngle):
        return RationalAngle(1 - x.value)
    if isinstance(x, QuadraticAngle):
        return quadratic_angle(x.c - x.a, -x.b, x.c, x.d)
    if isinstance(x, IrrationalAngle):
        return IrrationalAngle(1 - x.hi, 1 - x.lo, ("complement", x.source))
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
        low, high = other.enclosure()
        outside = hi < low or high < lo
    if outside:
        return False
    raise _undecided(f"equality of {x!r} and {y!r}")


# -- helpers ----------------------------------------------------------------


def _undecided(what: str) -> UndecidableComparison:
    """The refusal of a query whose one read did not decide ``what``."""
    return UndecidableComparison(f"{what} undecided")


def _bounded_decimal(s: str, length: int = DECIMAL_LIMIT) -> Fraction:
    """Fraction(s) for a decimal string of at most length characters and
    an exponent within DECIMAL_LIMIT."""
    if len(s) > length:
        raise ValueError(f"decimal string of {len(s)} characters exceeds {length}")
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
    # dispatch through the numbers ABCs, at several times the cost, and
    # one as_integer_ratio call reads both terms faster than two properties
    p, q = f.as_integer_ratio()
    if not (0 < p and 2 * p < q):
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    return f
