"""Index and nullity iteration for symplectic paths.

A path is summarized by a :class:`PathSeed`: its initial index i1 and
the normal-form decomposition of its endpoint matrix, which fixes the
dimension n and the initial nullity nu1.  The m-th iterate's index
grows linearly in m with a ceiling correction per rotation angle, a
parity term from the -1-eigenvalue blocks and an integrality correction
per nontrivial 4x4 rotation block; the nullity picks up the kernel of
each block's m-th power.  All angle arithmetic is certified, so every
returned integer is exact or the call raises ``UndecidableComparison``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterator, Optional

from .angles import IrrationalAngle, QuadraticAngle, _check_tolerance, _undecided
from .errors import ConstraintViolation, UndecidableComparison
from .normal_forms import Decomposition


@dataclass(frozen=True)
class PathSeed:
    """Initial data of a symplectic path: its index i1 and endpoint normal form.

    The seed derives the dimension ``n`` and the initial nullity ``nu1``
    (the 1-eigenvalue kernel p- + 2*p0 + p+) from ``decomp``, its mean
    index ``mean`` and the census constants of :func:`index_iterate` and
    :func:`nullity_iterate`: pure functions of ``(i1, decomp)``, outside
    equality, hashing and repr, and derived afresh by
    ``dataclasses.replace``.
    """

    i1: int
    decomp: Decomposition
    n: int = field(init=False, compare=False, repr=False)
    nu1: int = field(init=False, compare=False, repr=False)
    mean: MeanIndex = field(init=False, compare=False, repr=False)
    # (m coefficient less i1, constant, [m even] coefficient) of the index
    # and (constant less nu1, [m even] coefficient, angles) of the nullity
    _index_form: tuple = field(init=False, compare=False, repr=False)
    _nullity_form: tuple = field(init=False, compare=False, repr=False)
    # no stated-enclosure angle: no query on the seed refuses
    _exact: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        d = self.decomp
        if d.n < 2:
            raise ValueError(f"manifold dimension must be >= 2, got {d.n}")
        object.__setattr__(self, "n", d.n)
        object.__setattr__(self, "nu1", d.p_minus + 2 * d.p_zero + d.p_plus)
        object.__setattr__(self, "mean", _mean_of(self.i1, d))
        object.__setattr__(self, "_index_form", (d.p_minus + d.p_zero - d.r,
                                                 d.r + d.p_minus + d.p_zero + 2 * d.r_star,
                                                 d.q_zero + d.q_plus))
        object.__setattr__(self, "_nullity_form", (
            2 * (d.r + d.r_star + d.r_zero), d.q_minus + 2 * d.q_zero + d.q_plus,
            d.theta_angles + d.alpha_angles + d.beta_angles))
        object.__setattr__(self, "_exact", not any(
            isinstance(x, IrrationalAngle) for x in self._nullity_form[2]))


@dataclass(frozen=True)
class IterationRow:
    m: int
    index: int
    nullity: int


def _check_iterate(m) -> None:
    """Refuse, before any query, an m that the angle kernels cannot take."""
    if not isinstance(m, int):
        raise ValueError(f"iterate must be an integer, got {m!r}")
    if m < 1:
        raise ValueError("iterate must be positive")


def _check_count(name: str, value) -> None:
    """Refuse, before any query, a count that is not a positive integer."""
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def index_iterate(seed: PathSeed, m: int) -> int:
    """Index of the m-th iterate, m*(i1 + p- + p0 - r) - (r + p- + p0 + 2r*)
    - (q0 + q+)*[m even] + 2*sum ceil(m*theta_j) + 2*sum varphi(m*alpha_j):
    the seed's constants, and each angle's own certified kernel."""
    _check_iterate(m)
    lin, const, even = seed._index_form
    d = seed.decomp
    try:
        total = m * (seed.i1 + lin) - const - (0 if m % 2 else even)
        for x in d.theta_angles:
            total += 2 * x._ceil(m)
        for x in d.alpha_angles:
            total += 2 * x._varphi(m)
    except UndecidableComparison as exc:
        raise UndecidableComparison(f"index of iterate m={m}: {exc}") from exc
    return total


def nullity_iterate(seed: PathSeed, m: int) -> int:
    """Nullity of the m-th iterate, nu1 + (q- + 2q0 + q+)*[m even]
    + 2*sum (1 - varphi(m*x)) over every rotation-type angle x."""
    _check_iterate(m)
    const, even, angles = seed._nullity_form
    nullity = seed.nu1 + const + (0 if m % 2 else even)
    try:
        for x in angles:
            nullity -= 2 * x._varphi(m)
    except UndecidableComparison as exc:
        raise UndecidableComparison(f"nullity of iterate m={m}: {exc}") from exc
    if not 0 <= nullity <= 2 * (seed.n - 1):
        raise ConstraintViolation(
            f"nullity of iterate m={m} is {nullity}, outside [0, {2 * (seed.n - 1)}]")
    return nullity


def iteration_rows(seed: PathSeed, m_max: int) -> Iterator[IterationRow]:
    """Lazy table of (m, index, nullity) for m = 1 .. m_max."""
    _check_count("m_max", m_max)
    return (IterationRow(m, index_iterate(seed, m), nullity_iterate(seed, m))
            for m in range(1, m_max + 1))


def bott_gap(seed: PathSeed, m: int) -> int:
    """i(m+1) - i(m) - nu(m); bounded below by i1 - e/2 for every m."""
    _check_iterate(m)
    return index_iterate(seed, m + 1) - index_iterate(seed, m) - nullity_iterate(seed, m)


@dataclass(frozen=True, slots=True)
class MeanIndex:
    """The linear growth rate lim i(m)/m: one exact part plus twice each
    theta angle that is neither rational nor quadratic.

    ``surd`` is the exact part (L, A0, ((B_1, D_1), ...)), the value
    (A0 + sum B_i*sqrt(D_i))/L of the rational terms and every quadratic
    angle, with L > 0, every B_i nonzero and the D_i in distinct square
    classes (see :func:`_mean_of`); a rational exact part has no terms.
    ``angles`` holds the ``decimal`` angles, each with one stated enclosure.
    A ``surd`` that breaks these terms is refused: its value could be
    rational, and then the reads below would never decide it.

    Every query but a closed form loops over :meth:`_reads`, integer
    bounds on the value, until they decide it.  With such angles there is
    one read.  With none the levels double without end: a value with
    surds is irrational (square roots of distinct square classes are
    linearly independent over Q, Besicovitch 1940), so it is no rational
    and no quotient of it is an integer, and the loop ends.  Nothing is
    memoized, so no answer depends on earlier queries.
    """

    surd: tuple[int, int, tuple]
    angles: tuple[IrrationalAngle, ...] = ()

    def __post_init__(self):
        scale, _, terms = self.surd
        if scale < 1:
            raise ValueError(f"mean index scale L must be >= 1, got {scale}")
        for k, (b, d) in enumerate(terms):
            if b == 0:
                raise ValueError(f"mean index term {b}*sqrt({d}) has a zero coefficient")
            if d < 2 or isqrt(d) ** 2 == d:
                raise ValueError(f"mean index term {b}*sqrt({d}): sqrt({d}) is not irrational")
            for c, e in terms[:k]:
                if isqrt(d * e) ** 2 == d * e:
                    raise ValueError(f"mean index terms {c}*sqrt({e}) and {b}*sqrt({d}) "
                                     f"share a square class")

    @property
    def is_exact(self) -> bool:
        return not self.angles and not self.surd[2]

    def exact(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("mean index has irrational contributions; use enclosure()")
        return Fraction(self.surd[1], self.surd[0])

    def _level_for(self, width: Fraction) -> int:
        """The first level whose exact part, read at 24 bits a level, is no
        wider than ``width`` (> 0)."""
        scale, _, terms = self.surd
        # width >= 2**-e, and 2**p >= k*2**e/L makes k/(L*2**p) <= width
        e = width.denominator.bit_length() - width.numerator.bit_length() + 1
        return -(-max(0, len(terms).bit_length() + e - scale.bit_length() + 1) // 24)

    def _read(self, level: int) -> tuple[int, int, int]:
        """Integers (lo, hi, den) with lo/den <= value <= hi/den.

        With no angle, the exact part read at 24*level bits.  Otherwise,
        at any level, twice the sum of the angles' stated enclosures plus
        the exact part read at least 2**32 times narrower than that sum
        and than 2**-24."""
        scale, a0, terms = self.surd
        if not self.angles:
            t = _floor_scaled(a0, terms, 24 * level)
            return t, t + len(terms), scale << 24 * level
        lo = 2 * sum(a.lo for a in self.angles)
        hi = 2 * sum(a.hi for a in self.angles)
        p = 24 * self._level_for(min(hi - lo, Fraction(1, 1 << 24)) / 2**32)
        t = _floor_scaled(a0, terms, p)
        lo += Fraction(t, scale << p)
        hi += Fraction(t + len(terms), scale << p)
        den = lcm(lo.denominator, hi.denominator)
        return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den

    def _reads(self, first: int) -> Iterator[tuple[int, int, int]]:
        """The reads of one query: with angles, the one read; otherwise
        levels ``first``, then each with twice the bits of the last,
        without end."""
        while True:
            yield self._read(first)
            if self.angles:
                return
            first = 2 * first or 1

    def enclosure(self, tol: Optional[Fraction] = None) -> tuple[Fraction, Fraction]:
        """Certified rational interval around the mean index, no wider than
        tol (default 1e-12)."""
        tol = Fraction(1, 10**12) if tol is None else _check_tolerance(tol)
        for lo, hi, den in self._reads(self._level_for(tol)):
            if (hi - lo) * tol.denominator <= tol.numerator * den:
                return Fraction(lo, den), Fraction(hi, den)
        raise _undecided(f"mean index enclosure of width {tol}")

    def cmp(self, other: Fraction) -> int:
        """Certified comparison against a rational: -1, 0 or +1."""
        other = Fraction(other)
        p, q = other.numerator, other.denominator
        for lo, hi, den in self._reads(0):
            if lo * q > p * den:
                return 1
            if hi * q < p * den:
                return -1
            if lo == hi:
                return 0
        raise _undecided(f"mean index vs {other}")

    def floor_quotient(self, num: int, den: int) -> int:
        """Certified floor(num / (den * value)); value must be positive.
        In closed form when rational, or of one surd and no angle: then
        num*L/(den*(A0 + B*sqrt(D))) = num*L*(A0 - B*sqrt(D))/(den*E) with
        E = A0^2 - B^2*D != 0, one isqrt as in QuadraticAngle.floor_mul."""
        if not (isinstance(num, int) and isinstance(den, int)):
            raise ValueError(f"floor_quotient expects integers, got {num!r} and {den!r}")
        if num < 0 or den < 1:
            raise ValueError("floor_quotient expects num >= 0, den >= 1")
        scale, a0, terms = self.surd
        if not (terms or self.angles) and a0 > 0:
            return num * scale // (den * a0)
        if len(terms) == 1 and not self.angles and num:
            (b, d), = terms
            e = a0 * a0 - b * b * d
            # A0 + B*sqrt(D) has the sign of A0 when E > 0, else of B
            if (a0 if e > 0 else b) > 0:
                k = num * scale if e > 0 else -num * scale  # over den*|E| > 0
                f = isqrt(k * k * b * b * d)  # floor(|k*B|*sqrt(D))
                return (k * a0 + (-f - 1 if k * b > 0 else f)) // (den * abs(e))
        # A level of 24 more bits decides quotients about 2**24 times
        # larger: start 8 to 31 bits past the operands' size.
        first = max(0, (num.bit_length() - den.bit_length() + 31) // 24)
        for lo, hi, d in self._reads(first):
            if lo > 0:
                f = num * d // (den * hi)
                if f == num * d // (den * lo):
                    return f
            elif hi <= 0:
                raise ValueError("mean index must be positive")
        raise _undecided(f"floor({num} / ({den} * mean index))")

    def __float__(self):
        lo, hi, den = self._read(self._level_for(Fraction(1, 2**64)))
        return (lo + hi) / (2 * den)

    def __repr__(self):
        if self.is_exact:
            return f"MeanIndex({self.exact()})"
        return f"MeanIndex(~{float(self):.6f})"


# -- surds: A0 + sum B_i*sqrt(D_i), the D_i non-squares in distinct square classes


def _floor_scaled(a0: int, terms, p: int) -> int:
    """floor(A0*2**p) plus floor(B_i*sqrt(D_i)*2**p) for each surd: one
    integer square root each.  Each B_i*sqrt(D_i)*2**p is irrational, so
    the sum t satisfies t <= v*2**p < t + k for the value v of k surds."""
    t = a0 << p
    for b, d in terms:
        f = isqrt(b * b * d << 2 * p)
        t += f if b > 0 else -f - 1
    return t


def mean_index(seed: PathSeed) -> MeanIndex:
    """The seed's mean index ``seed.mean``, built once with the seed by
    :func:`_mean_of` and shared: its answers depend on no call history."""
    return seed.mean


def _mean_of(i1: int, d: Decomposition) -> MeanIndex:
    """Closed form of lim i(m)/m: i1 + p- + p0 - r + sum of theta_j/pi.

    The rational terms and every quadratic angle make the exact part
    ``surd`` of :class:`MeanIndex`.  A quadratic angle (a + b*sqrt(d))/c
    adds 2a/c to the rational term and (2b/c)*sqrt(d) to a surd.  When
    d*d' is a perfect square, sqrt(d') = (isqrt(d*d')/d)*sqrt(d), so one
    surd per square class is kept, found by that test alone (d is never
    factored).  Square roots of distinct square classes are linearly
    independent over Q, so a class whose coefficient cancels (x beside
    1 - x, say) keeps no term.  The other irrational angles are kept as
    they are.

    Each coefficient is summed as an integer numerator over a positive
    integer denominator and reduced once at the end; L is the lcm of the
    reduced denominators, so ``surd`` is the one that exact rational
    arithmetic would give.
    """
    p, q = i1 + d.p_minus + d.p_zero - d.r, 1  # the rational term p/q
    coefficients = {}  # one radicand per square class -> (num, den) of its sqrt's coefficient
    angles = []        # irrational angles that are not quadratic
    for x in d.theta_angles:
        if x.is_rational:
            num, den = x.value.as_integer_ratio()
            p, q = p * den + 2 * num * q, q * den
        elif isinstance(x, QuadraticAngle):
            a, b, c, r = x.a, x.b, x.c, x.d
            rep = next((s for s in coefficients if isqrt(s * r) ** 2 == s * r), r)
            num, den = coefficients.get(rep, (0, 1))
            # 2b*sqrt(r)/c = (2b*isqrt(rep*r)/(c*rep))*sqrt(rep)
            coefficients[rep] = (num * c * rep + 2 * b * isqrt(rep * r) * den, den * c * rep)
            p, q = p * c + 2 * a * q, q * c
        else:
            angles.append(x)
    g = gcd(p, q)
    p, q = p // g, q // g
    terms = []
    for r, (num, den) in coefficients.items():
        if num:
            g = gcd(num, den)
            terms.append((num // g, den // g, r))
    scale = lcm(q, *(den for _, den, _ in terms))
    return MeanIndex((scale, p * (scale // q),
                      tuple((num * (scale // den), r) for num, den, r in terms)), tuple(angles))
