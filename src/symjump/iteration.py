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

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterator, Optional

from .angles import IrrationalAngle, QuadraticAngle, _levels, _undecided
from .errors import ConstraintViolation, UndecidableComparison
from .normal_forms import Decomposition


@dataclass(frozen=True)
class PathSeed:
    """Initial data of a symplectic path: dimension, index, nullity, endpoint.

    Once validated, the seed derives its mean index ``mean`` and the census
    constants of :func:`index_iterate` and :func:`nullity_iterate`: pure
    functions of the frozen fields, outside equality, hashing and repr, and
    derived afresh by ``dataclasses.replace``.
    """

    n: int
    i1: int
    nu1: int
    decomp: Decomposition
    mean: MeanIndex = field(init=False, compare=False, repr=False)
    # (m coefficient less i1, constant, [m even] coefficient) of the index
    # and (constant less nu1, [m even] coefficient, angles) of the nullity
    _index_form: tuple = field(init=False, compare=False, repr=False)
    _nullity_form: tuple = field(init=False, compare=False, repr=False)

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
        d = self.decomp
        object.__setattr__(self, "mean", _mean_of(self.i1, d))
        object.__setattr__(self, "_index_form", (d.p_minus + d.p_zero - d.r,
                                                 d.r + d.p_minus + d.p_zero + 2 * d.r_star,
                                                 d.q_zero + d.q_plus))
        object.__setattr__(self, "_nullity_form", (
            2 * (d.r + d.r_star + d.r_zero), d.q_minus + 2 * d.q_zero + d.q_plus,
            d.theta_angles + d.alpha_angles + d.beta_angles))


@dataclass(frozen=True)
class IterationRow:
    m: int
    index: int
    nullity: int


def index_iterate(seed: PathSeed, m: int, budget: Optional[int] = None) -> int:
    """Index of the m-th iterate, m*(i1 + p- + p0 - r) - (r + p- + p0 + 2r*)
    - (q0 + q+)*[m even] + 2*sum ceil(m*theta_j) + 2*sum varphi(m*alpha_j):
    the seed's constants, and each angle's own certified query."""
    if m < 1:
        raise ValueError("iterate must be positive")
    lin, const, even = seed._index_form
    d = seed.decomp
    try:
        total = m * (seed.i1 + lin) - const - (0 if m % 2 else even)
        for x in d.theta_angles:
            total += 2 * x.ceil_mul(m, budget)
        for x in d.alpha_angles:
            total += 2 * x.varphi_mul(m, budget)
    except UndecidableComparison as exc:
        raise UndecidableComparison(f"index of iterate m={m}: {exc}") from exc
    return total


def nullity_iterate(seed: PathSeed, m: int, budget: Optional[int] = None) -> int:
    """Nullity of the m-th iterate, nu1 + (q- + 2q0 + q+)*[m even]
    + 2*sum (1 - varphi(m*x)) over every rotation-type angle x."""
    if m < 1:
        raise ValueError("iterate must be positive")
    const, even, angles = seed._nullity_form
    nullity = seed.nu1 + const + (0 if m % 2 else even)
    try:
        for x in angles:
            nullity -= 2 * x.varphi_mul(m, budget)
    except UndecidableComparison as exc:
        raise UndecidableComparison(f"nullity of iterate m={m}: {exc}") from exc
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
    """The linear growth rate lim i(m)/m: one exact part plus twice each
    theta angle that is neither rational nor quadratic.

    ``surd`` is the exact part (L, A0, ((B_1, D_1), ...)), the value
    (A0 + sum B_i*sqrt(D_i))/L of the rational terms and every quadratic
    angle, with L > 0, every B_i nonzero and the D_i in distinct square
    classes (see :func:`_mean_of`); a rational exact part has no terms.
    ``angles`` holds the ``decimal`` and refiner angles.

    With no such angle, ``cmp``, ``floor_quotient``, ``lower_bound`` and
    ``enclosure`` decide from the exact part in integers, one integer
    square root per surd at each precision tried (see
    :func:`_decided_floor`), and never read the budget; the sign of the
    value is certified once, at construction.  Otherwise they decide on
    :meth:`_bounds`, which reads the angles at levels 0 .. budget.  Nothing
    is memoized, so no answer depends on earlier queries.
    """

    surd: tuple[int, int, tuple]
    angles: tuple[IrrationalAngle, ...] = ()
    # bits beyond the operands' size at which floor_quotient encloses a
    # positive exact value; None when the value is not positive or has angles
    _pad: Optional[int] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.angles:
            return
        scale, a0, terms = self.surd
        p, t = _decided_floor(a0, terms)
        if t > 0:
            # v*2**p > t >= 1 for v = A0 + sum B_i*sqrt(D_i), so v >= 2**-e;
            # at p' >= bits(num) - bits(den) + pad bits the enclosure of v is
            # positive and puts num*L/(den*v) in an interval narrower than 2**-31
            e = max(0, p + 1 - t.bit_length())
            self._pad = scale.bit_length() + len(terms).bit_length() + 2 * e + 33

    @property
    def is_exact(self) -> bool:
        return not self.angles and not self.surd[2]

    def exact(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("mean index has irrational contributions; use enclosure()")
        return Fraction(self.surd[1], self.surd[0])

    def _exact_part(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """The exact part enclosed in closed form, no wider than ``width``
        (> 0), read at the first multiple of 24 bits (a quadratic angle's
        level step) that is narrow enough."""
        scale, a0, terms = self.surd
        k = len(terms)
        # width >= 2**-e, and 2**p >= k*2**e/L makes k/(L*2**p) <= width
        e = width.denominator.bit_length() - width.numerator.bit_length() + 1
        p = -(-max(0, k.bit_length() + e - scale.bit_length() + 1) // 24) * 24
        t = _floor_scaled(a0, terms, p)
        return Fraction(t, scale << p), Fraction(t + k, scale << p)

    def _bounds(self, budget: Optional[int], first: int = 0):
        """Bounds at levels first .. budget of the angles, first clipped to
        the budget: twice the sum of their enclosures plus the exact part
        read at least 2**32 times narrower than that sum, and than a
        quadratic angle's enclosure at the level."""
        levels = _levels(budget, self.angles)
        # levels[-1], not len(levels): a budget past 2**63 has no len
        for level in levels[min(first, levels[-1]):]:
            ends = [a.enclosure_at(level) for a in self.angles]
            lo = 2 * sum(a_lo for a_lo, _ in ends)
            hi = 2 * sum(a_hi for _, a_hi in ends)
            s_lo, s_hi = self._exact_part(min(hi - lo, Fraction(1, 1 << 24 * (level + 1)))
                                          / 2**32)
            yield lo + s_lo, hi + s_hi

    def _positive_surd(self) -> tuple[int, int, tuple]:
        if self._pad is None:
            raise ValueError("mean index must be positive")
        return self.surd

    def enclosure(self, tol: Optional[Fraction] = None,
                  budget: Optional[int] = None) -> tuple[Fraction, Fraction]:
        """Certified rational interval around the mean index, no wider than
        tol (default 1e-12)."""
        tol = Fraction(1, 10**12) if tol is None else Fraction(tol)
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        if not self.angles:
            return self._exact_part(tol)
        for lo, hi in self._bounds(budget):
            if hi - lo <= tol:
                return lo, hi
        raise _undecided(f"mean index enclosure of width {tol}", budget, self.angles)

    def lower_bound(self, budget: Optional[int] = None) -> Fraction:
        """A certified positive lower bound on a positive mean index, within
        1e-6 of it: the jump scan's step bound.  A mean index certified
        negative raises ValueError."""
        if not self.angles:
            scale, a0, terms = self._positive_surd()
            return Fraction(_floor_scaled(a0, terms, self._pad), scale << self._pad)
        if self.cmp(0, budget) < 0:
            raise ValueError("mean index must be positive")
        tol = Fraction(1, 10**6)
        while (lo := self.enclosure(tol, budget)[0]) <= 0:
            tol /= 2**24
        return lo

    def cmp(self, other: Fraction, budget: Optional[int] = None) -> int:
        """Certified comparison against a rational: -1, 0 or +1."""
        other = Fraction(other)
        if not self.angles:
            scale, a0, terms = self.surd
            p, q = other.numerator, other.denominator
            return _surd_sign(a0 * q - p * scale, [(b * q, d) for b, d in terms])
        for lo, hi in self._bounds(budget):
            if lo > other:
                return 1
            if hi < other:
                return -1
        raise _undecided(f"mean index vs {other}", budget, self.angles)

    def floor_quotient(self, num: int, den: int, budget: Optional[int] = None) -> int:
        """Certified floor(num / (den * value)); value must be positive."""
        if num < 0 or den < 1:
            raise ValueError("floor_quotient expects num >= 0, den >= 1")
        if not self.angles:
            scale, a0, terms = self._positive_surd()
            if not terms:
                return num * scale // (den * a0)
            k = len(terms)
            # t <= v*2**p < t + k for v = value*L, and t > 0
            p = max(num.bit_length() - den.bit_length(), 0) + self._pad
            t = _floor_scaled(a0, terms, p)
            n = num * scale << p
            f = n // (den * (t + k))
            if f == n // (den * t):
                return f
            # the enclosure is narrower than 1: the floor is f or f + 1,
            # as num*L - den*(f + 1)*v is negative or positive
            g = den * (f + 1)
            return f + (_surd_sign(num * scale - g * a0, [(-g * b, d) for b, d in terms]) > 0)
        # A level of 24 more bits decides quotients about 2**24 times larger,
        # so start near the level the operands' size needs.
        first = max(0, (num.bit_length() - den.bit_length()) // 24 - 1)
        for lo, hi in self._bounds(budget, first):
            if lo.numerator > 0:
                f = (num * hi.denominator) // (den * hi.numerator)
                if f == (num * lo.denominator) // (den * lo.numerator):
                    return f
            elif hi.numerator <= 0:
                raise ValueError("mean index must be positive")
        raise _undecided(f"floor({num} / ({den} * mean index))", budget, self.angles)

    def __float__(self):
        lo, hi = next(self._bounds(0)) if self.angles else self._exact_part(Fraction(1, 2**64))
        return float((lo + hi) / 2)

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


def _norm_bits(h: int, k: int) -> int:
    """Bits p with |v|*2**p > k for the value v of k >= 1 surds of height h.

    v is nonzero: square roots of distinct square classes are linearly
    independent over Q (Besicovitch 1940).  For the same reason each of its
    2**k conjugates A0 +/- B_1*sqrt(D_1) +/- ... is nonzero, and their
    product is an integer (each sign flip leaves it unchanged), hence at
    least 1 in size.  Each conjugate is below the height
    H = |A0| + sum |B_i|*(isqrt(D_i) + 1), so |v| >= H**-(2**k - 1).
    """
    return ((1 << k) - 1) * h.bit_length() + (k + 1).bit_length() + 1


def _decided_floor(a0: int, terms) -> tuple[int, int]:
    """The first (p, t) with t = _floor_scaled(a0, terms, p) and t >= 1
    (so v > t/2**p > 0) or t + k <= 0 (so v <= 0), for the value v of
    k surds (A0 when k = 0).

    p starts at bits(H) + 64 and doubles.  Most values show their sign
    there; the norm bound of :func:`_norm_bits`, which grows as 2**k, is
    only the cap that makes the search end: at it |v|*2**p > k, which rules
    out -k < t < 1.
    """
    k = len(terms)
    h = abs(a0) + sum(abs(b) * (isqrt(d) + 1) for b, d in terms)
    cap = _norm_bits(h, k)
    p = min(h.bit_length() + 64, cap)
    while True:
        t = _floor_scaled(a0, terms, p)
        if t >= 1 or t + k <= 0:
            return p, t
        if p == cap:
            raise ArithmeticError(f"surd sign undecided at t = {t} for {k} surds")
        p = min(2 * p, cap)


def _surd_sign(a0: int, terms) -> int:
    """The sign of the value of k surds: that of A0 when k = 0.  For one
    surd the floor at p = 0 is already exact: t + 1 <= 0 whenever t < 0."""
    if not terms:
        return (a0 > 0) - (a0 < 0)
    if len(terms) == 1:
        return 1 if _floor_scaled(a0, terms, 0) >= 0 else -1
    return 1 if _decided_floor(a0, terms)[1] > 0 else -1


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
    """
    rational = Fraction(i1 + d.p_minus + d.p_zero - d.r)
    coefficients = {}  # one radicand per square class -> coefficient of its sqrt
    angles = []        # irrational angles that are not quadratic
    for x in d.theta_angles:
        if x.is_rational:
            rational += 2 * x.value
        elif isinstance(x, QuadraticAngle):
            a, b, c, r = x.source[1]
            rep = next((q for q in coefficients if isqrt(q * r) ** 2 == q * r), r)
            coefficients[rep] = (coefficients.get(rep, 0)
                                 + Fraction(2 * b * isqrt(rep * r), c * rep))
            rational += Fraction(2 * a, c)
        else:
            angles.append(x)
    terms = {r: b for r, b in coefficients.items() if b}
    scale = lcm(rational.denominator, *(b.denominator for b in terms.values()))
    return MeanIndex((scale, int(rational * scale),
                      tuple((int(b * scale), r) for r, b in terms.items())), tuple(angles))
