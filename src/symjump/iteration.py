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
    """The linear growth rate lim i(m)/m: an exact rational plus twice each
    irrational rotation angle.

    When every irrational angle is quadratic, ``surd`` is the exact form
    (L, A0, ((B_1, D_1), ...)) of the value (A0 + sum B_i*sqrt(D_i))/L, with
    L > 0, every B_i nonzero and the D_i in distinct square classes (see
    :func:`_mean_of`).  ``cmp``, ``floor_quotient`` and ``lower_bound``
    then decide in integers, one integer square root per surd at each
    precision tried (see :func:`_decided_floor`), and ignore the budget;
    the sign of the value is certified once, at construction.

    Otherwise they, and ``enclosure`` and ``float`` always, decide on the
    sum of the angles' enclosures at levels 0 .. budget.  The sum at each
    level is memoized: a pure function of the level, so no answer depends
    on earlier queries.
    """

    base: Fraction
    angles: tuple[IrrationalAngle, ...]
    surd: Optional[tuple] = field(default=None, compare=False, repr=False)
    # bits beyond the operands' size at which floor_quotient encloses a
    # positive surd value; None when the value is negative
    _pad: Optional[int] = field(default=None, init=False, compare=False, repr=False)
    _sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.surd is None:
            return
        scale, a0, terms = self.surd
        k = len(terms)
        p, t = _decided_floor(a0, terms)
        if t > 0:
            # v*2**p > t >= 1 for v = A0 + sum B_i*sqrt(D_i), so v >= 2**-e;
            # at p' >= bits(num) - bits(den) + pad bits the enclosure of v is
            # positive and puts num*L/(den*v) in an interval narrower than 2**-31
            e = max(0, p + 1 - t.bit_length())
            self._pad = scale.bit_length() + k.bit_length() + 2 * e + 33

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
        # levels[-1], not len(levels): a budget past 2**63 has no len
        for level in levels[min(first, levels[-1]):]:
            yield self._bounds(level)

    def _positive_surd(self) -> tuple[int, int, tuple]:
        if self._pad is None:
            raise ValueError("mean index must be positive")
        return self.surd

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

    def lower_bound(self, budget: Optional[int] = None) -> Fraction:
        """A certified positive lower bound on a positive mean index, within
        1e-6 of it: the jump scan's step bound."""
        if self.surd is not None:
            scale, a0, terms = self._positive_surd()
            return Fraction(_floor_scaled(a0, terms, self._pad), scale << self._pad)
        if self.is_exact and self.base <= 0:
            raise ValueError("mean index must be positive")
        tol = Fraction(1, 10**6)
        while (lo := self.enclosure(tol, budget)[0]) <= 0:
            tol /= 2**24
        return lo

    def cmp(self, other: Fraction, budget: Optional[int] = None) -> int:
        """Certified comparison against a rational: -1, 0 or +1."""
        other = Fraction(other)
        if self.is_exact:
            v = self.base
            return -1 if v < other else (0 if v == other else 1)
        if self.surd is not None:
            scale, a0, terms = self.surd
            p, q = other.numerator, other.denominator
            return _surd_sign(a0 * q - p * scale, [(b * q, d) for b, d in terms])
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
        if self.surd is not None:
            scale, a0, terms = self._positive_surd()
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
    (so v > t/2**p > 0) or t + k <= 0 (so v < 0), for the value v of
    k >= 1 surds.

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
    """The sign of the value of k >= 1 surds.  For one surd the floor at
    p = 0 is already exact: t + 1 <= 0 whenever t < 0."""
    if len(terms) == 1:
        return 1 if _floor_scaled(a0, terms, 0) >= 0 else -1
    return 1 if _decided_floor(a0, terms)[1] > 0 else -1


def mean_index(seed: PathSeed) -> MeanIndex:
    """The seed's mean index ``seed.mean``, built once with the seed by
    :func:`_mean_of` and shared: its answers depend on no call history."""
    return seed.mean


def _mean_of(i1: int, d: Decomposition) -> MeanIndex:
    """Closed form of lim i(m)/m: i1 + p- + p0 - r + sum of theta_j/pi.

    A quadratic angle (a + b*sqrt(d))/c adds 2a/c to the rational part and
    (2b/c)*sqrt(d) to the irrational one.  When d*d' is a perfect square,
    sqrt(d') = (isqrt(d*d')/d)*sqrt(d), so one term per square class is
    kept, found by that test alone (d is never factored).  Square roots of
    distinct square classes are linearly independent over Q, so the angles
    of a class whose coefficient is zero (x beside 1 - x, say) add their
    rational parts only; when no irrational angle is left the mean index
    is exact.  When every one left is quadratic, the terms scaled to
    integers give the exact form ``surd`` of :class:`MeanIndex`.
    """
    base = Fraction(i1 + d.p_minus + d.p_zero - d.r)
    coefficients = {}    # one radicand per square class -> coefficient of its sqrt
    rational_parts = {}  # the same radicand -> sum of 2a/c over its class's angles
    quadratic = []       # (quadratic angle, its class's radicand)
    others = []          # irrational angles that are not quadratic
    for x in d.theta_angles:
        if x.is_rational:
            base += 2 * x.value
        elif isinstance(x, QuadraticAngle):
            a, b, c, r = x.source[1]
            rep = next((q for q in coefficients if isqrt(q * r) ** 2 == q * r), r)
            coefficients[rep] = (coefficients.get(rep, 0)
                                 + Fraction(2 * b * isqrt(rep * r), c * rep))
            rational_parts[rep] = rational_parts.get(rep, 0) + Fraction(2 * a, c)
            quadratic.append((x, rep))
        else:
            others.append(x)
    if not quadratic and not others:
        return MeanIndex(base, ())
    terms = {r: b for r, b in coefficients.items() if b}
    base += sum(v for r, v in rational_parts.items() if r not in terms)
    angles = tuple(x for x, rep in quadratic if rep in terms) + tuple(others)
    surd = None
    if terms and not others:
        rational = base + sum(rational_parts[r] for r in terms)
        scale = lcm(rational.denominator, *(b.denominator for b in terms.values()))
        surd = (scale, int(rational * scale),
                tuple((int(b * scale), r) for r, b in terms.items()))
    return MeanIndex(base, angles, surd)
