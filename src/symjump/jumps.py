"""Search for and verify common index jump tuples.

A jump tuple (N, m_1, ..., m_q) aligns the iterate indices of q paths
around 2N: the odd neighbours 2m_k -/+ 1 return to the initial nullity
and hit prescribed index values, the even iterate 2m_k is sandwiched
within half the elliptic height of 2N, and every rotation angle of every
path lands within delta of an integer multiple at m_k.

The scan walks the lattice m_1 in M*Z (M is the common angle period, so
every rational angle multiple is exact there) and reads the unique
candidate N off seed 1's odd-iterate index.  For every seed the floor
construction gives candidate iterates m_k; each first passes the cheap
checks (the index after the jump, then every angle multiple within delta
of an integer and the required sides), and only when every seed keeps
one is each survivor's record built, once, by the builder
:func:`verify_tuple` uses.  Acceptance also requires the closed form for the even-iterate
index in terms of splitting numbers to agree with direct evaluation;
this rejects candidates whose delta is too coarse for that algebra.

When seed 1 carries a quadratic spectrum angle x, the scan visits only
the lattice steps s where {2*M*s*x} lies within delta of an integer --
about 2*delta of them -- listed directly by :func:`near_returns`; every
other step would fail seed 1's angle-side check.  One bound ends the
scan: past lattice step last_step(n), seed 1's candidate N exceeds n.
The scan visits no step past the bound, which starts at
last_step(n_max) and, as soon as a step brings the hits to ``limit`` or
more, shrinks to last_step of the limit-th smallest N.  Progress is
still reported at the end of every chunk of 2048 steps, up to the first
chunk end past the bound, so the progress calls do not depend on where
within its chunk the scan stopped.  A query that a skipped step or an
earlier cheap check spares never refuses, so such a scan can succeed
where a walk over every step raised UndecidableComparison.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .angles import QuadraticAngle, _check_delta
from .errors import ConstraintViolation, NoTupleFound
from .iteration import PathSeed, index_iterate, nullity_iterate
from .normal_forms import c_total, elliptic_height, splitting_plus_at_one

_CHUNK = 2048  # lattice steps between progress calls
# From delta = 1/4 on 2*delta >= 1/2, so every gap is a candidate.
_WIDE_DELTA = Fraction(1, 4)


_RELATIONS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge}


@dataclass(frozen=True)
class ConditionCheck:
    """One evaluated (in)equality with both sides recorded."""

    name: str
    lhs: int
    rhs: int
    relation: str  # "==", "<=" or ">="

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    @property
    def passed(self) -> bool:
        return _RELATIONS[self.relation](self.lhs, self.rhs)


@dataclass(frozen=True)
class AngleSide:
    """Where {2 * m_k * x} fell for one spectrum angle."""

    kind: str        # "theta" | "alpha" | "beta"
    index: int       # position within the kind's angle list
    rational: bool
    side: str        # "zero" | "low" | "high" | "mid"


@dataclass(frozen=True)
class PathVerification:
    seed_index: int
    conditions: tuple[ConditionCheck, ...]
    angle_sides: tuple[AngleSide, ...]

    @property
    def closeness_ok(self) -> bool:
        return all(s.side != "mid" for s in self.angle_sides)

    @property
    def passed(self) -> bool:
        return self.closeness_ok and all(c.passed for c in self.conditions)

    def irrational_rotation_sides(self) -> tuple[str, ...]:
        return _rotation_sides(self.angle_sides)


def _rotation_sides(sides: Iterable[AngleSide]) -> tuple[str, ...]:
    return tuple(s.side for s in sides if s.kind == "theta" and not s.rational)


@dataclass(frozen=True)
class JumpTuple:
    N: int
    m: tuple[int, ...]
    chi: tuple[int, ...]
    M_period: int
    delta: Fraction
    per_path: tuple[PathVerification, ...]

    @property
    def passed(self) -> bool:
        return all(pv.passed for pv in self.per_path)

    def sort_key(self):
        return (self.N, self.chi)


@dataclass(frozen=True)
class TupleVerification:
    per_path: tuple[PathVerification, ...]

    @property
    def passed(self) -> bool:
        return all(pv.passed for pv in self.per_path)


@dataclass(frozen=True)
class DeltaReport:
    """Splitting-number counts near the even jump iterate."""

    delta_k: int
    delta_k_prime: int
    c_k: int
    s_plus: int


def angle_period(seeds: Sequence[PathSeed]) -> int:
    """Least M with M * theta/pi an integer for every rational angle."""
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    M = 1
    for seed in seeds:
        for _, _, a in seed.decomp.spectrum_angles():
            if a.is_rational:
                M = lcm(M, (2 * a.value).denominator)
    return M


# -- verification ------------------------------------------------------------


def _sides_for(seed: PathSeed, m_k: int, delta: Fraction) -> tuple[AngleSide, ...]:
    out = []
    for kind, idx, a in seed.decomp.spectrum_angles():
        side = a.frac_side(2 * m_k, delta)
        out.append(AngleSide(kind, idx, a.is_rational, side))
    return tuple(out)


def delta_from_sides(sides: Iterable[AngleSide]) -> int:
    """Sum of S^- over spectrum angles whose fractional part fell in (0, delta).

    A rotation block carries S^- = 1 at its own angle only; a nontrivial
    4x4 block carries S^- = 1 at the angle and its conjugate, so either
    side of the pair contributes exactly one.
    """
    total = 0
    for s in sides:
        if s.kind == "theta" and s.side == "low":
            total += 1
        elif s.kind == "alpha" and s.side in ("low", "high"):
            total += 1
    return total


def _path_record(seed: PathSeed, k: int, N: int, m_k: int, lattice_m: int,
                 sides: tuple[AngleSide, ...], i_next: int) -> PathVerification:
    """Path k's eight conditions at (N, m_k), given the floor construction's
    iterate ``lattice_m``, the angle sides at m_k and i_next = i(2*m_k + 1)."""
    d = seed.decomp
    i1, nu1 = seed.i1, seed.nu1
    e_half = elliptic_height(d) // 2
    s_plus = splitting_plus_at_one(d)

    i_prev = index_iterate(seed, 2 * m_k - 1)
    nu_prev = nullity_iterate(seed, 2 * m_k - 1)
    i_even = index_iterate(seed, 2 * m_k)
    nu_even = nullity_iterate(seed, 2 * m_k)
    nu_next = nullity_iterate(seed, 2 * m_k + 1)

    conditions = (
        ConditionCheck("nullity_before_jump", nu_prev, nu1, "=="),
        ConditionCheck("nullity_after_jump", nu_next, nu1, "=="),
        ConditionCheck("index_nullity_before_jump", i_prev + nu_prev,
                       2 * N - (i1 + 2 * s_plus - nu1), "=="),
        ConditionCheck("index_after_jump", i_next, 2 * N + i1, "=="),
        ConditionCheck("even_index_lower", i_even, 2 * N - e_half, ">="),
        ConditionCheck("even_index_nullity_upper", i_even + nu_even,
                       2 * N + e_half, "<="),
        ConditionCheck("even_index_splitting_identity", i_even,
                       index_at_even_jump(seed, N, delta_from_sides(sides)), "=="),
        ConditionCheck("floor_construction_shape", m_k, lattice_m, "=="),
    )
    return PathVerification(k, conditions, sides)


def verify_tuple(t: JumpTuple, seeds: Sequence[PathSeed],
                 budget: Optional[int] = None) -> TupleVerification:
    """Re-evaluate every condition of a tuple from scratch.  ``budget`` is
    accepted and ignored: every angle query decides on one read."""
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("empty seed list")
    if len(t.m) != len(seeds) or len(t.chi) != len(seeds):
        raise ValueError(
            f"tuple holds {len(t.m)} paths but {len(seeds)} seeds were given")
    M = angle_period(seeds)
    records = []
    for k, (seed, m_k, chi_k) in enumerate(zip(seeds, t.m, t.chi)):
        i_next = index_iterate(seed, 2 * m_k + 1)
        sides = _sides_for(seed, m_k, t.delta)
        lattice_m = (seed.mean.floor_quotient(t.N, M) + chi_k) * M
        records.append(_path_record(seed, k, t.N, m_k, lattice_m, sides, i_next))
    return TupleVerification(tuple(records))


# -- search ------------------------------------------------------------------


def near_returns(x: QuadraticAngle, mult: int, delta: Fraction,
                 last: int) -> Iterator[int]:
    """The steps s = 1 .. last with ``x.frac_side(mult * s, delta) != "mid"``,
    in ascending order.

    Write ||t|| for the distance from t to the nearest integer.  For two
    consecutive such steps s < s', ||(s' - s)*mult*x|| < 2*delta, so the
    gap s' - s is one of the candidates g with ||g*mult*x|| < 2*delta
    (0 counts as a step for the first gap).  From each step the candidates
    are tried in ascending order, and the first that lands on a step is
    the gap to the next one.  The candidates are found once, as needed and
    never beyond ``last``; by the three-gap theorem only a few are tried
    per step.  The search for them starts at the first convergent
    denominator q of mult*x with ||q*mult*x|| < 2*delta: by the best
    approximation property of convergents every g < q has
    ||g*mult*x|| >= 2*delta, so a tiny delta costs a few dozen tests, not
    ``last``.  From delta = 1/4 on every g is a candidate and this is the
    plain walk.  Every test is a closed-form quadratic query, which never
    refuses.
    """
    delta = _check_delta(delta)
    wide = delta >= _WIDE_DELTA
    start = 1 if wide else next(q for q in x.convergent_denominators(mult)
                                if q > last or x.frac_side(mult * q, 2 * delta) != "mid")
    fresh = (g for g in range(start, last + 1)
             if wide or x.frac_side(mult * g, 2 * delta) != "mid")
    gaps: list[int] = []
    s = 0
    while True:
        for i in itertools.count():
            if i == len(gaps):
                gaps.extend(itertools.islice(fresh, 1))
            if i == len(gaps) or s + gaps[i] > last:
                return
            if x.frac_side(mult * (s + gaps[i]), delta) != "mid":
                break
        s += gaps[i]
        yield s


def _tuples_at(seeds: tuple[PathSeed, ...], N: int, M: int, delta: Fraction,
               required_sides: Optional[Sequence[Optional[tuple[str, ...]]]],
               first: Optional[tuple[int, int]] = None) -> list[JumpTuple]:
    """The tuples at N; when ``first`` is given, only those with
    m_1 = first[0], whose i(2*m_1 + 1) is first[1].

    Each seed's iterates m_k = (t_k + chi_k)*M, chi_k in {0, 1}, first pass
    the cheap checks: i(2*m_k + 1) = 2N + i1, no angle side "mid" and the
    required sides.  Only when every seed keeps one is each survivor's
    record built, once, seed by seed."""
    survivors = []
    for k, seed in enumerate(seeds):
        t_k = seed.mean.floor_quotient(N, M)
        required = None if required_sides is None else required_sides[k]
        pinned = k == 0 and first is not None
        found = []
        for chi in (0, 1):
            m_k = (t_k + chi) * M
            if m_k < 1 or (pinned and m_k != first[0]):
                continue
            i_next = first[1] if pinned else index_iterate(seed, 2 * m_k + 1)
            if i_next != 2 * N + seed.i1:
                continue
            sides = _sides_for(seed, m_k, delta)
            if all(s.side != "mid" for s in sides) and (
                    required is None or _rotation_sides(sides) == tuple(required)):
                found.append((m_k, chi, sides, i_next))
        if not found:
            return []
        survivors.append(found)
    passing = []
    for k, found in enumerate(survivors):
        records = [(m_k, chi, _path_record(seeds[k], k, N, m_k, m_k, sides, i_next))
                   for m_k, chi, sides, i_next in found]
        passing.append([r for r in records if r[2].passed])
        if not passing[-1]:
            return []
    return [JumpTuple(N, m, chi, M, delta, per_path)
            for m, chi, per_path in (zip(*combo) for combo in itertools.product(*passing))]


def jump_tuples_at(seeds: Sequence[PathSeed], N: int,
                   delta: Fraction = Fraction(1, 1000)) -> list[JumpTuple]:
    """The verified jump tuples at N, as a scan over every N would return
    them, without the scan: seed 1's iterate m_1 = (t + chi)*M,
    t = floor(N/(M*mean)) and chi in {0, 1}, is found like every other
    seed's."""
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    seeds = tuple(seeds)
    return _tuples_at(seeds, N, angle_period(seeds), _check_delta(delta), None)


def _last_step(seed: PathSeed, M: int, n: int) -> int:
    """The last lattice step s whose candidate N can be at most n.

    i(2m+1) >= (2m+1)*mean - slack, so N = (i(2m+1) - i1)/2 <= n needs
    2*M*s <= y - 1 for y = (2n + slack + i1)/mean, and for the integer
    2*M > 0, floor((y - 1)/(2*M)) = floor((floor(y) - 1)/(2*M)).  A
    positive mean makes 2n + slack + i1 positive.
    """
    d = seed.decomp
    slack = 3 * d.r + 2 * d.r_star + d.p_minus + d.p_zero + d.q_zero + d.q_plus
    return (seed.mean.floor_quotient(2 * n + slack + seed.i1, 1) - 1) // (2 * M)


def find_jump_tuples(seeds: Sequence[PathSeed], delta: Fraction = Fraction(1, 1000),
                     n_max: int = 10**6, limit: int = 3, *,
                     budget: Optional[int] = None,
                     required_sides: Optional[Sequence[Optional[tuple[str, ...]]]] = None,
                     exclude: Iterable[int] = (),
                     progress: Optional[Callable[[int, int], None]] = None) -> list[JumpTuple]:
    """Scan for up to ``limit`` verified jump tuples with N <= n_max.

    ``required_sides``, when given, restricts which side of an integer
    each irrational rotation angle multiple must fall on, per seed (used
    to build complementary tuples).  ``exclude`` skips listed N values.
    ``budget`` is accepted and ignored.  Raises NoTupleFound if the scan
    exhausts its bound with no hit.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    delta = _check_delta(delta)
    if n_max < 1 or limit < 1:
        raise ValueError("n_max and limit must be positive")
    for k, seed in enumerate(seeds):
        if seed.mean.cmp(0) <= 0:
            raise ValueError(f"seed {k}: mean index must be positive")
    M = angle_period(seeds)
    exclude_set = frozenset(exclude)

    seed1 = seeds[0]
    d1 = seed1.decomp
    last = _last_step(seed1, M, n_max)
    # Steps off seed 1's near returns fail its angle-side check: skip them.
    pilot = next((a for _, _, a in d1.spectrum_angles() if isinstance(a, QuadraticAngle)),
                 None)
    walk = (near_returns(pilot, 2 * M, delta, last) if pilot is not None
            else iter(range(1, last + 1)))

    hits: list[JumpTuple] = []
    step = next(walk, None)
    for end in itertools.count(_CHUNK, _CHUNK):
        while step is not None and step <= min(end, last):
            m1 = step * M
            i_odd1 = index_iterate(seed1, 2 * m1 + 1)
            N, odd = divmod(i_odd1 - seed1.i1, 2)
            if not odd and 1 <= N <= n_max and N not in exclude_set:
                found = _tuples_at(seeds, N, M, delta, required_sides, (m1, i_odd1))
                hits += found
                # No tuple with N at most the limit-th smallest found lies past its
                # last step; ties at that N are at or before it.
                if found and len(hits) >= limit:
                    last = _last_step(seed1, M, sorted(t.N for t in hits)[limit - 1])
            step = next(walk, None)
        if progress is not None:
            progress(end * M, n_max)
        if end > last:
            break

    hits.sort(key=JumpTuple.sort_key)
    if not hits:
        raise NoTupleFound(
            f"no jump tuple with N <= {n_max} at delta = {delta}; "
            f"raise n_max or loosen delta")
    return hits[:limit]


def flipped_sides(t: JumpTuple) -> tuple[tuple[str, ...], ...]:
    """Opposite side pattern for every irrational rotation angle."""
    flip = {"low": "high", "high": "low"}
    return tuple(tuple(flip[s] for s in pv.irrational_rotation_sides())
                 for pv in t.per_path)


def find_complementary_tuples(seeds: Sequence[PathSeed], first: JumpTuple,
                              n_max: int = 10**6, limit: int = 1,
                              **kwargs) -> list[JumpTuple]:
    """Tuples at ``first``'s delta whose irrational rotation angles all land
    on the opposite side from ``first``, so the two near-integer counts add
    up to the full irrational rotation census."""
    return find_jump_tuples(seeds, first.delta, n_max, limit,
                            required_sides=flipped_sides(first),
                            exclude={first.N}, **kwargs)


# -- jump-side quantities ------------------------------------------------------


def compute_delta(seed: PathSeed, m_k: int, delta: Fraction,
                  complement_m: Optional[int] = None) -> DeltaReport:
    """The near-integer splitting count at m_k, with its complement.

    The complement count is evaluated directly when the paired iterate
    is supplied, otherwise derived from the identity that the two counts
    exhaust the irrational rotation census.
    """
    delta = Fraction(delta)
    d = seed.decomp
    dk = delta_from_sides(_sides_for(seed, m_k, delta))
    irr_census = (d.r - d.r_prime) + 2 * (d.r_star - d.r_star_prime)
    if dk > (d.r - d.r_prime) + (d.r_star - d.r_star_prime):
        raise ConstraintViolation(
            f"near-integer count {dk} exceeds the irrational rotation census; "
            f"m_k = {m_k} does not come from a verified tuple")
    if complement_m is not None:
        dkp = delta_from_sides(_sides_for(seed, complement_m, delta))
        if dk + dkp != irr_census:
            raise ConstraintViolation(
                f"counts {dk} + {dkp} != {irr_census}: iterates {m_k}, {complement_m} "
                f"are not a complementary pair")
    else:
        dkp = irr_census - dk
    return DeltaReport(dk, dkp, c_total(d), splitting_plus_at_one(d))


def index_at_even_jump(seed: PathSeed, N: int, delta_k: int) -> int:
    """Closed form for the even-iterate index: 2N - S^+ - C + 2*delta_k."""
    return 2 * N - splitting_plus_at_one(seed.decomp) - c_total(seed.decomp) + 2 * delta_k
