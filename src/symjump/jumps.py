"""Search for and verify common index jump tuples.

A jump tuple (N, m_1, ..., m_q) aligns the iterate indices of q paths
around 2N: the odd neighbours 2m_k -/+ 1 return to the initial nullity
and hit prescribed index values, the even iterate 2m_k is sandwiched
within half the elliptic height of 2N, and every rotation angle of every
path lands within delta of an integer multiple at m_k.

For each candidate N, :func:`_tuples_at` takes every seed's candidate
iterates m_k = (t_k + chi_k)*M from the floor construction (M is the
common angle period, so every rational angle multiple is exact on M*Z);
each first passes the cheap checks on the names of its angle sides (the
index after the jump, then every angle multiple within delta of an
integer and the required sides), and only when every seed keeps one is
each survivor's record, with its AngleSide tuple, built once by the code
:func:`verify_tuple` also uses.  Acceptance also requires the closed form
for the even-iterate index in terms of splitting numbers to agree with
direct evaluation; this rejects candidates whose delta is too coarse for
that algebra.

The candidate N come from one lattice walk.  It visits seed 1's lattice
steps m_1 = s*M and reads the unique candidate N off seed 1's odd-iterate
index.  When seed 1's steps number more than n_max in a system that is
not rational-only, the scan walks N = 1 .. n_max instead, so no scan
tries more than n_max + 1 candidates.  The step count is the length of a
range, or for a quadratic angle x of seed 1 the estimate w*last,
w = 2*delta (or delta on a side fixed by the required sides), checked by
counting at most n_max + 1 of x's near returns (:func:`_joint_returns`)
when it is at most n_max < last; the count only picks the route.

:func:`_pilot_steps` gives the walk its steps and the tests a step must
still pass before seed 1's index is read.  When every spectrum angle of
every seed is rational, the tuples lie at exactly the multiples of
P = lcm_k(M*mu_k), one at each (:func:`_pilot_steps` proves it), at seed
1's steps j*S, S = P/(M*mu_1): the walk visits those only and its work
is O(limit) whatever n_max is.  Otherwise a step needs, for each later
seed k with a quadratic angle, some u in the window of its candidate
u_k = m_k/M where all of seed k's quadratic angles come within delta of
an integer at multiplier 2M (on their required sides).  By the closed
form of the odd index, i(m) - m*mu in [-c, -c + 2*(#theta + #alpha)],
c = ``_index_form[1]``, 2N lies in [(2sM + 1)*mu_1 - c_1 - i1_1,
(2sM + 1)*mu_1 - c_1 - i1_1 + 2*(#theta_1 + #alpha_1)], so u_k lies in
[floor(N_lo/(M*mu_k)), floor(N_hi/(M*mu_k)) + 1] (:func:`_window`), read
off integer bounds on the means that never refuse: a few u.  The walk
visits only the steps where all of seed 1's quadratic angles pass (every
step when it has none), about 2*delta of them for one free angle.  When
no later seed has a window (:func:`_windows`), :func:`_joint_returns`
lists them: for one angle by a flat walk whose gaps take three values
found up front (the three-gap theorem), for more by taking the gaps
between them from the same search at doubled widths; otherwise
:func:`_pair_returns` pairs seed 1 with the first such seed, listing the
steps where some u in the window also passes all of that seed's angles
(the same gap lemma one dimension up), and each later one reads the u of
each step's window (:func:`_in_window`).

One bound ends the walk: past lattice step
last_step(n), seed 1's candidate N exceeds n.  The walk visits no step
past the bound, which starts at
last_step(n_max) and, as soon as a step brings the hits to ``limit`` or
more, shrinks to last_step of the limit-th smallest N (a rational-only
walk stops at that step).  Progress is
still reported at the end of every chunk of 2048 steps, up to the first
chunk end past the bound, so the progress calls do not depend on where
within its chunk the walk stopped, how sparse its steps are or which of
them a test dropped; the N-walk counts its chunks in N.  A query that a
skipped or dropped step or an earlier cheap check spares never refuses,
so such a scan can succeed where a walk over every step raised
UndecidableComparison.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import inf, isqrt, lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .angles import QuadraticAngle, _check_delta, _check_multiplier
from .errors import ConstraintViolation, NoTupleFound
from .iteration import PathSeed, _check_count, _index_slack, index_iterate, nullity_iterate
from .normal_forms import c_total, elliptic_height, splitting_plus_at_one

_CHUNK = 2048  # lattice steps between progress calls
# Most bits of 1/delta.  A search over two or more angles nests one frame per
# bit.  One angle's flat walk does not nest; its refusal is kept only so that
# no outcome changes, as lifting it would turn refusals into answers.
_DELTA_BITS = 800


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
        return tuple(s.side for s in self.angle_sides if s.kind == "theta" and not s.rational)


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


def _side_names(seed: PathSeed, m_k: int, p: int, q: int) -> tuple[str, ...]:
    """Where {2 * m_k * x} falls for every spectrum angle x, in order, by
    the unchecked kernels: the caller checked m_k >= 1 and delta = p/q."""
    return tuple([a._side(2 * m_k, p, q) for _, _, a in seed.decomp.spectrum_angles()])


def _angle_sides(seed: PathSeed, names: Sequence[str]) -> tuple[AngleSide, ...]:
    return tuple(AngleSide(kind, idx, a.is_rational, side)
                 for (kind, idx, a), side in zip(seed.decomp.spectrum_angles(), names))


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
    """Re-evaluate every condition of a tuple from scratch; a path count, M
    or chi that does not fit the seeds, an N or m entry that is not a
    positive integer (named by :func:`_check_count`), or a delta
    outside (0, 1/2) raises ValueError, before any query.  ``budget`` is
    accepted and ignored: every angle query decides on one read."""
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("empty seed list")
    if len(t.m) != len(seeds) or len(t.chi) != len(seeds):
        raise ValueError(
            f"tuple holds {len(t.m)} paths but {len(seeds)} seeds were given")
    try:
        for name, value in (("N", t.N), *((f"m[{k}]", m_k) for k, m_k in enumerate(t.m))):
            _check_count(name, value)
        p, q = _check_delta(t.delta).as_integer_ratio()
    except ValueError as e:
        raise ValueError(f"tuple at N = {t.N}: {e}") from None
    M = angle_period(seeds)
    if t.M_period != M or any(chi_k not in (0, 1) for chi_k in t.chi):
        raise ValueError(f"tuple at N = {t.N} stores M = {t.M_period} and chi = {t.chi}, "
                         f"but the seeds give M = {M} and each chi entry is 0 or 1")
    records = []
    for k, (seed, m_k, chi_k) in enumerate(zip(seeds, t.m, t.chi)):
        i_next = index_iterate(seed, 2 * m_k + 1)
        sides = _angle_sides(seed, _side_names(seed, m_k, p, q))
        lattice_m = (seed.mean.floor_quotient(t.N, M) + chi_k) * M
        records.append(_path_record(seed, k, t.N, m_k, lattice_m, sides, i_next))
    return TupleVerification(tuple(records))


# -- search ------------------------------------------------------------------


_Widths = list[tuple[QuadraticAngle, Optional[str], Fraction]]


def _joint_returns(angles: _Widths, mult: int, last: int) -> Iterator[int]:
    """The steps s = 1 .. ``last``, ascending, where {mult*s*x} lies within
    w of an integer for every (x, side, w) of ``angles``, on ``side``
    ("low" or "high") when it is set: the joint near returns of the angles.
    The scan counts seed 1's near returns here to pick its route, and the
    lattice walk takes its steps from :func:`_pilot_steps`.

    One angle is a flat walk.  Write y = mult*x and J for its target on the
    circle R/Z: the arc (-w, w), of length L = 2*w, or on a fixed side
    (0, w) or (1 - w, 1), of length L = w.  Let a be the least g >= 1 with
    {g*y} in (0, L), b the least with {g*y} in (1 - L, 1), A = {a*y} and
    B = 1 - {b*y}, both in (0, L).  Place a step s (0 counts as a step) at
    t in [0, L), its distance from the start of J; no s*y with s >= 1 is
    rational, so only the origin can sit on an end of J, and a "high"
    origin at the far end is the mirror image of a "low" one under
    y -> -y, which swaps a and b.
    (1) No g < min(a, b) moves a step into J: {g*y} lies in [L, 1 - L], so
        t + {g*y} lies in [L, 1).
    (2) A g < b that moves s into J moves it right by d = {g*y} < L, as d
        is not in (1 - L, 1); so g >= a and d >= A, or else
        {(g - a)*y} = 1 + d - A lies in (1 - L, 1) with g - a < b.  So when
        s + a misses J (t + A >= L) no g < b lands in it; likewise, when
        s + b misses (t < B) no g < a lands.
    (3) When both miss, t lies in [L - A, B) and s + a + b lands, at
        t + A - B in [L - B, A).  No g between max(a, b) and a + b lands
        first, or a + b - g < min(a, b) would move that landing into J,
        against (1).
    So from each step the walk tries s + min(a, b), then s + max(a, b), and
    when both miss takes s + a + b with no read (the three-gap theorem:
    Slater 1967).

    a and b come from an exact Stern-Brocot walk.  It keeps Farey
    neighbours h0/g0 < y < h1/g1 (h1*g0 - h0*g1 = 1), from floor(y)/1 and
    (floor(y) + 1)/1, with e0 = g0*y - h0 and e1 = h1 - g1*y in (0, 1).
    Every integer pair (g, h) is i*(g0, h0) + j*(g1, h1) for integers i, j,
    and 1 <= g < g0 + g1 leaves one of i, j at most 0 and the other at
    least 1, so g*y - h = i*e0 - j*e1 is at least e0 or at most -e1: for
    those g, {g*y} >= e0 and 1 - {g*y} >= e1.  Each mediant
    (h0 + h1)/(g0 + g1) replaces the neighbour on its side of y, so a is
    the first lower neighbour with e0 < L and b the first upper one with
    e1 < L.  A run of k moves on one side takes h0 + k*h1 over g0 + k*g1
    (or the mirror), which nears y by e1 (or e0) per move, so
    floor(q*distance) falls as k grows and turns negative once the
    neighbour crosses y.  The walk gallops through each run: it doubles k
    while the neighbour stays on its side, and before a (or b) is found at
    least L from y, then bisects.  With L = p/q, one read of
    floor(q*g*y) gives floor(g*y) as its quotient by q and
    floor(q*{g*y}) as its remainder, and each g is read once.  The walk
    ends once a and b are found, or when the next neighbour passes
    ``last``, and reports any not found as last + 1: no step up to
    ``last`` needs it.

    Two or more angles keep a search at doubled widths, as the three-gap
    theorem is one-dimensional.  Write ||t|| for the distance from t to the
    nearest integer.  Two consecutive steps s < s' (0 counts as a step)
    have ||(s' - s)*y|| < 2*w for each angle, or < w when both lie on its
    fixed side, so the gap s' - s passes every angle at its doubled width
    (:func:`_gaps`).  From each step these candidates are tried in
    ascending order, and the first that lands on a step is the gap to the
    next one.  Each search pulls its candidates once, as needed; an angle
    whose doubled width reaches 1/2 drops out, and a search left with one
    angle is a flat walk, so a tiny w nests at most about log2(1/w)
    searches of a few tests each.

    For x = (a + b*sqrt(d))/c and the integer p nearest g*mult*x,
    u = g*mult*a - p*c and v = g*mult*b*sqrt(d) make u^2 - v^2 a nonzero
    integer, so for g <= last
    ||g*mult*x|| = |u + v|/c >= 1/(c*|u - v|) > 1/(c*(c + 2*last*mult*|b|*(isqrt(d)+1))).
    When that is at least w for some angle there is no step and the search
    ends at once (:func:`_no_return`); otherwise a width of at most 2**-800
    raises ValueError (see ``_DELTA_BITS``).  Every read is one call of a
    kernel that :class:`QuadraticAngle` folds once per search
    (:meth:`~QuadraticAngle._side_test`, or
    :meth:`~QuadraticAngle._floor_kernel` for a and b), one integer square
    root, which never refuses."""
    if any(_no_return(x, mult, *w.as_integer_ratio(), last) for x, _, w in angles):
        return
    bits = max((w.denominator // w.numerator).bit_length() for _, _, w in angles)
    if bits > _DELTA_BITS:
        raise ValueError(f"delta at most 2**-{_DELTA_BITS} is finer than the near-return search "
                         f"takes (1/delta has {bits} bits); loosen delta or lower n_max")
    if len(angles) == 1:
        (x, side, w), = angles
        p, q = w.as_integer_ratio()
        wanted = x._side_test(mult, p, q, side)
        near, far = sorted(_three_gaps(x, mult, p if side else 2 * p, q, last))
        both, s = near + far, 0
        while s + near <= last:
            if wanted(s + near):
                s += near
            elif s + far <= last and wanted(s + far):
                s += far
            elif s + both <= last:
                s += both
            else:
                return
            yield s
        return
    fresh = _gaps(angles, mult, last)
    wanted = _all_of([x._side_test(mult, *w.as_integer_ratio(), side) for x, side, w in angles])
    gaps, s = [], 0
    while True:
        i = 0
        while True:
            if i == len(gaps):
                g = next(fresh, None)
                if g is None:
                    return
                gaps.append(g)
            g = gaps[i]
            if s + g > last:
                return
            if wanted(s + g):
                break
            i += 1
        s += g
        yield s


def _three_gaps(x: QuadraticAngle, mult: int, p: int, q: int, last: int) -> tuple[int, int]:
    """(a, b) of :func:`_joint_returns` for L = p/q < 1: the least g >= 1
    with {g*mult*x} in (0, L) and the least with it in (1 - L, 1), either
    last + 1 when it passes ``last``, by the galloping Stern-Brocot walk
    proved there."""
    if last < 1:
        return last + 1, last + 1
    floor = cache(x._floor_kernel(q * mult))  # g -> floor(q*g*mult*x)

    def rest(j: int, g: int, h: int) -> int:
        """floor(q*(g*mult*x - h)) for j = 0 (h/g below mult*x) and
        floor(q*(h - g*mult*x)) for j = 1 (above): the scaled distance,
        negative once h/g has crossed to the other side."""
        return (floor(g) - q * h) ^ -j

    h = floor(1) // q
    ends = [(1, h), (1, h + 1)]  # (g, h) of the lower and the upper neighbour
    found = [1 if rest(j, *ends[j]) < p else None for j in (0, 1)]
    j = 0
    while None in found:
        (g0, h0), (g1, h1) = ends[j], ends[1 - j]

        def keeps(k: int, least: int) -> bool:
            return g0 + k * g1 <= last and rest(j, g0 + k * g1, h0 + k * h1) >= least

        least = 0 if found[j] else p  # until found, a run stops short of L from y
        k = _gallop(lambda k: keeps(k, least), 0)
        if least and keeps(k + 1, 0):
            found[j] = g0 + (k + 1) * g1
            k = _gallop(lambda k: keeps(k, 0), k + 1)
        if g0 + (k + 1) * g1 > last:
            break
        ends[j], j = (g0 + k * g1, h0 + k * h1), 1 - j
    return tuple(last + 1 if g is None else g for g in found)


def _gallop(holds: Callable[[int], bool], k: int) -> int:
    """The largest k' >= k with holds(k'), for a ``holds`` that is true at k
    and stays false once false: doubling steps, then bisection."""
    step = 1
    while holds(k + step):
        k, step = k + step, 2 * step
    while step > 1:
        step //= 2
        if holds(k + step):
            k += step
    return k


def _all_of(tests: list[Callable[[int], bool]]) -> Callable[[int], bool]:
    """The test g -> every one of ``tests`` passes at g, read in order up to
    the first that fails: the only one itself, two or three joined by
    ``and`` (a generator per call costs more than the kernels it joins), and
    any other number, none included, by ``all``."""
    if len(tests) == 1:
        return tests[0]
    if len(tests) == 2:
        t0, t1 = tests
        return lambda g: t0(g) and t1(g)
    if len(tests) == 3:
        t0, t1, t2 = tests
        return lambda g: t0(g) and t1(g) and t2(g)
    return lambda g: all(test(g) for test in tests)


def _gaps(angles: _Widths, mult: int, last: int) -> Iterator[int]:
    """The candidate gaps g = 1 .. ``last`` between consecutive steps of
    :func:`_joint_returns` (``angles``), ascending: the steps at which every
    angle passes two-sided at its doubled width, w when its side is set
    (two steps on one side differ by less than w) and 2*w otherwise; an
    angle whose doubled width reaches 1/2 constrains no gap, and with none
    left every g is a candidate."""
    doubled = [(x, None, w if side else 2 * w) for x, side, w in angles]
    kept = [a for a in doubled if 2 * a[2] < 1]
    return _joint_returns(kept, mult, last) if kept else iter(range(1, last + 1))


def _no_return(x: QuadraticAngle, mult: int, p: int, q: int, last: int) -> bool:
    """Whether the Liouville bound of :func:`_joint_returns` leaves no step
    s = 1 .. last with {mult*s*x} within p/q of an integer."""
    return p * x.c * (x.c + 2 * last * mult * abs(x.b) * (isqrt(x.d) + 1)) <= q


_SideRules = tuple[Optional[tuple[tuple[int, str], ...]], ...]


def _side_rules(seeds: tuple[PathSeed, ...],
                required_sides: Optional[Sequence[Optional[Sequence[str]]]]) -> _SideRules:
    """Per seed, the (position in ``spectrum_angles()``, side) pairs that
    ``required_sides`` fixes, None where the seed's sides are free; a pattern
    that :func:`find_jump_tuples` does not accept raises ValueError naming
    the entry.  Called once per scan, before any angle query."""
    required_sides = (None,) * len(seeds) if required_sides is None else required_sides
    if not isinstance(required_sides, (tuple, list)) or len(required_sides) != len(seeds):
        raise ValueError(f"required_sides must hold one entry per seed ({len(seeds)}), "
                         f"got {required_sides!r}")
    rules = []
    for k, (seed, required) in enumerate(zip(seeds, required_sides)):
        rotation = [j for j, (kind, _, a) in enumerate(seed.decomp.spectrum_angles())
                    if kind == "theta" and not a.is_rational]
        if required is not None and (
                not isinstance(required, (tuple, list)) or len(required) != len(rotation)
                or any(side not in ("low", "high") for side in required)):
            raise ValueError(
                f"required_sides[{k}] = {required!r}: seed {k} needs 'low' or 'high' "
                f"for each of its {len(rotation)} irrational rotation angles, or None")
        rules.append(None if required is None else tuple(zip(rotation, required)))
    return tuple(rules)


def _tuples_at(seeds: tuple[PathSeed, ...], N: int, M: int, delta: Fraction,
               rules: _SideRules, first: Optional[tuple[int, int]] = None) -> list[JumpTuple]:
    """The tuples at N; when ``first`` is given, only those with
    m_1 = first[0], whose i(2*m_1 + 1) is first[1].

    Each seed's iterates m_k = (t_k + chi_k)*M, chi_k in {0, 1}, first pass
    the cheap checks, on the side names: i(2*m_k + 1) = 2N + i1, no angle
    side "mid" and the sides its ``rules`` fix (see :func:`_side_rules`).
    A pinned seed 1 is checked last, when no other seed has a ``decimal``
    angle to refuse a query: its floor_quotient only gives chi_1 and the
    walk has mostly read its sides.  Only when every seed keeps one is each
    survivor's record built, with its AngleSide tuple, once, in seed order."""
    p, q = delta.as_integer_ratio()
    survivors = [None] * len(seeds)
    late = first is not None and all([seed._exact for seed in seeds[1:]])
    for k in [*range(1, len(seeds)), 0] if late else range(len(seeds)):
        seed, rule = seeds[k], rules[k]
        t_k = seed.mean.floor_quotient(N, M)
        pinned = k == 0 and first is not None
        found = []
        for chi in (0, 1):
            m_k = (t_k + chi) * M
            if m_k < 1 or (pinned and m_k != first[0]):
                continue
            i_next = first[1] if pinned else index_iterate(seed, 2 * m_k + 1)
            if i_next != 2 * N + seed.i1:
                continue
            names = _side_names(seed, m_k, p, q)
            if "mid" not in names and (
                    rule is None or all(names[j] == side for j, side in rule)):
                found.append((m_k, chi, names, i_next))
        if not found:
            return []
        survivors[k] = found
    passing = []
    for k, (seed, found) in enumerate(zip(seeds, survivors)):
        records = [(m_k, chi,
                    _path_record(seed, k, N, m_k, m_k, _angle_sides(seed, names), i_next))
                   for m_k, chi, names, i_next in found]
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
    _check_count("N", N)
    seeds = tuple(seeds)
    return _tuples_at(seeds, N, angle_period(seeds), _check_delta(delta), (None,) * len(seeds))


def _last_step(seed: PathSeed, M: int, n: int) -> int:
    """The last lattice step s whose candidate N can be at most n.

    i(2m+1) >= (2m+1)*mean - slack (:func:`_index_slack`), so
    N = (i(2m+1) - i1)/2 <= n needs 2*M*s <= y - 1 for y = (2n + slack +
    i1)/mean, and for the integer 2*M > 0, floor((y - 1)/(2*M)) =
    floor((floor(y) - 1)/(2*M)).  A positive mean makes 2n + slack + i1
    positive.
    """
    slack = _index_slack(seed.decomp)
    return (seed.mean.floor_quotient(2 * n + slack + seed.i1, 1) - 1) // (2 * M)


def _pilot_steps(seeds: tuple[PathSeed, ...], M: int, delta: Fraction, rules: _SideRules,
                 last: int, stride: Optional[int]
                 ) -> tuple[Iterable[int], list[Callable[[int], bool]]]:
    """Seed 1's lattice steps 1 .. ``last`` that the lattice walk visits,
    ascending, and the tests a step must still pass before seed 1's index is
    read; a step left out or failing a test holds no tuple.
    - When every spectrum angle is rational (``stride`` is None otherwise),
      the multiples of ``stride`` = S = P/(M*mu_1), with no test: off them
      some seed fails its index check (proof below).
    - When no later seed has a window of :func:`_windows`, the steps where
      every quadratic angle of seed 1 passes at m_1 = s*M, on the side
      ``rules`` fix for it, if any, from :func:`_joint_returns` (every
      step when seed 1 has none), with no test.
    - Otherwise those of them where some u in the window of the first
      such seed also passes all of that seed's quadratic angles, from
      :func:`_pair_returns` (``own`` may be empty), with each later such
      seed as a test: some u in the step's :func:`_window` passes all of
      its quadratic angles (:func:`_in_window`).
    Every step left out fails an angle-side check, a required side or an
    index check, and no test reads an angle or a mean that can refuse, so
    the choice only spares queries; no dropped step changes a progress call.

    Proof that a rational-only system holds exactly one tuple at each
    multiple of P = lcm_k(M*mu_k), at seed 1's steps j*S, and none elsewhere.
    Every angle x of every seed lies in (0, 1) and has 2*M*x in Z
    (:func:`angle_period`).  For m = 2*u*M + e, e in {-1, 0, 1}, that gives
    ceil(m*x) = 2*u*M*x + ceil(e*x) and varphi(m*x) = varphi(e*x), and m
    is even exactly when e = 0, so the closed forms of
    :func:`index_iterate` and :func:`nullity_iterate` are affine in u:
    i(2*u*M + e) = 2*u*M*mu + c_e and nu(2*u*M + e) = d_e, where
    mu = i1 + p- + p0 - r + 2*sum theta_j is the mean index, and with
    ceil(x) = varphi(+-x) = 1, ceil(-x) = 0 and varphi(0) = 0:
        c_1 = i1,  c_-1 = -i1 - 2*(p- + p0),  c_0 = -S+ - C,
        d_1 = d_-1 = nu1,  d_0 = nu1 + q- + 2*q0 + q+ + 2*(r + r* + r0),
    for S+ = p- + p0 and C = q0 + q+ + r + 2*r*.
    (1) M*mu = M*(i1 + p- + p0 - r) + sum 2*M*theta_j is an integer, and
        positive since mu is (checked first), so P is a positive integer.
    (2) Seed k's iterate m_k = (t_k + chi_k)*M = u*M, u >= 1, passes the
        index check i(2*m_k + 1) = 2N + i1 exactly when N = u*M*mu_k.  So
        every tuple's N lies in M*mu_k*Z for every k, hence in P*Z, and
        seed 1's step s reads N = s*M*mu_1, a multiple of P exactly when s
        is a multiple of S = P/(M*mu_1).
    (3) At N = j*P, u_k = j*P/(M*mu_k) is an integer, so t_k = u_k,
        chi_k = 0 passes the index check and chi_k = 1 fails it (it needs
        N + M*mu_k): one candidate per seed, seed 1's at step j*S.  Every
        2*m_k*x is an integer, side "zero", so no side is "mid", the
        required sides fix none (a rational angle has none to fix) and
        delta_from_sides is 0.  Of the eight conditions of
        :func:`_path_record`, the nullities are d_-1 = d_1 = nu1;
        i(2*m_k - 1) + nu1 = 2N - i1 - p- + p+ = 2N - (i1 + 2*S+ - nu1);
        i(2*m_k) = 2N - S+ - C, the splitting identity at delta_k = 0, and
        with e/2 = p- + p0 + p+ + q- + q0 + q+ + r + 2*(r* + r0) it is at
        least 2N - e/2, while i(2*m_k) + d_0 = 2N + p0 + p+ + q- + q0 + r +
        2*r0 <= 2N + e/2; the floor construction's shape compares m_k with
        itself.
    So the walk over the multiples of S asks N = P, 2P, ... only, and its
    work is O(limit) whatever n_max is.
    """
    if stride is not None:
        return range(stride, last + 1, stride), []
    own = _quadratic_angles(seeds[0], rules[0])
    windows = _windows(seeds, M, delta, rules, last)
    first = next(windows, None)
    if first is None:
        return (_joint_returns([(x, side, delta) for x, side in own], 2 * M, last) if own
                else range(1, last + 1)), []
    tests = [_in_window(angles, 2 * M, delta, window) for angles, window, _ in windows]
    paired, window, top = first
    return _pair_returns(own, paired, 2 * M, delta, window, last, top), tests


_Sided = list[tuple[QuadraticAngle, Optional[str]]]


def _quadratic_angles(seed: PathSeed, rule: Optional[tuple[tuple[int, str], ...]]) -> _Sided:
    """Each quadratic angle of ``seed``, in order, with the side ``rule``
    fixes for it (None when free)."""
    sides = dict(rule or ())
    return [(a, sides.get(j)) for j, (_, _, a) in enumerate(seed.decomp.spectrum_angles())
            if isinstance(a, QuadraticAngle)]


_Window = tuple[tuple[int, int, int], tuple[int, int, int]]


def _window(seed1: PathSeed, seed: PathSeed, M: int, last: int) -> Optional[_Window]:
    """(lo, hi), each (a, b, c): at seed 1's lattice step s = 1 .. ``last``,
    every candidate u = m/M = t + chi of ``seed`` lies in
    [floor((a*s + b)/c) for lo, the same for hi], a > 0 in lo; None when a
    read of a mean index is not positive.

    For odd m, i(m) - m*mu lies in [-c, -c + 2*(#theta + #alpha)],
    c = ``_index_form[1]``: each ceil(m*theta) - m*theta is in [0, 1) and
    each varphi(m*alpha) in {0, 1}.  So the step reads an N with
        2N in [(2sM + 1)*mu_1 - c_1 - i1_1, (2sM + 1)*mu_1 - c_1 - i1_1 +
               2*(#theta_1 + #alpha_1)],
    and t = floor(N/(M*mu)), chi in {0, 1}, puts u in [floor(N_lo/(M*mu)),
    floor(N_hi/(M*mu)) + 1].  Each mean is read once, in integers
    lo/den <= mu <= hi/den, by a read that never refuses: no wider than
    1/((2*last*M + 1)*2**32) unless a stated enclosure adds to it, which
    only widens the window, and exact for a rational mean."""
    width = Fraction(1, (2 * last * M + 1) << 32)
    (l1, h1, d1), (lk, hk, dk) = (
        s.mean._read(s.mean._level_for(width) if s.mean.surd[2] else 0) for s in (seed1, seed))
    if l1 <= 0 or lk <= 0:
        return None
    c1 = seed1._index_form[1] + seed1.i1
    t1 = 2 * (seed1.decomp.r + seed1.decomp.r_star)
    return ((2 * M * l1 * dk, (l1 - c1 * d1) * dk, 2 * M * d1 * hk),
            (2 * M * h1 * dk, (h1 - (c1 - t1) * d1) * dk + 2 * M * d1 * lk, 2 * M * d1 * lk))


def _windows(seeds: tuple[PathSeed, ...], M: int, delta: Fraction, rules: _SideRules,
             last: int) -> Iterator[tuple[_Sided, _Window, int]]:
    """Per later seed whose window can test seed 1's steps 1 .. ``last``, in
    seed order: its quadratic angles with their sides, its :func:`_window`
    and ``top``, the window's upper end at ``last``.  A seed is left out when
    it has no quadratic angle or :func:`_window` none, or when the search of
    its first quadratic angle up to ``top`` would end at once by the
    Liouville bound or refuse its delta.  Only the first is searched; the
    others keep the gates, as one test more would drop steps, and with them
    queries that can refuse, so outcomes could change."""
    if last < 1:
        return
    p, q = delta.as_integer_ratio()
    for seed, rule in zip(seeds[1:], rules[1:]):
        angles = _quadratic_angles(seed, rule)
        window = _window(seeds[0], seed, M, last) if angles else None
        if window is None:
            continue
        top = (window[1][0] * last + window[1][1]) // window[1][2]
        if not _no_return(angles[0][0], 2 * M, p, q, top) and (q // p).bit_length() <= _DELTA_BITS:
            yield angles, window, top


def _pair_returns(own: _Sided, paired: _Sided, mult: int, delta: Fraction, window: _Window,
                  last: int, top: int) -> Iterator[int]:
    """The steps s = 1 .. ``last``, ascending and each once, where every
    angle of ``own`` passes its side test at mult*s (not "mid", or on the
    side given with it) and some u = 1 .. ``top`` with
    floor((a0*s + b0)/c0) <= u <= floor((a1*s + b1)/c1), for
    (a0, b0, c0), (a1, b1, c1) = ``window``, has every angle of ``paired``
    pass its side test at mult*u.  ``own`` may be empty: then every step
    passes it, and its gaps (:func:`_gaps`) are every g.

    This is :func:`_joint_returns`' gap lemma one dimension up.  Write
    ||t|| for the distance from t to the nearest integer and take two
    consecutive members s < s' of the set plus a virtual origin
    (s, u) = (0, 0), with any valid u for s and u' for s'.
    (1) For each angle x of ``own``, ||mult*s*x|| and ||mult*s'*x|| are
        below delta, both on one side when x's side is fixed, so ds = s' - s
        passes x at 2*delta, or at delta when x's side is fixed (any ds
        once that width reaches 1/2): ds is one of :func:`_gaps` for
        ``own`` up to ``last``.
    (2) u' can be taken at least u: the window's ends do not fall as s
        grows, so a valid u' < u puts u itself in the window of s'.  Then
        du = u' - u is 0 or, likewise, one of :func:`_gaps` for ``paired``
        up to ``top`` (R2), as u and u' lie in [0, top].
    (3) floor((a*s + b)/c) lies in [(a*s + b - c + 1)/c, (a*s + b)/c] and
        the slope a1/c1 - a0/c0 is not negative (the upper window reads
        the larger mean ratio), so with 0 <= s <= last
            a0*ds/c0 - K <= du <= a1*ds/c1 + K,
        K = ceil(max(last*(a1/c1 - a0/c0) + b1/c1 - (b0 - c0 + 1)/c0,
                     (c0 - 1 - b0)/c0, b1/c1)),
        the last two terms for the origin, computed once in integers.
    So from a member (s, u), the candidates are the pairs (ds, du), ds a
    gap of (1) and du in its group from (2) inside the strip of (3), found
    once per gap and tried in ascending ds, then du; the first candidate
    that passes gives the next member (s + ds, u + du), and a gap with an
    empty group is never tried.  Each candidate keeps its phases
    E0 = a0*ds - c0*du and E1 = a1*ds - c1*du, and each member its limits
    L0 = c0*(u + 1) - a0*s - b0 and L1 = c1*u - a1*s - b1.  As c0, c1 > 0,
    floor((a0*(s + ds) + b0)/c0) <= u + du exactly when
    a0*(s + ds) + b0 < c0*(u + du + 1), that is E0 < L0, and
    u + du <= floor((a1*(s + ds) + b1)/c1) exactly when
    c1*(u + du) <= a1*(s + ds) + b1, that is E1 >= L1; u + du <= ``top``
    follows once s + ds <= ``last``.  So a candidate costs two integer
    comparisons, and one in the window is checked against u + du >= 1 and
    s + ds <= ``last``, then by one read of each of ``own``'s folded
    kernels at s + ds, once per ds from a member, then by ``paired``'s at
    u + du.  Every read is one integer square root and never refuses; when
    the Liouville bound leaves some angle of ``own`` no return up to
    ``last``, or of ``paired`` up to ``top``, the walk ends before any
    read."""
    p, q = delta.as_integer_ratio()
    if any(_no_return(a, mult, p, q, last) for a, _ in own) or any(
            _no_return(a, mult, p, q, top) for a, _ in paired):
        return
    (a0, b0, c0), (a1, b1, c1) = window
    # K of (3), each term n/d over a common denominator, ceil(n/d) = -(-n // d)
    K = max(-(-((a1 * last + b1) * c0 - (a0 * last + b0 - c0 + 1) * c1) // (c0 * c1)),
            -(-(c0 - 1 - b0) // c0), -(-b1 // c1))
    own_ok = _all_of([a._side_test(mult, p, q, side) for a, side in own])
    paired_ok = _all_of([a._side_test(mult, p, q, side) for a, side in paired])
    fresh = _gaps([(a, side, delta) for a, side in own], mult, last)
    more = itertools.chain(_gaps([(a, side, delta) for a, side in paired], mult, top), [inf])
    returns = [0]  # 0 and R2 pulled so far, ascending, then inf once R2 ends
    tries = []  # (ds, du, E0, E1) of each candidate pulled so far, in the order tried

    def pull(room: int) -> bool:
        """Append the next gap's group to ``tries``; False once no gap up to
        ``room`` with a nonempty group is left."""
        for ds in fresh:
            if ds > room:
                return False
            hi = a1 * ds // c1 + K
            while returns[-1] < hi:
                returns.append(next(more))
            group = returns[bisect_left(returns, -(-a0 * ds // c0) - K):bisect_right(returns, hi)]
            if group:
                e0, e1 = a0 * ds, a1 * ds
                tries.extend([(ds, du, e0 - c0 * du, e1 - c1 * du) for du in group])
                return True
        return False

    s = u = 0
    while True:
        L0, L1, room, lo = c0 * (u + 1) - a0 * s - b0, c1 * u - a1 * s - b1, last - s, 1 - u
        i = read = 0  # the next candidate, the last ds whose own kernels were read
        while True:
            # a listed ds past room ends the walk before any gap is pulled
            if i == len(tries) and (tries and tries[-1][0] > room or not pull(room)):
                return
            ds, du, e0, e1 = tries[i]
            i += 1
            if e0 < L0 and e1 >= L1 and du >= lo:
                if ds > room:
                    return
                if ds != read:
                    read, ok = ds, own_ok(s + ds)
                if ok and paired_ok(u + du):
                    break
        s, u = s + ds, u + du
        yield s


def _in_window(angles: _Sided, mult: int, delta: Fraction,
               window: _Window) -> Callable[[int], bool]:
    """The test s -> some u >= 1 in ``window`` (lo, hi), each end
    floor((a*s + b)/c), passes every side test of ``angles`` at mult*u (not
    "mid", or on its side), read in ascending order: a window holds a few."""
    p, q = delta.as_integer_ratio()
    passes = _all_of([x._side_test(mult, p, q, side) for x, side in angles])
    (a0, b0, c0), (a1, b1, c1) = window
    return lambda s: any(map(passes, range(max(1, (a0 * s + b0) // c0), (a1 * s + b1) // c1 + 1)))


def _walk_steps(seeds: tuple[PathSeed, ...], M: int, delta: Fraction, rules: _SideRules,
                n_max: int, limit: int, exclude: frozenset,
                progress: Optional[Callable[[int, int], None]],
                stride: Optional[int], last: int) -> list[JumpTuple]:
    """The tuples found on seed 1's lattice steps from :func:`_pilot_steps`
    up to ``last`` = last_step(n_max) that pass its tests; once ``limit``
    are found the bound shrinks to last_step of the limit-th smallest N, and
    no larger N is tried; on the multiples of ``stride`` the walk stops
    there, as each later one holds a larger N.  Progress is reported at
    every chunk end a visited step passes, tested or not, then at each end
    up to the first past the final bound; without a callback, no work per
    chunk."""
    seed1 = seeds[0]
    steps, tests = _pilot_steps(seeds, M, delta, rules, last, stride)
    hits: list[JumpTuple] = []
    done, top = 0, n_max  # the last chunk end reported, the largest N kept
    for step in steps:
        if step > last:
            break
        while progress is not None and done + _CHUNK < step:
            done += _CHUNK
            progress(done * M, n_max)
        if not all(test(step) for test in tests):
            continue
        m1 = step * M
        i_odd1 = index_iterate(seed1, 2 * m1 + 1)
        N, odd = divmod(i_odd1 - seed1.i1, 2)
        if not odd and 1 <= N <= top and N not in exclude:
            found = _tuples_at(seeds, N, M, delta, rules, (m1, i_odd1))
            hits += found
            # No tuple with N at most the limit-th smallest found lies past its
            # last step; ties at that N are at or before it.
            if found and len(hits) >= limit:
                top = sorted(t.N for t in hits)[limit - 1]
                last = _last_step(seed1, M, top)
                if stride is not None:  # every later multiple of S holds a larger N
                    break
    if progress is not None:
        for end in range(done + _CHUNK, max(done, last) + _CHUNK + 1, _CHUNK):
            progress(end * M, n_max)
    return hits


def _walk_n(seeds: tuple[PathSeed, ...], M: int, delta: Fraction, rules: _SideRules,
            n_max: int, limit: int, exclude: frozenset,
            progress: Optional[Callable[[int, int], None]]) -> list[JumpTuple]:
    """The tuples at N = 1 .. n_max in ascending order, up to the N that
    brings them to ``limit`` or more (every tuple at that N is kept, so
    ties at the limit are as the lattice walk finds them); progress(end,
    n_max) at every chunk end, counted in N, up to the first one past
    that last N."""
    hits, bound = [], n_max
    for end in itertools.count(_CHUNK, _CHUNK):
        for N in range(end - _CHUNK + 1, min(end, bound) + 1):
            if N not in exclude:
                hits += _tuples_at(seeds, N, M, delta, rules)
                if len(hits) >= limit:
                    bound = N
                    break
        if progress is not None:
            progress(end, n_max)
        if end > bound:
            return hits


def find_jump_tuples(seeds: Sequence[PathSeed], delta: Fraction = Fraction(1, 1000),
                     n_max: int = 10**6, limit: int = 3, *,
                     budget: Optional[int] = None,
                     required_sides: Optional[Sequence[Optional[Sequence[str]]]] = None,
                     exclude: Iterable[int] = (),
                     progress: Optional[Callable[[int, int], None]] = None) -> list[JumpTuple]:
    """Scan for up to ``limit`` verified jump tuples with N <= n_max.

    ``required_sides``, when given, restricts which side of an integer
    each irrational rotation angle multiple must fall on, per seed (used
    to build complementary tuples): one entry per seed, each None or a
    "low" or "high" for every irrational rotation angle of that seed, in
    the order of ``PathVerification.irrational_rotation_sides``.  Any other
    pattern raises ValueError before any angle or mean-index query.
    ``exclude`` skips listed N values.  ``budget`` is accepted and ignored.

    The candidate N come from seed 1's lattice walk over the steps of
    :func:`_pilot_steps`, or from the walk over N = 1 .. n_max
    (:func:`_walk_n`) when the system is not rational-only and those steps
    number more than n_max.  ``progress`` is called as progress(done,
    n_max) at the end of every chunk of 2048 lattice steps, done = end*M,
    up to the first chunk end past the walk's final bound; the N-walk makes
    them per 2048 N, done = end.  Raises NoTupleFound if the scan exhausts
    its bound with no hit.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    delta = _check_delta(delta)
    _check_count("n_max", n_max)
    _check_count("limit", limit)
    rules = _side_rules(seeds, required_sides)
    for k, seed in enumerate(seeds):
        if seed.mean.cmp(0) <= 0:
            raise ValueError(f"seed {k}: mean index must be positive")
    M = angle_period(seeds)
    P = stride = None
    if all(a.is_rational for seed in seeds for _, _, a in seed.decomp.spectrum_angles()):
        # each M*mu_k is an integer (see _pilot_steps)
        periods = [M * p // q for p, q in (seed.mean.exact().as_integer_ratio() for seed in seeds)]
        P = lcm(*periods)
        stride = P // periods[0]
    last = size = _last_step(seeds[0], M, n_max)
    own = _quadratic_angles(seeds[0], rules[0])
    if P is None and own:
        x, side = own[0]
        size = (delta if side else 2 * delta) * last
        if size <= n_max < last:  # w*last is an estimate: count to n_max + 1
            returns = _joint_returns([(x, side, delta)], 2 * M, last)
            size = sum(1 for _ in itertools.islice(returns, n_max + 1))
    scan = (seeds, M, delta, rules, n_max, limit, frozenset(exclude), progress)
    # More lattice steps to visit than N to try: walk N instead.
    hits = _walk_n(*scan) if P is None and size > n_max else _walk_steps(*scan, stride, last)

    hits.sort(key=JumpTuple.sort_key)
    if not hits:
        why = ("; raise n_max or loosen delta" if P is None else
               f": every angle is rational, so the jump tuples are one at each multiple of "
               f"P = {P}; raise n_max")
        raise NoTupleFound(f"no jump tuple with N <= {n_max} at delta = {delta}{why}")
    return hits[:limit]


def flipped_sides(t: JumpTuple) -> tuple[tuple[str, ...], ...]:
    """Opposite side pattern; a side other than "low" or "high" stays, for the scan to refuse."""
    flip = {"low": "high", "high": "low"}
    return tuple(tuple(flip.get(s, s) for s in pv.irrational_rotation_sides())
                 for pv in t.per_path)


def find_complementary_tuples(seeds: Sequence[PathSeed], first: JumpTuple,
                              n_max: int = 10**6, limit: int = 1, *,
                              progress: Optional[Callable[[int, int], None]] = None
                              ) -> list[JumpTuple]:
    """Tuples at ``first``'s delta whose irrational rotation angles all land
    on the opposite side from ``first``, so the two near-integer counts add
    up to the full irrational rotation census.  A ``first`` with a "mid"
    side, or that does not match ``seeds``, raises ValueError."""
    return find_jump_tuples(seeds, first.delta, n_max, limit, required_sides=flipped_sides(first),
                            exclude={first.N}, progress=progress)


# -- jump-side quantities ------------------------------------------------------


def compute_delta(seed: PathSeed, m_k: int, delta: Fraction,
                  complement_m: Optional[int] = None) -> DeltaReport:
    """The near-integer splitting count at m_k, with its complement.

    The complement count is evaluated directly when the paired iterate
    is supplied, otherwise derived from the identity that the two counts
    exhaust the irrational rotation census.  Each iterate must be a
    positive integer and delta lie in (0, 1/2), checked in that order
    before any query, whatever angles the seed has.
    """
    for m in (m_k,) if complement_m is None else (m_k, complement_m):
        _check_multiplier(2 * m)
    p, q = _check_delta(delta).as_integer_ratio()
    d = seed.decomp
    dk = delta_from_sides(_angle_sides(seed, _side_names(seed, m_k, p, q)))
    irr_census = (d.r - d.r_prime) + 2 * (d.r_star - d.r_star_prime)
    if dk > (d.r - d.r_prime) + (d.r_star - d.r_star_prime):
        raise ConstraintViolation(
            f"near-integer count {dk} exceeds the irrational rotation census; "
            f"m_k = {m_k} does not come from a verified tuple")
    if complement_m is not None:
        dkp = delta_from_sides(_angle_sides(seed, _side_names(seed, complement_m, p, q)))
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
