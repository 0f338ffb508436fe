"""Ellipticity analysis of a finite system of closed-geodesic seeds.

Under the pinching hypotheses (initial index >= n-1, mean index > n-1),
jump tuples align every seed's even iterate just below 2N + (n-1).  The
pipeline locates a seed whose even iterate reaches that peak, derives
the forced vanishing constraints at the peak (no hyperbolic part, no
nontrivial 4x4 rotations, every irrational rotation angle on the
near-integer side), and then reruns the argument at a complementary
tuple, where the first seed is pushed strictly below the peak and a
second seed must reach it.  Success certifies two elliptic seeds, each
with an irrational rotation eigenvalue; the fallback branches are
reported as flags, since their Morse-theoretic content is outside this
library's scope.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .errors import ConstraintViolation, NoTupleFound
from .iteration import PathSeed, index_iterate, nullity_iterate
from .jumps import (ConditionCheck, DeltaReport, JumpTuple, compute_delta,
                    find_complementary_tuples, find_jump_tuples,
                    index_at_even_jump)
from .normal_forms import elliptic_height


@dataclass(frozen=True)
class GeodesicSystem:
    """A finite collection of prime closed-geodesic seeds on S^n.

    ``reversibility_lambda`` (at least 1) and ``pinching_asserted`` state
    the paper's hypothesis (lambda/(1+lambda))^2 < K <= 1 on the flag
    curvature; nothing computes with them.  The hypothesis enters only
    through its index consequences i1 >= n-1 and mean index > n-1, which
    validate_pinching_bounds checks on every seed.
    """

    n: int
    reversibility_lambda: Fraction
    seeds: tuple[PathSeed, ...]
    pinching_asserted: bool = True

    def __post_init__(self):
        if Fraction(self.reversibility_lambda) < 1:
            raise ValueError("reversibility must be >= 1")
        if not self.seeds:
            raise ValueError("a system needs at least one seed")
        for k, s in enumerate(self.seeds):
            if s.n != self.n:
                raise ValueError(f"census violation: seed {k} fills {s.n - 1} units "
                                 f"but n - 1 = {self.n - 1}")


@dataclass(frozen=True)
class PinchRecord:
    seed_index: int
    initial_index_ok: bool
    mean_index_ok: bool

    @property
    def passed(self) -> bool:
        return self.initial_index_ok and self.mean_index_ok


@dataclass(frozen=True)
class ZeroEntry:
    name: str
    value: int


@dataclass(frozen=True)
class PeakConstraintRecord:
    """Forced algebra at a peak iterate: every census surplus vanishes."""

    balance: ConditionCheck
    census: ConditionCheck
    residual: int
    zero_set: tuple[ZeroEntry, ...]
    elliptic: bool
    elliptic_height: int
    irrational_rotation_count: int
    rational_geodesic_flag: bool


@dataclass(frozen=True)
class CandidateRecord:
    seed_index: int
    tuple_N: int
    delta_report: DeltaReport
    constraints: PeakConstraintRecord


@dataclass(frozen=True)
class SecondGeodesicResult:
    second: Optional[int]
    first_bound: ConditionCheck
    peak_values: tuple[int, ...]


@dataclass(frozen=True)
class AnalysisReport:
    n: int
    status: str                     # "two_elliptic_irrational" | "fcg_contradiction"
    flag: Optional[str]             # contradiction flag, see run_analysis
    betti: Fraction
    pinching: tuple[PinchRecord, ...]
    tuple_used: Optional[JumpTuple]
    candidates: tuple[int, ...]
    first: Optional[CandidateRecord]
    second_tuple: Optional[JumpTuple]
    second: Optional[CandidateRecord]
    first_bound_at_second: Optional[ConditionCheck]


def validate_pinching_bounds(system: GeodesicSystem) -> list[PinchRecord]:
    """Check i1 >= n-1 and mean index > n-1 for every seed (certified)."""
    records = []
    bound = Fraction(system.n - 1)
    for k, seed in enumerate(system.seeds):
        initial_ok = seed.i1 >= system.n - 1
        mean_ok = seed.mean.cmp(bound) > 0
        records.append(PinchRecord(k, initial_ok, mean_ok))
    return records


def nullity_at_even_jump(seed: PathSeed) -> int:
    """Closed form for the even-iterate nullity on the angle lattice: the
    full +/-1 kernel plus two per rational rotation-type angle."""
    d = seed.decomp
    return (d.p_minus + 2 * d.p_zero + d.p_plus
            + d.q_minus + 2 * d.q_zero + d.q_plus
            + 2 * d.r_prime + 2 * d.r_star_prime + 2 * d.r_zero_prime)


def _even_values(system: GeodesicSystem, t: JumpTuple) -> list[int]:
    """i + nu at every seed's even jump iterate 2*m_k."""
    return [index_iterate(seed, 2 * m) + nullity_iterate(seed, 2 * m)
            for seed, m in zip(system.seeds, t.m)]


def find_peak_geodesic(system: GeodesicSystem, t: JumpTuple) -> list[int]:
    """Seeds whose even jump iterate reaches i + nu = 2N + (n-1)."""
    peak = 2 * t.N + (system.n - 1)
    return [k for k, v in enumerate(_even_values(system, t)) if v == peak]


def derive_peak_constraints(seed: PathSeed, d: DeltaReport) -> PeakConstraintRecord:
    """Derive the vanishing constraints forced at a peak iterate.

    Comparing the peak identity with the census of the decomposition
    leaves a sum of non-negative terms equal to zero, so each must
    vanish: no shear at +1 with positive sign, no shear at -1 with
    negative sign, no nontrivial 4x4 rotations, no irrational trivial
    4x4 rotations, no hyperbolic part, and the near-integer count must
    exhaust the irrational rotation census.  Raises ConstraintViolation
    when the input data contradicts this (it cannot hold at a peak).
    """
    dc = seed.decomp
    n1 = seed.n - 1
    balance_lhs = (dc.p_zero + dc.p_plus + dc.q_minus + dc.q_zero
                   + 2 * dc.r_zero_prime - 2 * (dc.r_star - dc.r_star_prime)
                   + 2 * dc.r_prime - dc.r + 2 * d.delta_k)
    census_lhs = (dc.p_minus + dc.p_zero + dc.p_plus + dc.q_minus + dc.q_zero
                  + dc.q_plus + dc.r + 2 * dc.r_star + 2 * dc.r_zero + dc.h)
    balance = ConditionCheck("peak_balance", balance_lhs, n1, "==")
    census = ConditionCheck("census", census_lhs, n1, "==")
    zero_set = (
        ZeroEntry("p_minus", dc.p_minus),
        ZeroEntry("q_plus", dc.q_plus),
        ZeroEntry("nontrivial_double_rotations", dc.r_star),
        ZeroEntry("rotation_defect", dc.r - dc.r_prime - d.delta_k),
        ZeroEntry("irrational_trivial_double_rotations", dc.r_zero - dc.r_zero_prime),
        ZeroEntry("hyperbolic_blocks", dc.h),
    )
    residual = (dc.p_minus + dc.q_plus
                + 2 * (dc.r_star - dc.r_star_prime + dc.r - dc.r_prime - d.delta_k)
                + 2 * dc.r_star + 2 * (dc.r_zero - dc.r_zero_prime) + dc.h)
    bad = [z for z in zero_set if z.value != 0]
    if bad or residual != 0 or not balance.passed:
        names = ", ".join(f"{z.name}={z.value}" for z in bad) or f"residual={residual}"
        raise ConstraintViolation(
            f"peak constraints violated ({names}): the even iterate cannot reach "
            f"2N + (n-1) with this decomposition")
    e = elliptic_height(dc)
    irr = dc.r - dc.r_prime
    return PeakConstraintRecord(
        balance=balance, census=census, residual=residual, zero_set=zero_set,
        elliptic=(e == 2 * n1), elliptic_height=e,
        irrational_rotation_count=irr, rational_geodesic_flag=(irr == 0))


def second_geodesic(system: GeodesicSystem, first: int, t2: JumpTuple) -> SecondGeodesicResult:
    """Rerun the peak search at a complementary tuple.

    The first seed's irrational rotation angles all flip to the far
    side, so its even iterate falls strictly below the peak; some other
    seed must reach 2N' + (n-1) or the system contradicts finiteness.
    """
    return _second_from(system, first, t2, _complement_values(system, t2))


def _complement_values(system: GeodesicSystem, t2: JumpTuple) -> tuple[int, ...]:
    """i + nu at every seed's even iterate of t2, each checked against the
    splitting closed form; the same for every first seed."""
    values = _even_values(system, t2)
    for k, (seed, direct) in enumerate(zip(system.seeds, values)):
        dk = compute_delta(seed, t2.m[k], t2.delta).delta_k
        closed = index_at_even_jump(seed, t2.N, dk) + nullity_at_even_jump(seed)
        if direct != closed:
            raise ConstraintViolation(
                f"seed {k}: direct evaluation {direct} disagrees with the splitting "
                f"closed form {closed} at the complementary tuple")
    return tuple(values)


def _second_from(system: GeodesicSystem, first: int, t2: JumpTuple,
                 values: tuple[int, ...]) -> SecondGeodesicResult:
    """:func:`second_geodesic` given the checked values at t2."""
    n1 = system.n - 1
    first_bound = ConditionCheck("first_seed_below_peak_at_complement",
                                 values[first], 2 * t2.N + (n1 - 1), "<=")
    if not first_bound.passed:
        raise ConstraintViolation(
            f"first seed still reaches {values[first]} > 2N' + n - 2 at the "
            f"complementary tuple; the pair is not complementary")
    second = next((k for k, v in enumerate(values) if k != first and v == 2 * t2.N + n1), None)
    return SecondGeodesicResult(second, first_bound, values)


def betti_constant(n: int) -> Fraction:
    """Average alternating Morse sum per 2N below the peak: -n/(2(n-1))
    for even n, (n+1)/(2(n-1)) for odd n."""
    if n < 2:
        raise ValueError("sphere dimension must be >= 2")
    if n % 2 == 0:
        return Fraction(-n, 2 * (n - 1))
    return Fraction(n + 1, 2 * (n - 1))


def run_analysis(system: GeodesicSystem, *, delta: Fraction = Fraction(1, 1000),
                 n_max: int = 10**6, tuple_limit: int = 5,
                 budget: Optional[int] = None, progress=None) -> AnalysisReport:
    """Full pipeline: pinching bounds, jump tuples, peak, complement, second peak.

    Scans up to ``tuple_limit`` jump tuples for one whose peak seed pairs
    with a second peak at a complementary tuple.  Returns a report with
    status ``"two_elliptic_irrational"`` on success; otherwise
    ``"fcg_contradiction"`` with flag ``"no_peak_iterate"``,
    ``"rational_peak_geodesic"`` or ``"no_second_geodesic"`` naming which
    finiteness contradiction branch fired (their Morse-theoretic content
    is out of scope and reported as a flag only).  Raises NoTupleFound
    when no branch fired but some peak's complement lies past ``n_max``.
    ``budget`` is accepted and ignored.
    """
    pinching = validate_pinching_bounds(system)
    for rec in pinching:
        if not rec.passed:
            which = "initial index" if not rec.initial_index_ok else "mean index"
            raise ConstraintViolation(
                f"seed {rec.seed_index} fails the pinching bound on {which}")
    betti = betti_constant(system.n)
    seeds = system.seeds
    tuples = find_jump_tuples(seeds, delta, n_max, tuple_limit, progress=progress)

    fallback = AnalysisReport(
        n=system.n, status="fcg_contradiction", flag="no_peak_iterate", betti=betti,
        pinching=tuple(pinching), tuple_used=None, candidates=(), first=None,
        second_tuple=None, second=None, first_bound_at_second=None)
    unpaired = []  # N of each peak whose complement lies past n_max
    checked = {}  # the values at each complementary tuple, for every peak seed
    for t in tuples:
        peaks = find_peak_geodesic(system, t)
        looked_up = False  # the complement of t, or its miss, serves every peak seed
        for k0 in peaks:
            d0 = compute_delta(seeds[k0], t.m[k0], t.delta)
            constraints = derive_peak_constraints(seeds[k0], d0)
            found = replace(fallback, tuple_used=t, candidates=tuple(peaks),
                            first=CandidateRecord(k0, t.N, d0, constraints))
            if constraints.rational_geodesic_flag:
                # every rotation angle rational at a peak: the rational-geodesic
                # iteration identity forces infinitely many geodesics
                if fallback.flag == "no_peak_iterate":
                    fallback = replace(found, flag="rational_peak_geodesic")
                continue
            if not looked_up:
                looked_up = True
                try:
                    t2 = find_complementary_tuples(seeds, t, n_max=n_max)[0]
                except NoTupleFound:
                    t2 = None
                    unpaired.append(t.N)
            if t2 is None:
                continue
            if t2 not in checked:
                checked[t2] = _complement_values(system, t2)
            sg = _second_from(system, k0, t2, checked[t2])
            found = replace(found, second_tuple=t2, first_bound_at_second=sg.first_bound)
            if sg.second is None:
                if fallback.flag != "no_second_geodesic":
                    fallback = replace(found, flag="no_second_geodesic")
                continue
            k2 = sg.second
            d0_full = compute_delta(seeds[k0], t.m[k0], t.delta, complement_m=t2.m[k0])
            d2 = compute_delta(seeds[k2], t2.m[k2], t2.delta, complement_m=t.m[k2])
            constraints2 = derive_peak_constraints(seeds[k2], d2)
            return replace(found, status="two_elliptic_irrational", flag=None,
                           first=CandidateRecord(k0, t.N, d0_full, constraints),
                           second=CandidateRecord(k2, t2.N, d2, constraints2))
    if fallback.flag == "no_peak_iterate" and unpaired:
        raise NoTupleFound(f"no complementary tuple with N <= {n_max} for the peak "
                           f"at N = {unpaired[0]}; raise n_max")
    return fallback
