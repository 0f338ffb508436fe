"""Basic normal forms of symplectic matrices and their diamond sums.

A linearized return map in Sp(2n-2) decomposes, within its homotopy
component, into a diamond sum of 2x2 and 4x4 basic blocks:

* ``N1Block(lam, b)``: [[lam, b], [0, lam]] with lam = +/-1 and the
  shear sign b in {+1, 0, -1}; b = 0 encodes the +/-I2 blocks.
* ``HyperbolicBlock``: diag(2, 1/2).  Every block with spectrum off the
  unit circle is index-theoretically inert, so one representative
  suffices.
* ``RotationBlock(angle)``: the plane rotation by theta = 2*pi*angle,
  angle in (0,1) minus {1/2} (the flat angle is an N1 block, not a
  rotation).
* ``N2Block(angle, trivial)``: the 4x4 block [[R, B], [0, R]]; only the
  sign class of B (trivial / nontrivial) enters the index theory, so B
  is abstracted to that flag.

The index formulas consume only the census of a decomposition (how many
blocks of each kind, which angles are rational) plus the angle values,
all exposed by :class:`Decomposition`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .angles import ExactAngle, RationalAngle, _undecided, complement_angle, same_angle


@dataclass(frozen=True)
class N1Block:
    lam: int
    b: int

    def __post_init__(self):
        if self.lam not in (1, -1):
            raise ValueError(f"N1 eigenvalue must be +1 or -1, got {self.lam}")
        if self.b not in (1, 0, -1):
            raise ValueError(f"N1 shear sign must be +1, 0 or -1, got {self.b}")

    dim = 2


@dataclass(frozen=True)
class HyperbolicBlock:
    dim = 2


@dataclass(frozen=True)
class RotationBlock:
    angle: ExactAngle

    def __post_init__(self):
        _check_rotation_angle(self.angle)

    dim = 2


@dataclass(frozen=True)
class N2Block:
    angle: ExactAngle
    trivial: bool

    def __post_init__(self):
        _check_rotation_angle(self.angle)

    dim = 4


BasicForm = Union[N1Block, HyperbolicBlock, RotationBlock, N2Block]


def _check_rotation_angle(angle: ExactAngle) -> None:
    if not isinstance(angle, ExactAngle):
        raise ValueError(f"angle must be an ExactAngle, got {angle!r}")
    if isinstance(angle, RationalAngle) and angle.value.denominator == 2:  # 1/2 in (0, 1)
        raise ValueError("angle ratio 1/2 is the -I2 normal form, not a rotation block")


# (lam, b) of the N1 blocks counted by p-, p0, p+, q-, q0 and q+
_N1_KINDS = ((1, 1), (1, 0), (1, -1), (-1, 1), (-1, 0), (-1, -1))


class Decomposition:
    """An ordered diamond sum of basic blocks with derived census counts.

    The census gives the dimension 2(n-1): N1, hyperbolic and rotation
    blocks count one unit each, N2 blocks two, and n - 1 is their sum.
    """

    def __init__(self, blocks: Iterable[BasicForm]):
        blocks = tuple(blocks)
        n1 = dict.fromkeys(_N1_KINDS, 0)  # N1 blocks per (lam, b)
        h = 0
        theta, alpha, beta = [], [], []
        for blk in blocks:
            if isinstance(blk, N1Block):
                n1[blk.lam, blk.b] += 1
            elif isinstance(blk, HyperbolicBlock):
                h += 1
            elif isinstance(blk, RotationBlock):
                theta.append(blk.angle)
            elif isinstance(blk, N2Block):
                (beta if blk.trivial else alpha).append(blk.angle)
            else:
                raise ValueError(f"not a basic normal form: {blk!r}")
        self.blocks = blocks
        self.n = len(blocks) + len(alpha) + len(beta) + 1  # N2 fills two

        (self.p_minus, self.p_zero, self.p_plus,
         self.q_minus, self.q_zero, self.q_plus) = n1.values()
        self.h = h
        # rational-first ordering within theta
        rational = [a for a in theta if a.is_rational]
        self.theta_angles = tuple(rational + [a for a in theta if not a.is_rational])
        self.alpha_angles = tuple(alpha)
        self.beta_angles = tuple(beta)
        self.r = len(self.theta_angles)
        self.r_star = len(self.alpha_angles)
        self.r_zero = len(self.beta_angles)
        self.r_prime = len(rational)
        self.r_star_prime = sum(a.is_rational for a in alpha)
        self.r_zero_prime = sum(a.is_rational for a in beta)
        self._spectrum = tuple(
            [("theta", j, a) for j, a in enumerate(self.theta_angles)]
            + [("alpha", j, a) for j, a in enumerate(self.alpha_angles)]
            + [("beta", j, a) for j, a in enumerate(self.beta_angles)])

    @property
    def dim(self) -> int:
        return 2 * (self.n - 1)

    def spectrum_angles(self) -> tuple[tuple[str, int, ExactAngle], ...]:
        """All rotation-type spectrum angles, tagged (kind, index, angle).

        The +/-1 eigenvalues of N1 blocks are omitted: their angle ratio
        multiples are always integers, so they never constrain anything.
        Built once, with the census.
        """
        return self._spectrum

    def __eq__(self, other):
        return isinstance(other, Decomposition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"Decomposition({list(self.blocks)!r})"


# -- matrix realizations -----------------------------------------------------


class Matrix(tuple):
    """A real matrix: a tuple of rows, each a tuple of floats."""
    __slots__ = ()


def diamond_sum(blocks: Iterable[Sequence[Sequence[float]]]) -> Matrix:
    """Interleaved direct sum: the A/B halves of each summand are placed
    block-diagonally in the A/B quadrants of the result, likewise C/D."""
    mats = [[[float(x) for x in row] for row in m] for m in blocks]
    for m in mats:
        for row in m:
            if len(row) != len(m):
                raise ValueError(
                    f"diamond summand must be square, got shape {(len(m), len(row))}")
        if len(m) % 2:
            raise ValueError(f"diamond summand must be even-dimensional, got {len(m)}")
    total = sum(map(len, mats))
    half = total // 2
    out = [[0.0] * total for _ in range(total)]
    offset = 0
    for m in mats:
        k = len(m) // 2
        place = [*range(offset, offset + k), *range(half + offset, half + offset + k)]
        for i, row in zip(place, m):
            for j, v in zip(place, row):
                out[i][j] = v
        offset += k
    return Matrix(map(tuple, out))


def symplectic_form(dim: int) -> Matrix:
    """The standard form J on R^dim in the diamond-sum block convention."""
    if dim % 2:
        raise ValueError("symplectic form needs even dimension")
    half = dim // 2
    eye = [tuple(float(i == j) for j in range(half)) for i in range(half)]
    zero = (0.0,) * half
    return Matrix([zero + tuple(-v for v in row) for row in eye] + [row + zero for row in eye])


def _angle_float(angle: ExactAngle, precision: Fraction) -> float:
    target = precision / 16
    lo, hi = angle.enclosure(target)
    if hi - lo > target:
        raise _undecided(f"{angle!r} to precision {precision}")
    return float((lo + hi) / 2)


def realize(d: Decomposition, precision: Fraction = Fraction(1, 10**9)) -> Matrix:
    """A floating-point symplectic matrix with the decomposition's blocks,
    each irrational angle's midpoint taken from an enclosure no wider than
    precision/16.

    The N2 off-diagonal is realized as +/-[[cos, -sin], [0, 0]], the sign
    chosen by the triviality flag; this satisfies the symplectic relation
    exactly (the shear must commute appropriately with the rotation) and
    keeps the defining sign (b2 - b3) * sin(theta).
    """
    precision = Fraction(precision)
    if precision <= 0:
        raise ValueError(f"precision must be positive, got {precision}")
    return diamond_sum([_block_matrix(blk, precision) for blk in d.blocks])


def _block_matrix(blk: BasicForm, precision: Fraction) -> tuple:
    if isinstance(blk, N1Block):
        return ((blk.lam, blk.b), (0.0, blk.lam))
    if isinstance(blk, HyperbolicBlock):
        return ((2.0, 0.0), (0.0, 0.5))
    theta = 2 * math.pi * _angle_float(blk.angle, precision)
    c, s = math.cos(theta), math.sin(theta)
    if isinstance(blk, RotationBlock):
        return ((c, -s), (s, c))
    sign = -1.0 if blk.trivial else 1.0  # [[R, sign * [[c, -s], [0, 0]]], [0, R]]
    return ((c, -s, sign * c, sign * -s), (s, c, sign * 0.0, sign * 0.0),
            (0.0, 0.0, c, -s), (0.0, 0.0, s, c))


# -- census-level quantities -------------------------------------------------


def elliptic_height(d: Decomposition) -> int:
    """Total algebraic multiplicity of unit-circle eigenvalues."""
    on_circle = (d.p_minus + d.p_zero + d.p_plus
                 + d.q_minus + d.q_zero + d.q_plus + d.r)
    return 2 * on_circle + 4 * (d.r_star + d.r_zero)


def classify(d: Decomposition) -> tuple[str, str]:
    """(elliptic | hyperbolic | neither, degenerate | non-degenerate)."""
    e = elliptic_height(d)
    if e == d.dim:
        kind = "elliptic"
    elif e == 0:
        kind = "hyperbolic"
    else:
        kind = "neither"
    degenerate = (d.p_minus + d.p_zero + d.p_plus) > 0
    return kind, "degenerate" if degenerate else "non-degenerate"


def splitting_plus_at_one(d: Decomposition) -> int:
    """Aggregate S^+ at the eigenvalue 1."""
    return d.p_minus + d.p_zero


def c_total(d: Decomposition) -> int:
    """Aggregate S^- summed over all spectrum angles in (0, 2*pi)."""
    return d.q_zero + d.q_plus + d.r + 2 * d.r_star


def splitting_numbers(block: BasicForm, omega) -> tuple[int, int]:
    """(S^+, S^-) of a single block at a unit-circle point omega.

    omega is 1, -1, or an ExactAngle y standing for e^{2*pi*i*y}.  Points
    outside the block's spectrum give (0, 0).
    """
    if isinstance(omega, int):
        if omega not in (1, -1):
            raise ValueError(f"omega must lie on the unit circle; integer {omega} does not")
    elif isinstance(omega, ExactAngle):
        if isinstance(omega, RationalAngle) and omega.value.denominator == 2:  # 1/2
            omega = -1
    else:
        raise ValueError(f"omega must be 1, -1 or an ExactAngle, got {omega!r}")

    if isinstance(block, HyperbolicBlock):
        return (0, 0)
    if isinstance(block, N1Block):
        if omega != block.lam:
            return (0, 0)
        if block.b == 0:
            return (1, 1)          # +/-I2
        if block.lam == 1:
            return (1, 1) if block.b == 1 else (0, 0)
        return (1, 1) if block.b == -1 else (0, 0)
    # rotation-type blocks
    if isinstance(omega, int):
        return (0, 0)
    at_angle = same_angle(omega, block.angle)
    at_conj = (not at_angle) and same_angle(omega, complement_angle(block.angle))
    if not at_angle and not at_conj:
        return (0, 0)
    if isinstance(block, RotationBlock):
        return (0, 1) if at_angle else (1, 0)
    if block.trivial:
        return (0, 0)
    return (1, 1)
