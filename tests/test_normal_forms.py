"""Normal forms: diamond sums, realizations, census quantities, splitting numbers."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from symjump import (Decomposition, GeodesicSystem, HyperbolicBlock, Matrix, N1Block,
                     N2Block, PathSeed, RotationBlock, UndecidableComparison, c_total, classify,
                     complement_angle, decimal_angle, diamond_sum, elliptic_height,
                     emit_report, quadratic_angle, rational_angle, realize,
                     splitting_numbers, splitting_plus_at_one, symplectic_form)
from symjump.normal_forms import _angle_float

from conftest import random_decomposition, random_quadratic_angle, random_rational_angle

GOLDEN = quadratic_angle(-1, 1, 2, 5)


class TestDiamondSum:
    def test_identity_blocks(self):
        assert np.array_equal(diamond_sum([np.eye(2), np.eye(2)]), np.eye(4))

    def test_interleaving(self):
        got = diamond_sum([np.array([[1, 1], [0, 1]]), np.diag([2.0, 0.5])])
        want = np.array([[1, 0, 1, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0.5]])
        assert np.array_equal(got, want)

    def test_singleton(self):
        r = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.array_equal(diamond_sum([r]), r)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="even"):
            diamond_sum([np.eye(3)])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            diamond_sum([np.zeros((2, 4))])

    def test_preserves_symplectic_form(self):
        J2 = symplectic_form(2)
        assert np.array_equal(diamond_sum([J2, J2, J2]), symplectic_form(6))


class TestRealize:
    def test_identity(self):
        assert np.allclose(realize(Decomposition([N1Block(1, 0)])), np.eye(2))

    def test_quarter_rotation(self):
        d = Decomposition([RotationBlock(rational_angle(1, 4))])
        assert np.allclose(realize(d), [[0, -1], [1, 0]], atol=1e-12)

    def test_hyperbolic(self):
        assert np.allclose(realize(Decomposition([HyperbolicBlock()])), np.diag([2, 0.5]))

    def test_empty(self):
        assert realize(Decomposition([])) == ()

    @pytest.mark.parametrize("rng_seed", range(6))
    def test_realization_is_symplectic(self, rng_seed):
        rng = random.Random(rng_seed)
        d = random_decomposition(rng, rng.randint(2, 6))
        M = np.asarray(realize(d, Fraction(1, 10**10)))
        J = np.asarray(symplectic_form(M.shape[0]))
        assert np.allclose(M.T @ J @ M, J, atol=1e-9)

    @pytest.mark.parametrize("rng_seed", range(6))
    def test_eigenvalues_match_block_prediction(self, rng_seed):
        rng = random.Random(100 + rng_seed)
        d = random_decomposition(rng, rng.randint(2, 5))
        got = np.sort_complex(np.linalg.eigvals(realize(d)))
        want = []
        for blk in d.blocks:
            if isinstance(blk, N1Block):
                want += [blk.lam, blk.lam]
            elif isinstance(blk, HyperbolicBlock):
                want += [2.0, 0.5]
            else:
                theta = 2 * np.pi * float(blk.angle)
                pair = [np.exp(1j * theta), np.exp(-1j * theta)]
                want += pair * (2 if isinstance(blk, N2Block) else 1)
        assert np.allclose(got, np.sort_complex(np.array(want)), atol=1e-6)

    def test_n2_triviality_sign(self):
        # nontrivial realization must satisfy (b2 - b3) * sin(theta) < 0
        for trivial in (False, True):
            M = np.asarray(realize(Decomposition([N2Block(rational_angle(1, 3), trivial)])))
            b2, b3 = M[0, 3], M[1, 2]
            s = np.sin(2 * np.pi / 3)
            assert ((b2 - b3) * s > 0) == trivial


def _oracle_block(blk, precision: Fraction) -> np.ndarray:
    """One block's matrix, built with numpy as the realizations once were."""
    if isinstance(blk, N1Block):
        return np.array([[blk.lam, blk.b], [0.0, blk.lam]])
    if isinstance(blk, HyperbolicBlock):
        return np.array([[2.0, 0.0], [0.0, 0.5]])
    theta = 2 * np.pi * _angle_float(blk.angle, precision)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    if isinstance(blk, RotationBlock):
        return rot
    sign = -1.0 if blk.trivial else 1.0
    out = np.zeros((4, 4))
    out[:2, :2] = rot
    out[:2, 2:] = sign * np.array([[c, -s], [0.0, 0.0]])
    out[2:, 2:] = rot
    return out


def _oracle_realize(d: Decomposition, precision: Fraction) -> np.ndarray:
    """The diamond sum of the numpy block matrices, quadrant by quadrant."""
    mats = [_oracle_block(blk, precision) for blk in d.blocks]
    total = sum(m.shape[0] for m in mats)
    half = total // 2
    out = np.zeros((total, total))
    offset = 0
    for m in mats:
        k = m.shape[0] // 2
        top, bottom = slice(offset, offset + k), slice(half + offset, half + offset + k)
        out[top, top], out[top, bottom] = m[:k, :k], m[:k, k:]
        out[bottom, top], out[bottom, bottom] = m[k:, :k], m[k:, k:]
        offset += k
    return out


def _any_angle(rng: random.Random):
    """A rational, quadratic or decimal angle; a decimal one states 4 to 16
    digits of a quadratic, so a tight precision refuses it."""
    kind = rng.choice(["rational", "quadratic", "decimal"])
    if kind == "rational":
        return random_rational_angle(rng)
    if kind == "quadratic":
        return random_quadratic_angle(rng)
    digits = rng.choice([4, 8, 12, 16])
    return decimal_angle(f"{float(random_quadratic_angle(rng)):.{digits}f}", f"1e-{digits}")


def _any_block(rng: random.Random):
    kind = rng.choice(["n1", "hyp", "r", "n2"])
    if kind == "n1":
        return N1Block(rng.choice((1, -1)), rng.choice((1, 0, -1)))
    if kind == "hyp":
        return HyperbolicBlock()
    if kind == "r":
        return RotationBlock(_any_angle(rng))
    return N2Block(_any_angle(rng), rng.random() < 0.5)


ORACLE_ANGLES = [rational_angle(1, 3), GOLDEN, decimal_angle("0.6180339887498949", "1e-16")]
EVERY_KIND = Decomposition(
    [N1Block(lam, b) for lam in (1, -1) for b in (1, 0, -1)] + [HyperbolicBlock()]
    + [RotationBlock(a) for a in ORACLE_ANGLES]
    + [N2Block(a, trivial) for a in ORACLE_ANGLES for trivial in (False, True)])


class TestNumpyOracle:
    """realize against the numpy construction it replaced: every entry
    and its sign (so -0.0 stays -0.0), the machine bytes that construction
    encoded to, and every refusal."""

    @staticmethod
    def check(d: Decomposition, precision: Fraction) -> bytes:
        try:
            want = _oracle_realize(d, precision)
        except UndecidableComparison as exc:
            with pytest.raises(UndecidableComparison) as err:
                realize(d, precision)
            assert str(err.value) == str(exc)
            return b""
        got = realize(d, precision)
        assert type(got) is Matrix and len(got) == want.shape[0]
        for row, want_row in zip(got, want.tolist()):
            assert all(type(v) is float for v in row)
            assert ([(v, math.copysign(1, v)) for v in row]
                    == [(w, math.copysign(1, w)) for w in want_row])
        doc = {"type": "realized_matrix", "dim": want.shape[0],
               "rows": [[format(v, ".17g") for v in row] for row in want]}
        emitted = emit_report(got, "machine")
        assert emitted == (json.dumps(doc, sort_keys=True, separators=(",", ":"))
                           + "\n").encode()
        return emitted

    def test_every_block_and_angle_kind(self):
        emitted = self.check(EVERY_KIND, Fraction(1, 10**9))
        assert b'"-0"' in emitted  # the trivial N2 shear row, sign * 0.0

    @pytest.mark.parametrize("rng_seed", range(40))
    def test_random_decompositions(self, rng_seed):
        rng = random.Random(500 + rng_seed)
        d = Decomposition([_any_block(rng) for _ in range(rng.randint(0, 5))])
        self.check(d, Fraction(1, 10 ** rng.choice([6, 9, 12, 15])))

    def test_a_decimal_angle_refuses_alike(self):
        coarse = decimal_angle("0.6180339887", "1e-10")
        assert self.check(Decomposition([RotationBlock(coarse)]), Fraction(1, 10**12)) == b""


class TestCensus:
    def test_elliptic_height_examples(self):
        assert elliptic_height(Decomposition([RotationBlock(GOLDEN)])) == 2
        assert elliptic_height(Decomposition([HyperbolicBlock()])) == 0
        assert elliptic_height(Decomposition([N2Block(GOLDEN, False), N1Block(1, 1)])) == 6

    @pytest.mark.parametrize("rng_seed", range(8))
    def test_elliptic_height_matches_numerical_eigenvalues(self, rng_seed):
        rng = random.Random(200 + rng_seed)
        d = random_decomposition(rng, rng.randint(2, 6), allow_irrational=False)
        ev = np.linalg.eigvals(realize(d))
        assert elliptic_height(d) == int(np.sum(np.abs(np.abs(ev) - 1) < 1e-6))

    def test_classify_examples(self):
        assert classify(Decomposition([RotationBlock(GOLDEN)])) == ("elliptic", "non-degenerate")
        assert classify(Decomposition([HyperbolicBlock()])) == ("hyperbolic", "non-degenerate")
        assert classify(Decomposition([N1Block(1, 0)])) == ("elliptic", "degenerate")
        assert classify(Decomposition([RotationBlock(GOLDEN), HyperbolicBlock()]))[0] == "neither"

    def test_classify_permutation_invariant(self):
        rng = random.Random(7)
        blocks = list(random_decomposition(rng, 6).blocks)
        reference = classify(Decomposition(blocks))
        for _ in range(5):
            rng.shuffle(blocks)
            assert classify(Decomposition(blocks)) == reference

    def test_splitting_plus_examples(self):
        assert splitting_plus_at_one(Decomposition([N1Block(1, 1), N1Block(1, 0)])) == 2
        assert splitting_plus_at_one(Decomposition([N1Block(1, -1)])) == 0
        assert splitting_plus_at_one(Decomposition([])) == 0

    def test_c_total_examples(self):
        d = Decomposition([N1Block(-1, 0), N1Block(-1, -1),
                           RotationBlock(rational_angle(1, 3)), RotationBlock(GOLDEN),
                           N2Block(GOLDEN, False)])
        assert c_total(d) == 6
        assert c_total(Decomposition([N1Block(-1, 1)])) == 0
        assert c_total(Decomposition([N1Block(1, 0)])) == 0

    def test_census_constraint_enforced(self):
        # the blocks fill one unit, n - 1 = 2
        with pytest.raises(ValueError) as exc:
            GeodesicSystem(3, 1, (PathSeed(2, Decomposition([N1Block(1, 0)])),))
        assert str(exc.value) == "census violation: seed 0 fills 1 units but n - 1 = 2"

    def test_rational_first_angle_ordering(self):
        d = Decomposition([RotationBlock(GOLDEN), RotationBlock(rational_angle(1, 3))])
        assert d.theta_angles[0].is_rational and not d.theta_angles[1].is_rational
        assert d.r_prime == 1 and d.r == 2


class TestSplittingNumbers:
    def test_table_entries(self):
        g = GOLDEN
        assert splitting_numbers(N1Block(1, 1), 1) == (1, 1)
        assert splitting_numbers(N1Block(1, 0), 1) == (1, 1)
        assert splitting_numbers(N1Block(1, -1), 1) == (0, 0)
        assert splitting_numbers(N1Block(-1, 0), -1) == (1, 1)
        assert splitting_numbers(N1Block(-1, -1), -1) == (1, 1)
        assert splitting_numbers(N1Block(-1, 1), -1) == (0, 0)
        assert splitting_numbers(RotationBlock(g), g) == (0, 1)
        assert splitting_numbers(RotationBlock(g), complement_angle(g)) == (1, 0)
        assert splitting_numbers(N2Block(g, False), g) == (1, 1)
        assert splitting_numbers(N2Block(g, False), complement_angle(g)) == (1, 1)
        assert splitting_numbers(N2Block(g, True), g) == (0, 0)
        assert splitting_numbers(HyperbolicBlock(), 1) == (0, 0)

    def test_off_spectrum_points_vanish(self):
        g = GOLDEN
        assert splitting_numbers(RotationBlock(g), 1) == (0, 0)
        assert splitting_numbers(RotationBlock(g), -1) == (0, 0)
        assert splitting_numbers(N1Block(1, 1), -1) == (0, 0)
        assert splitting_numbers(N1Block(-1, 0), 1) == (0, 0)
        assert splitting_numbers(RotationBlock(g), rational_angle(1, 3)) == (0, 0)

    def test_minus_one_as_half_angle(self):
        assert splitting_numbers(N1Block(-1, 0), rational_angle(1, 2)) == (1, 1)

    def test_rejects_off_circle(self):
        with pytest.raises(ValueError, match="unit circle"):
            splitting_numbers(N1Block(1, 0), 2)

    @pytest.mark.parametrize("rng_seed", range(10))
    def test_aggregate_identities(self, rng_seed):
        """Block sums of the table must reproduce the census aggregates."""
        rng = random.Random(300 + rng_seed)
        d = random_decomposition(rng, rng.randint(2, 6))
        total_plus_at_one = sum(splitting_numbers(b, 1)[0] for b in d.blocks)
        assert total_plus_at_one == splitting_plus_at_one(d)
        total_minus = 0
        for b in d.blocks:
            if isinstance(b, N1Block) and b.lam == -1:
                total_minus += splitting_numbers(b, -1)[1]
            elif isinstance(b, (RotationBlock, N2Block)):
                total_minus += splitting_numbers(b, b.angle)[1]
                total_minus += splitting_numbers(b, complement_angle(b.angle))[1]
        assert total_minus == c_total(d)

    def test_bounded_by_geometric_multiplicity(self):
        """0 <= S^+/- <= dim ker(M - omega I) for each block at its spectrum."""
        cases = [
            (N1Block(1, 1), 1, 1.0 + 0j), (N1Block(1, 0), 1, 1.0 + 0j),
            (N1Block(-1, -1), -1, -1.0 + 0j),
            (RotationBlock(GOLDEN), GOLDEN,
             np.exp(2j * np.pi * float(GOLDEN))),
            (N2Block(GOLDEN, False), GOLDEN, np.exp(2j * np.pi * float(GOLDEN))),
            (N2Block(GOLDEN, True), GOLDEN, np.exp(2j * np.pi * float(GOLDEN))),
        ]
        for block, omega, omega_c in cases:
            M = np.asarray(realize(Decomposition([block])))
            sv = np.linalg.svd(M.astype(complex) - omega_c * np.eye(M.shape[0]),
                               compute_uv=False)
            nu_omega = int(np.sum(sv < 1e-6))
            s_plus, s_minus = splitting_numbers(block, omega)
            assert 0 <= s_plus <= nu_omega
            assert 0 <= s_minus <= nu_omega


def test_realize_undecidable_at_tight_precision():
    from symjump import UndecidableComparison, decimal_angle
    coarse = decimal_angle("0.6180339887", "1e-6")
    with pytest.raises(UndecidableComparison):
        realize(Decomposition([RotationBlock(coarse)]), Fraction(1, 10**12))


def test_angle_half_rejected_for_rotation_blocks():
    with pytest.raises(ValueError, match="-I2"):
        RotationBlock(rational_angle(1, 2))
    with pytest.raises(ValueError, match="-I2"):
        N2Block(rational_angle(1, 2), True)
