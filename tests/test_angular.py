"""Angular-momentum special functions against independent oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from sympy import Rational, S
from sympy.physics.quantum.cg import CG

from multiaxial.angular import (
    MAX_SPIN,
    _FACTORIALS,
    SpinTooLargeError,
    _cg_twice,
    clebsch_gordan,
    couple_axis_chain,
    couple_pair,
    q_vector,
    tau_matrix,
    wigner_d_matrix,
)
from multiaxial.halfint import HalfInteger, dimension, projections
from oracles import wigner_d, wigner_small_d


def _h(x):
    return HalfInteger.of(x)


def _sympy_cg(j1, m1, j2, m2, j3, m3) -> float:
    return float(CG(Rational(j1), Rational(m1), Rational(j2), Rational(m2),
                    Rational(j3), Rational(m3)).doit().evalf(30))


def _cg_stretched(twice_c: int, b: int) -> float:
    """Closed form C(c b c; c 0 c) = (2c)! sqrt((2c+1) / ((2c-b)! (2c+b+1)!)), 0 for b > 2c."""
    if b > twice_c:
        return 0.0
    inner = Fraction(math.factorial(twice_c) ** 2 * (twice_c + 1),
                     math.factorial(twice_c - b) * math.factorial(twice_c + b + 1))
    return math.sqrt(float(inner))


def _cg_twice_fraction(tj1, tj2, tj3, tm1, tm2, tm3) -> float:
    """The Racah sum in exact fractions, arguments doubled: the oracle for
    the integer sum in ``_cg_twice``.  Call only where the selection rules hold."""
    fact = math.factorial
    a = (tj1 + tj2 - tj3) // 2
    b = (tj1 - tj2 + tj3) // 2
    c = (-tj1 + tj2 + tj3) // 2
    pref = Fraction((tj3 + 1) * fact(a) * fact(b) * fact(c),
                    fact((tj1 + tj2 + tj3) // 2 + 1))
    pref *= (fact((tj1 + tm1) // 2) * fact((tj1 - tm1) // 2)
             * fact((tj2 + tm2) // 2) * fact((tj2 - tm2) // 2)
             * fact((tj3 + tm3) // 2) * fact((tj3 - tm3) // 2))
    s_min = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    s_max = min(a, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for s in range(s_min, s_max + 1):
        denom = (fact(s) * fact(a - s) * fact((tj1 - tm1) // 2 - s)
                 * fact((tj2 + tm2) // 2 - s) * fact((tj3 - tj2 + tm1) // 2 + s)
                 * fact((tj3 - tj1 - tm2) // 2 + s))
        total += Fraction(-1 if s % 2 else 1, denom)
    if total == 0:
        return 0.0
    return float(total) * math.sqrt(float(pref))


def _halves(maximum):
    return [Rational(n, 2) for n in range(0, int(2 * maximum) + 1)]


class TestClebschGordan:
    def test_against_sympy_grid(self):
        # Exhaustive comparison for all couplings with j1, j2, j3 <= 3.
        for j1 in _halves(3):
            for j2 in _halves(3):
                for j3 in _halves(3):
                    if (j1 + j2 + j3) % 1 != 0:
                        continue
                    if not abs(j1 - j2) <= j3 <= j1 + j2:
                        continue
                    for m1 in np.arange(-j1, j1 + 1):
                        for m2 in np.arange(-j2, j2 + 1):
                            m3 = m1 + m2
                            if abs(m3) > j3:
                                continue
                            ours = clebsch_gordan(
                                _h(float(j1)), _h(float(j2)), _h(float(j3)),
                                _h(float(m1)), _h(float(m2)), _h(float(m3)))
                            oracle = _sympy_cg(j1, m1, j2, m2, j3, m3)
                            assert ours == pytest.approx(oracle, abs=1e-13)

    def test_known_values(self):
        assert clebsch_gordan(1, 1, 2, 0, 0, 0) == pytest.approx(
            math.sqrt(2.0 / 3.0), abs=1e-14)
        # forced by tau^2_0 diagonal entry for j=3/2
        c = clebsch_gordan("3/2", 2, "3/2", "3/2", 0, "3/2")
        assert math.sqrt(5.0) * c == pytest.approx(1.0, abs=1e-13)
        c = clebsch_gordan("3/2", 3, "3/2", "3/2", 0, "3/2")
        assert c == pytest.approx(1.0 / math.sqrt(35.0), abs=1e-14)

    def test_selection_rule(self):
        # m3 != m1 + m2 must give exactly zero
        assert clebsch_gordan(1, 2, 1, 1, -2, 1) == 0.0
        assert clebsch_gordan(1, 2, 1, 0, 1, 0) == 0.0

    def test_triangle_violation_is_zero(self):
        assert clebsch_gordan(1, 3, 1, 0, 0, 0) == 0.0

    def test_orthogonality(self):
        # sum_{m1 q} C(j1 k j2; m1 q m2) C(j1 k j2; m1 q m2') = delta
        j1, k, j2 = _h(2), _h(2), _h(1)
        for m2 in projections(j2):
            for m2p in projections(j2):
                total = 0.0
                for m1 in projections(j1):
                    for q in projections(k):
                        total += (clebsch_gordan(j1, k, j2, m1, q, m2)
                                  * clebsch_gordan(j1, k, j2, m1, q, m2p))
                expected = 1.0 if m2 == m2p else 0.0
                assert total == pytest.approx(expected, abs=1e-12)

    def test_spin_cap(self):
        with pytest.raises(SpinTooLargeError):
            clebsch_gordan(MAX_SPIN + 1, 0, MAX_SPIN + 1, 0, 0, 0)


class TestRacahSum:
    def test_equals_fraction_oracle_on_every_tau_entry(self):
        # every C(j k j; m q m+q) the tau tables use, 2j = 1..20: the integer
        # sum over a common denominator rounds exactly as the fraction does
        count = 0
        for tj in range(1, 21):
            for tk in range(0, 2 * tj + 1, 2):
                for tq in range(-tk, tk + 1, 2):
                    for tm in range(-tj, tj + 1, 2):
                        if abs(tm + tq) > tj:
                            continue
                        args = (tj, tk, tj, tm, tq, tm + tq)
                        assert _cg_twice(*args) == _cg_twice_fraction(*args), args
                        count += 1
        assert count == 35650


    def test_equals_fraction_oracle_on_coupling_arguments(self):
        # every C(k1 1 k; q1 q2 q) that couple_pair reaches for k1 <= 19
        count = 0
        for k1 in range(20):
            for k in range(abs(k1 - 1), k1 + 2):
                for q1 in range(-k1, k1 + 1):
                    for q2 in (-1, 0, 1):
                        if abs(q1 + q2) > k:
                            continue
                        args = (2 * k1, 2, 2 * k, 2 * q1, 2 * q2, 2 * (q1 + q2))
                        assert _cg_twice(*args) == _cg_twice_fraction(*args), args
                        count += 1
        assert count == 3442

    def test_equals_fraction_oracle_at_the_cap(self):
        # j1 = j2 = j3 = MAX_SPIN: the Racah sum reaches (3 MAX_SPIN + 1)!,
        # the top of the factorial table
        t = MAX_SPIN.twice
        assert len(_FACTORIALS) == 3 * t // 2 + 2
        count = 0
        for tm1 in range(-t, t + 1, 2):
            for tm2 in range(-t, t + 1, 2):
                if abs(tm1 + tm2) > t:
                    continue
                args = (t, t, t, tm1, tm2, tm1 + tm2)
                assert _cg_twice(*args) == _cg_twice_fraction(*args), args
                count += 1
        assert count == 1261

    def test_equals_fraction_oracle_on_a_seeded_sample(self):
        # allowed couplings with every 2j <= 2 MAX_SPIN, drawn at random
        rng = random.Random(40)
        t = MAX_SPIN.twice
        count = 0
        for _ in range(20_000):
            tj1, tj2 = rng.randint(0, t), rng.randint(0, t)
            tj3 = rng.randrange(abs(tj1 - tj2), min(tj1 + tj2, t) + 1, 2)
            tm1, tm2 = rng.randrange(-tj1, tj1 + 1, 2), rng.randrange(-tj2, tj2 + 1, 2)
            if abs(tm1 + tm2) > tj3:
                continue
            args = (tj1, tj2, tj3, tm1, tm2, tm1 + tm2)
            assert _cg_twice(*args) == _cg_twice_fraction(*args), args
            count += 1
        assert count > 15_000


class TestStretched:
    def test_agrees_with_full_sum(self):
        for twice_c in range(1, 13):
            c = HalfInteger(twice_c)
            for b in range(0, twice_c + 1):
                full = clebsch_gordan(c, b, c, c, 0, c)
                closed = _cg_stretched(twice_c, b)
                assert abs(closed - full) <= 1e-12 * max(1.0, abs(full))

    def test_normalization(self):
        for twice_c in range(0, 9):
            c = HalfInteger(twice_c)
            assert _cg_stretched(twice_c, 0) == pytest.approx(1.0, abs=1e-14)
            assert clebsch_gordan(c, 0, c, c, 0, c) == pytest.approx(1.0, abs=1e-14)

    def test_beyond_domain_is_zero(self):
        assert _cg_stretched(2, 3) == 0.0
        assert clebsch_gordan(_h(1), 3, _h(1), _h(1), 0, _h(1)) == 0.0

    def test_value_3half_2(self):
        c = _h("3/2")
        assert math.sqrt(5.0) * _cg_stretched(3, 2) == pytest.approx(1.0, abs=1e-13)
        assert math.sqrt(5.0) * clebsch_gordan(c, 2, c, c, 0, c) == pytest.approx(
            1.0, abs=1e-13)


class TestWignerD:
    def test_identity_rotation(self):
        for k in (1, 2, 3):
            mat = wigner_d_matrix(_h(k), 0.0, 0.0, 0.0)
            assert np.allclose(mat, np.eye(dimension(_h(k))), atol=1e-14)

    def test_spin_half_closed_form(self):
        a, b, g = 0.7, 1.2, -0.4
        mat = wigner_d_matrix(_h("1/2"), a, b, g)
        expected = np.array([
            [math.cos(b / 2) * np.exp(-1j * (a + g) / 2),
             -math.sin(b / 2) * np.exp(-1j * (a - g) / 2)],
            [math.sin(b / 2) * np.exp(1j * (a - g) / 2),
             math.cos(b / 2) * np.exp(1j * (a + g) / 2)],
        ])
        assert np.allclose(mat, expected, atol=1e-14)

    def test_spin_one_small_d(self):
        b = 0.83
        c, s = math.cos(b), math.sin(b)
        expected = np.array([
            [(1 + c) / 2, -s / math.sqrt(2), (1 - c) / 2],
            [s / math.sqrt(2), c, -s / math.sqrt(2)],
            [(1 - c) / 2, s / math.sqrt(2), (1 + c) / 2],
        ])
        got = np.array([[wigner_small_d(_h(1), mp, m, b)
                         for m in (_h(1), _h(0), _h(-1))]
                        for mp in (_h(1), _h(0), _h(-1))])
        assert np.allclose(got, expected, atol=1e-14)

    def test_unitarity(self):
        rng = np.random.default_rng(11)
        for k in (1, 2, 3, 4):
            a, b, g = rng.uniform(0, 2 * math.pi, 3)
            mat = wigner_d_matrix(_h(k), a, b, g)
            assert np.max(np.abs(mat @ mat.conj().T
                                 - np.eye(dimension(_h(k))))) < 1e-12

    def test_spherical_harmonic_column(self):
        # conj(D^k_{q0}(phi,theta,0)) = sqrt(4 pi/(2k+1)) Y^k_q(theta,phi)
        # with the Condon-Shortley harmonics; this is the identity that moves
        # a z-aligned rank-k tensor to the direction (theta, phi).
        from scipy.special import sph_harm_y
        theta, phi = 1.1, 2.4
        for k in (1, 2, 3):
            for q in range(-k, k + 1):
                d = np.conj(wigner_d(k, _h(q), _h(0), phi, theta, 0.0))
                y = complex(sph_harm_y(k, q, theta, phi))
                expected = math.sqrt(4 * math.pi / (2 * k + 1)) * y
                assert d == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("twice_j", range(1, 21))
    def test_matrix_matches_element_sum(self, twice_j):
        # the J_y eigenvector sum against Wigner's sum, element by element
        rng = np.random.default_rng(twice_j)
        j = HalfInteger(twice_j)
        ms = projections(j)
        for _ in range(3):
            a, b, g = rng.uniform(-2 * math.pi, 2 * math.pi, 3)
            expected = np.array([[wigner_d(j, mp, m, a, b, g) for m in ms] for mp in ms])
            assert np.max(np.abs(wigner_d_matrix(j, a, b, g) - expected)) < 1e-13

    def test_spin_cap(self):
        with pytest.raises(SpinTooLargeError):
            wigner_d_matrix(HalfInteger(MAX_SPIN.twice + 1), 0.1, 0.2, 0.3)

    def test_composition(self):
        # successive z-y-z rotations compose like the matrices
        j = _h(2)
        m1 = wigner_d_matrix(j, 0.4, 0.9, 0.0)
        m2 = wigner_d_matrix(j, 0.0, 0.0, 1.3)
        assert np.allclose(m1 @ m2, wigner_d_matrix(j, 0.4, 0.9, 1.3),
                           atol=1e-13)


class TestTauMatrix:
    def test_rank_zero_is_identity(self):
        for tj in (1, 2, 3, 4):
            assert np.allclose(tau_matrix(HalfInteger(tj), 0, 0),
                               np.eye(tj + 1), atol=1e-14)

    def test_j1_k2_diagonal(self):
        tau = tau_matrix(_h(1), 2, 0)
        expected = np.diag([1 / math.sqrt(2), -math.sqrt(2), 1 / math.sqrt(2)])
        assert np.allclose(tau, expected, atol=1e-13)

    def test_j3half_k3_diagonal(self):
        tau = tau_matrix(_h("3/2"), 3, 0)
        expected = np.diag(np.array([1.0, -3.0, 3.0, -1.0]) / math.sqrt(5.0))
        assert np.allclose(tau, expected, atol=1e-13)

    def test_orthogonality(self):
        # Tr(tau^{k+}_q tau^{k'}_{q'}) = (2j+1) delta delta for j <= 4
        for tj in range(1, 9):
            j = HalfInteger(tj)
            taus = {(k, q): tau_matrix(j, k, q)
                    for k in range(tj + 1) for q in range(-k, k + 1)}
            for (k, q), t1 in taus.items():
                for (kp, qp), t2 in taus.items():
                    tr = np.trace(t1.conj().T @ t2)
                    expected = (tj + 1) if (k, q) == (kp, qp) else 0.0
                    assert abs(tr - expected) < 1e-12

    def test_conjugation(self):
        j = _h(2)
        for k in range(5):
            for q in range(-k, k + 1):
                lhs = tau_matrix(j, k, q).conj().T
                rhs = (-1) ** q * tau_matrix(j, k, -q)
                assert np.allclose(lhs, rhs, atol=1e-13)

    def test_rank_beyond_2j_rejected(self):
        with pytest.raises(ValueError):
            tau_matrix(_h(1), 3, 0)


class TestVectorCoupling:
    def test_q_vector_north_pole(self):
        assert np.allclose(q_vector(0.0, 0.0), [0.0, 1.0, 0.0], atol=1e-15)

    def test_q_vector_x_axis(self):
        s = 1 / math.sqrt(2)
        assert np.allclose(q_vector(math.pi / 2, 0.0), [s, 0.0, -s],
                           atol=1e-15)

    def test_q_vector_antipode_negates(self):
        th, ph = 0.9, 2.2
        assert np.allclose(q_vector(math.pi - th, math.pi + ph),
                           -q_vector(th, ph), atol=1e-14)

    def test_q_vector_conjugation(self):
        v = q_vector(1.2, 0.7)
        for q in (-1, 0, 1):
            assert np.conj(v[q + 1]) == pytest.approx(
                (-1) ** q * v[-q + 1], abs=1e-14)

    def test_couple_identical_vectors_rank2(self):
        v = q_vector(0.0, 0.0)
        out = couple_pair(v, 1, v, 1, 2)
        assert out[2] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-14)

    def test_couple_identical_vectors_rank1_vanishes(self):
        v = q_vector(1.1, 0.3)
        out = couple_pair(v, 1, v, 1, 1)
        assert np.max(np.abs(out)) < 1e-14

    def test_couple_with_scalar_is_identity(self):
        v = q_vector(0.8, 1.9)
        out = couple_pair(v, 1, np.array([1.0 + 0j]), 0, 1)
        assert np.allclose(out, v, atol=1e-14)

    def test_triangle_violation(self):
        v = q_vector(0.2, 0.2)
        with pytest.raises(ValueError):
            couple_pair(v, 1, v, 1, 3)

    def test_rank2_proportional_to_harmonic_direction(self):
        # coupled tensor of two copies of the same direction is parallel to
        # the k=2 spherical direction tensor sqrt(4 pi/5) Y^2_q(theta, phi),
        # with proportionality constant sqrt(2/3)
        from scipy.special import sph_harm_y
        th, ph = 0.77, 1.33
        v = q_vector(th, ph)
        out = couple_pair(v, 1, v, 1, 2)
        ref = np.array([complex(sph_harm_y(2, q, th, ph))
                        for q in (-2, -1, 0, 1, 2)])
        ref *= math.sqrt(4 * math.pi / 5)
        assert np.allclose(out, math.sqrt(2.0 / 3.0) * ref, atol=1e-13)

    def test_chain_on_z_axes(self):
        # k z-axes couple to a tensor with only q=0 support
        out = couple_axis_chain([(0.0, 0.0)] * 3)
        assert abs(out[3]) > 0.1
        mask = np.ones(7, dtype=bool)
        mask[3] = False
        assert np.max(np.abs(out[mask])) < 1e-14
