"""Family constructors against their printed matrices and tensor values."""

import cmath
import math

import numpy as np
import pytest

from multiaxial.angular import SpinTooLargeError
from multiaxial.families import (
    FamilyParameterError,
    build_family,
    family_density,
    make_bell,
    make_biaxial,
    make_coherent,
    make_dicke,
    make_ghz,
    make_triaxial,
    make_uniaxial,
    make_w,
)
from multiaxial.fano import extract_tensors
from multiaxial.halfint import HalfInteger
from multiaxial.states import pure_to_density, validate


def _h(x):
    return HalfInteger.of(x)


class TestPureFamilies:
    def test_ghz3_matrix(self):
        rho = pure_to_density(make_ghz(3))
        expected = 0.5 * np.array([
            [1, 0, 0, 1],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [1, 0, 0, 1],
        ], dtype=complex)
        assert np.allclose(rho.matrix, expected, atol=1e-14)

    def test_ghz4_matrix(self):
        rho = pure_to_density(make_ghz(4))
        expected = np.zeros((5, 5), dtype=complex)
        for a in (0, 4):
            for b in (0, 4):
                expected[a, b] = 0.5
        assert np.allclose(rho.matrix, expected, atol=1e-14)

    def test_bell_matrix(self):
        rho = pure_to_density(make_bell())
        assert np.allclose(rho.matrix, np.diag([0.0, 1.0, 0.0]), atol=1e-14)

    def test_w_is_second_dicke(self):
        psi = make_w(3)
        assert psi.j == _h("3/2")
        assert np.allclose(psi.amplitudes, [0.0, 0.0, 1.0, 0.0], atol=1e-14)

    def test_coherent_at_north_pole(self):
        psi = make_coherent(_h(2), 0.0, 0.0)
        rho = pure_to_density(psi)
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        assert np.allclose(rho.matrix, expected, atol=1e-12)

    def test_coherent_at_south_pole(self):
        rho = pure_to_density(make_coherent(_h(1), math.pi, 0.0))
        expected = np.zeros((3, 3))
        expected[2, 2] = 1.0
        assert np.allclose(rho.matrix, expected, atol=1e-12)

    def test_dicke_domain(self):
        with pytest.raises(FamilyParameterError):
            make_dicke(1, 2)
        with pytest.raises(FamilyParameterError):
            make_ghz(1)


class TestUniaxial:
    def test_tensor_components(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            r1 = rng.uniform(0.05, math.sqrt(2.0 / 3.0))
            th = rng.uniform(0, math.pi)
            ph = rng.uniform(0, 2 * math.pi)
            t = extract_tensors(make_uniaxial(r1, th, ph).rho)
            assert t.component(1, 0) == pytest.approx(r1 * math.cos(th),
                                                      abs=1e-10)
            # q = -1 phase is e^{-i phi} here (printed form has e^{+i phi});
            # q = +1 then follows from the conjugation property
            expect_m1 = (r1 / math.sqrt(2)) * math.sin(th) * cmath.exp(-1j * ph)
            assert t.component(1, -1) == pytest.approx(expect_m1, abs=1e-10)
            assert t.component(1, 1) == pytest.approx(-np.conj(expect_m1),
                                                      abs=1e-10)
            assert np.max(np.abs(t.rank_components(2))) < 1e-12

    def test_psd_domain(self):
        assert make_uniaxial(math.sqrt(2.0 / 3.0), 0.3, 0.1).psd_ok
        bad = make_uniaxial(1.0, 0.0, 0.0)
        assert not bad.psd_ok
        assert "PSD" in bad.note
        assert validate(bad.rho).min_eigenvalue < -1e-6

    def test_small_r1_near_maximally_mixed(self):
        rho = make_uniaxial(1e-9, 1.0, 2.0).rho
        assert np.max(np.abs(rho.matrix - np.eye(3) / 3.0)) < 1e-9

    def test_requires_positive_r1(self):
        with pytest.raises(FamilyParameterError):
            make_uniaxial(0.0, 0.1, 0.2)


class TestBiaxial:
    def test_tensor_components(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            r2 = rng.uniform(0.05, math.sqrt(3.0))
            th = rng.uniform(0, math.pi)
            t = extract_tensors(make_biaxial(r2, th).rho)
            assert t.component(2, 0) == pytest.approx(
                (r2 / math.sqrt(6)) * (1 + math.cos(th) ** 2), abs=1e-10)
            expect2 = -(r2 / 2.0) * math.sin(th) ** 2
            assert t.component(2, 2) == pytest.approx(expect2, abs=1e-10)
            assert t.component(2, -2) == pytest.approx(expect2, abs=1e-10)
            assert abs(t.component(2, 1)) < 1e-12
            assert np.max(np.abs(t.rank_components(1))) < 1e-12

    def test_axes_match_angles(self):
        from multiaxial.axes import solve_axes
        for th in np.linspace(0.15, math.pi / 2, 7):
            t = extract_tensors(make_biaxial(0.5, float(th)).rho)
            d = solve_axes(t, 2)
            got = sorted((a.theta, a.phi) for a, m in d.axes for _ in range(m))
            expected = sorted([(float(th), 0.0), (float(th), math.pi)]) \
                if th < math.pi / 2 - 1e-9 else [(math.pi / 2, 0.0),
                                                 (math.pi / 2, 0.0)]
            for (gth, gph), (eth, eph) in zip(got, expected):
                assert gth == pytest.approx(eth, abs=1e-6)
                assert gph == pytest.approx(eph, abs=1e-6)

    def test_pure_entangled_extreme(self):
        fam = make_biaxial(math.sqrt(3.0), math.pi / 2)
        assert fam.psd_ok
        report = validate(fam.rho)
        assert report.is_pure
        from multiaxial.classify import pure_separability_check
        assert not pure_separability_check(fam.rho).separable

    def test_trace_one_everywhere(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            fam = make_biaxial(rng.uniform(0.1, 1.7), rng.uniform(0, math.pi))
            assert abs(np.trace(fam.rho.matrix) - 1.0) < 1e-14


class TestTriaxial:
    def test_tensor_components(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            r1 = rng.uniform(-0.8, 0.8)
            r2 = rng.uniform(0.05, 1.0)
            th = rng.uniform(0, math.pi)
            t = extract_tensors(make_triaxial(r1, r2, th).rho)
            assert t.component(1, 0) == pytest.approx(r1, abs=1e-10)
            assert t.component(2, 0) == pytest.approx(
                (r2 / math.sqrt(6)) * (1 + math.cos(th) ** 2), abs=1e-10)
            assert t.component(2, 2) == pytest.approx(
                -(r2 / 2.0) * math.sin(th) ** 2, abs=1e-10)

    def test_biaxial_is_triaxial_at_zero_r1(self):
        for r2 in (0.05, 0.5, 1.0, math.sqrt(3.0), 2.5):
            for th in np.linspace(0.0, math.pi, 9):
                bi = make_biaxial(r2, float(th))
                tri = make_triaxial(0.0, r2, float(th))
                assert bi.rho.matrix.tobytes() == tri.rho.matrix.tobytes()
                assert bi.psd_ok == tri.psd_ok
        assert not make_biaxial(2.5, 0.3).psd_ok

    def test_theta_zero_is_pure_separable(self):
        fam = make_triaxial(math.sqrt(1.5), math.sqrt(3.0) / 2.0, 0.0)
        assert fam.psd_ok
        report = validate(fam.rho)
        assert report.is_pure
        from multiaxial.classify import pure_separability_check
        assert pure_separability_check(fam.rho).separable

    def test_uniaxial_limit(self):
        a = make_triaxial(0.4, 1e-12, 0.7).rho
        b = make_uniaxial(0.4, 0.0, 0.0).rho
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-10


class TestFamilySpec:
    def test_build_by_name(self):
        psi = build_family("ghz", {"N": 3})
        assert psi.j == _h("3/2")

    def test_unknown_family(self):
        with pytest.raises(FamilyParameterError, match="unknown family"):
            build_family("cluster", {})

    def test_missing_parameter_lists_ranges(self):
        with pytest.raises(FamilyParameterError, match="ranges"):
            build_family("biaxial", {"r2": 0.4})

    def test_unknown_parameter(self):
        with pytest.raises(FamilyParameterError, match="unknown parameters"):
            build_family("bell", {"r1": 0.1})

    @pytest.mark.parametrize("name, params, bad", [
        ("ghz", {"N": 3.7}, "N"),
        ("w", {"N": float("inf")}, "N"),
        ("ghz", {"N": "three"}, "N"),
        ("dicke", {"j": 1.3, "m": 0}, "j"),
        ("dicke", {"j": "5/2", "m": 0.25}, "m"),
        ("separable_coherent", {"j": None, "theta": 0.0, "phi": 0.0}, "j"),
    ])
    def test_non_integral_parameter_named(self, name, params, bad):
        with pytest.raises(FamilyParameterError, match=repr(bad)):
            build_family(name, params)

    def test_integral_floats_accepted(self):
        assert build_family("ghz", {"N": 4.0}).j == _h(2)
        assert build_family("dicke", {"j": 1.5, "m": -0.5}).j == _h("3/2")

    def test_dicke_parity_rejected(self):
        with pytest.raises(FamilyParameterError, match="incompatible"):
            make_dicke(1, _h("1/2"))

    @pytest.mark.parametrize("name, params", [
        ("ghz", {"N": 21}),
        ("w", {"N": 21}),
        ("dicke", {"j": 11, "m": 0}),
        ("separable_coherent", {"j": 11, "theta": 0.3, "phi": 0.4}),
    ])
    def test_family_density_refuses_spin_above_cap(self, name, params):
        with pytest.raises(SpinTooLargeError):
            family_density(name, params)

    def test_family_density_wraps_pure(self):
        rho, psd_ok, note = family_density("bell", {})
        assert psd_ok and note == ""
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-14
