"""State containers, validation, rotation, embedding, PPT and file I/O."""

import json
import math

import numpy as np
import pytest

from multiaxial.halfint import HalfInteger
from multiaxial.states import (
    DensityMatrix,
    EulerAngles,
    PureState,
    StateFormatError,
    ppt_check,
    ppt_two_qubit,
    pure_to_density,
    read_state,
    rotate_density,
    rotate_pure,
    state_from_json,
    state_to_json,
    symmetric_to_two_qubit,
    validate,
    write_state,
)


def _h(x):
    return HalfInteger.of(x)


def _random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m @ m.conj().T
    return m / np.trace(m)


GHZ3 = DensityMatrix(_h("3/2"), 0.5 * np.array([
    [1, 0, 0, 1],
    [0, 0, 0, 0],
    [0, 0, 0, 0],
    [1, 0, 0, 1],
], dtype=complex))


class TestValidation:
    def test_ghz3_valid_and_pure(self):
        report = validate(GHZ3)
        assert report.is_valid
        assert report.purity == pytest.approx(1.0, abs=1e-12)
        assert report.is_pure

    def test_maximally_mixed(self):
        report = validate(DensityMatrix(_h(1), np.eye(3) / 3.0))
        assert report.is_valid
        assert report.purity == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert not report.is_pure

    def test_psd_violation_flagged(self):
        mat = np.diag([1.2, 0.3, -0.5]).astype(complex)
        report = validate(DensityMatrix(_h(1), mat))
        assert report.min_eigenvalue < -1e-10
        assert not report.is_valid

    def test_purity_never_exceeds_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = DensityMatrix(_h("3/2"), _random_density(rng, 4))
            assert validate(rho).purity <= 1.0 + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            DensityMatrix(_h(1), np.eye(4) / 4.0)

    def test_unnormalized_pure_rejected(self):
        with pytest.raises(ValueError):
            PureState(_h(1), np.array([1.0, 1.0, 0.0]))


class TestRotation:
    def test_identity_rotation(self):
        out = rotate_density(GHZ3, EulerAngles(0.0, 0.0, 0.0))
        assert np.allclose(out.matrix, GHZ3.matrix, atol=1e-14)

    def test_commutes_with_projection(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            psi = PureState(_h("3/2"), amps)
            g = EulerAngles(*rng.uniform(0, 2 * math.pi, 3))
            a = rotate_density(pure_to_density(psi), g)
            b = pure_to_density(rotate_pure(psi, g))
            assert np.max(np.abs(a.matrix - b.matrix)) < 1e-10

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(4)
        rho = DensityMatrix(_h(2), _random_density(rng, 5))
        eigs = np.sort(np.linalg.eigvalsh(rho.matrix))
        for _ in range(100):
            g = EulerAngles(*rng.uniform(-2 * math.pi, 2 * math.pi, 3))
            out = rotate_density(rho, g)
            assert np.allclose(np.sort(np.linalg.eigvalsh(out.matrix)),
                               eigs, atol=1e-10)
            assert validate(out).purity == pytest.approx(
                validate(rho).purity, abs=1e-10)


class TestTwoQubitEmbedding:
    def test_bell(self):
        bell = DensityMatrix(_h(1), np.diag([0.0, 1.0, 0.0]).astype(complex))
        rho4 = symmetric_to_two_qubit(bell)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = 0.5
        assert np.allclose(rho4, expected, atol=1e-14)

    def test_top_state(self):
        top = DensityMatrix(_h(1), np.diag([1.0, 0.0, 0.0]).astype(complex))
        rho4 = symmetric_to_two_qubit(top)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.allclose(rho4, expected, atol=1e-14)

    def test_isometry_preserves_spectrum(self):
        rng = np.random.default_rng(8)
        rho = DensityMatrix(_h(1), _random_density(rng, 3))
        rho4 = symmetric_to_two_qubit(rho)
        assert abs(np.trace(rho4) - 1.0) < 1e-12
        assert np.max(np.abs(rho4 - rho4.conj().T)) < 1e-12
        small = np.sort(np.linalg.eigvalsh(rho.matrix))
        big = np.sort(np.linalg.eigvalsh(rho4))
        assert np.allclose(big[1:], small, atol=1e-12)
        assert abs(big[0]) < 1e-12

    def test_requires_spin_one(self):
        with pytest.raises(ValueError):
            symmetric_to_two_qubit(GHZ3)


class TestPPT:
    def test_bell_min_eigenvalue(self):
        bell = DensityMatrix(_h(1), np.diag([0.0, 1.0, 0.0]).astype(complex))
        result = ppt_check(bell)
        assert result.applicable
        assert result.entangled
        assert result.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    def test_product_state_separable(self):
        rho4 = np.zeros((4, 4), dtype=complex)
        rho4[0, 0] = 1.0
        result = ppt_two_qubit(rho4)
        assert not result.entangled

    def test_separable_mixtures_pass(self):
        # random convex mixtures of symmetric product states stay PPT
        rng = np.random.default_rng(13)
        from multiaxial.families import make_coherent
        for _ in range(20):
            weights = rng.dirichlet(np.ones(4))
            mat = np.zeros((3, 3), dtype=complex)
            for w in weights:
                th = rng.uniform(0, math.pi)
                ph = rng.uniform(0, 2 * math.pi)
                psi = make_coherent(_h(1), th, ph)
                mat += w * np.outer(psi.amplitudes, psi.amplitudes.conj())
            result = ppt_check(DensityMatrix(_h(1), mat))
            assert not result.entangled

    def test_not_applicable_beyond_spin_one(self):
        result = ppt_check(GHZ3)
        assert not result.applicable
        assert not result.entangled


class TestStateFiles:
    def test_density_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        write_state(path, GHZ3)
        back = read_state(path)
        assert isinstance(back, DensityMatrix)
        assert back.j == GHZ3.j
        assert np.max(np.abs(back.matrix - GHZ3.matrix)) < 1e-15

    def test_pure_round_trip(self, tmp_path):
        psi = PureState(_h(1), np.array([0.6, 0.0, 0.8j]))
        path = tmp_path / "pure.json"
        write_state(path, psi)
        back = read_state(path)
        assert isinstance(back, PureState)
        assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-15)

    def test_half_integer_j_string(self):
        doc = state_to_json(GHZ3)
        assert doc["j"] == "3/2"
        assert doc["basis"] == "jm_descending"

    def test_rejects_non_hermitian(self):
        doc = {
            "j": "1",
            "matrix": [
                [1.0, 0.5, 0.0],
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ],
        }
        with pytest.raises(StateFormatError, match="Hermitian"):
            state_from_json(doc)

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"j": "1", "matrix": [[')
        with pytest.raises(StateFormatError, match="line"):
            read_state(path)

    def test_rejects_missing_j(self):
        with pytest.raises(StateFormatError):
            state_from_json({"matrix": [[1.0]]})

    @pytest.mark.parametrize("j", ["-1/2", "-1"])
    def test_rejects_negative_j(self, j):
        with pytest.raises(StateFormatError, match="'j': .* is negative"):
            state_from_json({"j": j, "matrix": []})

    def test_rejects_unknown_basis(self):
        with pytest.raises(StateFormatError, match="basis"):
            state_from_json({"j": "1", "basis": "jm_ascending",
                             "amplitudes": [1.0, 0.0, 0.0]})

    @pytest.mark.parametrize("doc", [
        {"j": "1", "matrix": [[float("nan"), 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]},
        {"j": "1", "matrix": [[{"re": 0.5, "im": float("inf")}, 0.0, 0.0],
                              [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]]},
        {"j": "1/2", "amplitudes": [float("nan"), 1.0]},
    ], ids=["nan-matrix", "inf-matrix", "nan-amplitude"])
    def test_rejects_non_finite_entries(self, doc):
        # NaN passes the Hermiticity and normalisation checks, which compare
        # with ">"; the entry itself is rejected
        with pytest.raises(StateFormatError, match="non-finite"):
            state_from_json(doc)

    @pytest.mark.parametrize("entry", [
        {"re": True}, {"re": "1"}, {"re": 1.0, "im": False}, {"re": 1.0, "im": "0"}, {"im": 0.0},
        True, "1", None,
    ], ids=["re-bool", "re-string", "im-bool", "im-string", "no-re", "bool", "string", "null"])
    def test_rejects_entries_that_are_not_json_numbers(self, entry):
        # a bool is an int to Python and float() reads a numeric string, so
        # both would otherwise pass as the number 1
        for doc in ({"j": "1/2", "amplitudes": [entry, 0.0]},
                    {"j": "1/2", "matrix": [[entry, 0.0], [0.0, 0.0]]}):
            with pytest.raises(StateFormatError, match="malformed complex entry"):
                state_from_json(doc)
