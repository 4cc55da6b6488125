"""Spherical tensor extraction: values, conjugation, round trip, rotation
covariance and the Parseval identity."""

import math

import numpy as np
import pytest

from oracles import reconstruct_density, tau_table_reference

from multiaxial.angular import SpinTooLargeError, tau_matrix, wigner_d_matrix
from multiaxial.families import make_bell, make_ghz, make_w
from multiaxial import fano
from multiaxial.fano import _tau_table, extract_tensors
from multiaxial.halfint import HalfInteger, dimension
from multiaxial.states import (
    DensityMatrix,
    EulerAngles,
    pure_to_density,
    rotate_density,
    validate,
)


def _h(x):
    return HalfInteger.of(x)


def _random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m @ m.conj().T
    return m / np.trace(m)


class TestExtraction:
    def test_ghz3(self):
        t = extract_tensors(pure_to_density(make_ghz(3)))
        assert t.component(2, 0) == pytest.approx(1.0, abs=1e-10)
        assert t.component(3, 3) == pytest.approx(-1.0, abs=1e-10)
        assert t.component(3, -3) == pytest.approx(1.0, abs=1e-10)
        for k, q in [(1, -1), (1, 0), (1, 1), (2, -2), (2, -1), (2, 1),
                     (2, 2), (3, -2), (3, -1), (3, 0), (3, 1), (3, 2)]:
            assert abs(t.component(k, q)) < 1e-12

    def test_ghz4(self):
        t = extract_tensors(pure_to_density(make_ghz(4)))
        assert t.component(2, 0) == pytest.approx(math.sqrt(10.0 / 7.0),
                                                  abs=1e-10)
        assert t.component(4, 0) == pytest.approx(1.0 / math.sqrt(14.0),
                                                  abs=1e-10)
        assert t.component(4, 4) == pytest.approx(math.sqrt(5.0) / 2.0,
                                                  abs=1e-10)
        assert t.component(4, -4) == pytest.approx(math.sqrt(5.0) / 2.0,
                                                   abs=1e-10)

    def test_maximally_mixed(self):
        t = extract_tensors(DensityMatrix(_h(2), np.eye(5) / 5.0))
        assert t.component(0, 0) == pytest.approx(1.0, abs=1e-14)
        for k in range(1, 5):
            assert np.max(np.abs(t.rank_components(k))) < 1e-14

    def test_w_state(self):
        t = extract_tensors(pure_to_density(make_w(3)))
        assert t.component(1, 0) == pytest.approx(-1.0 / math.sqrt(5.0),
                                                  abs=1e-10)
        assert t.component(2, 0) == pytest.approx(-1.0, abs=1e-10)
        assert t.component(3, 0) == pytest.approx(3.0 / math.sqrt(5.0),
                                                  abs=1e-10)

    def test_bell_magnitude(self):
        # printed value is +sqrt(2); Condon-Shortley evaluation gives the
        # opposite sign, so only the magnitude is pinned
        t = extract_tensors(pure_to_density(make_bell()))
        assert abs(t.component(2, 0)) == pytest.approx(math.sqrt(2.0),
                                                       abs=1e-10)
        assert t.component(2, 0).real < 0

    def test_conjugation_property(self):
        # t^k_q* = (-1)^q t^k_{-q}
        rng = np.random.default_rng(21)
        t = extract_tensors(DensityMatrix(_h("5/2"), _random_density(rng, 6)))
        for k in range(6):
            comp = t.rank_components(k)
            signs = (-1.0) ** np.arange(-k, k + 1)
            assert np.max(np.abs(np.conj(comp) - signs * comp[::-1])) < 1e-12


class TestRoundTrip:
    def test_extract_then_reconstruct(self):
        rng = np.random.default_rng(2)
        for tj in (1, 2, 3, 4):
            rho = DensityMatrix(HalfInteger(tj), _random_density(rng, tj + 1))
            back = reconstruct_density(extract_tensors(rho))
            assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-10

    def test_reconstruct_then_extract(self):
        rng = np.random.default_rng(6)
        t = extract_tensors(DensityMatrix(_h(2), _random_density(rng, 5)))
        t2 = extract_tensors(reconstruct_density(t))
        for k in range(5):
            assert np.max(np.abs(t.rank_components(k)
                                 - t2.rank_components(k))) < 1e-10


def _rotated_tensors(t, g):
    """(t^k_q)' = sum_q' conj(D^k_{q q'}(g)) t^k_q' for every rank: the
    components transform contragradiently to the operator basis."""
    ranks = []
    for k in range(t.max_rank + 1):
        dmat = wigner_d_matrix(k, g.alpha, g.beta, g.gamma)[::-1, ::-1]  # q ascending
        ranks.append(np.conj(dmat) @ t.rank_components(k))
    return ranks


class TestRotation:
    def test_matches_density_rotation(self):
        # covariance on 100 random (rho, g) over the whole range 2j = 1..20
        rng = np.random.default_rng(17)
        for _ in range(100):
            tj = int(rng.integers(1, 21))
            rho = DensityMatrix(HalfInteger(tj), _random_density(rng, tj + 1))
            g = EulerAngles(*rng.uniform(-2 * math.pi, 2 * math.pi, 3))
            a = _rotated_tensors(extract_tensors(rho), g)
            b = extract_tensors(rotate_density(rho, g))
            for k in range(tj + 1):
                assert np.max(np.abs(a[k] - b.rank_components(k))) < 1e-10


def _rank_norm(t, k):
    """t^k . t^k = sum_q (-1)^q t^k_{-q} t^k_q = sum_q |t^k_q|^2 by conjugation."""
    return float(np.sum(np.abs(t.rank_components(k)) ** 2))


class TestInvariants:
    def test_bell_rank2_norm(self):
        t = extract_tensors(pure_to_density(make_bell()))
        assert _rank_norm(t, 2) == pytest.approx(2.0, abs=1e-10)

    def test_rank0_norm_is_one(self):
        rng = np.random.default_rng(31)
        t = extract_tensors(DensityMatrix(_h(1), _random_density(rng, 3)))
        assert _rank_norm(t, 0) == pytest.approx(1.0, abs=1e-12)

    def test_purity_identity(self):
        # Parseval: sum_k t^k . t^k / (2j+1) = Tr rho^2
        rng = np.random.default_rng(37)
        for tj in (1, 2, 3, 4):
            rho = DensityMatrix(HalfInteger(tj), _random_density(rng, tj + 1))
            t = extract_tensors(rho)
            total = sum(_rank_norm(t, k) for k in range(tj + 1))
            assert total / dimension(HalfInteger(tj)) == pytest.approx(
                validate(rho).purity, abs=1e-10)

    def test_pure_state_norm_sum(self):
        # sum_k t^k . t^k = 2j+1 for pure states
        rng = np.random.default_rng(41)
        for tj in (1, 2, 3, 4):
            amps = rng.normal(size=tj + 1) + 1j * rng.normal(size=tj + 1)
            amps /= np.linalg.norm(amps)
            rho = DensityMatrix(HalfInteger(tj), np.outer(amps, amps.conj()))
            t = extract_tensors(rho)
            total = sum(_rank_norm(t, k) for k in range(tj + 1))
            assert total == pytest.approx(dimension(HalfInteger(tj)), abs=1e-8)


class TestTauTable:
    def test_matches_trace_oracle_every_spin(self):
        # one gather over the cached table against Tr(rho tau^k_q) per component
        rng = np.random.default_rng(61)
        for twice_j in range(1, 21):
            j = HalfInteger(twice_j)
            rho = _random_density(rng, twice_j + 1)
            t = extract_tensors(DensityMatrix(j, rho))
            for k in range(twice_j + 1):
                for q in range(-k, k + 1):
                    expected = np.trace(rho @ tau_matrix(j, k, q))
                    assert abs(t.component(k, q) - expected) < 1e-13

    def test_equals_per_entry_reference_bit_for_bit(self):
        # the mirrored entries carry the Racah sum's bits up to sign, and a
        # zero stays +0.0: tobytes tells -0.0 from 0.0
        for twice_j in range(0, 21):
            index, weight = _tau_table(twice_j)
            ref_index, ref_weight = tau_table_reference(twice_j)
            assert index.dtype == ref_index.dtype and weight.dtype == ref_weight.dtype
            assert index.tobytes() == ref_index.tobytes(), twice_j
            assert weight.tobytes() == ref_weight.tobytes(), twice_j
            assert not index.flags.writeable and not weight.flags.writeable

    def test_no_coefficient_is_asked_for_twice(self, monkeypatch):
        # every table takes each Racah sum once, so a memo of _cg_twice
        # would never be read again
        seen = []
        cg_twice = fano._cg_twice

        def recording(*args):
            seen.append(args)
            return cg_twice(*args)

        monkeypatch.setattr(fano, "_cg_twice", recording)
        for twice_j in range(1, 21):
            fano._tau_table.__wrapped__(twice_j)
        assert seen and len(set(seen)) == len(seen)

    def test_spin_cap_still_raises(self):
        with pytest.raises(SpinTooLargeError):
            extract_tensors(DensityMatrix(HalfInteger(22), np.eye(23) / 23))
