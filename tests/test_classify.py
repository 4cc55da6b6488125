"""Degeneracy configurations, signatures, separability and LU equivalence."""

import itertools
import math
import os
import sys
import time

import numpy as np
import pytest

from multiaxial import classify
from multiaxial.angular import couple_axis_chain, spin_matrices
from multiaxial.classify import (
    COHERENT_REASON,
    FINGERPRINT_TOL,
    FRAME_REASON,
    WITNESS_TOL,
    ClassSignature,
    DegeneracyConfiguration,
    SeparabilityVerdict,
    Tolerances,
    class_signature,
    degeneracy_configuration,
    euler_zyz_from_matrix,
    lu_equivalent,
    pure_separability_check,
    separable_reference_r,
    _axis_decision,
    _coherent_witness,
    _frame,
    _frame_candidates,
    _pose_candidates,
    _turn_to_z,
)
from multiaxial.families import (
    make_bell,
    make_biaxial,
    make_coherent,
    make_dicke,
    make_ghz,
    make_triaxial,
    make_uniaxial,
    make_w,
)
from multiaxial.cli import build_report
from multiaxial.fano import extract_tensors
from multiaxial import axes as axes_module
from multiaxial.axes import DegenerateFitError, root_structure, solve_axes
from multiaxial.halfint import HalfInteger
from multiaxial.states import (
    DensityMatrix,
    EulerAngles,
    PureState,
    pure_to_density,
    rotate_density,
)
from oracles import (
    axial_candidates_reference,
    farthest_axis,
    frame_candidates_reference,
    frame_from_pair,
    separability_from_signature,
    turn_to_z_reference,
    twirl,
)
from test_properties import isotropic_forms, majorana_state, random_points, thermal_state


def _h(x):
    return HalfInteger.of(x)


#: The reason of an ``equivalent`` read off the axes (``_axis_decision``).
AXIS_REASON = "witness rotation maps the constellations and the density matrices"


def _unit(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def _random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m @ m.conj().T
    return m / np.trace(m)


class TestConfiguration:
    def test_partition_invariants(self):
        with pytest.raises(ValueError):
            DegeneracyConfiguration(3, (1, 1))
        with pytest.raises(ValueError):
            DegeneracyConfiguration(3, (1, 2))
        cfg = DegeneracyConfiguration(4, (2, 1, 1))
        assert len(cfg.partition) == 3  # the diversity degree
        assert cfg.render() == "D^4_2,1,1"

    def test_bell_rank2(self):
        t = extract_tensors(pure_to_density(make_bell()))
        cfg = degeneracy_configuration(solve_axes(t, 2))
        assert cfg.partition == (2,)
        assert cfg.render() == "D^2_2"

    def test_ghz3_rank3(self):
        t = extract_tensors(pure_to_density(make_ghz(3)))
        cfg = degeneracy_configuration(solve_axes(t, 3))
        assert cfg.partition == (1, 1, 1)

    def test_ghz4_rank4(self):
        t = extract_tensors(pure_to_density(make_ghz(4)))
        cfg = degeneracy_configuration(solve_axes(t, 4))
        assert cfg.partition == (2, 2)

    def test_biaxial_angles(self):
        t = extract_tensors(make_biaxial(0.4, math.pi / 4).rho)
        cfg = degeneracy_configuration(solve_axes(t, 2))
        assert cfg.partition == (1, 1)
        t = extract_tensors(make_biaxial(0.4, math.pi / 2).rho)
        cfg = degeneracy_configuration(solve_axes(t, 2))
        assert cfg.partition == (2,)

    @pytest.mark.parametrize("theta", [4e-3, 5e-4, 5e-5])
    def test_biaxial_close_axes_split_by_solver(self, theta):
        # the two axes lie 2 theta apart, down to 1e-4 rad: 100 times
        # --tol-angle, so merging them must fail the acceptance gate
        decomp = solve_axes(extract_tensors(make_biaxial(0.5, theta).rho), 2)
        assert degeneracy_configuration(decomp).render() == "D^2_1,1"
        axes = sorted((axis.phi, axis.theta) for axis, _ in decomp.axes)
        assert axes[0] == pytest.approx((0.0, theta), abs=1e-9)
        assert axes[1] == pytest.approx((math.pi, theta), abs=1e-9)


class TestSignature:
    def test_ghz3(self):
        sig = class_signature(pure_to_density(make_ghz(3)))
        assert sig.render() == "{D^2_2, D^3_1,1,1}"

    def test_w(self):
        sig = class_signature(pure_to_density(make_w(3)))
        assert sig.render() == "{D^1_1, D^2_2, D^3_3}"

    def test_maximally_mixed_empty(self):
        sig = class_signature(DensityMatrix(_h(1), np.eye(3) / 3.0))
        assert sig.render() == "{}"
        assert all(not d.present for d in sig.ranks)

    def test_triaxial_interior(self):
        sig = class_signature(make_triaxial(0.3, 0.4, 1.0).rho)
        assert sig.render() == "{D^1_1, D^2_1,1}"

    def test_invariant_counting(self):
        # full-rank states: C(j(2j+1), 2) pairwise values + 2j scalars r_k
        rng = np.random.default_rng(51)
        expected = {2: 5, 3: 18, 4: 49}
        for tj, count in expected.items():
            sig = class_signature(
                DensityMatrix(HalfInteger(tj), _random_density(rng, tj + 1)))
            assert all(d.present for d in sig.ranks)
            assert len(sig.pairwise) + len(sig.ranks) == count

    def test_signature_rotation_invariant(self):
        rng = np.random.default_rng(53)
        rho = pure_to_density(make_ghz(3))
        base = class_signature(rho)
        for _ in range(50):
            g = EulerAngles(*rng.uniform(0, 2 * math.pi, 3))
            sig = class_signature(rotate_density(rho, g))
            assert sig.render() == base.render()
            for a, b in zip(base.ranks, sig.ranks):
                assert abs(a.r_k - b.r_k) < 1e-8
            assert np.allclose(sig.pairwise, base.pairwise, atol=1e-7)


class TestSeparability:
    def test_reference_values(self):
        ref1 = separable_reference_r(2)
        assert ref1[1] == pytest.approx(math.sqrt(1.5), abs=1e-12)
        assert ref1[2] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
        ref32 = separable_reference_r(3)
        assert ref32[1] == pytest.approx(3.0 / math.sqrt(5.0), abs=1e-12)
        assert ref32[3] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_reference_matches_clebsch_gordan_chain(self):
        # r_k over the CG-coupled z-axis tensor, the construction the
        # polynomial product replaced
        chains = {k: couple_axis_chain([(0.0, 0.0)] * k) for k in range(1, 21)}
        for twice_j in range(1, 21):
            dim = twice_j + 1
            top = np.zeros((dim, dim), dtype=complex)
            top[0, 0] = 1.0
            t = extract_tensors(DensityMatrix(HalfInteger(twice_j), top))
            ref = separable_reference_r(twice_j)
            for k in range(1, twice_j + 1):
                chain = chains[k]
                scale = np.vdot(chain, t.rank_components(k)) / np.vdot(chain, chain)
                assert abs(ref[k] - abs(scale)) < 1e-12

    def test_top_dicke_separable(self):
        rho = pure_to_density(make_dicke(1, 1))
        verdict = pure_separability_check(rho)
        assert verdict.applicable and verdict.separable
        # the recipe alone reads it separable too
        assert separability_from_signature(class_signature(rho)).separable

    def test_coherent_separable(self):
        rng = np.random.default_rng(57)
        for _ in range(20):
            tj = int(rng.integers(1, 5))
            rho = pure_to_density(make_coherent(
                HalfInteger(tj), rng.uniform(0, math.pi),
                rng.uniform(0, 2 * math.pi)))
            assert pure_separability_check(rho).separable
            assert separability_from_signature(class_signature(rho)).separable

    @pytest.mark.parametrize("twice_j", range(1, 21))
    def test_coherent_takes_the_witness(self, twice_j):
        for theta in (0.0, 1e-7, 0.7, math.pi - 1e-7, math.pi):
            rho = pure_to_density(make_coherent(HalfInteger(twice_j), theta, 1.3))
            assert pure_separability_check(rho) == SeparabilityVerdict(True, True, COHERENT_REASON)

    def test_entangled_states_keep_the_recipe_verdict(self):
        # GHZ from 2j = 3 up and Dicke m = 0 have <J> = 0; W, the other
        # Dicke states and random pure states are turned and rejected
        rng = np.random.default_rng(40)
        states = []
        for tj in range(2, 21):
            amps = rng.normal(size=tj + 1) + 1j * rng.normal(size=tj + 1)
            states += [make_ghz(tj), make_w(tj), make_dicke(HalfInteger(tj), HalfInteger(tj % 2)),
                       make_dicke(HalfInteger(tj), HalfInteger(tj - 2)),
                       PureState(HalfInteger(tj), amps / np.linalg.norm(amps))]
        for psi in states:
            rho = pure_to_density(psi)
            verdict = pure_separability_check(rho)
            assert not verdict.separable
            assert not separability_from_signature(class_signature(rho)).separable

    @pytest.mark.parametrize("build", [
        lambda: pure_to_density(make_coherent(HalfInteger(20), math.pi - 1e-7, 0.0)),
        lambda: rotate_density(pure_to_density(make_coherent(HalfInteger(20), 0.0, 0.0)),
                               EulerAngles(1.0, 1e-7, 0.3)),
    ], ids=["near-south-pole", "tilted-off-z"])
    def test_near_pole_misread_mended_in_the_verdict_only(self, build):
        # the z-axis trimming splits a k-fold axis 1e-7 rad off the pole
        # (ROADMAP item 8), so the signature still reads two lines, and the
        # paper's recipe on it reads not separable; the witness turn alone
        # decides the verdict
        rho = build()
        recipe = separability_from_signature(class_signature(rho))
        assert not recipe.separable
        assert recipe.reason.startswith("axes not all collinear")
        assert pure_separability_check(rho) == SeparabilityVerdict(True, True, COHERENT_REASON)

    @pytest.mark.parametrize("twice_j", [5, 20])
    def test_perturbed_coherent_reads_as_it_compares(self, twice_j):
        # one resolution, delta = WITNESS_TOL, for separable and equivalent
        j = HalfInteger(twice_j)
        psi = make_coherent(j, 0.7, 1.3)
        base = pure_to_density(psi)
        rng = np.random.default_rng(twice_j)
        kick = rng.normal(size=twice_j + 1) + 1j * rng.normal(size=twice_j + 1)
        kick /= np.max(np.abs(kick))
        for eps, within in ((1e-12, True), (1e-8, False)):
            amps = psi.amplitudes + eps * kick
            rho = pure_to_density(PureState(j, amps / np.linalg.norm(amps)))
            verdict = pure_separability_check(rho)
            assert (lu_equivalent(rho, base).verdict == "equivalent") is within
            assert verdict.separable is within
            if within:
                assert verdict.reason == COHERENT_REASON
            else:
                # |<J>| moves at second order in eps, so the turn rejects it
                assert verdict.reason.startswith(
                    "witness rotation taking <J> to z misses |j j><j j| by ")
                assert not separability_from_signature(class_signature(rho)).separable

    @pytest.mark.parametrize("twice_j", range(1, 21))
    def test_coherent_pretest_rejects_only_what_the_turn_rejects(self, twice_j):
        # a turned matrix within delta of |j j><j j| has <J_z> >= j - delta
        # sum_m |m|, and <J_z> after the turn is |<J>|, so a state below
        # that bound is rejected before the turn; the turn alone must reject
        # it too.  D(R)|j j> + eps d with amplitudes kicked (|<J>| moves at
        # second order in eps) and mixed with a random state (first order)
        j = HalfInteger(twice_j)
        spins = spin_matrices(twice_j)
        bound = twice_j / 2 - WITNESS_TOL * float(np.sum(np.abs(np.diag(spins[2]))))
        rng = np.random.default_rng([41, twice_j])
        psi = make_coherent(j, 0.7, 1.3)
        kick = rng.normal(size=twice_j + 1) + 1j * rng.normal(size=twice_j + 1)
        kick /= np.max(np.abs(kick))
        sigma = _random_density(rng, twice_j + 1)
        below = accepted = 0
        for eps in np.geomspace(1e-12, 1e-5, 15):
            amps = psi.amplitudes + eps * kick
            for rho in (pure_to_density(PureState(j, amps / np.linalg.norm(amps))),
                        DensityMatrix(j, (1.0 - eps) * pure_to_density(psi).matrix
                                      + eps * sigma)):
                n = np.einsum("aij,ji->a", spins, rho.matrix).real
                _, turned = _turn_to_z(rho, n / np.linalg.norm(n))
                turned[0, 0] -= 1.0
                turn_accepts = bool(np.max(np.abs(turned)) <= WITNESS_TOL)
                assert _coherent_witness(rho).separable is turn_accepts
                if np.linalg.norm(n) < bound:
                    assert not turn_accepts
                    below += 1
                accepted += turn_accepts
        # both sides of delta, and the bound rejects some states itself
        assert accepted and below

    def test_bell_not_separable(self):
        verdict = pure_separability_check(pure_to_density(make_bell()))
        assert verdict.applicable and not verdict.separable

    def test_w_not_separable_despite_collinear(self):
        # its axes are collinear, but |<J>| = j - 1 stops it before the turn
        verdict = pure_separability_check(pure_to_density(make_w(3)))
        assert verdict == SeparabilityVerdict(
            False, True, f"|<J>| = {0.5:.9f} is below {1.5 - 4 * WITNESS_TOL:.9f}, the least "
                         "that the witness turn accepts")

    def test_zero_mean_spin_not_turned(self):
        for psi in (make_ghz(20), make_dicke(HalfInteger(4), HalfInteger(0))):
            verdict = pure_separability_check(pure_to_density(psi))
            assert verdict == SeparabilityVerdict(False, True, "<J> = 0: no rotated |j j> has it")

    def test_spin_zero_is_the_aligned_product_state(self):
        # |0 0> is |j j> at j = 0: <J> = 0 there, every turn is the
        # identity, and the delta test against |0 0><0 0| decides
        j = HalfInteger(0)
        rho = DensityMatrix(j, np.array([[1.0 + 0.0j]]))
        assert pure_separability_check(rho) == SeparabilityVerdict(True, True, COHERENT_REASON)
        assert build_report(rho, Tolerances())["separability"] == {
            "method": "pure-recipe", "separable": True, "reason": COHERENT_REASON}
        kicked = DensityMatrix(j, np.array([[1.0 + 1e-9 + 0.0j]]))
        miss = ("witness rotation taking <J> to z misses |j j><j j| by 1.000e-09, "
                f"above {WITNESS_TOL:g}")
        assert pure_separability_check(kicked) == SeparabilityVerdict(False, True, miss)
        assert build_report(kicked, Tolerances())["separability"] == {
            "method": "pure-recipe", "separable": False, "reason": miss}

    @pytest.mark.parametrize("build", [
        lambda: make_w(20),
        lambda: make_ghz(20),
        lambda: PureState(HalfInteger(20), _unit(np.random.default_rng(43), 21)),
    ], ids=["w", "ghz", "random"])
    def test_separability_signs_nothing(self, monkeypatch, build):
        calls = {"extract_tensors": 0, "solve_all_axes": 0}

        def counting(name):
            original = getattr(classify, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(classify, name, wrapper)

        for layer in calls:
            counting(layer)
        assert not pure_separability_check(pure_to_density(build())).separable
        assert calls == {"extract_tensors": 0, "solve_all_axes": 0}

    def test_ghz_not_separable(self):
        for n in (2, 3, 4):
            verdict = pure_separability_check(pure_to_density(make_ghz(n)))
            assert not verdict.separable

    @pytest.mark.parametrize("twice_j", [2, 5, 12, 20])
    def test_largest_angle_from_the_fingerprint(self, twice_j):
        # the recipe reads the largest line angle off the signature's sorted
        # cosines; the same angle over every pair of expanded axes
        rng = np.random.default_rng(twice_j)
        amps = rng.normal(size=twice_j + 1) + 1j * rng.normal(size=twice_j + 1)
        rho = DensityMatrix(HalfInteger(twice_j), np.outer(amps, amps.conj()) / np.vdot(amps, amps).real)
        sig = class_signature(rho)
        v = np.array([axis.vector for d in sig.ranks for axis, mult in d.axes
                      for _ in range(mult)])
        max_angle = math.acos(float(np.min(np.minimum(1.0, np.abs(v @ v.T)))))
        expected = f"axes not all collinear (max pairwise angle {max_angle:.3e} rad)"
        assert separability_from_signature(sig).reason == expected

    def test_mixed_not_applicable(self):
        verdict = pure_separability_check(make_uniaxial(0.4, 0.2, 0.1).rho)
        assert not verdict.applicable

    def test_agrees_with_ppt_for_spin_one_pure(self):
        from multiaxial.states import ppt_check
        rng = np.random.default_rng(59)
        for _ in range(20):
            amps = rng.normal(size=3) + 1j * rng.normal(size=3)
            amps /= np.linalg.norm(amps)
            rho = DensityMatrix(_h(1), np.outer(amps, amps.conj()))
            recipe = pure_separability_check(rho)
            ppt = ppt_check(rho)
            assert recipe.separable == (not ppt.entangled)


class TestLUEquivalence:
    def test_rotated_pairs_equivalent(self):
        rng = np.random.default_rng(61)
        for rho in (pure_to_density(make_ghz(3)),
                    pure_to_density(make_w(3)),
                    pure_to_density(make_bell()),
                    make_biaxial(0.4, 1.0).rho,
                    make_triaxial(0.3, 0.4, 0.9).rho):
            g = EulerAngles(*rng.uniform(0, 2 * math.pi, 3))
            result = lu_equivalent(rho, rotate_density(rho, g))
            assert result.verdict == "equivalent"
            assert result.witness is not None
            # the witness actually maps a onto b
            mapped = rotate_density(rho, result.witness)
            target = rotate_density(rho, g)
            assert np.max(np.abs(mapped.matrix - target.matrix)) < 1e-6

    def test_reflexive(self):
        rho = pure_to_density(make_ghz(4))
        assert lu_equivalent(rho, rho).verdict == "equivalent"

    def test_random_state_equivalent_to_itself(self):
        # the witness rotation is the identity up to rounding; reading its
        # Euler angles off the rounding noise gave a wrong witness
        rng = np.random.default_rng(0)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = DensityMatrix(HalfInteger(3), g @ g.conj().T / np.trace(g @ g.conj().T).real)
        for other in (rho, rotate_density(rho, EulerAngles(1.1, 0.0, 0.0)),
                      rotate_density(rho, EulerAngles(0.3, math.pi, -0.5))):
            result = lu_equivalent(rho, other)
            assert result.verdict == "equivalent"
            mapped = rotate_density(rho, result.witness)
            assert np.max(np.abs(mapped.matrix - other.matrix)) < 1e-6

    @pytest.mark.parametrize("beta", [0.0, 1e-13, 1e-10, 1e-8, 1e-6, 0.7,
                                      math.pi / 2, math.pi - 1e-8,
                                      math.pi - 1e-13, math.pi])
    def test_euler_angles_rebuild_the_rotation(self, beta):
        rng = np.random.default_rng(3)

        def rz(a):
            return np.array([[math.cos(a), -math.sin(a), 0.0],
                             [math.sin(a), math.cos(a), 0.0], [0.0, 0.0, 1.0]])

        def ry(b):
            return np.array([[math.cos(b), 0.0, math.sin(b)], [0.0, 1.0, 0.0],
                             [-math.sin(b), 0.0, math.cos(b)]])

        for alpha, gamma in rng.uniform(-math.pi, math.pi, (20, 2)):
            rot = rz(alpha) @ ry(beta) @ rz(gamma)
            # rounding-level asymmetry, as a frame product leaves it
            rot = rot + 2e-16 * rng.normal(size=(3, 3))
            e = euler_zyz_from_matrix(rot)
            rebuilt = rz(e.alpha) @ ry(e.beta) @ rz(e.gamma)
            assert np.max(np.abs(rebuilt - rot)) < 1e-14

    def test_bell_vs_top_dicke(self):
        result = lu_equivalent(pure_to_density(make_bell()),
                               pure_to_density(make_dicke(1, 1)))
        assert result.verdict == "inequivalent"

    def test_biaxial_different_angles(self):
        a = make_biaxial(0.4, math.pi / 4).rho
        b = make_biaxial(0.4, math.pi / 3).rho
        result = lu_equivalent(a, b)
        assert result.verdict == "inequivalent"

    def test_cross_family_inequivalent(self):
        states = [pure_to_density(make_ghz(3)),
                  pure_to_density(make_w(3)),
                  pure_to_density(make_dicke("3/2", "3/2"))]
        for i in range(len(states)):
            for l in range(i + 1, len(states)):
                assert lu_equivalent(states[i], states[l]).verdict \
                    == "inequivalent"

    def test_spin_mismatch(self):
        with pytest.raises(ValueError):
            lu_equivalent(pure_to_density(make_bell()),
                          pure_to_density(make_ghz(3)))

    def test_w_and_conjugate_w_identified(self):
        # the representation cannot distinguish a state from its complex
        # conjugate in this family; both map to the same signature
        w = pure_to_density(make_w(3))
        wc = DensityMatrix(w.j, w.matrix.conj())
        assert lu_equivalent(w, wc).verdict == "equivalent"

    def test_maximally_mixed_pair(self):
        rho = DensityMatrix(_h(1), np.eye(3) / 3.0)
        result = lu_equivalent(rho, rho)
        assert result.verdict == "equivalent"
        assert result.reason == "both states have no axes"
        assert result.witness == EulerAngles(0.0, 0.0, 0.0)

    def test_no_axes_pair_takes_the_witness_test(self):
        # every rank absent at tol_zero = 0.1, yet the states differ: the
        # identity fails the witness test and the invariants agree
        a = DensityMatrix(_h(1), np.diag([0.34, 0.33, 0.33]))
        b = DensityMatrix(_h(1), np.diag([0.33, 0.34, 0.33]))
        result = lu_equivalent(a, b, Tolerances(zero=0.1))
        assert result.verdict == "fingerprint-match-only" and result.witness is None
        assert lu_equivalent(a, b).verdict == "inequivalent"

    def test_symmetric(self):
        a = pure_to_density(make_ghz(3))
        b = rotate_density(a, EulerAngles(0.2, 0.8, 1.4))
        assert lu_equivalent(a, b).verdict == lu_equivalent(b, a).verdict

    @pytest.mark.parametrize("kind, tj, tm", [
        ("dicke", 5, 3), ("dicke", 8, 2), ("dicke", 20, 20), ("dicke", 11, 1),
        ("coherent", 3, None), ("coherent", 12, None), ("coherent", 20, None),
    ])
    def test_collinear_with_flipped_head(self, kind, tj, tm):
        # every axis lies on one line, and B's heads point the other way
        # along it, so the witness has to turn that line over
        j = HalfInteger(tj)
        if kind == "dicke":
            a, b = make_dicke(j, HalfInteger(tm)), make_dicke(j, HalfInteger(-tm))
        else:
            a, b = make_coherent(j, 0.7, 1.3), make_coherent(j, math.pi - 0.7, 1.3 + math.pi)
        rho_a, rho_b = pure_to_density(a), pure_to_density(b)
        result = lu_equivalent(rho_a, rho_b)
        assert result.verdict == "equivalent", result.reason
        assert np.max(np.abs(rotate_density(rho_a, result.witness).matrix - rho_b.matrix)) <= 1e-6
        # lu_equivalent answers from the frames; the axis path's pose
        # search about rank 1's one axis, <J>, must turn the line over too
        result = _axis_decision(rho_a, rho_b, Tolerances())
        assert (result.verdict, result.reason) == ("equivalent", AXIS_REASON)
        assert np.max(np.abs(rotate_density(rho_a, result.witness).matrix - rho_b.matrix)) \
            <= WITNESS_TOL


class TestOnePassDecision:
    """The axis path (``_axis_decision``): one pose search, A's first axis
    of its lowest present rank against each axis of B at that rank, each
    candidate tested on rho itself, so ranks whose roots are ill conditioned
    (not ``settled``) do no harm.  ``lu_equivalent`` answers each of these
    pairs from the covariant frames before it."""

    TURN = EulerAngles(0.9, 2.2, 4.1)

    def _equivalent_with_witness(self, rho):
        target = rotate_density(rho, self.TURN)
        result = _axis_decision(rho, target, Tolerances())
        assert result.verdict == "equivalent", result.reason
        assert np.max(np.abs(rotate_density(rho, result.witness).matrix - target.matrix)) \
            <= WITNESS_TOL
        framed = lu_equivalent(rho, target)
        assert (framed.verdict, framed.reason) == ("equivalent", FRAME_REASON)
        assert np.max(np.abs(rotate_density(rho, framed.witness).matrix - target.matrix)) \
            <= WITNESS_TOL
        return result

    @pytest.mark.parametrize("twice_j", [17, 19])
    def test_ghz_with_an_unsettled_top_rank_is_searched_about_z(self, twice_j):
        # rank 2j is unsettled and every other axis lies on z, so the pose
        # search about rank 2's one axis, z, fixes the rotation alone
        rho = pure_to_density(make_ghz(twice_j))
        decomps = [d for d in class_signature(rho).ranks if d.present]
        assert [d.k for d in decomps if not d.settled] == [twice_j]
        for d in decomps[:-1]:
            assert [abs(axis.unit_vector[2]) for axis, _ in d.axes] == [1.0]
        result = self._equivalent_with_witness(rho)
        assert result.reason == AXIS_REASON

    def test_coherent_mixture_with_unsettled_ranks_has_a_witness(self):
        j = HalfInteger(18)
        rho = DensityMatrix(j, 0.3 * pure_to_density(make_coherent(j, 0.4, 0.2)).matrix
                            + 0.7 * pure_to_density(make_coherent(j, 1.9, 2.6)).matrix)
        assert [d.k for d in class_signature(rho).ranks if d.present and not d.settled] \
            == [14, 15, 16, 17, 18]
        result = self._equivalent_with_witness(rho)
        assert result.reason == AXIS_REASON

    def test_signatures_rendered_only_when_the_search_fails(self, monkeypatch):
        renders = []
        render = ClassSignature.render
        monkeypatch.setattr(ClassSignature, "render",
                            lambda sig: renders.append(sig.j) or render(sig))
        rho = DensityMatrix(HalfInteger(6), _random_density(np.random.default_rng(5), 7))
        self._equivalent_with_witness(rho)
        assert renders == []
        result = lu_equivalent(pure_to_density(make_bell()), pure_to_density(make_dicke(1, 1)))
        assert result.reason == "degeneracy configurations differ: {D^2_2} vs {D^1_1, D^2_2}"
        assert len(renders) == 2

    def test_every_rank_settled_names_no_rank_left_out(self):
        rho = DensityMatrix(HalfInteger(6), _random_density(np.random.default_rng(5), 7))
        assert all(d.settled for d in class_signature(rho).ranks if d.present)
        result = self._equivalent_with_witness(rho)
        assert result.reason == AXIS_REASON


class TestOneRankPerState:
    """The axis path reads A's ranks one at a time up to its lowest present
    rank k, then B's rank k, and signs neither state when the search finds a
    witness.  The pairs are the thermal and tetrahedral compares of CI."""

    @staticmethod
    def _thermal():
        n = np.array([0.3, -0.5, 0.81])
        rho = thermal_state(10, 1e-6, n / np.linalg.norm(n))
        return rho, rotate_density(rho, EulerAngles(0.9, 2.2, 4.1))

    @staticmethod
    def _tetrahedral():
        amps = [1 / math.sqrt(3), 0.0, 0.0, math.sqrt(2 / 3), 0.0]
        rho = rotate_density(pure_to_density(PureState(HalfInteger(4), amps)),
                             EulerAngles(0.4, 1.1, 2.3))
        return rho, rotate_density(rho, EulerAngles(1.0, 0.5, 0.2))

    @pytest.mark.parametrize("pair, ranks", [("_thermal", [1, 1]), ("_tetrahedral", [1, 2, 3, 3])])
    def test_search_reads_one_rank_of_each_and_signs_nothing(self, monkeypatch, pair, ranks):
        rho_a, rho_b = getattr(self, pair)()
        read, signed = [], []
        solve, sign = classify.solve_axes, classify.signature_from_tensors
        monkeypatch.setattr(classify, "solve_axes",
                            lambda t, k, *args: read.append(k) or solve(t, k, *args))
        monkeypatch.setattr(classify, "signature_from_tensors",
                            lambda *args: signed.append(args) or sign(*args))
        result = lu_equivalent(rho_a, rho_b)
        assert (result.verdict, result.reason) == ("equivalent", AXIS_REASON)
        assert np.max(np.abs(rotate_density(rho_a, result.witness).matrix - rho_b.matrix)) \
            <= WITNESS_TOL
        assert (read, signed) == (ranks, [])


class TestChiralPairs:
    """A chiral state and its complex conjugate, whose Majorana points are
    reflected (y -> -y): every invariant agrees, but no rotation maps one
    onto the other, so each candidate rotation fails the density check."""

    TURN = EulerAngles(0.9, 2.2, 4.1)

    def _assert_no_witness_to_the_conjugate(self, rho):
        conj = DensityMatrix(rho.j, rho.matrix.conj())
        for other in (conj, rotate_density(conj, self.TURN)):
            result = lu_equivalent(rho, other)
            assert result.verdict == "fingerprint-match-only", result.reason
            assert result.reason == "invariants agree but no single witness rotation was found"
            assert result.witness is None

    @pytest.mark.parametrize("twice_j", [3, 5, 8, 12])
    def test_pure(self, twice_j):
        points = random_points(np.random.default_rng(twice_j), twice_j)
        self._assert_no_witness_to_the_conjugate(
            pure_to_density(majorana_state(points, [1] * twice_j)))

    @pytest.mark.parametrize("twice_j", [3, 6, 10])
    def test_mixed(self, twice_j):
        rng = np.random.default_rng(twice_j)
        self._assert_no_witness_to_the_conjugate(
            DensityMatrix(HalfInteger(twice_j), _random_density(rng, twice_j + 1)))


def _fixed_set_compares(names) -> dict:
    """name -> (rho_a, rho_b) of the compares of ``tools/fixed_set.py`` named
    in ``names``, built by the set's own numpy code."""
    saved_path, write_bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))
    try:
        import fixed_set
    finally:
        # the import turns bytecode writing off and puts perfbench/ on the path
        sys.path[:], sys.dont_write_bytecode = saved_path, write_bytecode
    out = {}
    for name, rho_a, rho_b in fixed_set.cases():
        if name in names:
            out[name] = rho_a, rho_b
            if len(out) == len(names):
                return out
    raise LookupError(sorted(set(names) - set(out)))


class TestNearMisses:
    """The six ``majorana-moved`` compares of ``tools/fixed_set.py`` whose B
    state, one Majorana point moved by up to 0.01 rad, is mapped from A
    within 1.5e-8 to about 1e-6 by a rotation read off both states'
    covariant frames.  Each has two distinct Majorana points, and the move
    changes the angle between them only at second order.  No candidate of
    either path maps them within WITNESS_TOL, so they read ``inequivalent``
    by their fingerprints."""

    SEEDS = (21, 27, 38, 42, 47, 49)

    @pytest.fixture(scope="class")
    def compares(self):
        return _fixed_set_compares({f"majorana-moved/{seed}" for seed in self.SEEDS})

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reads_inequivalent(self, compares, seed):
        rho_a, rho_b = compares[f"majorana-moved/{seed}"]
        j = HalfInteger(rho_a.shape[0] - 1)
        result = lu_equivalent(DensityMatrix(j, rho_a), DensityMatrix(j, rho_b))
        assert result.verdict == "inequivalent", result.reason
        assert result.reason == "invariant fingerprints (r_k, pairwise cosines) differ"
        assert result.witness is None


class TestHighMultiplicity:
    """m-fold axes whose roots scatter wider than the 1e-2 clustering (m >= 7)."""

    @staticmethod
    def _collinear(sig):
        return [degeneracy_configuration(d).partition for d in sig.ranks] == \
            [(d.k,) for d in sig.ranks]

    def test_generic_coherent_all_k_fold_and_separable(self):
        for tj in range(2, 13):
            rho = pure_to_density(make_coherent(HalfInteger(tj), 0.7, 1.3))
            start = time.perf_counter()
            assert self._collinear(class_signature(rho)), tj
            assert pure_separability_check(rho).separable, tj
            assert time.perf_counter() - start < 2.0

    def test_near_z_axis_trimmed_to_z(self):
        # at theta = 0.036 the lowest coefficients of ranks 7..10 fall under
        # the trimming threshold, so one line per rank is pinned to z
        rho = pure_to_density(make_coherent(HalfInteger(10), 0.036, 2.0))
        assert self._collinear(class_signature(rho))
        assert pure_separability_check(rho).separable

    @pytest.mark.parametrize("name", ["ghz", "w", "dicke", "coherent"])
    def test_rotated_copies_equivalent(self, name):
        rng = np.random.default_rng(67)
        for tj in range(7, 11):
            psi = {"ghz": lambda: make_ghz(tj),
                   "w": lambda: make_w(tj),
                   "dicke": lambda: make_dicke(HalfInteger(tj), HalfInteger(tj % 2)),
                   "coherent": lambda: make_coherent(HalfInteger(tj), 0.7, 1.3)}[name]()
            rho = pure_to_density(psi)
            for _ in range(2):
                g = EulerAngles(*rng.uniform(0, 2 * math.pi, 3))
                target = rotate_density(rho, g)
                start = time.perf_counter()
                result = lu_equivalent(rho, target)
                assert time.perf_counter() - start < 2.0
                assert result.verdict == "equivalent", (tj, result.reason)
                mapped = rotate_density(rho, result.witness)
                assert np.max(np.abs(mapped.matrix - target.matrix)) < 1e-6

    # Near the pole the z-axis trimming reads a multiple axis differently on
    # a last-bit change (ROADMAP item 8); the covariant frames give these
    # compares their witness before any signature.

    @staticmethod
    def _frame_equivalent(rho, target):
        result = lu_equivalent(rho, target)
        assert (result.verdict, result.reason) == ("equivalent", FRAME_REASON)
        assert np.max(np.abs(rotate_density(rho, result.witness).matrix - target.matrix)) \
            <= WITNESS_TOL

    def test_ghz_tilted_off_z_equivalent_to_identity_rotated_copy(self):
        # the identity rotation changes the matrix only in its last bits;
        # the axis stage splits rank 12 there (D^12_11,1 against D^12_12)
        rho = rotate_density(pure_to_density(make_ghz(19)), EulerAngles(1.0, 1e-7, 0.0))
        self._frame_equivalent(rho, rotate_density(rho, EulerAngles(0.0, 0.0, 0.0)))

    @pytest.mark.parametrize("twice_j, build", [
        (13, make_w), (20, lambda n: make_coherent(HalfInteger(n), 0.0, 0.0)),
    ], ids=["w-13", "coherent-20"])
    def test_tilted_off_z_equivalent_to_turned_copies(self, twice_j, build):
        # 1e-7 rad off z the axis stage reads rank 12 of W 2j = 13 as
        # D^12_11,1 and rank 13 of coherent 2j = 20 as D^13_12,1
        rho = rotate_density(pure_to_density(build(twice_j)), EulerAngles(1.0, 1e-7, 0.3))
        for g in (EulerAngles(0.9, 2.2, 4.1), EulerAngles(0.0, 0.0, 0.0)):
            self._frame_equivalent(rho, rotate_density(rho, g))

    @staticmethod
    def _coherent_mixture() -> DensityMatrix:
        """A two-coherent 2j = 20 mixture whose coherent directions lie 5.5
        and 17.3 degrees from the poles."""
        rng = np.random.default_rng(143)
        weights = rng.dirichlet([1.0, 1.0])
        heads = rng.normal(size=(2, 3))
        heads /= np.linalg.norm(heads, axis=1)[:, None]
        j = HalfInteger(20)
        return DensityMatrix(j, sum(
            w * pure_to_density(make_coherent(j, math.acos(z), math.atan2(y, x))).matrix
            for w, (x, y, z) in zip(weights, heads)))

    def test_coherent_mixture_equivalent_to_turned_copy(self):
        rho = self._coherent_mixture()
        self._frame_equivalent(rho, rotate_density(rho, EulerAngles(0.9, 2.2, 4.1)))

    def test_coherent_mixture_signature_raises(self, monkeypatch):
        # ROADMAP item 2: rank 15 fits no axis structure (residual 3.19e-12
        # against a gate of 6.45e-14), so analyze still exits 2 on this state;
        # the structure stage runs rank by rank, so it stops there too
        ranks = []

        def recording(coeffs, k, start):
            ranks.append(k)
            return root_structure(coeffs, k, start)

        monkeypatch.setattr(axes_module, "root_structure", recording)
        with pytest.raises(DegenerateFitError, match="rank 15"):
            class_signature(self._coherent_mixture())
        assert ranks and max(ranks) == 15


def _platonic_vertices() -> dict:
    """name -> unit vertices of the five platonic solids."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    signs = list(itertools.product((1.0, -1.0), repeat=3))

    def cyclic(v):
        return {tuple(s * x for s, x in zip(sign, v[i:] + v[:i])) for i in range(3) for sign in signs}

    cube = cyclic((1.0, 1.0, 1.0))
    solids = {
        "tetrahedron": {(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)},
        "octahedron": cyclic((1.0, 0.0, 0.0)),
        "cube": cube,
        "icosahedron": cyclic((0.0, 1.0, phi)),
        "dodecahedron": cube | cyclic((0.0, 1.0 / phi, phi)),
    }
    out = {}
    for name, vertices in solids.items():
        points = np.array(sorted(vertices))
        out[name] = points / np.linalg.norm(points, axis=1)[:, None]
    return out


class TestFrameWitness:
    """``lu_equivalent`` reads a witness off the covariant 3 x 3 forms of the
    two states before any signature; a state whose forms are all isotropic
    goes to the axis path."""

    TURN = EulerAngles(0.9, 2.2, 4.1)

    @pytest.mark.parametrize("name, twice_j", [
        ("tetrahedron", 4), ("octahedron", 6), ("cube", 8), ("icosahedron", 12),
        ("dodecahedron", 20)])
    def test_platonic_states_are_isotropic_and_equivalent_through_the_axis_path(
            self, name, twice_j):
        # a generic tilt keeps every Majorana point off the south pole, where
        # tan(theta/2) is infinite
        tilt = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
        points = _platonic_vertices()[name] @ tilt.T
        rho = pure_to_density(majorana_state(points, [1] * len(points)))
        assert rho.j.twice == twice_j
        assert isotropic_forms(rho)
        target = rotate_density(rho, self.TURN)
        result = lu_equivalent(rho, target)
        assert result.verdict == "equivalent", result.reason
        assert result.reason == AXIS_REASON
        assert np.max(np.abs(rotate_density(rho, result.witness).matrix - target.matrix)) \
            <= WITNESS_TOL

    # Near-pole draws that Hypothesis once found and only a local example
    # store kept (ROADMAP items 8 and 9).  The draws themselves were lost;
    # these angles, found by a scan, misread the same way on the axis path.
    @pytest.mark.parametrize("build, tilt, g", [
        # Dicke 2j = 11, m = 1/2: ranks 10 and 11 read D^k_k-1,1 on one side
        (lambda: make_dicke(HalfInteger(11), HalfInteger(1)),
         EulerAngles(5.218948408606197, 1.0130387329578111e-07, 6.17827021381561),
         EulerAngles(0.0, 0.0, 0.0)),
        # W 2j = 11 turned nearly upside down: rank 9 reads D^9_8,1 on one side
        (lambda: make_w(11), EulerAngles(2.0, math.pi - 1e-7, 0.0),
         EulerAngles(0.0, 2.0 ** -24, 0.0)),
        # GHZ 2j = 14, 2.4e-7 rad off z: rank 10 reads D^10_9,1 on one side
        (lambda: make_ghz(14), EulerAngles(3.339874395606757, 2.4e-7, 6.254342407260647),
         EulerAngles(0.0, 2.0 ** -24, 0.0)),
    ], ids=["dicke-11", "w-11", "ghz-14"])
    def test_near_pole_draws_get_a_frame_witness(self, build, tilt, g):
        rho = rotate_density(pure_to_density(build()), tilt)
        target = rotate_density(rho, g)
        result = lu_equivalent(rho, target)
        assert (result.verdict, result.reason) == ("equivalent", FRAME_REASON)
        assert np.max(np.abs(rotate_density(rho, result.witness).matrix - target.matrix)) \
            <= WITNESS_TOL

    def test_frame_from_pair_keeps_the_bits_of_the_np_cross_frame(self):
        # the third column is formed from the products and differences that
        # np.cross takes, so every frame keeps its bits, and None falls
        # where it did, also for pairs straddling the 1e-9 cut-off
        def reference(u1, u2):
            n = u2 - float(np.dot(u1, u2)) * u1
            norm = float(np.linalg.norm(n))
            if norm < 1e-9:
                return None
            n = n / norm
            return np.column_stack([u1, n, np.cross(u1, n)])

        def units(m):
            return m / np.linalg.norm(m, axis=-1, keepdims=True)

        rng = np.random.default_rng(38)
        u1, u2 = units(rng.normal(size=(2, 1000, 3)))
        near = units(rng.normal(size=(200, 3)))
        kicked = units(near + np.geomspace(1e-11, 1e-7, 200)[:, None] * rng.normal(size=(200, 3)))
        pairs = [*zip(u1, u2), *((u, farthest_axis(u)) for u in u1),
                 *zip(near, kicked), *zip(near, -kicked), (u1[0], u1[0])]
        nones = 0
        for a, b in pairs:
            got, want = frame_from_pair(a, b), reference(a, b)
            if want is None:
                assert got is None
                nones += 1
            else:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert 1 < nones < 400

    @pytest.mark.parametrize("twice_j", range(1, 21))
    def test_other_head_is_the_turn_onto_z_reversed(self, twice_j):
        # turning u to z and then pi about x turns -u to z; on every spin
        # that pi turn is a global phase (+-i at half-integer j) times the
        # anti-identity, so rho turned for -u is rho turned for u reversed
        rng = np.random.default_rng([38, twice_j])
        rho = DensityMatrix(HalfInteger(twice_j), _random_density(rng, twice_j + 1))
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        g, z = _turn_to_z(rho, u)
        g_other, z_other = _turn_to_z(rho, -u)
        # array_equal: exact, with -0.0 == 0.0
        assert np.array_equal(np.diag([1.0, -1.0, -1.0]) @ g, g_other)
        assert np.max(np.abs(z[::-1, ::-1] - z_other)) <= 1e-13


    @pytest.mark.parametrize("twice_j", range(1, 21))
    def test_pose_candidates_keep_the_bits_of_the_reference(self, twice_j):
        # one stacked phase search for both heads, G formed entry by entry
        # and matrix-only turns propose the rotations, byte for byte, that
        # the per-head search over G = X_TO_Z F^T and rotate_density did;
        # Delta = 2j for GHZ, where the angles tie to the last bits
        rng = np.random.default_rng([41, twice_j])
        dim = twice_j + 1
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        ghz = np.zeros((dim, dim))
        ghz[np.ix_([0, -1], [0, -1])] = 0.5  # (|j j> + |j -j>) / sqrt 2, coherent at 2j = 1
        states = [_random_density(rng, dim), np.outer(amps, amps.conj()) / np.vdot(amps, amps), ghz]
        z_axes = [np.array([0.0, 0.0, 1.0]), np.array([-0.0, 0.0, -1.0])]
        for matrix in states:
            rho = DensityMatrix(HalfInteger(twice_j), matrix)
            turned = rotate_density(rho, EulerAngles(*rng.uniform(0.0, 2.0 * math.pi, 3)))
            u_a, u_b = rng.normal(size=(2, 3))
            for u_a, u_b in [(u_a / np.linalg.norm(u_a), u_b / np.linalg.norm(u_b)), z_axes,
                             z_axes[::-1]]:
                got = list(_pose_candidates(_turn_to_z(rho, u_a), _turn_to_z(turned, u_b)))
                want = axial_candidates_reference(rho, turned, u_a, u_b)
                assert [r.tobytes() for r in got] == [r.tobytes() for r in want]
                for g_got, g_want in zip(_turn_to_z(rho, u_a), turn_to_z_reference(rho, u_a)):
                    assert g_got.tobytes() == g_want.tobytes()

    @pytest.mark.parametrize("twice_j", range(1, 21))
    def test_frame_candidates_match_the_lockstep_reference(self, twice_j):
        # each state's own frame proposes what the lockstep reading of both
        # states' forms did: axial frames the same rotations in the same
        # order, byte for byte, full frames the same four half turns
        rng = np.random.default_rng([45, twice_j])
        j, dim = HalfInteger(twice_j), twice_j + 1
        amps = _unit(rng, dim)
        states = [_random_density(rng, dim), np.outer(amps, amps.conj())]
        states += [pure_to_density(psi).matrix for psi in (
            *((make_ghz(twice_j), make_w(twice_j)) if twice_j > 1 else ()),
            make_dicke(j, HalfInteger(twice_j % 2)), make_coherent(j, 0.7, 1.3))]
        if twice_j == 4:  # (|2 2> + sqrt(2) |2 -1>) / sqrt(3): isotropic forms
            psi = np.array([1.0, 0.0, 0.0, math.sqrt(2.0), 0.0]) / math.sqrt(3.0)
            states.append(np.outer(psi, psi).astype(complex))
        kinds = set()
        for matrix in states:
            rho = DensityMatrix(j, matrix)
            turned = rotate_density(rho, EulerAngles(*rng.uniform(0.0, 2.0 * math.pi, 3)))
            got = list(_frame_candidates(rho, turned))
            want = frame_candidates_reference(rho, turned)
            frame = _frame(rho)
            kind = "none" if frame is None else "full" if all(frame[0][1]) else "axial"
            kinds.add(kind)
            if kind == "full":
                assert len(got) == len(want) == 4
                assert all(any(np.array_equal(g, w) for w in want) for g in got)
            else:
                assert [r.tobytes() for r in got] == [r.tobytes() for r in want]
            assert bool(got) is bool(want) is (kind != "none")
        assert kinds == {"axial", "full", "none"} if twice_j == 4 else "axial" in kinds


class TestIsotropicStates:
    """States twirled over the tetrahedral, octahedral and icosahedral
    rotation groups have isotropic covariant forms at every spin, so the
    frames give no candidate and their compares take the axis path."""

    TURN = EulerAngles(0.9, 2.2, 4.1)

    @pytest.mark.parametrize("twice_j", [6, 9, 12, 16, 20])
    @pytest.mark.parametrize("group", ["T", "O", "I"])
    def test_turned_copy_equivalent_and_mirror_never_inequivalent(self, group, twice_j):
        rng = np.random.default_rng([twice_j, "TOI".index(group)])
        psi = rng.normal(size=twice_j + 1) + 1j * rng.normal(size=twice_j + 1)
        for seed in (_random_density(rng, twice_j + 1), np.outer(psi, psi.conj()) / np.vdot(psi, psi)):
            rho = twirl(DensityMatrix(HalfInteger(twice_j), seed), group)
            assert isotropic_forms(rho)
            target = rotate_density(rho, self.TURN)
            result = lu_equivalent(rho, target)
            assert result.verdict == "equivalent", result.reason
            assert result.reason.startswith("witness rotation maps the constellations")
            assert np.max(np.abs(rotate_density(rho, result.witness).matrix - target.matrix)) \
                <= WITNESS_TOL
            # rho* has the configurations and fingerprints of rho, so only a
            # misread signature could make it inequivalent; equivalent
            # (achiral) and fingerprint-match-only (chiral) are both right
            mirror = rotate_density(DensityMatrix(rho.j, rho.matrix.conj()), self.TURN)
            assert lu_equivalent(rho, mirror).verdict != "inequivalent"


class TestThermalStates:
    """High-temperature thermal states exp(-beta n.J) / Tr: uniaxial mixed
    states whose covariant forms' gaps scale like beta^2, so the frames give
    no candidate and the compare takes the axis path.  Ranks k ~ 2j are
    noise there (t^k ~ beta^k against rounding), but the search needs only
    rank 1, whose one axis is the line of <J>."""

    TURN = EulerAngles(0.9, 2.2, 4.1)

    @pytest.mark.parametrize("twice_j, beta", [
        (2, 1e-4), (3, 1e-3), (5, 1e-4), (8, 1e-5), (20, 1e-4),
        # the top ranks read differently when turned
        (3, 3e-4), (8, 1e-4), (10, 1e-6),
    ])
    def test_turned_copy_is_equivalent_with_a_witness(self, twice_j, beta):
        n = np.array([0.3, -0.5, 0.81])
        rho = thermal_state(twice_j, beta, n / np.linalg.norm(n))
        target = rotate_density(rho, self.TURN)
        result = lu_equivalent(rho, target)
        assert (result.verdict, result.reason) == ("equivalent", AXIS_REASON)
        assert np.max(np.abs(rotate_density(rho, result.witness).matrix - target.matrix)) \
            <= WITNESS_TOL


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.zero == 1e-12
        assert tol.angle == 1e-6
        assert FINGERPRINT_TOL == 1e-7

    def test_zero_tolerance_leaves_all_zero_ranks_absent(self):
        tol = Tolerances(zero=0.0)
        mixed = DensityMatrix(HalfInteger(2), np.eye(3) / 3)
        assert class_signature(mixed, tol).render() == "{}"
        assert class_signature(pure_to_density(make_ghz(3)), tol).render() == "{D^2_2, D^3_1,1,1}"
        assert class_signature(pure_to_density(make_ghz(4)), tol).render() == "{D^2_2, D^4_2,2}"
