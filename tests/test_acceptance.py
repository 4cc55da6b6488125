"""Top-level acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (bypassing capture) so the suite
output doubles as an acceptance report.
"""

import math

import numpy as np
import pytest

from oracles import reconstruct_density

from multiaxial.axes import (
    mar_polynomial,
    pairwise_invariants,
    solve_all_axes,
    solve_axes,
)
from multiaxial.classify import (
    class_signature,
    degeneracy_configuration,
    lu_equivalent,
    pure_separability_check,
    separable_reference_r,
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
from multiaxial.fano import extract_tensors
from multiaxial.angular import tau_matrix, wigner_d_matrix
from multiaxial.halfint import HalfInteger
from multiaxial.states import (
    DensityMatrix,
    EulerAngles,
    ppt_check,
    pure_to_density,
    rotate_density,
    validate,
)


def _announce(capsys, number, description, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: PASS - {description}")


def _random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m @ m.conj().T
    return m / np.trace(m)


def _axis_angles(decomp):
    return sorted((a.theta, a.phi) for a, m in decomp.axes for _ in range(m))


def test_acceptance_1_ghz3(capsys):
    def body():
        rho = pure_to_density(make_ghz(3))
        t = extract_tensors(rho)
        assert abs(t.component(2, 0) - 1.0) < 1e-10
        assert abs(t.component(3, 3) - (-1.0)) < 1e-10
        assert abs(t.component(3, -3) - 1.0) < 1e-10
        d3 = solve_axes(t, 3)
        got = _axis_angles(d3)
        expected = [(math.pi / 2, 0.0), (math.pi / 2, math.pi / 3),
                    (math.pi / 2, 2 * math.pi / 3)]
        for (th, ph), (eth, eph) in zip(got, expected):
            assert abs(th - eth) < 1e-8 and abs(ph - eph) < 1e-8
        assert class_signature(rho).render() == "{D^2_2, D^3_1,1,1}"

    _announce(capsys, 1, "GHZ-3 tensor components, rank-3 axes, signature",
              body)


def test_acceptance_2_ghz4(capsys):
    def body():
        rho = pure_to_density(make_ghz(4))
        t = extract_tensors(rho)
        assert abs(t.component(2, 0) - math.sqrt(10.0 / 7.0)) < 1e-10
        assert abs(t.component(4, 0) - 1.0 / math.sqrt(14.0)) < 1e-10
        assert abs(t.component(4, 4) - math.sqrt(5.0) / 2.0) < 1e-10
        assert abs(t.component(4, -4) - math.sqrt(5.0) / 2.0) < 1e-10
        d4 = solve_axes(t, 4)
        assert sorted(m for _, m in d4.axes) == [2, 2]
        got = sorted((a.theta, a.phi) for a, _ in d4.axes)
        for (th, ph), eph in zip(got, (math.pi / 4, 3 * math.pi / 4)):
            assert abs(th - math.pi / 2) < 1e-6 and abs(ph - eph) < 1e-6
        assert class_signature(rho).render() == "{D^2_2, D^4_2,2}"

    _announce(capsys, 2, "GHZ-4 tensor components, paired axes, signature",
              body)


def test_acceptance_3_ghz_structure(capsys):
    def body():
        for n in range(2, 9):
            rho = pure_to_density(make_ghz(n))
            t = extract_tensors(rho)
            decomps = solve_all_axes(t)
            j = n / 2.0
            z_below_top = sum(
                m for d in decomps[:-1] if d.present
                for a, m in d.axes if a.theta < 1e-8)
            expected = j * j - 0.25 if n % 2 else j * (j - 1)
            assert z_below_top == expected
            top = degeneracy_configuration(decomps[-1])
            assert top.partition == ((1,) * n if n % 2 else (2,) * (n // 2))
            coeffs = mar_polynomial(t, n)
            coeffs = coeffs / coeffs[0]
            ref = np.zeros(2 * n + 1, dtype=complex)
            if n % 2:
                ref[0], ref[-1] = 1.0, -1.0      # ~ Z^{4j} - 1
            else:
                ref[0], ref[n], ref[-1] = 1.0, 2.0, 1.0  # ~ (Z^{2j} + 1)^2
            assert np.max(np.abs(coeffs - ref)) < 1e-10

    _announce(capsys, 3,
              "GHZ structural law N=2..8 (z-axis counts, top-rank "
              "configuration and factorization)", body)


def test_acceptance_4_bell(capsys):
    def body():
        rho = pure_to_density(make_bell())
        t = extract_tensors(rho)
        # magnitude only: the printed sign is convention-dependent
        assert abs(abs(t.component(2, 0)) - math.sqrt(2.0)) < 1e-10
        d2 = solve_axes(t, 2)
        assert abs(d2.r_k - math.sqrt(3.0)) < 1e-10
        assert class_signature(rho).render() == "{D^2_2}"
        verdict = pure_separability_check(rho)
        assert verdict.applicable and not verdict.separable
        ppt = ppt_check(rho)
        assert ppt.applicable and ppt.entangled

    _announce(capsys, 4, "Bell state |t^2_0|, r_2, signature, separability "
                         "and PPT verdicts", body)


def test_acceptance_5_w(capsys):
    def body():
        rho = pure_to_density(make_w(3))
        t = extract_tensors(rho)
        assert abs(t.component(1, 0) - (-1.0 / math.sqrt(5.0))) < 1e-10
        assert abs(t.component(2, 0) - (-1.0)) < 1e-10
        assert abs(t.component(3, 0) - 3.0 / math.sqrt(5.0)) < 1e-10
        decomps = solve_all_axes(t)
        assert np.allclose(pairwise_invariants(decomps), 1.0, atol=1e-8)
        assert class_signature(rho).render() == "{D^1_1, D^2_2, D^3_3}"
        assert abs(decomps[1].r_k - math.sqrt(1.5)) < 1e-10
        # pinned to the coupling-chain evaluation; the printed 1/sqrt(2)
        # and 3/sqrt(5) are recorded as discrepancies
        assert abs(decomps[0].r_k - 1.0 / math.sqrt(5.0)) < 1e-10
        assert abs(decomps[2].r_k - 3.0 / math.sqrt(2.0)) < 1e-10
        assert not pure_separability_check(rho).separable

    _announce(capsys, 5, "W state tensors, collinear axes, signature, r_k "
                         "values, separability", body)


def test_acceptance_6_separable_references(capsys):
    def body():
        ref1 = separable_reference_r(2)
        assert abs(ref1[1] - math.sqrt(1.5)) < 1e-10
        assert abs(ref1[2] - math.sqrt(3.0) / 2.0) < 1e-10
        ref32 = separable_reference_r(3)
        assert abs(ref32[1] - 3.0 / math.sqrt(5.0)) < 1e-10
        assert abs(ref32[2] - math.sqrt(1.5)) < 1e-10
        assert abs(ref32[3] - 1.0 / math.sqrt(2.0)) < 1e-10
        rng = np.random.default_rng(101)
        for _ in range(50):
            tj = int(rng.integers(1, 5))
            rho = pure_to_density(make_coherent(
                HalfInteger(tj), rng.uniform(0, math.pi),
                rng.uniform(0, 2 * math.pi)))
            assert pure_separability_check(rho).separable

    _announce(capsys, 6, "separable reference scalars (spin-1, spin-3/2) and "
                         "50 random coherent states classified separable",
              body)


def _bisect(evaluate, lo, hi, tol):
    f_lo = evaluate(lo)
    assert (f_lo >= 0.0) != (evaluate(hi) >= 0.0)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (evaluate(mid) >= 0.0) == (f_lo >= 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_acceptance_7_mixed_family_boundaries(capsys):
    def body():
        for theta1 in (0.0, math.pi / 4, math.pi / 2):
            psd_edge = _bisect(
                lambda r: validate(make_uniaxial(r, theta1, 0.0).rho)
                .min_eigenvalue + 1e-10, 0.05, 1.0, 1e-7)
            assert abs(psd_edge - math.sqrt(2.0 / 3.0)) < 1e-6
            ppt_edge = _bisect(
                lambda r: ppt_check(make_uniaxial(r, theta1, 0.0).rho)
                .min_eigenvalue + 1e-10, 0.05, math.sqrt(2.0 / 3.0), 1e-6)
            assert abs(ppt_edge - 1.0 / math.sqrt(2.0)) < 1e-4

        frontiers = []
        for theta in np.linspace(0.05, math.pi - 0.05, 41):
            frontiers.append(_bisect(
                lambda r: ppt_check(make_biaxial(r, float(theta)).rho)
                .min_eigenvalue + 1e-10, 1e-4, math.sqrt(3.0), 1e-6))
        assert abs(min(frontiers) - math.sqrt(3.0) / 4.0) < 1e-4

        # triaxial with r1 = sqrt(3/2), r2 = sqrt(3)/2: separable exactly at
        # the poles of theta.  The constructed matrix is not positive
        # semi-definite anywhere on the interior grid, so interior points
        # are "not separable" in the strongest checkable sense (no valid
        # separable state has these tensor components); see the ledger for
        # the conflict with the published prose.
        r1, r2 = math.sqrt(1.5), math.sqrt(3.0) / 2.0
        for theta in (0.0, math.pi):
            fam = make_triaxial(r1, r2, theta)
            assert fam.psd_ok
            assert pure_separability_check(fam.rho).separable
        for theta in np.linspace(0.0, math.pi, 102)[1:-1]:
            fam = make_triaxial(r1, r2, float(theta))
            if fam.psd_ok:
                report = validate(fam.rho)
                if report.is_pure:
                    assert not pure_separability_check(fam.rho).separable
                else:
                    assert ppt_check(fam.rho).entangled
            # else: not a state at all, a fortiori not separable

    _announce(capsys, 7, "mixed-family boundaries: uniaxial PSD sqrt(2/3) "
                         "and PPT 1/sqrt(2); biaxial frontier sqrt(3)/4; "
                         "triaxial separable only at the theta poles", body)


def test_acceptance_8_invariant_counting(capsys):
    def body():
        rng = np.random.default_rng(103)
        for tj, count in ((2, 5), (3, 18), (4, 49)):
            sig = class_signature(DensityMatrix(
                HalfInteger(tj), _random_density(rng, tj + 1)))
            assert all(d.present for d in sig.ranks)
            # pairwise axis cosines plus one r_k per rank, present or not
            assert len(sig.pairwise) + len(sig.ranks) == count

    _announce(capsys, 8, "invariant counts 5/18/49 for full-rank spin-1, "
                         "spin-3/2, spin-2 states", body)


def test_acceptance_9_property_suite(capsys):
    def body():
        rng = np.random.default_rng(107)

        # rotation covariance, 100 random (rho, g), j <= 2
        for _ in range(100):
            tj = int(rng.integers(1, 5))
            rho = DensityMatrix(HalfInteger(tj), _random_density(rng, tj + 1))
            g = EulerAngles(*rng.uniform(-2 * math.pi, 2 * math.pi, 3))
            a = extract_tensors(rho)
            b = extract_tensors(rotate_density(rho, g))
            for k in range(tj + 1):
                dmat = wigner_d_matrix(k, g.alpha, g.beta, g.gamma)[::-1, ::-1]
                assert np.max(np.abs(np.conj(dmat) @ a.rank_components(k)
                                     - b.rank_components(k))) < 1e-10

        # extract/reconstruct round trip
        for tj in (1, 2, 3, 4):
            rho = DensityMatrix(HalfInteger(tj), _random_density(rng, tj + 1))
            back = reconstruct_density(extract_tensors(rho))
            assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-10

        # tau orthogonality
        for tj in (2, 4, 6, 8):
            j = HalfInteger(tj)
            taus = {(k, q): tau_matrix(j, k, q)
                    for k in range(tj + 1) for q in range(-k, k + 1)}
            for (k, q), t1 in taus.items():
                for (kp, qp), t2 in taus.items():
                    tr = np.trace(t1.conj().T @ t2)
                    want = (tj + 1) if (k, q) == (kp, qp) else 0.0
                    assert abs(tr - want) < 1e-12

        # purity identity on pure states: sum_k |t^k|^2 / (2j+1) = 1
        for tj in (1, 2, 3, 4):
            amps = rng.normal(size=tj + 1) + 1j * rng.normal(size=tj + 1)
            amps /= np.linalg.norm(amps)
            rho = DensityMatrix(HalfInteger(tj), np.outer(amps, amps.conj()))
            t = extract_tensors(rho)
            norms = sum(np.sum(np.abs(t.rank_components(k)) ** 2) for k in range(tj + 1))
            assert abs(norms / (tj + 1) - 1.0) < 1e-8

        # signature and fingerprint invariance under 50 random rotations
        rho = pure_to_density(make_ghz(3))
        base = class_signature(rho)
        for _ in range(50):
            g = EulerAngles(*rng.uniform(0, 2 * math.pi, 3))
            sig = class_signature(rotate_density(rho, g))
            assert sig.render() == base.render()
            for x, y in zip(base.ranks, sig.ranks):
                assert abs(x.r_k - y.r_k) < 1e-7
            assert np.allclose(sig.pairwise, base.pairwise, atol=1e-7)

        # equivalence verdicts across the corpus
        corpus = [pure_to_density(make_ghz(3)),
                  pure_to_density(make_w(3)),
                  pure_to_density(make_dicke("3/2", "3/2"))]
        corpus_j1 = [pure_to_density(make_bell()),
                     pure_to_density(make_dicke(1, 1)),
                     make_biaxial(0.4, 0.9).rho,
                     make_uniaxial(0.5, 0.7, 1.1).rho]
        for rho in corpus + corpus_j1:
            g = EulerAngles(*rng.uniform(0, 2 * math.pi, 3))
            result = lu_equivalent(rho, rotate_density(rho, g))
            assert result.verdict == "equivalent"
            assert result.witness is not None
            mapped = rotate_density(rho, result.witness)
            target = rotate_density(rho, g)
            assert np.max(np.abs(mapped.matrix - target.matrix)) < 1e-6
        for group in (corpus, corpus_j1):
            for i in range(len(group)):
                for l in range(i + 1, len(group)):
                    assert lu_equivalent(group[i], group[l]).verdict \
                        == "inequivalent"

    _announce(capsys, 9, "property suite: covariance, round trips, "
                         "orthogonality, purity, invariance, equivalence",
              body)
