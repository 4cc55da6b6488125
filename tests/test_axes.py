"""Per-rank axis systems, r_k fitting, and the top rank against the Majorana points."""

import math
import warnings

import numpy as np
import pytest

from oracles import (
    majorana_polynomial,
    majorana_roots,
    polish_roots_per_root,
    sylvester_matrix_reference,
)
from test_properties import _crowded_majorana_state

from multiaxial.angular import couple_axis_chain
from multiaxial import axes as axes_module
from multiaxial.axes import (
    POLISH_STEPS,
    FLAT_TOL,
    PAIR_TOL,
    ZERO_TOL,
    Axis,
    AxisPairingError,
    DegenerateFitError,
    RankDecomposition,
    _fit_residual,
    _polish_roots,
    _refine_axes,
    _root_stage,
    _root_vectors,
    _row_norms,
    _simple_axes,
    _sqrt_binomials,
    _stacked_roots,
    _sylvester_table,
    axis_tensor,
    cluster_directions,
    fit_rk,
    least_squares,
    mar_polynomial,
    pairwise_invariants,
    root_structure,
    solve_all_axes,
    solve_axes,
)
from multiaxial.families import (
    make_bell,
    make_coherent,
    make_dicke,
    make_ghz,
    make_w,
)
from multiaxial.fano import SphericalTensorSet, extract_tensors
from multiaxial.halfint import HalfInteger
from multiaxial.states import (
    DensityMatrix,
    EulerAngles,
    PureState,
    pure_to_density,
    rotate_density,
    rotate_pure,
)


def _h(x):
    return HalfInteger.of(x)


def _vector(theta, phi):
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                     math.cos(theta)])


def _random_unit_vectors(k):
    v = np.random.default_rng(5).normal(size=(k, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _points_close(got, expected, tol=1e-7):
    assert got.shape == (len(expected), 3)
    for p, (theta, phi) in zip(got, expected):
        assert math.acos(min(1.0, float(np.dot(p, _vector(theta, phi))))) <= tol


class TestCanonicalization:
    def test_poles_fix_phi(self):
        for v in ([0.0, 0.0, 2.0], [0.0, -0.0, -1.0], [-0.0, 0.0, -3.0]):
            a = Axis.from_vector(np.array(v))
            assert (a.theta, a.phi) == (0.0, 0.0)
            assert a.vector == (0.0, 0.0, 1.0)

    def test_phi_wraps(self):
        a = Axis.from_vector(_vector(1.0, 2.0 * math.pi + 0.5))
        assert a.phi == pytest.approx(0.5, abs=1e-12)
        # just below 2 pi snaps to zero rather than printing 6.28...
        for phi in (-1e-15, -1e-12, -5e-10):
            a = Axis.from_vector(_vector(1.0, phi))
            assert a.phi == 0.0 and a.theta == pytest.approx(1.0, abs=1e-15)
            assert a.vector[1] < 0.0  # the snap is for output only
        assert Axis.from_vector(_vector(1.0, -2e-9)).phi == pytest.approx(
            2.0 * math.pi - 2e-9, abs=1e-15)

    def test_axis_canonical_hemisphere(self):
        a = Axis.from_vector(np.array([0.0, 0.0, -1.0]))
        assert (a.theta, a.phi) == (0.0, 0.0)
        # equatorial axis picks phi in [0, pi)
        a = Axis.from_vector(np.array([0.0, -1.0, 0.0]))
        assert a.theta == pytest.approx(math.pi / 2, abs=1e-12)
        assert a.phi == pytest.approx(math.pi / 2, abs=1e-12)

    def test_axis_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(size=3)
            a = Axis.from_vector(v)
            b = Axis.from_vector(a.unit_vector)
            np.testing.assert_allclose(b.vector, a.vector, rtol=0.0, atol=1e-15)
            assert abs(np.linalg.norm(a.vector) - 1.0) <= 1e-15
            assert _line_angle(a.unit_vector, v) <= 1e-15 * np.linalg.norm(v)

    def test_angle_between_lines(self):
        # nearly the same line, on either side of the phi = 0 / pi seam
        a = Axis.from_vector(np.array([1.0, 0.0, 0.0]))
        b = Axis.from_vector(np.array([-1.0, 1e-9, 0.0]))
        assert (a.theta, a.phi) == (math.pi / 2, 0.0)
        assert b.phi == pytest.approx(math.pi - 1e-9, abs=1e-15)
        assert _line_angle(a.unit_vector, b.unit_vector) < 1e-8


def _assert_top_rank_through(psi, points, tol):
    """Rank 2j of a pure state has its axes on the lines through its Majorana
    points, an axis as often as its line holds points: ``solve_axes`` against
    the Majorana-representation oracle."""
    decomp = solve_axes(extract_tensors(pure_to_density(psi)), psi.j.twice)
    axes = np.array([axis.vector for axis, _ in decomp.axes])
    sines = np.linalg.norm(np.cross(points[:, None, :], axes[None, :, :]), axis=2)
    nearest = np.argmin(sines, axis=1)
    assert np.max(sines[np.arange(len(points)), nearest]) <= tol
    assert np.bincount(nearest, minlength=len(axes)).tolist() == [m for _, m in decomp.axes]


class TestMajorana:
    # The paper cases hold multiple or symmetric roots, whose raw scatter
    # bounds the agreement; generic states agree to rounding.
    def test_ghz3_points(self):
        pts = majorana_roots(make_ghz(3))
        _points_close(pts, [(math.pi / 2, 0.0),
                            (math.pi / 2, 2 * math.pi / 3),
                            (math.pi / 2, 4 * math.pi / 3)])
        _assert_top_rank_through(make_ghz(3), pts, 1e-2)

    def test_ghz4_points(self):
        pts = majorana_roots(make_ghz(4))
        _points_close(pts, [(math.pi / 2, math.pi / 4),
                            (math.pi / 2, 3 * math.pi / 4),
                            (math.pi / 2, 5 * math.pi / 4),
                            (math.pi / 2, 7 * math.pi / 4)])
        _assert_top_rank_through(make_ghz(4), pts, 1e-2)

    def test_top_dicke_all_north(self):
        for tj in (1, 2, 3, 4):
            psi = make_dicke(HalfInteger(tj), HalfInteger(tj))
            pts = majorana_roots(psi)
            np.testing.assert_allclose(pts, [[0.0, 0.0, 1.0]] * tj, rtol=0.0, atol=1e-8)
            _assert_top_rank_through(psi, pts, 1e-2)

    def test_w_state_points(self):
        # |3/2, -1/2>: one north-pole point, two at the south pole
        pts = majorana_roots(make_w(3))
        np.testing.assert_allclose(pts, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, -1.0]],
                                   rtol=0.0, atol=1e-8)
        _assert_top_rank_through(make_w(3), pts, 1e-2)

    def test_coherent_states_collapse(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            tj = int(rng.integers(1, 6))
            theta = rng.uniform(0.1, math.pi - 0.1)
            phi = rng.uniform(0, 2 * math.pi)
            psi = make_coherent(HalfInteger(tj), theta, phi)
            pts = majorana_roots(psi)
            assert len(pts) == tj
            ref = _vector(theta, phi)
            for p in pts:
                ang = math.acos(min(1.0, float(np.dot(p, ref))))
                # raw root scatter for an order-tj multiple root
                assert ang < 1e-2
            _assert_top_rank_through(psi, pts, 1e-2)

    def test_root_count_conserved(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            tj = int(rng.integers(1, 7))
            amps = rng.normal(size=tj + 1) + 1j * rng.normal(size=tj + 1)
            amps /= np.linalg.norm(amps)
            psi = PureState(HalfInteger(tj), amps)
            pts = majorana_roots(psi)
            assert len(pts) == tj
            # simple roots: 4.95e-16 at worst here
            _assert_top_rank_through(psi, pts, 1e-15)

    def test_polynomial_degree(self):
        coeffs = majorana_polynomial(make_ghz(3))
        assert len(coeffs) == 4
        # (|jj> + |j,-j>)/sqrt(2) keeps only the constant and cubic terms
        assert abs(coeffs[1]) < 1e-14 and abs(coeffs[2]) < 1e-14


class TestMarPolynomial:
    def test_ghz_odd_top_rank(self):
        for n in (3, 5, 7):
            t = extract_tensors(pure_to_density(make_ghz(n)))
            coeffs = mar_polynomial(t, n)
            coeffs = coeffs / coeffs[0]
            # proportional to Z^{4j} - 1
            expected = np.zeros(2 * n + 1, dtype=complex)
            expected[0] = 1.0
            expected[-1] = -1.0
            assert np.max(np.abs(coeffs - expected)) < 1e-10

    def test_ghz_even_top_rank(self):
        for n in (2, 4, 6):
            t = extract_tensors(pure_to_density(make_ghz(n)))
            coeffs = mar_polynomial(t, n)
            coeffs = coeffs / coeffs[0]
            # proportional to (Z^{2j} + 1)^2 = Z^{4j} + 2 Z^{2j} + 1
            expected = np.zeros(2 * n + 1, dtype=complex)
            expected[0] = 1.0
            expected[n] = 2.0
            expected[-1] = 1.0
            assert np.max(np.abs(coeffs - expected)) < 1e-10

    def test_bell_rank2_single_term(self):
        t = extract_tensors(pure_to_density(make_bell()))
        coeffs = mar_polynomial(t, 2)
        assert abs(coeffs[2]) > 1.0
        for i in (0, 1, 3, 4):
            assert abs(coeffs[i]) < 1e-12

    def test_conjugate_reversal_symmetry(self):
        rng = np.random.default_rng(19)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m = m @ m.conj().T
        t = extract_tensors(DensityMatrix(_h(2), m / np.trace(m)))
        for k in (1, 2, 3, 4):
            coeffs = mar_polynomial(t, k)
            flipped = np.conj(coeffs[::-1])
            signs = np.array([(-1) ** i for i in range(len(coeffs))])
            assert (np.max(np.abs(coeffs - signs * flipped)) < 1e-12
                    or np.max(np.abs(coeffs + signs * flipped)) < 1e-12)


class TestSolveAxes:
    def test_ghz3_rank3(self):
        t = extract_tensors(pure_to_density(make_ghz(3)))
        d = solve_axes(t, 3)
        assert d.present
        got = sorted(((a.theta, a.phi) for a, _ in d.axes))
        expected = [(math.pi / 2, 0.0), (math.pi / 2, math.pi / 3),
                    (math.pi / 2, 2 * math.pi / 3)]
        for (th, ph), (eth, eph) in zip(got, expected):
            assert th == pytest.approx(eth, abs=1e-8)
            assert ph == pytest.approx(eph, abs=1e-8)
        assert all(m == 1 for _, m in d.axes)

    def test_ghz4_rank4(self):
        t = extract_tensors(pure_to_density(make_ghz(4)))
        d = solve_axes(t, 4)
        got = sorted(((a.theta, a.phi, m) for a, m in d.axes))
        assert len(got) == 2
        for (th, ph, m), eph in zip(got, (math.pi / 4, 3 * math.pi / 4)):
            assert m == 2
            assert th == pytest.approx(math.pi / 2, abs=1e-6)
            assert ph == pytest.approx(eph, abs=1e-6)

    def test_w_rank2_double_z(self):
        t = extract_tensors(pure_to_density(make_w(3)))
        d = solve_axes(t, 2)
        assert len(d.axes) == 1
        axis, mult = d.axes[0]
        assert mult == 2
        assert axis.theta < 1e-8

    def test_pure_q0_gives_z_axes(self):
        ranks = [np.zeros(2 * k + 1, dtype=complex) for k in range(5)]
        ranks[0][0] = 1.0
        ranks[3][3] = -0.4
        t = SphericalTensorSet(_h(2), tuple(ranks))
        d = solve_axes(t, 3)
        assert len(d.axes) == 1
        axis, mult = d.axes[0]
        assert mult == 3 and axis.theta < 1e-10
        assert d.r_k > 0

    def test_absent_rank(self):
        t = extract_tensors(pure_to_density(make_bell()))
        d = solve_axes(t, 1)
        assert not d.present
        assert d.r_k == 0.0 and d.axes == ()

    def test_fit_residual_small_everywhere(self):
        for maker in (lambda: make_ghz(3), lambda: make_ghz(4),
                      lambda: make_bell(), lambda: make_w(3)):
            t = extract_tensors(pure_to_density(maker()))
            for d in solve_all_axes(t):
                if d.present:
                    assert d.fit_residual < 1e-7

    def test_simple_and_structured_ranks_are_settled(self):
        # a generic mixed state has only well-conditioned roots; the multiple
        # axes of rotated GHZ, W and Dicke states come from the structure stage
        rng = np.random.default_rng(0)
        g = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        generic = DensityMatrix(_h(3), g @ g.conj().T / np.trace(g @ g.conj().T).real)
        tilt = EulerAngles(0.3, 0.7, 1.1)
        for rho in (generic, *(rotate_density(pure_to_density(psi), tilt) for psi in (
                make_ghz(8), make_w(8), make_dicke(_h(4), _h(0))))):
            assert all(d.settled for d in solve_all_axes(extract_tensors(rho)))


class TestFitRk:
    def test_separable_spin1(self):
        t = extract_tensors(pure_to_density(make_dicke(1, 1)))
        decomps = solve_all_axes(t)
        assert decomps[0].r_k == pytest.approx(math.sqrt(1.5), abs=1e-10)
        assert decomps[1].r_k == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-10)

    def test_separable_spin3half(self):
        t = extract_tensors(pure_to_density(make_dicke("3/2", "3/2")))
        decomps = solve_all_axes(t)
        assert decomps[0].r_k == pytest.approx(3.0 / math.sqrt(5.0), abs=1e-10)
        assert decomps[1].r_k == pytest.approx(math.sqrt(1.5), abs=1e-10)
        assert decomps[2].r_k == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)

    def test_bell_r2(self):
        t = extract_tensors(pure_to_density(make_bell()))
        assert solve_axes(t, 2).r_k == pytest.approx(math.sqrt(3.0), abs=1e-10)

    def test_w_r_values(self):
        # r2 as printed; r1 and r3 pinned to the coupling-chain evaluation
        # (the printed 1/sqrt(2) and 3/sqrt(5) do not satisfy the fit)
        t = extract_tensors(pure_to_density(make_w(3)))
        decomps = solve_all_axes(t)
        assert decomps[0].r_k == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-10)
        assert decomps[1].r_k == pytest.approx(math.sqrt(1.5), abs=1e-10)
        assert decomps[2].r_k == pytest.approx(3.0 / math.sqrt(2.0), abs=1e-10)

    def test_multiplicity_mismatch_rejected(self):
        t = extract_tensors(pure_to_density(make_bell()))
        z = Axis.from_vector(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            fit_rk(t.rank_components(2), ((z, 1),))

    @pytest.mark.parametrize("k", [36, 40])
    def test_small_axis_tensor_still_fits(self, k):
        # the axis tensor of k random unit vectors has a squared norm below
        # 1e-15 here: small, but no product of axis quadratics vanishes
        v = _random_unit_vectors(k)
        r, residual = fit_rk(0.37 * axis_tensor(v), tuple((Axis.from_vector(u), 1) for u in v))
        assert r == pytest.approx(0.37, rel=1e-12)
        assert residual <= 1e-20

    def test_zero_vector_is_refused(self):
        with pytest.raises(DegenerateFitError):
            fit_rk(np.ones(3, dtype=complex), ((Axis((0.0, 0.0, 0.0)), 1),))
        f, jac = _fit_residual(np.zeros(3), [2], np.ones(5, dtype=complex))
        assert np.all(f == 1e3) and not np.any(jac)


class TestInvariantsAndRigidity:
    def test_ghz3_pairwise(self):
        t = extract_tensors(pure_to_density(make_ghz(3)))
        values = pairwise_invariants(solve_all_axes(t))
        expected = sorted([1.0] + [0.5] * 3 + [0.0] * 6, reverse=True)
        assert np.allclose(values, expected, atol=1e-8)

    def test_all_collinear(self):
        t = extract_tensors(pure_to_density(make_w(3)))
        values = pairwise_invariants(solve_all_axes(t))
        assert np.allclose(values, 1.0, atol=1e-8)

    def test_pairwise_equals_index_gather_bit_for_bit(self):
        # the reference gathers the strict upper triangle by np.triu_indices;
        # the multiplicities repeat some vectors, and the cache of small
        # index pairs is not asked for any count
        rng = np.random.default_rng(49)
        before = axes_module._upper_indices.cache_info()
        for count in range(211):
            mults = []
            while sum(mults) < count:
                mults.append(min(int(rng.integers(1, 4)), count - sum(mults)))
            u = rng.normal(size=(len(mults), 3))
            axes = tuple((Axis.from_vector(v / np.linalg.norm(v)), m) for v, m in zip(u, mults))
            half = len(axes) // 2
            decomps = [RankDecomposition(1, 1.0, axes[:half]), RankDecomposition(2, 1.0, axes[half:])]
            v = np.repeat(np.array([a.vector for a, _ in axes]).reshape(-1, 3), mults, axis=0)
            rows, cols = np.triu_indices(count, 1)
            expected = np.sort(np.minimum(1.0, np.abs(v @ v.T)[rows, cols]))[::-1]
            values = np.array(pairwise_invariants(decomps), dtype=float)
            assert values.tobytes() == expected.tobytes(), count
        assert axes_module._upper_indices.cache_info() == before

    def test_rotation_rigidity(self):
        rng = np.random.default_rng(27)
        rho = pure_to_density(make_ghz(3))
        base = solve_all_axes(extract_tensors(rho))
        base_pairs = pairwise_invariants(base)
        for _ in range(10):
            g = EulerAngles(*rng.uniform(0, 2 * math.pi, 3))
            rotated = solve_all_axes(extract_tensors(rotate_density(rho, g)))
            for b, r in zip(base, rotated):
                assert b.present == r.present
                if b.present:
                    assert abs(b.r_k - r.r_k) < 1e-8
                    assert abs(b.fit_residual - r.fit_residual) < 1e-8
            assert np.allclose(pairwise_invariants(rotated), base_pairs,
                               atol=1e-8)

    def test_rotated_axes_track_rotation(self):
        # the rank-1 axis of a vector-polarized state follows the rotation
        from multiaxial.families import make_uniaxial
        rho = make_uniaxial(0.5, 0.9, 1.7).rho
        t = extract_tensors(rho)
        d = solve_axes(t, 1)
        axis, _ = d.axes[0]
        assert axis.theta == pytest.approx(0.9, abs=1e-10)
        assert axis.phi == pytest.approx(1.7, abs=1e-10)


class TestEquatorialAxes:
    def test_ghz_equatorial_axes_exact_and_ordered(self):
        # equal-multiplicity equatorial axes sort by phi alone once theta is
        # exactly pi/2; an ulp above it would also break the canonical head
        for n in (4, 8):
            d = solve_axes(extract_tensors(pure_to_density(make_ghz(n))), n)
            assert [m for _, m in d.axes] == [2] * (n // 2)
            assert all(a.theta == math.pi / 2 for a, _ in d.axes)
            phis = [a.phi for a, _ in d.axes]
            assert phis == sorted(phis)
            for a, eph in zip(phis, (2 * np.arange(n // 2) + 1) * math.pi / n):
                assert a == pytest.approx(eph, abs=1e-6)

    def test_near_equatorial_vector_snaps(self):
        a = Axis.from_vector(np.array([-1.0, -1.0, 1e-13]))
        assert a.theta == math.pi / 2
        assert a.phi == pytest.approx(math.pi / 4, abs=1e-12)
        assert a.vector[2] == pytest.approx(-1e-13 / math.sqrt(2.0), rel=1e-12)  # not moved
        a = Axis.from_vector(np.array([1.0, 0.0, 2.0 * FLAT_TOL]))
        assert a.theta == pytest.approx(math.pi / 2 - 2.0 * FLAT_TOL, abs=1e-16)


class TestAxisTensor:
    def test_matches_clebsch_gordan_chain(self):
        # the polynomial product, scaled by 2^{k/2}, is the sequential CG
        # coupling, phase included
        rng = np.random.default_rng(23)
        for k in range(1, 21):
            thetas = rng.uniform(0.0, math.pi, k)
            phis = rng.uniform(0.0, 2.0 * math.pi, k)
            chain = couple_axis_chain(list(zip(thetas, phis)))
            poly = axis_tensor([_vector(t, p) for t, p in zip(thetas, phis)])
            assert np.max(np.abs(poly - chain)) <= 1e-13 * np.max(np.abs(chain))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            axis_tensor(np.zeros((0, 3)))


def _polish_roots_per_rank(coeffs_desc, roots):
    """The one-polynomial-at-a-time Newton polish, kept as the oracle."""
    deriv = np.polyder(coeffs_desc)
    z = roots.copy()
    pz = np.polyval(coeffs_desc, z)
    best = z.copy()
    best_val = np.abs(pz)
    live = np.ones(len(z), dtype=bool)
    for _ in range(POLISH_STEPS):
        d = np.polyval(deriv, z)
        live &= np.abs(d) >= 1e-300
        if not live.any():
            break
        z = np.where(live, z - pz / np.where(live, d, 1.0), z)
        pz = np.polyval(coeffs_desc, z)
        val = np.abs(pz)
        better = live & (val < best_val)
        best = np.where(better, z, best)
        best_val = np.where(better, val, best_val)
    return best


def _polish_batch(polys, roots):
    """Pad descending coefficient rows and root rows; polish them in one call."""
    width = max(len(c) for c in polys)
    count = max(len(r) for r in roots)
    coeffs = np.zeros((len(polys), width), dtype=complex)
    z = np.zeros((len(polys), count), dtype=complex)
    live = np.zeros(z.shape, dtype=bool)
    for i, (c, r) in enumerate(zip(polys, roots)):
        coeffs[i, width - len(c):] = c
        z[i, : len(r)] = r
        live[i, : len(r)] = True
    best, _ = _polish_roots(coeffs, z, live)
    return [best[i, : len(r)] for i, r in enumerate(roots)]


class TestPolishRoots:
    def test_matches_per_root_loop(self):
        rng = np.random.default_rng(31)
        for degree in (1, 2, 5, 12, 24, 40):
            coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
            roots = np.roots(coeffs)
            (got,) = _polish_batch([coeffs], [roots])
            want = polish_roots_per_root(coeffs, roots)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_multiple_roots_match_per_root_loop(self):
        # (Z - 0.3 - 0.4i)^6 (Z + 2)^3: Newton stalls and keep-best matters
        coeffs = np.poly([0.3 + 0.4j] * 6 + [-2.0] * 3)
        roots = np.roots(coeffs)
        (got,) = _polish_batch([coeffs], [roots])
        want = polish_roots_per_root(coeffs, roots)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_vanishing_derivative_stops_that_root_only(self):
        # Z^2 - 1: p'(0) = 0, so a root guess at 0 stays put; the others move
        coeffs = np.array([1.0, 0.0, -1.0], dtype=complex)
        roots = np.array([0.0, 1.1, -0.9], dtype=complex)
        (got,) = _polish_batch([coeffs], [roots])
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], [1.0, -1.0], atol=1e-12)
        np.testing.assert_array_equal(got, polish_roots_per_root(coeffs, roots))

    def test_padded_rows_equal_per_rank_polish(self):
        # rows of degree 2, 9 and 40 in one batch, padded roots in the short
        # rows, and a guess at 0 where p'(0) underflows (Z^2 - 1)
        rng = np.random.default_rng(8)
        polys = [np.array([1.0, 0.0, -1.0], dtype=complex),
                 np.poly([0.3 + 0.4j] * 6 + [-2.0] * 3).astype(complex),
                 rng.normal(size=41) + 1j * rng.normal(size=41)]
        roots = [np.array([0.0, 1.1, -0.9], dtype=complex)]
        roots += [np.roots(c) for c in polys[1:]]
        got = _polish_batch(polys, roots)
        assert got[0][0] == 0.0
        for c, r, g in zip(polys, roots, got):
            np.testing.assert_array_equal(g, _polish_roots_per_rank(c, r))

    def test_slopes_are_derivative_at_best_iterate(self):
        # |p'| comes from the sweep that evaluated p at the kept iterate
        rng = np.random.default_rng(9)
        polys = [np.array([1.0, 0.0, -1.0], dtype=complex),
                 np.poly([0.3 + 0.4j] * 6 + [-2.0] * 3).astype(complex),
                 rng.normal(size=41) + 1j * rng.normal(size=41)]
        coeffs = np.zeros((3, 41), dtype=complex)
        z = np.zeros((3, 40), dtype=complex)
        live = np.zeros(z.shape, dtype=bool)
        for i, c in enumerate(polys):
            coeffs[i, 41 - len(c):] = c
            z[i, : len(c) - 1] = [0.0, 1.1] if i == 0 else np.roots(c)
            live[i, : len(c) - 1] = True
        best, slopes = _polish_roots(coeffs, z, live)
        for c, b, s, mask in zip(polys, best, slopes, live):
            np.testing.assert_array_equal(s[mask], np.abs(np.polyval(np.polyder(c), b[mask])))

    def test_all_roots_stuck_leaves_them_put(self):
        # p'(z) = 0 at every guess: no Newton step is taken
        coeffs = np.array([1.0, 0.0, -1.0], dtype=complex)
        got = _polish_batch([coeffs, coeffs], [np.zeros(1), np.zeros(2)])
        assert [g.tolist() for g in got] == [[0.0], [0.0, 0.0]]


def _root_stage_states(family_twojs=range(2, 15)):
    """Tensor sets of seeded random states at 2j = 2..20 and of GHZ, W,
    Dicke and coherent states at ``family_twojs``, aligned and rotated."""
    rng = np.random.default_rng(2024)
    for twoj in range(2, 21):
        d = twoj + 1
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mixed = g @ g.conj().T
        yield f"mixed-{twoj}", extract_tensors(
            DensityMatrix(HalfInteger(twoj), mixed / np.trace(mixed).real))
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        yield f"pure-{twoj}", extract_tensors(
            DensityMatrix(HalfInteger(twoj), np.outer(psi, psi.conj())))
    for twoj in family_twojs:
        j = HalfInteger(twoj)
        for name, state in (("ghz", make_ghz(twoj)), ("w", make_w(twoj)),
                            ("dicke", make_dicke(j, HalfInteger(twoj % 2))),
                            ("coherent", make_coherent(j, 0.7, 1.3))):
            rho = pure_to_density(state)
            yield f"{name}-{twoj}", extract_tensors(rho)
            angles = EulerAngles(*rng.uniform(0.0, 2.0 * math.pi, 3))
            yield f"{name}-{twoj}-rotated", extract_tensors(rotate_density(rho, angles))


def _count_deferred(monkeypatch) -> list:
    """Every later step that goes beyond fitting a rank's first proposal, as
    ("refine", k) for a refinement (``_refine_axes``) and ("pair", roots) for
    a pairing of a rank's roots (``_antipodal_pairs`` with a finite bound;
    the structure stage pairs with an infinite one).  A rank with neither is
    settled by one fit of a proposal read off the stages' arrays."""
    steps = []
    refine, pair = axes_module._refine_axes, axes_module._antipodal_pairs

    def refining(comp, axes):
        steps.append(("refine", len(comp) // 2))
        return refine(comp, axes)

    def pairing(u, within):
        if math.isfinite(within):
            steps.append(("pair", len(u)))
        return pair(u, within)

    monkeypatch.setattr(axes_module, "_refine_axes", refining)
    monkeypatch.setattr(axes_module, "_antipodal_pairs", pairing)
    return steps


def _outcome(call):
    try:
        return call()
    except (AxisPairingError, DegenerateFitError) as exc:
        return type(exc), str(exc)


def _tensors_with_roots(k: int, vectors: np.ndarray) -> SphericalTensorSet:
    """A tensor set whose only present rank, k = 2j, has its MAR polynomial's
    roots at the 2k unit ``vectors``; antipodes are not required."""
    theta = np.arccos(np.clip(vectors[:, 2], -1.0, 1.0))
    z = np.tan(theta / 2.0) * np.exp(1j * np.arctan2(vectors[:, 1], vectors[:, 0]))
    ranks = [np.zeros(2 * q + 1, dtype=complex) for q in range(k + 1)]
    ranks[k] = (np.poly(z)[::-1] / _sqrt_binomials(2 * k))[::-1]
    return SphericalTensorSet(HalfInteger(k), tuple(ranks))


def _deferring_inputs():
    """(name, tensors, pair_tol), each with ranks that no first proposal
    settles by one fit: their roots are paired, or their axes refined
    (``_count_deferred``), for every reason there is."""
    # ill roots; at rank 16 also non-mutual nearest antipodes
    yield "crowded-majorana", extract_tensors(_crowded_majorana_state()), PAIR_TOL
    rng = np.random.default_rng(14)
    for twoj in range(14, 21):  # ill roots at most of these ranks
        j = HalfInteger(twoj)
        weights = rng.dirichlet(np.ones(2))
        rho = sum(w * pure_to_density(make_coherent(
            j, math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))).matrix
            for w in weights)
        yield f"two-coherent-{twoj}", extract_tensors(DensityMatrix(j, rho)), PAIR_TOL
    yield "ghz-17", extract_tensors(pure_to_density(make_ghz(17))), PAIR_TOL  # z axes
    g = rng.normal(size=(21, 21)) + 1j * rng.normal(size=(21, 21))
    rho = g @ g.conj().T
    t = extract_tensors(DensityMatrix(HalfInteger(20), rho / np.trace(rho).real))
    # lines closer than pair_tol, merged by cluster_directions
    yield "random-20-wide-tol", t, 0.2
    # the same roots with a 1e3 times larger residual: at some ranks the first
    # fit leaves more than GATE_FLOOR, and the axes are refined
    yield "random-20-scaled", SphericalTensorSet(t.j, tuple(1e3 * c for c in t.ranks)), PAIR_TOL
    yield "non-mutual-antipodes", _non_mutual_antipodes(rng), PAIR_TOL


def _non_mutual_antipodes(rng) -> SphericalTensorSet:
    """Rank 8 with well-conditioned roots, four of them on a great circle at
    0, 190, 12 and 205 degrees: the first's nearest antipode is the second,
    whose nearest is the third."""
    e = np.radians([0.0, 190.0, 12.0, 205.0])
    chain = np.column_stack([np.cos(e), np.sin(e), np.zeros(4)])
    others = rng.normal(size=(6, 3))
    others /= np.linalg.norm(others, axis=1)[:, None]
    return _tensors_with_roots(8, np.vstack([chain, others, -others]))


def _stereographic(z):
    """(2 Re z, 2 Im z, 1 - |z|^2) / (1 + |z|^2), evaluated through w = 1/z
    beyond the unit circle so that |z| = 1e200 does not overflow."""
    if abs(z) <= 1.0:
        r2 = abs(z) ** 2
        return np.array([2.0 * z.real, 2.0 * z.imag, 1.0 - r2]) / (1.0 + r2)
    w = 1.0 / z
    r2 = abs(w) ** 2
    return np.array([2.0 * w.real, -2.0 * w.imag, r2 - 1.0]) / (1.0 + r2)


class TestRootStage:
    def test_batched_polish_equals_per_rank_polish(self, monkeypatch):
        batches = []

        def recording(coeffs, roots, live):
            best, slopes = _polish_roots(coeffs, roots, live)
            batches.append((coeffs, roots, live, best))
            return best, slopes

        monkeypatch.setattr(axes_module, "_polish_roots", recording)
        degrees, padded, rows = set(), 0, 0
        for _, t in _root_stage_states():
            batches.clear()
            stage = _root_stage(t, range(1, t.max_rank + 1), ZERO_TOL)
            if not batches:
                continue  # every present rank trimmed to z axes
            (coeffs, roots, live, best), = batches
            ranks = [k for k, s in enumerate(stage, 1)
                     if s.vectors is not None and len(s.vectors)]
            assert len(ranks) == len(coeffs)
            for k, c, r, mask, b in zip(ranks, coeffs, roots, live, best):
                c = c[np.flatnonzero(c)[0]:]  # strip the padding
                # the rank's MAR polynomial with its z-axis roots trimmed
                desc = mar_polynomial(t, k)[::-1]
                cut = stage[k - 1].z_axes
                np.testing.assert_array_equal(c, desc[cut: len(desc) - cut])
                n = int(mask.sum())
                np.testing.assert_array_equal(r[:n], np.roots(c))
                np.testing.assert_array_equal(b[:n], _polish_roots_per_rank(c, r[:n]))
                np.testing.assert_array_equal(b[n:], r[n:])
                degrees.add(len(c) - 1)
                padded += len(r) - n
                rows += 1
        assert rows > 800 and degrees == set(range(2, 41, 2)) and padded > 1000

    def test_padded_companion_stack_equals_np_roots(self):
        # one stack of every kind of row the root stage can meet, each row's
        # roots bit for bit those of its own np.roots
        rng = np.random.default_rng(12)
        t = extract_tensors(rotate_density(pure_to_density(make_ghz(6)), EulerAngles(0.3, 1e-5, 0.0)))
        (stage,) = _root_stage(t, [4], ZERO_TOL)
        assert stage.z_axes == 2 and len(stage.vectors) == 4
        desc = mar_polynomial(t, 4)[::-1]
        rows = [rng.normal(size=2) + 1j * rng.normal(size=2),  # degree 1
                rng.normal(size=3) + 1j * rng.normal(size=3),  # degree 2
                np.array([0.0, 0.0, 1.0 - 2.0j, 0.5, 3.0j]),  # exact-zero leading
                np.array([2.0, 1.0j, -1.0, 0.0, 0.0]),  # exact-zero trailing
                np.array([0.0, 1.5, 0.0, 0.25j, 0.0]),  # both, and one inside
                np.array([3.0 + 1.0j, 0.0, 0.0]),  # degree 0: two roots at 0
                np.zeros(5, dtype=complex),  # no roots
                desc[2: len(desc) - 2],  # rank 4 trimmed to z axes
                rng.normal(size=41) + 1j * rng.normal(size=41)]  # degree 40
        coeffs = np.zeros((len(rows), 41), dtype=complex)
        for i, r in enumerate(rows):
            coeffs[i, 41 - len(r):] = r
        roots, live = _stacked_roots(coeffs)
        assert roots.shape == live.shape == (len(rows), 40)
        for r, got, mask in zip(rows, roots, live):
            want = np.asarray(np.roots(r), dtype=complex)
            assert mask.tolist() == [True] * len(want) + [False] * (40 - len(want))
            assert got[mask].tobytes() == want.tobytes()
            assert got[~mask].tobytes() == bytes(16 * (40 - len(want)))

    def test_solve_axes_alone_equals_solve_all_axes(self, monkeypatch):
        deferred = _count_deferred(monkeypatch)
        for name, t in _root_stage_states(family_twojs=(3, 8, 12, 20)):
            together = solve_all_axes(t)
            for k in range(1, t.max_rank + 1):
                assert solve_axes(t, k) == together[k - 1], (name, k)
        # aligned GHZ states: z axes trimmed; rotated ones: ill roots
        assert deferred

    def test_every_deferred_rank_equals_solve_axes(self, monkeypatch):
        deferred = _count_deferred(monkeypatch)
        all_simple = []
        for name, t, pair_tol in _deferring_inputs():
            alone = [_outcome(lambda: solve_axes(t, k, pair_tol=pair_tol))
                     for k in range(1, t.max_rank + 1)]
            first_error = next((a for a in alone if isinstance(a, tuple)), None)
            deferred.clear()
            together = _outcome(lambda: solve_all_axes(t, pair_tol=pair_tol))
            assert together == (first_error or alone), name
            if not deferred:
                all_simple.append(name)
        # the 2j = 14 mixture has only simple roots
        assert all_simple == ["two-coherent-14"]

    def test_array_pass_pairs_no_unmatched_roots(self):
        # the gate on the first fit would refine these ranks as well; the
        # pass must not pair them in the first place
        u = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        turned = u @ np.array([[1.0, 0.0, 0.0], [0.0, math.cos(0.01), -math.sin(0.01)],
                               [0.0, math.sin(0.01), math.cos(0.01)]]).T
        for t, k in ((_non_mutual_antipodes(np.random.default_rng(1)), 8),
                     (_tensors_with_roots(2, np.vstack([u, -turned])), 2)):  # antipodes 0.01 rad off
            ranks = range(1, k + 1)
            stage = _root_stage(t, ranks, ZERO_TOL)
            assert stage[k - 1].ill == 0
            assert k not in _simple_axes(list(zip(ranks, stage)), PAIR_TOL)

    def test_rank_without_ill_roots_runs_no_structure_stage(self, monkeypatch):
        # only a rank with an ill root asks for a structure proposal, and a
        # random mixed state has none
        calls = []

        def recording(*args):
            calls.append(args)
            return root_structure(*args)

        monkeypatch.setattr(axes_module, "root_structure", recording)
        g = np.random.default_rng(5).normal(size=(21, 21, 2)) @ [1.0, 1j]
        rho = g @ g.conj().T
        t = extract_tensors(DensityMatrix(HalfInteger(20), rho / np.trace(rho).real))
        assert not any(s.ill for s in _root_stage(t, range(1, 21), ZERO_TOL))
        assert all(r.present for r in solve_all_axes(t))
        assert calls == []

    @pytest.mark.parametrize("name", ["coherent-turned", "w", "dicke"])
    def test_family_state_defers_no_rank(self, monkeypatch, name):
        # every rank of a turned coherent state is one k-fold axis read by the
        # structure stage; every present rank of an aligned W or Dicke state
        # is trimmed to a k-fold z axis
        j = HalfInteger(20)
        psi = {"coherent-turned": rotate_pure(make_coherent(j, 0.7, 1.3), EulerAngles(0.4, 1.1, 2.3)),
               "w": make_w(20), "dicke": make_dicke(j, HalfInteger(0))}[name]
        t = extract_tensors(pure_to_density(psi))
        deferred = _count_deferred(monkeypatch)
        together = solve_all_axes(t)
        assert deferred == []
        for k, decomp in enumerate(together, 1):
            assert decomp == solve_axes(t, k), k
            assert [m for _, m in decomp.axes] in ([k], []), k
        assert sum(decomp.present for decomp in together) >= 10

    def test_generic_state_defers_no_rank(self, monkeypatch):
        deferred = _count_deferred(monkeypatch)
        rng = np.random.default_rng(20)
        g = rng.normal(size=(21, 21)) + 1j * rng.normal(size=(21, 21))
        rho = g @ g.conj().T
        decomps = solve_all_axes(extract_tensors(DensityMatrix(HalfInteger(20), rho / np.trace(rho).real)))
        assert deferred == []
        assert [[m for _, m in d.axes] for d in decomps] == [[1] * k for k in range(1, 21)]

    def test_root_vectors_follow_sphere_point(self):
        # the point on the sphere of each root is its inverse stereographic
        # projection, z = 0, inf, 1e200 and 1e300 included
        rng = np.random.default_rng(5)
        z = np.concatenate([
            [0.0, -0.0 - 0.0j, 1e-300, 1.0, -1.0, 1j, -1j, 1e200, -1e200 * 1j, 1e16 + 1e16j,
             1e300 * np.exp(2j), np.inf],
            0.7 * np.exp(-1j * np.array([1e-15, 1e-12, 5e-10, 2e-9])),
            np.exp(rng.normal(size=200) * 3.0 + 1j * rng.uniform(-4.0, 4.0, 200)),
        ])
        got = _root_vectors(z)
        assert got.shape == (len(z), 3)
        want = np.array([_stereographic(complex(x)) for x in z])  # z = inf: w = 0
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_snap_and_poles_match_sphere_point(self):
        # z = 0 and -0 land exactly on the north pole, z = inf and 1e300 on
        # the south pole; there is no phi snap, so a root just below phi =
        # 2 pi keeps its small negative y
        poles = _root_vectors(np.array([0.0, -0.0 - 0.0j, np.inf, 1e300 * np.exp(2j)]))
        np.testing.assert_allclose(poles[:2], [[0.0, 0.0, 1.0]] * 2, rtol=0.0, atol=0.0)
        np.testing.assert_allclose(poles[2:], [[0.0, 0.0, -1.0]] * 2, rtol=0.0, atol=1e-15)
        for x in 0.7 * np.exp(-1j * np.array([1e-15, 1e-12, 5e-10, 2e-9])):
            (v,) = _root_vectors(np.array([x]))
            assert v[1] < 0.0
            np.testing.assert_allclose(v, _stereographic(complex(x)), rtol=0.0, atol=1e-15)


def _line_angle(u, v):
    """Angle between two lines, accurate near 0."""
    return float(np.linalg.norm(np.cross(u, v)))


class TestLeastSquares:
    def test_rosenbrock(self):
        def fun(x):
            f = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
            jac = np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])
            return f, jac

        sol = least_squares(fun, [-1.2, 1.0])
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-12)
        assert 1 < sol.nfev <= 200

    def test_evaluation_cap(self):
        # exp(-x) has its infimum at infinity: every step is accepted and
        # cuts the cost by the same factor, so only the cap of 100
        # evaluations per parameter stops it
        def fun(x):
            f = np.exp(-x)
            return f, -np.diag(f)

        assert least_squares(fun, [0.0]).nfev == 100


class TestRefineAxes:
    def test_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(41)
        h = 1e-6
        for _ in range(60):
            mults = list(rng.integers(1, 6, size=rng.integers(1, 5)))
            k = sum(mults)
            x = rng.normal(size=(len(mults), 3))  # one unit vector per distinct axis
            x = np.ravel(x / np.linalg.norm(x, axis=1)[:, None])
            comp = rng.normal(size=2 * k + 1) + 1j * rng.normal(size=2 * k + 1)
            comp /= np.max(np.abs(comp))
            _, jac = _fit_residual(x, mults, comp)
            for c in range(len(x)):
                dx = np.zeros(len(x))
                dx[c] = h
                central = (_fit_residual(x + dx, mults, comp)[0]
                           - _fit_residual(x - dx, mults, comp)[0]) / (2.0 * h)
                assert np.max(np.abs(jac[:, c] - central)) <= 1e-8, (mults, c)

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("at_pole", [False, True])
    def test_recovers_planted_axes(self, m, at_pole):
        # an m-fold axis (at the north pole, where phi has no gradient, or
        # generic) beside a single and a double one, each started 1e-3 rad off
        rng = np.random.default_rng(100 + m)
        planted = [((0.0, 0.0) if at_pole else (1.1, 0.4), m), ((2.0, 2.5), 1),
                   ((0.6, 4.0), 2)]
        comp = 0.3 * np.exp(0.7j) * axis_tensor(
            np.repeat([_vector(*p[0]) for p in planted], [p[1] for p in planted], axis=0))
        start = []
        for (theta, phi), mult in planted:
            v = _vector(theta, phi)
            kick = np.cross(v, rng.normal(size=3))
            kick /= np.linalg.norm(kick)
            start.append((Axis.from_vector(math.cos(1e-3) * v + math.sin(1e-3) * kick), mult))
        refined = _refine_axes(comp, tuple(start))
        assert sorted(mult for _, mult in refined) == sorted(mult for _, mult in planted)
        for (theta, phi), mult in planted:
            v = _vector(theta, phi)
            assert min(_line_angle(axis.unit_vector, v) for axis, n in refined
                       if n == mult) <= 1e-10

    @pytest.mark.parametrize("k", [36, 40])
    def test_refines_a_small_axis_tensor(self, k):
        # every component of every axis 1e-6 off: the fit starts near 1e-15
        v = _random_unit_vectors(k)
        comp = 0.37 * axis_tensor(v)
        start = tuple((Axis.from_vector(u + 1e-6), 1) for u in v)
        assert fit_rk(comp, start)[1] > 1e-16
        assert fit_rk(comp, _refine_axes(comp, start))[1] <= 1e-20

    def test_fit_through_the_pole(self):
        # a double axis 1e-5 rad from z, started on the far side of the pole:
        # the fit ends at theta < 0, which is the same line
        comp = axis_tensor([_vector(1e-5, 0.0), _vector(1e-5, 0.0), _vector(1.0, 2.0)])
        start = ((Axis(tuple(_vector(1e-3, math.pi))), 2), (Axis(tuple(_vector(1.0005, 2.0))), 1))
        refined = _refine_axes(comp, start)
        assert [mult for _, mult in refined] == [2, 1]  # in canonical order
        near_z = next(axis for axis, mult in refined if mult == 2)
        assert _line_angle(near_z.unit_vector, _vector(1e-5, 0.0)) <= 1e-12


class TestLineArrays:
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_row_norms_equal_per_row_norm(self, scale):
        v = scale * np.random.default_rng(3).normal(size=(10_000, 3))
        expected = np.array([np.linalg.norm(row) for row in v])
        assert np.array_equal(_row_norms(v), expected)

    def test_singletons_are_normalised_rows(self):
        v = np.random.default_rng(4).normal(size=(12, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        means, counts = cluster_directions(v, 1e-6)
        assert counts.tolist() == [1] * 12
        assert np.array_equal(means, np.array([row / np.linalg.norm(row) for row in v]))

    def test_transitive_chain_is_one_group(self):
        # lines 0.6e-6 rad apart in a chain: neighbours within tol, the ends not;
        # the chain takes the first line's head whatever each line's sign
        steps = [_vector(1.0 + 0.6e-6 * i, 2.0) for i in range(4)]
        lines = np.array([steps[0], -steps[1], steps[2], _vector(2.5, 0.3), -steps[3]])
        assert math.acos(abs(float(steps[0] @ steps[3]))) > 1e-6
        means, counts = cluster_directions(lines, 1e-6)
        assert counts.tolist() == [4, 1]
        assert _line_angle(means[0], _vector(1.0 + 0.9e-6, 2.0)) <= 1e-12
        assert float(means[0] @ steps[0]) > 0.0
        assert np.array_equal(means[1], lines[3] / np.linalg.norm(lines[3]))


def _zyz(g: EulerAngles) -> np.ndarray:
    """Rz(alpha) Ry(beta) Rz(gamma): the turn ``rotate_pure`` gives a state's axes."""
    def about_z(a):
        return np.array([[math.cos(a), -math.sin(a), 0.0], [math.sin(a), math.cos(a), 0.0],
                         [0.0, 0.0, 1.0]])
    about_y = np.array([[math.cos(g.beta), 0.0, math.sin(g.beta)], [0.0, 1.0, 0.0],
                        [-math.sin(g.beta), 0.0, math.cos(g.beta)]])
    return about_z(g.alpha) @ about_y @ about_z(g.gamma)


def _assert_lines_on(lines, expected, tol=1e-9):
    """``lines`` has the rows of ``expected``'s shape, an m-fold axis as m
    equal rows, each within tol rad of the m expected rows on its line."""
    assert lines.shape == expected.shape
    angles = np.linalg.norm(np.cross(lines[:, None, :], expected[None, :, :]), axis=-1)
    for row, row_angles in zip(lines, angles):
        assert np.count_nonzero(row_angles <= tol) == np.count_nonzero(np.all(lines == row, axis=1))


class TestRootStructure:
    @pytest.mark.parametrize("twoj", range(2, 21))
    def test_family_ranks_read_their_multiple_axes(self, twoj):
        # every rank of a GHZ, W or Dicke state lies on z and every rank of a
        # coherent state on its direction, k-fold, turned with the state; the
        # GHZ top rank has its axes on the Majorana points instead: j of them
        # twice each at even 2j, 2j simple ones (no multiple root) at odd 2j
        g = EulerAngles(0.4, 1.1, 2.3)
        turn = _zyz(g)
        j = HalfInteger(twoj)
        z_axis = np.array([0.0, 0.0, 1.0])
        ghz = make_ghz(twoj)
        for psi, direction in [(ghz, z_axis), (make_w(twoj), z_axis),
                               (make_dicke(j, HalfInteger(twoj % 2)), z_axis),
                               (make_coherent(j, 0.7, 1.3), _vector(0.7, 1.3))]:
            t = extract_tensors(pure_to_density(rotate_pure(psi, g)))
            for k in range(2, twoj + 1):
                if np.max(np.abs(t.rank_components(k))) < ZERO_TOL:
                    continue
                lines = root_structure(mar_polynomial(t, k), k, 1)
                if psi is ghz and k == twoj:
                    if twoj % 2:
                        assert lines.shape == (0, 3)
                        continue
                    expected = majorana_roots(psi) @ turn.T
                else:
                    expected = np.tile(turn @ direction, (k, 1))
                _assert_lines_on(lines, expected)

    def test_generic_rank_has_no_structure(self):
        rng = np.random.default_rng(17)
        g = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        rho = g @ g.conj().T
        t = extract_tensors(DensityMatrix(HalfInteger(11), rho / np.trace(rho).real))
        for k in range(1, 12):
            assert root_structure(mar_polynomial(t, k), k, 1).shape == (0, 3)

    @pytest.mark.parametrize("mults", [(1, 2), (2, 1), (3, 1, 1), (1, 2, 2)])
    def test_axis_on_z_takes_the_root_at_infinity(self, mults):
        # the z axis has its roots at 0 and at infinity, so the leading
        # coefficient is 0 and the matrix sees an odd number of distinct
        # roots; the one at 0 pairs with infinity
        axes = np.array([[0.0, 0.0, 1.0], _vector(1.0, 2.0), _vector(2.0, 0.5)])[: len(mults)]
        vectors = np.repeat(axes, mults, axis=0)
        coeffs = (axis_tensor(vectors) * _sqrt_binomials(2 * len(vectors)))[::-1]  # as mar_polynomial
        assert coeffs[-1] == 0.0
        _assert_lines_on(root_structure(coeffs, len(vectors), 1), vectors)

    @pytest.mark.parametrize("k", [4, 9])
    def test_start_beyond_the_distinct_roots(self, k):
        # a k-fold axis has 2 distinct roots; from any higher d the null space
        # has more dimensions, whose extra roots read multiplicity 0, and the
        # same axis comes out; at d = 2k no degree is left to try
        g = EulerAngles(0.4, 1.1, 2.3)
        t = extract_tensors(pure_to_density(rotate_pure(make_coherent(_h(6), 0.7, 1.3), g)))
        coeffs = mar_polynomial(t, k)
        expected = np.tile(_zyz(g) @ _vector(0.7, 1.3), (k, 1))
        for start in range(1, 2 * k):
            _assert_lines_on(root_structure(coeffs, k, start), expected)
        assert root_structure(coeffs, k, 2 * k).shape == (0, 3)

    def test_degree_whose_svd_does_not_converge_is_skipped(self, monkeypatch):
        # LAPACK's SVD failed to converge on a finite matrix of a drawn pure
        # 2j = 14 state (rank 10); the sweep goes on to the next degree
        g = EulerAngles(0.4, 1.1, 2.3)
        t = extract_tensors(pure_to_density(rotate_pure(make_coherent(_h(6), 0.7, 1.3), g)))
        coeffs = mar_polynomial(t, 4)
        svd = np.linalg.svd
        failing = iter([True])

        def failing_svd(a, **kwargs):
            if next(failing, False):
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        _assert_lines_on(root_structure(coeffs, 4, 1), np.tile(_zyz(g) @ _vector(0.7, 1.3), (4, 1)))
        failing = iter([True] * 7)  # every degree d = 1 .. 7
        assert root_structure(coeffs, 4, 1).shape == (0, 3)

    def test_infinite_multiplicity_estimate_warns_nothing(self):
        # v' exactly 0 at a root makes the estimate w / v' complex infinity;
        # its mean with the antipode's is nan, and that degree is skipped
        cases = [(make_w(20), k) for k in (14, 16, 17)]
        cases += [(make_dicke(HalfInteger(20), HalfInteger(0)), k) for k in (14, 20)]
        for psi, k in cases:
            t = extract_tensors(pure_to_density(psi))
            item = (mar_polynomial(t, k), k, k)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                quiet = root_structure(*item)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                strict = root_structure(*item)
            assert strict.shape == quiet.shape and strict.tobytes() == quiet.tobytes(), k


class TestSylvesterMatrix:
    def test_gathered_matrix_equals_column_by_column_reference(self, monkeypatch):
        # a generic polynomial has no multiple root, so root_structure hands
        # the SVD its matrix at every d = 1 .. 2k - 1; tobytes tells the -0.0
        # padding the -p block from 0.0.  No part of p is zero: np.convolve's
        # complex products would turn a -0.0 part into 0.0.
        seen = []
        svd = np.linalg.svd

        def recording_svd(matrix, *args, **kwargs):
            seen.append(matrix.copy())
            return svd(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        rng = np.random.default_rng(21)
        for k in range(1, 21):
            coeffs = rng.normal(size=2 * k + 1) + 1j * rng.normal(size=2 * k + 1)
            seen.clear()
            assert root_structure(coeffs, k, 1).shape == (0, 3)
            assert len(seen) == 2 * k - 1
            for d, matrix in enumerate(seen, 1):
                reference = sylvester_matrix_reference(coeffs, d)
                assert matrix.shape == reference.shape == (2 * k + d, 2 * d + 1)
                assert matrix.tobytes() == reference.tobytes(), (k, d)

    def test_table_is_read_only(self):
        index, weights, scale = _sylvester_table(8, 3)
        assert index.dtype == np.intp
        assert not (index.flags.writeable or weights.flags.writeable or scale.flags.writeable)
