"""Reference implementations the tests check the library against.

The library only ever goes from a density matrix to its tensors and from
the tensors to the axes; these go the other way, or by another route.
"""

import cmath
import itertools
import math

import numpy as np

from multiaxial.angular import spin_matrices, tau_matrix
from multiaxial.axes import (
    ZERO_TOL,
    _display_angles,
    _root_vectors,
    _sqrt_binomials,
)
from multiaxial.classify import (
    DEFAULT_TOLERANCES,
    FINGERPRINT_TOL,
    FRAME_GAP_TOL,
    ClassSignature,
    SeparabilityVerdict,
    Tolerances,
    _covariant_forms,
    euler_zyz_from_matrix,
    separable_reference_r,
)
from multiaxial.fano import SphericalTensorSet
from multiaxial.halfint import HalfInteger
from multiaxial.states import DensityMatrix, PureState, rotate_density


def reconstruct_density(t: SphericalTensorSet) -> DensityMatrix:
    """Invert the expansion: rho = (1/(2j+1)) sum t^k_q tau^{k+}_q."""
    dim = t.max_rank + 1
    mat = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        for q in range(-k, k + 1):
            mat += t.component(k, q) * tau_matrix(t.j, k, q).conj().T
    return DensityMatrix(t.j, mat / dim)


def tau_table_reference(twice_j: int) -> tuple[np.ndarray, np.ndarray]:
    """``fano._tau_table`` built entry by entry: one ``tau_matrix`` per (k, q)."""
    j = HalfInteger(twice_j)
    dim = twice_j + 1
    index = np.zeros((dim * dim, dim), dtype=np.intp)
    weight = np.zeros((dim * dim, dim))
    row = 0
    for k in range(dim):
        for q in range(-k, k + 1):
            tau = tau_matrix(j, k, q)
            cols = np.arange(max(0, q), min(dim, dim + q))  # ket m
            rows = cols - q                                  # bra m+q
            index[row, cols] = cols * dim + rows
            weight[row, cols] = tau[rows, cols].real
            row += 1
    return index, weight


def sylvester_matrix_reference(coeffs: np.ndarray, d: int) -> np.ndarray:
    """``axes.root_structure``'s matrix of (v, w) -> p' v - p w at trial
    degree d, built column by column: column j is p' times Z^j for j <= d,
    then -p times Z^j for j < d, each an ``np.convolve`` with a unit vector,
    with Bombieri weights on the columns and scales on the rows."""
    n = len(coeffs) - 1
    deriv = coeffs[1:] * np.arange(1, n + 1)

    def shifted(c, j, width):
        unit = np.zeros(width)
        unit[j] = 1.0
        return np.convolve(c, unit)

    columns = ([shifted(deriv, j, d + 1) for j in range(d + 1)]
               + [-shifted(coeffs, j, d) for j in range(d)])
    weights = np.concatenate([_sqrt_binomials(d), _sqrt_binomials(d - 1)])
    return np.column_stack(columns) * weights / _sqrt_binomials(n + d - 1)[:, None]


def majorana_polynomial(psi: PureState) -> np.ndarray:
    """Ascending coefficients of P(Z) = sum_m (-1)^{j+m} sqrt(C(2j, j+m)) a_m Z^{j+m}."""
    n = psi.j.twice  # 2j; amplitudes run m = j .. -j, so a_m sits at n - (j + m)
    power = np.arange(n + 1)
    binomials = np.sqrt([float(math.comb(n, int(p))) for p in power])
    return (-1.0) ** power * binomials * psi.amplitudes[::-1]


def majorana_roots(psi: PureState) -> np.ndarray:
    """The 2j Majorana points as unit vectors, one row each with multiplicity,
    ordered by (theta, phi); degree deficiency maps to the south pole."""
    coeffs = majorana_polynomial(psi)
    top = int(np.flatnonzero(np.abs(coeffs) > ZERO_TOL * np.max(np.abs(coeffs)))[-1])
    z = np.full(len(coeffs) - 1 - top, np.inf, dtype=complex)
    if top > 0:
        desc = coeffs[top::-1]
        z = np.concatenate([z, polish_roots_per_root(desc, np.roots(desc))])
    points = _root_vectors(z)
    return points[sorted(range(len(points)), key=lambda i: _display_angles(points[i]))]


def polish_roots_per_root(coeffs_desc, roots, steps=5):
    """Newton steps on each root of the polynomial ``coeffs_desc`` (descending
    coefficients) alone, each root keeping its best iterate and stopping once
    the derivative underflows."""
    deriv = np.polyder(coeffs_desc)
    out = roots.copy()
    for i, z in enumerate(out):
        best = z
        best_val = abs(np.polyval(coeffs_desc, z))
        for _ in range(steps):
            d = np.polyval(deriv, z)
            if abs(d) < 1e-300:
                break
            z = z - np.polyval(coeffs_desc, z) / d
            val = abs(np.polyval(coeffs_desc, z))
            if val < best_val:
                best, best_val = z, val
        out[i] = best
    return out


def wigner_small_d(j, mprime, m, beta: float) -> float:
    """Reduced rotation matrix element d^j_{m' m}(beta) by Wigner's sum over s."""
    j, mp, m = HalfInteger.of(j), HalfInteger.of(mprime), HalfInteger.of(m)
    if abs(mp.twice) > j.twice or abs(m.twice) > j.twice:
        raise ValueError("|m| and |m'| must not exceed j")
    fact = math.factorial
    jm = (j.twice + m.twice) // 2
    jmm = (j.twice - m.twice) // 2
    jmp = (j.twice + mp.twice) // 2
    jmmp = (j.twice - mp.twice) // 2
    norm = math.sqrt(float(fact(jm) * fact(jmm) * fact(jmp) * fact(jmmp)))
    cos_h = math.cos(beta / 2.0)
    sin_h = math.sin(beta / 2.0)
    dmm = (mp.twice - m.twice) // 2  # m' - m, always integral here
    total = 0.0
    for s in range(max(0, -dmm), min(jmmp, jm) + 1):
        denom = fact(s) * fact(jmmp - s) * fact(jm - s) * fact(dmm + s)
        sign = -1.0 if (s + dmm) % 2 else 1.0
        total += sign * cos_h ** (jm + jmmp - 2 * s) * sin_h ** (dmm + 2 * s) / denom
    return norm * total


def wigner_d(j, mprime, m, alpha: float, beta: float, gamma: float) -> complex:
    """Wigner rotation matrix element D^j_{m' m}(alpha, beta, gamma), one at a time."""
    mp, mm = HalfInteger.of(mprime), HalfInteger.of(m)
    phase = cmath.exp(-1j * (float(mp) * alpha + float(mm) * gamma))
    return phase * wigner_small_d(j, mp, mm, beta)


_PHI = (1.0 + math.sqrt(5.0)) / 2.0
#: Two generators of each rotation group, as (axis, fold): the tetrahedral
#: group T (12 rotations), the octahedral O (24) and the icosahedral I (60).
GROUP_GENERATORS = {
    "T": (((0.0, 0.0, 1.0), 2), ((1.0, 1.0, 1.0), 3)),
    "O": (((0.0, 0.0, 1.0), 4), ((1.0, 1.0, 1.0), 3)),
    "I": (((0.0, 1.0, _PHI), 5), ((1.0, 1.0, 1.0), 3)),
}


def twirl(rho: DensityMatrix, group: str) -> DensityMatrix:
    """sum_g D(g) rho D(g)^dagger / |G| over the rotation group ``group``
    ("T", "O" or "I"), closed from its two generators.  Each element is
    kept as a 3 x 3 rotation, to tell the elements apart, beside its spin-j
    matrix: the product of the generators' exp(-i theta n.J), which D(g)
    equals up to sign."""
    spins = spin_matrices(rho.j.twice)
    generators = []
    for axis, fold in GROUP_GENERATORS[group]:
        n = np.array(axis) / np.linalg.norm(axis)
        theta = 2.0 * math.pi / fold
        cross = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
        rot = np.eye(3) + math.sin(theta) * cross + (1.0 - math.cos(theta)) * cross @ cross
        values, vectors = np.linalg.eigh(np.tensordot(n, spins, 1))
        generators.append((rot, (vectors * np.exp(-1j * theta * values)) @ vectors.conj().T))
    elements = {}
    frontier = [(np.eye(3), np.eye(len(rho.matrix), dtype=complex))]
    while frontier:
        rot, u = frontier.pop()
        key = tuple(np.round(rot, 8).ravel() + 0.0)
        if key not in elements:
            elements[key] = u
            frontier += [(g_rot @ rot, g_u @ u) for g_rot, g_u in generators]
    return DensityMatrix(rho.j, sum(u @ rho.matrix @ u.conj().T for u in elements.values())
                         / len(elements))


def frame_from_pair(u1: np.ndarray, u2: np.ndarray) -> np.ndarray | None:
    """The frame with columns u1, n and u1 x n, for n the unit part of u2
    orthogonal to u1; None when u2 lies within 1e-9 of u1's line."""
    n = u2 - float(np.dot(u1, u2)) * u1
    norm = float(np.linalg.norm(n))
    if norm < 1e-9:
        return None
    # the third column formed as np.cross forms it, without its overhead
    (a0, a1, a2), (b0, b1, b2) = u1.tolist(), (n / norm).tolist()
    return np.array([[a0, b0, a1 * b2 - a2 * b1], [a1, b1, a2 * b0 - a0 * b2],
                     [a2, b2, a0 * b1 - a1 * b0]])


def farthest_axis(u: np.ndarray) -> np.ndarray:
    """The coordinate axis farthest from the line of ``u``."""
    return np.eye(3)[int(np.argmin(np.abs(u)))]


#: Columns z, x, y: the rotation taking x to z.
_X_TO_Z = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


def turn_to_z_reference(rho: DensityMatrix, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``classify._turn_to_z`` as a product: G = X_TO_Z F^T for the frame F
    of ``u`` and its farthest coordinate axis, and ``rotate_density`` by
    G's Euler angles."""
    g = _X_TO_Z @ frame_from_pair(u, farthest_axis(u)).T
    return g, rotate_density(rho, euler_zyz_from_matrix(g)).matrix


def axial_candidates_reference(rho_a: DensityMatrix, rho_b: DensityMatrix, u_a, u_b):
    """``classify._axial_candidates`` one head of B at a time, with every
    phase exp(-i phi (m - m')) formed per entry."""
    g_a, za = turn_to_z_reference(rho_a, u_a)
    g_b, zb = turn_to_z_reference(rho_b, u_b)
    off = np.triu(np.abs(za), 1)
    row, col = np.unravel_index(int(np.argmax(off)), off.shape)
    delta = max(col - row, 1)
    # m - m' of each entry: the basis runs m = j .. -j
    steps = np.arange(len(za))[None, :] - np.arange(len(za))[:, None]
    candidates = []
    for g, z in ((g_b, zb), (np.diag([1.0, -1.0, -1.0]) @ g_b, zb[::-1, ::-1])):
        base = np.angle(za[row, col]) - np.angle(z[row, col]) if off[row, col] > 0.0 else 0.0
        phis = (base + 2.0 * math.pi * np.arange(delta)) / delta
        turned = np.exp(-1j * phis[:, None, None] * steps) * za
        misses = np.max(np.abs(turned - z), axis=(1, 2))
        best = int(np.argmin(misses))
        cos, sin = math.cos(phis[best]), math.sin(phis[best])
        rz = np.array([[cos, -sin, 0.0], [sin, cos, 0.0], [0.0, 0.0, 1.0]])
        candidates.append((misses[best], g.T @ rz @ g_a))
    return [rot for _, rot in sorted(candidates, key=lambda c: c[0])]


def frame_candidates_reference(rho_a: DensityMatrix, rho_b: DensityMatrix) -> list:
    """``classify._frame_candidates`` read off both states in lockstep: the
    first covariant form whose gaps exceed FRAME_GAP_TOL on both sides in
    the same pattern; none when every form is isotropic on a side or the
    patterns differ.  Two gaps give the four V_B S V_A^T, S a diagonal
    sign matrix, with det = +1; one gap gives ``axial_candidates_reference``
    of the isolated eigenvectors."""
    twice_j = rho_a.j.twice
    spins = spin_matrices(twice_j)
    scale = 0.25 * twice_j * (twice_j + 2)
    for form_a, form_b in zip(_covariant_forms(rho_a.matrix, spins),
                              _covariant_forms(rho_b.matrix, spins)):
        (values_a, v_a), (values_b, v_b) = np.linalg.eigh(form_a), np.linalg.eigh(form_b)
        gaps = tuple(bool(g) for g in np.diff(values_a) > FRAME_GAP_TOL * scale)
        gaps_b = tuple(bool(g) for g in np.diff(values_b) > FRAME_GAP_TOL * scale)
        if any(gaps) and gaps == gaps_b:
            break
    else:
        return []
    if all(gaps):
        # R V_A = V_B S for a diagonal sign matrix S, det R = +1
        orientation = np.linalg.det(v_a) * np.linalg.det(v_b)
        return [v_b @ np.diag(signs) @ v_a.T
                for signs in itertools.product((1.0, -1.0), repeat=3)
                if math.prod(signs) * orientation > 0.0]
    isolated = 0 if gaps[0] else 2
    return axial_candidates_reference(rho_a, rho_b, v_a[:, isolated], v_b[:, isolated])


def separability_from_signature(
    signature: ClassSignature, tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> SeparabilityVerdict:
    """The pure-state recipe judged from the signature of a pure state."""
    # the smallest |cos| over every pair of axes, multiplicity counted
    max_angle = math.acos(signature.pairwise[-1]) if signature.pairwise else 0.0
    if max_angle > tolerances.angle:
        return SeparabilityVerdict(
            False, True,
            f"axes not all collinear (max pairwise angle {max_angle:.3e} rad)",
        )
    reference = separable_reference_r(signature.j.twice)
    r_values = signature.r_values
    for k, r_ref in reference.items():
        r_here = r_values.get(k, 0.0)
        if abs(r_here - r_ref) > FINGERPRINT_TOL:
            return SeparabilityVerdict(
                False, True,
                f"r_{k} = {r_here:.9f} differs from separable reference "
                f"{r_ref:.9f}",
            )
    return SeparabilityVerdict(True, True, "all axes collinear and every r_k matches "
                                           "the aligned product state")
