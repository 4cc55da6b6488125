"""Degeneracy configurations, class signatures and LU-equivalence testing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import spin_matrices, wigner_d_matrix
from .axes import (
    PAIR_TOL,
    ZERO_TOL,
    RankDecomposition,
    _upper_indices,
    pairwise_invariants,
    solve_all_axes,
)
from .fano import SphericalTensorSet, check_state_spin, extract_tensors
from .halfint import HalfInteger
from .states import DensityMatrix, EulerAngles, validate

#: r_k and pairwise-cosine comparisons between two states.
FINGERPRINT_TOL = 1e-7
#: Eigenvalue gap of a covariant form, relative to j(j + 1), above which
#: its eigenvectors fix a frame.
FRAME_GAP_TOL = 1e-6
#: max|R rho_A R^dagger - rho_B| up to which a rotation is a witness, on
#: either path: the 786 equivalent compares of tools/fixed_set.py map within
#: 7.4e-15, the nearest inequivalent pair (a moved Majorana point) within
#: 1.5e-8.
WITNESS_TOL = 1e-10
FRAME_REASON = ("witness rotation read off the covariant frames maps the density "
                f"matrices within {WITNESS_TOL:g}")
COHERENT_REASON = ("witness rotation taking <J> to z maps the density matrix onto the "
                   f"aligned product state |j j><j j| within {WITNESS_TOL:g}")


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by the classifier and the CLI."""

    zero: float = ZERO_TOL     # |t^k_q| below which a rank is absent
    angle: float = PAIR_TOL    # radians; identical-axis and pairing threshold


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class DegeneracyConfiguration:
    """Partition of the rank k recording multiplicities of identical axes."""

    k: int
    partition: tuple[int, ...]

    def __post_init__(self):
        if sum(self.partition) != self.k:
            raise ValueError(f"partition {self.partition} does not sum to {self.k}")
        if list(self.partition) != sorted(self.partition, reverse=True):
            raise ValueError("partition must be descending")

    def render(self) -> str:
        return f"D^{self.k}_" + ",".join(str(n) for n in self.partition)


def degeneracy_configuration(decomp: RankDecomposition) -> DegeneracyConfiguration:
    """The partition of one rank: the axis multiplicities its fit validated."""
    if not decomp.present:
        raise ValueError(f"rank {decomp.k} is absent; no configuration")
    partition = tuple(sorted((mult for _, mult in decomp.axes), reverse=True))
    return DegeneracyConfiguration(decomp.k, partition)


@dataclass(frozen=True)
class ClassSignature:
    """Per-rank decompositions plus the rotation-invariant fingerprint."""

    j: HalfInteger
    ranks: tuple[RankDecomposition, ...]  # k = 1 .. 2j, absent ranks with r_k = 0
    pairwise: tuple[float, ...]

    def render(self) -> str:
        parts = [degeneracy_configuration(d).render() for d in self.ranks if d.present]
        return "{" + ", ".join(parts) + "}"

    @property
    def r_values(self) -> dict[int, float]:
        return {d.k: d.r_k for d in self.ranks if d.present}


def signature_from_tensors(
    t: SphericalTensorSet, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> ClassSignature:
    ranks = tuple(solve_all_axes(t, zero_tol=tolerances.zero, pair_tol=tolerances.angle))
    return ClassSignature(t.j, ranks, tuple(pairwise_invariants([d for d in ranks if d.present])))


def class_signature(
    rho: DensityMatrix, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> ClassSignature:
    return signature_from_tensors(extract_tensors(rho), tolerances)


# ---------------------------------------------------------------------------
# Pure-state separability


@lru_cache(maxsize=None)
def separable_reference_r(twice_j: int) -> dict[int, float]:
    """Reference r_k of the aligned product state |j j><j j|, as the axis
    stage reads them: every rank is one k-fold axis on z."""
    mat = np.zeros((twice_j + 1, twice_j + 1), dtype=complex)
    mat[0, 0] = 1.0
    t = extract_tensors(DensityMatrix(HalfInteger(twice_j), mat))
    return {d.k: d.r_k for d in solve_all_axes(t)}


@dataclass(frozen=True)
class SeparabilityVerdict:
    separable: bool
    applicable: bool
    reason: str


def pure_separability_check(
    rho: DensityMatrix, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> SeparabilityVerdict:
    """The verdict of one witness turn onto |j j><j j| (``_coherent_witness``);
    pure states only.  ``tolerances`` is unused, since no axis is read, and
    kept for callers that pass it."""
    report = validate(rho)
    if not report.is_pure:
        return SeparabilityVerdict(
            False, False, f"not applicable: mixed state (purity {report.purity:.6f})"
        )
    return _coherent_witness(rho)


def _coherent_witness(rho: DensityMatrix) -> SeparabilityVerdict:
    """``separable`` when the turn taking n = <J>/|<J>| to z maps rho onto
    |j j><j j| within WITNESS_TOL; ``not separable`` otherwise, with the
    evidence as the reason.

    The pure separable symmetric states are exactly the rotated |j j>, so
    one such turn decides, and no signature is needed.  A matrix within
    WITNESS_TOL of |j j><j j| has <J_z> >= j - WITNESS_TOL sum_m |m|, where
    sum_m |m| = (2j + 1)^2 // 4, and the turn takes <J_z> to |<J>|: a state
    below that bound, or with <J> = 0 at j > 0, is not turned."""
    twice_j = rho.j.twice
    n = np.einsum("aij,ji->a", spin_matrices(twice_j), rho.matrix).real
    norm = float(np.linalg.norm(n))
    if norm == 0.0 and twice_j:
        return SeparabilityVerdict(False, True, "<J> = 0: no rotated |j j> has it")
    bound = 0.5 * twice_j - WITNESS_TOL * ((twice_j + 1) ** 2 // 4)
    if norm < bound:
        return SeparabilityVerdict(
            False, True, f"|<J>| = {norm:.9f} is below {bound:.9f}, the least that the "
                         "witness turn accepts")
    turned = _turn_to_z(rho, n / norm)[1] if twice_j else rho.matrix.copy()  # j = 0: no turn
    turned[0, 0] -= 1.0  # turned minus |j j><j j|
    miss = float(np.max(np.abs(turned)))
    if miss <= WITNESS_TOL:
        return SeparabilityVerdict(True, True, COHERENT_REASON)
    return SeparabilityVerdict(
        False, True, f"witness rotation taking <J> to z misses |j j><j j| by {miss:.3e}, "
                     f"above {WITNESS_TOL:g}")


# ---------------------------------------------------------------------------
# LU equivalence


@dataclass(frozen=True)
class EquivalenceResult:
    verdict: str  # "equivalent" | "inequivalent" | "fingerprint-match-only"
    reason: str
    witness: EulerAngles | None = None


def _fingerprints_match(a: ClassSignature, b: ClassSignature) -> bool:
    r_a, r_b = [d.r_k for d in a.ranks], [d.r_k for d in b.ranks]
    return len(a.pairwise) == len(b.pairwise) and bool(
        np.all(np.abs(np.subtract(r_a, r_b)) <= FINGERPRINT_TOL)
        and np.all(np.abs(np.subtract(a.pairwise, b.pairwise)) <= FINGERPRINT_TOL))


def euler_zyz_from_matrix(rot: np.ndarray) -> EulerAngles:
    """Euler angles with R = Rz(alpha) Ry(beta) Rz(gamma).

    The third row and column hold sin(beta) times the sines and cosines of
    alpha and gamma, so near a pole rounding swamps those two angles.  R then
    depends mainly on alpha + gamma (beta near 0) or alpha - gamma (beta
    near pi), which the upper-left block holds times 1 + cos(beta) or
    1 - cos(beta).  That combination is read from the block and the other
    one from the third row and column.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = np.asarray(rot, dtype=float).tolist()
    beta = math.atan2(math.hypot(r02, r12), r22)
    alpha = math.atan2(r12, r02)
    gamma = math.atan2(r21, -r20)
    if r22 >= 0.0:
        total = math.atan2(r10 - r01, r00 + r11)
        shift = 0.5 * math.remainder(total - alpha - gamma, 2.0 * math.pi)
        return EulerAngles(alpha + shift, beta, gamma + shift)
    difference = math.atan2(-(r10 + r01), r11 - r00)
    shift = 0.5 * math.remainder(difference - alpha + gamma, 2.0 * math.pi)
    return EulerAngles(alpha + shift, beta, gamma - shift)


# ---------------------------------------------------------------------------
# Witness: rotations read off covariant 3 x 3 forms of rho or the axes, and
# the one test that accepts them


def _covariant_forms(rho: np.ndarray, spins: np.ndarray):
    """C1 = Re Tr(rho {J_a, J_b})/2, C2 = Re Tr(rho J_a rho J_b) and
    C3 = Re Tr(rho^2 {J_a, J_b})/2, one at a time; rho -> U rho U^dagger
    turns each as R C R^T."""
    rho_j = rho @ spins

    def form(left, right):
        c = np.einsum("aij,bji->ab", left, right).real
        return 0.5 * (c + c.T)

    yield form(rho_j, spins)
    yield form(rho_j, rho_j)
    yield form(rho @ rho_j, spins)


def _turned(rho: DensityMatrix, angles: EulerAngles) -> np.ndarray:
    """The matrix of ``rotate_density(rho, angles)``, without a DensityMatrix."""
    u = wigner_d_matrix(rho.j, angles.alpha, angles.beta, angles.gamma)
    return u @ rho.matrix @ u.conj().T


def _turn_to_z(rho: DensityMatrix, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A rotation G taking ``u`` to z, and G applied to ``rho``'s matrix.

    G's rows are n, u x n and u, for n the unit part of e orthogonal to u
    and e the coordinate axis farthest from u's line; + 0.0 clears each
    -0.0, which the atan2 calls of ``euler_zyz_from_matrix`` would read as a
    half turn."""
    a0, a1, a2 = a = u.tolist()
    i = min(range(3), key=lambda k: abs(a[k]))  # the farthest axis e_i
    n = np.array([(k == i) - a[i] * a[k] for k in range(3)])  # e_i - (u . e_i) u
    b0, b1, b2 = (n / math.sqrt(float(n.dot(n)))).tolist()  # np.linalg.norm's arithmetic
    g = np.array([[b0, b1, b2], [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], a])
    g += 0.0
    return g, _turned(rho, euler_zyz_from_matrix(g))


def _pose_candidates(pose_a, pose_b):
    """Rotations taking the line of A's pose axis to that of B's, best first,
    from the poses (G, G rho) that ``_turn_to_z`` gives each state.

    The line is z there; a pi turn about x, a phase times the anti-identity,
    then reverses B for its other head.  The largest off-diagonal entry of
    A there, at Delta = m - m', fixes the angle about z up to 2 pi / Delta.
    Both heads of B are searched in one pass: per head, the angle whose turn
    of A best matches B in that frame is proposed, and each proposal is
    formed only when it is asked for."""
    g_a, za = pose_a
    g_b, zb = pose_b
    rows, cols = _upper_indices(len(za))
    upper = np.abs(za[rows, cols])
    top = int(np.argmax(upper))
    row, col = int(rows[top]), int(cols[top])
    heads = np.array((zb, zb[::-1, ::-1]))
    bases = (np.angle(za[row, col]) - np.angle(heads[:, row, col]) if upper[top] > 0.0
             else np.zeros(2))
    delta = col - row
    phis = (bases[:, None] + 2.0 * math.pi * np.arange(delta)) / delta
    # exp(-i phi J_z) multiplies entry (m, m') by exp(-i phi (m - m')), read
    # off a (head, phi, m - m') table; m - m' = column - row, as m runs j .. -j
    twice_j = len(za) - 1
    phases = np.exp(-1j * phis[:, :, None] * np.arange(-twice_j, twice_j + 1))
    steps = np.arange(twice_j, 2 * twice_j + 1) - np.arange(twice_j + 1)[:, None]
    misses = np.abs(phases[:, :, steps] * za - heads[:, None]).reshape(2, delta, -1).max(axis=2)
    best = np.argmin(misses, axis=1)
    for head in sorted(range(2), key=lambda h: misses[h, best[h]]):
        g = np.diag([1.0, -1.0, -1.0]) @ g_b if head else g_b
        cos, sin = math.cos(phis[head, best[head]]), math.sin(phis[head, best[head]])
        yield g.T @ np.array([[cos, -sin, 0.0], [sin, cos, 0.0], [0.0, 0.0, 1.0]]) @ g_a


def _frame(rho: DensityMatrix):
    """The key (form index, gap pattern) and frame of the first of C1, C2 and
    C3 with an eigenvalue gap above FRAME_GAP_TOL j(j + 1); None when all
    are isotropic.  Two gaps give g, the eigenvectors as rows with det g =
    +1; one gives the eigenvector of the isolated eigenvalue, an axis."""
    twice_j = rho.j.twice
    bound = FRAME_GAP_TOL * (0.25 * twice_j * (twice_j + 2))
    for index, form in enumerate(_covariant_forms(rho.matrix, spin_matrices(twice_j))):
        values, vectors = np.linalg.eigh(form)
        v0, v1, v2 = values.tolist()
        low, high = gaps = (v1 - v0 > bound, v2 - v1 > bound)
        if low and high:
            vectors[:, 2] *= math.copysign(1.0, np.linalg.det(vectors))
            return (index, gaps), vectors.T
        if low or high:
            return (index, gaps), vectors[:, 0 if low else 2]
    return None


def _frame_candidates(rho_a: DensityMatrix, rho_b: DensityMatrix):
    """Rotations read off the frames of the two states (``_frame``); none
    unless their keys are equal.  Full frames g_A and g_B give g_B^T H g_A
    for H the identity and the pi turns about x, y and z; axes give
    ``_pose_candidates`` of the two states turned onto them."""
    frame_a = _frame(rho_a)
    frame_b = _frame(rho_b) if frame_a else None
    if frame_b is None or frame_a[0] != frame_b[0]:
        return []
    ((_, gaps), g_a), (_, g_b) = frame_a, frame_b
    if all(gaps):  # H as the signs it gives x, y and z
        return ((g_b.T * signs) @ g_a for signs in
                ((1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)))
    return _pose_candidates(_turn_to_z(rho_a, g_a), _turn_to_z(rho_b, g_b))


def _witness(rho_a: DensityMatrix, rho_b: DensityMatrix, rotations) -> EulerAngles | None:
    """The first of ``rotations`` that maps rho_a onto rho_b within
    WITNESS_TOL, max-abs over the entries, as Euler angles; None if none
    does."""
    for rot in rotations:
        angles = euler_zyz_from_matrix(rot)
        if np.max(np.abs(_turned(rho_a, angles) - rho_b.matrix)) <= WITNESS_TOL:
            return angles
    return None


def _without_witness(sig_a: ClassSignature, sig_b: ClassSignature,
                     configurations: bool) -> EquivalenceResult:
    """The verdict when no rotation maps the states: ``inequivalent`` for
    differing present ranks or degeneracy configurations, which renders both
    signatures, or for differing fingerprints, and ``fingerprint-match-only``
    otherwise."""
    if configurations or not _fingerprints_match(sig_a, sig_b):
        return EquivalenceResult("inequivalent", (
            f"degeneracy configurations differ: {sig_a.render()} vs {sig_b.render()}"
            if configurations else "invariant fingerprints (r_k, pairwise cosines) differ"))
    return EquivalenceResult(
        "fingerprint-match-only", "invariants agree but no single witness rotation was found")


def lu_equivalent(
    rho_a: DensityMatrix,
    rho_b: DensityMatrix,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> EquivalenceResult:
    """``equivalent`` with a witness read off the covariant frames of the
    two states when one of their candidates maps them
    (``_frame_candidates``), else the decision of the axis stage
    (``_axis_decision``).

    Symmetric states are LU-equivalent exactly when one U^(x)N maps one onto
    the other, so a rotation that maps rho_a onto rho_b within WITNESS_TOL
    is a complete witness, and no signature is needed.  Both paths only
    propose rotations; ``_witness`` is the one test that accepts one.
    """
    if rho_a.j != rho_b.j:
        raise ValueError(f"spin mismatch: {rho_a.j} vs {rho_b.j}")
    check_state_spin(rho_a.j)
    witness = _witness(rho_a, rho_b, _frame_candidates(rho_a, rho_b))
    if witness is not None:
        return EquivalenceResult("equivalent", FRAME_REASON, witness)
    return _axis_decision(rho_a, rho_b, tolerances)


def _axis_decision(
    rho_a: DensityMatrix,
    rho_b: DensityMatrix,
    tolerances: Tolerances,
) -> EquivalenceResult:
    """One pose search over the two states' axes; the configurations and the
    invariant fingerprints choose the verdict only when it fails.

    A rotation that maps rho_a onto rho_b maps A's first axis u of its
    lowest present rank k onto the line of some axis v of B at rank k, so
    the poses of A turned onto u and B onto each such v, whatever its
    multiplicity, hold every candidate (``_pose_candidates``).  ``_witness``
    tests each on rho itself, so an ill-conditioned rank needs no special
    treatment.  Without a witness, differing present ranks, configurations
    or fingerprints (r_k and pairwise cosines) give ``inequivalent``, and
    ``fingerprint-match-only`` is left otherwise.  With no present rank on
    either side, no axes fix a rotation, and the identity is the one
    candidate.
    """
    sig_a, sig_b = class_signature(rho_a, tolerances), class_signature(rho_b, tolerances)
    present = [(da, db) for da, db in zip(sig_a.ranks, sig_b.ranks)
               if da.present or db.present]
    if not present:
        if np.max(np.abs(rho_a.matrix - rho_b.matrix)) <= WITNESS_TOL:
            return EquivalenceResult("equivalent", "both states have no axes",
                                     EulerAngles(0.0, 0.0, 0.0))
        return _without_witness(sig_a, sig_b, False)
    low = next((d for d in sig_a.ranks if d.present), None)  # A's lowest present rank k
    if low is not None:
        pose_a = _turn_to_z(rho_a, low.axes[0][0].unit_vector)
        candidates = (rot for axis, _ in sig_b.ranks[low.k - 1].axes
                      for rot in _pose_candidates(pose_a, _turn_to_z(rho_b, axis.unit_vector)))
        witness = _witness(rho_a, rho_b, candidates)
        if witness is not None:
            return EquivalenceResult(
                "equivalent", "witness rotation maps the constellations and the density matrices",
                witness)
    return _without_witness(sig_a, sig_b, any(
        not (da.present and db.present)
        or degeneracy_configuration(da) != degeneracy_configuration(db) for da, db in present))
