"""Per-rank axis systems of the multiaxial representation.

Each rank's axes come from the roots of a complex polynomial in the
stereographic variable Z = tan(theta/2) e^{i phi}, mapped back to the
sphere: the 2k roots close under the antipodal map and pair into k
double-headed axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fano import SphericalTensorSet

ZERO_TOL = 1e-12
PAIR_TOL = 1e-6
#: Components of a unit vector up to this size count as zero when choosing
#: an axis head and its theta.
FLAT_TOL = 1e-12
#: Newton steps when polishing the roots numpy returns.
POLISH_STEPS = 5
#: A rank whose every root has a condition number ||t^k|| (1 + |z|^2)^((n-1)/2)
#: / |p'(z)| below this has only simple roots.  Random states reach a few
#: hundred; the members of a multiple axis start at about 2.5e4.
SIMPLE_ROOT_COND = 3e3
#: The structure stage's matrix counts as singular when sigma_min / sigma_max
#: is below this many times the relative noise of the polynomial.
STRUCTURE_NOISE = 10.0
#: Largest distance of a multiplicity estimate from its integer.
MULTIPLICITY_TOL = 0.1
#: Absolute part of the acceptance gate on a rank's fit residual, a few
#: hundred ulps of Tr rho = 1.
GATE_FLOOR = 256.0 * np.finfo(float).eps
#: Stop tolerance of the axis refinement on the cost change, the step
#: length (relative to the parameters) and the cosine between the residual
#: and each Jacobian column.
REFINE_TOL = 3e-16


class AxisPairingError(RuntimeError):
    """Roots failed to close under the antipodal map within tolerance."""

    def __init__(self, message: str, unpaired: list):
        super().__init__(message)
        self.unpaired = unpaired


class DegenerateFitError(RuntimeError):
    """No axes fit the rank: the coupled axis tensor vanished, or no
    proposal passes the acceptance gate."""


@dataclass(frozen=True)
class Axis:
    """A double-headed direction, stored as the unit vector of its canonical head.

    Canonical head: z > FLAT_TOL, or an equatorial axis (|z| <= FLAT_TOL)
    with phi in [0, pi).  theta and phi are derived once, at construction,
    and serve only to order axes and to report them.
    """

    vector: tuple  # (x, y, z) as floats, so that == compares values
    theta: float = field(init=False, compare=False)
    phi: float = field(init=False, compare=False)

    def __post_init__(self):
        theta, phi = _display_angles(self.vector)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    @staticmethod
    def from_vector(v: np.ndarray) -> "Axis":
        return Axis(tuple(_canonical_heads(np.asarray(v, dtype=float).reshape(1, 3))[0].tolist()))

    @property
    def unit_vector(self) -> np.ndarray:
        return np.array(self.vector)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean length of each row of an n x 3 array, rounded as
    ``np.linalg.norm`` of that row alone (row sums by ``einsum`` or
    ``norm(axis=1)`` differ from it in the last bit)."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def _canonical_heads(v: np.ndarray) -> np.ndarray:
    """The rows of ``v`` normalised and flipped onto their canonical heads."""
    v = v / _row_norms(v)[:, None]
    x, y, z = v.T
    flip = (z < -FLAT_TOL) | ((np.abs(z) <= FLAT_TOL) & (
        (y < -FLAT_TOL) | ((np.abs(y) <= FLAT_TOL) & (x < 0.0))))
    return np.where(flip[:, None], -v, v)


def _display_angles(v) -> tuple[float, float]:
    """(theta, phi) of a unit vector for ordering and output: theta = pi/2
    exactly for |z| <= FLAT_TOL, phi in [0, 2 pi), 0 at a pole and within
    1e-9 below 2 pi."""
    x, y, z = v
    # atan2, not acos(z): theta below about 1e-8 would round to 0, and an
    # equatorial theta would land an ulp either side of pi/2
    theta = math.pi / 2.0 if abs(z) <= FLAT_TOL else math.atan2(math.hypot(x, y), z)
    if theta == 0.0 or theta == math.pi:
        return theta, 0.0
    phi = math.atan2(y, x) % (2.0 * math.pi)
    return theta, 0.0 if 2.0 * math.pi - phi < 1e-9 else phi


@dataclass(frozen=True)
class RankDecomposition:
    """One rank of the multiaxial representation: scalar r_k and k axes."""

    k: int
    r_k: float
    axes: tuple  # ((Axis, multiplicity), ...) sorted by multiplicity desc
    fit_residual: float = 0.0
    #: False when some root was ill conditioned and the structure stage found
    #: no multiple root, so the axes are the roots themselves: crowded roots
    #: then fix r_k and the axes only to about cond * eps, and another
    #: orientation of the same state may read them differently.  A diagnostic
    #: flag: no verdict reads it.
    settled: bool = True

    @property
    def present(self) -> bool:
        return self.r_k > 0.0


# ---------------------------------------------------------------------------
# Polynomial machinery


def _horner(columns: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Polynomials at points by Horner's rule, in place: ``columns[i]`` holds
    the coefficients of the i-th highest power, broadcast against ``z``.

    The same operations as ``np.polyval`` on one polynomial; a leading zero
    coefficient leaves the running value exactly zero, so zero-padding a
    polynomial to a common degree changes no bit.
    """
    y = np.zeros(np.broadcast_shapes(columns.shape[1:], z.shape), dtype=complex)
    for column in columns:
        y *= z
        y += column
    return y


def _polish_roots(coeffs: np.ndarray, roots: np.ndarray,
                  live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps on every root of every polynomial at once.

    Row i of ``coeffs`` holds descending coefficients left-padded with zeros
    to a common degree, row i of ``roots`` its roots; slots where ``live``
    is False are padding and stay put.  Each root keeps its best iterate and
    stops for good once the derivative at it underflows.  The live roots
    are swept as one flat array, each against its row's coefficients, and
    one Horner sweep over p and p' (p' left-padded with a zero) gives both
    at each iterate.  Returns the best iterates and |p'| at them (0 at the
    padding).
    """
    width = coeffs.shape[1]
    columns = np.zeros((width, 2, int(np.count_nonzero(live))), dtype=complex)
    columns[:, 0] = coeffs.T[:, np.nonzero(live)[0]]
    columns[1:, 1] = columns[:-1, 0] * np.arange(width - 1, 0, -1)[:, None]
    z = roots[live]
    pz, dz = _horner(columns, z)
    best, best_val, slope = z.copy(), np.abs(pz), np.abs(dz)
    z_slope = slope
    moving = np.ones(len(z), dtype=bool)
    for _ in range(POLISH_STEPS):
        moving &= z_slope >= 1e-300
        if not moving.any():
            break
        z = np.where(moving, z - pz / np.where(moving, dz, 1.0), z)
        pz, dz = _horner(columns, z)
        val, z_slope = np.abs(pz), np.abs(dz)
        better = moving & (val < best_val)
        best = np.where(better, z, best)
        best_val = np.where(better, val, best_val)
        slope = np.where(better, z_slope, slope)
    polished, slopes = roots.copy(), np.zeros(roots.shape)
    polished[live], slopes[live] = best, slope
    return polished, slopes


def _stacked_roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.roots`` of every row of ``coeffs`` (descending coefficients) at
    once.  Returns an array with one column fewer whose row i starts with
    np.roots(coeffs[i]) and holds zeros after, and the mask of those roots.

    As in ``np.roots``, leading zeros are dropped, trailing zeros come back
    as roots at 0 after the others, and the others are the eigenvalues of
    the companion matrix of what is left.  The companion matrices are
    zero-padded to one size and solved in one ``eigvals`` call: LAPACK's
    balancing isolates the padding (eigenvalues at 0, after the
    companion's own) and the rest works on the companion block alone, so
    each root has the bits of the row's own ``np.roots``.
    """
    n = coeffs.shape[1] - 1
    nonzero = coeffs != 0
    first = np.argmax(nonzero, axis=1)[:, None]
    count = np.where(nonzero.any(axis=1), n - first[:, 0], 0)  # trailing zeros included
    degree = (count - np.argmax(nonzero[:, ::-1], axis=1))[:, None]
    slots = np.arange(n)
    lead = np.take_along_axis(coeffs, first, axis=1)
    top = -np.take_along_axis(coeffs, np.minimum(first + 1 + slots, n), axis=1)
    companion = np.zeros((len(coeffs), n, n), dtype=complex)
    companion[:, 0] = np.where(slots < degree, top / np.where(lead == 0, 1.0, lead), 0.0)
    companion[:, slots[1:], slots[:-1]] = slots[1:] < degree
    return (np.where(slots < degree, np.linalg.eigvals(companion), 0.0),
            slots < count[:, None])


def _root_vectors(z: np.ndarray) -> np.ndarray:
    """Unit vectors of the roots z = tan(theta/2) e^{i phi}, one row each:
    the inverse stereographic projection, with z = inf at the south pole."""
    theta = 2.0 * np.arctan(np.abs(z))
    phi = np.angle(z)
    sin = np.sin(theta)
    return np.stack([sin * np.cos(phi), sin * np.sin(phi), np.cos(theta)], axis=-1)


def mar_polynomial(t: SphericalTensorSet, k: int) -> np.ndarray:
    """Ascending coefficients of the rank-k axis polynomial.

    The coefficient of Z^{k-q} is sqrt(C(2k, k+q)) t^k_q; the sign factor
    (-1)^{2(k-q)} is unity for integral ranks.
    """
    if k < 1 or k > t.max_rank:
        raise ValueError(f"rank {k} outside 1..2j = {t.max_rank}")
    return (_sqrt_binomials(2 * k) * t.rank_components(k))[::-1]


@lru_cache(maxsize=None)
def _sqrt_binomials(n: int) -> np.ndarray:
    """sqrt(C(n, i)) for i = 0 .. n; for n = 2k, sqrt(C(2k, k+q)) for q = -k .. k."""
    out = np.sqrt([float(math.comb(n, i)) for i in range(n + 1)])
    out.flags.writeable = False
    return out


def _quadratics(v: np.ndarray) -> np.ndarray:
    """Ascending coefficients of q(Z) = -(x + i y)/2 + z Z + (x - i y) Z^2 / 2
    for each row (x, y, z) of ``v``: the MAR polynomial of one axis, whose
    roots are the axis's two heads.  It is linear in the vector, so a
    vector's length only rescales it."""
    half = 0.5 * (v[:, 0] - 1j * v[:, 1])
    return np.column_stack([-np.conj(half), v[:, 2], half])


def axis_tensor(vectors) -> np.ndarray:
    """Rank-k tensor of the k unit vectors in the rows of a k x 3 array,
    components ascending in q.

    The MAR polynomial of the axes is the product of their quadratics;
    component q is 2^{k/2} times its Z^{k-q} coefficient over sqrt(C(2k, k+q)).
    This is the stretched coupling ((Q1 x Q2)^2 x ... )^k of the unit vectors,
    which ``angular.couple_axis_chain`` builds by Clebsch-Gordan recursion.
    """
    v = np.asarray(vectors, dtype=float).reshape(-1, 3)
    k = len(v)
    if k == 0:
        raise ValueError("need at least one direction")
    poly = np.ones(1, dtype=complex)
    for quad in _quadratics(v):
        poly = np.convolve(poly, quad)
    return poly[::-1] * (2.0 ** (0.5 * k) / _sqrt_binomials(2 * k))


def _antipodal_pairs(u: np.ndarray, within: float) -> list[tuple[int, int | None]]:
    """Pair each unit vector, in order, with its nearest free antipode; None
    where no free one lies within ``within`` rad."""
    mismatch = np.arccos(np.clip(-(u @ u.T), -1.0, 1.0))
    remaining = list(range(len(u)))
    pairs = []
    while remaining:
        i = remaining.pop(0)
        if remaining:
            best = int(np.argmin(mismatch[i, remaining]))
            if mismatch[i, remaining[best]] <= within:
                pairs.append((i, remaining.pop(best)))
                continue
        pairs.append((i, None))
    return pairs


def cluster_directions(lines: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Group the unit lines in the rows of ``lines`` whose mutual angle is
    within tol (transitively).  Returns each group's mean line, normalised,
    and its size, groups in the order of their first line."""
    n = len(lines)
    rows, cols = _upper_indices(n)
    cosines = np.minimum(1.0, np.abs(lines @ lines.T)[rows, cols])
    close = np.flatnonzero(np.arccos(cosines) <= tol)
    if not len(close):
        # + 0.0 turns -0.0 into 0.0, as the mean of a one-line group does
        return (lines + 0.0) / _row_norms(lines)[:, None], np.ones(n, dtype=int)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, l in zip(rows[close].tolist(), cols[close].tolist()):
        ri, rl = find(i), find(l)
        if ri != rl:
            parent[rl] = ri
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    means = np.empty((len(groups), 3))
    for g, members in enumerate(groups.values()):
        # each member line flipped onto the first one's head
        v = lines[members]
        means[g] = np.where(v @ v[0] >= 0.0, 1.0, -1.0) @ v
    return means / _row_norms(means)[:, None], np.array([len(m) for m in groups.values()])


@lru_cache(maxsize=None)
def _upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of an n x n array.
    Callers pass n <= 2j + 1, so the spin cap bounds the cache."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _ordered_axis_list(vectors: np.ndarray, mults) -> tuple:
    """((Axis, multiplicity), ...) of the rows of ``vectors``, by multiplicity
    descending, then theta, then phi."""
    return _axis_list(_canonical_heads(vectors).tolist(), np.asarray(mults).tolist())


def _axis_list(heads: list, mults: list) -> tuple:
    """``_ordered_axis_list`` of rows already on their canonical heads."""
    axes = ((Axis(tuple(v)), m) for v, m in zip(heads, mults))
    return tuple(sorted(axes, key=lambda am: (-am[1], am[0].theta, am[0].phi)))


def fit_rk(components: np.ndarray, axes: tuple) -> tuple[float, float]:
    """Least-squares magnitude of t^k over the axis tensor of ``axes``.

    The head-flip phase freedom is absorbed by reporting a magnitude.
    Returns (r_k, max-residual).
    """
    mults = [m for _, m in axes]
    if len(components) != 2 * sum(mults) + 1:
        raise ValueError("total axis multiplicity must equal the rank")
    coupled = axis_tensor(np.repeat([a.vector for a, _ in axes], mults, axis=0))
    denom = float(np.sum(np.abs(coupled) ** 2))
    if not denom > 0.0:
        raise DegenerateFitError("coupled axis tensor vanished")
    scale = complex(np.sum(np.conj(coupled) * components)) / denom
    residual = float(np.max(np.abs(components - scale * coupled)))
    return abs(scale), residual


class LeastSquaresResult(NamedTuple):
    x: np.ndarray
    nfev: int  # residual-plus-Jacobian evaluations


def least_squares(fun, x0) -> LeastSquaresResult:
    """Levenberg-Marquardt minimisation of ||f(x)||^2, where fun(x) -> (f, J).

    Damping follows Nielsen: mu starts at 1e-6 max diag(J^T J) (the start is
    close: polished roots), shrinks by max(1/3, 1 - (2 rho - 1)^3) after a
    step with gain ratio rho > 0 and grows by nu = 2, 4, 8, ... after each
    rejected step; every damped step is solved from one SVD of J.  Stops,
    every tolerance REFINE_TOL, when no column of J has a cosine with f
    above it (MINPACK's gradient test, blind to the scale of f), when a
    step is shorter than REFINE_TOL (REFINE_TOL + ||x||), or when an
    accepted step lowers the cost by less than REFINE_TOL of it with
    rho > 1/4; at most 100 evaluations per parameter.
    """
    x = np.array(x0, dtype=float)
    f, jac = fun(x)
    nfev, max_nfev = 1, 100 * len(x)
    cost = 0.5 * float(f @ f)
    mu, nu = 1e-6 * float(np.max(np.sum(jac * jac, axis=0))), 2.0
    while nfev < max_nfev:
        grad = jac.T @ f
        if not np.any(np.abs(grad) > REFINE_TOL * np.linalg.norm(jac, axis=0)
                      * np.linalg.norm(f)):
            break
        u, sv, vt = np.linalg.svd(jac, full_matrices=False)
        # a zero singular value (phi of an axis at a pole) takes no step
        step = -vt.T @ (sv / (sv * sv + mu) * (u.T @ f))
        if np.linalg.norm(step) < REFINE_TOL * (REFINE_TOL + np.linalg.norm(x)):
            break
        f_new, jac_new = fun(x + step)
        nfev += 1
        cost_new = 0.5 * float(f_new @ f_new)
        reduction = cost - cost_new
        if reduction <= 0.0:
            mu *= nu
            nu *= 2.0
            continue
        # cost reduction the damped linear model predicts
        predicted = 0.5 * float(step @ (mu * step - grad))
        rho = reduction / predicted if predicted > 0.0 else 0.0
        x, f, jac = x + step, f_new, jac_new
        if reduction < REFINE_TOL * cost and rho > 0.25:
            break
        cost = cost_new
        mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        nu = 2.0
    return LeastSquaresResult(x, nfev)


def _fit_residual(x: np.ndarray, mults: list[int],
                  comp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual of ``comp`` against its projection on the axis tensor, and
    the residual's Jacobian.

    x = (x_1, y_1, z_1, x_2, ...) holds a vector of any length along each
    distinct axis, ``mults`` their multiplicities; the residual comp - s c(x)
    with the least-squares scale s = c^H comp / c^H c is returned as real
    parts over imaginary parts.  The quadratics q_i of ``axis_tensor`` are
    linear in the vectors: no singular point at the poles, as (theta, phi)
    have, and a vector's length only rescales c, which s absorbs.  The
    derivative of the axis polynomial prod_i q_i^{m_i} in a component of
    vector i is m_i q_i^{m_i - 1} dq_i prod_{j != i} q_j^{m_j}.
    """
    n = len(comp)
    k = n // 2
    v = x.reshape(-1, 3)
    quads = _quadratics(v)
    coupled = axis_tensor(np.repeat(v, mults, axis=0))

    # q_i and the derivatives at the n-th roots of unity, where products are
    # pointwise; one FFT gives back the coefficients.
    z = _unit_roots(n)
    values = quads[:, 0, None] + quads[:, 1, None] * z + quads[:, 2, None] * z * z
    m = np.array(mults)[:, None]
    lower = values ** (m - 1)
    full = lower * values
    ones = np.ones((1, n), dtype=complex)
    # rest[i] = m_i q_i^(m_i - 1) prod_{j != i} q_j^(m_j)
    rest = (m * lower * np.cumprod(np.vstack([ones, full[:-1]]), axis=0)
            * np.cumprod(np.vstack([ones, full[:0:-1]]), axis=0)[::-1])
    d_quads = np.stack([0.5 * (z * z - 1.0), -0.5j * (z * z + 1.0), z])
    d_coupled = (np.fft.fft((rest[:, None, :] * d_quads).reshape(len(x), n), axis=1)[:, ::-1].T
                 * (2.0 ** (0.5 * k) / n / _sqrt_binomials(2 * k))[:, None])
    denom = float(np.sum(np.abs(coupled) ** 2))
    if not denom > 0.0:
        return np.full(2 * n, 1e3), np.zeros((2 * n, len(x)))
    s = complex(np.sum(np.conj(coupled) * comp)) / denom
    diff = comp - s * coupled
    # ds = (dc^H comp - 2 s Re(dc^H c)) / c^H c
    d_scale = (d_coupled.conj().T @ comp
               - 2.0 * s * (d_coupled.conj().T @ coupled).real) / denom
    d_diff = -(np.outer(coupled, d_scale) + s * d_coupled)
    return (np.concatenate([diff.real, diff.imag]),
            np.concatenate([d_diff.real, d_diff.imag]))


@lru_cache(maxsize=None)
def _unit_roots(n: int) -> np.ndarray:
    out = np.exp(2j * np.pi * np.arange(n) / n)
    out.flags.writeable = False
    return out


def _refine_axes(comp: np.ndarray, axes: tuple) -> tuple:
    """Polish the clustered axis directions against the tensor components.

    Multiple roots come out of the polynomial solver with an error that
    scales like eps^(1/multiplicity); minimizing the fit residual over the
    distinct axis vectors, multiplicities held fixed, recovers them to near
    machine precision.  Returns the refined axes in canonical order.
    """
    mults = [m for _, m in axes]
    x0 = np.concatenate([axis.vector for axis, _ in axes])
    sol = least_squares(lambda x: _fit_residual(x, mults, comp), x0)
    return _ordered_axis_list(sol.x.reshape(-1, 3), mults)


class RankRoots(NamedTuple):
    """The root stage's findings for one rank.

    ``vectors`` holds the unit vectors of the roots, one row each, and is
    None for an absent rank (every |t^k_q| below the zero tolerance).
    """

    z_axes: int  # axes along z: the trimmed roots at 0 and at infinity
    vectors: np.ndarray | None
    ill: int = 0  # roots whose condition number reaches SIMPLE_ROOT_COND, or all
                  # of them beside z axes


def _root_stage(t: SphericalTensorSet, ks, zero_tol: float) -> list[RankRoots]:
    """The ``RankRoots`` of the ranks ``ks`` of ``t``, in order, from one
    pass over their rows of ``_mar_table``, gathered at the table's full
    width; a rank's entry has the bits of a pass over that rank alone.
    Each present rank's MAR polynomial loses its matched roots at 0 and
    infinity (z axes) and has its other roots found (``_stacked_roots``)
    and polished, then placed on the sphere as unit vectors."""
    ks = np.array(ks, dtype=int)
    if len(ks) and (ks.min() < 1 or ks.max() > t.max_rank):
        raise ValueError(f"ranks {ks.tolist()} not all within 1..2j = {t.max_rank}")
    index, weights = _mar_table(t.max_rank)
    comp = np.concatenate([*t.ranks, [0.0]], dtype=complex)[index[ks - 1]]
    coeffs = weights[ks - 1] * comp
    width = 2 * t.max_rank + 1
    # an all-zero rank is absent even at zero_tol = 0; NaN counts as present
    peak = np.max(np.abs(comp), axis=1)
    present = ~(peak < zero_tol) & (peak != 0.0)
    magnitude = np.abs(coeffs)
    kept = magnitude > np.max(magnitude, axis=1, keepdims=True) * 1e-12
    # Conjugate-reversal symmetry makes the counts of small leading and
    # trailing coefficients equal; strip matched pairs, each contributing
    # a z-axis (root at 0 plus root at infinity).
    stripped = np.minimum(np.maximum(np.argmax(kept, axis=1) - (width - 1 - 2 * ks), 0),
                          np.argmax(kept[:, ::-1], axis=1))
    stage = [RankRoots(s, np.zeros((0, 3))) if p else RankRoots(0, None)
             for s, p in zip(stripped.tolist(), present.tolist())]
    rows = np.flatnonzero(present & (stripped < ks))
    if len(rows):
        # the trimmed polynomials, right-aligned in rows as long as the longest
        cut = stripped[rows, None]
        size = 2 * (ks[rows, None] - cut) + 1
        slots = np.arange(int(size.max()))
        source = np.maximum(slots + (width - len(slots)) - cut, 0)
        trimmed = np.where(slots >= len(slots) - size,
                           np.take_along_axis(coeffs[rows], source, axis=1), 0.0)
        roots, live = _stacked_roots(trimmed)
        best, slopes = _polish_roots(trimmed, roots, live)
        counts = np.sum(live, axis=1)
        z = best[live]
        norms = [np.linalg.norm(t.ranks[k]) for k in ks[rows].tolist()]
        # inf or nan (|p'| = 0, or an overflow far out) counts as ill
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            cond = (np.repeat(norms, counts)
                    * (1.0 + np.abs(z) ** 2) ** (0.5 * np.repeat(counts, counts) - 0.5)
                    / slopes[live])
        starts = np.cumsum([0, *counts[:-1]])
        ill = np.add.reduceat((~(cond < SIMPLE_ROOT_COND)).astype(int), starts)
        for i, v, n_ill in zip(rows.tolist(), np.split(_root_vectors(z), starts[1:]), ill.tolist()):
            # the trimming may have cut a multiple axis near z in two, so
            # what it left all counts as ill
            stage[i] = stage[i]._replace(vectors=v, ill=len(v) if stage[i].z_axes else n_ill)
    return stage


@lru_cache(maxsize=None)
def _mar_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and weights of the MAR polynomials of ranks k = 1 .. n
    of a tensor set with 2j = n, descending and right-aligned in rows of
    2n + 1: row k - 1 holds sqrt(C(2k, i)) t^k_{i-k}, the coefficient of
    Z^{2k-i}, in column 2(n - k) + i, as ``mar_polynomial`` reversed.  The
    index points into the ranks k = 0 .. n concatenated and one 0 after
    them, which the padding reads with weight 0."""
    index = np.full((n, 2 * n + 1), (n + 1) ** 2)
    weights = np.zeros((n, 2 * n + 1))
    for k in range(1, n + 1):
        index[k - 1, 2 * (n - k):] = k * k + np.arange(2 * k + 1)
        weights[k - 1, 2 * (n - k):] = _sqrt_binomials(2 * k)
    index.flags.writeable = weights.flags.writeable = False
    return index, weights


@lru_cache(maxsize=None)
def _sylvester_table(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather index, column weights and row scales of ``root_structure``'s
    matrix for formal degree n and trial degree d.

    Column j <= d holds p' shifted down by j, column d + 1 + j holds -p
    shifted down by j.  The index points into
    concatenate([p', [0], -append(p, 0)]): the p' block's padding reads the
    0 and the -p block's the -0 after -p, as a negated matrix of shifted
    copies of p holds there, so the gathered matrix is that one bit for bit.
    """
    lag = np.arange(n + d)[:, None] - np.arange(d + 1)  # row minus column
    index = np.hstack([np.where((lag >= 0) & (lag < n), lag, n),
                       np.where((lag[:, :d] >= 0) & (lag[:, :d] <= n), n + 1 + lag[:, :d], 2 * n + 2)])
    weights = np.concatenate([_sqrt_binomials(d), _sqrt_binomials(d - 1)])
    scale = _sqrt_binomials(n + d - 1)[:, None]
    index.flags.writeable = weights.flags.writeable = False
    return index, weights, scale


def root_structure(coeffs: np.ndarray, k: int, start: int) -> np.ndarray:
    """The axes of the rank-k polynomial ``coeffs`` (ascending, formal degree
    2k) as unit lines, one per row, an m-fold axis as m equal rows, when it
    has a multiple root; else no rows.

    Stage 1 of Z. Zeng, "Computing multiple roots of inexact polynomials",
    Math. Comp. 74 (2005) 869.  With u = gcd(p, p'), p = u v and p' = u w,
    so p' v - p w = 0; v has one simple root per distinct root of p, and
    p'/p = w/v = sum_i m_i / (Z - z_i) gives m_i = w(z_i) / v'(z_i).  For
    d = ``start``, ..., 2k - 1 in turn, the map (v, w) -> p' v - p w with v
    of degree d is taken between Bombieri-weighted coefficients (c_i /
    sqrt(C(degree, i))), a norm rotations keep; where its smallest singular
    value is within ``STRUCTURE_NOISE`` eps / ||p|| of the largest, its null
    vector gives v and w (v's roots by ``np.roots``, the estimates by
    ``np.polyval``).  Roots with m_i near 0 (d above the true degree)
    are dropped.  Of an odd number left, the one nearest Z = 0 has its
    antipode at infinity, which v leaves out.  Each root pairs with its
    nearest antipode, which has the same multiplicity, and each axis takes
    the mean of the two estimates.  The first d whose axis
    multiplicities lie within ``MULTIPLICITY_TOL`` of positive integers
    that add up to k, not all 1, gives the structure.
    """
    stacked = np.concatenate([coeffs[1:] * np.arange(1, 2 * k + 1), [0], -np.append(coeffs, 0)])
    noise = STRUCTURE_NOISE * np.finfo(float).eps / np.linalg.norm(coeffs / _sqrt_binomials(2 * k))
    for d in range(start, 2 * k):
        index, weights, scale = _sylvester_table(2 * k, d)
        try:
            _, sv, vh = np.linalg.svd(stacked[index] * weights / scale, full_matrices=False)
        except np.linalg.LinAlgError:  # LAPACK did not converge: no reading at this degree
            continue
        if sv[-1] > noise * sv[0]:
            continue
        null = vh[-1].conj() * weights
        v, w = null[: d + 1], null[d + 1:]
        z = np.roots(v[::-1])
        # an overflow far out gives nan, which counts as multiplicity 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            est = np.polyval(w[::-1], z) / np.polyval((v[1:] * np.arange(1, d + 1))[::-1], z)
        keep = np.abs(est) > 0.5
        z, est = z[keep], est[keep]
        if len(z) % 2:  # the antipode of the root nearest 0 lies at infinity
            nearest = np.argmin(np.abs(z))
            z, est = np.append(z, np.inf), np.append(est, est[nearest])
        u = _root_vectors(z)
        heads, tails = np.array(_antipodal_pairs(u, math.inf), dtype=int).reshape(-1, 2).T
        # an infinite estimate (v' = 0 at a root) gives nan, which fails below
        with np.errstate(invalid="ignore"):
            mults = 0.5 * (est[heads] + est[tails])
        counts = np.rint(np.real(mults))
        if (np.all(np.abs(mults - counts) <= MULTIPLICITY_TOL)
                and np.all(counts >= 1.0) and counts.sum() == k and np.any(counts > 1.0)):
            lines = u[heads] - u[tails]
            return np.repeat(lines / _row_norms(lines)[:, None], counts.astype(int), axis=0)
    return np.zeros((0, 3))


def solve_axes(
    t: SphericalTensorSet,
    k: int,
    zero_tol: float = ZERO_TOL,
    pair_tol: float = PAIR_TOL,
) -> RankDecomposition:
    """Find the k axes and the invariant scalar r_k of one rank: the rank's
    entry of ``solve_all_axes``, from stages run for this rank alone."""
    return _solve(t, [k], zero_tol, pair_tol)[0]


def _antipode_within(k: int, pair_tol: float) -> float:
    """Largest mismatch at which a rank-k root pairs with an antipode.  A root
    of multiplicity m scatters by about eps^(1/m); this allows for the worst
    case."""
    return max(pair_tol, 100.0 * np.finfo(float).eps ** (1.0 / max(2, k)))


def _proposals(t: SphericalTensorSet, k: int, roots: RankRoots, simple: tuple | None,
               pair_tol: float):
    """The ordered axes to fit to one present rank k of ``t``, in turn, each
    paired with whether a fit to it counts as settled
    (``RankDecomposition.settled``).

    A rank whose axes the simple-axes pass read (``simple``, its roots' own
    lines) has those as its only proposal.  Else, when some root is ill
    conditioned, the structure stage runs on the rank's MAR polynomial
    (``root_structure``, from the trial degree above its other roots), and
    its lines come first if it found a multiple root; then one k-fold axis
    on z when every root was trimmed to a z axis, or else the lines of the
    paired roots with the z axes beside them.  Lines closer than
    ``pair_tol`` are merged (``cluster_directions``)."""
    if simple:
        yield simple, True
        return
    if roots.ill:
        structure = root_structure(mar_polynomial(t, k), k, len(roots.vectors) - roots.ill + 1)
        if len(structure):
            yield _ordered_axis_list(*cluster_directions(structure, pair_tol)), True
    vectors = roots.vectors
    if not len(vectors):  # z_axes == k
        yield ((Axis((0.0, 0.0, 1.0)), k),), True
        return
    within = _antipode_within(k, pair_tol)
    pairs = _antipodal_pairs(vectors, within)
    unpaired = [vectors[i] for i, j in pairs if j is None]
    if unpaired:
        raise AxisPairingError(f"rank {k}: {len(unpaired)} points have no antipodal "
                               f"partner within {within:g} rad", unpaired)
    heads, tails = np.array(pairs, dtype=int).reshape(-1, 2).T
    lines = vectors[heads] - vectors[tails]
    lines = np.vstack([lines / _row_norms(lines)[:, None], np.tile([0.0, 0.0, 1.0], (roots.z_axes, 1))])
    yield _ordered_axis_list(*cluster_directions(lines, pair_tol)), not roots.ill


def solve_all_axes(
    t: SphericalTensorSet,
    zero_tol: float = ZERO_TOL,
    pair_tol: float = PAIR_TOL,
) -> list[RankDecomposition]:
    """``solve_axes`` of every rank k = 1 .. 2j."""
    return _solve(t, range(1, t.max_rank + 1), zero_tol, pair_tol)


def _solve(t: SphericalTensorSet, ks, zero_tol: float, pair_tol: float) -> list[RankDecomposition]:
    """The ``RankDecomposition`` of each rank of ``ks`` of ``t``, from one
    root stage (``_root_stage``) and one simple-axes pass (``_simple_axes``)
    over those ranks; each entry has the bits of its rank's ``solve_axes``.

    Each present rank then fits its ``_proposals`` in turn; the structure
    stage runs there, for one rank with an ill root at a time.  A fit within
    ``GATE_FLOOR`` is accepted as it stands; else the distinct axes are
    refined with their multiplicities held fixed, and the fit is accepted
    when it leaves a residual of at most pair_tol^2 ||t^k|| (about the
    residual of merging two axes pair_tol apart) plus ``GATE_FLOOR``.  The
    ranks are settled in order, so an error raised is the first failing
    rank's own, and no rank after it runs the structure stage.
    """
    items = list(zip(ks, _root_stage(t, ks, zero_tol)))
    simple = _simple_axes(items, pair_tol)
    out = []
    for k, roots in items:
        if roots.vectors is None:
            out.append(RankDecomposition(k, 0.0, ()))
            continue
        comp = t.rank_components(k)
        for axes, settled in _proposals(t, k, roots, simple.get(k), pair_tol):
            r_k, residual = fit_rk(comp, axes)
            if residual > GATE_FLOOR:
                axes = _refine_axes(comp, axes)
                r_k, residual = fit_rk(comp, axes)
            # ||t^k|| only for a fit that misses the floor
            if residual <= GATE_FLOOR or residual <= (
                    gate := pair_tol ** 2 * float(np.linalg.norm(comp)) + GATE_FLOOR):
                out.append(RankDecomposition(k, r_k, axes, residual, settled))
                break
        else:
            raise DegenerateFitError(
                f"rank {k}: no axis structure fits; the roots leave a residual of "
                f"{residual:.3g}, above the gate {gate:.3g}")
    return out


def _simple_axes(items, pair_tol: float) -> dict[int, tuple]:
    """k -> ordered axes, for every (k, roots) of ``items`` whose root-line
    proposal (``_proposals``) is its roots' own lines, each line an axis of
    its own; one array pass over all such ranks.

    A rank qualifies when it has 2k roots, none ill conditioned and none
    trimmed to a z axis (the roots' lines are then the only proposal); when
    every root's nearest other root by the antipodal mismatch is mutual and
    within ``_antipode_within`` (the greedy ``_antipodal_pairs`` then makes
    the same pairs in the same order: argmin takes the first index on a tie,
    as it does, and a nan mismatch fails the bound); and when no two of its
    lines lie within ``pair_tol`` (``cluster_directions`` merges none).  The
    Gram matrices are taken per rank, as ``u @ u.T`` rounds differently from
    a batched product, so every line and head is the same to the bit.
    """
    picked = [(k, roots.vectors) for k, roots in items if roots.vectors is not None
              and not roots.ill and not roots.z_axes and len(roots.vectors) == 2 * k]
    if not picked:
        return {}
    ks = [k for k, _ in picked]
    n = 2 * max(ks)
    vectors = np.zeros((len(ks), n, 3))
    gram = np.zeros((len(ks), n, n))
    for i, (k, u) in enumerate(picked):
        vectors[i, : 2 * k] = u
        gram[i, : 2 * k, : 2 * k] = u @ u.T
    batch, index = np.arange(len(ks))[:, None], np.arange(n)
    real = index < 2 * np.array(ks)[:, None]
    # no root is its own antipode, and padding is no root
    mismatch = np.where(real[:, None, :] & (index[:, None] != index),
                        np.arccos(np.clip(-gram, -1.0, 1.0)), np.inf)
    nearest = np.argmin(mismatch, axis=2)
    within = np.array([_antipode_within(k, pair_tol) for k in ks])[:, None]
    paired = (nearest[batch, nearest] == index) & (mismatch[batch, index, nearest] <= within)
    ok = np.all(paired | ~real, axis=1)
    # each pair's head is its lower index, so the rows run as the greedy pairs do
    rank, head = np.nonzero(ok[:, None] & real & (nearest > index))
    lines = vectors[rank, head] - vectors[rank, nearest[rank, head]]
    lines = lines / _row_norms(lines)[:, None]
    starts, start = {}, 0
    for k, paired_rank in zip(ks, ok.tolist()):
        if paired_rank:
            starts[k], start = start, start + k
    m = max(starts, default=1)
    cosines = np.zeros((len(starts), m, m))
    for i, (k, start) in enumerate(starts.items()):
        block = lines[start: start + k]
        cosines[i, :k, :k] = block @ block.T
    # cluster_directions's test, on the same products
    rows, cols = _upper_indices(m)
    close = np.any(np.arccos(np.minimum(1.0, np.abs(cosines[:, rows, cols]))) <= pair_tol, axis=1)
    # the normalisations of cluster_directions and _canonical_heads
    heads = _canonical_heads((lines + 0.0) / _row_norms(lines)[:, None])
    return {k: _axis_list(heads[start: start + k].tolist(), [1] * k)
            for (k, start), merged in zip(starts.items(), close.tolist()) if not merged}


def pairwise_invariants(decompositions: list[RankDecomposition]) -> list[float]:
    """|cos(angle)| for every unordered pair of axes, multiplicity counted, sorted descending."""
    axes = [axis for decomp in decompositions for axis in decomp.axes]
    mults = [m for _, m in axes]
    if sum(mults) < 2:
        return []
    v = np.repeat(np.array([axis.vector for axis, _ in axes]), mults, axis=0)
    upper = ~np.tri(len(v), dtype=bool)  # the strict upper triangle
    return np.sort(np.minimum(1.0, np.abs(v @ v.T)[upper]))[::-1].tolist()
