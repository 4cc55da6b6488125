"""Constellations on the sphere: Majorana roots and per-rank axis systems.

Both representations reduce to finding the roots of a complex polynomial in
the stereographic variable Z = tan(theta/2) e^{i phi} and mapping them back
to the sphere.  For mixed-state tensors the 2k roots close under the
antipodal map and pair into k double-headed axes.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fano import SphericalTensorSet
from .halfint import projections
from .states import PureState

ZERO_TOL = 1e-12
PAIR_TOL = 1e-6
#: Components of a unit vector up to this size count as zero in ``Axis.from_vector``.
FLAT_TOL = 1e-12
#: Newton steps when polishing the roots numpy returns.
POLISH_STEPS = 5
#: The lines of an m-fold axis spread over up to about 4.6 eps^(1/m) rad
#: (m = 6..20, rotated coherent, W and Dicke states up to 2j = 20), more
#: when a near-z axis has lost a root pair to the z-axis trimming.
MULTIPLE_SCATTER = 20.0
#: Widest spread gathered as one axis, about that of a 14-fold axis; wider
#: groups of lines are as likely to be distinct axes.
MULTIPLE_SPREAD_MAX = 0.35
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
    """The coupled axis tensor vanished; no scale can be fitted."""


@dataclass(frozen=True)
class SpherePoint:
    """Point (theta, phi) with theta in [0, pi], phi in [0, 2 pi); poles at phi=0."""

    theta: float
    phi: float

    @staticmethod
    def create(theta: float, phi: float) -> "SpherePoint":
        theta = min(max(theta, 0.0), math.pi)
        if theta == 0.0 or theta == math.pi:
            return SpherePoint(theta, 0.0)
        phi = phi % (2.0 * math.pi)
        if 2.0 * math.pi - phi < 1e-9:
            phi = 0.0
        return SpherePoint(theta, phi)

    @staticmethod
    def from_root(z: complex) -> "SpherePoint":
        return SpherePoint.create(2.0 * math.atan(abs(z)), cmath.phase(z))

    @staticmethod
    def from_vector(v: np.ndarray) -> "SpherePoint":
        x, y, z = float(v[0]), float(v[1]), float(v[2])
        r = math.sqrt(x * x + y * y + z * z)
        return SpherePoint.create(math.acos(max(-1.0, min(1.0, z / r))),
                                  math.atan2(y, x))

    @property
    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


SOUTH_POLE = SpherePoint(math.pi, 0.0)


@dataclass(frozen=True)
class Axis:
    """A double-headed direction, stored by its canonical-hemisphere head.

    Canonical head: theta < pi/2, or theta = pi/2 with phi in [0, pi);
    poles are reported as (0, 0).
    """

    representative: SpherePoint

    @staticmethod
    def from_vector(v: np.ndarray) -> "Axis":
        v = np.asarray(v, dtype=float)
        v = v / np.linalg.norm(v)
        if v[2] < -FLAT_TOL:
            v = -v
        elif abs(v[2]) <= FLAT_TOL:
            # Equatorial axis: pick the head with phi in [0, pi).
            if v[1] < -FLAT_TOL or (abs(v[1]) <= FLAT_TOL and v[0] < 0.0):
                v = -v
            # acos(z) would land an ulp either side of pi/2 and break both
            # the canonical-head rule and the (theta, phi) ordering.
            return Axis(SpherePoint.create(math.pi / 2.0, math.atan2(v[1], v[0])))
        return Axis(SpherePoint.from_vector(v))

    @property
    def theta(self) -> float:
        return self.representative.theta

    @property
    def phi(self) -> float:
        return self.representative.phi

    @property
    def unit_vector(self) -> np.ndarray:
        return self.representative.unit_vector

    def angle_to(self, other: "Axis") -> float:
        """Angle between the two lines, in [0, pi/2]."""
        d = abs(float(np.dot(self.unit_vector, other.unit_vector)))
        return math.acos(min(1.0, d))


@dataclass(frozen=True)
class RankDecomposition:
    """One rank of the multiaxial representation: scalar r_k and k axes."""

    k: int
    r_k: float
    axes: tuple  # ((Axis, multiplicity), ...) sorted by multiplicity desc
    fit_residual: float = 0.0

    @property
    def present(self) -> bool:
        return self.r_k > 0.0

    def expanded_axes(self) -> list[Axis]:
        out = []
        for axis, mult in self.axes:
            out.extend([axis] * mult)
        return out


# ---------------------------------------------------------------------------
# Polynomial machinery


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row i's polynomial (descending coefficients) at row i's points.

    The same operations as ``np.polyval`` on one row; a leading zero
    coefficient leaves the running value exactly zero, so zero-padding a
    row to a common degree changes no bit.
    """
    y = np.zeros_like(z)
    for column in coeffs.T[:, :, None]:
        y = y * z + column
    return y


def _polish_roots(coeffs: np.ndarray, roots: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Newton steps on every root of every polynomial at once.

    Row i of ``coeffs`` holds descending coefficients left-padded with zeros
    to a common degree, row i of ``roots`` its roots; slots where ``live``
    is False are padding and stay put.  Each root keeps its best iterate and
    stops for good once the derivative at it underflows.
    """
    deriv = coeffs[:, :-1] * np.arange(coeffs.shape[1] - 1, 0, -1)
    z = roots.copy()
    pz = _horner(coeffs, z)
    best = z.copy()
    best_val = np.abs(pz)
    live = live.copy()
    for _ in range(POLISH_STEPS):
        d = _horner(deriv, z)
        live &= np.abs(d) >= 1e-300
        if not live.any():
            break
        z = np.where(live, z - pz / np.where(live, d, 1.0), z)
        pz = _horner(coeffs, z)
        val = np.abs(pz)
        better = live & (val < best_val)
        best = np.where(better, z, best)
        best_val = np.where(better, val, best_val)
    return best


def _polished_roots(polys: list[np.ndarray]) -> list[np.ndarray]:
    """Finite roots of each polynomial given by ascending coefficients: one
    ``np.roots`` each, then one Newton polish over all of them."""
    found = [np.roots(c[::-1]) for c in polys]
    counts = [len(r) for r in found]
    width = max(len(c) for c in polys)
    coeffs = np.zeros((len(polys), width), dtype=complex)
    roots = np.zeros((len(polys), max(counts)), dtype=complex)
    live = np.zeros(roots.shape, dtype=bool)
    for i, (c, r) in enumerate(zip(polys, found)):
        coeffs[i, width - len(c):] = c[::-1]
        roots[i, : len(r)] = r
        live[i, : len(r)] = True
    best = _polish_roots(coeffs, roots, live)
    return [best[i, :n] for i, n in enumerate(counts)]


def _root_vectors(z: np.ndarray) -> np.ndarray:
    """Unit vectors of the roots z = tan(theta/2) e^{i phi}, one row each.

    Follows ``SpherePoint.from_root``: phi wraps into [0, 2 pi), and phi
    within 1e-9 below 2 pi or at a pole is 0.
    """
    theta = np.clip(2.0 * np.arctan(np.abs(z)), 0.0, math.pi)
    phi = np.mod(np.angle(z), 2.0 * math.pi)
    phi[(2.0 * math.pi - phi < 1e-9) | (theta == 0.0) | (theta == math.pi)] = 0.0
    sin = np.sin(theta)
    return np.stack([sin * np.cos(phi), sin * np.sin(phi), np.cos(theta)], axis=-1)


def majorana_polynomial(psi: PureState) -> np.ndarray:
    """Ascending coefficients of P(Z) = sum_m (-1)^{j+m} sqrt(C(2j, j+m)) a_m Z^{j+m}."""
    n = psi.j.twice  # 2j
    coeffs = np.zeros(n + 1, dtype=complex)
    for m in projections(psi.j):
        power = (psi.j.twice + m.twice) // 2
        amp = psi.amplitudes[(psi.j.twice - m.twice) // 2]
        coeffs[power] = (-1) ** power * math.sqrt(math.comb(n, power)) * amp
    return coeffs


def majorana_roots(psi: PureState) -> list[SpherePoint]:
    """The 2j Majorana points, with multiplicity; degree deficiency maps to the south pole."""
    if psi.j.twice < 1:
        raise ValueError("need j >= 1/2 for a Majorana constellation")
    coeffs = majorana_polynomial(psi)
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        raise RuntimeError("zero Majorana polynomial for a normalized state")
    tol = scale * ZERO_TOL
    degree = len(coeffs) - 1
    top = degree
    while top > 0 and abs(coeffs[top]) <= tol:
        top -= 1
    n_infinity = degree - top
    points = [SOUTH_POLE] * n_infinity
    trimmed = coeffs[: top + 1]
    if top > 0:
        (roots,) = _polished_roots([trimmed])
        points.extend(SpherePoint.from_root(z) for z in roots)
    points.sort(key=lambda p: (p.theta, p.phi))
    return points


def mar_polynomial(t: SphericalTensorSet, k: int) -> np.ndarray:
    """Ascending coefficients of the rank-k axis polynomial.

    The coefficient of Z^{k-q} is sqrt(C(2k, k+q)) t^k_q; the sign factor
    (-1)^{2(k-q)} is unity for integral ranks.
    """
    if k < 1 or k > t.max_rank:
        raise ValueError(f"rank {k} outside 1..2j = {t.max_rank}")
    return (_root_binomials(k) * t.rank_components(k))[::-1]


@lru_cache(maxsize=None)
def _root_binomials(k: int) -> np.ndarray:
    """sqrt(C(2k, k+q)) for q = -k .. k."""
    out = np.sqrt([float(math.comb(2 * k, k + q)) for q in range(-k, k + 1)])
    out.flags.writeable = False
    return out


def axis_tensor(thetas, phis) -> np.ndarray:
    """Rank-k tensor of k unit vectors (theta_i, phi_i), components ascending in q.

    The MAR polynomial of the axes is the product of one quadratic per axis,
    (a Z - b)(a + conj(b) Z) with a = cos(theta/2), b = sin(theta/2) e^{i phi};
    component q is 2^{k/2} times its Z^{k-q} coefficient over sqrt(C(2k, k+q)).
    This is the stretched coupling ((Q1 x Q2)^2 x ... )^k of the unit vectors,
    which ``angular.couple_axis_chain`` builds by Clebsch-Gordan recursion.
    """
    half = 0.5 * np.asarray(thetas, dtype=float)
    a = np.cos(half)
    b = np.sin(half) * np.exp(1j * np.asarray(phis, dtype=float))
    k = len(a)
    if k == 0:
        raise ValueError("need at least one direction")
    poly = np.ones(1, dtype=complex)
    for quad in zip(-a * b, a * a - np.abs(b) ** 2, a * np.conj(b)):
        poly = np.convolve(poly, quad)
    return poly[::-1] * (2.0 ** (0.5 * k) / _root_binomials(k))


def _pair_antipodes(vectors: list[np.ndarray], tol: float) -> list[np.ndarray]:
    """Pair each point with its antipode; return one line direction per pair."""
    n = len(vectors)
    if n % 2 != 0:
        raise AxisPairingError("odd number of points cannot pair", vectors)
    v = np.array(vectors)
    mismatch = np.arccos(np.clip(-(v @ v.T), -1.0, 1.0))

    # Greedy nearest-antipode matching.
    remaining = list(range(n))
    pairs: list[tuple[int, int]] = []
    ok = True
    while remaining:
        i = remaining.pop(0)
        if not remaining:
            ok = False
            break
        best = int(np.argmin(mismatch[i, remaining]))
        if mismatch[i, remaining[best]] > tol:
            ok = False
            break
        pairs.append((i, remaining.pop(best)))

    if not ok:
        # Optimal assignment fallback for degenerate clusters; the only
        # use of scipy, imported here so the library loads without it.
        from scipy.optimize import linear_sum_assignment

        cost = mismatch.copy()
        np.fill_diagonal(cost, math.inf)
        rows, cols = linear_sum_assignment(cost)
        match = dict(zip(rows.tolist(), cols.tolist()))
        pairs = []
        used = set()
        bad = []
        for i in range(n):
            if i in used:
                continue
            l = match[i]
            if match.get(l) != i or mismatch[i, l] > tol:
                bad.append(vectors[i])
                continue
            used.update((i, l))
            pairs.append((i, l))
        if bad or len(pairs) != n // 2:
            raise AxisPairingError(
                f"{n - 2 * len(pairs)} points have no antipodal partner "
                f"within {tol:g} rad", bad or vectors)

    lines = []
    for i, l in pairs:
        d = vectors[i] - vectors[l]
        lines.append(d / np.linalg.norm(d))
    return lines


def cluster_directions(vectors: list[np.ndarray], tol: float) -> list[tuple[np.ndarray, int]]:
    """Group line directions whose mutual angle is within tol (transitively)."""
    n = len(vectors)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows, cols = np.triu_indices(n, 1)
    for pair in np.flatnonzero(np.arccos(line_cosines(vectors)) <= tol):
        ri, rl = find(int(rows[pair])), find(int(cols[pair]))
        if ri != rl:
            parent[rl] = ri

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [(_mean_line(vectors, members), len(members)) for members in groups.values()]


def _mean_line(vectors: list[np.ndarray], members) -> np.ndarray:
    """Unit mean of the member lines, each flipped onto the first one's head."""
    ref = vectors[members[0]]
    acc = np.zeros(3)
    for i in members:
        v = vectors[i]
        acc += v if float(np.dot(v, ref)) >= 0.0 else -v
    return acc / np.linalg.norm(acc)


def multiple_axis_groups(vectors: list[np.ndarray],
                         floor_tol: float) -> list[tuple[np.ndarray, int]] | None:
    """Group line directions, first gathering the lines of each m-fold axis.

    An m-fold axis reaches the solver as m lines spread over up to
    ``MULTIPLE_SCATTER * eps^(1/m)`` rad (at most ``MULTIPLE_SPREAD_MAX``),
    wider than ``floor_tol`` from m = 5 on.  Repeatedly take the largest m for which some line and its m - 1 nearest
    free lines span no more than that; the lines left over are clustered at
    ``floor_tol``.  Returns None when no such group exists, that is when
    this grouping is ``cluster_directions(vectors, floor_tol)``.
    """
    limit, cos_limit = _group_limits(len(vectors), floor_tol)
    v = np.array(vectors)
    free = np.arange(len(v))
    groups = []
    while len(free) > 1 and limit[len(free) - 1] > 0.0:
        w = v[free]
        cosines = np.abs(w @ w.T)
        # a group of m needs a line whose m - 1 nearest lie within limit[m - 1]
        if not (-np.sort(-cosines, axis=1) >= cos_limit[: len(free)]).any():
            break
        angles = np.arccos(np.clip(cosines, 0.0, 1.0))
        order = np.argsort(angles, axis=1)
        # span[i, m - 1]: largest angle among line i and its m - 1 nearest
        near = angles[order[:, :, None], order[:, None, :]]
        span = np.maximum.accumulate(np.triu(near).max(axis=1), axis=1)
        fits = span <= limit[: len(free)]
        found = np.flatnonzero(fits.any(axis=0))
        if not len(found):
            break
        m = int(found[-1]) + 1
        seed = int(np.argmin(np.where(fits[:, m - 1], span[:, m - 1], np.inf)))
        members = free[order[seed, :m]]
        groups.append(members.tolist())
        free = np.setdiff1d(free, members)
    if not groups:
        return None
    out = [(_mean_line(vectors, members), len(members)) for members in groups]
    if len(free):
        out.extend(cluster_directions([vectors[i] for i in free], floor_tol))
    return out


@lru_cache(maxsize=None)
def _group_limits(n: int, floor_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Widest spread of an m-fold axis's lines for m = 1 .. n, and its cosine.

    Sizes whose spread ``floor_tol`` already covers get -1 (cosine 2), so
    they never form a group here.
    """
    sizes = np.arange(1, n + 1)
    limit = np.minimum(MULTIPLE_SCATTER * np.finfo(float).eps ** (1.0 / sizes),
                       MULTIPLE_SPREAD_MAX)
    limit[limit <= floor_tol] = -1.0
    cos_limit = np.where(limit > 0.0, np.cos(limit), 2.0)
    limit.flags.writeable = False
    cos_limit.flags.writeable = False
    return limit, cos_limit


def _ordered_axis_list(clusters: list[tuple[np.ndarray, int]]) -> tuple:
    axes = [(Axis.from_vector(v), mult) for v, mult in clusters]
    axes.sort(key=lambda am: (-am[1], am[0].theta, am[0].phi))
    return tuple(axes)


def fit_rk(components: np.ndarray, axes: tuple) -> tuple[float, float]:
    """Least-squares magnitude of t^k over the axis tensor of ``axes``.

    The head-flip phase freedom is absorbed by reporting a magnitude.
    Returns (r_k, max-residual).
    """
    mults = [m for _, m in axes]
    if len(components) != 2 * sum(mults) + 1:
        raise ValueError("total axis multiplicity must equal the rank")
    coupled = axis_tensor(np.repeat([a.theta for a, _ in axes], mults),
                          np.repeat([a.phi for a, _ in axes], mults))
    denom = float(np.sum(np.abs(coupled) ** 2))
    if denom < 1e-14:
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

    x = (theta_1, phi_1, theta_2, ...) holds the distinct axes, ``mults``
    their multiplicities; the residual comp - s c(x) with the least-squares
    scale s = c^H comp / c^H c is returned as real parts over imaginary
    parts.  With q_i = (a_i Z - b_i)(a_i + conj(b_i) Z) the axis polynomial
    is prod_i q_i^{m_i}, so its derivative in theta_i or phi_i is
    m_i q_i^{m_i - 1} dq_i prod_{j != i} q_j^{m_j}, normalised as in
    ``axis_tensor``.
    """
    n = len(comp)
    coupled = axis_tensor(np.repeat(x[0::2], mults), np.repeat(x[1::2], mults))
    denom = float(np.sum(np.abs(coupled) ** 2))
    if denom < 1e-14:
        return np.full(2 * n, 1e3), np.zeros((2 * n, len(x)))
    s = complex(np.sum(np.conj(coupled) * comp)) / denom
    diff = comp - s * coupled

    # q_i = -(sin(theta_i)/2) e^{i phi_i} + cos(theta_i) Z
    #       + (sin(theta_i)/2) e^{-i phi_i} Z^2 and its derivatives, at the
    # n-th roots of unity, where products are pointwise; one FFT gives back
    # the coefficients.
    sin, cos = np.sin(x[0::2, None]), np.cos(x[0::2, None])
    e = np.exp(1j * x[1::2, None])
    z = _unit_roots(n)
    quads = -0.5 * sin * e + cos * z + 0.5 * sin * np.conj(e) * z * z
    d_theta = -0.5 * cos * e - sin * z + 0.5 * cos * np.conj(e) * z * z
    d_phi = -0.5j * sin * (e + np.conj(e) * z * z)
    m = np.array(mults)[:, None]
    lower = quads ** (m - 1)
    full = lower * quads
    ones = np.ones((1, n), dtype=complex)
    # rest[i] = m_i q_i^(m_i - 1) prod_{j != i} q_j^(m_j)
    rest = (m * lower * np.cumprod(np.vstack([ones, full[:-1]]), axis=0)
            * np.cumprod(np.vstack([ones, full[:0:-1]]), axis=0)[::-1])
    values = np.stack([rest * d_theta, rest * d_phi], axis=1).reshape(len(x), n)
    k = n // 2
    d_coupled = (np.fft.fft(values, axis=1)[:, ::-1].T
                 * (2.0 ** (0.5 * k) / n / _root_binomials(k))[:, None])
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
    distinct (theta, phi), multiplicities held fixed, recovers them to near
    machine precision.
    """
    mults = [m for _, m in axes]
    x0 = [angle for axis, _ in axes for angle in (axis.theta, axis.phi)]
    sol = least_squares(lambda x: _fit_residual(x, mults, comp), x0)
    # Not SpherePoint.create: a fit may cross a pole to theta < 0, which
    # names the right line but would be clamped onto the pole.
    return _ordered_axis_list(
        [(SpherePoint(sol.x[2 * i], sol.x[2 * i + 1]).unit_vector, m)
         for i, m in enumerate(mults)])


class RankRoots(NamedTuple):
    """The root stage's findings for one rank.

    ``vectors`` holds the unit vectors of the roots, one row each, and is
    None for an absent rank (``scale`` below the zero tolerance).
    """

    scale: float  # largest |t^k_q|
    z_axes: int  # axes along z: the trimmed roots at 0 and at infinity
    vectors: np.ndarray | None


def rank_roots(t: SphericalTensorSet, ranks, zero_tol: float = ZERO_TOL) -> list[RankRoots]:
    """Root stage of ``solve_axes`` for several ranks at once.

    Each present rank's MAR polynomial loses its matched roots at 0 and
    infinity (z axes) and has its other roots found and polished in one
    sweep over all ranks, then placed on the sphere as unit vectors.
    """
    stage, polys = [], []
    for k in ranks:
        scale = float(np.max(np.abs(t.rank_components(k))))
        if scale < zero_tol:
            stage.append(RankRoots(scale, 0, None))
            continue
        coeffs = mar_polynomial(t, k)
        ctol = float(np.max(np.abs(coeffs))) * 1e-12
        degree = 2 * k
        lead = 0
        while lead < degree and abs(coeffs[degree - lead]) <= ctol:
            lead += 1
        trail = 0
        while trail < degree and abs(coeffs[trail]) <= ctol:
            trail += 1
        # Conjugate-reversal symmetry makes the counts equal; strip matched
        # pairs, each contributing a z-axis (root at 0 plus root at infinity).
        stripped = min(lead, trail)
        trimmed = coeffs[stripped: degree - stripped + 1]
        stage.append(RankRoots(scale, stripped, np.zeros((0, 3))))
        if len(trimmed) > 1:
            polys.append((len(stage) - 1, trimmed))
    if polys:
        roots = _polished_roots([c for _, c in polys])
        vectors = np.split(_root_vectors(np.concatenate(roots)),
                           np.cumsum([len(r) for r in roots[:-1]]))
        for (i, _), v in zip(polys, vectors):
            stage[i] = stage[i]._replace(vectors=v)
    return stage


def solve_axes(
    t: SphericalTensorSet,
    k: int,
    zero_tol: float = ZERO_TOL,
    pair_tol: float = PAIR_TOL,
    roots: RankRoots | None = None,
) -> RankDecomposition:
    """Find the k axes and the invariant scalar r_k of one rank.

    ``roots`` is this rank's entry of ``rank_roots(t, ...)`` when the caller
    has run the root stage over several ranks; without it the stage runs
    for this rank alone.
    """
    if roots is None:
        (roots,) = rank_roots(t, [k], zero_tol)
    scale, vectors = roots.scale, roots.vectors
    if vectors is None:
        return RankDecomposition(k, 0.0, ())
    comp = t.rank_components(k)

    # A root of multiplicity m scatters by about eps^(1/m); allow for the
    # worst case when matching antipodes.
    scatter = 100.0 * np.finfo(float).eps ** (1.0 / max(2, k))
    lines = _pair_antipodes(vectors, max(pair_tol, scatter)) if len(vectors) else []
    lines.extend(np.array([0.0, 0.0, 1.0]) for _ in range(roots.z_axes))
    if len(lines) != k:
        raise AxisPairingError(
            f"rank {k}: expected {k} axes, built {len(lines)}", vectors)

    # Accept the coarsest grouping that the tensor itself validates (tiny
    # residual after refinement), the m-fold axes gathered first;
    # over-merging distinct axes cannot fit, so it falls through to a finer
    # one.
    accept = 1e-9 * max(1.0, scale)
    tols = [c for c in (1e-2, 1e-3, 1e-4, 1e-5) if c > pair_tol]
    tols.append(pair_tol)
    multiple = multiple_axis_groups(lines, tols[0])
    best = None
    for clusters in itertools.chain([] if multiple is None else [multiple],
                                    (cluster_directions(lines, tol) for tol in tols)):
        axes = _ordered_axis_list(clusters)
        r_k, residual = fit_rk(comp, axes)
        if residual > 1e-12 * max(1.0, scale):
            axes = _refine_axes(comp, axes)
            r_k, residual = fit_rk(comp, axes)
        if best is None or residual < best[2]:
            best = (r_k, axes, residual)
        if residual <= accept:
            break
    r_k, axes, residual = best
    return RankDecomposition(k, r_k, axes, residual)


def solve_all_axes(
    t: SphericalTensorSet,
    zero_tol: float = ZERO_TOL,
    pair_tol: float = PAIR_TOL,
) -> list[RankDecomposition]:
    ranks = range(1, t.max_rank + 1)
    return [
        solve_axes(t, k, zero_tol=zero_tol, pair_tol=pair_tol, roots=roots)
        for k, roots in zip(ranks, rank_roots(t, ranks, zero_tol))
    ]


def pairwise_invariants(decompositions: list[RankDecomposition]) -> list[float]:
    """|cos(angle)| for every unordered pair of axes, multiplicity counted, sorted descending."""
    vectors = [axis.unit_vector for decomp in decompositions
               for axis in decomp.expanded_axes()]
    return np.sort(line_cosines(vectors))[::-1].tolist()


def line_cosines(vectors: list[np.ndarray]) -> np.ndarray:
    """min(1, |cos|) of the angle between every unordered pair of lines."""
    if len(vectors) < 2:
        return np.zeros(0)
    v = np.array(vectors)
    upper = np.triu_indices(len(v), 1)
    return np.minimum(1.0, np.abs(v @ v.T)[upper])
