"""Angular momentum special functions.

Clebsch-Gordan coefficients (Condon-Shortley convention, exact integer
arithmetic in the Racah sum and inside the square root), Wigner rotation
matrices, irreducible tensor operator matrices and sequential tensor
coupling of unit vectors (the last kept as a reference for the polynomial
form in ``axes``).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .halfint import HalfInteger, basis_index, dimension, projections

#: Largest spin handled: a Racah sum reaches at most (j1 + j2 + j3 + 1)!,
#: so ``_FACTORIALS`` below stops at (3 MAX_SPIN + 1)!.
MAX_SPIN = HalfInteger.of(20)
_FACTORIALS = tuple(math.factorial(n) for n in range(3 * MAX_SPIN.twice // 2 + 2))


class SpinTooLargeError(ValueError):
    pass


def _check_spin(j: HalfInteger) -> None:
    if j.twice < 0:
        raise ValueError(f"negative spin {j}")
    if j > MAX_SPIN:
        raise SpinTooLargeError(f"spin {j} exceeds supported maximum {MAX_SPIN}")


@lru_cache(maxsize=100_000)
def _cg_twice(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int) -> float:
    """Exact Racah sum for <j1 m1 j2 m2 | j3 m3>, arguments doubled."""
    if tm1 + tm2 != tm3:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return 0.0
    if tj3 < abs(tj1 - tj2) or tj3 > tj1 + tj2:
        return 0.0
    # j1 + j2 + j3 must be integral, as must every j +/- m.
    if (tj1 + tj2 + tj3) % 2 != 0:
        return 0.0
    if (tj1 + tm1) % 2 != 0 or (tj2 + tm2) % 2 != 0 or (tj3 + tm3) % 2 != 0:
        return 0.0

    f = _FACTORIALS
    a = (tj1 + tj2 - tj3) // 2
    b = (tj1 - tj2 + tj3) // 2
    c = (-tj1 + tj2 + tj3) // 2
    num = ((tj3 + 1) * f[a] * f[b] * f[c]
           * f[(tj1 + tm1) // 2] * f[(tj1 - tm1) // 2]
           * f[(tj2 + tm2) // 2] * f[(tj2 - tm2) // 2]
           * f[(tj3 + tm3) // 2] * f[(tj3 - tm3) // 2])
    den = f[(tj1 + tj2 + tj3) // 2 + 1]

    # sum_s (-1)^s / D_s, D_s = s! (a-s)! (x-s)! (y-s)! (z+s)! (w+s)!, over
    # the common multiple L of the D_s below, in integers; int / int rounds
    # correctly, as float(Fraction) does
    x, y = (tj1 - tm1) // 2, (tj2 + tm2) // 2
    z, w = (tj3 - tj2 + tm1) // 2, (tj3 - tj1 - tm2) // 2
    s_min = max(0, -z, -w)
    s_max = min(a, x, y)
    common = (f[s_max] * f[a - s_min] * f[x - s_min] * f[y - s_min]
              * f[z + s_max] * f[w + s_max])
    term = f[s_max] // f[s_min] * (f[z + s_max] // f[z + s_min]) * (f[w + s_max] // f[w + s_min])
    total = 0
    for s in range(s_min, s_max + 1):  # term = L / D_s
        total += -term if s % 2 else term
        term = term * (a - s) * (x - s) * (y - s) // ((s + 1) * (z + s + 1) * (w + s + 1))
    if total == 0:
        return 0.0
    return (total / common) * math.sqrt(num / den)


def clebsch_gordan(j1, j2, j3, m1, m2, m3) -> float:
    """Clebsch-Gordan coefficient C(j1 j2 j3; m1 m2 m3) = <j1 m1; j2 m2 | j3 m3>.

    Selection-rule violations return exactly 0.  The paper's tensor matrix
    elements use the ordering C(j k j; m q m').
    """
    j1, j2, j3 = HalfInteger.of(j1), HalfInteger.of(j2), HalfInteger.of(j3)
    m1, m2, m3 = HalfInteger.of(m1), HalfInteger.of(m2), HalfInteger.of(m3)
    for j in (j1, j2, j3):
        _check_spin(j)
    return _cg_twice(j1.twice, j2.twice, j3.twice, m1.twice, m2.twice, m3.twice)


def wigner_d_matrix(j, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Full (2j+1)x(2j+1) rotation matrix, rows and columns m' and m descending:
    D^j_{m'm} = exp(-i m' alpha) d^j_{m'm}(beta) exp(-i m gamma), where
    d^j(beta) = exp(-i beta J_y) is summed over the eigenvectors of J_y."""
    j = HalfInteger.of(j)
    _check_spin(j)
    eigenvalues, eigenvectors, inverse = _jy_eigensystem(j.twice)
    small = ((eigenvectors * np.exp(-1j * beta * eigenvalues)) @ inverse).real
    m = eigenvalues[::-1]  # j .. -j, the basis order
    return np.exp(-1j * alpha * m)[:, None] * small * np.exp(-1j * gamma * m)


@lru_cache(maxsize=None)
def spin_matrices(twice_j: int) -> np.ndarray:
    """J_x, J_y, J_z over the basis m = j .. -j, stacked."""
    # <m+1| J_+ |m> = sqrt(j(j+1) - m(m+1)), in doubled units
    tm = np.arange(twice_j - 2, -twice_j - 1, -2)
    raising = np.diag(0.5 * np.sqrt(twice_j * (twice_j + 2) - tm * (tm + 2.0)), 1)
    stack = np.array([(raising + raising.T) / 2, (raising - raising.T) / 2j,
                      np.diag(0.5 * np.arange(twice_j, -twice_j - 1, -2))])
    stack.flags.writeable = False
    return stack


@lru_cache(maxsize=None)
def _jy_eigensystem(twice_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues m = -j .. j of J_y, exact, its eigenvectors V in the
    columns of a matrix over the basis m = j .. -j, and V^dagger."""
    _, vectors = np.linalg.eigh(spin_matrices(twice_j)[1])
    values = 0.5 * np.arange(-twice_j, twice_j + 1, 2)
    inverse = vectors.conj().T
    values.flags.writeable = vectors.flags.writeable = inverse.flags.writeable = False
    return values, vectors, inverse


def tau_matrix(j, k, q) -> np.ndarray:
    """Irreducible tensor operator tau^k_q, <j m'|tau^k_q|j m> = [k] C(j k j; m q m')."""
    j = HalfInteger.of(j)
    k = HalfInteger.of(k)
    q = HalfInteger.of(q)
    _check_spin(j)
    if not k.is_integer or k.twice < 0 or k.twice > 2 * j.twice:
        raise ValueError(f"rank k={k} outside 0..2j for j={j}")
    if abs(q.twice) > k.twice:
        raise ValueError(f"|q|={q} exceeds k={k}")
    dim = dimension(j)
    out = np.zeros((dim, dim), dtype=complex)
    norm = math.sqrt(k.twice + 1.0)
    for m in projections(j):
        mp = m + q
        if abs(mp.twice) > j.twice:
            continue
        out[basis_index(j, mp), basis_index(j, m)] = norm * clebsch_gordan(
            j, k, j, m, q, mp
        )
    return out


def couple_pair(t1: np.ndarray, k1: int, t2: np.ndarray, k2: int, k: int) -> np.ndarray:
    """Couple two spherical tensors to rank k.

    Reference implementation: the library builds axis tensors as polynomial
    products (``axes.axis_tensor``) and keeps this as a test oracle.
    Components are indexed q + rank (ascending q).  Implements
    (t1 x t2)^k_q = sum_q1 C(k1 k2 k; q1, q - q1, q) t1_{q1} t2_{q - q1}.
    """
    k1, k2, k = int(k1), int(k2), int(k)
    if len(t1) != 2 * k1 + 1 or len(t2) != 2 * k2 + 1:
        raise ValueError("component array lengths must be 2k+1")
    if k < abs(k1 - k2) or k > k1 + k2:
        raise ValueError(f"triangle violation: cannot couple {k1} and {k2} to {k}")
    out = np.zeros(2 * k + 1, dtype=complex)
    for q in range(-k, k + 1):
        acc = 0.0 + 0.0j
        for q1 in range(-k1, k1 + 1):
            q2 = q - q1
            if abs(q2) > k2:
                continue
            cg = clebsch_gordan(k1, k2, k, q1, q2, q)
            if cg != 0.0:
                acc += cg * t1[q1 + k1] * t2[q2 + k2]
        out[q + k] = acc
    return out


def q_vector(theta: float, phi: float) -> np.ndarray:
    """Rank-1 components of the unit vector (theta, phi): sqrt(4 pi / 3) Y^1_q.

    Returned as [Q_{-1}, Q_0, Q_{+1}].
    """
    st = math.sin(theta)
    return np.array(
        [
            st / math.sqrt(2.0) * cmath.exp(-1j * phi),
            math.cos(theta),
            -st / math.sqrt(2.0) * cmath.exp(1j * phi),
        ],
        dtype=complex,
    )


def couple_axis_chain(directions: list[tuple[float, float]]) -> np.ndarray:
    """Sequentially couple unit vectors ((Q1 x Q2)^2 x Q3)^3 ... up to rank n.

    Reference implementation: the library builds the same tensor as a
    polynomial product (``axes.axis_tensor``) and keeps this as a test oracle.
    """
    if not directions:
        raise ValueError("need at least one direction")
    acc = q_vector(*directions[0])
    rank = 1
    for theta, phi in directions[1:]:
        acc = couple_pair(acc, rank, q_vector(theta, phi), 1, rank + 1)
        rank += 1
    return acc
