"""Spherical tensor parameters of a density matrix.

The density matrix is expanded over the irreducible tensor operators as
rho = (1/(2j+1)) sum_{k q} t^k_q tau^{k+}_q, with t^k_q = Tr(rho tau^k_q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import MAX_SPIN, SpinTooLargeError, _cg_twice
from .halfint import HalfInteger
from .states import DensityMatrix

#: Largest state spin: every rank k <= 2j needs Clebsch-Gordan coefficients
#: C(j k j; ...) with k within ``MAX_SPIN``.
MAX_STATE_SPIN = HalfInteger(MAX_SPIN.twice // 2)


@dataclass(frozen=True)
class SphericalTensorSet:
    """Components t^k_q for k = 0..2j; each rank stored ascending in q."""

    j: HalfInteger
    ranks: tuple

    def __post_init__(self):
        n = self.j.twice  # 2j, also the highest rank
        ranks = tuple(np.asarray(r, dtype=complex) for r in self.ranks)
        object.__setattr__(self, "ranks", ranks)
        if len(ranks) != n + 1:
            raise ValueError(f"expected ranks 0..{n}, got {len(ranks)} arrays")
        for k, comp in enumerate(ranks):
            if comp.shape != (2 * k + 1,):
                raise ValueError(f"rank {k} must have {2 * k + 1} components")

    @property
    def max_rank(self) -> int:
        return self.j.twice

    def component(self, k: int, q: int) -> complex:
        return complex(self.ranks[k][q + k])

    def rank_components(self, k: int) -> np.ndarray:
        return self.ranks[k]


@lru_cache(maxsize=None)
def _tau_table(twice_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices and weights of every tau^k_q of one spin, k = 0 .. 2j.

    tau^k_q has one non-zero diagonal, <j m+q|tau^k_q|j m>, so the diagonal
    of rho tau^k_q holds rho[m, m+q] tau[m+q, m] where m+q exists and 0
    elsewhere.  Row (k, q) of the table holds, in diagonal position m, the
    flat index of that rho entry and the (real) tau entry, or weight 0.  The
    row sum then adds the same terms in the same positions as
    np.trace(rho @ tau) does, so it rounds the same way; degenerate states
    sit on thresholds that a last-bit change in t^k_q can tip.
    Rows run k ascending, then q ascending.

    Only q >= 0 and the first half of each row take a Racah sum; the rest
    follow from two exact symmetries of C(j k j; m q m+q), whose partners
    share every factorial and so every bit up to sign:
    m -> -m-q gives (-1)^(k+q) within a row, and (m, q) -> (-m, -q) gives
    (-1)^k from row q to row -q, reversed.  Adding 0.0 keeps a zero +0.0.
    """
    dim = twice_j + 1
    qs = np.concatenate([np.arange(-k, k + 1) for k in range(dim)])[:, None]
    kets = np.arange(dim)                       # ket m; bra m+q sits at kets - q
    index = np.where((kets >= qs) & (kets < dim + qs), kets * dim + kets - qs, 0).astype(np.intp)
    weight = np.zeros((dim * dim, dim))
    for k in range(dim):
        norm = math.sqrt(2 * k + 1.0)
        rows = weight[k * k: (k + 1) * (k + 1)]  # q = -k .. k
        for q in range(k + 1):
            n = dim - q                         # row q fills kets q .. 2j
            half = np.array([norm * _cg_twice(twice_j, 2 * k, twice_j, tm, 2 * q, tm + 2 * q)
                             for tm in range(twice_j - 2 * q, -q - 1, -2)])  # m >= -m-q
            mirror = half[: n // 2][::-1]
            rows[k + q, q:] = np.concatenate([half, (-mirror if (k + q) % 2 else mirror) + 0.0])
        rows[:k] = (-rows[:k:-1, ::-1] if k % 2 else rows[:k:-1, ::-1]) + 0.0
    index.flags.writeable = False
    weight.flags.writeable = False
    return index, weight


def check_state_spin(j: HalfInteger) -> None:
    """Raise SpinTooLargeError for a state spin above ``MAX_STATE_SPIN``."""
    if j > MAX_STATE_SPIN:
        raise SpinTooLargeError(
            f"spin {j} exceeds supported maximum {MAX_STATE_SPIN} "
            f"(ranks up to 2j must stay within the Clebsch-Gordan cap {MAX_SPIN})")


def extract_tensors(rho: DensityMatrix) -> SphericalTensorSet:
    """All t^k_q = Tr(rho tau^k_q) for k = 0 .. 2j, as one gather over the tau table.

    The gather reads the Hermitian part (rho + rho^dagger)/2, as ``validate``
    does for its eigenvalues: a rounding-level anti-Hermitian part would
    break t^k_q* = (-1)^q t^k_-q, so the roots of a rank would no longer
    come in antipodal pairs.  An exactly Hermitian rho keeps every bit.
    """
    n = rho.j.twice
    check_state_spin(rho.j)
    index, weight = _tau_table(n)
    hermitian = 0.5 * (rho.matrix + rho.matrix.conj().T)
    flat = (np.ravel(hermitian)[index] * weight).sum(axis=1)
    ranks = tuple(flat[k * k: (k + 1) * (k + 1)] for k in range(n + 1))
    return SphericalTensorSet(rho.j, ranks)
