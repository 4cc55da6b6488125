"""Seeded inputs for the benchmark, built without the library.

States are plain numpy arrays in the |j m> basis with m descending, the
library's convention.  Rotations use the benchmark's own spin matrices, so
the witness check in ``checks`` does not trust the code it is checking.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

#: Generic orientation for coherent (product) states.
COHERENT_THETA = 0.7
COHERENT_PHI = 1.3


@dataclass(frozen=True)
class StateInput:
    """One generated state: ``matrix`` is its density, ``amplitudes`` is set for pure states."""

    family: str
    twoj: int
    matrix: np.ndarray
    amplitudes: np.ndarray | None = None


def spin_matrices(twoj: int) -> tuple[np.ndarray, np.ndarray]:
    """(Jz, Jy) for spin j = twoj/2, rows and columns m = +j .. -j."""
    j = twoj / 2.0
    m = j - np.arange(twoj + 1)
    jz = np.diag(m).astype(complex)
    jp = np.zeros((twoj + 1, twoj + 1), dtype=complex)
    for i in range(twoj):
        mm = m[i + 1]
        jp[i, i + 1] = math.sqrt(j * (j + 1) - mm * (mm + 1))
    jy = (jp - jp.conj().T) / 2j
    return jz, jy


def rotation_matrix(twoj: int, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """U = exp(-i alpha Jz) exp(-i beta Jy) exp(-i gamma Jz), active z-y-z."""
    jz, jy = spin_matrices(twoj)
    m = np.real(np.diag(jz))
    evals, evecs = np.linalg.eigh(jy)
    uy = evecs @ np.diag(np.exp(-1j * beta * evals)) @ evecs.conj().T
    return np.diag(np.exp(-1j * alpha * m)) @ uy @ np.diag(np.exp(-1j * gamma * m))


def rotate(matrix: np.ndarray, u: np.ndarray) -> np.ndarray:
    return u @ matrix @ u.conj().T


def random_rotation(rng: np.random.Generator) -> tuple[float, float, float]:
    """Haar-uniform z-y-z Euler angles."""
    alpha = float(rng.uniform(0.0, 2.0 * math.pi))
    beta = float(math.acos(rng.uniform(-1.0, 1.0)))
    gamma = float(rng.uniform(0.0, 2.0 * math.pi))
    return alpha, beta, gamma


def _pure(family: str, twoj: int, amps: np.ndarray) -> StateInput:
    amps = amps / np.linalg.norm(amps)
    return StateInput(family, twoj, np.outer(amps, amps.conj()), amps)


def random_pure(rng: np.random.Generator, twoj: int) -> StateInput:
    d = twoj + 1
    return _pure("random-pure", twoj, rng.normal(size=d) + 1j * rng.normal(size=d))


def random_mixed(rng: np.random.Generator, twoj: int) -> StateInput:
    """Full-rank Ginibre state G G^dagger / Tr."""
    d = twoj + 1
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return StateInput("random-mixed", twoj, rho / np.trace(rho).real)


def basis_state(twoj: int, index: int) -> np.ndarray:
    amps = np.zeros(twoj + 1, dtype=complex)
    amps[index] = 1.0
    return amps


def ghz(twoj: int) -> StateInput:
    amps = np.zeros(twoj + 1, dtype=complex)
    amps[0] = amps[-1] = 1.0
    return _pure("ghz", twoj, amps)


def w_state(twoj: int) -> StateInput:
    """Dicke |j, -j + 1>: one excitation above the bottom."""
    return _pure("w", twoj, basis_state(twoj, twoj - 1))


def dicke_central(twoj: int) -> StateInput:
    """Dicke |j, 0> for integer j, |j, 1/2> for half-integer j."""
    return _pure("dicke", twoj, basis_state(twoj, twoj // 2))


def coherent(twoj: int) -> StateInput:
    """|j j> rotated onto (COHERENT_THETA, COHERENT_PHI)."""
    u = rotation_matrix(twoj, COHERENT_PHI, COHERENT_THETA, 0.0)
    return _pure("coherent", twoj, u @ basis_state(twoj, 0))


DEGENERATE_FAMILIES = {
    "ghz": ghz,
    "w": w_state,
    "dicke": dicke_central,
    "coherent": coherent,
}


# ---------------------------------------------------------------------------
# State files in the format the command line reads


def _j_text(twoj: int) -> str:
    return str(twoj // 2) if twoj % 2 == 0 else f"{twoj}/2"


def _entry(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def state_document(state: StateInput) -> dict:
    if state.amplitudes is not None:
        return {"j": _j_text(state.twoj), "basis": "jm_descending",
                "amplitudes": [_entry(a) for a in state.amplitudes]}
    return {"j": _j_text(state.twoj), "basis": "jm_descending",
            "matrix": [[_entry(z) for z in row] for row in state.matrix]}


def write_state_file(path, state: StateInput) -> None:
    with open(path, "w") as fh:
        json.dump(state_document(state), fh)
        fh.write("\n")

