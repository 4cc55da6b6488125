"""Symmetric N-qubit states in the |j m> basis (m descending).

Pure amplitude vectors and density matrices, rotation, validation, the
two-qubit product-basis embedding for j = 1 and the partial-transpose
entanglement test.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .angular import wigner_d_matrix
from .halfint import HalfInteger, dimension

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = -1e-10
NORM_TOL = 1e-10
#: |Tr(rho^2) - 1| up to which a state counts as pure.
PURITY_TOL = 1e-8
#: Looser bound for hand-authored files with decimal-rounded entries.
FILE_HERMITICITY_TOL = 1e-8


class StateFormatError(ValueError):
    """A state file is structurally or numerically malformed."""


@dataclass(frozen=True)
class EulerAngles:
    """z-y-z Euler angles in radians; any reals accepted."""

    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class PureState:
    """Spin-j pure state; amplitudes ordered m = +j .. -j."""

    j: HalfInteger
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (dimension(self.j),):
            raise ValueError(
                f"expected {dimension(self.j)} amplitudes for j={self.j}, "
                f"got {amps.shape}"
            )
        with np.errstate(over="ignore"):  # a huge amplitude reads as norm inf below
            norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: sum |a_m|^2 = {norm}")


@dataclass(frozen=True)
class DensityMatrix:
    """Spin-j density matrix; rows and columns ordered m = +j .. -j."""

    j: HalfInteger
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        dim = dimension(self.j)
        if mat.shape != (dim, dim):
            raise ValueError(
                f"expected {dim}x{dim} matrix for j={self.j}, got {mat.shape}"
            )


@dataclass(frozen=True)
class ValidationReport:
    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    purity: float

    @property
    def failed_test(self) -> str | None:
        """The first validation test failed, with its value and bound; None
        for a valid state."""
        if not self.hermiticity_defect <= HERMITICITY_TOL:
            return f"hermiticity defect {self.hermiticity_defect:.3e} > {HERMITICITY_TOL:g}"
        if not self.trace_defect <= TRACE_TOL:
            return f"trace defect {self.trace_defect:.3e} > {TRACE_TOL:g}"
        if not self.min_eigenvalue >= PSD_TOL:
            return f"minimum eigenvalue {self.min_eigenvalue:.3e} < {PSD_TOL:g}"
        return None

    @property
    def is_valid(self) -> bool:
        return self.failed_test is None

    @property
    def is_pure(self) -> bool:
        return abs(self.purity - 1.0) <= PURITY_TOL


def validate(rho: DensityMatrix) -> ValidationReport:
    mat = rho.matrix
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    trace = abs(complex(np.trace(mat)) - 1.0)
    sym = (mat + mat.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(sym)
    purity = float(np.real(np.trace(mat @ mat)))
    return ValidationReport(herm, trace, float(eigs[0]), purity)


def pure_to_density(psi: PureState) -> DensityMatrix:
    a = psi.amplitudes
    return DensityMatrix(psi.j, np.outer(a, a.conj()))


def rotate_pure(psi: PureState, angles: EulerAngles) -> PureState:
    u = wigner_d_matrix(psi.j, angles.alpha, angles.beta, angles.gamma)
    return PureState(psi.j, u @ psi.amplitudes)


def rotate_density(rho: DensityMatrix, angles: EulerAngles) -> DensityMatrix:
    u = wigner_d_matrix(rho.j, angles.alpha, angles.beta, angles.gamma)
    return DensityMatrix(rho.j, u @ rho.matrix @ u.conj().T)


def symmetric_to_two_qubit(rho: DensityMatrix) -> np.ndarray:
    """Embed a j = 1 density matrix into the two-qubit product basis.

    |1,1> -> |00>, |1,0> -> (|01> + |10>)/sqrt(2), |1,-1> -> |11>, so the
    embedding is an isometry onto the symmetric subspace.
    """
    if rho.j != HalfInteger.of(1):
        raise ValueError(f"two-qubit embedding requires j=1, got j={rho.j}")
    s = 1.0 / math.sqrt(2.0)
    # Columns: images of |1,1>, |1,0>, |1,-1> in basis |00>, |01>, |10>, |11>.
    v = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, s, 0.0],
            [0.0, s, 0.0],
            [0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )
    return v @ rho.matrix @ v.conj().T


@dataclass(frozen=True)
class PPTResult:
    min_eigenvalue: float
    entangled: bool
    applicable: bool = True


def ppt_two_qubit(rho4: np.ndarray) -> PPTResult:
    """Peres-Horodecki test: partial transpose on the second qubit.

    For two qubits a negative eigenvalue is equivalent to entanglement.
    """
    rho4 = np.asarray(rho4, dtype=complex)
    if rho4.shape != (4, 4):
        raise ValueError("expected a 4x4 two-qubit matrix")
    blocks = rho4.reshape(2, 2, 2, 2)
    pt = blocks.transpose(0, 3, 2, 1).reshape(4, 4)
    pt = (pt + pt.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(pt)[0])
    return PPTResult(min_eig, min_eig < PSD_TOL)


def ppt_check(rho: DensityMatrix) -> PPTResult:
    """PPT verdict for a symmetric state; only decidable at j = 1."""
    if rho.j != HalfInteger.of(1):
        return PPTResult(math.nan, False, applicable=False)
    return ppt_two_qubit(symmetric_to_two_qubit(rho))


# ---------------------------------------------------------------------------
# State file format


def _complex_to_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _complex_from_json(obj) -> complex:
    parts = (obj.get("re"), obj.get("im", 0.0)) if isinstance(obj, dict) else (obj, 0.0)
    # JSON numbers only: a bool is an int, and float() would read a string
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        raise StateFormatError(f"malformed complex entry: {obj!r}")
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except OverflowError as exc:  # an integer beyond the float range
        raise StateFormatError(f"malformed complex entry: {obj!r}") from exc
    if not cmath.isfinite(z):
        raise StateFormatError(f"non-finite complex entry: {obj!r}")
    return z


def state_to_json(state: PureState | DensityMatrix) -> dict:
    if isinstance(state, PureState):
        return {
            "j": str(state.j),
            "basis": "jm_descending",
            "amplitudes": [_complex_to_json(a) for a in state.amplitudes],
        }
    return {
        "j": str(state.j),
        "basis": "jm_descending",
        "matrix": [
            [_complex_to_json(z) for z in row] for row in state.matrix
        ],
    }


def _json_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise StateFormatError(f"{name} must be a JSON list, got {type(value).__name__}")
    return value


def state_from_json(doc: dict) -> PureState | DensityMatrix:
    if not isinstance(doc, dict):
        raise StateFormatError("state document must be a JSON object")
    try:
        j = HalfInteger.of(doc["j"])
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise StateFormatError(f"bad or missing 'j': {exc}") from exc
    if j.twice < 0:
        raise StateFormatError(f"bad 'j': {j} is negative")
    if doc.get("basis", "jm_descending") != "jm_descending":
        raise StateFormatError(f"unsupported basis {doc.get('basis')!r}")
    if "amplitudes" in doc:
        amps = np.array([_complex_from_json(a)
                         for a in _json_list(doc["amplitudes"], "amplitudes")])
        try:
            return PureState(j, amps)
        except ValueError as exc:
            raise StateFormatError(str(exc)) from exc
    if "matrix" in doc:
        rows = [[_complex_from_json(z) for z in _json_list(row, "matrix row")]
                for row in _json_list(doc["matrix"], "matrix")]
        if any(len(row) != len(rows) for row in rows):
            raise StateFormatError("matrix must be square")
        mat = np.array(rows, dtype=complex).reshape(len(rows), len(rows))
        try:
            rho = DensityMatrix(j, mat)
        except ValueError as exc:
            raise StateFormatError(str(exc)) from exc
        with np.errstate(over="ignore"):  # a huge entry reads as size inf below
            size = float(np.sum(np.abs(mat) ** 2))
        if not math.isfinite(size):
            # the purity, the eigensolvers and the fit would overflow on it
            raise StateFormatError(f"matrix entries too large: sum |rho_mn|^2 = {size}")
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        if herm > FILE_HERMITICITY_TOL:
            raise StateFormatError(
                f"matrix is not Hermitian (defect {herm:.3e} > "
                f"{FILE_HERMITICITY_TOL:g})"
            )
        return rho
    raise StateFormatError("state document needs 'amplitudes' or 'matrix'")


def write_state(path, state: PureState | DensityMatrix) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_json(state), fh, indent=2)
        fh.write("\n")


def read_state(path) -> PureState | DensityMatrix:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StateFormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                                   f"column {exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise StateFormatError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    return state_from_json(doc)


def as_density(state: PureState | DensityMatrix) -> DensityMatrix:
    if isinstance(state, PureState):
        return pure_to_density(state)
    return state
