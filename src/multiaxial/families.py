"""Constructors for the standard state families used in the analysis.

Dicke basis states, GHZ, coherent (aligned product) states, and the
uniaxial / biaxial / triaxial spin-1 mixed families with their
positive-semidefiniteness domains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .fano import check_state_spin
from .halfint import HalfInteger, basis_index, dimension
from .states import (
    PSD_TOL,
    DensityMatrix,
    EulerAngles,
    PureState,
    pure_to_density,
    rotate_pure,
    validate,
)

SQRT32 = math.sqrt(1.5)
UNIAXIAL_PSD_MAX = math.sqrt(2.0 / 3.0)


class FamilyParameterError(ValueError):
    """Family parameters are missing, unknown or outside their hard domain."""


def make_dicke(j, m) -> PureState:
    j = HalfInteger.of(j)
    m = HalfInteger.of(m)
    if abs(m.twice) > j.twice:
        raise FamilyParameterError(f"|m|={m} exceeds j={j}")
    if (j.twice - m.twice) % 2:
        raise FamilyParameterError(f"m={m} incompatible with j={j}: j - m must be an integer")
    amps = np.zeros(dimension(j), dtype=complex)
    amps[basis_index(j, m)] = 1.0
    return PureState(j, amps)


def make_ghz(n_qubits: int) -> PureState:
    if n_qubits < 2:
        raise FamilyParameterError("GHZ needs at least 2 qubits")
    j = HalfInteger(n_qubits)  # j = N/2
    amps = np.zeros(dimension(j), dtype=complex)
    s = 1.0 / math.sqrt(2.0)
    amps[0] = s
    amps[-1] = s
    return PureState(j, amps)


def make_w(n_qubits: int = 3) -> PureState:
    """Single-excitation-from-the-bottom Dicke state |j, -j + 1>."""
    if n_qubits < 2:
        raise FamilyParameterError("W needs at least 2 qubits")
    j = HalfInteger(n_qubits)
    return make_dicke(j, HalfInteger(-j.twice + 2))


def make_bell() -> PureState:
    return make_dicke(1, 0)


def make_coherent(j, theta: float, phi: float) -> PureState:
    """All 2j spinors aligned along (theta, phi): the rotated |j j>."""
    aligned = make_dicke(j, j)
    return rotate_pure(aligned, EulerAngles(phi, theta, 0.0))


@dataclass(frozen=True)
class FamilyState:
    """A constructed family member plus its domain flags."""

    rho: DensityMatrix
    psd_ok: bool
    note: str = ""


def make_uniaxial(r1: float, theta1: float, phi1: float) -> FamilyState:
    """Purely vector-polarized spin-1 state with a single axis at (theta1, phi1)."""
    if r1 <= 0.0:
        raise FamilyParameterError("uniaxial requires r1 > 0")
    c = SQRT32 * r1 * math.cos(theta1)
    off = (math.sqrt(3.0) / 2.0) * r1 * math.sin(theta1) * np.exp(-1j * phi1)
    mat = (
        np.array(
            [
                [1.0 + c, off, 0.0],
                [np.conj(off), 1.0, off],
                [0.0, np.conj(off), 1.0 - c],
            ],
            dtype=complex,
        )
        / 3.0
    )
    rho = DensityMatrix(HalfInteger.of(1), mat)
    psd_ok = r1 <= UNIAXIAL_PSD_MAX + 1e-12
    note = "" if psd_ok else f"r1={r1:g} outside PSD range (0, sqrt(2/3)]"
    return FamilyState(rho, psd_ok, note)


def make_biaxial(r2: float, theta: float) -> FamilyState:
    """Purely tensor-polarized spin-1 state: the triaxial state at r1 = 0."""
    return _aligned_spin1(0.0, r2, theta, "biaxial", f"r2={r2:g}, theta={theta:g}")


def make_triaxial(r1: float, r2: float, theta: float) -> FamilyState:
    """Vector plus tensor polarization: z-axis for rank 1, tilted pair for rank 2."""
    return _aligned_spin1(r1, r2, theta, "triaxial", f"r1={r1:g}, r2={r2:g}, theta={theta:g}")


def _aligned_spin1(r1: float, r2: float, theta: float, family: str, label: str) -> FamilyState:
    """Spin-1 state with vector polarization r1 on z and tensor polarization r2
    in its principal alignment frame, axes {(theta, 0), (theta, pi)}; the corner
    diagonal entries both carry the (1 + cos^2 theta) factor, which the trace
    and the stated tensor components force.  ``label`` names the parameters in
    the note of a state that is not PSD."""
    if r2 <= 0.0:
        raise FamilyParameterError(f"{family} requires r2 > 0")
    c = SQRT32 * r1
    diag = r2 * (1.0 + math.cos(theta) ** 2) / (2.0 * math.sqrt(3.0))
    corner = -(math.sqrt(3.0) / 2.0) * r2 * math.sin(theta) ** 2
    mat = np.array([[1.0 + c + diag, 0.0, corner],
                    [0.0, 1.0 - 2.0 * diag, 0.0],
                    [corner, 0.0, 1.0 - c + diag]], dtype=complex) / 3.0
    rho = DensityMatrix(HalfInteger.of(1), mat)
    min_eigenvalue = validate(rho).min_eigenvalue
    psd_ok = min_eigenvalue >= PSD_TOL
    note = "" if psd_ok else (
        f"{label} not positive semi-definite (min eigenvalue {min_eigenvalue:.3e})"
    )
    return FamilyState(rho, psd_ok, note)


# ---------------------------------------------------------------------------
# FamilySpec: {"family": "...", "params": {...}}


def _real(params: dict, name: str) -> float:
    try:
        value = float(params[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise FamilyParameterError(f"parameter {name!r} must be a number, "
                                   f"got {params[name]!r}") from exc
    if not math.isfinite(value):
        raise FamilyParameterError(f"parameter {name!r} must be finite, got {value}")
    return value


def _integer(params: dict, name: str) -> int:
    value = _real(params, name)
    if value != int(value):
        raise FamilyParameterError(f"parameter {name!r} must be an integer, got {value:g}")
    return int(value)


def _half_integer(params: dict, name: str) -> HalfInteger:
    try:
        return HalfInteger.of(params[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise FamilyParameterError(f"parameter {name!r} must be a half-integer, "
                                   f"got {params[name]!r}") from exc


def _spin(params: dict, name: str) -> HalfInteger:
    value = _half_integer(params, name)
    if value.twice < 1:
        raise FamilyParameterError(f"parameter {name!r} must be at least 1/2, got {value}")
    return value


class Family(NamedTuple):
    """Parameter parsers by name in constructor order, valid ranges, constructor."""

    params: dict
    ranges: str
    build: Callable[..., PureState | FamilyState]


FAMILIES = {
    "dicke": Family({"j": _spin, "m": _half_integer},
                    "j half-integer, 1/2 <= j <= 10, |m| <= j", make_dicke),
    "ghz": Family({"N": _integer}, "N integer, 2 <= N <= 20", make_ghz),
    "w": Family({"N": _integer}, "N integer, 2 <= N <= 20", make_w),
    "bell": Family({}, "no parameters", make_bell),
    "separable_coherent": Family({"j": _spin, "theta": _real, "phi": _real},
                                 "j half-integer, 1/2 <= j <= 10; theta/phi finite radians",
                                 make_coherent),
    "uniaxial": Family({"r1": _real, "theta1": _real, "phi1": _real},
                       "0 < r1 <= sqrt(2/3) for PSD; theta1, phi1 finite radians",
                       make_uniaxial),
    "biaxial": Family({"r2": _real, "theta": _real},
                      "0 < r2 <= sqrt(3); theta finite radians (PSD range depends on r2)",
                      make_biaxial),
    "triaxial": Family({"r1": _real, "r2": _real, "theta": _real},
                       "r1 finite, 0 < r2; theta finite radians (PSD checked post-construction)",
                       make_triaxial),
}


def build_family(name: str, params: dict) -> PureState | FamilyState:
    if not isinstance(name, str) or name not in FAMILIES:
        raise FamilyParameterError(
            f"unknown family {name!r}; expected one of {sorted(FAMILIES)}"
        )
    family = FAMILIES[name]
    missing = [p for p in family.params if p not in params]
    if missing:
        raise FamilyParameterError(
            f"family {name!r} missing parameters {missing}; ranges: {family.ranges}"
        )
    unknown = [p for p in params if p not in family.params]
    if unknown:
        raise FamilyParameterError(
            f"family {name!r} got unknown parameters {unknown}"
        )
    return family.build(*(parse(params, p) for p, parse in family.params.items()))


def family_density(name: str, params: dict) -> tuple[DensityMatrix, bool, str]:
    """Construct a family member as a density matrix with PSD flag and note;
    a member whose spin is above the cap raises ``SpinTooLargeError``."""
    built = build_family(name, params)
    if isinstance(built, PureState):
        built = FamilyState(pure_to_density(built), True)
    check_state_spin(built.rho.j)
    return built.rho, built.psd_ok, built.note
