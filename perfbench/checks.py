"""Correctness checks for every operation the benchmark times.

Each check returns ``None`` for a correct answer or a ``Failure`` naming
why it is wrong.  Expected answers come from the structure of the input
(generic random states have all-distinct axes, a rotated copy is
equivalent, a coherent state is separable) and from the benchmark's own
linear algebra, never from the code under test.  Command-line output is
also compared with the in-process result for the same input.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from inputs import StateInput, rotation_matrix, rotate

WRONG_CLASS = "wrong-class"
WRONG_VERDICT = "wrong-verdict"
WRONG_OUTPUT = "wrong-output"
RAISED = "raised"
TIME_LIMIT = "time-limit"

WITNESS_TOL = 1e-6
NUMBER_RTOL = 1e-9


@dataclass(frozen=True)
class Failure:
    reason: str
    detail: str


def generic_signature(twoj: int) -> str:
    """Class signature of a state whose every rank has k distinct axes."""
    parts = [f"D^{k}_" + ",".join(["1"] * k) for k in range(1, twoj + 1)]
    return "{" + ", ".join(parts) + "}"


def ppt_separable(matrix: np.ndarray) -> bool:
    """Peres-Horodecki verdict for a spin-1 state embedded in two qubits."""
    s = 1.0 / math.sqrt(2.0)
    v = np.array([[1, 0, 0], [0, s, 0], [0, s, 0], [0, 0, 1]], dtype=complex)
    rho4 = (v @ matrix @ v.conj().T).reshape(2, 2, 2, 2)
    pt = rho4.transpose(0, 3, 2, 1).reshape(4, 4)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)[0]) >= -1e-10


def check_report(doc: dict, state: StateInput) -> Failure | None:
    """An ``analyze`` report of a random (generic) state."""
    m = state.matrix
    twoj = state.twoj
    purity = float(np.real(np.trace(m @ m)))
    if not abs(doc["purity"] - purity) <= 1e-9:
        return Failure(WRONG_OUTPUT, f"purity {doc['purity']!r}, expected {purity!r}")
    validation = doc["validation"]
    if not validation["is_valid"] or validation["is_pure"] != (state.amplitudes is not None):
        return Failure(WRONG_OUTPUT, f"validation {validation}")
    rows = doc["tensors"]
    if len(rows) != (twoj + 1) ** 2:
        return Failure(WRONG_OUTPUT, f"{len(rows)} tensor components")
    t00 = complex(rows[0]["re"], rows[0]["im"])
    parseval = sum(r["re"] ** 2 + r["im"] ** 2 for r in rows) / (twoj + 1)
    if not (abs(t00 - 1.0) <= 1e-10 and abs(parseval - purity) <= 1e-9):
        return Failure(WRONG_OUTPUT, f"t^0_0 = {t00}, sum |t|^2/(2j+1) = {parseval!r} "
                                     f"vs purity {purity!r}")

    expected = generic_signature(twoj)
    if doc["signature"] != expected:
        return Failure(WRONG_CLASS, f"signature {doc['signature']}, expected {expected}")
    for item in doc["ranks"]:
        axes = item.get("axes", [])
        if (not item["present"] or not item["r_k"] > 0.0 or len(axes) != item["k"]
                or any(a["multiplicity"] != 1 for a in axes)):
            return Failure(WRONG_CLASS, f"rank {item['k']} entry {item.get('configuration')}")
    n_axes = twoj * (twoj + 1) // 2
    if len(doc["fingerprint"]["pairwise_cosines"]) != n_axes * (n_axes - 1) // 2:
        return Failure(WRONG_OUTPUT, "pairwise invariant count")

    sep = doc["separability"]
    if state.amplitudes is not None:
        want = ("pure-recipe", False)
    elif twoj == 2:
        want = ("ppt", ppt_separable(m))
    else:
        want = ("undetermined", None)
    if (sep["method"], sep["separable"]) != want:
        return Failure(WRONG_VERDICT, f"separability {sep}, expected {want}")
    return None


def check_witness(verdict: str, witness, a: np.ndarray, b: np.ndarray,
                  twoj: int) -> Failure | None:
    """``a`` and ``b`` are rotated copies, so the verdict must be equivalent
    and the witness (alpha, beta, gamma) must map ``a`` onto ``b``."""
    if verdict != "equivalent":
        return Failure(WRONG_VERDICT, f"verdict {verdict}, expected equivalent")
    mapped = rotate(a, rotation_matrix(twoj, *witness))
    err = float(np.max(np.abs(mapped - b)))
    if not err <= WITNESS_TOL:
        return Failure(WRONG_VERDICT, f"witness misses by {err:.3e}")
    return None


def check_separable(separable: bool, applicable: bool, reason: str) -> Failure | None:
    """A coherent state is a product state."""
    if applicable and separable:
        return None
    return Failure(WRONG_VERDICT, f"coherent state reported not separable: {reason}")


# ---------------------------------------------------------------------------
# Command-line output against the in-process result


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= NUMBER_RTOL * max(1.0, abs(x), abs(y))


def first_difference(got, want, path: str = "") -> str | None:
    """Where two JSON documents differ (numbers to a relative 1e-9), or None."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return None if got == want else f"{path}: {got!r} != {want!r}"
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)) or not _close(got, want):
            return f"{path}: {got!r} != {want!r}"
        return None
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for key in sorted(want):
            diff = first_difference(got[key], want[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if not isinstance(got, list) or len(got) != len(want):
        return f"{path}: lengths differ"
    for i, (g, w) in enumerate(zip(got, want)):
        diff = first_difference(g, w, f"{path}[{i}]")
        if diff:
            return diff
    return None


def check_against_reference(got: dict, want: dict) -> Failure | None:
    diff = first_difference(got, want)
    if diff is None:
        return None
    if got.get("signature") != want.get("signature"):
        return Failure(WRONG_CLASS, diff)
    if got.get("verdict") != want.get("verdict") or got.get("separability") != want.get("separability"):
        return Failure(WRONG_VERDICT, diff)
    return Failure(WRONG_OUTPUT, diff)


def parse_csv(text: str) -> list[dict]:
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        rows.append({k: _number_or_text(v) for k, v in row.items()})
    return rows


def _number_or_text(value: str):
    try:
        return float(value)
    except ValueError:
        return value


def check_sweep(got_text: str, want_text: str, vary: str,
                boundaries: dict[str, float]) -> Failure | None:
    """Sweep CSV equals the in-process CSV and finds the known boundaries."""
    got = parse_csv(got_text)
    diff = first_difference(got, parse_csv(want_text))
    if diff:
        return Failure(WRONG_OUTPUT, diff)
    found = {r["boundary_of"]: r[vary] for r in got if r["row_type"] == "boundary"}
    for column, value in boundaries.items():
        if column not in found or not abs(found[column] - value) <= 1e-5:
            return Failure(WRONG_VERDICT, f"{column} boundary {found.get(column)}, "
                                          f"expected {value}")
    return None
