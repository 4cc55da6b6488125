"""A fixed set of compares, written and diffed across two trees.

Every input is built from seeds with numpy alone (``perfbench/inputs.py``
and the helpers below), so a library change cannot move the inputs.  The
sets:

- ``family``: aligned and Haar-turned GHZ, W, Dicke and coherent states at
  2j = 2..20, each against 4 turned copies (``default_rng(11)``);
- ``ghz-w``: GHZ against W at 2j = 2..20;
- ``majorana-rotated``: pure states with repeated Majorana points
  (``random_multiset`` seeds 0..149), tilted, against a turned copy;
- ``majorana-moved``: seeds 0..49 against a turned copy with one point
  moved by up to 0.01 rad;
- ``mixture``: 27 two- and three-coherent mixtures at 2j = 2..18
  (``default_rng(3)``), tilted, against a turned copy;
- ``isotropic``: one random mixed and one random pure state per 2j =
  2..20, twirled over the tetrahedral, octahedral and icosahedral rotation
  groups (``default_rng(21)``) and left in the group's frame, each against
  a turned copy and a turned mirror image (rho*);
- ``thermal``: exp(-beta n.J) / Tr at 2j = 2, 3, 5, 8, 10, 13, 16, 20 and
  11 beta log-spaced over 1e-7..1e-2, three random directions n each
  (``default_rng(5)``), against a turned copy.

Usage::

    python3 tools/fixed_set.py --write DIR [--src SRC]
    python3 tools/fixed_set.py --diff A B

``--write`` writes ``DIR/compares.json``: per case the verdict, the reason
and, for ``equivalent``, the witness residual max|R(rho_A) - rho_B| with R
built from the benchmark's own spin matrices.  It also writes
``DIR/analyses.json``: for the rho_A of every compare, for one random mixed
and one random pure state at each 2j = 1..20 (``default_rng(23)``), and for
the ``hermitian-defect`` set (one random mixed state at each 2j = 1..20,
``default_rng(29)``, plus an anti-Hermitian part a - a^dagger scaled to
1e-11 max-abs, inside the 1e-10 that ``validate`` accepts), and for the
``coherent`` set (|j j> at each 2j = 1..20 turned by z-y-z Euler angles
(1.0, beta, 0.3), beta in 1e-14, 1e-7, 0.7 and pi - 1e-7), the signature,
the report's ``separability`` block (method, separable, reason) and the
sha256 of ``json.dumps(build_report(...), sort_keys=True)``, or the
classifier error.  ``--src`` names the library's source directory
(default: ``src`` of this checkout), so one script writes the set for any
tree.  ``--diff A B`` prints the verdict changes and the reason-only
changes separately, then the residual changes at an unchanged verdict and
every ``equivalent`` of B whose residual exceeds 1e-10 (the library's
witness bound, ``classify.WITNESS_TOL``), then the signature changes, the
separability verdict changes, the separability reason-only changes and
the byte-only changes of the analyses; it exits 1 when there is a verdict
change, such a residual, a signature change or a separability verdict
change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

# one BLAS thread, as the command runs, set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave no cache files in perfbench/ or the --src tree
import inputs  # noqa: E402

WITNESS_BOUND = 1e-10


def random_points(rng, count: int):
    """``count`` random directions, no two closer than 0.05 rad as lines."""
    while True:
        points = rng.normal(size=(count, 3))
        points /= np.linalg.norm(points, axis=1)[:, None]
        if np.max(np.abs(points @ points.T)[np.triu_indices(count, 1)]) < math.cos(0.05):
            return points


def random_multiset(rng):
    """2-4 random directions with multiplicities 1..7 adding up to at most 20."""
    while True:
        mults = rng.integers(1, 8, size=rng.integers(2, 5))
        if mults.sum() <= 20:
            return random_points(rng, len(mults)), mults


def majorana_amplitudes(points, mults):
    """Amplitudes (m descending) of the pure state whose Majorana points are
    ``points``, point i repeated mults[i] times."""
    theta = np.arccos(np.clip(points[:, 2], -1.0, 1.0))
    z = np.tan(theta / 2.0) * np.exp(1j * np.arctan2(points[:, 1], points[:, 0]))
    twoj = int(sum(mults))
    power = np.arange(twoj + 1)
    coeffs = np.poly(np.repeat(z, mults))[::-1]  # ascending in Z
    binomials = np.sqrt([float(math.comb(twoj, int(p))) for p in power])
    amps = (coeffs / ((-1.0) ** power * binomials))[::-1]
    return amps / np.linalg.norm(amps)


#: (axis, fold) of two generators of each rotation group.
GROUP_GENERATORS = {
    "T": (((0.0, 0.0, 1.0), 2), ((1.0, 1.0, 1.0), 3)),
    "O": (((0.0, 0.0, 1.0), 4), ((1.0, 1.0, 1.0), 3)),
    "I": (((0.0, 1.0, (1.0 + math.sqrt(5.0)) / 2.0), 5), ((1.0, 1.0, 1.0), 3)),
}


def _spin_function(twoj: int, n, f):
    """f(n.J) for a unit vector n, from the benchmark's Jz and Jy
    (Jx = -i [Jy, Jz])."""
    jz, jy = inputs.spin_matrices(twoj)
    spins = np.array([-1j * (jy @ jz - jz @ jy), jy, jz])
    values, vectors = np.linalg.eigh(np.tensordot(n, spins, 1))
    return (vectors * f(values)) @ vectors.conj().T


def twirl(matrix, group: str):
    """sum_g D(g) rho D(g)^dagger / |G| over the rotation group ``group``,
    closed from its two generators, each element told apart by its 3 x 3
    rotation."""
    twoj = matrix.shape[0] - 1
    generators = []
    for axis, fold in GROUP_GENERATORS[group]:
        n = np.array(axis) / np.linalg.norm(axis)
        theta = 2.0 * math.pi / fold
        cross = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
        rot = np.eye(3) + math.sin(theta) * cross + (1.0 - math.cos(theta)) * cross @ cross
        generators.append((rot, _spin_function(twoj, n, lambda v: np.exp(-1j * theta * v))))
    elements = {}
    frontier = [(np.eye(3), np.eye(twoj + 1, dtype=complex))]
    while frontier:
        rot, u = frontier.pop()
        key = tuple(np.round(rot, 8).ravel() + 0.0)
        if key not in elements:
            elements[key] = u
            frontier += [(g_rot @ rot, g_u @ u) for g_rot, g_u in generators]
    return sum(inputs.rotate(matrix, u) for u in elements.values()) / len(elements)


def thermal(twoj: int, beta: float, n):
    """exp(-beta n.J) / Tr for a unit vector n."""
    rho = _spin_function(twoj, n, lambda v: np.exp(-beta * v))
    return rho / np.trace(rho).real


def _turn(rng, matrix):
    twoj = matrix.shape[0] - 1
    return inputs.rotate(matrix, inputs.rotation_matrix(twoj, *inputs.random_rotation(rng)))


def _projector(amps):
    return np.outer(amps, amps.conj())


def cases():
    """(name, rho_a, rho_b) for every compare of the fixed set, in order."""
    rng = np.random.default_rng(11)
    for family, make in inputs.DEGENERATE_FAMILIES.items():
        for twoj in range(2, 21):
            aligned = make(twoj).matrix
            for pose, base in (("aligned", aligned), ("turned", _turn(rng, aligned))):
                for copy in range(4):
                    yield f"family/{family}/2j={twoj}/{pose}/{copy}", base, _turn(rng, base)
    for twoj in range(2, 21):
        yield f"ghz-w/2j={twoj}", inputs.ghz(twoj).matrix, inputs.w_state(twoj).matrix
    for seed in range(150):
        rng = np.random.default_rng(seed)
        points, mults = random_multiset(rng)
        base = _turn(rng, _projector(majorana_amplitudes(points, mults)))
        yield f"majorana-rotated/{seed}", base, _turn(rng, base)
        if seed < 50:
            points[-1] += 0.01 * np.cross(points[-1], points[0])
            points[-1] /= np.linalg.norm(points[-1])
            moved = _projector(majorana_amplitudes(points, mults))
            yield f"majorana-moved/{seed}", base, _turn(rng, moved)
    rng = np.random.default_rng(3)
    for twoj in range(2, 19, 2):
        for index, count in enumerate((2, 3, 2)):
            weights = rng.dirichlet(np.ones(count))
            rho = sum(w * _projector(inputs.rotation_matrix(
                twoj, rng.uniform(0.0, 2.0 * math.pi), math.acos(rng.uniform(-1.0, 1.0)), 0.0)
                @ inputs.basis_state(twoj, 0)) for w in weights)
            base = _turn(rng, rho)
            yield f"mixture/2j={twoj}/{index}-{count}coherent", base, _turn(rng, base)
    rng = np.random.default_rng(21)
    for group in GROUP_GENERATORS:
        for twoj in range(2, 21):
            for kind, make in (("mixed", inputs.random_mixed), ("pure", inputs.random_pure)):
                base = twirl(make(rng, twoj).matrix, group)  # axes on the group's symmetry axes
                name = f"isotropic/{group}/{kind}/2j={twoj}"
                yield f"{name}/turned", base, _turn(rng, base)
                yield f"{name}/mirrored", base, _turn(rng, base.conj())
    rng = np.random.default_rng(5)
    for twoj in (2, 3, 5, 8, 10, 13, 16, 20):
        for beta in np.logspace(-7.0, -2.0, 11):
            for draw in range(3):
                n = rng.normal(size=3)
                base = thermal(twoj, float(beta), n / np.linalg.norm(n))
                yield f"thermal/2j={twoj}/beta={beta:.2e}/{draw}", base, _turn(rng, base)


def compare(lib, rho_a, rho_b) -> dict:
    twoj = rho_a.shape[0] - 1
    j = lib.halfint.HalfInteger(twoj)
    try:
        result = lib.classify.lu_equivalent(lib.states.DensityMatrix(j, rho_a),
                                            lib.states.DensityMatrix(j, rho_b))
    except lib.cli.CLASSIFIER_ERRORS as exc:  # the command's exit 2: a verdict here
        return {"verdict": f"error: {type(exc).__name__}", "reason": str(exc), "residual": None}
    residual = None
    if result.witness is not None:
        w = result.witness
        mapped = inputs.rotate(rho_a, inputs.rotation_matrix(twoj, w.alpha, w.beta, w.gamma))
        residual = float(np.max(np.abs(mapped - rho_b)))
    return {"verdict": result.verdict, "reason": result.reason, "residual": residual}


def analysis_states():
    """(name, rho) of every state the analyses cover, in order."""
    for name, rho_a, _ in cases():
        yield name, rho_a
    rng = np.random.default_rng(23)
    for twoj in range(1, 21):
        yield f"random/mixed/2j={twoj}", inputs.random_mixed(rng, twoj).matrix
        yield f"random/pure/2j={twoj}", inputs.random_pure(rng, twoj).matrix
    rng = np.random.default_rng(29)
    for twoj in range(1, 21):
        rho = inputs.random_mixed(rng, twoj).matrix
        a = rng.normal(size=rho.shape) + 1j * rng.normal(size=rho.shape)
        defect = a - a.conj().T
        yield f"hermitian-defect/2j={twoj}", rho + 1e-11 * defect / np.max(np.abs(defect))
    for twoj in range(1, 21):
        for beta in (1e-14, 1e-7, 0.7, math.pi - 1e-7):
            amps = inputs.rotation_matrix(twoj, 1.0, beta, 0.3) @ inputs.basis_state(twoj, 0)
            yield f"coherent/2j={twoj}/beta={beta:.10g}", _projector(amps)


def analyze(lib, rho) -> dict:
    j = lib.halfint.HalfInteger(rho.shape[0] - 1)
    try:
        report = lib.cli.build_report(lib.states.DensityMatrix(j, rho), lib.classify.DEFAULT_TOLERANCES)
    except lib.cli.CLASSIFIER_ERRORS as exc:  # the command's exit 2
        return {"error": f"{type(exc).__name__}: {exc}"}
    text = json.dumps(report, sort_keys=True)
    return {"signature": report["signature"], "separability": report["separability"],
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _dump(out_dir: str, filename: str, src: str, records: dict) -> None:
    with open(os.path.join(out_dir, filename), "w") as fh:
        json.dump({"src": os.path.abspath(src), "cases": records}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write(out_dir: str, src: str) -> None:
    sys.path.insert(0, src)
    import multiaxial.classify
    import multiaxial.cli
    import multiaxial.halfint
    import multiaxial.states

    os.makedirs(out_dir, exist_ok=True)
    start = time.perf_counter()
    records = {name: compare(multiaxial, rho_a, rho_b) for name, rho_a, rho_b in cases()}
    _dump(out_dir, "compares.json", src, records)
    verdicts = {}
    for record in records.values():
        verdicts[record["verdict"]] = verdicts.get(record["verdict"], 0) + 1
    print(f"{len(records)} compares in {time.perf_counter() - start:.1f} s: "
          + ", ".join(f"{v} {n}" for v, n in sorted(verdicts.items())))
    start = time.perf_counter()
    analyses = {name: analyze(multiaxial, rho) for name, rho in analysis_states()}
    _dump(out_dir, "analyses.json", src, analyses)
    errors = sum("error" in record for record in analyses.values())
    print(f"{len(analyses)} analyses in {time.perf_counter() - start:.1f} s: {errors} errors")


def _load(out_dir: str, filename: str = "compares.json") -> dict:
    with open(os.path.join(out_dir, filename)) as fh:
        return json.load(fh)["cases"]


def _label(record: dict) -> str:
    return record["signature"] if "signature" in record else f"error: {record['error']}"


def _separability(record: dict) -> dict:
    """The report's separability block; empty for an error."""
    return record.get("separability", {})


def diff_analyses(a: dict, b: dict) -> int:
    shared = [n for n in a if n in b]
    signature_changes = [n for n in shared if _label(a[n]) != _label(b[n])]
    separability_changes = [n for n in shared if _separability(a[n]).get("separable")
                            != _separability(b[n]).get("separable")]
    reason_changes = [n for n in shared if n not in separability_changes
                      and _separability(a[n]) != _separability(b[n])]
    byte_changes = [n for n in shared if n not in signature_changes
                    and n not in separability_changes and n not in reason_changes
                    and a[n].get("sha256") != b[n].get("sha256")]
    for label, names in (("analyses only in A", [n for n in a if n not in b]),
                         ("analyses only in B", [n for n in b if n not in a])):
        if names:
            print(f"{label}: {len(names)}\n" + "".join(f"  {n}\n" for n in names), end="")
    print(f"signature changes: {len(signature_changes)}")
    for n in signature_changes:
        print(f"  {n}:\n    A: {_label(a[n])}\n    B: {_label(b[n])}")
    print(f"separability verdict changes: {len(separability_changes)}")
    for n in separability_changes:
        sep_a, sep_b = _separability(a[n]), _separability(b[n])
        print(f"  {n}: {sep_a.get('separable')} -> {sep_b.get('separable')}\n"
              f"    A: {sep_a.get('reason')}\n    B: {sep_b.get('reason')}")
    print(f"separability reason-only changes: {len(reason_changes)}")
    for n in reason_changes:
        sep_a, sep_b = _separability(a[n]), _separability(b[n])
        print(f"  {n} [{sep_b.get('separable')}]:\n    A: {sep_a.get('reason')}\n"
              f"    B: {sep_b.get('reason')}")
    print(f"byte-only changes: {len(byte_changes)}")
    for n in byte_changes:
        print(f"  {n} [{_label(b[n])}]")
    return 1 if signature_changes or separability_changes else 0


def diff(dir_a: str, dir_b: str) -> int:
    a, b = _load(dir_a), _load(dir_b)
    shared = [n for n in a if n in b and a[n]["verdict"] == b[n]["verdict"]]
    verdict_changes = [n for n in a if n in b and n not in shared]
    reason_changes = [n for n in shared if a[n]["reason"] != b[n]["reason"]]
    residual_changes = [n for n in shared if a[n]["residual"] != b[n]["residual"]]
    loose = [n for n in b if b[n]["verdict"] == "equivalent"
             and (b[n]["residual"] is None or b[n]["residual"] > WITNESS_BOUND)]
    for label, names in (("only in A", [n for n in a if n not in b]),
                         ("only in B", [n for n in b if n not in a])):
        if names:
            print(f"{label}: {len(names)}\n" + "".join(f"  {n}\n" for n in names), end="")
    print(f"verdict changes: {len(verdict_changes)}")
    for n in verdict_changes:
        print(f"  {n}: {a[n]['verdict']} -> {b[n]['verdict']} ({b[n]['reason']})")
    print(f"reason-only changes: {len(reason_changes)}")
    for n in reason_changes:
        print(f"  {n} [{b[n]['verdict']}]:\n    A: {a[n]['reason']}\n    B: {b[n]['reason']}")
    print(f"witness residual changes at an unchanged verdict: {len(residual_changes)}")
    for n in residual_changes:
        print(f"  {n}: {a[n]['residual']} -> {b[n]['residual']}")
    print(f"equivalent in B with residual above {WITNESS_BOUND:g}: {len(loose)}")
    for n in loose:
        print(f"  {n}: {b[n]['residual']}")
    status = diff_analyses(_load(dir_a, "analyses.json"), _load(dir_b, "analyses.json"))
    return 1 if verdict_changes or loose or status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="DIR")
    group.add_argument("--diff", nargs=2, metavar=("A", "B"))
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the library's source directory (default: src of this checkout)")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    write(args.write, args.src)
    return 0


if __name__ == "__main__":
    sys.exit(main())
