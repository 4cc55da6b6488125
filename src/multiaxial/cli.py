"""Command-line front end.

analyze   -- full multiaxial report for a state file (JSON or text)
compare   -- LU-equivalence verdict for two state files
generate  -- build a family state and write it as a state file
sweep     -- grid a family parameter, report PSD/PPT/class per point and
             bisect the sign-change boundaries
selftest  -- run the built-in example corpus
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

# Before numpy loads BLAS: the library's matrices (at most about 80 x 80) are
# too small to split across threads, so a thread pool only adds its start-up.
# A value already in the environment is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .angular import SpinTooLargeError
from .axes import AxisPairingError, DegenerateFitError
from .classify import (
    COHERENT_REASON,
    DEFAULT_TOLERANCES,
    Tolerances,
    class_signature,
    degeneracy_configuration,
    lu_equivalent,
    pure_separability_check,
    signature_from_tensors,
    _coherent_witness,
)
from .families import FAMILIES, FamilyParameterError, family_density
from .fano import extract_tensors
from .states import (
    PSD_TOL,
    DensityMatrix,
    StateFormatError,
    as_density,
    ppt_check,
    read_state,
    state_to_json,
    validate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2

#: Inputs the classifier cannot handle; reported on one line with exit 2.
CLASSIFIER_ERRORS = (SpinTooLargeError, AxisPairingError, DegenerateFitError)


def _angles_of(axis) -> dict:
    return {
        "theta_rad": axis.theta,
        "phi_rad": axis.phi,
        "theta_deg": math.degrees(axis.theta),
        "phi_deg": math.degrees(axis.phi),
    }


def build_report(rho: DensityMatrix, tolerances: Tolerances) -> dict:
    report = validate(rho)
    tensors = extract_tensors(rho)
    signature = signature_from_tensors(tensors, tolerances)

    tensor_table = [
        {"k": k, "q": q, "re": z.real, "im": z.imag}
        for k in range(tensors.max_rank + 1)
        for q, z in enumerate(tensors.rank_components(k).tolist(), -k)
    ]

    ranks = []
    for decomp in signature.ranks:
        item = {"k": decomp.k, "present": decomp.present, "r_k": decomp.r_k}
        if decomp.present:
            item["configuration"] = degeneracy_configuration(decomp).render()
            item["fit_residual"] = decomp.fit_residual
            item["axes"] = [
                {**_angles_of(axis), "multiplicity": mult} for axis, mult in decomp.axes
            ]
        ranks.append(item)

    if report.is_pure:
        verdict = _coherent_witness(rho)  # the decision of pure_separability_check
        separability = {
            "method": "pure-recipe",
            "separable": verdict.separable,
            "reason": verdict.reason,
        }
    else:
        ppt = ppt_check(rho)
        if ppt.applicable:
            separability = {
                "method": "ppt",
                "separable": not ppt.entangled,
                "reason": f"partial-transpose minimum eigenvalue "
                          f"{ppt.min_eigenvalue:.9e}",
            }
        else:
            separability = {
                "method": "undetermined",
                "separable": None,
                "reason": "mixed state with j != 1; no applicable test",
            }

    return {
        "j": str(rho.j),
        "purity": report.purity,
        "validation": {
            "hermiticity_defect": report.hermiticity_defect,
            "trace_defect": report.trace_defect,
            "min_eigenvalue": report.min_eigenvalue,
            "is_valid": report.is_valid,
            "is_pure": report.is_pure,
        },
        "tensors": tensor_table,
        "ranks": ranks,
        "signature": signature.render(),
        "fingerprint": {
            "r": {str(k): v for k, v in sorted(signature.r_values.items())},
            "pairwise_cosines": list(signature.pairwise),
        },
        "separability": separability,
    }


def render_text_report(doc: dict) -> str:
    lines = [
        f"j = {doc['j']}   purity = {doc['purity']:.9f}   "
        f"valid = {doc['validation']['is_valid']}",
        f"min eigenvalue = {doc['validation']['min_eigenvalue']:.3e}",
        "",
        "tensor components t^k_q:",
    ]
    for row in doc["tensors"]:
        if abs(row["re"]) > 1e-14 or abs(row["im"]) > 1e-14:
            lines.append(
                f"  t^{row['k']}_{row['q']:+d} = {row['re']:+.9f} "
                f"{row['im']:+.9f}i"
            )
    lines.append("")
    for item in doc["ranks"]:
        if not item["present"]:
            lines.append(f"rank {item['k']}: absent")
            continue
        head, tail = item["configuration"].split("_", 1)
        pretty = head + "_{" + tail + "}"
        lines.append(
            f"rank {item['k']}: r = {item['r_k']:.9f}   {pretty}   "
            f"residual = {item['fit_residual']:.2e}"
        )
        for axis in item["axes"]:
            lines.append(
                f"  axis x{axis['multiplicity']}: theta = "
                f"{axis['theta_deg']:9.4f} deg ({axis['theta_rad']:.6f} rad), "
                f"phi = {axis['phi_deg']:9.4f} deg ({axis['phi_rad']:.6f} rad)"
            )
    lines.append("")
    lines.append(f"signature: {doc['signature']}")
    sep = doc["separability"]
    lines.append(
        f"separability [{sep['method']}]: {sep['separable']} -- {sep['reason']}"
    )
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> int:
    """Write ``text`` to the file ``out``, or to stdout; EXIT_USAGE, with one
    error line, when ``out`` cannot be written."""
    if not out:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _tolerances(args) -> Tolerances:
    return Tolerances(zero=args.tol_zero, angle=args.tol_angle)


def cmd_analyze(args) -> int:
    try:
        state = read_state(args.state)
    except (OSError, StateFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rho = as_density(state)
    doc = build_report(rho, _tolerances(args))
    text = _json_dumps(doc) if args.format == "json" else render_text_report(doc)
    if _emit(text, args.out) != EXIT_OK:
        return EXIT_USAGE
    return EXIT_OK if doc["validation"]["is_valid"] else EXIT_VALIDATION


def cmd_compare(args) -> int:
    try:
        a = as_density(read_state(args.state_a))
        b = as_density(read_state(args.state_b))
    except (OSError, StateFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if a.j != b.j:
        print(f"error: spin mismatch j={a.j} vs j={b.j}", file=sys.stderr)
        return EXIT_USAGE
    for path, rho in ((args.state_a, a), (args.state_b, b)):
        failed = validate(rho).failed_test
        if failed is not None:
            print(f"error: {path} is not a valid state: {failed}", file=sys.stderr)
            return EXIT_VALIDATION
    result = lu_equivalent(a, b, _tolerances(args))
    doc = {"verdict": result.verdict, "reason": result.reason}
    if result.witness is not None:
        doc["witness_euler_zyz"] = {
            "alpha": result.witness.alpha,
            "beta": result.witness.beta,
            "gamma": result.witness.gamma,
        }
    return _emit(_json_dumps(doc), args.out)


def cmd_generate(args) -> int:
    try:
        with open(args.spec) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read family spec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(spec, dict):
        print(f"error: family spec must be a JSON object, got {type(spec).__name__}",
              file=sys.stderr)
        return EXIT_USAGE
    name = spec.get("family")
    try:
        rho, psd_ok, note = family_density(name, spec.get("params", {}))
    except (ValueError, TypeError) as exc:
        # FamilyParameterError and SpinTooLargeError are ValueErrors; params
        # that are not a JSON object can raise a TypeError
        print(_family_error(exc, name), file=sys.stderr)
        return EXIT_USAGE
    if not psd_ok:
        print(f"warning: {note}", file=sys.stderr)
    return _emit(_json_dumps(state_to_json(rho)), args.out)


def _family_error(exc: Exception, name) -> str:
    """The error line for a family that cannot be built, naming the family's
    valid ranges once (a missing-parameter message already names them)."""
    if not (isinstance(name, str) and name in FAMILIES):
        return f"error: {exc}"
    ranges = FAMILIES[name].ranges
    return f"error: {exc}" if ranges in str(exc) else f"error: {exc} (valid ranges: {ranges})"


def _parse_assignments(pairs: list[str]) -> dict:
    out = {}
    for item in pairs:
        key, _, value = item.partition("=")
        if not _:
            raise ValueError(f"expected name=value, got {item!r}")
        out[key] = float(value)
    return out


def _sweep_metrics(family: str, params: dict, reports: list[str],
                   tolerances: Tolerances):
    rho, _, _ = family_density(family, params)
    row = {}
    if "psd" in reports:
        row["min_eigenvalue"] = validate(rho).min_eigenvalue
    if "ppt" in reports:
        ppt = ppt_check(rho)
        row["ppt_min_eigenvalue"] = (
            ppt.min_eigenvalue if ppt.applicable else "undetermined"
        )
    if "class" in reports:
        row["class"] = class_signature(rho, tolerances).render()
    return row


def _bisect_boundary(evaluate, lo, hi, f_lo, tol=1e-6):
    """Refine the sign change of evaluate() between lo and hi to tol."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (evaluate(mid) >= 0.0) == (f_lo >= 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cmd_sweep(args) -> int:
    try:
        fixed = _parse_assignments(args.fix or [])
        name, _, spec = args.vary.partition("=")
        start, stop, steps = spec.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError(f"START and STOP must be finite, got {spec!r}")
        if steps < 2:
            raise ValueError("need at least 2 grid points")
        reports = [r.strip() for r in args.report.split(",") if r.strip()]
        if not set(reports) <= {"psd", "ppt", "class"}:
            raise ValueError(f"--report takes psd, ppt or class, got {args.report!r}")
    except ValueError as exc:
        print(f"error: bad sweep specification: {exc}", file=sys.stderr)
        return EXIT_USAGE
    tolerances = _tolerances(args)
    grid = np.linspace(start, stop, steps)

    rows = []
    try:
        for value in grid:
            metrics = _sweep_metrics(args.family, {**fixed, name: float(value)}, reports,
                                     tolerances)
            rows.append((float(value), metrics))
    except FamilyParameterError as exc:
        print(_family_error(exc, args.family), file=sys.stderr)
        return EXIT_USAGE

    boundaries = []
    for column, report in (("min_eigenvalue", "psd"), ("ppt_min_eigenvalue", "ppt")):
        values = [m.get(column) for _, m in rows]
        if any(not isinstance(v, float) for v in values):
            continue

        def signed(x, column=column, report=report):
            params = {**fixed, name: x}
            return _sweep_metrics(args.family, params, [report], tolerances)[column] - PSD_TOL

        for i in range(len(rows) - 1):
            f_lo = values[i] - PSD_TOL
            f_hi = values[i + 1] - PSD_TOL
            if (f_lo >= 0.0) != (f_hi >= 0.0):
                root = _bisect_boundary(signed, rows[i][0], rows[i + 1][0], f_lo)
                boundaries.append((column, root))

    fieldnames = ["row_type", name] + sorted(
        {key for _, m in rows for key in m}
    ) + ["boundary_of"]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    for value, metrics in rows:
        record = {"row_type": "grid", name: f"{value:.17g}"}
        for key, v in metrics.items():
            record[key] = f"{v:.17g}" if isinstance(v, float) else v
        writer.writerow(record)
    for column, root in boundaries:
        writer.writerow({
            "row_type": "boundary",
            name: f"{root:.17g}",
            "boundary_of": column,
        })
    return _emit(buffer.getvalue(), args.out)


def cmd_selftest(args) -> int:
    from .families import make_bell, make_coherent, make_ghz, make_w
    from .halfint import HalfInteger
    from .states import pure_to_density

    tolerances = Tolerances()
    checks = []

    sig3 = class_signature(pure_to_density(make_ghz(3)), tolerances)
    checks.append(("ghz-3 signature", sig3.render() == "{D^2_2, D^3_1,1,1}"))
    sig4 = class_signature(pure_to_density(make_ghz(4)), tolerances)
    checks.append(("ghz-4 signature", sig4.render() == "{D^2_2, D^4_2,2}"))
    bell = pure_to_density(make_bell())
    checks.append(("bell signature",
                   class_signature(bell, tolerances).render() == "{D^2_2}"))
    checks.append(("bell ppt entangled", ppt_check(bell).entangled))
    w = pure_to_density(make_w(3))
    checks.append(("w signature",
                   class_signature(w, tolerances).render()
                   == "{D^1_1, D^2_2, D^3_3}"))
    checks.append(("w not separable",
                   not pure_separability_check(w, tolerances).separable))
    coherent = pure_to_density(make_coherent(HalfInteger(6), 0.7, 1.3))
    checks.append(("coherent separable",
                   pure_separability_check(coherent, tolerances).reason == COHERENT_REASON))

    ok = True
    for label, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {label}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_VALIDATION


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit EXIT_USAGE, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _tolerance(text: str, positive: bool) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        raise argparse.ArgumentTypeError(
            f"must be a finite number {'>' if positive else '>='} 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="multiaxial",
        description="Multiaxial (per-rank axis) analysis of symmetric "
                    "N-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol-angle", type=lambda text: _tolerance(text, False),
                       default=DEFAULT_TOLERANCES.angle,
                       help="identical-axis / pairing threshold in radians (finite, >= 0)")
        p.add_argument("--tol-zero", type=lambda text: _tolerance(text, True),
                       default=DEFAULT_TOLERANCES.zero,
                       help="threshold below which a rank is absent (finite, > 0)")
        p.add_argument("--out", help="write output to this file")

    p = sub.add_parser("analyze", help="full report for one state file")
    p.add_argument("state")
    add_common(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="LU-equivalence verdict for two states")
    p.add_argument("state_a")
    p.add_argument("state_b")
    add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("generate", help="write a family state file")
    p.add_argument("spec", help='JSON file {"family": ..., "params": {...}}')
    p.add_argument("--out", help="output state file (default: stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="grid a family parameter")
    p.add_argument("--family", required=True)
    p.add_argument("--vary", required=True, metavar="NAME=START:STOP:STEPS")
    p.add_argument("--fix", action="append", metavar="NAME=VALUE",
                   help="hold another parameter fixed (repeatable)")
    p.add_argument("--report", default="psd,ppt,class",
                   help="comma list of psd, ppt, class")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("selftest", help="run the built-in example corpus")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CLASSIFIER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
