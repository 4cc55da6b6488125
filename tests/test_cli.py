"""End-to-end exercises of the command-line interface."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import multiaxial
from multiaxial import classify, cli
from multiaxial.axes import DegenerateFitError
from multiaxial.cli import build_report, main
from multiaxial.families import FAMILIES, make_coherent, make_ghz, make_w
from multiaxial.halfint import HalfInteger
from multiaxial.states import (
    DensityMatrix,
    EulerAngles,
    PureState,
    pure_to_density,
    read_state,
    rotate_pure,
    write_state,
)
from test_properties import majorana_state, random_points


@pytest.fixture
def ghz3_file(tmp_path):
    path = tmp_path / "ghz3.json"
    write_state(path, pure_to_density(make_ghz(3)))
    return str(path)


@pytest.fixture
def ghz21_file(tmp_path):
    # j = 21/2: above the spin cap j <= 10
    path = tmp_path / "ghz21.json"
    write_state(path, make_ghz(21))
    return str(path)


def _one_spin_cap_error(err: str) -> bool:
    return (err.count("\n") == 1 and err.startswith("error: ")
            and "spin 21/2 exceeds supported maximum 10" in err)


@pytest.fixture
def w_file(tmp_path):
    path = tmp_path / "w.json"
    write_state(path, make_w(3))
    return str(path)


class TestAnalyze:
    def test_ghz3_report(self, ghz3_file, capsys):
        assert main(["analyze", ghz3_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["signature"] == "{D^2_2, D^3_1,1,1}"
        assert doc["j"] == "3/2"
        assert doc["purity"] == pytest.approx(1.0, abs=1e-10)
        assert doc["separability"]["method"] == "pure-recipe"
        assert doc["separability"]["separable"] is False

    def test_w_report(self, w_file, capsys):
        assert main(["analyze", w_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["signature"] == "{D^1_1, D^2_2, D^3_3}"
        assert doc["separability"]["separable"] is False

    def test_maximally_mixed(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        write_state(path, DensityMatrix(HalfInteger.of(1), np.eye(3) / 3.0))
        assert main(["analyze", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["signature"] == "{}"
        assert all(not r["present"] for r in doc["ranks"])

    def test_mixed_higher_spin_separability_undetermined(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        write_state(path, DensityMatrix(HalfInteger(3), np.diag([0.4, 0.3, 0.2, 0.1])))
        assert main(["analyze", str(path)]) == 0
        separability = json.loads(capsys.readouterr().out)["separability"]
        assert separability["method"] == "undetermined"
        assert separability["separable"] is None

    def test_deterministic_output(self, ghz3_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["analyze", ghz3_file, "--out", str(out1)])
        main(["analyze", ghz3_file, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_text_format(self, ghz3_file, capsys):
        assert main(["analyze", ghz3_file, "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert "{D^2_2, D^3_1,1,1}" in text
        assert "D^3_{1,1,1}" in text

    def test_parse_error_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 1

    def test_validation_failure_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nonpsd.json"
        mat = np.diag([1.4, 0.1, -0.5]).astype(complex)
        path.write_text(json.dumps({
            "j": "1",
            "matrix": [[{"re": float(z.real), "im": 0.0} for z in row]
                       for row in mat],
        }))
        assert main(["analyze", str(path)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["validation"]["is_valid"] is False

    @pytest.mark.parametrize("diagonal, entry, signature", [
        ((0.5, 0.3, 0.2), (0, 1), "{D^1_1, D^2_2}"),
        ((0.4, 0.2, 0.2, 0.1, 0.1), (0, 2), "{D^1_1, D^2_1,1, D^3_1,1,1, D^4_2,1,1}"),
    ], ids=["spin-1", "spin-2"])
    def test_anti_hermitian_defect_classifies_hermitian_part(self, tmp_path, capsys,
                                                             diagonal, entry, signature):
        # one off-diagonal 1e-11 without its mirror: a valid state whose
        # anti-Hermitian part, were it read, would break the antipodal
        # pairing of the roots
        j = HalfInteger(len(diagonal) - 1)
        mat = np.diag(diagonal).astype(complex)
        mat[entry] = 1e-11
        path = str(tmp_path / "defect.json")
        write_state(path, DensityMatrix(j, mat))
        assert main(["analyze", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["validation"]["is_valid"] is True
        assert doc["validation"]["hermiticity_defect"] == 1e-11
        hermitian = DensityMatrix(j, 0.5 * (mat + mat.conj().T))
        assert doc["signature"] == signature == classify.class_signature(hermitian).render()
        assert main(["compare", path, path]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "equivalent"

    def test_spin_above_cap_exit_2(self, ghz21_file, capsys):
        assert main(["analyze", ghz21_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _one_spin_cap_error(captured.err)

    def test_non_finite_state_file_exit_1(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"j": "1", "matrix": [[NaN, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]}')
        assert main(["analyze", str(path)]) == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("text", [
        '{"j": true, "amplitudes": [1, 0]}',
        '{"j": null, "amplitudes": [1, 0]}',
        '{"j": [1], "amplitudes": [1, 0]}',
        '{"j": 1e999, "amplitudes": [1, 0]}',
        '{"j": "1", "matrix": [[1, 0, 0], [0, 0], [0, 0, 0]]}',
        '{"j": "1", "matrix": 5}',
        '{"j": "1", "matrix": [1, 2, 3]}',
        '{"j": "1/2", "amplitudes": 5}',
        '{"j": "1/2", "amplitudes": {"re": 1}}',
        '{"j": "1/2", "amplitudes": [{"re": "abc"}, 0]}',
        '{"j": "1/2", "amplitudes": [1' + "0" * 400 + ', 0]}',
        '\xff\xfe{"j": "1/2", "amplitudes": [1, 0]}',
        '{"j": "1/2", "amplitudes": [{"re": true}, 0]}',
        '{"j": "1/2", "amplitudes": [{"re": "1"}, 0]}',
        '{"j": "1/2", "amplitudes": [true, 0]}',
        '{"j": "1/2", "matrix": [[true, 0], [0, false]]}',
    ], ids=["j-bool", "j-null", "j-list", "j-infinite", "ragged-matrix", "matrix-number",
            "matrix-of-numbers", "amplitudes-number", "amplitudes-object", "entry-string",
            "entry-overflow", "not-utf8", "entry-re-bool", "entry-re-numeric-string",
            "entry-bool", "matrix-entry-bool"])
    def test_malformed_state_file_one_error_line_exit_1(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text.encode("latin-1"))
        assert main(["analyze", str(path)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("flag, value", [
        ("--tol-angle", "-1"), ("--tol-angle", "nan"), ("--tol-angle", "inf"),
        ("--tol-angle", "abc"), ("--tol-zero", "nan"), ("--tol-zero", "-1"), ("--tol-zero", "0"),
    ])
    def test_bad_tolerance_named_exit_1(self, ghz3_file, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", ghz3_file, f"{flag}={value}"])
        assert exc.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument {flag}: " in captured.err

    def test_zero_angle_tolerance_accepted(self, ghz3_file, capsys):
        assert main(["analyze", ghz3_file, "--tol-angle=0"]) == 0
        assert json.loads(capsys.readouterr().out)["signature"] == "{D^2_2, D^3_1,1,1}"

    def test_usage_error_exit_1(self, capsys):
        for argv in (["analyze"], ["analyze", "x.json", "--bogus"], ["frobnicate"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == cli.EXIT_USAGE
        assert "usage:" in capsys.readouterr().err


class TestOnePass:
    def test_pure_report_extracts_and_solves_once(self, monkeypatch):
        rng = np.random.default_rng(41)
        psi = rng.normal(size=7) + 1j * rng.normal(size=7)
        psi /= np.linalg.norm(psi)
        rho = DensityMatrix(HalfInteger(6), np.outer(psi, psi.conj()))
        tolerances = classify.Tolerances()
        calls = {"extract_tensors": 0, "solve_all_axes": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module in (cli, classify):
            counting(module, "extract_tensors")
        counting(classify, "solve_all_axes")
        doc = build_report(rho, tolerances)
        assert doc["separability"]["method"] == "pure-recipe"
        assert calls == {"extract_tensors": 1, "solve_all_axes": 1}

    def test_pure_verdict_matches_standalone_check(self):
        for rho in (pure_to_density(make_ghz(3)), pure_to_density(make_w(4)),
                    pure_to_density(make_coherent(HalfInteger(5), 0.7, 1.3)),
                    # the recipe alone misreads it; both must take the witness
                    pure_to_density(make_coherent(HalfInteger(20), math.pi - 1e-7, 0.0))):
            doc = build_report(rho, classify.Tolerances())
            verdict = classify.pure_separability_check(rho)
            assert doc["separability"] == {"method": "pure-recipe",
                                           "separable": verdict.separable,
                                           "reason": verdict.reason}


def _near_coherent_16() -> DensityMatrix:
    """A pure 2j = 16 state within 1e-10 of a coherent state whose <J> lies
    0.104 rad from -z: D(R)|j j> + eps d/|d|, normalised, with Haar z-y-z
    angles R and a complex normal d.  It is draw 1 at (2j, eps) = (16,
    1e-10) of a probe that runs default_rng(7) over 2j in (2, 5, 10, 16,
    20), eps in (1e-12, 1e-10, 1e-9, ..., 1e-5) and four draws each."""
    rng = np.random.default_rng(7)
    for twice_j in (2, 5, 10, 16):
        for eps in (1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5):
            for draw in range(4):
                angles = EulerAngles(rng.uniform(0.0, 2.0 * math.pi),
                                     math.acos(rng.uniform(-1.0, 1.0)),
                                     rng.uniform(0.0, 2.0 * math.pi))
                d = rng.normal(size=twice_j + 1) + 1j * rng.normal(size=twice_j + 1)
                if (twice_j, eps, draw) == (16, 1e-10, 1):
                    j = HalfInteger(twice_j)
                    top = np.eye(twice_j + 1, 1, dtype=complex)[:, 0]  # |j j>
                    amps = rotate_pure(PureState(j, top), angles).amplitudes
                    amps = amps + eps * d / np.linalg.norm(d)
                    return pure_to_density(PureState(j, amps / np.linalg.norm(amps)))
    raise AssertionError("the probe never reached its draw")


class TestNearCoherentPin:
    """At ranks 10-12 of this state every root is ill conditioned and one is
    trimmed to z (ROADMAP item 8): the witness reads it, the signature
    cannot."""

    def test_witness_reads_separable(self):
        assert classify.pure_separability_check(_near_coherent_16()) == \
            classify.SeparabilityVerdict(True, True, classify.COHERENT_REASON)

    @pytest.mark.xfail(strict=True, raises=DegenerateFitError,
                       reason="rank 11 leaves a fit residual of 6.31e-12 above its gate")
    def test_report_signs_it(self):
        doc = build_report(_near_coherent_16(), classify.Tolerances())
        assert doc["separability"]["separable"]


class TestCompare:
    def test_equivalent_rotated(self, ghz3_file, tmp_path, capsys):
        from multiaxial.states import EulerAngles, rotate_density
        rot = rotate_density(pure_to_density(make_ghz(3)),
                             EulerAngles(0.3, 1.0, -0.6))
        other = tmp_path / "rot.json"
        write_state(other, rot)
        assert main(["compare", ghz3_file, str(other)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "equivalent"
        assert "witness_euler_zyz" in doc

    def test_inequivalent(self, ghz3_file, w_file, capsys):
        assert main(["compare", ghz3_file, w_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "inequivalent"

    def test_chiral_pair_fingerprint_match_only(self, tmp_path, capsys):
        # a chiral state and its complex conjugate: equal invariants, no witness
        points = random_points(np.random.default_rng(5), 5)
        rho = pure_to_density(majorana_state(points, [1] * 5))
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        write_state(path_a, rho)
        write_state(path_b, DensityMatrix(rho.j, rho.matrix.conj()))
        assert main(["compare", str(path_a), str(path_b)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "fingerprint-match-only"

    def test_spin_mismatch_exit_1(self, ghz3_file, tmp_path):
        other = tmp_path / "ghz4.json"
        write_state(other, pure_to_density(make_ghz(4)))
        assert main(["compare", ghz3_file, str(other)]) == 1

    def test_spin_above_cap_exit_2(self, ghz21_file, capsys):
        assert main(["compare", ghz21_file, ghz21_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _one_spin_cap_error(captured.err)

    @pytest.mark.parametrize("diagonal, failed", [
        ((1.2, -0.2, 0.0), "minimum eigenvalue -2.000e-01 < -1e-10"),
        ((1.0, 1.0, 0.0), "trace defect 1.000e+00 > 1e-10"),
    ], ids=["negative", "trace-2"])
    @pytest.mark.parametrize("order", ["bad-bad", "bad-good", "good-bad"])
    def test_invalid_state_exit_2(self, tmp_path, capsys, diagonal, failed, order):
        # each of these read equivalent to itself before compare validated
        paths = {"bad": tmp_path / "bad.json", "good": tmp_path / "good.json"}
        write_state(paths["bad"], DensityMatrix(HalfInteger(2), np.diag(diagonal)))
        write_state(paths["good"], DensityMatrix(HalfInteger(2), np.diag([0.5, 0.5, 0.0])))
        assert main(["compare", *(str(paths[name]) for name in order.split("-"))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {paths['bad']} is not a valid state: {failed}"]


class TestGenerate:
    def test_ghz4_round_trip(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": "ghz", "params": {"N": 4}}))
        out = tmp_path / "state.json"
        assert main(["generate", str(spec), "--out", str(out)]) == 0
        rho = read_state(out)
        expected = pure_to_density(make_ghz(4))
        assert np.max(np.abs(rho.matrix - expected.matrix)) < 1e-12

    def test_dicke_bell(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": "dicke",
                                    "params": {"j": 1, "m": 0}}))
        out = tmp_path / "bell.json"
        assert main(["generate", str(spec), "--out", str(out)]) == 0
        rho = read_state(out)
        assert np.allclose(rho.matrix, np.diag([0.0, 1.0, 0.0]), atol=1e-14)

    def test_outside_psd_range_warns_and_writes(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": "uniaxial",
                                    "params": {"r1": 0.9, "theta1": 0.3, "phi1": 0.0}}))
        out = tmp_path / "state.json"
        assert main(["generate", str(spec), "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: ")
        assert read_state(out).j == HalfInteger(2)

    def test_spec_not_json_exit_1(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("{not json")
        assert main(["generate", str(spec)]) == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot read family spec: ")

    def test_invalid_family_exit_1(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": "biaxial",
                                    "params": {"r2": -1.0, "theta": 0.2}}))
        assert main(["generate", str(spec)]) == 1
        assert "ranges" in capsys.readouterr().err

    @pytest.mark.parametrize("spec_doc", [
        [1, 2],
        "ghz",
        {"family": "uniaxial", "params": {"r1": "abc", "theta1": 0, "phi1": 0}},
        {"family": "separable_coherent", "params": {"j": 1, "theta": "a", "phi": 0}},
        {"family": "ghz", "params": {"N": float("inf")}},
        {"family": ["ghz"], "params": {"N": 3}},
        {"family": {"a": 1}},
        {"family": "uniaxial", "params": {"r1": 0.3}},
        {"family": "nosuch", "params": {}},
    ], ids=["list", "string", "non-numeric", "non-numeric-angle", "infinite", "family-list",
            "family-object", "missing-params", "unknown-family"])
    def test_malformed_spec_one_error_line_exit_1(self, tmp_path, capsys, spec_doc):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_doc))
        assert main(["generate", str(spec)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        # the valid ranges, when named, are named once
        assert lines[0].count("ranges") <= 1 and "?" not in lines[0]

    @pytest.mark.parametrize("family, params, bad", [
        ("separable_coherent", {"j": "3/2", "theta": float("nan"), "phi": 0}, "theta"),
        ("biaxial", {"r2": float("nan"), "theta": 0.1}, "r2"),
        ("uniaxial", {"r1": 0.5, "theta1": float("-inf"), "phi1": 0}, "theta1"),
    ], ids=["nan-angle", "nan-r2", "infinite-angle"])
    def test_non_finite_parameter_named_exit_1(self, tmp_path, capsys, family, params, bad):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": family, "params": params}))
        out = tmp_path / "state.json"
        assert main(["generate", str(spec), "--out", str(out)]) == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and repr(bad) in lines[0]
        assert not out.exists()

    def test_spin_above_cap_rejected_exit_1(self, tmp_path, capsys):
        # GHZ N = 21 is j = 21/2, which analyze cannot classify
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": "ghz", "params": {"N": 21}}))
        out = tmp_path / "ghz21.json"
        assert main(["generate", str(spec), "--out", str(out)]) == cli.EXIT_USAGE
        assert _one_spin_cap_error(capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("family, params, bad", [
        ("ghz", {"N": 3.7}, "N"),
        ("w", {"N": 2.5}, "N"),
        ("dicke", {"j": 1.3, "m": 0}, "j"),
        ("dicke", {"j": 2, "m": -1 / 3}, "m"),
        ("separable_coherent", {"j": True, "theta": 0.1, "phi": 0}, "j"),
    ], ids=["ghz-N", "w-N", "dicke-j", "dicke-m", "coherent-j"])
    def test_non_integral_parameter_named_exit_1(self, tmp_path, capsys, family, params, bad):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": family, "params": params}))
        out = tmp_path / "state.json"
        assert main(["generate", str(spec), "--out", str(out)]) == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and repr(bad) in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("family, params", [
        ("dicke", {"j": 0, "m": 0}),
        ("dicke", {"j": -1, "m": 0}),
        ("separable_coherent", {"j": 0, "theta": 0.1, "phi": 0}),
    ], ids=["dicke-j0", "dicke-negative-j", "coherent-j0"])
    def test_spin_below_one_half_rejected_exit_1(self, tmp_path, capsys, family, params):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": family, "params": params}))
        out = tmp_path / "state.json"
        assert main(["generate", str(spec), "--out", str(out)]) == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: parameter 'j' must be at least 1/2")
        assert lines[0].endswith(f"(valid ranges: {FAMILIES[family].ranges})")
        assert not out.exists()

    def test_generate_analyze_reconstruct(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"family": "biaxial", "params": {"r2": 0.5, "theta": 0.8}}))
        out = tmp_path / "state.json"
        main(["generate", str(spec), "--out", str(out)])
        assert main(["analyze", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        # rebuild the density from the reported tensor table
        from multiaxial.fano import SphericalTensorSet
        from oracles import reconstruct_density
        ranks = [np.zeros(2 * k + 1, dtype=complex) for k in range(3)]
        for row in doc["tensors"]:
            ranks[row["k"]][row["q"] + row["k"]] = row["re"] + 1j * row["im"]
        t = SphericalTensorSet(HalfInteger.of(doc["j"]), tuple(ranks))
        rho = reconstruct_density(t)
        original = read_state(out)
        assert np.max(np.abs(rho.matrix - original.matrix)) < 1e-9


class TestSweep:
    def test_uniaxial_boundaries(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--family", "uniaxial",
            "--vary", "r1=0.01:0.82:30",
            "--fix", f"theta1={math.pi / 3}", "--fix", "phi1=0",
            "--out", str(out),
        ]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        grid = [r for r in rows if r["row_type"] == "grid"]
        bounds = {r["boundary_of"]: float(r["r1"])
                  for r in rows if r["row_type"] == "boundary"}
        assert len(grid) == 30
        assert bounds["min_eigenvalue"] == pytest.approx(
            math.sqrt(2.0 / 3.0), abs=1e-4)
        assert bounds["ppt_min_eigenvalue"] == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-4)

    def test_ppt_undetermined_for_higher_spin(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--family", "dicke", "--vary", "m=1.0:2.0:2",
            "--fix", "j=2", "--out", str(out),
        ]) == 0
        with open(out) as fh:
            rows = [r for r in csv.DictReader(fh) if r["row_type"] == "grid"]
        assert all(r["ppt_min_eigenvalue"] == "undetermined" for r in rows)

    @pytest.mark.parametrize("report", ["class", "psd", "ppt"])
    def test_spin_above_cap_exit_2(self, tmp_path, capsys, report):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", "ghz", "--vary", "N=20:22:3",
                     "--report", report, "--out", str(out)]) == 2
        assert _one_spin_cap_error(capsys.readouterr().err)
        assert not out.exists()

    def test_bad_spec_exit_1(self):
        assert main(["sweep", "--family", "uniaxial",
                     "--vary", "r1=0.1-0.5-3"]) == 1

    @pytest.mark.parametrize("argv", [
        ["--vary", "r1=0.1:0.5:1", "--fix", "theta1=0", "--fix", "phi1=0"],
        ["--vary", "r1=0.1:0.5:3", "--fix", "theta1", "--fix", "phi1=0"],
    ], ids=["one-step", "fix-without-value"])
    def test_bad_grid_or_assignment_exit_1(self, tmp_path, capsys, argv):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", "uniaxial", *argv, "--out", str(out)]) == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: bad sweep specification: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--family", "ghz", "--vary", "N=2:3:3"],
        ["--family", "dicke", "--vary", "m=-1:1:4", "--fix", "j=2"],
        ["--family", "dicke", "--vary", "m=-1:1:5", "--fix", "j=1"],
    ], ids=["ghz-half-N", "dicke-third-m", "dicke-m-parity"])
    def test_non_integral_grid_point_exit_1(self, tmp_path, capsys, argv):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--report", "class", "--out", str(out)]) == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--family", "uniaxial", "--vary", "r1=0:inf:3", "--fix", "theta1=0", "--fix", "phi1=0"],
        ["--family", "uniaxial", "--vary", "r1=nan:0.5:3", "--fix", "theta1=0", "--fix", "phi1=0"],
        ["--family", "uniaxial", "--vary", "r1=0.1:0.5:3"],
        ["--family", "nosuch", "--vary", "x=0:1:2"],
    ], ids=["infinite-stop", "nan-start", "missing-params", "unknown-family"])
    def test_bad_sweep_one_error_line_exit_1(self, tmp_path, capsys, argv):
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", *argv, "--out", str(out)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert lines[0].count("ranges") <= 1 and "?" not in lines[0]
        assert not out.exists()

    def test_unknown_report_exit_1(self, capsys):
        assert main(["sweep", "--family", "ghz", "--vary", "N=2:3:2",
                     "--report", "psd,clas"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "--report" in lines[0] and "'psd,clas'" in lines[0]
        assert all(name in lines[0] for name in ("psd", "ppt", "class"))

    def test_full_precision_and_monotone(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--family", "biaxial", "--vary", "r2=0.1:1.0:10",
              "--fix", "theta=0.9", "--report", "psd", "--out", str(out)])
        with open(out) as fh:
            rows = [r for r in csv.DictReader(fh) if r["row_type"] == "grid"]
        values = [float(r["min_eigenvalue"]) for r in rows]
        # 17 significant digits survive the round trip
        assert any(len(r["min_eigenvalue"]) > 10 for r in rows)
        # monotone in r2 for this family: no sign oscillation
        signs = [v >= -1e-10 for v in values]
        assert signs == sorted(signs, reverse=True)


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out


@pytest.mark.parametrize("kind", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", ["analyze", "compare", "generate", "sweep"])
def test_unwritable_out_one_error_line_exit_1(ghz3_file, w_file, tmp_path, capsys, command,
                                              kind):
    # the work is done first, then the write fails: one line naming the path
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "ghz", "params": {"N": 3}}))
    argv = {"analyze": [ghz3_file], "compare": [ghz3_file, w_file], "generate": [str(spec)],
            "sweep": ["--family", "ghz", "--vary", "N=2:3:2", "--report", "class"]}[command]
    out = str(tmp_path / "missing" / "out.json") if kind == "missing-dir" else str(tmp_path)
    assert main([command, *argv, "--out", out]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("amplitude", [1e200, {"re": 1e308, "im": 1e308}])
@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_overflowing_amplitude_one_error_line_exit_1(w_file, tmp_path, capsys, command,
                                                     amplitude):
    # |a_m|^2 overflows: the norm reads inf, with no numpy warning before it
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"j": "3/2", "amplitudes": [0, 0, amplitude, 0]}))
    argv = {"analyze": [str(path)], "compare": [w_file, str(path)]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, *argv]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: state not normalized: sum |a_m|^2 = inf\n"


@pytest.mark.parametrize("matrix", [
    [[1e200, 0], [0, 0]],
    [[0.5, 1e300], [1e300, 0.5]],
    [[1e308, 0], [0, -1e308]],
    [[0.5, 1e308], [-1e308, 0.5]],
], ids=["diagonal-1e200", "off-diagonal-1e300", "diagonal-1e308", "antihermitian-1e308"])
@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_overflowing_matrix_one_error_line_exit_1(tmp_path, capsys, command, matrix):
    # sum |rho_mn|^2 overflows: rejected on reading, before any classifier work
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"j": "1/2", "matrix": matrix}))
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"j": "1/2", "amplitudes": [1, 0]}))
    argv = {"analyze": [str(path)], "compare": [str(ok), str(path)]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, *argv]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix entries too large: sum |rho_mn|^2 = inf\n"


@pytest.mark.parametrize("j", ["-1/2", "-1"])
@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_negative_j_one_error_line_exit_1(w_file, tmp_path, capsys, command, j):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"j": j, "matrix": []}))
    argv = {"analyze": [str(path)], "compare": [w_file, str(path)]}[command]
    assert main([command, *argv]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad 'j': {j} is negative\n"


def _fresh_python(code: str, **env_changes) -> str:
    """stdout of ``code`` run in a new interpreter that imports the library
    from this checkout; an env value of None removes the variable."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(multiaxial.__file__)))
    for key, value in env_changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def test_import_leaves_scipy_unloaded():
    # nothing under src/ imports scipy
    assert _fresh_python(
        "import sys, multiaxial.cli; print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))") == "[]"


def test_import_package_leaves_numpy_unloaded():
    # the package namespace loads submodules on first use
    assert _fresh_python("import sys, multiaxial; print('numpy' in sys.modules)") == "False"


def test_cli_import_pins_blas_to_one_thread():
    out = _fresh_python(
        "import os, multiaxial.cli; print(os.environ['OPENBLAS_NUM_THREADS']); "
        "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') "
        "else 'no-proc')", OPENBLAS_NUM_THREADS=None)
    value, threads = out.splitlines()
    assert value == "1"
    if threads == "no-proc":
        pytest.skip("no /proc/self/task to count threads")
    assert threads == "1"


def test_cli_import_keeps_user_blas_threads():
    assert _fresh_python("import os, multiaxial.cli; print(os.environ['OPENBLAS_NUM_THREADS'])",
                         OPENBLAS_NUM_THREADS="2") == "2"


def test_package_names_are_their_defining_modules_objects():
    missing = _fresh_python(
        "import importlib, multiaxial as m\n"
        "print([n for n in m.__all__ if getattr(m, n) is not "
        "getattr(importlib.import_module('multiaxial.' + m._MODULE_OF[n]), n)])")
    assert missing == "[]"
    assert set(multiaxial.__all__) <= set(dir(multiaxial))


def test_unknown_package_name_raises_attribute_error():
    assert _fresh_python(
        "import multiaxial\n"
        "try:\n    multiaxial.no_such_name\n"
        "except AttributeError as exc:\n    print(exc)"
    ) == "module 'multiaxial' has no attribute 'no_such_name'"
