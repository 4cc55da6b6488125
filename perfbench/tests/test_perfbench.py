"""Tests of the benchmark itself: inputs, checks, tracing and the time limit.

    python3 -m pytest -q perfbench/tests
"""

import copy
import math
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

import multiaxial.cli
import checks
import inputs
import run
import tracing
import workloads

lib = multiaxial


def _input_bytes(plan_ops):
    """Bytes of every density matrix a plan hands the library."""
    out = []
    for op in plan_ops:
        for cell in op.call.__defaults__ or ():
            if isinstance(cell, lib.DensityMatrix):
                out.append(cell.matrix.tobytes())
    return b"".join(out)


@pytest.mark.parametrize("build", [
    lambda seed: workloads.analyze_ladder(lib, seed, 1),
    lambda seed: workloads.compare_degenerate(lib, seed, 1, 1.0),
])
def test_same_seed_same_inputs(build):
    first, again, other = (_input_bytes(build(s).ops) for s in (5, 5, 6))
    assert first and first == again
    assert first != other


def test_same_seed_same_state_files(tmp_path):
    def files(seed, name):
        work = tmp_path / name
        work.mkdir()
        ops = workloads.cli_cold(lib, seed, 1, str(tmp_path), str(work)).ops
        assert len(ops) == 8
        return {p.name: p.read_bytes() for p in sorted(work.iterdir())}

    a, b, c = files(3, "a"), files(3, "b"), files(4, "c")
    assert a == b and len(a) == 8
    assert a != c


def test_rotation_matches_library_convention():
    rng = np.random.default_rng(0)
    for twoj in (1, 2, 5, 8):
        angles = inputs.random_rotation(rng)
        ours = inputs.rotation_matrix(twoj, *angles)
        theirs = lib.wigner_d_matrix(lib.HalfInteger(twoj), *angles)
        assert np.max(np.abs(ours - theirs)) < 1e-12


def _report(state):
    rho = lib.DensityMatrix(lib.HalfInteger(state.twoj), state.matrix)
    return lib.cli.build_report(rho, lib.Tolerances())


@pytest.mark.parametrize("make", [inputs.random_pure, inputs.random_mixed])
@pytest.mark.parametrize("twoj", [2, 5])
def test_check_report_accepts_library_answer(make, twoj):
    state = make(np.random.default_rng(twoj), twoj)
    assert checks.check_report(_report(state), state) is None


def test_check_report_rejects_wrong_signature_and_verdict():
    state = inputs.random_pure(np.random.default_rng(1), 4)
    doc = _report(state)

    wrong = copy.deepcopy(doc)
    wrong["signature"] = wrong["signature"].replace("D^4_1,1,1,1", "D^4_2,1,1")
    assert checks.check_report(wrong, state).reason == checks.WRONG_CLASS

    wrong = copy.deepcopy(doc)
    wrong["separability"]["separable"] = True
    assert checks.check_report(wrong, state).reason == checks.WRONG_VERDICT

    wrong = copy.deepcopy(doc)
    wrong["tensors"][5]["re"] += 1e-3
    assert checks.check_report(wrong, state).reason == checks.WRONG_OUTPUT


def test_check_witness_rejects_wrong_verdict_and_witness():
    twoj = 3
    a = inputs.ghz(twoj).matrix
    angles = (0.4, 1.1, 2.0)
    b = inputs.rotate(a, inputs.rotation_matrix(twoj, *angles))
    assert checks.check_witness("equivalent", angles, a, b, twoj) is None
    assert checks.check_witness("fingerprint-match-only", None, a, b,
                                twoj).reason == checks.WRONG_VERDICT
    assert checks.check_witness("equivalent", (0.4, 1.2, 2.0), a, b,
                                twoj).reason == checks.WRONG_VERDICT


def test_check_against_reference_names_the_difference():
    ref = {"signature": "{D^1_1}", "r": [1.0, 0.5], "separability": {"separable": False}}
    assert checks.check_against_reference(copy.deepcopy(ref), ref) is None
    near = copy.deepcopy(ref)
    near["r"][1] += 1e-12
    assert checks.check_against_reference(near, ref) is None
    wrong = copy.deepcopy(ref)
    wrong["signature"] = "{D^1_1, D^2_2}"
    assert checks.check_against_reference(wrong, ref).reason == checks.WRONG_CLASS
    wrong = copy.deepcopy(ref)
    wrong["separability"]["separable"] = True
    assert checks.check_against_reference(wrong, ref).reason == checks.WRONG_VERDICT
    wrong = copy.deepcopy(ref)
    wrong["r"][0] = math.nan
    assert checks.check_against_reference(wrong, ref).reason == checks.WRONG_OUTPUT


def test_self_time_subtracts_direct_children():
    # (id, name, start, end, parent, op): a [0, 10] holds b [1, 4] and c [5, 9];
    # c holds d [6, 8].
    spans = [(1, "b", 1.0, 4.0, 0, 0), (3, "d", 6.0, 8.0, 2, 0),
             (2, "c", 5.0, 9.0, 0, 0), (0, "a", 0.0, 10.0, None, 0)]
    assert tracing.self_times(spans) == {0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0}


def test_tracer_records_nesting_and_counters():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.count("leaf", lambda: None)
    inner = tracer.record("inner", lambda: leaf())
    outer = tracer.record("outer", lambda: (inner(), inner()))
    tracer.begin_op(7)
    outer()
    summary = tracing.summarize(tracer)
    assert summary["calls"] == {"leaf": 2, "inner": 2, "outer": 1}
    # outer spans ticks 0..5, each inner spans one tick.
    assert summary["self_s"] == {"inner": 2.0, "outer": 3.0}
    assert summary["top_level_s"] == 5.0
    assert {s[5] for s in tracer.spans} == {7}


def test_install_reaches_every_binding_and_uninstall_restores():
    originals = (lib.cli.class_signature, lib.classify.solve_all_axes,
                 lib.fano.tau_matrix, lib.HalfInteger.of, lib.axes.np)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = inputs.random_pure(np.random.default_rng(2), 3)
        _report(state)
    finally:
        tracer.uninstall()
    assert (lib.cli.class_signature, lib.classify.solve_all_axes, lib.fano.tau_matrix,
            lib.HalfInteger.of, lib.axes.np) == originals
    calls = tracing.summarize(tracer)["calls"]
    assert calls["fano.extract_tensors"] == 3
    assert calls["angular.tau_matrix"] == 3 * 16
    for name in ("halfint.HalfInteger.of", "angular.clebsch_gordan", "axes.roots",
                 "axes.polyval", "axes.solve_axes", "axes.cluster_directions"):
        assert calls[name] > 0


def _op(i, call, check=lambda result: None):
    return workloads.Op(i, "test", 2, "test", call, check)


def test_time_limit_fires_counts_failed_and_later_ops_stay_correct():
    def spin():
        end = time.perf_counter() + 30.0
        while time.perf_counter() < end:
            pass

    slow_state = inputs.coherent(10)
    slow_rho = lib.DensityMatrix(lib.HalfInteger(10), slow_state.matrix)
    rotated = inputs.rotate(slow_state.matrix, inputs.rotation_matrix(10, 0.3, 1.0, 2.0))
    slow_rho_b = lib.DensityMatrix(lib.HalfInteger(10), rotated)

    twoj = 3
    a = inputs.ghz(twoj).matrix
    angles = (0.4, 1.1, 2.0)
    b = inputs.rotate(a, inputs.rotation_matrix(twoj, *angles))
    rho_a, rho_b = (lib.DensityMatrix(lib.HalfInteger(twoj), m) for m in (a, b))

    def compare():
        return lib.lu_equivalent(rho_a, rho_b)

    def check(res):
        return checks.check_witness(res.verdict, workloads._witness(res), a, b, twoj)

    ops = [_op(0, compare, check), _op(1, spin),
           _op(2, lambda: lib.lu_equivalent(slow_rho, slow_rho_b)), _op(3, compare, check)]
    outcomes = workloads.run_ops(ops, 0.3)
    assert [o.failure for o in outcomes][::3] == [None, None]
    for o in outcomes[1:3]:
        assert o.failure.reason == checks.TIME_LIMIT
        assert 0.3 <= o.latency_s < 1.5


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(40, 0, -1))
    value, pct = run.tail(values)
    assert pct == 75.0
    assert 30.0 < value < 31.0
    assert sum(v > value for v in values) == 10
    with pytest.raises(ValueError):
        run.tail(values[:10])


def test_quantile_is_smooth_in_the_order_statistics():
    values = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    assert run.quantile(values, 0.5) == pytest.approx(statistics.median(values))
    # Moving the middle value moves the estimate by a fraction of the move.
    moved = [1.0, 2.0, 4.0, 12.0, 16.0, 32.0, 64.0]
    assert 0.0 < run.quantile(moved, 0.5) - run.quantile(values, 0.5) < 4.0
    assert run.quantile([5.0] * 9, 0.5) == pytest.approx(5.0)
    assert run.quantile(values[::-1], 0.25) == pytest.approx(run.quantile(values, 0.25))


def _probed(slot, latency, probe_s, failure=None):
    return workloads.Outcome(workloads.Op(0, "t", 2, "t", None, None, slot=slot),
                             latency, latency, failure, 0, probe_s)


def test_local_speeds_follow_a_low_percentile_of_nearby_probes():
    ref = run.REFERENCE_PROBE_S
    steady = run.local_speeds([_probed(i, 1.0, ref) for i in range(50)])
    assert steady == pytest.approx([1.0] * 50)
    # The machine halves its speed half way; one probe hit by a hiccup is ignored.
    probes = [ref] * 40 + [2.0 * ref] * 40
    probes[10] = 10.0 * ref
    speeds = run.local_speeds([_probed(i, 1.0, p) for i, p in enumerate(probes)])
    assert speeds[10] == pytest.approx(1.0)
    assert speeds[0] == pytest.approx(1.0) and speeds[-1] == pytest.approx(0.5)


def test_best_of_scales_runs_but_not_those_stopped_at_the_limit():
    stopped = checks.Failure(checks.TIME_LIMIT, "")
    outcomes = [_probed(0, 0.2, 0.0), _probed(1, 0.5, 0.0, stopped)]
    best = run.best_of(outcomes, [0.5, 0.5])
    assert best == [(0.1, 0.1, True), (0.5, 0.5, False)]


def test_best_of_takes_each_ops_fastest_pass():
    def outcome(slot, latency, failure=None):
        return workloads.Outcome(workloads.Op(0, "t", 2, "t", None, None, slot=slot),
                                 latency, latency / 2, failure)

    wrong = checks.Failure(checks.WRONG_VERDICT, "")
    best = run.best_of([outcome(0, 3.0), outcome(1, 2.0), outcome(0, 1.0),
                        outcome(1, 5.0, wrong)])
    assert best == [(1.0, 0.5, True), (2.0, 1.0, False)]


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--op-limit-s", "1", "--workload",
         "analyze-ladder", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "multiaxial not found" in done.stderr
