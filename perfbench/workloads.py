"""The three workloads: their inputs, operations, warm-up and checks.

Every workload is a list of operations run one at a time in one process
(``cli-cold`` runs its child processes one at a time).  An operation's
``call`` returns the library's answer and ``check`` turns that answer into
``None`` (correct) or a ``Failure``.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import inputs
from checks import Failure

#: 2j ladder of the analyze path.  2j > 20 fails today with SpinTooLargeError
#: (ROADMAP item 3) and joins the ladder once that cap is settled.
LADDER = range(2, 21)
#: Degenerate states above 2j = 10 take 10-200 s each today (ROADMAP item 1).
DEGENERATE_LADDER = range(2, 11)
#: compare-degenerate answers from 2j = 7 up are often wrong today (ROADMAP
#: item 1): coherent states fail from 2j = 7, W states from 2j = 8, and every
#: family at 2j = 9 and 10; 100 seeded rotations per family at 2j <= 6 gave
#: no failure.  These failures count as failed and are listed in the ledger
#: like any other; only a failure outside this region makes a run incorrect.
KNOWN_DEFECT_MIN_TWOJ = 7

#: Seeded random rotations per (family, 2j) on compare-degenerate.  With one,
#: about 9 of 45 ops hit the time limit, and the tail (the 11th slowest op)
#: fell among the ops just below it, whose times move with the rotation.
ROTATIONS = 2

#: Seconds one pass of each workload takes on the reference machine
#: (2 vCPUs, Python 3.11, numpy 2.4).  ``--seconds`` becomes a whole number
#: of passes through these, so every commit runs the same operations and
#: the tail percentile is taken over the same sample count.
NOMINAL_PASS_S = {"analyze-ladder": 12.0, "compare-degenerate": 15.0, "cli-cold": 11.6}

#: Seeds kept out of tuning, for confirming a later claim on inputs its
#: author did not tune against.
HELD_OUT_SEEDS = {"analyze-ladder": 90101, "compare-degenerate": 90102, "cli-cold": 90103}

#: Cap on one analyze-ladder or cli-cold operation; none comes near it.
SAFETY_LIMIT_S = 60.0

UNIAXIAL_SWEEP = "r1=0.01:0.82:30"
UNIAXIAL_BOUNDARIES = {"min_eigenvalue": math.sqrt(2.0 / 3.0),
                       "ppt_min_eigenvalue": 1.0 / math.sqrt(2.0)}


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so library ``except Exception`` cannot swallow it."""


@dataclass
class Op:
    id: int
    family: str
    twoj: int
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Failure | None]
    known_defect: bool = False
    pass_index: int = 0
    #: Which of the workload's distinct ops this is; its runs share the inputs.
    slot: int = 0


@dataclass
class Outcome:
    op: Op
    latency_s: float
    cpu_s: float
    failure: Failure | None
    child_maxrss_kb: int = 0
    #: Time of the speed probe run just before the op (0 when not probed).
    probe_s: float = 0.0


@dataclass
class Plan:
    """``traced_ops`` run the same inputs under the tracer: the same ops when
    ``in_process``, else children started through ``cli_child.py``."""

    ops: list[Op]
    traced_ops: list[Op]
    warm_up: Callable[[], None]
    limit_s: float
    in_process: bool


def passes_for(workload: str, seconds: float) -> int:
    """Whole passes that fill ``seconds``; at least two, so an in-process op has a
    best of two and cli-cold has the 11 samples its tail percentile needs."""
    return max(2, round(seconds / NOMINAL_PASS_S[workload]))


def analyze_runs_per_pass(twoj: int) -> int:
    """Ops below 2j = 15 take milliseconds to a few hundred; the median and
    tail ops lie there.  Running them more often gives their best run more
    moments of the run to come from, for about a third more time a pass."""
    return 4 if twoj <= 8 else 2 if twoj <= 14 else 1


def compare_runs_per_pass(twoj: int) -> int:
    """Ops up to 2j = 6 take tens of milliseconds, and the median op lies there."""
    return 3 if twoj <= 6 else 1


def _on_alarm(signum, frame):
    raise OpTimeout()


_PROBE_DATA = np.linspace(0.5, 2.0, 16)


def speed_probe() -> float:
    """A fixed piece of interpreter and small-array numpy work, about 1 ms,
    that shares no code with the library beyond numpy; its time tracks how
    fast the machine runs Python at the moment."""
    acc = 0.0
    table = {}
    for i in range(1, 1200):
        acc += math.sqrt(i) * (i % 7) / (1 + (i & 3))
        table[i & 63] = acc
    x = _PROBE_DATA
    for _ in range(80):
        x = np.sqrt(x * 1.0001 + 0.5) - 0.25
        acc += float(x.sum())
    return acc


def run_ops(ops: list[Op], limit_s: float, tracer=None, probe: bool = False) -> list[Outcome]:
    """Run each op under a time limit and check its answer straight after.

    With ``probe``, ``speed_probe`` runs and is timed just before each op.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    outcomes = []
    try:
        for op in ops:
            if tracer is not None:
                tracer.begin_op(op.id)
            probe_s = 0.0
            if probe:
                start = time.perf_counter()
                speed_probe()
                probe_s = time.perf_counter() - start
            result = None
            failure = None
            cpu0 = time.process_time()
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            try:
                result = op.call()
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            except OpTimeout:
                failure = Failure(checks.TIME_LIMIT, f"stopped at the {limit_s:g} s limit")
            except Exception as exc:  # any library error is a failed op, not a crash
                failure = Failure(checks.RAISED, f"{type(exc).__name__}: {exc}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            latency = time.perf_counter() - start
            cpu = time.process_time() - cpu0
            child_rss = 0
            if isinstance(result, ChildResult):
                cpu, child_rss = result.cpu_s, result.maxrss_kb
            if failure is None:
                try:
                    failure = op.check(result)
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    failure = Failure(checks.WRONG_OUTPUT, f"malformed answer: {exc!r}")
            outcomes.append(Outcome(op, latency, cpu, failure, child_rss, probe_s))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return outcomes


def _repeat(round_: list[tuple], passes: int, rng: np.random.Generator,
            runs_per_pass: Callable[[int], int] = lambda twoj: 1) -> list[Op]:
    """``passes`` passes over the same (family, twoj, kind, call, check, known) ops.

    Each pass runs every op ``runs_per_pass(twoj)`` times, all in one seeded
    order of its own, so the ops of one size are spread over the whole run
    instead of sharing one stretch of it, and the runs of one op fall at
    unrelated times.
    """
    ops = []
    for p in range(passes):
        slots = [slot for slot, entry in enumerate(round_)
                 for _ in range(runs_per_pass(entry[1]))]
        for slot in rng.permutation(slots):
            family, twoj, kind, call, check, known = round_[slot]
            ops.append(Op(len(ops), family, twoj, kind, call, check, known, p, int(slot)))
    return ops


# ---------------------------------------------------------------------------
# In-process workloads


def _density(lib, state: inputs.StateInput):
    return lib.DensityMatrix(lib.HalfInteger(state.twoj), state.matrix)


def _warm(lib, twojs) -> None:
    """Fill the Clebsch-Gordan cache and the separable references for each spin."""
    for twoj in twojs:
        lib.extract_tensors(_density(lib, inputs.ghz(twoj)))
        lib.couple_axis_chain([(0.3, 0.2)] * twoj)
        lib.classify.separable_reference_r(twoj)


def analyze_ladder(lib, seed: int, passes: int) -> Plan:
    rng = np.random.default_rng(seed)
    tol = lib.Tolerances()
    round_ = []
    for twoj in LADDER:
        for make in (inputs.random_mixed, inputs.random_pure):
            state = make(rng, twoj)
            rho = _density(lib, state)
            round_.append((state.family, twoj, "analyze",
                           lambda rho=rho: lib.cli.build_report(rho, tol),
                           lambda doc, state=state: checks.check_report(doc, state), False))
    ops = _repeat(round_, passes, rng, analyze_runs_per_pass)
    return Plan(ops, ops, lambda: _warm(lib, LADDER), SAFETY_LIMIT_S, True)


def _witness(result) -> tuple | None:
    w = result.witness
    return None if w is None else (w.alpha, w.beta, w.gamma)


def compare_degenerate(lib, seed: int, passes: int, limit_s: float) -> Plan:
    rng = np.random.default_rng(seed)
    tol = lib.Tolerances()
    round_ = []
    for twoj in DEGENERATE_LADDER:
        known = twoj >= KNOWN_DEFECT_MIN_TWOJ
        for family, make in inputs.DEGENERATE_FAMILIES.items():
            state = make(twoj)
            a = state.matrix
            rho_a = _density(lib, state)
            for _ in range(ROTATIONS):
                b = inputs.rotate(a, inputs.rotation_matrix(twoj, *inputs.random_rotation(rng)))
                rho_b = lib.DensityMatrix(lib.HalfInteger(twoj), b)
                round_.append((
                    family, twoj, "compare",
                    lambda rho_a=rho_a, rho_b=rho_b: lib.lu_equivalent(rho_a, rho_b, tol),
                    lambda res, a=a, b=b, twoj=twoj: checks.check_witness(
                        res.verdict, _witness(res), a, b, twoj),
                    known))
            if family == "coherent":
                round_.append((
                    family, twoj, "separability",
                    lambda rho_a=rho_a: lib.pure_separability_check(rho_a, tol),
                    lambda v: checks.check_separable(v.separable, v.applicable, v.reason),
                    known))
    ops = _repeat(round_, passes, rng, compare_runs_per_pass)
    return Plan(ops, ops, lambda: _warm(lib, DEGENERATE_LADDER), limit_s, True)


# ---------------------------------------------------------------------------
# cli-cold: one fresh ``python -m multiaxial.cli`` process per op


@dataclass
class ChildResult:
    exit_code: int
    cpu_s: float
    maxrss_kb: int
    out_path: str
    err_path: str


def run_child(argv: list[str], env: dict, cwd: str, out_path: str, err_path: str) -> ChildResult:
    """Run one child to completion; an alarm kills it and re-raises."""
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss, out_path, err_path)


class CliCold:
    """The cycle of command-line ops, their state files and in-process references."""

    def __init__(self, lib, seed: int, root: str, work: str):
        self.lib = lib
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
        self.references: dict[str, str] = {}
        self.files = 0
        rng = np.random.default_rng(seed)
        # (family, twoj, kind, args, extra check of the parsed output)
        self.cycle = cycle = []
        for twoj, make in ((2, inputs.random_pure), (6, inputs.random_mixed), (8, None),
                           (12, inputs.random_pure), (16, inputs.random_mixed),
                           (20, inputs.random_pure)):
            state = inputs.ghz(twoj) if make is None else make(rng, twoj)
            extra = (lambda doc, state=state: checks.check_report(doc, state)) \
                if make is not None else (lambda doc: None)
            cycle.append((state.family, twoj, "analyze", ["analyze", self._write(state)], extra))
        dicke = inputs.dicke_central(6)
        rotated = inputs.StateInput("dicke", 6, inputs.rotate(
            dicke.matrix, inputs.rotation_matrix(6, *inputs.random_rotation(rng))))

        def compare_extra(doc, a=dicke.matrix, b=rotated.matrix):
            w = doc.get("witness_euler_zyz")
            witness = None if w is None else (w["alpha"], w["beta"], w["gamma"])
            return checks.check_witness(doc["verdict"], witness, a, b, 6)
        cycle.append(("dicke", 6, "compare",
                      ["compare", self._write(dicke), self._write(rotated)], compare_extra))
        theta1, phi1 = float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2.0 * math.pi))
        cycle.append(("uniaxial", 2, "sweep",
                      ["sweep", "--family", "uniaxial", "--vary", UNIAXIAL_SWEEP,
                       "--fix", f"theta1={theta1!r}", "--fix", f"phi1={phi1!r}"], None))

    def ops(self, passes: int, prefix) -> list[Op]:
        """``prefix(op_id)`` is the argv that replaces ``python -m multiaxial.cli``.

        Each child is a cold start of its own, so each is its own slot: its
        latency is taken as it ran, not as the best of its passes.
        """
        ops = []
        for p in range(passes):
            for family, twoj, kind, args, extra in self.cycle:
                op_id = len(ops)
                out = os.path.join(self.work, f"out-{op_id}")
                err = os.path.join(self.work, f"err-{op_id}")
                argv = prefix(op_id) + args + ["--out", out]
                ops.append(Op(
                    op_id, family, twoj, f"cli-{kind}",
                    lambda argv=argv, out=out, err=err: run_child(argv, self.env, self.root,
                                                                  out, err),
                    lambda res, args=args, extra=extra: self.check(res, args, extra),
                    pass_index=p, slot=op_id))
        return ops

    def _write(self, state) -> str:
        path = os.path.join(self.work, f"state-{self.files}.json")
        self.files += 1
        inputs.write_state_file(path, state)
        return path

    def reference(self, args: list[str]) -> str:
        """Output of the same command run in-process (computed once per input)."""
        key = "\0".join(args)
        if key not in self.references:
            path = os.path.join(self.work, f"ref-{len(self.references)}")
            self.lib.cli.main(args + ["--out", path])
            with open(path) as fh:
                self.references[key] = fh.read()
        return self.references[key]

    def check(self, res: ChildResult, args: list[str], extra) -> Failure | None:
        if res.exit_code != 0:
            with open(res.err_path, errors="replace") as fh:
                tail = fh.read()[-300:]
            return Failure(checks.WRONG_OUTPUT, f"exit {res.exit_code}: {tail}")
        with open(res.out_path) as fh:
            text = fh.read()
        if extra is None:
            return checks.check_sweep(text, self.reference(args), "r1", UNIAXIAL_BOUNDARIES)
        doc = json.loads(text)
        return (checks.check_against_reference(doc, json.loads(self.reference(args)))
                or extra(doc))


def trace_path(work: str, op_id: int) -> str:
    return os.path.join(work, f"trace-{op_id}.json")


def cli_cold(lib, seed: int, passes: int, root: str, work: str) -> Plan:
    cold = CliCold(lib, seed, root, work)
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
    return Plan(cold.ops(passes, lambda op_id: [sys.executable, "-m", "multiaxial.cli"]),
                cold.ops(passes, lambda op_id: [sys.executable, child, trace_path(work, op_id)]),
                lambda: None, SAFETY_LIMIT_S, False)
