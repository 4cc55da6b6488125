"""Benchmark of the multiaxial library: one workload, one seed, one run.

    python3 perfbench/run.py --op-limit-s 0.5 --workload analyze-ladder --seed 1 \
        --seconds 32 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it holds the per-layer metrics
of a traced run over the same inputs.  See ``perfbench/NOTES.md``.
"""

import time

# Set-up time (setup_s) counts from here, before any other import.
T0 = time.perf_counter()

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("analyze-ladder", "compare-degenerate", "cli-cold")
SETUP_SAMPLES = 3
#: About the 20th-percentile time of ``workloads.speed_probe`` on the
#: reference machine; scaled times are times at that speed.
REFERENCE_PROBE_S = 0.0007
#: Runs on each side of a run whose probe times give its speed factor.
PROBE_WINDOW = 15
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time; converted to whole passes of the workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--op-limit-s", type=float, required=True,
                   help="per-op time limit on compare-degenerate (fixed in BENCHMARK.json)")
    p.add_argument("--setup-only", action="store_true",
                   help="do the set-up, print its duration and exit")
    return p.parse_args(argv)


def import_library():
    """Import ``multiaxial`` from this checkout's ``src``; returns (package, import ms)."""
    if not os.path.isfile(os.path.join(SRC, "multiaxial", "__init__.py")):
        sys.exit(f"error: {SRC}/multiaxial not found; run from the root of a "
                 f"checkout that contains the library")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import multiaxial.cli  # noqa: F401
    import_ms = 1000.0 * (time.perf_counter() - start)
    import multiaxial
    if not os.path.abspath(multiaxial.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported multiaxial from {multiaxial.__file__}, not {SRC}")
    return multiaxial, import_ms


def loadavg() -> list[str]:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return []


def machine_note(seed: int, load_start: list[str]) -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs between numpy versions
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        "seed": seed,
    }


def build_plan(args, lib, passes, work):
    import workloads

    if args.workload == "analyze-ladder":
        return workloads.analyze_ladder(lib, args.seed, passes)
    if args.workload == "compare-degenerate":
        return workloads.compare_degenerate(lib, args.seed, passes, args.op_limit_s)
    return workloads.cli_cold(lib, args.seed, passes, ROOT, work)


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of positive ``values``.

    The ops of a workload spread over three decades of latency, so neighbouring
    order statistics lie 10-20% apart and the plain sample quantile jumps by
    that much when two ops trade places.  Harrell-Davis takes a beta-weighted
    mean of the order statistics instead; it is taken over their logarithms,
    which a quantile estimate may be (quantiles commute with monotone maps),
    so the spread-out large values do not pull it up.
    """
    import numpy as np
    from scipy.special import betainc

    n = len(values)
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.exp(np.diff(edges) @ np.log(np.sort(values))))


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        raise ValueError(f"{n} samples cannot give a percentile with ten beyond it")
    pct = 100.0 * (n - 10) / n
    return quantile(values, pct / 100.0), pct


def local_speeds(outcomes) -> list[float]:
    """Each run's speed factor: the reference probe time over the low (20th
    percentile) probe time of the runs around it.

    The machine's speed swings by up to about 1.7x for seconds to minutes at
    a time.  ``workloads.speed_probe``, timed before every run, follows those
    swings; its low percentile over a few dozen runs leaves out its own
    millisecond jitter, as an op's best run does.
    """
    import numpy as np

    probes = np.array([o.probe_s for o in outcomes])
    return [REFERENCE_PROBE_S / float(np.percentile(probes[max(0, i - PROBE_WINDOW):
                                                            i + PROBE_WINDOW + 1], 20))
            for i in range(len(probes))]


def best_of(outcomes, speeds=None) -> list[tuple[float, float, bool]]:
    """(least latency, least CPU time, every run correct) of each op over its runs,
    each run's times multiplied by its speed factor in ``speeds``, except for
    a run stopped at the time limit.

    Every pass repeats the same inputs, so an op's best run is its cost with
    the least interference from the rest of the machine.  cli-cold gives
    each child a slot of its own, so there every run stands as it ran.
    """
    from checks import TIME_LIMIT

    slots: dict[int, list] = {}
    for o, speed in zip(outcomes, speeds or [1.0] * len(outcomes)):
        if o.failure is not None and o.failure.reason == TIME_LIMIT:
            speed = 1.0  # stopped by the wall clock: it stands at the limit
        slots.setdefault(o.op.slot, []).append((speed * o.latency_s, speed * o.cpu_s, o.failure))
    return [(min(latency for latency, _, _ in runs), min(cpu for _, cpu, _ in runs),
             all(failure is None for _, _, failure in runs)) for runs in slots.values()]


def end_to_end(outcomes, in_process: bool, setup_s: float,
               speeds=None) -> tuple[dict, dict]:
    best = best_of(outcomes, speeds)
    latencies = [latency for latency, _, _ in best]
    ok = sum(correct for _, _, correct in best)
    n = len(best)
    tail_s, pct = tail(latencies)
    if in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(o.child_maxrss_kb for o in outcomes)

    def m(value, unit):
        return {"value": value, "unit": unit}

    metrics = {
        "ok_ops_per_s": m(ok / sum(latencies), "1/s"),
        "op_p50_ms": m(1000.0 * quantile(latencies, 0.5), "ms"),
        "op_tail_ms": m(1000.0 * tail_s, "ms"),
        "cpu_ms_per_op": m(1000.0 * sum(cpu for _, cpu, _ in best) / n, "ms"),
        "ok_frac": m(ok / n, "fraction"),
        "setup_s": m(setup_s, "s"),
        "peak_rss_mb": m(peak_kb / 1024.0, "MB"),
    }
    return metrics, {"tail_percentile": pct, "samples": n}


def ledger(outcomes, workload: str, seed: int, phase: str) -> list[dict]:
    return [{
        "workload": workload, "family": o.op.family, "twoj": o.op.twoj,
        "seed": seed, "kind": o.op.kind, "op": o.op.id, "pass": o.op.pass_index,
        "phase": phase, "reason": o.failure.reason, "detail": o.failure.detail[:300],
        "latency_ms": round(1000.0 * o.latency_s, 3), "known_defect": o.op.known_defect,
    } for o in outcomes if o.failure is not None]


def op_table(outcomes) -> list[list]:
    """[op, family, 2j, kind, latency ms, failure reason or "", slot, probe ms] for every op."""
    return [[o.op.id, o.op.family, o.op.twoj, o.op.kind, round(1000.0 * o.latency_s, 3),
             o.failure.reason if o.failure else "", o.op.slot, round(1000.0 * o.probe_s, 4)]
            for o in outcomes]


def setup_samples(args, own_s: float) -> list[float]:
    """This process's set-up time plus that of fresh processes doing the same set-up."""
    samples = [own_s]
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--op-limit-s", str(args.op_limit_s), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr[-500:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = loadavg()
    lib, import_ms = import_library()
    sys.path.insert(0, HERE)
    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        passes = workloads.passes_for(args.workload, args.seconds)
        if args.trace:
            passes = (passes + 1) // 2
        plan = build_plan(args, lib, passes, work)
        plan.warm_up()
        own_setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0

        # Keep the collector from rescanning set-up objects in every timed op.
        gc.collect()
        gc.freeze()
        outcomes = workloads.run_ops(plan.ops, plan.limit_s,
                                     probe=plan.in_process and not args.trace)
        failures = ledger(outcomes, args.workload, args.seed, "untraced")
        report = {"workload": args.workload, "seed": args.seed,
                  "held_out_seed": workloads.HELD_OUT_SEEDS[args.workload],
                  "passes": passes, "trace": args.trace, "ops": op_table(outcomes)}

        if args.trace:
            tracer = tracing.Tracer()
            if plan.in_process:
                tracer.install()
            try:
                traced = workloads.run_ops(plan.traced_ops, plan.limit_s,
                                           tracer if plan.in_process else None)
            finally:
                tracer.uninstall()
            failures += ledger(traced, args.workload, args.seed, "traced")
            if plan.in_process:
                summary = tracing.summarize(tracer)
            else:
                docs = [_read_json(path) for path in
                        (workloads.trace_path(work, o.op.id) for o in traced)
                        if os.path.exists(path)]
                import_ms = statistics.mean(d.pop("import_ms") for d in docs)
                summary = tracing.merge(docs)
            metrics = tracing.layer_metrics(
                summary, len(traced), sum(o.latency_s for o in traced),
                sum(o.latency_s for o in outcomes), import_ms)
        else:
            setups = setup_samples(args, own_setup_s)
            # cli-cold's children run in processes of their own, which a probe
            # in this one does not follow; their times stand as measured.
            speeds = local_speeds(outcomes) if plan.in_process else None
            metrics, tail_note = end_to_end(outcomes, plan.in_process,
                                            statistics.median(setups), speeds)
            report.update(tail_note, setup_samples_s=setups)
            if speeds:
                raw, _ = end_to_end(outcomes, plan.in_process, statistics.median(setups))
                report.update(speed_factors=speeds, unscaled_metrics=raw)
                print(f"# speed factors: median {statistics.median(speeds):.4f}, range "
                      f"{min(speeds):.4f}-{max(speeds):.4f}; unscaled metrics "
                      + json.dumps({k: v["value"] for k, v in raw.items()}))
            print(f"# op_tail_ms is p{tail_note['tail_percentile']:.2f} of "
                  f"{tail_note['samples']} samples")

        correct = all(f["known_defect"] for f in failures)
        report.update(machine=machine_note(args.seed, load_start), failures=failures,
                      metrics=metrics, correct=correct)
        print("# machine " + json.dumps(report["machine"], sort_keys=True))
        print(f"# failure ledger: {len(failures)} entries")
        for entry in failures:
            print("# failed " + json.dumps(entry, sort_keys=True))
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(OUT, name), "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        print(json.dumps({"correct": correct, "attempted": len(outcomes),
                          "failed": sum(o.failure is not None for o in outcomes),
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
