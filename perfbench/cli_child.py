"""Run ``multiaxial.cli.main`` under the tracer in a fresh process.

    python3 perfbench/cli_child.py SUMMARY.json analyze STATE.json --out OUT

Used by the traced ``cli-cold`` run in place of ``python -m multiaxial.cli``:
it times the import of ``multiaxial.cli``, wraps the library's public
functions, runs the command and writes the span summary to SUMMARY.json.
"""

import json
import sys
import time

import tracing


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    start = time.perf_counter()
    with tracer.span("cli.import"):
        import multiaxial.cli
    import_ms = 1000.0 * (time.perf_counter() - start)
    tracer.install()
    try:
        code = multiaxial.cli.main(argv)
    finally:
        tracer.uninstall()
        summary = tracing.summarize(tracer)
        summary["import_ms"] = import_ms
        with open(summary_path, "w") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
