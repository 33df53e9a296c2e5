"""GOGGLES benchmark: one command per workload run.

    python3 perfbench/run.py --workload label-n160 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` (pure Python, nothing to build).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones (see
``workloads.py`` for the workloads and end-to-end metrics, ``measure.py``
for the per-layer metric catalogue).  ``--smoke`` shrinks every corpus
for the benchmark's own tests.

Output: one ``perfbench-report`` line (environment fingerprint, sample
counts behind every quantile, input digest, failures), one
``unmeasured: <metric>`` line per per-layer metric whose hook target no
longer exists, and last the result object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {"setup_s": {"value": 1.4, "unit": "s"}, ...}}

Exit status 0 when the run completed (even if an output check failed —
``correct`` says so), 2 when the checkout has no program to measure, 1
when the benchmark itself broke.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, for the benchmark's tests")
    return parser.parse_args(argv)


def import_program() -> float:
    """Import ``repro`` from this checkout's ``src/``; returns the seconds
    the import took (part of ``setup_s``)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import repro

    elapsed = time.perf_counter() - started
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"imported repro from {repro.__file__}, not from {SRC}")
    return elapsed


def fresh_import_s() -> float:
    """Seconds ``import repro`` takes in a fresh interpreter.  The import
    is most of ``setup_s`` and a run has only one of its own, so the
    untraced run times ``SETUP_REPEATS - 1`` more and takes the median."""
    code = "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import repro; " \
           "print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout.split()[-1])


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_program()
    except (FileNotFoundError, ImportError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    from measure import environment, layer_metrics, result_line
    from workloads import SETUP_REPEATS, WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, workdir)
        report = {"workload": args.workload, "trace": args.trace, "smoke": args.smoke}
        unmeasured: list[str] = []
        if args.trace:
            assert run.layer is not None
            metrics, unmeasured, samples = layer_metrics(run.layer)
            report["quantile_n"] = samples
            report["unmeasured_targets"] = run.layer.tracer.unmeasured
        else:
            metrics = run.e2e([import_s] + [fresh_import_s() for _ in range(SETUP_REPEATS - 1)])
            report["quantile_n"] = {"latency_s_p50": len(run.latencies), "latency_s_p90": len(run.latencies)}
        report.update(run.details, failures=run.failures, env=environment(ROOT, args.seed))
    except Exception:  # noqa: BLE001 - a broken benchmark prints no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print("perfbench-report: " + json.dumps(report, default=str))
    for name in unmeasured:
        print(f"unmeasured: {name}")
    print(result_line(run.failed == 0, run.attempted, run.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
