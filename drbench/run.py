"""drbench: layered benchmark for drnets.

Usage, from the root of a checkout:

    python3 drbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from the checkout's ``src``.  The last line on
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Results and traces are also written under
``.drbench_runs/`` in the checkout.  See drbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".drbench_runs"
SETUP_RUNS = 3
# One BLAS thread per process.  The program's own parallelism is its worker
# processes; BLAS threads on top of them oversubscribe the CPUs, and on the
# small matrices here they add spinning CPU time and wall-time noise.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "estimate_s": "s",
    "reps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ci_width": "outcome",
}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def thread_environment() -> dict:
    import numpy
    import scipy
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            **{k: os.environ.get(k) for k in ("DRNETS_THREADS",) + BLAS_THREAD_VARS}}


def steal_seconds() -> float:
    """CPU time the host took from this machine, from /proc/stat (0 if unreadable)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def import_seconds() -> float:
    """Median wall time of ``import drnets`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import drnets"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, measure for ``seconds`` and check one workload; return the result."""
    import tracing
    import workloads
    from workloads import cpu_seconds

    steal0 = steal_seconds()
    RUNS_DIR.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    workdir = RUNS_DIR / f"{tag}-pid{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    try:
        workload = workloads.WORKLOADS[name](seed, workdir, tiny)
        if tracer is not None:
            tracer.install()
        import_s = 0.0 if trace else import_seconds()
        setup_times = []
        for _ in range(1 if trace else SETUP_RUNS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)

        walls, cpus, widths, op_failures = [], [], [], []
        start = time.perf_counter()
        while (len(walls) < len(workload.inputs)
               and (not walls or time.perf_counter() - start < seconds)):
            i = len(walls)
            seen = len(tracer.failures) if tracer else 0
            span = tracer.begin("bench.op") if tracer else None
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            try:
                output, error = workload.execute(i, tracer is not None), None
            except Exception as exc:  # an operation's failure is counted, not fatal
                output, error = None, exc
                traceback.print_exc(file=sys.stderr)
            walls.append(time.perf_counter() - t0)
            cpus.append(cpu_seconds() - cpu0)
            if span is not None:
                tracer.end(span)
            if error is not None:
                op_failures.append(([f"raised {error!r}"], True))
                widths.append(math.nan)
                continue
            fails, width = workload.check(i, output)
            if tracer is not None:
                fails += tracer.failures[seen:]
            op_failures.append((fails, False))
            widths.append(width)

        if tracer is not None:
            seen = len(tracer.failures)
            metrics = tracer.layer_metrics()
            tracer.uninstall()
            extra, fails = workload.finish_traced(walls)
            metrics.update(extra)
            op_failures[0][0].extend(tracer.failures[seen:] + fails)
            tracer.write(RUNS_DIR / f"{name}-seed{seed}.trace.jsonl")
            units = tracing.PER_LAYER_UNITS
        else:
            reps = workload.reps_per_op
            finite = [w for w in widths if math.isfinite(w)]
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "estimate_s": statistics.median(walls) / reps,
                "reps_per_s": reps * len(walls) / math.fsum(walls),
                "cpu_s": statistics.median(cpus) / reps,
                "peak_rss_mb": peak_rss_mb(),
                "ci_width": math.fsum(finite) / len(finite) if finite else math.nan,
            }
            units = END_TO_END_UNITS
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for i, (fails, _) in enumerate(op_failures):
        for message in fails:
            print(f"{name} operation {i}: {message}", file=sys.stderr)
    result = {
        "correct": not any(fails and not raised for fails, raised in op_failures),
        "attempted": len(op_failures),
        "failed": sum(1 for fails, _ in op_failures if fails),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    with open(RUNS_DIR / f"{tag}.json", "w") as fh:
        json.dump({"result": result, "environment": thread_environment(),
                   "op_walls_s": walls, "setup_s": setup_times,
                   "host_steal_s": steal_seconds() - steal0}, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "drnets" / "__init__.py").is_file():
        print(f"error: no drnets sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
