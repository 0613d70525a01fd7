"""Solver benchmark: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload shipped_cli --seed 1 --seconds 55 --trace 0

Builds the workload's inputs from ``--seed``, runs its operation back to
back for ``--seconds`` (and at least the workload's minimum number of
operations), checks every output, prints the workload's own figures as
``# name value unit (n=...)`` lines and, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (the
median of several fresh-process imports plus input builds), ``op_s.p50``,
``ops_per_s``, ``peak_rss_mb`` and ``energy_J.mean`` (mean ``sagin_psc``
objective).  With ``--trace 1`` the layer functions
are wrapped from outside (see ``tracer.py``) and the metrics are per-layer
call counts, self-time shares of the operation time and work counts, each
per operation.  The difference between ``bench.traced_op_s.mean`` and
``1 / ops_per_s`` of an untraced run is the tracing overhead.

One ``shipped_cli`` operation solves both shipped scenarios with all four
schemes (8 ``run_scheme`` calls), then runs ``heatmap`` and ``sweep --jobs
2`` through the click entry point.  One ``scale_oracle`` operation is one
``sagin_psc`` solve at K=256, then the four grid oracles on one 2-GT
instance.  Spans and CLI outputs go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
# (name, unit, better) of the end-to-end metrics, as BENCHMARK.json lists them.
END_TO_END = (("setup_s", "s", "lower"), ("op_s.p50", "s", "lower"),
              ("ops_per_s", "1/s", "higher"), ("peak_rss_mb", "MB", "lower"),
              ("energy_J.mean", "J", "lower"))
WORKLOADS = ("shipped_cli", "scale_oracle")
PROBE_TIMEOUT_S = 60


def _import_workloads():
    """Import the package from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import saginpsc
    if Path(saginpsc.__file__).resolve().parent != SRC / "saginpsc":
        raise ImportError(f"saginpsc imported from {saginpsc.__file__}, "
                          f"not from {SRC}")
    import workloads
    return workloads


def setup_probe(name: str, seed: int) -> float:
    """Seconds to import the package and build the workload's inputs."""
    t0 = perf_counter()
    workloads = _import_workloads()
    workloads.build(name, ROOT, seed, OUT_DIR)
    return perf_counter() - t0


def measure_setup(name: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, so imports are paid each time."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def run(args) -> dict:
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    workloads = _import_workloads()
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
    OUT_DIR.mkdir(exist_ok=True)
    span = tracer.span if tracer else (lambda _: contextlib.nullcontext())
    with span("bench.setup"):
        workload = workloads.build(args.workload, ROOT, args.seed, OUT_DIR)

    op_times = []
    op_failures = 0
    start = perf_counter()
    index = 0
    while index < workload.min_ops or perf_counter() - start < args.seconds:
        if tracer:
            tracer.request = index
        t0 = perf_counter()
        try:
            with span("bench.op"):
                workload.run_op(index)
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            op_failures += 1
        else:
            op_times.append(perf_counter() - t0)
        index += 1
    elapsed = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    attempted, failed = workload.check()
    attempted += op_failures
    failed += op_failures

    report = workload.report() if op_times else {}
    if setup_times:
        report["setup_s"] = (statistics.median(setup_times), "s",
                             len(setup_times))
    report["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    report["failed_share"] = (failed / max(1, attempted), "1", attempted)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(op_times)} seconds={elapsed:.3f} nproc={os.cpu_count()}")
    for name, (value, unit, n) in report.items():
        print(f"# {name} {value:.6g} {unit} (n={n})")

    if tracer:
        tracer.save(OUT_DIR / f"spans-{args.workload}-{args.seed}")
        metrics = layer_metrics(tracer.summary(), op_times)
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "op_s.p50": statistics.median(op_times),
                  "ops_per_s": len(op_times) / elapsed,
                  "peak_rss_mb": peak_rss_mb,
                  "energy_J.mean": report["energy_J.mean"][0]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    args.seed %= 2 ** 32
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed))
            return 0
        result = run(args)
    except Exception:  # no result line unless every step ran
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
