#!/usr/bin/env python3
"""Benchmark of gpbudget through its command line, in-process.

    python3 perfbench/run.py --workload casestudy|curves|allocate \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout.  One process generates the load as a closed loop with one
client: each ``gpbudget.cli.main`` call starts when the previous one has
returned.  Whole passes of the workload run for at most ``--seconds``
(at least one pass).  Every call's exit code and output files are
checked; a failed check makes the run exit with code 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes, and reports the per-layer metrics and
the tracing overhead; the spans go to ``.bench_work/traces/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print the
environment and every metric by name with its unit.

``--record-reference`` re-records the ``allocate`` reference values at
the current commit (every budget of the pool).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 1
SETUP_SAMPLES = 5

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed with their sample count but not in the result line: the host's
# speed switches between modes about 30% apart every few seconds, and the
# median of one run's operation latencies jumps between those modes.
OP_PERCENTILES = {"op_ms_p50": "ms", "op_ms_p75": "ms"}

_STAT_UNITS = {"self_s": "s", "ms_p50": "ms", "ms_p99": "ms", "bytes_written": "B",
               "traced_wall_s": "s", "untraced_wall_s": "s", "trace_overhead_s": "s"}

PER_LAYER_NAMES = (
    "kernels.self_s",
    "kernels.gram_matrix.calls", "kernels.gram_matrix.self_s", "kernels.gram_matrix.entries",
    "kernels.cross_matrix.calls", "kernels.cross_matrix.self_s", "kernels.cross_matrix.entries",
    "kernels.kv.calls", "kernels.kv.self_s", "kernels.kv.evals",
    "planner.self_s",
    "planner.fit_hyperparameters.calls", "planner.fit_hyperparameters.self_s",
    "planner.concentrated_log_likelihood.calls", "planner.concentrated_log_likelihood.self_s",
    "planner.concentrated_log_likelihood.ms_p50", "planner.concentrated_log_likelihood.ms_p99",
    "planner.concentrated_log_likelihood.failed",
    "gp_core.self_s",
    "gp_core.fit_blup.calls", "gp_core.fit_blup.self_s",
    "gp_core.predict_mean.calls", "gp_core.predict_mean.self_s",
    "gp_core.predict_mse.calls", "gp_core.predict_mse.self_s",
    "allocation.self_s",
    "allocation.plan_allocation.calls", "allocation.plan_allocation.self_s",
    "allocation.optimal_real_allocation.self_s", "allocation.local_imse_weight.self_s",
    "allocation.heteroscedastic_imse.calls", "allocation.heteroscedastic_imse.self_s",
    "allocation.heteroscedastic_imse.ms_p50",
    "learning_curve.self_s",
    "learning_curve.empirical_learning_curve.calls", "learning_curve.empirical_learning_curve.self_s",
    "spectrum.self_s",
    "spectrum.nystrom_spectrum.calls", "spectrum.nystrom_spectrum.self_s",
    "spectrum.eigenfunction_matrix.calls", "spectrum.eigenfunction_matrix.self_s",
    "sim_harness.self_s",
    "sim_harness.sample_observations.calls", "sim_harness.sample_observations.self_s",
    "cli.self_s", "cli.main.calls", "cli.main.self_s", "cli.bytes_written",
    "linalg.self_s",
    "linalg.cho_factor.calls", "linalg.cho_factor.self_s", "linalg.cho_factor.order_sum",
    "linalg.cho_solve.calls", "linalg.cho_solve.self_s",
    "linalg.solve_triangular.calls", "linalg.solve_triangular.self_s",
    "linalg.eigh.calls", "linalg.eigh.self_s", "linalg.eigh.order_max",
    "bench.traced_wall_s", "bench.untraced_wall_s", "bench.trace_overhead_s",
    "bench.spans", "bench.missing_names",
)
PER_LAYER = {name: _STAT_UNITS.get(name.rsplit(".", 1)[1], "count") for name in PER_LAYER_NAMES}


def load_program():
    """Import gpbudget from this checkout's ``src/``, never from elsewhere."""
    pkg = SRC / "gpbudget"
    if not (pkg / "cli.py").is_file():
        raise SystemExit(f"perfbench: no gpbudget sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gpbudget.cli

    if Path(gpbudget.cli.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported gpbudget from {gpbudget.cli.__file__}, not {pkg}")
    return gpbudget.cli


def _blas_libraries() -> list[dict]:
    """Name, configuration and thread count of each loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    info["config"] = get_config().decode()
                    info["threads"] = int(get_threads())
        out.append(info)
    return out


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = _blas_libraries()
    for lib in blas:
        if lib.get("threads", 0) > nproc:
            print(f"perfbench: warning: {lib['library']} uses {lib['threads']} threads "
                  f"on {nproc} processors", file=sys.stderr)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it reports that
    gpbudget is imported and the workload's inputs are generated."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        took = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    if line.strip() != "ready" or rc != 0:
        raise SystemExit(f"perfbench: set-up run failed (exit code {rc})")
    return took


@dataclass
class Pass:
    wall: float
    latencies: list[float]
    written: int
    spans: tuple[int, int]


class Runner:
    """Runs passes of a workload's operations and checks every call."""

    def __init__(self, cli, ops, outdir: Path):
        self.cli, self.ops, self.outdir = cli, ops, outdir
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def run_pass(self) -> Pass:
        """One pass over the operations, each call timed and then checked."""
        self.passes += 1
        first_span = len(self.tracer.spans) if self.tracer else 0
        latencies, written = [], 0
        for i, op in enumerate(self.ops):
            took = 0.0
            for j, call in enumerate(op):
                out = self.outdir / f"p{self.passes}-{i}-{j}"
                if self.tracer:
                    self.tracer.trace_id += 1
                start = time.perf_counter()
                try:
                    rc = self.cli.main([*call.argv, "--out", str(out)])
                except Exception:
                    traceback.print_exc()
                    rc = None
                took += time.perf_counter() - start
                self.attempted += 1
                if rc == 0:
                    try:
                        problems = call.check(out)
                    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
                        problems = [f"unreadable output: {e!r}"]
                else:
                    problems = [f"exit code {rc}"]
                if problems:
                    self.failed += 1
                    print(f"perfbench: {' '.join(call.argv)}: {'; '.join(problems)}",
                          file=sys.stderr)
                if out.is_dir():
                    written += sum(f.stat().st_size for f in out.iterdir() if f.is_file())
                    shutil.rmtree(out)
            latencies.append(took)
        last_span = len(self.tracer.spans) if self.tracer else 0
        return Pass(sum(latencies), latencies, written, (first_span, last_span))

    def run_for(self, seconds: float) -> list[Pass]:
        """Whole passes for at most ``seconds``, but at least one: another
        pass starts only if a pass of median length still fits."""
        start = time.perf_counter()
        passes = [self.run_pass()]
        while (time.perf_counter() - start
               + statistics.median(p.wall for p in passes) <= seconds):
            passes.append(self.run_pass())
        print("pass wall_s: " + " ".join(f"{p.wall:.4f}" for p in passes))
        return passes


def measure_untraced(runner: Runner, args) -> tuple[dict, dict, int]:
    """End-to-end metrics, then the operation latency percentiles and
    their sample count."""
    setup = [time_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    passes = runner.run_for(args.seconds)
    lat = [t for p in passes for t in p.latencies]
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {
        "op_ms_p50": 1e3 * statistics.median(lat),
        "op_ms_p75": 1e3 * (statistics.quantiles(lat, n=4)[2] if len(lat) > 1 else lat[0]),
    }, len(lat)


def measure_traced(runner: Runner, args, env: dict) -> dict:
    """One untraced pass, then traced passes; per-layer metrics are
    medians over the traced passes."""
    import tracer as tr

    untraced_wall = runner.run_pass().wall
    runner.tracer = tracer = tr.Tracer()
    tracer.install()
    try:
        passes = runner.run_for(args.seconds)
    finally:
        tracer.uninstall()
    selfs = tr.self_times(tracer.spans)
    rows = []
    for p in passes:
        row = tr.summarize(tracer.spans, *p.spans, selfs)
        row.update({
            "cli.bytes_written": p.written,
            "bench.traced_wall_s": p.wall,
            "bench.spans": p.spans[1] - p.spans[0],
        })
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in PER_LAYER if name in rows[0]}
    metrics["bench.untraced_wall_s"] = untraced_wall
    metrics["bench.trace_overhead_s"] = metrics["bench.traced_wall_s"] - untraced_wall
    metrics["bench.missing_names"] = len(tracer.missing())
    for name, where in tracer.found.items():
        print(f"wrapped {name}: {', '.join(where) if where else 'MISSING'}")
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.write(traces / f"{args.workload}-seed{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed, "environment": env,
                  "passes": [p.spans for p in passes], "metrics": metrics})
    return metrics


def record_reference(cli) -> None:
    """Run every budget of the allocate pool and store its imse_optimal."""
    import workloads

    rundir = WORK / f"record-{os.getpid()}"
    values = {}
    try:
        ops = workloads.allocate(0, rundir / "inputs", budgets=workloads.ALLOC_POOL)
        for T, [call] in zip(workloads.ALLOC_POOL, ops):
            out = rundir / f"T{T}"
            if cli.main([*call.argv, "--out", str(out)]) != 0:
                raise SystemExit(f"perfbench: allocate T={T} failed")
            values[str(T)] = json.loads((out / "summary.json").read_text())["imse_optimal"]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    doc = {"design_seed": workloads.ALLOC_DESIGN_SEED, "imse_optimal": values}
    workloads.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("casestudy", "curves", "allocate"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="workload seed (default 1); keep seed 90125 aside for "
                        "confirming a claimed gain")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if args.workload is None and not args.record_reference:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_program()
    import workloads

    if args.record_reference:
        record_reference(cli)
        return 0
    rundir = WORK / f"run-{os.getpid()}"
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, rundir / "inputs")
        if args.setup_only:
            print("ready", flush=True)
            return 0
        env = environment()
        print("environment " + json.dumps(env))
        runner = Runner(cli, ops, rundir / "out")
        percentiles, samples = {}, 0
        if args.trace:
            metrics, units = measure_traced(runner, args, env), PER_LAYER
        else:
            metrics, percentiles, samples = measure_untraced(runner, args)
            units = END_TO_END
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    n_calls = sum(len(op) for op in ops)
    print(f"workload {args.workload} seed {args.seed}: {runner.passes} pass(es) of "
          f"{len(ops)} operation(s), {n_calls} call(s) each")
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:.6g} {unit}")
    for name, value in percentiles.items():
        print(f"  {name:48s} {value:.6g} {OP_PERCENTILES[name]} "
              f"(over {samples} operation(s); not in the result line)")
    print(f"  {'fail_frac':48s} {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.6g} (failed/attempted calls)")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
