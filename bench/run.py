"""Closed-loop benchmark of the kickback package.

    python3 bench/run.py --workload order-find --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. One client in one process sends the next
job only after the last one completed. A run does as many whole cycles of
the workload's job slots as take about ``--seconds`` at seed, checks every
answer against an independent reference, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs a fixed job list once untraced and twice traced, checks
the tracer's counts against analytic counts and against each other, and
reports the per-layer metrics. bench/README.md maps each metric to the
workload it should move on.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
MIN_TAIL_BEYOND = 10
MAX_PROBLEMS_SHOWN = 20
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(nproc: int) -> int:
    """Cap every BLAS thread-count variable at nproc before numpy loads."""
    cap = nproc
    for var in BLAS_THREAD_VARS:
        raw = os.environ.get(var, "")
        if raw.isdigit() and 0 < int(raw) < cap:
            cap = int(raw)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def machine_info() -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level = read(f"{base}/level")
        if level in ("2", "3"):
            caches[f"l{level}"] = read(f"{base}/size")
    return {"cpu_model": cpu, "l2": caches.get("l2", "unknown"), "l3": caches.get("l3", "unknown")}


class Clock:
    """Sums the time spent inside program calls; the recorder records only then."""

    def __init__(self, recorder=None):
        self.total = 0.0
        self.recorder = recorder

    def __enter__(self):
        if self.recorder is not None:
            self.recorder.active = True
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._start
        if self.recorder is not None:
            self.recorder.active = False


class Pass:
    """Latencies and failures of a sequence of jobs."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.trials = 0
        self.errors = []

    def run(self, workloads, job, recorder=None) -> None:
        clock = Clock(recorder)
        queries_before = recorder.oracle_calls if recorder else 0
        try:
            info = workloads.run_job(job, clock)
        except Exception as exc:  # a failed job is counted, reported, and the loop goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{job[0]} job failed: {exc!r}\n{traceback.format_exc()}")
            info = {}
        self.latencies.append(clock.total)
        self.trials += info.get("trials", 0)
        if recorder is not None:
            recorder.bytes_out += info.get("bytes_out", 0)
            made = recorder.oracle_calls - queries_before
            if "queries" in info and made != info["queries"]:
                recorder.errors.append(f"{job[0]} job made {made} oracle queries, expected {info['queries']}")

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def tail(latencies: list) -> tuple:
    """The highest percentile with at least MIN_TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= MIN_TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - 1 - MIN_TAIL_BEYOND], 100.0 * (n - MIN_TAIL_BEYOND) / n, n


def reimport_package() -> None:
    """Execute the kickback package and its CLI afresh in this process.

    The package's modules leave sys.modules, are imported again, and the
    first import's modules are then put back, so the jobs and the tracer
    keep the module objects they hold.
    """
    def ours():
        return [k for k in sys.modules if k == "kickback" or k.startswith("kickback.")]

    kept = {k: sys.modules.pop(k) for k in ours()}
    try:
        importlib.import_module("kickback.cli")
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(kept)


def set_up(workloads, name: str, seed: int, cycles: int) -> tuple:
    """One set-up: import the package afresh, generate the job list, warm up.

    Returns the job list, the seconds taken and the warm-up's errors.
    """
    import numpy as np

    start = time.perf_counter()
    reimport_package()
    jobs = workloads.job_list(name, seed, cycles)
    warm = Pass()
    for job in workloads.make_jobs(np.random.default_rng(seed), workloads.WORKLOADS[name].warmup):
        warm.run(workloads, job)
    return jobs, time.perf_counter() - start, warm.errors


def timed(workloads, name: str, seed: int, cycles: int) -> tuple:
    """The untraced closed loop, with SETUP_REPEATS set-ups spread through it.

    The first set-up makes the job list. The others repeat it between jobs,
    so the median set-up time samples the machine over the whole run, as
    the job latencies do.
    """
    jobs, seconds, problems = set_up(workloads, name, seed, cycles)
    setup_times = [seconds]
    extra_setups = [0] * len(jobs)
    for k in range(1, SETUP_REPEATS):
        extra_setups[k * len(jobs) // SETUP_REPEATS] += 1
    done = Pass()
    for job, setups in zip(jobs, extra_setups):
        for _ in range(setups):
            _, seconds, errors = set_up(workloads, name, seed, cycles)
            setup_times.append(seconds)
            problems += errors
        done.run(workloads, job)
    return jobs, done, statistics.median(setup_times), problems


def end_to_end(done: Pass, setup_s: float) -> tuple:
    value, percentile, samples = tail(done.latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": ((len(done.latencies) - done.failed) / done.busy, "1/s"),
        "job_p50_s": (statistics.median(done.latencies), "s"),
        "job_tail_s": (value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    extra = {"tail_percentile": percentile, "tail_samples": samples}
    return metrics, extra


def traced(workloads, tracer, name: str, jobs: list) -> tuple:
    """Untraced and traced passes over one job list, alternating.

    The first untraced pass also pages in the memory the largest jobs use,
    so the overhead compares the traced passes with the second one.
    """
    passes = []
    for traced_pass in (False, True, False, True):
        recorder = tracer.Recorder() if traced_pass else None
        done = Pass()
        if recorder is not None:
            recorder.install()
        try:
            for job in jobs:
                done.run(workloads, job, recorder)
        finally:
            if recorder is not None:
                recorder.uninstall()
        passes.append((recorder, done))
    _, (first, done_a), (_, plain), (second, done_b) = passes
    problems = first.errors + second.errors
    problems += [f"patch point {p} recorded no call" for p in first.unreached(name)]
    if first.counts() != second.counts():
        diff = sorted(k for k in first.counts().keys() | second.counts().keys()
                      if first.counts().get(k) != second.counts().get(k))
        problems.append(f"two traced passes disagree on {diff[:10]}")
    if first.network_runs() != done_a.trials:
        problems.append(f"network runs {first.network_runs()} != sum of trials {done_a.trials}")
    overhead = (done_a.busy + done_b.busy) / (2 * plain.busy) - 1
    units = {m: u for m, u, _ in tracer.LAYER_METRICS}
    metrics = {m: (v, units[m]) for m, v in first.layer_metrics(overhead).items()}
    failed = 0
    for _, done in passes:
        problems += done.errors
        failed += done.failed
    return metrics, problems, len(jobs) * len(passes), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("order-find", "wide-qft", "suite-small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kickback" / "__init__.py").is_file():
        print(f"error: no kickback package under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas_threads = cap_blas_threads(nproc)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import tracer
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    if args.trace:
        jobs, _, problems = set_up(workloads, args.workload, args.seed, spec.trace_cycles)
        metrics, trace_problems, attempted, failed = traced(workloads, tracer, args.workload, jobs)
        problems += trace_problems
    else:
        cycles = workloads.cycles_for(args.workload, args.seconds)
        jobs, done, setup_s, problems = timed(workloads, args.workload, args.seed, cycles)
        metrics, extra = end_to_end(done, setup_s)
        problems += done.errors
        attempted, failed = len(done.latencies), done.failed
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs_digest": hashlib.sha256(repr(jobs).encode()).hexdigest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **machine_info(),
        "blas_threads": blas_threads,
    }
    if not args.trace:
        info.update(extra, cycles=cycles, failed_ratio=failed / attempted)
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(problem, file=sys.stderr)
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"... and {len(problems) - MAX_PROBLEMS_SHOWN} more problems", file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
