"""Benchmark of the working tree's ``src/quermass``; nothing is installed.

    python3 bench/run.py --workload {scan,certify,identities,cli} --seed N \
        --seconds S --trace {0,1}

A closed loop with one client: each job starts after the previous one ends.
The run builds the workload in this process, then runs whole rounds of jobs
until S seconds have passed and at least MIN_JOBS jobs have completed, and
checks every output.  Between rounds it times SETUP_STARTS fresh interpreters
from spawn to ready; ``setup_s`` is their median.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Spans, timings and check results are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: One BLAS/OpenMP thread: the load is one client process on a 2-core machine.
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}
SETUP_STARTS = 7
#: The tail is the slowest job with at least TAIL_BEYOND jobs beyond it; a run
#: of MIN_JOBS jobs puts it at p75 or higher.  A run cut short with fewer jobs
#: reports the median as its tail.
TAIL_BEYOND = 10
MIN_JOBS = 40
#: A run that has not completed MIN_JOBS jobs stops after this much timed work,
#: far enough above every workload's 40 jobs (25-33 s here) that a slower
#: machine does not cut runs short, and low enough to end within 180 s.
MAX_TIMED_S = 100.0


def child_env() -> dict:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def fresh_start(workload: str, seed: int, env: dict) -> tuple[float, dict]:
    """Seconds from spawning an interpreter to the workload being ready."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
                            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    _, err = proc.communicate()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}):\n{err}")
    return ready, json.loads(line)


class Run:
    """Jobs of one run: wall times, outputs, failures, memory and layer totals."""

    def __init__(self):
        self.times: list[float] = []
        self.records: list[tuple] = []
        self.failures: list[str] = []
        self.attempted = self.failed = self.peak_kb = 0
        self.totals: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}

    def add_layers(self, totals: dict, counters: dict) -> None:
        for name, (secs, calls) in totals.items():
            acc = self.totals.setdefault(name, [0.0, 0])
            acc[0] += secs
            acc[1] += calls
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value


def in_process_rounds(wl, run: Run, tracer):
    """Round runner for the workloads whose jobs run in this process."""

    def run_round(i: int) -> None:
        for label, fn in wl.round(i):
            span = tracer.begin("bench.job" if label else "bench.step") if tracer else None
            t = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            dt = time.perf_counter() - t
            if tracer:
                tracer.end(span)
            if label is None:
                if isinstance(out, Exception):
                    run.failures.append(f"round {i} step: {out!r}")
                continue
            run.attempted += 1
            if isinstance(out, Exception):
                run.failed += 1
                run.failures.append(f"round {i} {label}: {out!r}")
                continue
            run.times.append(dt)
            run.records.append((label, out))
        run.peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    return run_round


def importtime_ms(log: Path, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output."""
    with open(log) as fh:
        for line in fh:
            if line.startswith("import time:"):
                fields = line[len("import time:"):].split("|")
                if len(fields) == 3 and fields[2].strip() == module:
                    return int(fields[1]) / 1e3
    return 0.0


def cli_rounds(wl, run: Run, out_dir: Path, env: dict, traced: bool):
    """Round runner for the CLI workload: one child process at a time."""
    from spans import Tracer

    report, log, spans = out_dir / "report.json", out_dir / "stderr.txt", out_dir / "child-spans.json"

    def run_round(i: int) -> None:
        for label, argv, inputs in wl.round(i):
            run.attempted += 1
            report.unlink(missing_ok=True)
            t = time.perf_counter()
            code, kb = wl.run_job(argv, report, log, env, spans if traced else None)
            dt = time.perf_counter() - t
            run.peak_kb = max(run.peak_kb, kb)
            if code not in (0, 3) or not report.exists():
                run.failed += 1
                run.failures.append(f"round {i} {label}: exit {code}: {log.read_text()[-500:]}")
                continue
            run.times.append(dt)
            with open(report) as fh:
                run.records.append((label, code, inputs, json.load(fh)))
            if traced:
                child = Tracer()
                with open(spans) as fh:
                    doc = json.load(fh)
                child.spans = doc["spans"]
                doc["counters"]["import_scipy_special_ms"] = importtime_ms(log, "scipy.special")
                run.add_layers(child.self_times(), doc["counters"])

    return run_round


def measure(run_round, run: Run, seconds: float, fresh):
    """Whole rounds until ``seconds`` have passed and MIN_JOBS jobs completed.

    The SETUP_STARTS fresh starts are spread over the run, between rounds, so
    that ``setup_s`` samples the same stretch of time as the jobs; their time
    is left out of the timed part.  The run's progress is the lesser of its
    two stopping conditions, so it reaches 1 when the run can stop.  Returns
    (timed seconds, rounds, starts).
    """
    starts = [fresh()]
    timed, i = 0.0, 0
    while True:
        t = time.perf_counter()
        run_round(i)
        timed += time.perf_counter() - t
        i += 1
        progress = min(timed / seconds, len(run.times) / MIN_JOBS)
        while len(starts) < SETUP_STARTS and progress >= len(starts) / SETUP_STARTS:
            starts.append(fresh())
        if timed >= seconds and (len(run.times) >= MIN_JOBS or timed >= MAX_TIMED_S):
            break
    while len(starts) < SETUP_STARTS:
        starts.append(fresh())
    return timed, i, starts


def tail(sorted_times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the slowest job with TAIL_BEYOND jobs beyond it.

    With fewer than MIN_JOBS jobs that percentile would fall below p75, so
    the median stands in for it.
    """
    n = len(sorted_times)
    if n < MIN_JOBS:
        return statistics.median(sorted_times), 50.0
    idx = n - 1 - TAIL_BEYOND
    return sorted_times[idx], 100.0 * (idx + 1) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["scan", "certify", "identities", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quermass" / "__init__.py").is_file():
        print(f"error: no quermass sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREADS)  # before numpy is imported in this process
    sys.path.insert(0, str(SRC))
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = child_env()

    from spans import Tracer, install, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    run = Run()
    tracer = None
    if args.workload == "cli":
        run_round = cli_rounds(wl, run, out_dir, env, bool(args.trace))
    else:
        if args.trace:
            tracer = Tracer()
            install(tracer)
        run_round = in_process_rounds(wl, run, tracer)
    wall, rounds, starts = measure(run_round, run, args.seconds,
                                   lambda: fresh_start(args.workload, args.seed, env))
    if tracer:
        run.add_layers(tracer.self_times(), tracer.counters)
        tracer.dump(out_dir / "spans.json")
    if args.workload == "cli":
        errors = [e for rec in run.records for e in wl.check_job(*rec)]
    else:
        errors = wl.check(run.records)
    setup_s = statistics.median(s for s, _ in starts)

    times = sorted(run.times)
    jobs = len(times)
    if jobs == 0:
        print("error: no job completed:\n" + "\n".join(run.failures[:5]), file=sys.stderr)
        return 1
    tail_s, tail_pct = tail(times)
    end_to_end = {
        "jobs_per_s": {"value": jobs / wall, "unit": "1/s"},
        "job_ms_p50": {"value": statistics.median(times) * 1e3, "unit": "ms"},
        "job_ms_tail": {"value": tail_s * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": run.peak_kb / 1024.0, "unit": "MB"},
    }
    if args.trace:
        metrics = layer_metrics(run.totals, run.counters, jobs)
        metrics["setup.import_ms"] = {
            "value": statistics.median(p["import_s"] for _, p in starts) * 1e3, "unit": "ms"}
        metrics["setup.inputs_ms"] = {
            "value": statistics.median(p["inputs_s"] for _, p in starts) * 1e3, "unit": "ms"}
    else:
        metrics = end_to_end

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs": jobs, "rounds": rounds, "wall_s": wall,
        "tail_percentile": tail_pct, "setup_samples_s": [s for s, _ in starts],
        "end_to_end": end_to_end, "failures": run.failures, "check_errors": errors,
        "job_s": run.times, "labels": [rec[0] for rec in run.records],
    }
    if args.trace:
        detail["layer_totals"] = run.totals
        detail["per_layer"] = metrics
    with open(out_dir / "result.json", "w") as fh:
        json.dump(detail, fh, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {jobs} jobs in "
          f"{wall:.2f} s ({rounds} rounds), tail at p{tail_pct:.0f}, "
          f"{run.failed} failed, {len(errors)} check errors")
    for name, m in end_to_end.items():
        print(f"  {name:<12} {m['value']:12.4f} {m['unit']}")
    for line in (run.failures + errors)[:10]:
        print(f"  ! {line}")
    print(json.dumps({"correct": not errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
