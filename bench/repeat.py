"""Run one or more workloads over several seeds and summarise the spread.

    python3 bench/repeat.py --workloads scan cli --seeds 1-10 [--out FILE]

Runs are sequential and untraced, of BENCHMARK.json's ``run_seconds``.  For
each end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
next to the metric's bound in BENCHMARK.json.  ``--out`` writes every run's
final JSON line and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    seconds = bench["run_seconds"]
    doc = {"seconds": seconds, "workloads": {}}
    for wl in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **last})
            print(f"{wl} seed {seed}: correct={last['correct']} attempted={last['attempted']} "
                  f"failed={last['failed']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in last["metrics"].items()), flush=True)
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        doc["workloads"][wl] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {wl:<10} {name:<34} median {s['median']:12.4f}  q1 {s['q1']:12.4f}  "
                  f"q3 {s['q3']:12.4f}  spread {s['spread']:7.2%}"
                  + (f" (bound {bound:.0%})" if bound else "") + flag, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
