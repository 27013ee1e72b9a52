#!/usr/bin/env python3
"""Run the benchmark several times per workload and summarise the spread.

    python3 perfbench/collect.py --runs 10 [--workloads a,b] [--first-seed N]
                                 [--traced 1] [--tag TAG]

Each run is ``run.py`` in a fresh process with its own seed. For every
end-to-end metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, (q3 - q1) / median,
next to a third of the metric's bound in BENCHMARK.json. ``--traced N``
adds N traced runs per workload and records the medians of their per-layer
metrics. ``--tag`` writes everything to ``perfbench/results/BENCH_<tag>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["raw"] = next((l.strip() for l in lines if l.lstrip().startswith("raw:")), None)
    return result


def spread(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--traced", type=int, default=0)
    p.add_argument("--tag", default=None)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {
        "tag": args.tag,
        "host": {"cpus": os.cpu_count(), "platform": platform.platform(),
                 "python": platform.python_version()},
        "run_seconds": args.seconds,
        "workloads": {},
    }
    steady = True
    for name in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [one_run(name, s, args.seconds, 0) for s in seeds]
        entry = {"runs": runs, "end_to_end": {}}
        print(f"{name}: {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} proofs failed")
        for metric, bound in bounds.items():
            s = spread([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            ok = metric == "setup_s" or s["spread"] < bound / 3
            steady &= ok
            print(f"  {metric:16s} median {s['median']:.6g} {s['unit']:5s} "
                  f"spread {s['spread']:.4f} (bound/3 {bound / 3:.4f}){'' if ok else '  WIDE'}")
        if args.traced:
            traced = [one_run(name, s, args.seconds, 1)
                      for s in range(args.first_seed, args.first_seed + args.traced)]
            entry["traced_runs"] = traced
            entry["per_layer"] = {
                k: {"median": statistics.median(t["metrics"][k]["value"] for t in traced),
                    "unit": traced[0]["metrics"][k]["unit"]}
                for k in traced[0]["metrics"]
            }
        report["workloads"][name] = entry
    if args.tag:
        out = HERE / "results" / f"BENCH_{args.tag}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
