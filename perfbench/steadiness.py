#!/usr/bin/env python3
"""Steadiness check: runs workloads on several seeds and reports each end-to-end
metric's spread against the bound BENCHMARK.json gives it.

    python3 perfbench/steadiness.py --runs 10 --seed-base 1
    python3 perfbench/steadiness.py --runs 10 --seed-base 1001   # the second seed set

The spread is the distance between the first and third quartile of the runs'
values (statistics.quantiles, n=4) as a share of their median.  A benchmark is
steady when every spread, setup_s's too, stays below a third of its bound.
Results are also written to .bench_out/steadiness-<seed-base>.json.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    steady = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.seed_base + i
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            try:
                result = json.loads(proc.stdout.strip().split("\n")[-1])
            except json.JSONDecodeError:
                result = None
            if proc.returncode != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                steady = False
            if result is None:
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        report[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < bounds[name] / 3
            steady = steady and ok
            report[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                      "bound": bounds[name], "values": vals}
            print(f"{workload:12s} {name:16s} median {med:12.6g}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}  {'ok' if ok else 'TOO WIDE'}", flush=True)
    out = ROOT / ".bench_out" / f"steadiness-{args.seed_base}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
