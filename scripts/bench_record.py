#!/usr/bin/env python3
"""Record the benchmark of one checkout as BENCH_<n>.json at this repository's root.

    python scripts/bench_record.py 33                        # this checkout
    python scripts/bench_record.py 32 --checkout ../parent   # say, a git archive of the parent
    python scripts/bench_record.py --compare BENCH_33.json BENCH_34.json

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` inside
the checkout for every workload W of its BENCHMARK.json and every seed S of
SEEDS, T being BENCHMARK.json's run_seconds, and reads the result file each
run leaves in the checkout's perfbench/out/.  Seeds are the outer loop, so a
drift in the host's speed spreads over every workload.  The output holds, per
workload and end-to-end metric, the median and quartiles over the seeds and
every value; per run, its failed and attempted task counts and the provenance
its result file carries (source sha256 and line count, versions, CPU, pins).
The times are the harness's own, put at its reference host's speed by its
probe.

``--compare OLD NEW`` runs nothing: for each workload and end-to-end metric
of two such files it prints both medians and their ratio NEW/OLD, and flags
each change past the metric's bound in this repository's BENCHMARK.json
("worse" or "better" by the metric's direction), and each workload whose
share of failed tasks grew.  It exits 1 when anything got worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3, 4, 5)


def run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in the checkout; its result file."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    subprocess.run(argv, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(checkout, "perfbench", "out", f"result-{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        return json.load(fh)


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "values": values}


def compare(old_path: str, new_path: str, bench: dict) -> int:
    """Print OLD and NEW medians per workload and metric; 1 if any got worse past its bound."""
    with open(old_path) as fh:
        old = json.load(fh)["workloads"]
    with open(new_path) as fh:
        new = json.load(fh)["workloads"]
    worse = 0
    for workload in (w["name"] for w in bench["workloads"]):
        if workload not in old or workload not in new:
            print(f"{workload}: not in both files")
            continue
        a, b = old[workload], new[workload]
        share_a, share_b = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        if share_b > share_a:
            worse += 1
            print(f"{workload} failed: {share_a:.4g} -> {share_b:.4g} of tasks  WORSE")
        for m in bench["end_to_end"]:
            x, y = a["metrics"][m["name"]]["median"], b["metrics"][m["name"]]["median"]
            ratio = y / x if x else float("inf")
            gain = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
            flag = "  WORSE" if gain > m["bound"] else "  better" if gain < -m["bound"] else ""
            worse += flag == "  WORSE"
            print(f"{workload} {m['name']}: {x:.6g} -> {y:.6g} {m['unit']}"
                  f"  x{ratio:.3f} (bound {m['bound']:g}){flag}")
    return 1 if worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("number", type=int, nargs="?", help="n of the BENCH_<n>.json to write")
    ap.add_argument("--checkout", default=ROOT, help="the tree to measure (default: this one)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two BENCH_*.json files instead of running")
    args = ap.parse_args(argv)
    if args.compare:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return compare(*args.compare, json.load(fh))
    if args.number is None:
        ap.error("give the n of BENCH_<n>.json, or --compare OLD NEW")

    with open(os.path.join(args.checkout, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        for workload in workloads:
            result = run(args.checkout, workload, seed, bench["run_seconds"])
            runs[workload].append(result)
            print(f"{workload} seed {seed}: failed {result['failed']} of {result['attempted']}",
                  file=sys.stderr)

    record = {
        "command": f"perfbench/run.py --workload W --seed S --seconds {bench['run_seconds']} --trace 0",
        "seeds": list(SEEDS),
        "workloads": {
            workload: {
                "failed": sum(r["failed"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "metrics": {
                    m["name"]: summary([r["metrics"][m["name"]]["value"] for r in results], m["unit"])
                    for m in bench["end_to_end"]
                },
                "runs": [
                    {"seed": r["seed"], "failed": r["failed"], "attempted": r["attempted"],
                     "provenance": r["provenance"]}
                    for r in results
                ],
            }
            for workload, results in runs.items()
        },
    }
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for workload, entry in record["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: median {m['median']:.6g} {m['unit']}"
                  f" (quartiles {m['q1']:.6g} to {m['q3']:.6g})")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
