#!/usr/bin/env python3
"""Record the benchmark of one checkout as BENCH_<n>.json at this repository's root.

    python scripts/bench_record.py 33                        # this checkout
    python scripts/bench_record.py 32 --checkout ../parent   # say, a git archive of the parent
    python scripts/bench_record.py 35 --parent ../parent     # this checkout and its parent, paired
    python scripts/bench_record.py --compare BENCH_33.json BENCH_34.json
    python scripts/bench_record.py --compare BENCH_35.json   # its two sides

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` inside
the checkout for every workload W of its BENCHMARK.json and every seed S of
SEEDS (1-10, the ten pairs a claimed gain is judged on), T being
BENCHMARK.json's run_seconds, and reads the result file each run leaves in
the checkout's perfbench/out/.  Seeds are the outer loop, so a drift in the
host's speed spreads over every workload.  The output holds, per workload
and end-to-end metric, the median and quartiles over the seeds and
every value; per run, its failed and attempted task counts and the provenance
its result file carries (source sha256 and line count, versions, CPU, pins).
The times are the harness's own, put at its reference host's speed by its
probe.

``--parent CHECKOUT`` runs that checkout too, each seed's run of a workload
back to back with the measured checkout's, the parent going first at the
first, third, ... seed and second at the others, so that both sides see the
same host.  The file then holds, per workload, the parent's side under
"parent" (the same fields) and under "wins" the number of seeds at which the
measured checkout beat the parent on each end-to-end metric.  It refuses a
pair whose absolute paths differ in length, and a pair where either checkout
holds src/cyclegas/__pycache__ (see unfair_pair).  Every run is made with
PYTHONDONTWRITEBYTECODE=1, so that no run leaves a cache behind.

After the workloads it runs the checkout's tier-1 suite once per side
(``python -m pytest -q --continue-on-collection-errors --durations=10``
with src on PYTHONPATH, no bytecode and no pytest cache written) and keeps
under "tier1" its passed and failed counts (errors count as failed), its
wall seconds and its 10 slowest tests; with --parent, the parent's run sits
under "tier1" "parent".

``--compare OLD NEW`` runs nothing: for each workload and end-to-end metric
of two such files it prints both medians and their ratio NEW/OLD, and flags
each change past the metric's bound in this repository's BENCHMARK.json
("worse" or "better" by the metric's direction), and each workload whose
share of failed tasks grew.  ``--compare FILE`` does the same for the parent
side and the measured side of one file recorded with --parent, and prints
each metric's wins.  It exits 1 when anything got worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = tuple(range(1, 11))


def run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in the checkout, writing no bytecode; its result file."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(argv, cwd=checkout, check=True, stdout=subprocess.DEVNULL, env=env)
    path = os.path.join(checkout, "perfbench", "out", f"result-{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        return json.load(fh)


def run_tier1(checkout: str) -> tuple[str, float]:
    """The checkout's tier-1 suite, writing no bytecode or cache: its output and wall seconds."""
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            "--durations=10", "-p", "no:cacheprovider"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    return proc.stdout, time.perf_counter() - start


def tier1(output: str, wall_s: float) -> dict:
    """Counts, wall time and slowest tests of one tier-1 run from its pytest -q output.

    The counts come from the last summary line ("1 failed, 902 passed in
    54.67s"); errors count as failed.  slowest lists the --durations lines.
    """
    summary = [line for line in output.splitlines() if re.search(r" in [\d.]+s\b", line)] or [""]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary[-1])}
    slowest = [
        {"seconds": float(m[1]), "when": m[2], "test": m[3]}
        for m in re.finditer(r"^([\d.]+)s (call|setup|teardown) +(\S.*)$", output, re.M)
    ]
    return {
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0),
        "wall_s": wall_s,
        "slowest": slowest,
    }


def unfair_pair(checkout: str, parent: str) -> str | None:
    """Why two checkouts cannot be timed against each other, or None.

    The harness's times lean with the length of a checkout's absolute path:
    with the parent at a longer path the chain workload read 4.5-9.3% slower
    than at an equal length.  And a checkout holding src/cyclegas/__pycache__
    loads bytecode where the other compiles its source: setup_s read about
    10% lower.
    """
    paths = [os.path.abspath(tree) for tree in (checkout, parent)]
    if len(paths[0]) != len(paths[1]):
        return f"the paths differ in length ({len(paths[0])} and {len(paths[1])}): {paths}"
    for tree in paths:
        cache = os.path.join(tree, "src", "cyclegas", "__pycache__")
        if os.path.exists(cache):
            return f"{cache} holds bytecode; remove it"
    return None


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "values": values}


def compare(old_path: str, new_path: str | None, bench: dict) -> int:
    """Print OLD and NEW medians per workload and metric; 1 if any got worse past its bound.

    With new_path None, OLD is one file recorded with --parent: its parent
    side against its own, with each metric's wins.
    """
    with open(old_path) as fh:
        old = json.load(fh)["workloads"]
    if new_path is None:
        new, old = old, {w: entry["parent"] for w, entry in old.items()}
    else:
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
            wins = ""
            if new_path is None:
                wins = f"  wins {b['wins'][m['name']]}/{len(b['runs'])}"
            print(f"{workload} {m['name']}: {x:.6g} -> {y:.6g} {m['unit']}"
                  f"  x{ratio:.3f} (bound {m['bound']:g}){flag}{wins}")
    return 1 if worse else 0


def side(results: list[dict], bench: dict) -> dict:
    """One checkout's runs of one workload: failed share, metric summaries, provenance."""
    return {
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


def build_record(
    checkout: str, parent: str | None, bench: dict, runner=run, tier1_runner=None
) -> dict:
    """Run every workload and seed in checkout (and parent, paired), then tier-1; the BENCH record.

    tier1_runner(tree) returns tier-1's output and wall seconds; None means run_tier1.
    """
    workloads = [w["name"] for w in bench["workloads"]]
    trees = [checkout] if parent is None else [checkout, parent]
    runs = [{w: [] for w in workloads} for _ in trees]
    indexed = list(enumerate(trees))
    for i, seed in enumerate(SEEDS):
        for workload in workloads:
            for j, tree in indexed if i % 2 else indexed[::-1]:
                result = runner(tree, workload, seed, bench["run_seconds"])
                runs[j][workload].append(result)
                print(f"{workload} seed {seed} {tree}: failed {result['failed']}"
                      f" of {result['attempted']}", file=sys.stderr)

    suites = [None] * len(trees)
    for j, tree in indexed[::-1]:  # the parent first, as at the first seed
        suites[j] = tier1(*(tier1_runner or run_tier1)(tree))
        print(f"tier-1 {tree}: {suites[j]['passed']} passed, {suites[j]['failed']} failed"
              f" in {suites[j]['wall_s']:.1f} s", file=sys.stderr)

    record = {
        "command": f"perfbench/run.py --workload W --seed S --seconds {bench['run_seconds']} --trace 0",
        "seeds": list(SEEDS),
        "workloads": {w: side(runs[0][w], bench) for w in workloads},
        "tier1": suites[0],
    }
    if parent is not None:
        record["tier1"]["parent"] = suites[1]
        record["parent_first"] = [i % 2 == 0 for i in range(len(SEEDS))]
        for w in workloads:
            entry = record["workloads"][w]
            entry["parent"] = side(runs[1][w], bench)
            entry["wins"] = {}
            for m in bench["end_to_end"]:
                ours = entry["metrics"][m["name"]]["values"]
                theirs = entry["parent"]["metrics"][m["name"]]["values"]
                sign = 1 if m["better"] == "lower" else -1
                entry["wins"][m["name"]] = sum(sign * (y - x) < 0 for x, y in zip(theirs, ours))
    return record


def main(argv=None, runner=run, tier1_runner=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("number", type=int, nargs="?", help="n of the BENCH_<n>.json to write")
    ap.add_argument("--checkout", default=ROOT, help="the tree to measure (default: this one)")
    ap.add_argument("--parent", help="a second tree to run paired with the first, seed by seed")
    ap.add_argument("--compare", nargs="+", metavar="FILE",
                    help="compare OLD NEW, or one file's parent and measured sides, instead of running")
    args = ap.parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            ap.error("--compare takes OLD NEW, or one file recorded with --parent")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            new = args.compare[1] if len(args.compare) == 2 else None
            return compare(args.compare[0], new, json.load(fh))
    if args.number is None:
        ap.error("give the n of BENCH_<n>.json, or --compare")

    if args.parent is not None:
        unfair = unfair_pair(args.checkout, args.parent)
        if unfair:
            ap.error(f"--parent: the pair would not be timed alike: {unfair}")
    with open(os.path.join(args.checkout, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    record = build_record(args.checkout, args.parent, bench, runner, tier1_runner)
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for workload, entry in record["workloads"].items():
        for name, m in entry["metrics"].items():
            line = (f"{workload} {name}: median {m['median']:.6g} {m['unit']}"
                    f" (quartiles {m['q1']:.6g} to {m['q3']:.6g})")
            if "parent" in entry:
                p = entry["parent"]["metrics"][name]
                line += (f"; parent {p['median']:.6g} ({p['q1']:.6g} to {p['q3']:.6g}),"
                         f" wins {entry['wins'][name]}/{len(SEEDS)}")
            print(line)
    suites = {"tier-1": record["tier1"], "parent tier-1": record["tier1"].get("parent")}
    for name, suite in suites.items():
        if suite is not None:
            print(f"{name}: {suite['passed']} passed, {suite['failed']} failed"
                  f" in {suite['wall_s']:.1f} s")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
