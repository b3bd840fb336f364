"""One workload in one fresh process: set up, run the task list, report.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and this directory, and with the BLAS/OpenMP thread counts pinned to 1.
Set-up runs from process start to the first task: ``import cyclegas``,
input generation from the seed and one warm-up call per layer, so lazy
caches such as the Bernoulli table are filled before timing starts (the
cli-readme commands are processes of their own, so there set-up is input
generation only).  Only the call is inside a task's timed region; the
host-speed probe (probe.py) runs between tasks, and results are reduced to
small JSON summaries outside it and checked by the parent.

    python3 perfbench/child.py --workload phase-grid --seed 1 --seconds 20 \
        --trace 0 --t-spawn <monotonic> --out result.json [--setup-only | --one-pass]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import probe
import workloads

PROBE_EVERY_S = 0.05
MIN_ROUNDS = 2  # the cold round and one timed round
OVERRUN = 3.0  # stop adding rounds past this multiple of --seconds


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--one-pass", action="store_true", help="the cold round only")
    args = ap.parse_args(argv)

    cli = args.workload == "cli-readme"
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        if not cli:  # CLI commands trace themselves through clitrace.py
            tracer.install()
    if cli:
        from clitasks import CliRunner as Runner
    else:
        from libtasks import LibRunner as Runner, warm_up

        warm_up()
    tasks = workloads.build(args.workload, args.seed)
    runner = Runner(os.path.dirname(os.path.abspath(args.out)), tracer)
    setup_s = time.monotonic() - args.t_spawn
    report = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
              "setup_probe": probe.probe()}
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump(report, fh)
        return 0

    # Round 0 is a cold pass: its results are checked but its times are not
    # used.  Timed runs then make a fixed number of timed rounds, set by
    # --seconds and the workload's nominal round time, so every version of
    # the program makes the same count (unless a host is so slow that the
    # run passes OVERRUN times --seconds).  A traced run and the untraced
    # run it is compared with make the one pass, so their counts repeat.
    rounds = 1 if args.one_pass else 1 + workloads.timed_rounds(args.workload, args.seconds)
    # The host-speed probe runs at the task boundary once PROBE_EVERY_S has
    # passed since the last one; every task is normalised by the probes
    # just before and just after it (probe.py).
    records, round_s = [], []
    begin = time.perf_counter()
    for r in range(rounds):
        if r >= MIN_ROUNDS and time.perf_counter() - begin > OVERRUN * args.seconds:
            break  # a host far slower than the reference: stay inside the deadline
        busy = 0.0
        last = probe.probe()
        last_at = time.perf_counter()
        waiting = []  # records that still need the probe after them
        for task in tasks:
            if time.perf_counter() - last_at >= PROBE_EVERY_S:
                last = probe.probe()
                last_at = time.perf_counter()
                for rec in waiting:
                    rec["probe_after"] = last
                waiting = []
            if tracer is not None:
                tracer.task = f"{r}:{task['id']}"
            error = None
            start = time.perf_counter()
            try:
                res = runner.call(task)
            except Exception as exc:  # a failing task is counted, not fatal
                res, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            busy += seconds
            data = None if error else runner.summarize(task, res)
            records.append({"id": task["id"], "kind": task["kind"], "round": r,
                            "seconds": seconds, "probe_before": last, "data": data,
                            "error": error})
            waiting.append(records[-1])
        last = probe.probe()
        for rec in waiting:
            rec["probe_after"] = last
        round_s.append(busy)
    report.update(rounds=len(round_s), round_s=round_s, records=records, tasks=tasks,
                  peak_rss_mb=runner.peak_rss_mb())

    if tracer is not None:
        tracer.task = "post"
        extras, foreign = runner.traced_extras(args.workload, tasks)
        for span in foreign:
            if span["parent"] >= 0:
                span["parent"] += len(tracer.spans)
        tracer.spans.extend(foreign)
        spans_path = os.path.splitext(args.out)[0] + ".spans.json"
        tracer.dump(spans_path)
        report.update(extras=extras, spans_file=spans_path)

    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
