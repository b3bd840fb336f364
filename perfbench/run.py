"""cyclegas benchmark: four seeded workloads, each in a fresh child process.

    python3 perfbench/run.py --workload phase-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``phase-grid`` (bosefn, thermo, entropy),
``exact-sums`` (partitions, exactz), ``chain`` (sampler) and ``cli-readme``
(the ``cyclegas`` command, one child per command).  Every task result is
checked against the benchmark's own oracles (oracles.py) outside the timed
region; a task that raises, exits with the wrong code or fails its check
counts in ``failed``.

``--trace 0`` makes a cold pass of the task list, whose results are
checked but whose times are dropped, then a fixed number of timed passes
(workloads.timed_rounds: at least two, else about ``--seconds`` of work
on the reference host).  Every time is put at the reference host's speed
by a probe run beside it (probe.py), and each task's latency is its median
over the timed passes (stats.task_seconds).  The end-to-end metrics:
``wall_s`` (the sum of those latencies: one warm pass of the task list),
``task_p50_ms``, ``task_tail_ms`` (the highest percentile with at least 10
tasks beyond it; the percentile and task count go to the result file),
``setup_s`` (median over five fresh children of process start to first
task) and ``peak_rss_mb`` (the child's own high-water RSS; for cli-readme
the largest command's, read with ``os.wait4``).  ``--trace 1`` makes one
untraced and one traced pass and prints the per-layer metrics of
layers.py, including ``trace.overhead_frac``.  The last line of stdout is
one JSON object; the full result with provenance goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCHEMA = os.path.join(SRC, "cyclegas", "schema", "output.schema.json")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

SETUP_SAMPLES = 5  # children whose set-up time is measured per run (odd)
DEADLINE_S = 170.0
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

E2E = [("wall_s", "s"), ("task_p50_ms", "ms"), ("task_tail_ms", "ms"),
       ("setup_s", "s"), ("peak_rss_mb", "MB")]


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINS)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def run_child(workload, seed, seconds, trace, deadline, mode=None) -> dict:
    """Run child.py to completion and return its report.

    ``mode`` is None for a timed run, "setup-only" or "one-pass".
    """
    tag = f"{workload}-seed{seed}-trace{trace}" + (f"-{mode}" if mode else "")
    out = os.path.join(OUT, tag + ".child.json")
    log = os.path.join(OUT, tag + ".child.log")
    if os.path.exists(out):
        os.remove(out)
    argv = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    if mode:
        argv.append("--" + mode)
    actions = [(os.POSIX_SPAWN_OPEN, fd, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
               for fd in (1, 2)]
    t_spawn = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv + ["--t-spawn", repr(t_spawn)], child_env(),
                         file_actions=actions, setsid=True)
    # wait without reaping, so the child's process-group id cannot be reused before
    # the kill below clears any CLI grandchild left behind by an early exit
    while os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
        if time.monotonic() > deadline:
            os.killpg(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise BenchError(f"{tag}: child exceeded the run deadline")
        time.sleep(0.05)
    os.killpg(pid, signal.SIGKILL)
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not os.path.exists(out):
        with open(log) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{tag}: child exited {code}\n{tail}")
    with open(out) as fh:
        return json.load(fh)


def setup_time(report: dict) -> float:
    """A child's set-up time at the reference host's speed (probe.py)."""
    import probe

    return report["setup_s"] * probe.REF_S / report["setup_probe"]


def check_report(report: dict, checker) -> list[dict]:
    """Oracle-check every record; returns one entry per failed task."""
    tasks = {t["id"]: t for t in report["tasks"]}
    failed = {}
    pools: dict[tuple, list] = {}
    seen: dict[tuple, list] = {}  # rounds mostly repeat a task's result exactly
    for rec in report["records"]:
        task = tasks[rec["id"]]
        key = (rec["id"], json.dumps(rec["data"], sort_keys=True))
        if rec["error"]:
            problems = [rec["error"]]
        elif key in seen:
            problems = list(seen[key])
        else:
            try:
                problems = checker.check(task, rec["data"])
            except (KeyError, TypeError, ValueError) as exc:
                problems = [f"malformed result: {type(exc).__name__}: {exc}"]
            seen[key] = list(problems)
        if problems:
            failed[(rec["id"], rec["round"])] = problems
        if task["kind"] == "run_chain" and not rec["error"]:
            inputs = {k: v for k, v in task["args"].items() if k != "seed"}
            pools.setdefault((rec["round"], json.dumps(inputs, sort_keys=True)), []).append(rec)
    for (r, inputs), recs in pools.items():
        problems = checker.check_pool(json.loads(inputs), [rec["data"] for rec in recs])
        for rec in recs if problems else []:
            failed.setdefault((rec["id"], r), []).extend(problems)
    return [{"id": i, "round": r, "problems": p} for (i, r), p in sorted(failed.items())]


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    src_lines = 0
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "cyclegas")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                digest.update(name.encode() + data)
                if name.endswith(".py"):
                    src_lines += data.count(b"\n")
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "seed": seed,
        "thread_pins": PINS,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


def end_to_end(report: dict, setup: list[float]) -> tuple[dict, dict]:
    import stats

    latencies = stats.task_seconds(report["records"])
    tail_s, percentile = stats.tail(latencies)
    values = {
        "wall_s": sum(latencies),
        "task_p50_ms": statistics.median(latencies) * 1e3,
        "task_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    detail = {"tasks": len(latencies), "rounds": report["rounds"],
              "tail_percentile": percentile, "setup_samples": setup,
              "round_s": report["round_s"]}
    return values, detail


def measure(workload: str, seed: int, seconds: float, trace: int, checker) -> dict:
    """One benchmark run of one workload; returns the result line."""
    import oracles

    start = time.monotonic()
    deadline = start + DEADLINE_S
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "provenance": provenance(seed)}
    if trace == 0:
        # set-up samples before and after the measured child, so their
        # median spans the run rather than one moment of host load
        def setup_only():
            return setup_time(run_child(workload, seed, seconds, 0, deadline, "setup-only"))

        setup = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
        report = run_child(workload, seed, seconds, 0, deadline)
        setup.append(setup_time(report))
        setup += [setup_only() for _ in range(SETUP_SAMPLES // 2)]
        failures = check_report(report, checker)
        attempted = len(report["records"])
        values, detail = end_to_end(report, setup)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}
        result["detail"] = detail
    else:
        import layers

        # one pass each, so counts repeat and the two compare
        base = run_child(workload, seed, seconds, 0, deadline, "one-pass")
        traced = run_child(workload, seed, seconds, 1, deadline, "one-pass")
        failures = check_report(base, checker) + check_report(traced, checker)
        attempted = len(base["records"]) + len(traced["records"])
        with open(traced["spans_file"]) as fh:
            spans = json.load(fh)
        honesty = traced.get("extras", {}).get("honesty")
        if honesty:  # the 2M-step reference chain: checked like a task
            honesty["exact"] = checker.long_cycle_exact(honesty["args"], honesty["threshold"])
            attempted += 1
            if abs(honesty["estimate"] - honesty["exact"]) > oracles.LONG_CYCLE_BAND:
                failures.append({"id": "reference-chain", "round": 0,
                                 "problems": [f"long-cycle fraction {honesty['estimate']}"]})
        values, not_applicable = layers.layer_metrics(spans, traced, base)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in layers.PER_LAYER}
        result.update(not_applicable=not_applicable, extras=traced.get("extras", {}),
                      spans_file=os.path.relpath(traced["spans_file"], ROOT),
                      spans=len(spans),
                      layer_map={name: moves for name, _, _, moves in layers.PER_LAYER})

    line = {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}
    result.update(line, failed_frac=len(failures) / attempted, failures=failures,
                  elapsed_s=time.monotonic() - start)
    path = os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} failed = {len(failures)} of {attempted} tasks")
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cyclegas", "__init__.py")) or not os.path.isfile(SCHEMA):
        print(f"perfbench: no cyclegas sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import oracles
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # every child (and CLI command) inherits this: the probes and the tasks
    # they normalise run on the same CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    checker = oracles.Checker(SCHEMA)
    lines = {}
    try:
        for name in names:
            lines[name] = measure(name, args.seed, args.seconds, args.trace, checker)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{w}/{k}": v for w, line in lines.items() for k, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
