"""CLI tasks: each task is one ``python -m cyclegas.cli`` child process.

Used by child.py for the cli-readme workload.  This module imports neither
NumPy nor ``cyclegas``: a spawned process's ``ru_maxrss`` starts from its
spawner's resident set, so the spawner is kept small and the peak RSS read
with ``os.wait4`` is the command's own.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


class CliRunner:
    def __init__(self, out_dir, tracer=None):
        self.out_dir = out_dir
        self.tracer = tracer
        self.rss_mb = 0.0
        self.spans = []
        self.env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))

    def spawn(self, cmd, stdout_path, stderr_path):
        """Run one command to completion; (seconds, exit code, peak RSS in MB)."""
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, cmd, self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        return time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0

    def call(self, task):
        argv = task["args"]["argv"]
        out = os.path.join(self.out_dir, "cli.stdout")
        err = os.path.join(self.out_dir, "cli.stderr")
        if self.tracer is None:
            cmd = [sys.executable, "-m", "cyclegas.cli", *argv]
        else:
            spans_path = os.path.join(self.out_dir, "cli.spans.json")
            cmd = [sys.executable, os.path.join(HERE, "clitrace.py"), spans_path, *argv]
        _, code, rss = self.spawn(cmd, out, err)
        self.rss_mb = max(self.rss_mb, rss)
        if self.tracer is not None:
            self._merge_spans(spans_path)
        with open(out) as fh:
            stdout = fh.read()
        with open(err) as fh:
            stderr = fh.read()
        return {"exit": code, "stdout": stdout, "stderr": stderr[-300:]}

    def summarize(self, task, res):
        return res

    def peak_rss_mb(self):
        return self.rss_mb

    def _merge_spans(self, path):
        if not os.path.exists(path):  # the command died before writing spans
            return
        with open(path) as fh:
            spans = json.load(fh)
        os.remove(path)
        offset = len(self.spans)
        for span in spans:
            span["task"] = self.tracer.task
            if span["parent"] >= 0:
                span["parent"] += offset
        self.spans.extend(spans)

    def traced_extras(self, workload, tasks):
        cmd = [sys.executable, "-c", "import cyclegas.cli"]
        sink = os.path.join(self.out_dir, "cli.import.out")
        times = [self.spawn(cmd, sink, sink)[0] for _ in range(3)]
        return {"cli_import_s": statistics.median(times)}, self.spans
