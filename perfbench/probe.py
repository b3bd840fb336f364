"""The host-speed probe that timings are normalised by.

Other tenants of the shared host slow every process on it by up to 1.7x,
in spells that last from under a second to many minutes, so raw task times
of one run can differ from another's by more than any bound worth setting.
A fixed pure-Python loop slows down with them: run at task boundaries, on
the same CPU as the tasks, its time tracks the host's speed.  A task that
took ``seconds`` between probes that took ``p0`` and ``p1`` counts as
``seconds * REF_S / ((p0 + p1) / 2)``: the seconds it would take on the
reference host (a 2-vCPU Xeon VM) when no other tenant competes.

This module imports nothing but the standard library, so the CLI
workload's spawner stays small.
"""

from __future__ import annotations

import time

LOOPS = 50_000
REF_S = 3.0e-3  # the loop on the reference host with no other tenant busy


def probe() -> float:
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def normalised(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference host's speed, from the probes around it."""
    return seconds * REF_S / (0.5 * (before + after))
