"""Seeded task lists for the four benchmark workloads.

A task is a plain dict ``{"id", "kind", "args"}``; the child process maps
``kind`` onto a public ``cyclegas`` call (or a CLI command line) and the
parent checks the result against an oracle keyed by the same task.  Inputs
are drawn from fixed strata with seeded jitter, so every seed yields the
same mix of cheap, expensive and edge inputs.  Where a task's cost is a
step function of its input (near-critical density roots, enumeration size),
the jitter is tiny or the size is fixed, so the cost is the same for every
seed.

This module imports nothing from ``cyclegas``: the program receives only the
generated inputs.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("phase-grid", "exact-sums", "chain", "cli-readme")

BETA_UNIT = 1.0 / (4.0 * math.pi)
ZETA_3_HALVES = 2.6123753486854883  # zeta(3/2), used only to place inputs
BETAS = (BETA_UNIT, 0.25, 1.0)

TOL = 1e-10  # certified tolerance requested from every thermo call


def rho_c3(beta: float) -> float:
    """Critical density in d = 3 (input placement only, not an oracle)."""
    return ZETA_3_HALVES / (4.0 * math.pi * beta) ** 1.5


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _tiny(rng: random.Random, x: float, rel: float = 1e-6) -> float:
    return x * (1.0 + rng.uniform(-rel, rel))


def _strata(rng: random.Random, edges: list[float], log: bool = False) -> list[float]:
    out = []
    for lo, hi in zip(edges, edges[1:]):
        if log:
            out.append(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        else:
            out.append(rng.uniform(lo, hi))
    return out


def _task(tasks: list, kind: str, **args) -> None:
    tasks.append({"id": f"{len(tasks):03d}-{kind}", "kind": kind, "args": args})


def _interleave(major: list[dict], minor: list[dict]) -> list[dict]:
    """``minor`` spread evenly through ``major``, renumbered in the new order.

    A cluster of equal tasks then meets the host's speed all through a
    round, not in one stretch of it, so its median does not hang on one
    moment of other tenants' load.
    """
    out = []
    for i, task in enumerate(major):
        out.append(task)
        out.extend(minor[len(minor) * i // len(major):len(minor) * (i + 1) // len(major)])
    return [dict(t, id=f"{i:03d}-{t['kind']}") for i, t in enumerate(out)]


def phase_grid(seed: int) -> list[dict]:
    """146 tasks: thermo points in every regime plus the entropy layer."""
    rng = _rng("phase-grid", seed)
    tasks: list[dict] = []
    for bi, beta in enumerate(BETAS):
        # d = 3 bulk normal and condensed points, alternating the entry point
        normal = _strata(rng, [0.05 + 0.06 * i for i in range(16)])
        condensed = _strata(rng, [1.05, 1.2, 1.5, 2.0, 3.0, 5.0, 8.0])
        for i, ratio in enumerate(normal + condensed):
            kind = "solve_alpha" if i % 2 == 0 else "free_energy"
            _task(tasks, kind, d=3, beta=beta, rho=ratio * rho_c3(beta))
        # d = 1, 2 have no critical density; strata over the target
        # g_{d/2}(alpha) = rho (4 pi beta)^(d/2) keep alpha away from 0
        for d, edges in ((1, [0.05, 0.1, 0.2, 0.5, 1, 2, 4, 8, 12]),
                         (2, [0.05, 0.1, 0.2, 0.5, 1, 2, 3, 4.5, 6])):
            factor = (4.0 * math.pi * beta) ** (d / 2.0)
            for i, g in enumerate(_strata(rng, edges, log=True)):
                kind = "solve_alpha" if (i + bi) % 2 == 0 else "free_energy"
                _task(tasks, kind, d=d, beta=beta, rho=g / factor)
        for d in (3, 4, 5, 6):
            _task(tasks, "critical_density", d=d, beta=_tiny(rng, beta, 0.05))
    for d in (1, 2):
        _task(tasks, "critical_density", d=d, beta=1.0)
    # near-critical band 0.99 <= rho/rho_c < 1: each point costs up to 2M
    # bose_g terms per evaluation
    for i, ratio in enumerate([0.990, 0.9905, 0.991, 0.9915] + [0.992 + 0.001 * i for i in range(8)]):
        beta = BETAS[i % 3]
        _task(tasks, "solve_alpha", d=3, beta=beta, rho=_tiny(rng, ratio) * rho_c3(beta))
    # d = 2 small-alpha points: g_1(alpha) = -log(1 - e^-alpha) ~ 7, 9.2, 11.5
    for i, g in enumerate((7.0, 9.2, 11.5)):
        beta = BETAS[i]
        _task(tasks, "solve_alpha", d=2, beta=beta, rho=_tiny(rng, g) / (4.0 * math.pi * beta))
    # entropy layer
    _task(tasks, "minimize_S", d=1, beta=1.0, rho=rng.uniform(0.45, 0.55), K=5000)
    _task(tasks, "minimize_S", d=3, beta=BETA_UNIT,
          rho=rng.uniform(0.45, 0.55) * rho_c3(BETA_UNIT), K=100_000)
    _task(tasks, "minimize_S", d=3, beta=BETA_UNIT,
          rho=rng.uniform(1.9, 2.1) * rho_c3(BETA_UNIT), K=100_000)
    cond = {"d": 3, "beta": BETA_UNIT, "rho": rng.uniform(1.9, 2.1) * rho_c3(BETA_UNIT),
            "n": rng.randrange(500, 2001), "K": 5_000_000}
    _task(tasks, "minimizing_sequence", **cond)
    shape_of = tasks[-1]["id"]
    _task(tasks, "functional_S", shape_of=shape_of, **cond)
    _task(tasks, "entropy_decomposition", shape_of=shape_of, **cond)
    return tasks


def exact_sums(seed: int) -> list[dict]:
    """110 tasks: partition sums over n = 5..60 in both phases, d = 1..3."""
    rng = _rng("exact-sums", seed)

    def draw(d: int) -> dict:
        if d == 3:  # alternate condensed and normal
            beta = rng.choice(BETAS) * rng.uniform(0.95, 1.05)
            ratio = rng.uniform(1.8, 2.2) if rng.random() < 0.5 else rng.uniform(0.4, 0.6)
            return {"d": 3, "beta": beta, "rho": ratio * rho_c3(beta)}
        return {"d": d, "beta": rng.uniform(0.5, 1.5), "rho": rng.uniform(0.4, 1.2)}

    params = [
        {"d": 3, "beta": BETA_UNIT * rng.uniform(0.95, 1.05)},
        {"d": 3, "beta": 0.25 * rng.uniform(0.95, 1.05)},
        {"d": 1, "beta": rng.uniform(0.95, 1.05), "rho": rng.uniform(0.4, 0.6)},
        {"d": 2, "beta": 0.5 * rng.uniform(0.95, 1.05), "rho": rng.uniform(0.8, 1.2)},
    ]
    params[0]["rho"] = rng.uniform(1.8, 2.2) * rho_c3(params[0]["beta"])
    params[1]["rho"] = rng.uniform(0.4, 0.6) * rho_c3(params[1]["beta"])
    tasks: list[dict] = []
    # enumeration sizes are fixed: cost grows like exp(pi sqrt(2n/3))
    for i, p in enumerate(params):
        n_list = [5, 10, 20, 30, 40, 50, 60] if i == 0 else [5, 10, 20, 30, 40]
        _task(tasks, "convergence_scan", n_list=n_list, **p)
    for p in params:
        for n in (24, 30, 36, 42, 45):
            _task(tasks, "exact_log_Z", n=n, **p)
    for p in params[:2]:
        for n in (10, 20, 30, 40):
            _task(tasks, "mu_N_expected_shape", n=n, **p)
    _task(tasks, "confinement_log_Z_bracket", n=50, **params[0])
    for p in (params[0], params[2]):
        for n in (6, 7, 8):
            _task(tasks, "brute_force_log_Z", n=n, **p)
    # the n = 20 cluster that task_p50_ms lands in; 31 sums at n = 12 below
    # it balance the 35 larger tasks above it, so the median falls in the
    # middle of the cluster rather than at its upper edge
    cluster: list[dict] = []
    for i in range(40):
        _task(cluster, "exact_log_Z", n=20, **draw(1 + i % 3))
        if i < 31:
            _task(cluster, "exact_log_Z", n=12, **draw(1 + i % 3))
    return _interleave(tasks, cluster)


# The paper's n = 2000 condensation signal is one 2M-step chain.  The timed
# list runs half as many steps, as four 250k-step chains, so that a cold and
# two timed rounds fit in a run of about 20 s.  The traced run adds one
# 2M-step chain for the honesty diagnostics (see libtasks.honesty).
CONDENSED = {"d": 3, "beta": BETA_UNIT, "n": 2000, "steps": 250_000}
NORMAL = {"d": 3, "beta": BETA_UNIT, "n": 2000, "steps": 150_000}
SMALL_CHAIN = {"d": 3, "beta": 0.25, "rho": 1.0, "n": 8, "steps": 10_000}
REFERENCE_STEPS = 2_000_000


def chain(seed: int) -> list[dict]:
    """26 run_chain tasks: 4 condensed and 2 normal n = 2000 chains, 20 at n = 8."""
    rng = _rng("chain", seed)
    tasks: list[dict] = []
    rc = rho_c3(BETA_UNIT)
    cond_rho, normal_rho = _tiny(rng, 2.0 * rc, 1e-3), _tiny(rng, 0.5 * rc, 1e-3)
    for _ in range(4):
        _task(tasks, "run_chain", rho=cond_rho, seed=rng.randrange(2**31), **CONDENSED)
    for _ in range(2):
        _task(tasks, "run_chain", rho=normal_rho, seed=rng.randrange(2**31), **NORMAL)
    small: list[dict] = []
    for _ in range(20):
        _task(small, "run_chain", seed=rng.randrange(2**31), **SMALL_CHAIN)
    return _interleave(tasks, small)


def _fmt(x: float) -> str:
    return repr(float(x))


def cli_readme(seed: int) -> list[dict]:
    """README examples (chains at 1e5 steps) plus the documented edge inputs."""
    rng = _rng("cli-readme", seed)
    b = "0.0795775"
    s1, s2 = rng.randrange(2**31), rng.randrange(2**31)
    commands = [
        (["phase", "--d", "3", "--beta", b, "--rho", _fmt(_tiny(rng, 2.6))], 0),
        (["free-energy", "--d", "3", "--beta", b, "--rho", _fmt(_tiny(rng, 5.3))], 0),
        (["minimize", "--d", "1", "--beta", "1", "--rho", _fmt(_tiny(rng, 0.5)),
          "--K", "5000"], 0),
        (["exact-z", "--d", "3", "--beta", "1", "--rho", _fmt(_tiny(rng, 1.0)),
          "--n", "8", "--oracle"], 0),
        (["converge", "--d", "3", "--beta", b, "--rho", _fmt(_tiny(rng, 1.3)),
          "--n-list", "10,20,40,60", "--format", "csv"], 0),
        (["sample", "--d", "3", "--beta", b, "--rho", _fmt(_tiny(rng, 5.2)),
          "--n", "2000", "--steps", "100000", "--seed", str(s1)], 0),
        (["scan-long-cycles", "--d", "3", "--beta", b, "--rho", _fmt(_tiny(rng, 5.2)),
          "--n-list", "500,2000", "--steps", "100000", "--seed", str(s2)], 0),
        (["alpha", "--d", "2", "--beta", "0.5", "--rho", _fmt(rng.uniform(0.5, 0.6))], 0),
        # edge inputs with their documented exit codes
        (["exact-z", "--d", "3", "--beta", "1", "--rho", "1", "--n", "80"], 3),
        (["phase", "--d", "3", "--beta", "-1", "--rho", "1"], 2),
        (["phase", "--d", "3", "--beta", "1", "--rho", "1", "--no-such-flag"], 1),
        (["phase", "--d", "3", "--beta", b,
          "--rho", _fmt(_tiny(rng, 0.999) * rho_c3(float(b)))], 0),
    ]
    tasks: list[dict] = []
    for argv, code in commands:
        tasks.append({"id": f"{len(tasks):03d}-cli-{argv[0]}", "kind": "cli",
                      "args": {"argv": argv, "expect_exit": code}})
    return tasks


_TASK_LISTS = {
    "phase-grid": phase_grid,
    "exact-sums": exact_sums,
    "chain": chain,
    "cli-readme": cli_readme,
}


# Seconds one warm pass of each task list takes on the reference host (a
# 2-vCPU Xeon VM).  They fix the number of timed rounds a run makes for a
# given --seconds, so the count does not depend on the host or the program.
ROUND_S = {"phase-grid": 2.6, "exact-sums": 4.6, "chain": 6.6, "cli-readme": 5.7}
MIN_TIMED_ROUNDS = 2


def timed_rounds(workload: str, seconds: float) -> int:
    """Timed rounds after the cold one: all rounds together about ``seconds``
    long on the reference host, but never fewer than ``MIN_TIMED_ROUNDS``."""
    return max(MIN_TIMED_ROUNDS, int(seconds / ROUND_S[workload]) - 1)


def build(workload: str, seed: int) -> list[dict]:
    if workload not in _TASK_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _TASK_LISTS[workload](seed)
