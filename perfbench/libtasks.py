"""Library tasks: each task is one public ``cyclegas`` call.

Used by child.py for the phase-grid, exact-sums and chain workloads.
"""

from __future__ import annotations

import inspect
import math
import time

import cyclegas as cg
import numpy as np

import stats
import workloads


def _finite(x):
    return "infinity" if isinstance(x, float) and math.isinf(x) else x


def _params(a, with_n=False):
    return cg.SystemParams(a["d"], a["beta"], a["rho"], n=a["n"] if with_n else None)


def warm_up():
    """One call per layer, so lazy caches are filled before the first task."""
    cg.bose_g(1.5, 1e-7, 1e-12)
    cg.bose_g(1.0, 1e-6, 1e-12, method="expansion")
    cg.solve_alpha(cg.SystemParams(3, 0.25, 0.1))
    cg.minimize_S(cg.SystemParams(1, 1.0, 0.5), K=200)
    cg.exact_log_Z(cg.SystemParams(3, 0.25, 1.0, n=12))
    cg.run_chain(cg.SystemParams(3, 0.25, 1.0, n=8), steps=2000, seed=0)


def peak_rss_mb():
    """This process's own high-water resident set.

    ``ru_maxrss`` of a spawned process starts from its spawner's resident
    set, so the kernel's per-address-space VmHWM is read instead.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("VmHWM missing from /proc/self/status")


class LibRunner:
    """Maps a task onto one public call, then summarises the result."""

    def __init__(self, out_dir, tracer=None):
        self.shapes = {}

    def call(self, task):
        a, tol = task["args"], workloads.TOL
        kind = task["kind"]
        if kind == "solve_alpha":
            return cg.solve_alpha(_params(a), tol)
        if kind == "free_energy":
            return cg.free_energy(_params(a), tol)
        if kind == "critical_density":
            return cg.critical_density(a["d"], a["beta"])
        if kind == "minimize_S":
            return cg.minimize_S(_params(a), K=a["K"], tol=tol)
        if kind == "minimizing_sequence":
            shape = cg.minimizing_sequence(a["n"], _params(a), K=a["K"])
            self.shapes[task["id"]] = shape
            return shape
        if kind in ("functional_S", "entropy_decomposition"):
            return getattr(cg, kind)(self.shapes[a["shape_of"]], _params(a))
        if kind == "exact_log_Z":
            return cg.exact_log_Z(_params(a, True))
        if kind == "brute_force_log_Z":
            return cg.brute_force_log_Z(_params(a, True))
        if kind == "mu_N_expected_shape":
            return cg.mu_N_expected_shape(_params(a, True))
        if kind == "confinement_log_Z_bracket":
            return cg.confinement_log_Z_bracket(_params(a, True))
        if kind == "convergence_scan":
            return cg.convergence_scan(_params(a), a["n_list"], tol)
        if kind == "run_chain":
            return cg.run_chain(_params(a, True), steps=a["steps"], seed=a["seed"])
        raise ValueError(f"unknown task kind {kind!r}")

    def summarize(self, task, res):
        kind = task["kind"]
        if kind == "solve_alpha":
            return {
                "regime": res.regime, "alpha": res.alpha, "rho_c": _finite(res.rho_c),
                "beta_c": _finite(res.beta_c), "condensate_fraction": res.condensate_fraction,
                "free_energy": res.free_energy, "chi": res.chi,
            }
        if kind == "critical_density":
            return _finite(res)
        if kind == "minimize_S":
            return {"lam": res.lam, "s_value": res.s_value, "boundary_mass": res.boundary_mass,
                    "constraint_residual": res.constraint_residual,
                    "shape": stats.shape_summary(res.shape.qhat)}
        if kind == "minimizing_sequence":
            return stats.shape_summary(res.qhat, task["args"]["n"])
        if kind == "entropy_decomposition":
            return res._asdict()
        if kind == "mu_N_expected_shape":
            return [float(x) for x in res]
        if kind == "convergence_scan":
            return [row._asdict() for row in res]
        if kind == "run_chain":
            return {k: (list(v) if isinstance(v, tuple) else v) for k, v in res._asdict().items()}
        return res

    def peak_rss_mb(self):
        return peak_rss_mb()

    def traced_extras(self, workload, tasks):
        """Numbers only a traced run takes, outside the timed tasks."""
        extras = {}
        n_max = max([t["args"]["n"] for t in tasks if t["kind"] in ENUMERATING]
                    + [n for t in tasks for n in t["args"].get("n_list", [])], default=0)
        if n_max:
            from cyclegas import partitions

            bare = inspect.unwrap(partitions.iter_parts)
            start = time.perf_counter()
            items = sum(1 for _ in bare(n_max))
            extras["drain"] = {"n": n_max, "items": items, "seconds": time.perf_counter() - start}
        if workload == "chain":
            extras["honesty"] = honesty(tasks[0])
        return extras, []


ENUMERATING = ("exact_log_Z", "mu_N_expected_shape", "confinement_log_Z_bracket")


def honesty(task):
    """The 2M-step condensed reference chain, run twice on one seed.

    ``run_chain`` gives the estimate and its reported batch-means error;
    stepping ``ChainState`` directly records the long-cycle mass exactly
    where ``run_chain`` samples it, for a windowed autocorrelation time.
    """
    a = dict(task["args"], steps=workloads.REFERENCE_STEPS)
    params = _params(a, True)
    start = time.perf_counter()
    ref = cg.run_chain(params, steps=a["steps"], seed=a["seed"])
    seconds = time.perf_counter() - start
    state = cg.ChainState(params, seed=a["seed"])
    n, steps, thin = a["n"], a["steps"], 10
    burn = steps // 10
    occ, step = state.occ, state.step
    xs = []
    for i in range(steps):
        step()
        if i >= burn and (i - burn) % thin == 0:
            xs.append(sum(k * r for k, r in occ.items() if k > ref.threshold) / n)
    series = np.asarray(xs)
    tau = stats.tau_int(series)
    return {"args": a, "seconds": seconds, "threshold": ref.threshold,
            "estimate": ref.long_cycle_fraction, "stderr": ref.fraction_stderr,
            "samples": int(series.size), "thin": thin, "trace_mean": float(series.mean()),
            "tau_int_samples": tau, "tau_int_steps": tau * thin,
            "ess": series.size / (2.0 * tau)}
