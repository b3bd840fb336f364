"""Order statistics and the windowed autocorrelation-time estimator."""

from __future__ import annotations

import statistics

import numpy as np

from probe import normalised

TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
SOKAL_C = 5.0  # window factor of the autocorrelation-time estimator


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile)``: with N sorted samples this is the
    (N - TAIL_BEYOND)-th smallest, the (N - TAIL_BEYOND)/N percentile.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def task_seconds(records: list[dict]) -> list[float]:
    """Each task's median normalised latency over the timed rounds of a run.

    Round 0 is the cold pass (first-call page faults, allocator growth) and
    is left out whenever the run has later rounds.  Each latency is first
    put at the reference host's speed by the probes around it (probe.py).
    """
    timed = [rec for rec in records if rec["round"] > 0] or records
    by_task: dict[str, list[float]] = {}
    for rec in timed:
        by_task.setdefault(rec["id"], []).append(
            normalised(rec["seconds"], rec["probe_before"], rec["probe_after"]))
    return [statistics.median(v) for v in by_task.values()]


def tau_int(series: np.ndarray) -> float:
    """Integrated autocorrelation time, Sokal's self-consistent window.

    tau(M) = 1/2 + sum_{t=1..M} rho(t), with M the smallest window such that
    M >= SOKAL_C tau(M).  In this convention the variance of the mean is
    2 tau sigma^2 / N, so the effective sample size is N / (2 tau).
    """
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    x = x - x.mean()
    var = float(x @ x) / n
    if n < 2 or var == 0.0:
        return 0.5
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n] / n
    taus = 0.5 + np.cumsum(acov[1:] / var)
    window_ok = np.nonzero(np.arange(1, n) >= SOKAL_C * taus)[0]
    return float(taus[window_ok[0]] if window_ok.size else taus[-1])


def shape_summary(qhat: np.ndarray, n: int | None = None) -> dict:
    """The few numbers a child returns for a K-length increment vector."""
    k = np.arange(1, qhat.size + 1, dtype=np.float64)
    out = {
        "K": int(qhat.size),
        "sum": float(qhat.sum()),
        "kdot": float(k @ qhat),
        "head": [float(x) for x in qhat[:5]],
        "last": float(qhat[-1]),
    }
    if n is not None:
        out["at_n"] = float(qhat[n - 1])
    return out
