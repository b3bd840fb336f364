"""Exact finite-n canonical normalisation as a weighted sum over partitions.

Each partition (cycle type) carries weight
prod_k |V|^r_k / (r_k! k^r_k) * (4 pi beta k)^(-d r_k / 2),
one volume factor per cycle.  Because the weight factors over cycles, the
sum over all partitions of m obeys the cycle-index recursion
m Z_m = sum_{k=1}^m k theta_k Z_{m-k}, theta_k = e^{c[k]}, which gives
log Z and the exact occupation expectations in O(n^2).  The table c and a
partition's log weight come from thermo, which the chain reads them from
too, so the sampler does not import this module.  The recursion runs over
Python floats in tilted linear space, each row one math.fsum of products
streamed through map and one log, and falls back to log-space rows only
where a row leaves the float range (see _log_Z_table): at the n <= 70 of
the public routes that beats NumPy, whose per-call cost exceeds a row's
arithmetic.  Enumeration of the partitions (weighted_ensemble) and the sum
over all n! permutations (brute_force_log_Z) stay on as independent oracles
for small n.  The latter builds each permutation by insertion, element m
going in as a fixed point or right after one of the m elements already
placed; removing the largest element inverts the step, so every permutation
is reached exactly once.  The free-space heat-kernel mass is used per cycle, with the confinement
correction exposed as a bracketing diagnostic rather than folded into the
weights.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, mul, sub
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import ValidationError, check_cap
from .thermo import (
    SystemParams, _cycle_log_constants, _log1mexp, _occupation_log_weight, _require_n, chi
)

if TYPE_CHECKING:
    import numpy as np

    from .partitions import Partition

# the range of a tilted row z_m that _log_Z_table keeps in linear space
_Z_LOW, _Z_HIGH = 2.0**-600, 2.0**600


def log_weight(lam: Partition, params: SystemParams) -> float:
    """Natural-log ensemble weight of one partition: sum_k r_k log theta_k - log(r_k!)."""
    n = _require_n(params)
    if lam.n != n:
        raise ValidationError(f"partition of {lam.n} does not match params.n={n}")
    return _occupation_log_weight(lam.occupations, _cycle_log_constants(params, "chain"))


def _logsumexp(values: Sequence[float]) -> float:
    """log sum_i e^(values[i]): one max shift, then one math.fsum of the exps.

    The shifted exps stream from C-level iterators into fsum, so no second
    list of len(values) floats is made.
    """
    top = max(values)
    return top + math.log(math.fsum(map(math.exp, map(sub, values, repeat(top)))))


def _insertion_walk(
    lengths: list[int],
    w: float,
    left: int,
    t1: float,
    grow: list[float],
    out: list[float],
) -> None:
    """Append to out the log weight of every completion of one permutation.

    That permutation has cycle lengths `lengths` and log weight w, and
    `left` elements are still to place.  A new fixed point adds t1; each of
    the L places inside a cycle of length L adds grow[L] = t[L+1] - t[L].
    Module level with its state in the arguments: a self-calling closure
    would be a reference cycle holding `out` until the cyclic collector ran.
    """
    if left == 1:
        out.append(w + t1)
        for L in lengths:
            out.extend([w + grow[L]] * L)
        return
    lengths.append(1)
    _insertion_walk(lengths, w + t1, left - 1, t1, grow, out)
    lengths.pop()
    for i in range(len(lengths)):
        L = lengths[i]
        lengths[i] = L + 1
        x = w + grow[L]
        for _ in range(L):
            _insertion_walk(lengths, x, left - 1, t1, grow, out)
        lengths[i] = L


def brute_force_log_Z(params: SystemParams) -> float:
    """Oracle: the permutation-sum normalisation, one term per permutation.

    Each permutation contributes the product over its cycles of
    |V| (4 pi beta k)^(-d/2); the total is divided by n!.  The permutations
    of 0..n-1 are built by insertion: element m joins a permutation of
    0..m-1 as a new fixed point or right after one of the m elements already
    placed, inside that element's cycle.  Removing the largest element undoes
    the step, so the n! insertion sequences give n! distinct permutations,
    and the depth-first walk sends one log weight per permutation to the
    log-sum-exp.  The cycle weight is written out here, not taken from
    _cycle_log_constants, so that the oracle stays independent of the
    recursion it checks.
    """
    n = _require_n(params)
    check_cap("permutations", n)
    log_v = math.log(params.volume)
    d_half = params.d / 2.0
    four_pi_beta = 4.0 * math.pi * params.beta
    t = [0.0] * (n + 1)
    for k in range(1, n + 1):
        t[k] = log_v - d_half * math.log(four_pi_beta * k)

    grow = [t[k + 1] - t[k] for k in range(n)]
    per_perm: list[float] = []
    _insertion_walk([], 0.0, n, t[1], grow, per_perm)
    return _logsumexp(per_perm) - math.lgamma(n + 1)


def _log_Z_table(c: list[float], n: int) -> list[float]:
    """log Z_m for m = 0..n from m Z_m = sum_{k=1}^m k e^{c[k]} Z_{m-k}, Z_0 = 1.

    The rows run in tilted linear space: with mu = max_k c[k]/k the weights
    kt[k] = k e^(c[k] - mu k) are at most k, so z_m = Z_m e^(-mu m) is at
    most 1 (with every theta_k = 1 each permutation of m weighs 1/m!, so
    Z_m = 1).  Row m is one exactly rounded math.fsum of the products
    kt[k] z_{m-k}, streamed by map over the reversed table, over m, and
    log Z_m = log z_m + mu m: no exp per term.  A weight or a product that
    underflows is off by at most (k + 2) 2^-1075, under n^2 2^-1075 in a
    row, so a row kept in linear space (m z_m > m 2^-600) loses at most
    n 2^-475 to underflow, negligible against u = 2^-53 while
    n^2 2^-1075 << u 2^-600, that is at any n a list can hold.  From the
    first row whose z_m falls outside (2^-600, 2^600) (or is NaN) the rest
    of the table runs in log space, each row one max-shifted log-sum-exp of
    log(k theta_k) + log Z_{m-k}, finite where Z_m itself over- or
    underflows.  That happens where one tilt cannot fit every row: at
    extreme beta or rho, and past m of about 115 at d = 3, beta = 1/4pi in
    both phases.
    """
    mu = max((c[k] / k for k in range(1, n + 1)), default=0.0)
    kt = [k * math.exp(c[k] - mu * k) for k in range(1, n + 1)]
    z = [1.0]
    for m in range(1, n + 1):
        zm = math.fsum(map(mul, kt, reversed(z))) / m
        if not _Z_LOW < zm < _Z_HIGH:
            break
        z.append(zm)
    log_z = [math.log(zm) + mu * m for m, zm in enumerate(z)]
    if len(z) <= n:
        log_k_theta = [math.log(k) + c[k] for k in range(1, n + 1)]
        for m in range(len(z), n + 1):
            terms = list(map(add, log_k_theta, reversed(log_z)))
            log_z.append(_logsumexp(terms) - math.log(m))
    return log_z


def exact_log_Z(params: SystemParams) -> float:
    """log of the partition-sum normalisation, by the cycle-index recursion.

    Exact up to rounding: the recursion sums the same weights as the
    partition enumeration, in O(n^2) operations, with the
    free-space heat-kernel mass per cycle.
    """
    c = _cycle_log_constants(params, "exact")
    return _log_Z_table(c, params.n)[params.n]


def confinement_log_Z_bracket(params: SystemParams) -> dict[str, float]:
    """Free-space log Z with its worst-case confinement shift.

    Under confinement the mass of one k-cycle lies in
    [(4 pi beta k)^(-d/2) (1 - e^(-d n/4 beta)), (4 pi beta k)^(-d/2)].
    log_z takes the upper end, log_z_lower the lower one (each c[k] shifted by
    log(1 - e^(-d n/4 beta))); they differ by at most max_shift = n |shift|,
    because a partition has at most n cycles.
    """
    c = _cycle_log_constants(params, "exact")
    n = params.n
    x = params.d * n / (4.0 * params.beta)
    shift = _log1mexp(x)
    return {
        "log_z": _log_Z_table(c, n)[n],
        "log_z_lower": _log_Z_table([ck + shift for ck in c], n)[n],
        "max_shift": n * abs(shift),
    }


class WeightedEnsemble(NamedTuple):
    """All partitions of n with their log weights and the normalisation."""

    params: SystemParams
    log_weights: dict[Partition, float]
    log_Z: float

    def probability(self, lam: Partition) -> float:
        return math.exp(self.log_weights[lam] - self.log_Z)


def weighted_ensemble(params: SystemParams) -> WeightedEnsemble:
    """Materialise the distribution over P_n (small n only)."""
    from .partitions import enumerate_partitions

    c = _cycle_log_constants(params, "ensemble")
    table = {
        lam: _occupation_log_weight(lam.occupations, c)
        for lam in enumerate_partitions(params.n)
    }
    log_z = _logsumexp(list(table.values()))
    return WeightedEnsemble(params=params, log_weights=table, log_Z=log_z)


def mu_N_expected_shape(params: SystemParams) -> np.ndarray:
    """Exact expectations E[Qhat(k)] = E[r_k]/n for k = 1..n.

    E[r_k] = theta_k Z_{n-k} / Z_n with theta_k = e^{c[k]}, read off one
    cycle-index recursion table.  sum_k k E[Qhat(k)] = 1 is the recursion at
    m = n and is checked to 1e-10.  The only exactz route that loads NumPy,
    on its first call, for the array it returns.
    """
    import numpy as np

    c = _cycle_log_constants(params, "ensemble")
    n = params.n
    log_z = np.asarray(_log_Z_table(c, n))
    ks = np.arange(1, n + 1)
    eq = np.exp(np.asarray(c[1:]) + log_z[n - ks] - log_z[n]) / n
    mass = float(ks @ eq)
    if not abs(mass - 1.0) <= 1e-10:  # NaN fails too
        raise ValidationError(f"sum_k k E[Qhat(k)] = {mass}, expected 1")
    return eq


class ScanRow(NamedTuple):
    n: int
    log_z_per_n: float
    neg_chi: float
    gap: float


def convergence_scan(
    params_base: SystemParams, n_list: list[int], tol: float = 1e-10
) -> list[ScanRow]:
    """(1/n) log Z_n against its limit -chi, volume rescaled as n/rho per row.

    The gap shrinks with n; its size at small n is a regression fixture, not
    a limit statement.
    """
    neg_chi = -chi(params_base, tol)
    rows = []
    for n in n_list:
        p = params_base.with_n(int(n))
        lz = exact_log_Z(p) / n
        rows.append(ScanRow(n=int(n), log_z_per_n=lz, neg_chi=neg_chi, gap=lz - neg_chi))
    return rows
