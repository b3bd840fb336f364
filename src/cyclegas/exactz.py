"""Exact finite-n canonical normalisation as a weighted sum over partitions.

Each partition (cycle type) carries weight
prod_k |V|^r_k / (r_k! k^r_k) * (4 pi beta k)^(-d r_k / 2),
one volume factor per cycle.  Because the weight factors over cycles, the
sum over all partitions of m obeys the cycle-index recursion
m Z_m = sum_{k=1}^m k theta_k Z_{m-k}, theta_k = e^{c[k]}, which gives
log Z and the exact occupation expectations in O(n^2).  The table c comes
from thermo, which the chain reads it from too, so the sampler does not
import this module.  The recursion runs over Python floats in tilted linear
space, each row one math.fsum of products streamed through map, and
re-tilts from its own logs where a row leaves its band, so that every row
stays linear (see _log_Z_table): at the n <= 70 of the public routes that
beats NumPy, whose per-call cost exceeds a row's arithmetic.  The sum over
all n! permutations (brute_force_log_Z) stays on as an independent oracle
for small n; the enumeration of the partitions is a test helper.  The
oracle builds each permutation by insertion, element m going in as a fixed
point or right after one of the m - 1 elements already placed; removing
the largest element inverts the step, so every permutation is reached
exactly once.  A term depends only on the cycle types along its path: the
walk branches once per distinct cycle length L, carries the multiplicity
L c_L of the c_L cycles of length L down, and writes each leaf term once
with that multiplicity.  Its terms are products of floats under a depth
tilt: at depth m each is scaled by e^(-M_m), M_m the largest log weight of
a permutation of m elements, which the identity or the m-cycle attains
because a k-cycle's log weight per element peaks at k = 1 or k = m.  So
every term is at most 1, and the sum of multiplicity times term is formed
exactly in integers and rounded once, the float one math.fsum over all n!
terms would give (the bound on what underflow loses is derived in
brute_force_log_Z).  The free-space
heat-kernel mass is used per cycle.  confinement_log_Z_bracket also reports
log Z with every log theta_k shifted by log(1 - e^(-d n / 4 beta)); the
shift depends on neither rho nor k, and the two numbers bound no box: at
five points computed from the box levels, neither the Dirichlet nor the
periodic box's exact log Z lies between them.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .errors import PrecisionError, ValidationError, check_cap
from .thermo import SystemParams, _cycle_log_constants, _log1mexp, _require_n, chi

if TYPE_CHECKING:
    import numpy as np

# the band of a tilted row z_m (a row outside it re-tilts _log_Z_table), the
# log of its top, and an x below which math.exp(x) is finite (it raises
# OverflowError from 709.7828)
_Z_LOW, _Z_HIGH, _LOG_Z_HIGH, _EXP_MAX = 2.0**-450, 2.0**450, 450.0 * math.log(2.0), 709.78


def _insertion_walk(
    counts: list[int],
    w: float,
    mult: int,
    m: int,
    fix: list[float],
    grow: list[list[float]],
    out: list[tuple[float, int]],
) -> None:
    """Append to out each tilted weight of the completions of mult permutations, with its count.

    Those permutations of m - 1 elements share the cycle type `counts`
    (counts[L] cycles of length L) and the tilted weight w; element m goes in
    next, and the walk ends at n = len(fix) - 1 elements.  As a new fixed
    point element m multiplies w by fix[m]; in each of the L counts[L]
    places inside the cycles of length L, by grow[m][L].  Those places give
    subtrees with the same terms, so the walk branches once per distinct
    length, carries the multiplicity L counts[L] down, and appends each leaf
    term once, as the pair (term, the number of permutations it stands for).
    Module level with its state in the arguments: a self-calling closure
    would be a reference cycle holding `out` until the cyclic collector ran.
    """
    g = grow[m]
    if m == len(fix) - 1:
        out.append((w * fix[m], mult))
        for L in range(1, m):
            if c := counts[L]:
                out.append((w * g[L], mult * L * c))
        return
    counts[1] += 1
    _insertion_walk(counts, w * fix[m], mult, m + 1, fix, grow, out)
    counts[1] -= 1
    for L in range(1, m):
        if c := counts[L]:
            counts[L], counts[L + 1] = c - 1, counts[L + 1] + 1
            _insertion_walk(counts, w * g[L], mult * L * c, m + 1, fix, grow, out)
            counts[L], counts[L + 1] = c, counts[L + 1] - 1


def _permutation_weights(params: SystemParams) -> tuple[list[tuple[float, int]], float]:
    """The n! tilted permutation weights e^(W(sigma) - M_n) as (term, multiplicity) pairs, and M_n.

    The multiplicities sum to n!; each pair is one leaf of the walk (see
    brute_force_log_Z), 764 of them at n = 8 and 2,620 at n = 9.
    """
    n = _require_n(params)
    check_cap("permutations", n)
    log_v = math.log(params.volume)
    d_half = params.d / 2.0
    four_pi_beta = 4.0 * math.pi * params.beta
    t = [0.0] * (n + 1)
    for k in range(1, n + 1):
        t[k] = log_v - d_half * math.log(four_pi_beta * k)
    top = [0.0] + [max(m * t[1], t[m]) for m in range(1, n + 1)]
    shift = [0.0] + [top[m - 1] - top[m] for m in range(1, n + 1)]
    fix = [0.0] + [math.exp(t[1] + s) for s in shift[1:]]
    grow = [[0.0] + [math.exp(t[L + 1] - t[L] + s) for L in range(1, m)]
            for m, s in enumerate(shift)]
    out: list[tuple[float, int]] = []
    _insertion_walk([0] * (n + 1), 1.0, 1, 1, fix, grow, out)
    return out, top[n]


def brute_force_log_Z(params: SystemParams) -> float:
    """Oracle: the permutation-sum normalisation, summed over all n! permutations.

    A permutation sigma of n elements weighs e^W(sigma), W(sigma) the sum
    over its cycles of t[k] = log|V| - (d/2) log(4 pi beta k), and the total
    is divided by n!.  The cycle weight is written out here, not taken from
    _cycle_log_constants, so that the oracle stays independent of the
    recursion it checks.  The permutations are built by insertion: element m
    joins a permutation of the first m - 1 as a new fixed point or right
    after one of the m - 1 elements already placed, inside that element's
    cycle.  Removing the largest element undoes the step, so the n!
    insertion sequences give n! distinct permutations.  The L c_L places in
    the c_L cycles of length L give equal terms, so the depth-first walk
    branches once per distinct length and writes each leaf term once, with
    the number of permutations on its path as its multiplicity; the
    multiplicities sum to n!, and each term is the same product of steps as
    each permutation's own, so what follows holds per permutation.

    The terms are products of floats under a depth tilt.  On real k,
    (t[k]/k)' has the sign of (d/2) log k - t[1] - d/2, which rises with k,
    so t[k]/k falls and then rises and on 1..m peaks at k = 1 or k = m.  A
    permutation of m elements with cycle lengths k_i, sum_i k_i = m, has
    W = sum_i k_i t[k_i]/k_i <= M_m = max(m t[1], t[m]), attained by the
    identity or the m-cycle.  Once element m is in, the running weight is
    e^(W - M_m) <= 1: a fixed point multiplies it by
    e^(t[1] + M_(m-1) - M_m), growing an L-cycle by
    e^(t[L+1] - t[L] + M_(m-1) - M_m).  The sum S of mult x over the pairs
    is formed exactly and rounded once: float.as_integer_ratio gives
    x = num/den, den a power of two no larger than 2^1074, so mult x is the
    integer mult num 2^1074/den in units of 2^-1074; those integers add
    exactly, and one int / int division, which CPython rounds to nearest,
    ties to even, turns the sum into a float.  That is the float an exactly
    rounded math.fsum over the n! terms gives, to the bit, as both round the
    same exact number once, so the sum costs one u, and
    log Z = log S + M_n - log n!: no exp, max or subtraction per
    permutation.  The dominant permutation's term is 1, so
    the sum lies in [1, n!].  Rounding: the M_m telescope along a path, so
    a term's relative error is the sum over its n steps of the roundings in
    t[L+1] - t[L], M_(m-1) - M_m and their sum, the exp and the product.

    Underflow.  A fixed-point step never exceeds 1: a permutation of m - 1
    elements and a fixed point is one of m, so t[1] + M_(m-1) <= M_m.
    M_m = m t[1] exactly when t[1] >= -(d/2) log(m)/(m - 1), a threshold
    that rises with m, so M switches at most once, from the identity to the
    cycle.  A growth step is largest at L = m - 1, and in each case (the
    identity at m - 1 and m, the cycle at both, the switch) its exponent is
    at most (d/2) kappa_m, kappa_m = log(m)/(m - 1) - log(m/(m - 1)) <=
    kappa_5 < 0.1793.  So every step is at most e^(0.0897 d).  A running
    weight or a step that rounds below 2^-1022 is off by at most 2^-1075,
    which the at most n - 1 later steps grow by at most e^(0.0897 d (n - 1)):
    a term loses at most 2n 2^-1075 e^(0.0897 d (n - 1)), below 2^-1000 for
    d <= 60 at the cap n <= 9, against a sum of at least 1.  The dominant
    path's running weight at depth m is at least e^(-0.0897 d (n - m)), as
    its later steps bring it to 1, so it never underflows.  One tilt
    mu = max_k t[k]/k for every depth would not do: at d = 3, beta = 1e57,
    rho = 1e300, n = 8 the fixed point e^(t[1] - mu) underflows to 0 before
    the growth steps that restore the dominant n-cycle.
    """
    pairs, top = _permutation_weights(params)
    total = 0  # the exact sum of mult x, in units of 2^-1074
    for x, mult in pairs:
        num, den = x.as_integer_ratio()
        total += (num * mult) << (1075 - den.bit_length())
    return math.log(total / (1 << 1074)) + top - math.lgamma(params.n + 1)


def _tilt(c: list[float], n: int, logs: list[float], m: int) -> tuple:
    """The tilt (a, b) of the rows from m on, through the stored logs of rows m - 2 and m - 1.

    Returns (a, b, kt, lead, z): kt[k - 1] = k e^(c[k] - a k) for k = 1..n,
    lead[j] = j e^(c[j] - a j - b) for j = m..n (the Z_0 term of row j), and
    z[j - 1] = e^(log Z_j - a j - b) for the rows j < m, rebuilt from logs.
    lead[j] is kt_j e^(-b) while e^(-b) stays below the band's top, else one
    exp of its own, which stays finite where e^(-b) or kt_j leaves the floats.
    An exponent past _EXP_MAX gives inf, which fails the band test of any row
    that reads it.
    """
    a, b = logs[m - 1] - logs[m - 2], (m - 1) * logs[m - 2] - (m - 2) * logs[m - 1]
    kt = [k * math.exp(x) if (x := c[k] - a * k) < _EXP_MAX else math.inf for k in range(1, n + 1)]
    if b > -_LOG_Z_HIGH:
        lead = [0.0, *map(mul, kt, repeat(math.exp(-b)))]
    else:
        lead = [0.0] * m + [j * math.exp(x) if (x := c[j] - a * j - b) < _EXP_MAX else math.inf
                            for j in range(m, n + 1)]
    return a, b, kt, lead, [math.exp(logs[j] - a * j - b) for j in range(1, m)]


def _log_Z_table(c: list[float], n: int, first: int = 0) -> list[float]:
    """log Z_m for m = first..n from m Z_m = sum_{k=1}^m k e^{c[k]} Z_{m-k}, Z_0 = 1.

    first = n takes one log, for the routes that read row n alone.  Every row
    runs in tilted linear space.  Under a tilt (a, b) row m is kept as
    z_m = Z_m e^(-a m - b), and with kt_k = k e^(c[k] - a k) the recursion
    reads m z_m = sum_{k<m} kt_k z_{m-k} + lead_m, lead_m = m e^(c[m] - a m - b)
    being the Z_0 term: one exactly rounded math.fsum of products streamed by
    map over the reversed rows, one add and one division by m, and
    log Z_m = log z_m + a m + b.  Rows 1 and 2 are stored in closed form,
    log Z_1 = c[1] and log Z_2 = log(theta_1^2/2 + theta_2), and the seed tilt
    is the line through them (_tilt), so the rows start near 1.  A row that
    leaves (2^-450, 2^450) (or is NaN) re-tilts the table: the rows so far
    are logged, (a, b) is refitted through the last two logs, z and kt are
    rebuilt from those logs and c, and the row runs again; a row still
    outside the band raises PrecisionError.  Z_0 stays out of z: at extreme
    beta or rho log Z drops by hundreds from m = 0 to 1 and then by a few per
    row, so no line fits Z_0 and the rows, and there e^(-b) leaves the
    floats.  lead_m is kt_m e^(-b) while e^(-b) stays below the band's top,
    else one exp of its own.  At d = 3, beta = 1/4pi the rows re-tilt at
    m = 105, 459 and 1152 on the way to n = 2000 at rho_c/2, and at 106 and
    500 at 2 rho_c; no README point re-tilts up to the cap n = 70, and no
    point of the 190-point corner grid (n in {9, 70}) does.

    Rounding, u = 2^-53, to first order.  log Z_1 = c[1] is exact, and
    log Z_2 is off by at most u (2|t| + |t - c[2]| + |L_2| + 8),
    t = fl(2 c[1] - fl(log 2)).  In the segment that runs rows m_s, m_s + 1,
    ... under (a, b), with x_k = fl(c[k] - fl(a k)):
    - kt_k is off by u (|a k| + |x_k| + 3) relative (the product a k, the
      subtraction, 2u for exp and the factor k), at most k eta_s with
      eta_s = u max_k (|a| + (|x_k| + 4)/k) over the weights read; z_m sums
      products of weights over the cycle types of m, whose sum_k k r_k = m,
      so the weights move z_m by at most m eta_s;
    - lead_m is off by kt_m's error and u (|x_m - b| + 3) more (e^(-b) and
      the product, or the subtraction and exp);
    - a row rebuilt at the tilt, z_j = e^(L_j - a j - b) from its stored log
      L_j, carries L_j's error E_j and u (|a j| + |L_j - a j| +
      |L_j - a j - b| + 3) more;
    - each row's products, fsum, add and division add 4u, and a row of
      positive terms inherits at most the largest relative error it reads.
    So, with R_s the largest of the rebuilt rows' errors and of
    u (|x_j - b| + 4) over the segment's rows j <= m, row m is off by at most
    R_s + m eta_s + 5u (m - m_s + 1) relative, each count rounded up by one
    for the second order, and its log adds u (2 |log z_m| + |a m| +
    |L_m - b| + |L_m|), which is E_m.  Underflow: a weight, a rebuilt row, a
    Z_0 term or a product below 2^-1022 is off by at most (k + 1) 2^-1074
    times its other factor, k <= m, so a row in the band (m z_m > m 2^-450)
    loses at most U_s = (n + 3)(Z_s + K_s + 2^450) 2^-624 relative, Z_s and
    K_s the largest z and kt the segment reads, and each row adds U_s to
    the 5u.  Nothing here asks z <= 1, so the bound holds where a tilted z
    exceeds 1 (a convex log Z, as at the corners, lifts the rows above the
    chord); while Z_s and K_s stay in the band, U_s < 3 (n + 3) 2^-174.
    Measured at d = 3, beta = 1/4pi against a 40-digit mpmath run of the
    recursion on the same c, the worst row error is 5.7e-14 at n = 300 and
    2.3e-13 at n = 2000 for rho_c/2, 4.3e-14 and 5.7e-14 for 2 rho_c; the
    table takes 2.3 and 2.0 ms at n = 300, 139 and 85 ms at n = 2000 (best
    of 5, 2 vCPUs, Python 3.11).
    """
    t, c2 = 2.0 * c[1] - math.log(2.0), c[2 if n > 1 else 1]
    logs = [0.0, c[1], max(t, c2) + math.log1p(math.exp(-abs(t - c2)))][:n + 1]
    a, b, kt, lead, z = _tilt(c, n, logs, len(logs))
    for m in range(len(logs), n + 1):
        zm = (math.fsum(map(mul, kt, reversed(z))) + lead[m]) / m
        if not _Z_LOW < zm < _Z_HIGH:
            logs += [math.log(zj) + a * j + b for j, zj in enumerate(z[len(logs) - 1:], len(logs))]
            a, b, kt, lead, z = _tilt(c, n, logs, m)
            zm = (math.fsum(map(mul, kt, reversed(z))) + lead[m]) / m
            if not _Z_LOW < zm < _Z_HIGH:
                raise PrecisionError(f"row {m} of the recursion leaves the floats under every tilt")
        z.append(zm)
    if first == n:  # one log, not n + 1, for the routes that read row n alone
        return [math.log(z[-1]) + a * n + b]
    return logs[first:] + [math.log(z[j - 1]) + a * j + b for j in range(max(first, len(logs)), n + 1)]


def exact_log_Z(params: SystemParams) -> float:
    """log of the partition-sum normalisation, by the cycle-index recursion.

    Exact up to rounding: the recursion sums the same weights as the
    partition enumeration, in O(n^2) operations, with the
    free-space heat-kernel mass per cycle.
    """
    return _log_Z_table(_cycle_log_constants(params, "exact"), params.n, params.n)[0]


def confinement_log_Z_bracket(params: SystemParams) -> dict[str, float]:
    """log Z, and log Z with every log theta_k shifted by log(1 - e^(-d n/4 beta)).

    log_z is the free-space log Z; log_z_lower is the same recursion with
    each c[k] shifted by shift = log(1 - e^(-d n/4 beta)) < 0, and the two
    differ by at most max_shift = n |shift|, because a partition has at most
    n cycles.  They bound no box: the shift depends on neither rho nor k, and
    neither the Dirichlet nor the periodic box's exact log Z lies between
    them at any of five points computed from the box levels.
    """
    c = _cycle_log_constants(params, "exact")
    n = params.n
    x = params.d * n / (4.0 * params.beta)
    shift = _log1mexp(x)
    return {
        "log_z": _log_Z_table(c, n, n)[0],
        "log_z_lower": _log_Z_table([ck + shift for ck in c], n, n)[0],
        "max_shift": n * abs(shift),
    }


def mu_N_expected_shape(params: SystemParams) -> np.ndarray:
    """Exact expectations E[Qhat(k)] = E[r_k]/n for k = 1..n.

    E[r_k] = theta_k Z_{n-k} / Z_n with theta_k = e^{c[k]}, read off one
    cycle-index recursion table.  sum_k k E[Qhat(k)] = 1 is the recursion at
    m = n and is checked to 1e-10.  Under the exact cap, as its one O(n^2)
    table costs what exact_log_Z's does.  The only exactz route that loads
    NumPy, on its first call, for the array it returns.
    """
    import numpy as np

    c = _cycle_log_constants(params, "exact")
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
