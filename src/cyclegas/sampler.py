"""Split/merge Metropolis-Hastings over partitions of n.

Targets the exact finite-n ensemble weights for n far beyond enumeration
range.  Almost every step is a slot proposal: SPLIT (choose a uniform slot
of the cycle list; a 1-cycle there auto-rejects, a k-cycle is replaced by a
j- and a (k-j)-cycle, j uniform in 1..k-1) or MERGE (choose two distinct
uniform slots, replacing their cycles by the concatenation), equally likely.
The two kinds are mutually reverse, and since both pick slots, every
occupation multiplicity cancels from the Hastings ratio (Hastings 1970):
what is left is theta_j theta_{k-j} / theta_k * (k - 1)/(m + 1) for a split
among m cycles, and its inverse for a merge.

A slot pick finds a cycle of length k with chance 1/m whatever k is, so in
the condensed regime it rarely moves the giant cycle.  One step in 256 is
therefore a point move instead: two uniform points of the n, which split
their cycle at their distance j when they share one and merge their two
cycles otherwise; it picks a cycle with chance k/n.  The proposal is
symmetric on permutations, so its ratio is the permutation weights' alone,
j theta_j (k-j) theta_{k-j} / (k theta_k) for a split, again free of
occupation multiplicities.  Each kind of step is reversible on its own, so
their fixed mixture is too.  Any fixed layout of the cycles on the n points
gives the same proposal law; the kernel lays them out class by class in the
occupation map's order and walks that map, one entry per distinct length,
to place a point.

One kernel, ChainState._advance, makes every move.  An accepted split writes
one new cycle into the picked slot and appends the other; an accepted merge
writes the sum into one slot and swap-removes the other.  The occupations,
the cycle count and the cached log weight change on accepted moves only; no
other index is kept.  The tests keep the moves as a plain randrange function
and check the kernel against it step by step.

run_chain drives a chain through two calls of the kernel (burn-in, then
the sampled rest), and in the sampled call the kernel records each sample
in its move loop at O(1) cost: the long-cycle mass is a running
integer, and the sums of r_k are kept lazily.  At each batch end the kernel
appends the running sums, exact integers, and run_chain differences them
into per-batch tallies; no sample walks the occupations.
Chains are single-stream and deterministic given the seed; estimator errors
use batch means, whose variance per column is a ratio of Python ints
rounded once, so the module needs no NumPy.  The weights log theta_k come
from thermo, as the exact sums' do, so the chain does not load exactz.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import ValidationError
from .thermo import (
    SystemParams, _cycle_log_constants, _log_table, _occupation_log_weight, _require_n, optimal_shape
)

if TYPE_CHECKING:
    from .partitions import Partition

_BATCHES = 50
_POINT_MOVE = 2.0**-8  # the share of steps that are point moves


def _shape_occupations(params: SystemParams) -> dict[int, int]:
    """Deterministic near-equilibrium start: round the limiting shape.

    r_k = floor(n Qhat(k)) for small k; whatever mass is left over becomes a
    single long cycle (in the condensed regime that seed cycle carries the
    excess density, which cuts the equilibration transient enormously).
    """
    n = params.n
    _, qhat = optimal_shape(params)
    counts: dict[int, int] = {}
    used = 0
    for k in range(1, n + 1):
        r = int(n * qhat(k))
        if r < 1:
            break
        if used + k * r > n:
            r = (n - used) // k
            if r < 1:
                break
        counts[k] = r
        used += k * r
    rest = n - used
    if rest >= 1:
        counts[rest] = counts.get(rest, 0) + 1
    return counts


def _running_sums(lazy: list[int], occ: dict[int, int], t: int, k_report: int) -> list[int]:
    """lazy[k] + r_k * t for k = 0..k_report: the sums over t samples (see _advance).

    Not a comprehension inside _advance: before Python 3.12 that would make
    lazy, occ and t closure cells there, which slows every move.
    """
    return [lazy[k] + occ.get(k, 0) * t for k in range(k_report + 1)]


def _place(occ: dict[int, int], u: int) -> tuple[int, int]:
    """Point u's cycle length k and offset among the points of the k-cycles.

    The cycles lie class by class in occ's order, the r_k k-cycles of a
    class on k * r_k consecutive points, so u sits in the (offset // k)-th
    k-cycle.  One pass over the distinct lengths; 0 <= u < n always lands.
    """
    for k, r in occ.items():
        kr = k * r
        if u < kr:
            return k, u
        u -= kr


class _Sampling(NamedTuple):
    """How often run_chain samples the kernel, and where it reads the sums.

    At each sample count t in stops the kernel appends to sums the row
    [long-cycle mass, r_1, ..., r_k_report], each summed over samples 1..t.
    """

    thin: int
    k_report: int
    threshold: int
    stops: set[int]
    sums: list[list[int]]


class ChainState:
    """Mutable split/merge chain state over partitions of params.n.

    Keeps the occupation map occ (one live dict, no zero counts), whose
    order lays out the cycles on which a point move's points fall, and the
    cycle list, one slot per cycle, which the slot picks read.  Only the
    kernel, _advance, changes them after the start, which rounds the
    limiting shape down and puts the rest of the mass into one seed cycle.
    The table _bits (bit lengths for the uniform picks) is built once per
    state; _L is thermo's memoised log table.  The cached log weight tracks every accepted move;
    audit() recomputes it, the mass and the cycle list's counts from
    scratch.
    """

    def __init__(self, params: SystemParams, seed: int = 0):
        self._c = _cycle_log_constants(params, "chain")
        self.n = params.n
        self.rng = random.Random(seed)
        # L[r] = log r for r <= n + 2; L[0] is never read by a legal move
        self._L = _log_table(1 << (self.n + 2).bit_length())
        self._bits = [x.bit_length() for x in range(self.n + 1)]  # getrandbits widths
        self._zeros = [0] * (self.n + 1)  # the tally tables of unsampled moves
        self.acceptance_counts = {
            "split": {"proposed": 0, "accepted": 0, "auto_rejected": 0},
            "merge": {"proposed": 0, "accepted": 0, "auto_rejected": 0},
        }
        self.occ = _shape_occupations(params)
        self.cycles: list[int] = []
        for length, r in self.occ.items():
            self.cycles += [length] * r
        self.log_weight = _occupation_log_weight(self.occ.items(), self._c)

    @property
    def current(self) -> Partition:
        from .partitions import Partition

        return Partition.from_counts(self.n, self.occ)

    def _advance(self, count: int, sampling: Optional[_Sampling] = None) -> int:
        """The move kernel: `count` Metropolis-Hastings steps; returns how many landed.

        With m cycles, c[k] = log theta_k and L[r] = log r, a slot split of
        the k-cycle in slot i at j has log ratio c[j] + c[k-j] - c[k] +
        L[k-1] - L[m+1] (1-cycles auto-reject), and a slot merge of slots i
        != i2 into s = a + b has c[s] - c[a] - c[b] + L[m] - L[s-1].  A point
        move (a share _POINT_MOVE of the steps) draws points u and v from
        0..n-1 and _place maps each to its cycle's length and its offset
        among that length's points, an O(distinct lengths) walk of occ: in
        one cycle (equal lengths k and offset // k) it splits at j = (pv -
        pu) mod k, with ratio c[j] + c[k-j] - c[k] + L[j] + L[k-j] - L[k]
        (u == v auto-rejects), and across two it merges with ratio c[s] -
        c[a] - c[b] + L[s] - L[a] - L[b]; it counts as the split or merge it
        proposes, and acts on the first slot i holding its length (a merge
        of equal lengths on the next such slot after i as i2), found by
        list.index.  The cycle count m is a local that accepted moves change
        by one.  Slot picks inline Random.randrange's getrandbits rejection
        loop (bits[x] = x.bit_length()), so the stream is the one randrange
        would consume.
        Accepted moves only touch the state: a split writes j into slot i and
        appends k - j, a merge writes s into slot i and swap-removes slot
        i2; occ loses k (a, then b) and gains j, then k - j (s), and the
        cached weight adds dc plus L[r] for each count a removal passes and
        minus L[r] for each an addition reaches.

        With `sampling`, the kernel also takes (count - 1) // thin + 1
        samples: the moves run as segments of one range() each, and the
        kernel leaves the inner loop after each segment to take one sample.
        The first segment is one move, each next one thin moves, and the
        fewer than thin moves left over run last as a segment of their own,
        unsampled.  Each accepted move updates two per-length tables without
        testing k_report or the threshold: the long-cycle mass, a running
        integer, changes by big[added] - big[removed] (big[x] = x past the
        threshold, else 0), and a change of r_k by delta after t samples adds
        -delta * t to lazy[k], so lazy[k] + r_k * t sums r_k over the t
        samples; each sample adds the long-cycle mass to lazy[0].  Only at
        the samples t in sampling.stops does the kernel append those sums to
        sampling.sums.  Without `sampling`, the moves are one segment, t = 0
        and both tables are the state's all-zero one.
        """
        rng = self.rng
        random = rng.random
        getrandbits = rng.getrandbits
        randrange = rng.randrange
        exp = math.exp
        occ = self.occ
        get = occ.get
        cycles = self.cycles
        c = self._c
        L = self._L
        bits = self._bits
        n = self.n
        points_from = 1.0 - _POINT_MOVE
        split_below = 0.5 * points_from
        m = len(cycles)
        log_weight = self.log_weight
        split_proposed = split_accepted = split_auto = 0
        merge_accepted = merge_auto = 0
        t = n_samples = long_mass = 0
        lazy = big = self._zeros
        seg = count
        if sampling is not None:
            thin, k_report, threshold, stops, sums = sampling
            n_samples = (count - 1) // thin + 1
            lazy = [0] * (self.n + 1)  # lazy[k] + r_k * t sums r_k over t samples
            big = [x if x > threshold else 0 for x in range(self.n + 1)]
            long_mass = sum(k * r for k, r in occ.items() if k > threshold)
            seg = min(count, 1)  # the first sample follows the first move
        while True:
            for _ in range(seg):
                r = random()
                if r < points_from:  # a slot move: slot i first
                    nbits = bits[m]
                    i = getrandbits(nbits)
                    while i >= m:
                        i = getrandbits(nbits)
                    if r < split_below:
                        split_proposed += 1
                        k = cycles[i]
                        if k == 1:
                            split_auto += 1
                            continue
                        km1 = k - 1
                        nbits = bits[km1]
                        j = getrandbits(nbits)
                        while j >= km1:
                            j = getrandbits(nbits)
                        j += 1
                        j2 = k - j
                        dc = c[j] + c[j2] - c[k]
                        total = dc + L[km1] - L[m + 1]
                    elif m < 2:
                        merge_auto += 1
                        continue
                    else:
                        mm1 = m - 1
                        nbits = bits[mm1]
                        i2 = getrandbits(nbits)
                        while i2 >= mm1:
                            i2 = getrandbits(nbits)
                        if i2 >= i:
                            i2 += 1
                        k = 0  # a merge
                        a = cycles[i]
                        b = cycles[i2]
                        s = a + b
                        dc = c[s] - c[a] - c[b]
                        total = dc + L[m] - L[s - 1]
                else:  # a point move: u's and v's (length, offset) in occ's layout
                    a, pu = _place(occ, randrange(n))
                    b, pv = _place(occ, randrange(n))
                    if a == b and pu // a == pv // a:  # one cycle
                        split_proposed += 1
                        k = a
                        j = (pv - pu) % k
                        if j == 0:
                            split_auto += 1
                            continue
                        i = cycles.index(k)
                        j2 = k - j
                        dc = c[j] + c[j2] - c[k]
                        total = dc + L[j] + L[j2] - L[k]
                    else:
                        k = 0  # a merge
                        i = cycles.index(a)
                        i2 = cycles.index(b, i + 1) if a == b else cycles.index(b)
                        s = a + b
                        dc = c[s] - c[a] - c[b]
                        total = dc + L[s] - L[a] - L[b]
                if not (total >= 0.0 or random() < exp(total)):
                    continue
                if k:
                    split_accepted += 1
                    m += 1
                    cycles[i] = j
                    cycles.append(j2)
                    rk = occ[k]
                    if rk == 1:
                        del occ[k]
                    else:
                        occ[k] = rk - 1
                    rj = occ[j] = get(j, 0) + 1
                    rj2 = occ[j2] = get(j2, 0) + 1
                    log_weight += dc + L[rk] - L[rj] - L[rj2]
                    lazy[k] += t
                    lazy[j] -= t
                    lazy[j2] -= t
                    long_mass += big[j] + big[j2] - big[k]
                else:
                    merge_accepted += 1
                    m -= 1
                    cycles[i] = s
                    last = cycles.pop()
                    if i2 < m:
                        cycles[i2] = last
                    ra = occ[a]
                    if ra == 1:
                        del occ[a]
                    else:
                        occ[a] = ra - 1
                    rb = occ[b]
                    if rb == 1:
                        del occ[b]
                    else:
                        occ[b] = rb - 1
                    rs = occ[s] = get(s, 0) + 1
                    log_weight += dc + L[ra] + L[rb] - L[rs]
                    lazy[a] += t
                    lazy[b] += t
                    lazy[s] -= t
                    long_mass += big[s] - big[a] - big[b]
            if t == n_samples:
                break
            t += 1  # the sample after this segment
            lazy[0] += long_mass
            if t in stops:
                sums.append(_running_sums(lazy, occ, t, k_report))
            seg = thin if t < n_samples else (count - 1) % thin  # the remainder comes last
        self.log_weight = log_weight
        tally = self.acceptance_counts["split"]
        tally["proposed"] += split_proposed
        tally["accepted"] += split_accepted
        tally["auto_rejected"] += split_auto
        tally = self.acceptance_counts["merge"]
        tally["proposed"] += count - split_proposed
        tally["accepted"] += merge_accepted
        tally["auto_rejected"] += merge_auto
        return split_accepted + merge_accepted

    def step(self) -> bool:
        """One Metropolis-Hastings step; returns True when the move lands."""
        return self._advance(1) == 1

    def audit(self) -> None:
        """Recompute invariants; raises on any drift.

        Checks the mass, that occ counts the cycle list exactly (so it holds
        no zero count), and the cached weight against a fresh sum.
        """
        occ = self.occ
        total = sum(k * r for k, r in occ.items())
        if total != self.n:
            raise ValidationError(f"occupation mass {total} != n={self.n}")
        if dict(Counter(self.cycles)) != occ:
            raise ValidationError("cycle list out of sync with occupations")
        w = _occupation_log_weight(occ.items(), self._c)
        # relative: every accepted move adds its rounding to the cached sum
        if abs(w - self.log_weight) > 1e-10 * max(1.0, abs(w)):
            raise ValidationError(
                f"cached log weight drifted: {self.log_weight} vs {w}"
            )


class CycleStats(NamedTuple):
    """Chain estimates of the occupation shape and long-cycle mass."""

    n: int
    k_report: int
    threshold: int
    mean_qhat: tuple[float, ...]  # E[r_k]/n for k = 1..k_report
    qhat_stderr: tuple[float, ...]
    long_cycle_fraction: float  # E[sum_{k>threshold} k r_k]/n
    fraction_stderr: float
    tail_mass_mean: float  # E[sum_{k>k_report} k r_k]/n
    n_samples: int
    acceptance: dict
    seed: int


def _batch_stderr(tallies: list[list[int]], per_batch: int) -> list[float]:
    """Batch-means standard errors, column by column, of per-batch integer tallies.

    A batch mean is its tally x over per_batch.  Over nb batches the squared
    error of the mean, (nb sum x^2 - (sum x)^2) / (nb (nb - 1) nb per_batch^2),
    is a ratio of Python ints, rounded once by the true division; one sqrt
    follows.  A column that never changes reads exactly 0.0.
    """
    nb = len(tallies)
    den = nb * nb * (nb - 1) * per_batch * per_batch
    return [
        math.sqrt((nb * sum(map(mul, col, col)) - sum(col) ** 2) / den)
        for col in zip(*tallies)
    ]


def default_threshold(n: int) -> int:
    """floor(n^(2/3)), the cutoff separating O(1) cycles from extensive ones."""
    t = round(n ** (2.0 / 3.0))  # n ** (2/3) rounds just under the integer at perfect cubes
    return t - 1 if t**3 > n * n else t


def run_chain(
    params: SystemParams,
    steps: int,
    burn_in: Optional[int] = None,
    seed: int = 0,
    thin: int = 10,
    k_report: Optional[int] = None,
    threshold: Optional[int] = None,
) -> CycleStats:
    """Run one chain and estimate cycle statistics with batch-means errors.

    Deterministic given the seed.  burn_in defaults to steps // 10; samples
    are recorded every `thin` steps after burn-in.  The chain audits its
    cached weight and mass after its last step (ValidationError on drift).
    """
    n = _require_n(params)
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if burn_in is None:
        burn_in = steps // 10
    if not 0 <= burn_in <= steps:
        raise ValidationError(f"burn_in must be in [0, steps={steps}], got {burn_in}")
    if thin < 1:
        raise ValidationError(f"thin must be >= 1, got {thin}")
    if k_report is None:
        k_report = min(n, 30)
    if threshold is None:
        threshold = default_threshold(n)
    if not 0 <= k_report <= n:  # r_k = 0 for k > n
        raise ValidationError(f"k_report must be in [0, n={n}], got {k_report}")
    if threshold < 0:
        raise ValidationError(f"threshold must be >= 0, got {threshold}")

    state = ChainState(params, seed=seed)
    n_samples = max(0, (steps - burn_in + thin - 1) // thin)
    if n_samples < 2:
        raise ValidationError("need at least 2 recorded samples; increase steps")
    nb = min(_BATCHES, n_samples)
    batch_size = n_samples // nb

    stops = {b * batch_size for b in range(1, nb + 1)} | {n_samples}  # batch ends, last sample
    ends = [[0] * (k_report + 1)]  # a zero row, then the kernel's sums at each stop
    # samples are taken after steps burn_in + 1, burn_in + 1 + thin, ...
    state._advance(burn_in)
    state._advance(steps - burn_in, _Sampling(thin, k_report, threshold, stops, ends))
    state.audit()

    sums = ends[-1]
    tallies = [[b - a for a, b in zip(lo, hi)] for lo, hi in zip(ends, ends[1 : nb + 1])]
    total = n * n_samples
    short_mass = sum(k * r_sum for k, r_sum in enumerate(sums[1:], start=1))
    # int / int is correctly rounded, so each mean is rounded once
    means = [s / total for s in sums]
    stderr = _batch_stderr(tallies, n * batch_size)
    return CycleStats(
        n=n,
        k_report=k_report,
        threshold=threshold,
        mean_qhat=tuple(means[1:]),
        qhat_stderr=tuple(stderr[1:]),
        long_cycle_fraction=means[0],
        fraction_stderr=stderr[0],
        tail_mass_mean=(total - short_mass) / total,
        n_samples=n_samples,
        acceptance=state.acceptance_counts,
        seed=seed,
    )


class LongCycleRow(NamedTuple):
    n: int
    fraction: float
    stderr: float


def long_cycle_fraction_scan(
    params_base: SystemParams,
    n_list: list[int],
    steps: int,
    seed: int = 0,
    thin: int = 10,
) -> list[LongCycleRow]:
    """Long-cycle mass across system sizes, one independent chain per n.

    Chains use seeds seed, seed+1, ... in n_list order; thresholds scale as
    n^(2/3).  In the condensed regime the fraction climbs toward the excess
    density share, in the normal regime it falls toward zero.
    """
    rows = []
    for i, n in enumerate(n_list):
        params = params_base.with_n(int(n))
        stats = run_chain(params, steps=steps, seed=seed + i, thin=thin, k_report=0)
        rows.append(
            LongCycleRow(n=int(n), fraction=stats.long_cycle_fraction, stderr=stats.fraction_stderr)
        )
    return rows
