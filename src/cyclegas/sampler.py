"""Split/merge Metropolis-Hastings over partitions of n.

Targets the exact finite-n ensemble weights for n far beyond enumeration
range.  A move is SPLIT (choose an occupied length k >= 2 uniformly, then an
offset j uniform in 1..k-1, replacing one k-cycle by a j- and a (k-j)-cycle)
or MERGE (choose an unordered pair of distinct cycles uniformly, replacing
them by their concatenation), each attempted with probability 1/2.  The two
kinds are mutually reverse, and the Hastings ratio accounts exactly for
occupation multiplicities and the offset choice.

One kernel, ChainState._advance, makes every move, with the Hastings terms
and the slot policy written out inline: each accepted move updates the
occupations, the cycle list, the split keys and the per-length slot sets in
place, specialised to the move (a split removes k and adds j and k - j, a
merge removes a and b and adds a + b).  The tests keep that policy as a
plain function and check the kernel against it step by step.

run_chain drives a chain through three calls of the kernel (burn-in, the
sampled stretch, the rest), and in the sampled stretch the kernel records
each sample in its move loop at O(1) cost: the long-cycle mass is a running
integer, and the sums of r_k are kept lazily.  At each batch end the kernel
appends the running sums, exact integers, and run_chain differences them
into per-batch tallies; no sample walks the occupations.
Chains are single-stream and deterministic given the seed; estimator errors
use batch means.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from typing import NamedTuple, Optional

import numpy as np

from .errors import ValidationError
from .exactz import _cycle_log_constants, _occupation_log_weight, _require_n
from .partitions import Partition
from .thermo import SystemParams, optimal_shape

_BATCHES = 50
_LOG2 = math.log(2.0)


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

    Keeps the occupation map, a flat list of cycle lengths for O(1) uniform
    cycle picks (with pos_by_len, each length's slots in it), and the
    distinct lengths >= 2 for O(1) uniform split picks (with key_pos, each
    key's index).  Only the kernel, _advance, changes them after the start,
    which lays out the rounded limiting shape length by length.  The tables
    _L, _pairs and _bits (bit lengths for the uniform picks) are built once
    per state.  The cached log weight tracks every accepted move; audit()
    recomputes it and checks the index from scratch.
    """

    def __init__(self, params: SystemParams, seed: int = 0):
        self._c = _cycle_log_constants(params, "chain")
        self.n = params.n
        self.rng = random.Random(seed)
        # L[r] = log r for r <= n + 2; L[0] is never read by a legal move
        L = self._L = [-math.inf] + [math.log(r) for r in range(1, self.n + 3)]
        self._pairs = [L[r + 1] + L[r] - _LOG2 for r in range(self.n + 1)]
        self._bits = [x.bit_length() for x in range(self.n + 1)]  # getrandbits widths
        self._zeros = [0] * (self.n + 1)  # the tally tables of unsampled moves
        self.acceptance_counts = {
            "split": {"proposed": 0, "accepted": 0, "auto_rejected": 0},
            "merge": {"proposed": 0, "accepted": 0, "auto_rejected": 0},
        }
        self.occ: dict[int, int] = {}
        self.cycles: list[int] = []
        self.pos_by_len: defaultdict[int, set[int]] = defaultdict(set)
        self.split_keys: list[int] = []
        self.key_pos: dict[int, int] = {}
        for length, r in _shape_occupations(params).items():
            self.occ[length] = r
            if length >= 2:
                self.key_pos[length] = len(self.split_keys)
                self.split_keys.append(length)
            self.pos_by_len[length].update(range(len(self.cycles), len(self.cycles) + r))
            self.cycles += [length] * r
        self.log_weight = _occupation_log_weight(self.occ.items(), self._c)

    @property
    def current(self) -> Partition:
        return Partition.from_counts(self.n, self.occ)

    def occupation_key(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.occ.items()))

    def _advance(self, count: int, sampling: Optional[_Sampling] = None) -> int:
        """The move kernel: `count` Metropolis-Hastings steps; returns how many landed.

        Uniform picks inline Random.randrange's getrandbits rejection loop, so
        the stream is the one randrange would consume, with bits[x] =
        x.bit_length() read from a table.  The Hastings terms are written out
        here; with L[r] = log r, a ratio of factorials r!/(r-1)! is L[r] and
        log C(r + 1, 2) is pairs[r] = L[r + 1] + L[r] - log 2.

        The slot policy is written out here too, once per move kind: a
        removed cycle's slot is refilled by the last one, an emptied length's
        split key by the last key, and an added cycle goes at the end.  The
        updates reuse the counts the Hastings terms read (rk, rj, rj2, ra, rb,
        rs); when j == j2 (a == b), rj2 (rb) is the count after the first
        addition (removal).  The set, list and dict operations run in a fixed
        order (k, then j and j2; a, then b, then s), since the pop order of a
        length's slot set decides which slot it gives up: the same moves give
        the same chain, bit for bit.

        With `sampling`, the kernel also takes count // thin + 1 samples
        without leaving its loop: one before the first move and one after
        every thin-th (count is a multiple of thin).  Each accepted move
        updates two per-length tables with no test of k_report or the
        threshold: the long-cycle mass, a running integer, changes by
        big[added] - big[removed] (big[x] = x past the threshold, else 0), and
        a change of r_k by delta after t samples adds -delta * t to lazy[k],
        so lazy[k] + r_k * t sums r_k over the t samples; lazy[0] (r_0 = 0)
        sums the long-cycle mass.  At each t in sampling.stops the kernel
        appends those sums to sampling.sums.  Without `sampling`, t = 0 and
        both tables are the state's all-zero one: nothing is set up.
        """
        rng = self.rng
        random = rng.random
        getrandbits = rng.getrandbits
        exp = math.exp
        occ = self.occ
        cycles = self.cycles
        pos_by_len = self.pos_by_len
        split_keys = self.split_keys
        key_pos = self.key_pos
        c = self._c
        L = self._L
        pairs = self._pairs
        bits = self._bits
        log2 = _LOG2
        log_weight = self.log_weight
        split_proposed = split_accepted = split_auto = 0
        merge_accepted = merge_auto = 0
        t = n_samples = long_mass = 0
        lazy = big = self._zeros
        seg = count
        if sampling is not None:
            thin, k_report, threshold, stops, sums = sampling
            n_samples = count // thin + 1
            lazy = [0] * (self.n + 1)  # lazy[k] + r_k * t sums r_k over t samples
            big = [x if x > threshold else 0 for x in range(self.n + 1)]
            long_mass = sum(k * r for k, r in occ.items() if k > threshold)
            seg = 0  # the first sample precedes every move
        while True:
            for _ in range(seg):
                if random() < 0.5:
                    split_proposed += 1
                    k2 = len(split_keys)
                    if k2 == 0:
                        split_auto += 1
                        continue
                    nbits = bits[k2]
                    i = getrandbits(nbits)
                    while i >= k2:
                        i = getrandbits(nbits)
                    k = split_keys[i]
                    km1 = k - 1
                    nbits = bits[km1]
                    i = getrandbits(nbits)
                    while i >= km1:
                        i = getrandbits(nbits)
                    j = 1 + i
                    j2 = k - j
                    rk = occ[k]
                    dlw = -c[k] + L[rk]
                    rj = occ.get(j, 0)
                    log_fwd = -L[k2] - L[km1]
                    if j == j2:
                        rj2 = rj + 1  # j2-cycles once the j-cycle is in
                        dlw += 2.0 * c[j] - (L[rj + 2] + L[rj2])
                        log_pairs = pairs[rj2]
                    else:
                        rj2 = occ.get(j2, 0)
                        dlw += c[j] - L[rj + 1]
                        dlw += c[j2] - L[rj2 + 1]
                        log_pairs = L[rj + 1] + L[rj2 + 1]
                        log_fwd += log2
                    m = len(cycles)
                    total = dlw + ((log_pairs - pairs[m]) - log_fwd)
                    if not (total >= 0.0 or random() < exp(total)):
                        continue
                    split_accepted += 1
                    lazy[k] += t
                    lazy[j] -= t
                    lazy[j2] -= t
                    long_mass += big[j] + big[j2] - big[k]
                    # the k-cycle out (k >= 2 is a split key)
                    if rk == 1:
                        del occ[k]
                        i = key_pos.pop(k)
                        last = split_keys.pop()
                        if last != k:
                            split_keys[i] = last
                            key_pos[last] = i
                    else:
                        occ[k] = rk - 1
                    pos = pos_by_len[k].pop()
                    m -= 1  # the last slot
                    if pos != m:
                        moved = cycles[m]
                        cycles[pos] = moved
                        mset = pos_by_len[moved]
                        mset.discard(m)
                        mset.add(pos)
                    cycles.pop()
                    # the j-cycle in, then the j2-cycle
                    occ[j] = rj + 1
                    if rj == 0 and j >= 2:
                        key_pos[j] = len(split_keys)
                        split_keys.append(j)
                    pos_by_len[j].add(m)
                    cycles.append(j)
                    occ[j2] = rj2 + 1
                    if rj2 == 0 and j2 >= 2:
                        key_pos[j2] = len(split_keys)
                        split_keys.append(j2)
                    pos_by_len[j2].add(m + 1)
                    cycles.append(j2)
                else:
                    m = len(cycles)
                    if m < 2:
                        merge_auto += 1
                        continue
                    nbits = bits[m]
                    i1 = getrandbits(nbits)
                    while i1 >= m:
                        i1 = getrandbits(nbits)
                    mm1 = m - 1
                    nbits = bits[mm1]
                    i2 = getrandbits(nbits)
                    while i2 >= mm1:
                        i2 = getrandbits(nbits)
                    if i2 >= i1:
                        i2 += 1
                    a = cycles[i1]
                    b = cycles[i2]
                    if a > b:
                        a, b = b, a
                    s = a + b
                    rs = occ.get(s, 0)
                    ra = occ[a]
                    k2_new = len(split_keys)
                    if a == b:
                        rb = ra - 1  # b-cycles left once the a-cycle is out
                        dlw = -2.0 * c[a] + L[ra] + L[rb]
                        log_pairs = pairs[rb]
                        log_rev = 0.0
                        if a >= 2 and ra == 2:
                            k2_new -= 1
                    else:
                        rb = occ[b]
                        dlw = (-c[a] + L[ra]) + (-c[b] + L[rb])
                        log_pairs = L[ra] + L[rb]
                        log_rev = log2
                        if a >= 2 and ra == 1:
                            k2_new -= 1
                        if b >= 2 and rb == 1:
                            k2_new -= 1
                    dlw += c[s] - L[rs + 1]
                    if rs == 0:
                        k2_new += 1
                    log_fwd = log_pairs - pairs[mm1]
                    log_rev -= L[k2_new] + L[s - 1]
                    total = dlw + (log_rev - log_fwd)
                    if not (total >= 0.0 or random() < exp(total)):
                        continue
                    merge_accepted += 1
                    lazy[a] += t
                    lazy[b] += t
                    lazy[s] -= t
                    long_mass += big[s] - big[a] - big[b]
                    # the a-cycle out, then the b-cycle, then the s-cycle in
                    if ra == 1:
                        del occ[a]
                        if a >= 2:
                            i = key_pos.pop(a)
                            last = split_keys.pop()
                            if last != a:
                                split_keys[i] = last
                                key_pos[last] = i
                    else:
                        occ[a] = ra - 1
                    pos = pos_by_len[a].pop()
                    if pos != mm1:
                        moved = cycles[mm1]
                        cycles[pos] = moved
                        mset = pos_by_len[moved]
                        mset.discard(mm1)
                        mset.add(pos)
                    cycles.pop()
                    if rb == 1:
                        del occ[b]
                        if b >= 2:
                            i = key_pos.pop(b)
                            last = split_keys.pop()
                            if last != b:
                                split_keys[i] = last
                                key_pos[last] = i
                    else:
                        occ[b] = rb - 1
                    pos = pos_by_len[b].pop()
                    m -= 2  # the last slot, then the s-cycle's
                    if pos != m:
                        moved = cycles[m]
                        cycles[pos] = moved
                        mset = pos_by_len[moved]
                        mset.discard(m)
                        mset.add(pos)
                    cycles.pop()
                    occ[s] = rs + 1
                    if rs == 0:  # s >= 2
                        key_pos[s] = len(split_keys)
                        split_keys.append(s)
                    pos_by_len[s].add(m)
                    cycles.append(s)
                log_weight += dlw
            if t == n_samples:
                break
            t += 1  # the sample after this segment
            lazy[0] += long_mass
            if t in stops:
                sums.append(_running_sums(lazy, occ, t, k_report))
            seg = thin if t < n_samples else 0
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

        Besides the mass and the cached weight, checks the index the kernel
        keeps by hand: occ counts the cycle list (no zero counts), split_keys
        holds the occupied lengths >= 2 once each, key_pos is its inverse,
        and each non-empty pos_by_len[x] holds the slots of the x-cycles.
        """
        occ = self.occ
        total = sum(k * r for k, r in occ.items())
        if total != self.n:
            raise ValidationError(f"occupation mass {total} != n={self.n}")
        if dict(Counter(self.cycles)) != occ:
            raise ValidationError("cycle list out of sync with occupations")
        if sorted(self.split_keys) != sorted(k for k in occ if k >= 2):
            raise ValidationError("split keys are not the occupied lengths >= 2")
        if self.key_pos != {k: i for i, k in enumerate(self.split_keys)}:
            raise ValidationError("key positions are not the split keys' inverse")
        slots = defaultdict(set)
        for i, x in enumerate(self.cycles):
            slots[x].add(i)
        if {x: s for x, s in self.pos_by_len.items() if s} != slots:
            raise ValidationError("slot sets out of sync with the cycle list")
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
    sampled = (n_samples - 1) * thin
    state._advance(burn_in + 1)
    state._advance(sampled, _Sampling(thin, k_report, threshold, stops, ends))
    state._advance(steps - burn_in - 1 - sampled)  # fewer than thin steps
    state.audit()

    sums = ends[-1]
    tallies = [[b - a for a, b in zip(lo, hi)] for lo, hi in zip(ends, ends[1 : nb + 1])]
    total = n * n_samples
    short_mass = sum(k * r_sum for k, r_sum in enumerate(sums[1:], start=1))
    # int / int is correctly rounded, so each mean is rounded once
    means = [s / total for s in sums]
    batch_means = np.array(tallies, dtype=np.float64) / (n * batch_size)
    stderr = (np.std(batch_means, axis=0, ddof=1) / math.sqrt(nb)).tolist()
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
