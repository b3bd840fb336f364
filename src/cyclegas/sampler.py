"""Split/merge Metropolis-Hastings over partitions of n.

Targets the exact finite-n ensemble weights for n far beyond enumeration
range.  A move is SPLIT (choose an occupied length k >= 2 uniformly, then an
offset j uniform in 1..k-1, replacing one k-cycle by a j- and a (k-j)-cycle)
or MERGE (choose an unordered pair of distinct cycles uniformly, replacing
them by their concatenation), each attempted with probability 1/2.  The two
kinds are mutually reverse, and the Hastings ratio accounts exactly for
occupation multiplicities and the offset choice.

Chains are single-stream and deterministic given the seed; estimator errors
use batch means.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import CapError, ValidationError
from .exactz import _cycle_log_constants, _occupation_log_weight
from .partitions import Partition
from .thermo import SystemParams, optimal_shape

CHAIN_N_CAP = 100_000
_BATCHES = 50


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


def split_move_terms(
    occ: dict[int, int],
    c: list[float],
    lg: list[float],
    m: int,
    k2: int,
    k: int,
    j: int,
) -> tuple[float, float]:
    """(delta log weight, log Hastings ratio) for splitting a k-cycle at j.

    occ/m/k2 describe the state before the move; the move must be legal
    (occ[k] >= 1, k >= 2, 1 <= j <= k-1).
    """
    j2 = k - j
    rk = occ[k]
    dlw = -c[k] + lg[rk] - lg[rk - 1]
    if j == j2:
        rj = occ.get(j, 0)
        dlw += 2.0 * c[j] - (lg[rj + 2] - lg[rj])
        npairs = (rj + 2) * (rj + 1) // 2
        log_fwd = -math.log(k2) - math.log(k - 1)
    else:
        rj = occ.get(j, 0)
        rj2 = occ.get(j2, 0)
        dlw += c[j] - (lg[rj + 1] - lg[rj])
        dlw += c[j2] - (lg[rj2 + 1] - lg[rj2])
        npairs = (rj + 1) * (rj2 + 1)
        log_fwd = -math.log(k2) - math.log(k - 1) + math.log(2.0)
    m_new = m + 1
    log_rev = math.log(npairs) - math.log(m_new * (m_new - 1) / 2.0)
    return dlw, log_rev - log_fwd


def merge_move_terms(
    occ: dict[int, int],
    c: list[float],
    lg: list[float],
    m: int,
    k2: int,
    a: int,
    b: int,
) -> tuple[float, float]:
    """(delta log weight, log Hastings ratio) for merging an a- and a b-cycle.

    occ/m/k2 describe the state before the move; requires two distinct
    cycles of lengths a and b (occ[a] >= 2 when a == b).
    """
    s = a + b
    rs = occ.get(s, 0)
    if a == b:
        ra = occ[a]
        dlw = -2.0 * c[a] + lg[ra] - lg[ra - 2]
        npairs = ra * (ra - 1) // 2
        log_rev_choice = 0.0
        ra_post_zero = ra == 2
        rb_post_zero = False
    else:
        ra = occ[a]
        rb = occ[b]
        dlw = (-c[a] + lg[ra] - lg[ra - 1]) + (-c[b] + lg[rb] - lg[rb - 1])
        npairs = ra * rb
        log_rev_choice = math.log(2.0)
        ra_post_zero = ra == 1
        rb_post_zero = rb == 1
    dlw += c[s] - (lg[rs + 1] - lg[rs])
    log_fwd = math.log(npairs) - math.log(m * (m - 1) / 2.0)
    k2_new = k2
    if a >= 2 and ra_post_zero:
        k2_new -= 1
    if b >= 2 and rb_post_zero:
        k2_new -= 1
    if rs == 0:
        k2_new += 1
    log_rev = -math.log(k2_new) - math.log(s - 1) + log_rev_choice
    return dlw, log_rev - log_fwd


@dataclass(frozen=True)
class ProposedMove:
    kind: str  # "split" | "merge"
    candidate: Optional[Partition]  # None when no legal move of this kind exists
    log_hastings_ratio: float
    delta_log_weight: float
    detail: tuple


class ChainState:
    """Mutable split/merge chain state over partitions of params.n.

    Keeps the occupation map, a flat list of cycle lengths for O(1) uniform
    cycle picks, and the distinct lengths >= 2 for O(1) uniform split picks.
    The cached log weight tracks every accepted move; audit() recomputes it
    from scratch.
    """

    def __init__(self, params: SystemParams, seed: int = 0, start: str = "shape"):
        if params.n is None:
            raise ValidationError("chain needs params.n set")
        if params.n > CHAIN_N_CAP:
            raise CapError(f"chains are capped at n <= {CHAIN_N_CAP}, got {params.n}")
        if start not in ("shape", "singletons"):
            raise ValidationError(f"unknown start state {start!r}")
        self.params = params
        self.n = params.n
        self.rng_seed = seed
        self.rng = random.Random(seed)
        self._c = _cycle_log_constants(params, self.n)
        self._lg = [math.lgamma(r + 1) for r in range(self.n + 2)]
        self.step_count = 0
        self.acceptance_counts = {
            "split": {"proposed": 0, "accepted": 0, "auto_rejected": 0},
            "merge": {"proposed": 0, "accepted": 0, "auto_rejected": 0},
        }
        self.occ: dict[int, int] = {}
        self.cycles: list[int] = []
        self.pos_by_len: dict[int, set[int]] = {}
        self.split_keys: list[int] = []
        self.key_pos: dict[int, int] = {}
        if start == "singletons":
            counts: dict[int, int] = {1: self.n}
        else:
            counts = _shape_occupations(params)
        for length, r in counts.items():
            for _ in range(r):
                self._add_cycle(length)
        self.log_weight = _occupation_log_weight(self.occ.items(), self._c)

    @property
    def current(self) -> Partition:
        return Partition.from_counts(self.n, self.occ)

    def occupation_key(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.occ.items()))

    @property
    def num_cycles(self) -> int:
        return len(self.cycles)

    def _add_cycle(self, length: int) -> None:
        r = self.occ.get(length, 0) + 1
        self.occ[length] = r
        if r == 1 and length >= 2:
            self.key_pos[length] = len(self.split_keys)
            self.split_keys.append(length)
        pos = len(self.cycles)
        self.cycles.append(length)
        self.pos_by_len.setdefault(length, set()).add(pos)

    def _remove_cycle(self, length: int) -> None:
        r = self.occ[length] - 1
        if r == 0:
            del self.occ[length]
            if length >= 2:
                i = self.key_pos.pop(length)
                last = self.split_keys.pop()
                if last != length:
                    self.split_keys[i] = last
                    self.key_pos[last] = i
        else:
            self.occ[length] = r
        positions = self.pos_by_len[length]
        pos = positions.pop()
        last_idx = len(self.cycles) - 1
        if pos != last_idx:
            moved = self.cycles[last_idx]
            self.cycles[pos] = moved
            mset = self.pos_by_len[moved]
            mset.discard(last_idx)
            mset.add(pos)
        self.cycles.pop()

    def _draw_split(self) -> Optional[tuple[int, int, float, float]]:
        k2 = len(self.split_keys)
        if k2 == 0:
            return None
        k = self.split_keys[self.rng.randrange(k2)]
        j = 1 + self.rng.randrange(k - 1)
        dlw, lratio = split_move_terms(
            self.occ, self._c, self._lg, len(self.cycles), k2, k, j
        )
        return k, j, dlw, lratio

    def _draw_merge(self) -> Optional[tuple[int, int, float, float]]:
        m = len(self.cycles)
        if m < 2:
            return None
        i1 = self.rng.randrange(m)
        i2 = self.rng.randrange(m - 1)
        if i2 >= i1:
            i2 += 1
        a = self.cycles[i1]
        b = self.cycles[i2]
        if a > b:
            a, b = b, a
        dlw, lratio = merge_move_terms(
            self.occ, self._c, self._lg, m, len(self.split_keys), a, b
        )
        return a, b, dlw, lratio

    def step(self) -> bool:
        """One Metropolis-Hastings step; returns True when the move lands."""
        self.step_count += 1
        rng = self.rng
        if rng.random() < 0.5:
            counts = self.acceptance_counts["split"]
            counts["proposed"] += 1
            drawn = self._draw_split()
            if drawn is None:
                counts["auto_rejected"] += 1
                return False
            k, j, dlw, lratio = drawn
            total = dlw + lratio
            if total >= 0.0 or rng.random() < math.exp(total):
                self._remove_cycle(k)
                self._add_cycle(j)
                self._add_cycle(k - j)
                self.log_weight += dlw
                counts["accepted"] += 1
                return True
            return False
        counts = self.acceptance_counts["merge"]
        counts["proposed"] += 1
        drawn = self._draw_merge()
        if drawn is None:
            counts["auto_rejected"] += 1
            return False
        a, b, dlw, lratio = drawn
        total = dlw + lratio
        if total >= 0.0 or rng.random() < math.exp(total):
            self._remove_cycle(a)
            self._remove_cycle(b)
            self._add_cycle(a + b)
            self.log_weight += dlw
            counts["accepted"] += 1
            return True
        return False

    def audit(self) -> None:
        """Recompute invariants; raises on any drift."""
        total = sum(k * r for k, r in self.occ.items())
        if total != self.n:
            raise ValidationError(f"occupation mass {total} != n={self.n}")
        if len(self.cycles) != sum(self.occ.values()):
            raise ValidationError("cycle list out of sync with occupations")
        w = _occupation_log_weight(self.occ.items(), self._c)
        # relative: every accepted move adds its rounding to the cached sum
        if abs(w - self.log_weight) > 1e-10 * max(1.0, abs(w)):
            raise ValidationError(
                f"cached log weight drifted: {self.log_weight} vs {w}"
            )


def propose_move(state: ChainState) -> ProposedMove:
    """Draw one candidate move without applying it.

    Consumes the chain's randomness exactly like a step would; the candidate
    is None when the drawn move kind has no legal move (auto-reject).
    """
    rng = state.rng
    occ = dict(state.occ)
    if rng.random() < 0.5:
        drawn = state._draw_split()
        if drawn is None:
            return ProposedMove("split", None, 0.0, 0.0, ())
        k, j, dlw, lratio = drawn
        occ[k] -= 1
        if occ[k] == 0:
            del occ[k]
        occ[j] = occ.get(j, 0) + 1
        occ[k - j] = occ.get(k - j, 0) + 1
        return ProposedMove(
            "split", Partition.from_counts(state.n, occ), lratio, dlw, (k, j)
        )
    drawn = state._draw_merge()
    if drawn is None:
        return ProposedMove("merge", None, 0.0, 0.0, ())
    a, b, dlw, lratio = drawn
    occ[a] -= 1
    if occ[a] == 0:
        del occ[a]
    occ[b] -= 1
    if occ[b] == 0:
        del occ[b]
    occ[a + b] = occ.get(a + b, 0) + 1
    return ProposedMove(
        "merge", Partition.from_counts(state.n, occ), lratio, dlw, (a, b)
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
    """Long-cycle cutoff separating O(1) cycles from extensive ones."""
    return int(n ** (2.0 / 3.0))


def run_chain(
    params: SystemParams,
    steps: int,
    burn_in: Optional[int] = None,
    seed: int = 0,
    thin: int = 10,
    k_report: Optional[int] = None,
    threshold: Optional[int] = None,
    audit_every: int = 0,
) -> CycleStats:
    """Run one chain and estimate cycle statistics with batch-means errors.

    Deterministic given the seed.  burn_in defaults to steps // 10; samples
    are recorded every `thin` steps after burn-in.
    """
    if params.n is None:
        raise ValidationError("run_chain needs params.n set")
    n = params.n
    if burn_in is None:
        burn_in = steps // 10
    if not 0 <= burn_in <= steps:
        raise ValidationError(f"need 0 <= burn_in <= steps, got {burn_in} > {steps}")
    if thin < 1:
        raise ValidationError(f"thin must be >= 1, got {thin}")
    if k_report is None:
        k_report = min(n, 30)
    if threshold is None:
        threshold = default_threshold(n)

    state = ChainState(params, seed=seed)
    n_samples = max(0, (steps - burn_in + thin - 1) // thin)
    if n_samples < 2:
        raise ValidationError("need at least 2 recorded samples; increase steps")
    nb = min(_BATCHES, n_samples)
    batch_size = n_samples // nb

    cols = k_report + 1  # qhat components plus the long-cycle mass
    batch_sums = np.zeros((nb, cols), dtype=np.float64)
    grand_sums = np.zeros(cols, dtype=np.float64)
    tail_sum = 0.0
    sample_idx = 0

    for i in range(steps):
        state.step()
        if audit_every and state.step_count % audit_every == 0:
            state.audit()
        if i < burn_in or (i - burn_in) % thin != 0:
            continue
        row = np.zeros(cols, dtype=np.float64)
        short_mass = 0
        long_mass = 0
        for k, r in state.occ.items():
            if k <= k_report:
                row[k - 1] = r / n
                short_mass += k * r
            if k > threshold:
                long_mass += k * r
        row[-1] = long_mass / n
        grand_sums += row
        tail_sum += (n - short_mass) / n
        b = sample_idx // batch_size
        if b < nb:
            batch_sums[b] += row
        sample_idx += 1

    means = grand_sums / sample_idx
    batch_means = batch_sums / batch_size
    stderr = np.std(batch_means, axis=0, ddof=1) / math.sqrt(nb)
    return CycleStats(
        n=n,
        k_report=k_report,
        threshold=threshold,
        mean_qhat=tuple(means[:-1]),
        qhat_stderr=tuple(stderr[:-1]),
        long_cycle_fraction=float(means[-1]),
        fraction_stderr=float(stderr[-1]),
        tail_mass_mean=tail_sum / sample_idx,
        n_samples=sample_idx,
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
        stats = run_chain(
            params_base.with_n(int(n)), steps=steps, seed=seed + i, thin=thin
        )
        rows.append(
            LongCycleRow(n=int(n), fraction=stats.long_cycle_fraction, stderr=stats.fraction_stderr)
        )
    return rows
