"""Enumeration oracles for the exact engine: every partition of n with its weight.

The package computes its finite-n sums with one engine, the cycle-index
recursion (cyclegas.exactz).  These helpers sum the same weights the slow
way, one term per partition, so that the tests can check the recursion, its
expectations and the chain's stationary law at small n.  The weight is
thermo's: the table log theta_k (_cycle_log_constants) and a partition's
log weight (_occupation_log_weight), which the recursion and the chain read
too.  The partitions stream from cyclegas.partitions.iter_parts, under its
enumeration cap.
"""

from __future__ import annotations

import math
from itertools import groupby, repeat
from operator import sub
from typing import Iterator, NamedTuple, Sequence

from cyclegas.errors import ValidationError
from cyclegas.partitions import Partition, iter_parts
from cyclegas.thermo import SystemParams, _cycle_log_constants, _occupation_log_weight, _require_n


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Stream every partition of n exactly once, descending-lex by parts."""
    return (
        Partition(n, tuple((k, len(list(run))) for k, run in groupby(reversed(parts))))
        for parts in iter_parts(n)
    )


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


class WeightedEnsemble(NamedTuple):
    """All partitions of n with their log weights and the normalisation."""

    params: SystemParams
    log_weights: dict[Partition, float]
    log_Z: float

    def probability(self, lam: Partition) -> float:
        return math.exp(self.log_weights[lam] - self.log_Z)


def weighted_ensemble(params: SystemParams) -> WeightedEnsemble:
    """Materialise the distribution over P_n (small n only), under the exact cap."""
    c = _cycle_log_constants(params, "exact")
    table = {
        lam: _occupation_log_weight(lam.occupations, c)
        for lam in enumerate_partitions(params.n)
    }
    log_z = _logsumexp(list(table.values()))
    return WeightedEnsemble(params=params, log_weights=table, log_Z=log_z)
