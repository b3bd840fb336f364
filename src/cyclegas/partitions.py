"""Integer partitions as permutation cycle types.

A partition of n is stored through its occupation numbers r_k (the number of
parts, equivalently cycles, of length k).  The module provides streaming
enumeration of parts lists in descending-lexicographic order, the exact
partition-count recurrence p(n), conjugacy-class sizes n!/prod(r_k! k^r_k),
and the exact rational shape measure Q(l) = (1/n) sum_{k>=l} r_k together
with its inverse.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import ValidationError, check_cap

if TYPE_CHECKING:
    from fractions import Fraction


class _Partition(NamedTuple):
    n: int
    occupations: tuple[tuple[int, int], ...]


class Partition(_Partition):
    """Cycle type of a permutation class: occupation numbers of a partition.

    `occupations` is a sparse sorted tuple of (cycle length k, count r_k)
    with every stored count >= 1 and sum k * r_k == n.
    """

    __slots__ = ()

    def __new__(cls, n: int, occupations: tuple[tuple[int, int], ...]) -> "Partition":
        if n < 1:
            raise ValidationError(f"partition total must be >= 1, got {n}")
        total = 0
        prev_k = 0
        for k, r in occupations:
            if k <= prev_k:
                raise ValidationError("occupation lengths must be strictly increasing")
            if r < 1:
                raise ValidationError(f"stored occupation count must be >= 1, got r_{k}={r}")
            total += k * r
            prev_k = k
        if total != n:
            raise ValidationError(f"occupations sum to {total}, expected n={n}")
        return _Partition.__new__(cls, n, occupations)

    @classmethod
    def from_counts(cls, n: int, counts: dict[int, int]) -> "Partition":
        occ = tuple(sorted((k, r) for k, r in counts.items() if r != 0))
        return cls(n, occ)

    @classmethod
    def from_parts(cls, parts: Iterator[int]) -> "Partition":
        counts: dict[int, int] = {}
        total = 0
        for p in parts:
            counts[p] = counts.get(p, 0) + 1
            total += p
        return cls(total, tuple(sorted(counts.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.occupations)

    def parts(self) -> tuple[int, ...]:
        """Expanded parts, descending (e.g. (2, 1, 1) for r_1=2, r_2=1)."""
        out: list[int] = []
        for k, r in reversed(self.occupations):
            out.extend([k] * r)
        return tuple(out)

    @property
    def num_cycles(self) -> int:
        return sum(r for _, r in self.occupations)


class _ShapeMeasure(NamedTuple):
    n: int
    tail: tuple[Fraction, ...]


class ShapeMeasure(_ShapeMeasure):
    """Monotone tail measure of a partition: Q(l) = (1/n) sum_{k>=l} r_k.

    Stored as exact rationals with denominator dividing n so that the
    round trip through occupation numbers is bit-exact.
    """

    __slots__ = ()

    def __new__(cls, n: int, tail: tuple[Fraction, ...]) -> "ShapeMeasure":
        if n < 1:
            raise ValidationError(f"shape measure needs n >= 1, got {n}")
        if not tail:
            raise ValidationError("shape measure tail must be nonempty")
        prev = None
        for q in tail:
            if q <= 0:
                raise ValidationError("tail values must be positive")
            if (q * n).denominator != 1:
                raise ValidationError("tail values must be multiples of 1/n")
            if prev is not None and q > prev:
                raise ValidationError("tail must be non-increasing")
            prev = q
        if sum(tail) != 1:
            raise ValidationError("tail values must sum to 1")
        return _ShapeMeasure.__new__(cls, n, tail)

    @property
    def increments(self) -> tuple[Fraction, ...]:
        """Q-hat(k) = Q(k) - Q(k+1), with Q(L+1) = 0."""
        return tuple(q - q_next for q, q_next in zip(self.tail, (*self.tail[1:], 0)))


def iter_parts(n: int) -> Iterator[list[int]]:
    """Iterate each partition of n as a descending parts list, descending-lex.

    n is checked at the call.  The yielded list is reused between
    iterations; copy it if you keep it.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    check_cap("enumeration", n)
    return _parts(n)


def _parts(n: int) -> Iterator[list[int]]:
    parts = [n]
    while True:
        yield parts
        # rightmost part > 1
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        rest = len(parts) - i  # trailing ones plus the unit we strip off
        v = parts[i] - 1
        del parts[i:]
        parts.append(v)
        while rest > 0:
            c = v if v < rest else rest
            parts.append(c)
            rest -= c


def partition_count(n: int) -> int:
    """p(n) by the bounded-part DP convolution, exact integer arithmetic."""
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    check_cap("enumeration", n)
    dp = [0] * (n + 1)
    dp[0] = 1
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            dp[m] += dp[m - part]
    return dp[n]


def shape_measure(lam: Partition) -> ShapeMeasure:
    """Tail measure Q(l) = (1/n) sum_{k>=l} r_k of a partition."""
    from fractions import Fraction

    n = lam.n
    max_k = lam.occupations[-1][0]
    counts = lam.as_dict()
    tail_num = [0] * (max_k + 1)
    acc = 0
    for l in range(max_k, 0, -1):
        acc += counts.get(l, 0)
        tail_num[l] = acc
    return ShapeMeasure(n, tuple(Fraction(tail_num[l], n) for l in range(1, max_k + 1)))


def occupations_from_shape(shape: ShapeMeasure) -> Partition:
    """Invert a shape measure: r_k = n * (Q(k) - Q(k+1))."""
    n = shape.n
    counts: dict[int, int] = {}
    for idx, q in enumerate(shape.increments):
        r = q * n
        if r.denominator != 1:
            raise ValidationError("increments times n must be integers")
        if r > 0:
            counts[idx + 1] = int(r)
    return Partition.from_counts(n, counts)


def conjugacy_class_size(lam: Partition) -> int:
    """Exact number of permutations with this cycle type: n!/prod(r_k! k^r_k)."""
    check_cap("enumeration", lam.n)
    num = math.factorial(lam.n)
    den = 1
    for k, r in lam.occupations:
        den *= math.factorial(r) * k**r
    q, rem = divmod(num, den)
    assert rem == 0  # the class-size formula always divides n! evenly
    return q


def log_conjugacy_class_size(lam: Partition) -> float:
    """Natural log of the conjugacy-class size via log-gamma."""
    out = math.lgamma(lam.n + 1)
    for k, r in lam.occupations:
        out -= math.lgamma(r + 1) + r * math.log(k)
    return out
