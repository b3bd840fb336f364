"""Tests for partition enumeration, counts, class sizes, and shape measures."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclegas.errors import CAPS, CapError, ValidationError
from cyclegas.partitions import (
    Partition,
    ShapeMeasure,
    conjugacy_class_size,
    iter_parts,
    log_conjugacy_class_size,
    occupations_from_shape,
    partition_count,
    shape_measure,
)
from tests.oracles import enumerate_partitions


def pentagonal_partition_count(n: int) -> int:
    """Independent oracle: Euler's pentagonal-number recurrence for p(n)."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if j % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            j += 1
        p[m] = total
    return p[n]


def cycle_type_of(perm: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Occupation tuple of a permutation given in one-line notation."""
    n = len(perm)
    seen = [False] * n
    counts: dict[int, int] = {}
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        counts[length] = counts.get(length, 0) + 1
    return tuple(sorted(counts.items()))


class TestEnumeration:
    def test_single_term_case(self):
        parts = list(enumerate_partitions(1))
        assert parts == [Partition(1, ((1, 1),))]

    def test_counts_small(self):
        assert sum(1 for _ in enumerate_partitions(4)) == 5
        assert sum(1 for _ in enumerate_partitions(10)) == 42

    def test_descending_lex_order(self):
        seen = [p.parts() for p in enumerate_partitions(6)]
        assert seen == sorted(seen, reverse=True)
        assert seen[0] == (6,)
        assert seen[-1] == (1,) * 6

    def test_no_duplicates_and_all_valid(self):
        for n in range(1, 16):
            seen = set()
            for p in enumerate_partitions(n):
                assert sum(k * r for k, r in p.occupations) == n
                assert p.occupations not in seen
                seen.add(p.occupations)
            assert len(seen) == partition_count(n)

    def test_stream_count_matches_partition_count(self):
        for n in range(1, 26):
            assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            list(enumerate_partitions(0))
        cap = CAPS["enumeration"].limit
        with pytest.raises(CapError, match=str(cap)):
            list(enumerate_partitions(cap + 1))

    def test_bad_n_is_refused_at_the_call(self):
        # not at the first next(): the iterator is never built
        with pytest.raises(ValidationError):
            iter_parts(0)


class TestPartitionCount:
    def test_empty_partition_convention(self):
        assert partition_count(0) == 1

    def test_small_values(self):
        assert partition_count(4) == 5
        assert partition_count(50) == 204226

    def test_against_pentagonal_oracle(self):
        for n in range(0, 121, 10):
            assert partition_count(n) == pentagonal_partition_count(n)

    def test_cap(self):
        with pytest.raises(CapError):
            partition_count(CAPS["enumeration"].limit + 1)

    def test_negative_n_is_rejected(self):
        with pytest.raises(ValidationError, match="n must be >= 0, got -1$"):
            partition_count(-1)


class TestClassSizes:
    def test_single_cycle_class(self):
        for n in (3, 5, 9):
            lam = Partition(n, ((n, 1),))
            assert conjugacy_class_size(lam) == math.factorial(n - 1)

    def test_identity_class(self):
        lam = Partition(7, ((1, 7),))
        assert conjugacy_class_size(lam) == 1

    def test_class_sizes_sum_to_factorial(self):
        for n in range(1, 11):
            total = sum(conjugacy_class_size(p) for p in enumerate_partitions(n))
            assert total == math.factorial(n)

    def test_sum_over_p4_is_24(self):
        assert sum(conjugacy_class_size(p) for p in enumerate_partitions(4)) == 24

    @pytest.mark.parametrize("n", range(1, 9))
    def test_brute_force_sn_classification(self, n):
        # classify all n! permutations by cycle type; compare against the
        # closed-form class size and against the enumerated partition set
        counts: dict[tuple, int] = {}
        for perm in itertools.permutations(range(n)):
            t = cycle_type_of(perm)
            counts[t] = counts.get(t, 0) + 1
        expected_types = {p.occupations for p in enumerate_partitions(n)}
        assert set(counts) == expected_types
        for t, c in counts.items():
            assert c == conjugacy_class_size(Partition(n, t))

    def test_log_variant_agrees_with_exact(self):
        for n in (5, 12, 30):
            for lam in enumerate_partitions(n):
                exact = conjugacy_class_size(lam)
                assert log_conjugacy_class_size(lam) == pytest.approx(
                    math.log(exact), rel=1e-12
                )


class TestShapeMeasure:
    def test_two_part_instance(self):
        lam = Partition.from_counts(4, {1: 2, 2: 1})
        q = shape_measure(lam)
        assert q.tail == (Fraction(3, 4), Fraction(1, 4))
        assert q.increments == (Fraction(1, 2), Fraction(1, 4))

    def test_single_n_cycle(self):
        n = 9
        q = shape_measure(Partition(n, ((n, 1),)))
        assert q.tail == tuple(Fraction(1, n) for _ in range(n))

    def test_identity_class_shape(self):
        n = 6
        q = shape_measure(Partition(n, ((1, n),)))
        assert q.tail == (Fraction(1),)
        assert q.increments == (Fraction(1),)

    def test_inverse_simple(self):
        assert occupations_from_shape(ShapeMeasure(3, (Fraction(1),))) == Partition(
            3, ((1, 3),)
        )
        q = ShapeMeasure(4, (Fraction(3, 4), Fraction(1, 4)))
        assert occupations_from_shape(q) == Partition.from_counts(4, {1: 2, 2: 1})

    def test_round_trip_exhaustive(self):
        for n in (12,):
            for lam in enumerate_partitions(n):
                assert occupations_from_shape(shape_measure(lam)) == lam

    def test_validation_rejects_bad_tails(self):
        with pytest.raises(ValidationError):
            ShapeMeasure(4, (Fraction(1, 4), Fraction(3, 4)))  # not monotone
        with pytest.raises(ValidationError):
            ShapeMeasure(4, (Fraction(1, 2), Fraction(1, 4)))  # not normalized
        with pytest.raises(ValidationError):
            ShapeMeasure(4, (Fraction(2, 3), Fraction(1, 3)))  # denominator not 4


@st.composite
def random_partitions(draw, max_n=60):
    n = draw(st.integers(min_value=1, max_value=max_n))
    parts = []
    left = n
    while left > 0:
        p = draw(st.integers(min_value=1, max_value=left))
        parts.append(p)
        left -= p
    return Partition.from_parts(parts)


class TestProperties:
    @given(random_partitions())
    @settings(max_examples=200, deadline=None)
    def test_shape_round_trip_is_identity(self, lam):
        assert occupations_from_shape(shape_measure(lam)) == lam

    @given(random_partitions())
    @settings(max_examples=200, deadline=None)
    def test_shape_increments_are_counts_over_n(self, lam):
        q = shape_measure(lam)
        inc = q.increments
        for k, r in lam.occupations:
            assert inc[k - 1] == Fraction(r, lam.n)
        assert sum((i + 1) * v for i, v in enumerate(inc)) == 1

    def test_distinct_lengths_bound(self):
        for n in (10, 30, 60):
            bound = math.ceil(math.sqrt(2 * n))
            for parts in iter_parts(n):
                assert len(set(parts)) <= bound

    def test_image_cardinality_binomial_bound(self):
        # p(n) never exceeds the choose-and-sort bound for the image of the
        # shape map at exponent 0.75
        alpha = 0.75
        for n in range(10, 41):
            m = math.ceil(n**alpha)
            bound = math.comb(n, m) * (
                math.factorial(n + m - 1) // (math.factorial(n - 1) * math.factorial(m))
            )
            assert partition_count(n) <= bound
