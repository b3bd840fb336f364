"""Tests for the exact finite-n ensemble against its permutation oracle."""

import functools
import gc
import itertools
import math
import tracemalloc
from collections import Counter
from operator import add

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclegas import exactz
from cyclegas.errors import CAPS, CapError, PrecisionError, ValidationError
from cyclegas.exactz import (
    ScanRow,
    _log_Z_table,
    _tilt,
    brute_force_log_Z,
    confinement_log_Z_bracket,
    convergence_scan,
    exact_log_Z,
    mu_N_expected_shape,
)
from cyclegas.partitions import Partition
from cyclegas.thermo import (
    SystemParams,
    _cycle_log_constants,
    critical_density,
    qhat_star,
    solve_alpha,
    thermal_factor,
)
from tests.oracles import _logsumexp, enumerate_partitions, log_weight, weighted_ensemble

BETA_UNIT = 1.0 / (4.0 * math.pi)

# regression fixture: first run of the d=3, beta=1/(4pi), rho=rho_c/2 scan
GAP_FIXTURE_N10 = -0.23804971188070323


def cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    n = len(perm)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        out.append(length)
    return out


def oracle_cycle_weights(params: SystemParams) -> list[float]:
    """t[k] = log(|V| (4 pi beta k)^(-d/2)), k = 1..n, as the oracle writes it."""
    log_v = math.log(params.volume)
    d_half = params.d / 2.0
    four_pi_beta = 4.0 * math.pi * params.beta
    return [0.0] + [
        log_v - d_half * math.log(four_pi_beta * k) for k in range(1, params.n + 1)
    ]


def expand(pairs: list[tuple[float, int]]) -> list[float]:
    """The oracle's (term, multiplicity) pairs as one term per permutation."""
    return [x for x, mult in pairs for _ in range(mult)]


@functools.lru_cache(maxsize=None)
def itertools_cycle_types(n: int) -> dict[tuple[int, ...], int]:
    """How many permutations of n elements have each cycle type.

    itertools.permutations builds every permutation and cycle_lengths walks
    it, independently of the oracle's insertion order.
    """
    return Counter(
        tuple(sorted(cycle_lengths(perm))) for perm in itertools.permutations(range(n))
    )


# the spacing of the subnormal floats: a reference weight rounded there is
# off by at most half of it, not by u relative
SUBNORMAL_STEP = 2.0**-1074


def itertools_tilted_weights(params: SystemParams, top: float) -> list[float]:
    """Reference: one weight e^(W - top) per permutation, W summed over its cycles at 40 digits.

    Every permutation of a cycle type has the same weight, computed once.
    Each is the float nearest the 40-digit value: within u relative, or
    SUBNORMAL_STEP / 2 absolute below 2^-1022.
    """
    t = oracle_cycle_weights(params)
    out: list[float] = []
    with mpmath.workdps(40):
        for lengths, count in itertools_cycle_types(params.n).items():
            w = mpmath.fsum(mpmath.mpf(t[k]) for k in lengths) - mpmath.mpf(top)
            out.extend([float(mpmath.exp(w))] * count)
    return out


def itertools_log_Z(params: SystemParams, dps: int = 40) -> mpmath.mpf:
    """log of the mean of e^W over every permutation, at dps digits.

    The float lgamma(n + 1) is subtracted, as the oracle does, so that its
    own rounding cancels.
    """
    t = oracle_cycle_weights(params)
    with mpmath.workdps(dps):
        total = mpmath.fsum(
            count * mpmath.exp(mpmath.fsum(mpmath.mpf(t[k]) for k in lengths))
            for lengths, count in itertools_cycle_types(params.n).items()
        )
        return mpmath.log(total) - mpmath.mpf(math.lgamma(params.n + 1))


def oracle_error_bounds(params: SystemParams, log_z: float) -> tuple[float, float, float]:
    """A priori bounds on brute_force_log_Z: (term relative, term absolute, log Z).

    With u = 2^-53, t the oracle's cycle weights and M_m = max(m t[1], t[m])
    (the floats the oracle forms), element m multiplies the running weight
    by e^x, x = fl(a + D_m), D_m = fl(M_(m-1) - M_m), a = t[1] for a new
    fixed point or fl(t[L+1] - t[L]), L < m, for a grown L-cycle.  Along a
    path the exact exponents a + M_(m-1) - M_m telescope to W - M_n, so a
    term's relative error is the sum over its n steps of the exponent's
    roundings, u|a| (growth only), u|D_m| and u|x|, with 2u for the exp and
    u for the product; each step is bounded by its worst kind, and one more
    u covers the second-order terms.  The first step is exact: M_1 = t[1],
    so x = t[1] - t[1] = 0 and e^x = 1.  Underflow adds at most
    2n 2^-1075 e^(0.0897 d (n - 1)) absolute to each term (the derivation in
    brute_force_log_Z's docstring).  log Z = log S + M_n - lgamma(n + 1)
    then adds, beside the term error and n! times the absolute loss on a sum
    of at least 1: the sum of the (term, multiplicity) pairs, formed exactly
    and rounded once (u), the log of a sum in [1, n!]
    (2u lgamma(n + 1)), the add of M_n (u (|log Z| + lgamma(n + 1))) and the
    subtraction of lgamma (u |log Z|), and u for the second order.
    """
    n = params.n
    t = oracle_cycle_weights(params)
    top = [0.0] + [max(m * t[1], t[m]) for m in range(1, n + 1)]
    rel = U
    for m in range(2, n + 1):
        shift = top[m - 1] - top[m]
        steps = [abs(shift) + abs(t[1] + shift)] + [
            abs(t[L + 1] - t[L]) + abs(shift) + abs(t[L + 1] - t[L] + shift)
            for L in range(1, m)
        ]
        rel += U * (max(steps) + 3)
    underflow = math.ldexp(2 * n * math.exp(0.0897 * params.d * (n - 1)), -1075)
    lg = math.lgamma(n + 1)
    log_bound = rel + math.factorial(n) * underflow + U * (2 + 3 * lg + 2 * abs(log_z))
    return rel, underflow, log_bound


def recursion_log_Z(params: SystemParams) -> float:
    """Independent oracle: the convolution recursion for exponential sums.

    With per-cycle weight x_k = |V| (4 pi beta k)^(-d/2) / k, the partition
    sum satisfies n Z_n = sum_{k=1}^n (k x_k) Z_{n-k}, run here in log space.
    """
    n = params.n
    log_kx = [
        math.log(params.volume)
        - (params.d / 2.0) * math.log(4.0 * math.pi * params.beta * k)
        for k in range(1, n + 1)
    ]
    log_z = [0.0]  # log Z_0
    for m in range(1, n + 1):
        terms = [log_kx[k - 1] + log_z[m - k] for k in range(1, m + 1)]
        hi = max(terms)
        log_z.append(hi + math.log(sum(math.exp(t - hi) for t in terms)) - math.log(m))
    return log_z[n]


def enumeration_log_Z(params: SystemParams, shift: float = 0.0) -> float:
    """Oracle: log-sum-exp of log_weight over every partition of n.

    `shift` is added once per cycle, as a constant per-cycle log factor.
    """
    logs = np.array(
        [
            log_weight(lam, params) + shift * lam.num_cycles
            for lam in enumerate_partitions(params.n)
        ]
    )
    hi = float(np.max(logs))
    return hi + math.log(float(np.sum(np.exp(logs - hi))))


system_points = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.02, max_value=5.0),
    st.floats(min_value=0.02, max_value=5.0),
    st.integers(min_value=1, max_value=30),
)


class TestLogWeight:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_cycle_constants_are_the_reference_shape(self, d):
        # theta_k = n Qhat*(k): the ensemble and S(Q) share one cycle weight
        n = 2000
        p = SystemParams(d, 0.3, 1.7, n=n)
        c = _cycle_log_constants(p, "chain")
        for k in range(1, n + 1):
            want = math.log(n * qhat_star(p, float(k)))
            assert c[k] == pytest.approx(want, rel=1e-13, abs=1e-13), k

    def test_cycle_constants_read_log_k_bits(self):
        # the memoised log k table gives the bits of math.log(k) at every n,
        # on either side of its powers of two, and the cap's table fits
        for n in (1, 2, 3, 4, 20, 63, 64, 65, 2000, CAPS["chain"].limit):
            p = SystemParams(3, 0.3, 1.7, n=n)
            log_w = math.log(p.volume) - math.log(thermal_factor(3, 0.3))
            want = [0.0] + [log_w - 2.5 * math.log(k) for k in range(1, n + 1)]
            assert _cycle_log_constants(p, "chain") == want, n

    def test_single_particle(self):
        p = SystemParams(2, 0.7, 0.5, n=1)
        lam = Partition(1, ((1, 1),))
        want = math.log(p.volume) - 1.0 * math.log(4.0 * math.pi * 0.7)
        assert log_weight(lam, p) == pytest.approx(want, rel=1e-14)

    def test_single_two_cycle(self):
        p = SystemParams(3, 0.3, 1.3, n=2)
        lam = Partition(2, ((2, 1),))
        want = math.log(p.volume / (2.0 * (8.0 * math.pi * 0.3) ** 1.5))
        assert log_weight(lam, p) == pytest.approx(want, rel=1e-14)

    def test_weights_match_permutation_grouping(self):
        # group all of S_5 by cycle type; the per-type share of the
        # permutation sum must equal exp(log_weight)
        n = 5
        p = SystemParams(3, 0.5, 1.0, n=n)
        t = {
            k: p.volume * (4.0 * math.pi * 0.5 * k) ** (-1.5) for k in range(1, n + 1)
        }
        grouped: dict[tuple, float] = {}
        for perm in itertools.permutations(range(n)):
            lengths = cycle_lengths(perm)
            key = tuple(sorted(lengths))
            contrib = 1.0
            for L in lengths:
                contrib *= t[L]
            grouped[key] = grouped.get(key, 0.0) + contrib
        for lam in enumerate_partitions(n):
            key = tuple(sorted(lam.parts()))
            want = grouped[key] / math.factorial(n)
            assert math.exp(log_weight(lam, p)) == pytest.approx(want, rel=1e-12)

    def test_mismatched_n(self):
        p = SystemParams(3, 1.0, 1.0, n=5)
        with pytest.raises(ValidationError):
            log_weight(Partition(4, ((4, 1),)), p)


class TestBruteForceOracle:
    def test_n1(self):
        p = SystemParams(3, 1.0, 2.0, n=1)
        want = math.log(p.volume * (4.0 * math.pi) ** -1.5)
        assert brute_force_log_Z(p) == pytest.approx(want, rel=1e-14)

    def test_n2_hand_expansion(self):
        p = SystemParams(3, 0.3, 1.3, n=2)
        v = p.volume
        want = math.log(
            v**2 * (4.0 * math.pi * 0.3) ** -3.0 / 2.0
            + v * (8.0 * math.pi * 0.3) ** -1.5 / 2.0
        )
        assert brute_force_log_Z(p) == pytest.approx(want, rel=1e-14)

    def test_oracle_equality_spot(self):
        p = SystemParams(3, 1.0, 1.0, n=8)
        bf = brute_force_log_Z(p)
        ex = exact_log_Z(p)
        assert abs(bf - ex) <= 1e-12 * abs(ex)

    def test_cap(self):
        with pytest.raises(CapError):
            brute_force_log_Z(SystemParams(3, 1.0, 1.0, n=10))

    @staticmethod
    def record_terms(monkeypatch) -> list[tuple[list[tuple[float, int]], float]]:
        """Record each (pairs, M_n) the oracle sums, at the seam that builds them."""
        sent: list[tuple[list[tuple[float, int]], float]] = []
        build = exactz._permutation_weights

        def recording(params):
            pairs, top = build(params)
            sent.append((list(pairs), top))
            return pairs, top

        monkeypatch.setattr(exactz, "_permutation_weights", recording)
        return sent

    @pytest.mark.parametrize("n", range(1, 10))
    def test_one_term_per_permutation(self, monkeypatch, n):
        sent = self.record_terms(monkeypatch)
        brute_force_log_Z(SystemParams(2, 0.5, 1.0, n=n))
        assert [sum(mult for _, mult in pairs) for pairs, _ in sent] == [math.factorial(n)]

    @staticmethod
    def walk_calls(n: int, cycle_type: tuple[int, ...] = ()) -> int:
        """Calls of the walk from one permutation of this sorted cycle type to n elements.

        The call is one node; below n elements it has one child for a new
        fixed point and one per distinct cycle length, that length grown by 1.
        """
        if sum(cycle_type) + 1 == n:
            return 1
        grown = [
            cycle_type[:i] + (L + 1,) + cycle_type[i + 1:]
            for i, L in enumerate(cycle_type)
            if L not in cycle_type[:i]
        ]
        children = [cycle_type + (1,), *grown]
        return 1 + sum(TestBruteForceOracle.walk_calls(n, tuple(sorted(c))) for c in children)

    @pytest.mark.parametrize("n, calls", [(8, 352), (9, 1116)])
    def test_walk_branches_once_per_distinct_length(self, monkeypatch, n, calls):
        # one call per cycle type along each path; branching once per cycle
        # instead would take 1,156 and 5,296 calls
        walk, seen = exactz._insertion_walk, []

        def counting(*args):
            seen.append(1)
            return walk(*args)

        monkeypatch.setattr(exactz, "_insertion_walk", counting)
        pairs, _ = exactz._permutation_weights(SystemParams(3, 1.0, 1.0, n=n))
        assert sum(mult for _, mult in pairs) == math.factorial(n)
        assert len(seen) == self.walk_calls(n) == calls

    def check_against_itertools(self, monkeypatch, p: SystemParams, dps: int = 40) -> tuple[float, float]:
        """Run the oracle at p and check it against the permutations itertools builds.

        The pairs, expanded into one term per permutation and sorted, against
        one 40-digit weight per permutation under the same M_n, and log Z
        against a dps-digit sum over the permutations, each within the
        bounds of oracle_error_bounds.
        Returns that log Z bound and the reference log Z.
        """
        sent = self.record_terms(monkeypatch)
        got = brute_force_log_Z(p)
        assert math.isfinite(got), p
        assert len(sent) == 1
        pairs, top = sent[0]
        terms = expand(pairs)
        t = oracle_cycle_weights(p)
        assert len(terms) == math.factorial(p.n)
        assert top == max(p.n * t[1], t[p.n])
        want = float(itertools_log_Z(p, dps))
        rel, underflow, log_bound = oracle_error_bounds(p, want)
        ref = itertools_tilted_weights(p, top)
        for a, b in zip(sorted(terms), sorted(ref)):
            assert abs(a - b) <= (rel + U) * b + underflow + SUBNORMAL_STEP, (p, a, b)
        assert abs(got - want) <= log_bound, (p, got - want, log_bound)
        return log_bound, want

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_itertools_reference(self, monkeypatch, n):
        # The new bound must be no looser than the one the oracle had as a
        # log-sum-exp of one log weight per permutation, u = 2^-53,
        # T = max_k |t[k]|: an insertion term adds n increments onto 0.0
        # (t[1] exactly or t[L+1] - t[L], rounded once, <= 2uT each) with
        # n - 1 rounded additions (<= u nT each), a reference term has at
        # most n - 1 such additions, so paired terms differ by at most
        # (2n^2 + 1) uT; each log-sum-exp also rounds on its own: x - max
        # (<= 2nTu), exp (<= 2u), a sum of N = n! positive terms in any order
        # ((N - 1)u relative), the log (<= u log N), max + log
        # (<= u (|log Z| + log n!)) and the lgamma subtraction (<= u |log Z|).
        n_terms = math.factorial(n)
        for d in (1, 2, 3):
            for beta in (0.25, 1.0):
                for rho in (0.5, 2.0):
                    p = SystemParams(d, beta, rho, n=n)
                    log_bound, want = self.check_against_itertools(monkeypatch, p)
                    big_t = max(abs(x) for x in oracle_cycle_weights(p)[1:])
                    old_bound = (2 * n * n + 1) * U * big_t + 2 * U * (
                        2 * n * big_t
                        + 2
                        + (n_terms - 1)
                        + math.log(n_terms)
                        + 2 * abs(want)
                        + math.lgamma(n + 1)
                    )
                    assert log_bound <= old_bound, (p, log_bound, old_bound)

    def test_no_reference_cycle_holds_the_terms(self):
        # a self-calling closure is a reference cycle that keeps each call's
        # n!-long term list alive until the cyclic collector runs; with the
        # collector off, traced memory must come back to where it started
        p = SystemParams(3, 1.0, 1.0, n=8)
        brute_force_log_Z(p)
        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(3):
                brute_force_log_Z(p)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        # one n!-long list holds 8 * 8! bytes of pointers alone
        assert grown < 8 * math.factorial(8) / 10, grown

    def test_one_call_holds_no_term_per_permutation(self):
        p = SystemParams(3, 1.0, 1.0, n=9)
        brute_force_log_Z(p)
        tracemalloc.start()
        try:
            brute_force_log_Z(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one n!-long list holds 8 * 9! bytes of pointers alone
        assert peak < 8 * math.factorial(9) / 10, peak

    @pytest.mark.parametrize("n, entries", [(8, 764), (9, 2620)])
    def test_one_pair_per_leaf_term(self, n, entries):
        pairs, _ = exactz._permutation_weights(SystemParams(3, 1.0, 1.0, n=n))
        assert len(pairs) == entries
        assert sum(mult for _, mult in pairs) == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_the_exact_sum_has_the_bits_of_one_fsum(self, n):
        # the pairs summed exactly and rounded once give the float that
        # math.fsum, exactly rounded, gives over the n! expanded terms:
        # acceptance 01's grid, beta and rho at 1e-30 and 1e30 (subnormal and
        # zero terms), and four points where an fsum of the rounded products
        # mult x would move log Z (at n = 5, 4, 9 and 6 in turn)
        points = [(d, beta, rho) for d in (1, 2, 3) for beta in (0.25, 1.0) for rho in (0.5, 2.0)]
        corners = (1e-30, 1e30)
        points += [(d, beta, rho) for d in (1, 2, 3, 5, 8) for beta in corners for rho in corners]
        points += [(1, 0.5, 6.0), (1, 0.25, 6.2), (2, 0.5, 4.9), (1, 2.0, 0.3)]
        for d, beta, rho in points:
            p = SystemParams(d, beta, rho, n=n)
            pairs, top = exactz._permutation_weights(p)
            want = math.log(math.fsum(expand(pairs))) + top - math.lgamma(n + 1)
            assert brute_force_log_Z(p) == want, (p, brute_force_log_Z(p), want)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_corner_grid_against_mpmath(self, d, monkeypatch):
        points = [(beta, rho, 7) for beta, rho, _ in corner_points(d, 7)]
        assert len(points) >= 15, len(points)
        if d == 3:
            # one tilt for every depth underflows the fixed point here
            points.append((1e57, 1e300, 8))
        for beta, rho, n in points:
            self.check_against_itertools(monkeypatch, SystemParams(d, beta, rho, n=n), dps=60)


class TestExactLogZ:
    def test_n1(self):
        p = SystemParams(1, 2.0, 0.25, n=1)
        want = math.log(p.volume * (8.0 * math.pi) ** -0.5)
        assert exact_log_Z(p) == pytest.approx(want, rel=1e-14)

    def test_volume_monotonicity(self):
        # halving rho doubles the volume at fixed n; every weight grows by at
        # least one factor of 2, so log Z grows by at least log 2
        base = exact_log_Z(SystemParams(3, 1.0, 1.0, n=12))
        bigger = exact_log_Z(SystemParams(3, 1.0, 0.5, n=12))
        assert bigger >= base + math.log(2.0)

    def test_matches_recursion_oracle(self):
        for d, beta, rho, n in [(3, 1.0, 1.0, 25), (1, 0.5, 0.8, 30), (2, 2.0, 0.3, 40)]:
            p = SystemParams(d, beta, rho, n=n)
            assert exact_log_Z(p) == pytest.approx(recursion_log_Z(p), rel=1e-11)

    @given(system_points)
    @settings(max_examples=40, deadline=None)
    def test_property_matches_enumeration(self, point):
        p = SystemParams(*point[:3], n=point[3])
        want = enumeration_log_Z(p)
        # relative to log Z, or to Z itself where |log Z| < 1 (log Z crosses
        # zero inside the sampled box)
        assert abs(exact_log_Z(p) - want) <= 1e-12 * max(1.0, abs(want))

    def test_requires_n(self):
        with pytest.raises(ValidationError):
            exact_log_Z(SystemParams(3, 1.0, 1.0))

    def test_cap(self):
        with pytest.raises(CapError):
            exact_log_Z(SystemParams(3, 1.0, 1.0, n=71))

    @pytest.mark.parametrize(
        "engine", [exact_log_Z, confinement_log_Z_bracket, mu_N_expected_shape]
    )
    def test_overflowing_volume_is_refused_not_nan(self, engine):
        # n / rho = 8e320 overflows to inf, which made log Z and the shape NaN
        with pytest.raises(ValidationError, match="volume n / rho overflows"):
            engine(SystemParams(3, 1.0, 1e-320, n=8))


U = 2.0**-53
NORMAL_EXP_MIN = math.log(2.0**-1022)  # exp(x) is a normal float from here up

# the README's exact-z and converge points, all at n <= 70
README_POINTS = [
    (3, 1.0, 1.0),
    (3, 0.0795775, 1.3),
    (3, 0.07957747154594767, 1.306187674342744),
    (3, 0.07957747154594767, 5.224750697370976),
]

# the corner grid: beta and rho from 1e-300 to 1e300, the refused points dropped
CORNER_POWERS = (-300, -30, 0, 30, 300)


def log_space_log_Z_table(c: list[float], n: int) -> list[float]:
    """Oracle: the recursion wholly in log space, one max-shifted log-sum-exp per row.

    Each row is one max-shifted log-sum-exp over Python floats, so the table
    stays finite where Z_m itself over- or underflows.  Row m pairs
    log(k theta_k) with log Z_{m-k} by map over the reversed table, which
    has exactly m entries then.
    """
    log_k_theta = [math.log(k) + c[k] for k in range(1, n + 1)]
    log_z = [0.0]
    for m in range(1, n + 1):
        terms = list(map(add, log_k_theta, reversed(log_z)))
        log_z.append(_logsumexp(terms) - math.log(m))
    return log_z


def mpmath_log_Z_table(c: list[float], n: int, dps: int = 40) -> list[mpmath.mpf]:
    """log Z_m for m = 0..n by the same recursion on the same float c[k], at dps digits.

    Run in linear space, m Z_m = sum_k k e^{c[k]} Z_{m-k}: an mpf exponent
    does not overflow, so no shift is needed.  Each row is one mpmath.fdot,
    which sums the products at the working precision, as fsum of the
    products would, in 0.8 s at n = 1000 where that fsum took 1.4 s.
    """
    with mpmath.workdps(dps):
        k_theta = [k * mpmath.exp(mpmath.mpf(c[k])) for k in range(1, n + 1)]
        z = [mpmath.mpf(1)]
        for m in range(1, n + 1):
            z.append(mpmath.fdot(k_theta[:m], reversed(z)) / m)
        return [mpmath.log(x) for x in z]


def table_and_tilts(
    monkeypatch, c: list[float], n: int
) -> tuple[list[float], list[tuple[int, float, float]]]:
    """_log_Z_table(c, n) and its tilts (m_s, a, b), m_s the first row each one runs.

    Each tilt makes one call of exactz._tilt, which is recorded: the seed at
    m_s = 3 (2 at n = 1), then one per re-tilt row.
    """
    tilts = []

    def recording(c, n, logs, m):
        out = _tilt(c, n, logs, m)
        tilts.append((m, *out[:2]))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(exactz, "_tilt", recording)
        table = _log_Z_table(c, n)
    return table, tilts


def a_priori_bounds(
    c: list[float], n: int, ref: list[mpmath.mpf], tilts: list[tuple[int, float, float]]
) -> list[float]:
    """A priori bounds on |_log_Z_table(c, n)[m] - log Z_m|, m = 0..n, as its docstring derives them.

    Segment s runs rows m_s..M_s under the tilt (a, b), with the floats
    x_k = fl(c[k] - fl(a k)) the table forms.  Row m of it is off by at most
    R_s + m eta_s + (m - m_s + 1)(5u + U_s) relative, with
    - eta_s = u max_{k<=m} (|a| + (|x_k| + 4)/k) over the normal weights
      (e^(x_k) >= 2^-1022), the weights' error, at most k eta_s each;
    - R_s the largest of u(|x_j - b| + 4) over the segment's rows j <= m (the
      Z_0 terms beyond their weight) and, for each row j < m_s rebuilt at the
      re-tilt, E_j + u(|a j| + |L_j - a j| + |L_j - a j - b| + 4);
    - 5u the products, fsum, add and division of a row, second order included;
    - U_s = (n + 3)(Z_s + K_s + 2^450) 2^-624 what underflow loses from a row
      in the band, Z_s and K_s the largest z_j = e^(L_j - a j - b), j < M_s,
      and kt_k = k e^(x_k), k <= M_s, that the segment reads.
    Its log then adds E_m - eps_m = u(2|L_m - a m - b| + |a m| + |L_m - b| + |L_m|).
    Rows 1 and 2 are stored in closed form: log Z_1 = c[1] exactly (bounded
    here by u |L_1|, the mpmath run's own digits aside), and log Z_2 =
    max(t, c[2]) + log1p(e^(-|t - c[2]|)) with t = fl(2 c[1] - fl(log 2)) off
    by at most u(2|t| + |t - c[2]| + |L_2| + 8): t's subtraction and log 2,
    then the difference, exp, log1p and the final add.
    L_m is taken from the mpmath run.
    """
    big_l = [float(x) for x in ref]
    bounds = [0.0] * (n + 1)
    bounds[1] = U * abs(big_l[1])
    if n > 1:
        t = 2.0 * c[1] - math.log(2.0)
        bounds[2] = U * (2 * abs(t) + abs(t - c[2]) + abs(big_l[2]) + 8)
    ends = [m_s for m_s, _, _ in tilts[1:]] + [n + 1]
    log_band = 450 * math.log(2.0)
    for (m_s, a, b), end in zip(tilts, ends):
        x = [0.0] + [c[k] - a * k for k in range(1, n + 1)]
        log_k = max(math.log(k) + x[k] for k in range(1, end))
        log_z = max((big_l[j] - a * j - b for j in range(1, end - 1)), default=-math.inf)
        under = (n + 3) * 3 * math.exp(max(log_k, log_z, log_band) - 624 * math.log(2.0))
        r_s = max(
            (bounds[j] + U * (abs(a * j) + abs(big_l[j] - a * j) + abs(big_l[j] - a * j - b) + 4)
             for j in range(1, m_s)),
            default=0.0,
        )
        eta = 0.0
        for k in range(1, m_s):
            if x[k] >= NORMAL_EXP_MIN:
                eta = max(eta, abs(a) + (abs(x[k]) + 4) / k)
        for m in range(m_s, end):
            if x[m] >= NORMAL_EXP_MIN:
                eta = max(eta, abs(a) + (abs(x[m]) + 4) / m)
            r_s = max(r_s, U * (abs(x[m] - b) + 4))
            lm = big_l[m]
            eps = r_s + m * eta * U + (m - m_s + 1) * (5 * U + under)
            bounds[m] = eps + U * (2 * abs(lm - a * m - b) + abs(a * m) + abs(lm - b) + abs(lm))
    return bounds


def log_space_a_priori_bounds(c: list[float], n: int, ref: list[mpmath.mpf]) -> list[float]:
    """Bounds on |log_space_log_Z_table(c, n)[m] - log Z_m|, m = 0..n, u = 2^-53.

    Row m forms t_k = a_k + L_{m-k} with a_k = log k + c[k], then
    top + log fsum exp(t_k - top) - log m.  LSE is 1-Lipschitz in the largest
    input change, so row m inherits at most max_{j<m} E_j from earlier rows
    and adds its own rounding: a_k (<= u (log k + |a_k|)), t_k (<= u |t_k|),
    t_k - top (<= 2u T_m relative to each exp, with T_m = max_k |t_k|), exp
    (<= 2u), fsum (<= u), log (<= 2u log m), the add of top and the
    subtraction of log m (<= u (|L_m| + log m) each).  With
    M_m = max(T_m, |L_m|, max_k |a_k|) that is below 6u M_m + 5u log m + 3u;
    8u (M_m + log m + 1) covers the second-order terms.
    L_m, T_m and a_k are taken from the mpmath run.
    """
    ref_f = [float(x) for x in ref]
    with mpmath.workdps(40):
        a = [0.0] + [float(mpmath.log(k) + mpmath.mpf(c[k])) for k in range(1, n + 1)]
    big_a = max(abs(x) for x in a[1:])
    bounds = [0.0]
    for m in range(1, n + 1):
        lm = ref_f[m]
        t_max = max(abs(a[k] + ref_f[m - k]) for k in range(1, m + 1))
        row = 8 * U * (max(t_max, abs(lm), big_a) + math.log(m) + 1)
        bounds.append(max(bounds) + row)
    return bounds


def corner_points(d: int, n: int) -> list[tuple[float, float, list[float]]]:
    """(beta, rho, c) over the corner grid where the exact route accepts the point."""
    out = []
    for eb in CORNER_POWERS:
        for er in CORNER_POWERS:
            beta, rho = 10.0**eb, 10.0**er
            try:
                out.append((beta, rho, _cycle_log_constants(SystemParams(d, beta, rho, n=n), "exact")))
            except ValidationError:
                pass
    return out


def phase_table_reference(rho_over_rho_c: float, n: int) -> tuple[list[float], list[mpmath.mpf]]:
    """c at d = 3, beta = 1/4pi, rho = rho_over_rho_c rho_c, and its 40-digit log Z table."""
    p = SystemParams(3, BETA_UNIT, rho_over_rho_c * critical_density(3, BETA_UNIT), n=n)
    c = _cycle_log_constants(p, "chain")
    return c, mpmath_log_Z_table(c, n)


@pytest.fixture(scope="module")
def n1000_references() -> dict[float, tuple[list[float], list[mpmath.mpf]]]:
    """The n = 1000 references of both phases, built once (about a second for both)."""
    return {r: phase_table_reference(r, 1000) for r in (0.5, 2.0)}


class TestLogZTable:
    @pytest.mark.parametrize("n", [70, 300])
    @pytest.mark.parametrize("rho_over_rho_c", [0.5, 2.0], ids=["normal", "condensed"])
    def test_matches_a_40_digit_run_of_the_recursion(self, n, rho_over_rho_c, monkeypatch):
        c, ref = phase_table_reference(rho_over_rho_c, n)
        got, tilts = table_and_tilts(monkeypatch, c, n)
        retilts = [m for m, _, _ in tilts[1:]]
        # every row of the n = 70 run keeps the seed tilt; past m of about 100
        # the rows leave the band, so the n = 300 run re-tilts inside the
        # table and its rows check both segments on both sides of the switch
        if n == 70:
            assert retilts == []
        else:
            assert retilts and all(70 < m < n for m in retilts), retilts
        bounds = a_priori_bounds(c, n, ref, tilts)
        log_space = log_space_log_Z_table(c, n)
        log_space_bounds = log_space_a_priori_bounds(c, n, ref)
        assert len(got) == n + 1
        for m, (g, want, bound) in enumerate(zip(got, ref, bounds)):
            assert abs(g - want) <= bound, (m, g, float(want), bound)
            assert abs(g - log_space[m]) <= bound + log_space_bounds[m], (m, retilts)
        # no looser, at any row, than the bound of the rows run in log space
        assert all(b <= o for b, o in zip(bounds, log_space_bounds)), retilts

    @pytest.mark.parametrize("rho_over_rho_c", [0.5, 2.0], ids=["normal", "condensed"])
    def test_every_row_at_n1000_within_its_bound(self, rho_over_rho_c, n1000_references, monkeypatch):
        c, ref = n1000_references[rho_over_rho_c]
        got, tilts = table_and_tilts(monkeypatch, c, 1000)
        assert len(tilts) >= 2, tilts  # at least one re-tilt, so a rebuilt segment is checked
        bounds = a_priori_bounds(c, 1000, ref, tilts)
        for m, (g, want, bound) in enumerate(zip(got, ref, bounds)):
            assert abs(g - want) <= bound, (m, g, float(want), bound, tilts)
        # the public routes read row n alone, under the same tilts
        assert _log_Z_table(c, 1000, 1000) == got[-1:]

    @pytest.mark.parametrize("n", [9, 70])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_corner_grid_against_mpmath_and_the_log_space_recursion(self, d, n, monkeypatch):
        points = corner_points(d, n)
        assert len(points) >= 15, len(points)
        for beta, rho, c in points:
            got, tilts = table_and_tilts(monkeypatch, c, n)
            ref = mpmath_log_Z_table(c, n, dps=60)
            bounds = a_priori_bounds(c, n, ref, tilts)
            log_space = log_space_log_Z_table(c, n)
            log_space_bounds = log_space_a_priori_bounds(c, n, ref)
            for m in range(n + 1):
                where = (beta, rho, m, tilts)
                assert math.isfinite(got[m]), where
                assert abs(got[m] - ref[m]) <= bounds[m], where
                assert abs(log_space[m] - ref[m]) <= log_space_bounds[m], where
                assert abs(got[m] - log_space[m]) <= bounds[m] + log_space_bounds[m], where

    @pytest.mark.parametrize("point", README_POINTS, ids=lambda p: f"beta{p[1]:g}-rho{p[2]:g}")
    def test_no_log_row_at_the_readme_points(self, point, monkeypatch):
        # no re-tilt: every row runs under the seed tilt
        for n in (8, 10, 20, 40, 60, 70):
            c = _cycle_log_constants(SystemParams(*point, n=n), "exact")
            assert len(table_and_tilts(monkeypatch, c, n)[1]) == 1, n

    def test_every_row_is_finite_at_n5000(self):
        rho_c = critical_density(3, BETA_UNIT)
        # both phases, and a corner point whose seed weights k e^(c[k] - a k)
        # overflow from k = 877 (inf, until a re-tilt replaces them)
        for d, beta, rho, n in [(3, BETA_UNIT, 0.5 * rho_c, 5000), (3, BETA_UNIT, 2.0 * rho_c, 5000),
                                (3, 1e30, 1e300, 1000)]:
            c = _cycle_log_constants(SystemParams(d, beta, rho, n=n), "chain")
            assert all(map(math.isfinite, _log_Z_table(c, n))), (beta, rho, n)

    def test_a_row_no_tilt_fits_is_refused(self):
        # theta_4 = e^2000 lifts Z_4 past the floats under the tilt through
        # rows 2 and 3 as under the seed: a refusal, not an inf or a NaN
        with pytest.raises(PrecisionError, match="row 4"):
            _log_Z_table([0.0, 0.0, 0.0, 0.0, 2000.0], 4)


class TestConfinement:
    def test_displayed_bound_instance(self):
        # each cycle's confinement factor is 1 - e^(-d n/4 beta) = 1 - e^(-7.5)
        res = confinement_log_Z_bracket(SystemParams(3, 1.0, 1.0, n=10))
        assert res["max_shift"] == 10 * abs(math.log1p(-math.exp(-7.5)))

    def test_ratio_tends_to_one(self):
        # max_shift / n = |log(1 - e^(-d n/4 beta))|, the per-cycle log
        # factor; n = 70 is the largest size the exact cap admits
        per_cycle = [
            confinement_log_Z_bracket(SystemParams(3, 1.0, 1.0, n=n))["max_shift"] / n
            for n in (5, 20, 70)
        ]
        assert per_cycle[0] > per_cycle[1] > per_cycle[2]
        assert per_cycle[2] <= 1e-20

    def test_tiny_confinement_exponent(self):
        # d n/4 beta = 2e-300: e^(-x) rounds to 1, while 1 - e^(-x) is x
        res = confinement_log_Z_bracket(SystemParams(1, 1e300, 1.0, n=8))
        assert res["max_shift"] == pytest.approx(-8 * math.log(2e-300), rel=1e-14)
        assert 0.0 < res["log_z"] - res["log_z_lower"] <= res["max_shift"]

    def test_bracket_honesty(self):
        p = SystemParams(3, 0.25, 1.0, n=12)
        res = confinement_log_Z_bracket(p)
        assert res["log_z_lower"] <= res["log_z"]
        assert res["log_z"] - res["log_z_lower"] <= res["max_shift"] * (1.0 + 1e-12)

    def test_lower_matches_enumeration(self):
        # the lower end multiplies every cycle by (1 - e^(-d n/4 beta)), so
        # a partition with m cycles gains m log(1 - e^(-d n/4 beta)), about
        # -0.25 per cycle here, over several cycles per partition
        p = SystemParams(1, 2.0, 1.0, n=12)
        shift = math.log1p(-math.exp(-1 * 12 / (4.0 * 2.0)))
        want = enumeration_log_Z(p, shift)
        lower = confinement_log_Z_bracket(p)["log_z_lower"]
        assert want < exact_log_Z(p) - 1.0
        assert abs(lower - want) <= 1e-12 * abs(want)


class TestEnsembleDistribution:
    def test_probabilities_normalise(self):
        for n in (6, 20, 40):
            ens = weighted_ensemble(SystemParams(3, 1.0, 1.0, n=n))
            total = sum(ens.probability(lam) for lam in ens.log_weights)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_not_uniform(self):
        ens = weighted_ensemble(SystemParams(3, 1.0, 1.0, n=8))
        probs = sorted(ens.probability(lam) for lam in ens.log_weights)
        assert probs[-1] / probs[0] > 10.0

    def test_expected_shape_mass_identity(self):
        eq = mu_N_expected_shape(SystemParams(3, 1.0, 1.0, n=20))
        assert float(np.arange(1, 21) @ eq) == pytest.approx(1.0, abs=1e-12)

    def test_normal_regime_matches_limit_shape(self):
        # finite-size fixture: within 15% of the limiting increments at n=40
        p = SystemParams(1, 1.0, 0.5, n=40)
        eq = mu_N_expected_shape(p)
        sol = solve_alpha(SystemParams(1, 1.0, 0.5), 1e-12)
        c = 1.0 / (0.5 * thermal_factor(1, 1.0))
        for k in range(1, 6):
            star = c * k**-1.5 * math.exp(-sol.alpha * k)
            assert abs(eq[k - 1] - star) <= 0.15 * star

    def test_condensed_shifts_mass_to_long_cycles(self):
        rho_c = critical_density(3, BETA_UNIT)
        cond = mu_N_expected_shape(SystemParams(3, BETA_UNIT, 3.0 * rho_c, n=40))
        norm = mu_N_expected_shape(SystemParams(3, BETA_UNIT, 0.5 * rho_c, n=40))
        ks = np.arange(1, 6)
        assert float(ks @ cond[:5]) < float(ks @ norm[:5])

    @staticmethod
    def enumerated_expected_shape(p: SystemParams) -> np.ndarray:
        """Oracle: E[r_k]/n summed over every partition of n with its probability."""
        ens = weighted_ensemble(p)
        want = np.zeros(p.n)
        for lam in ens.log_weights:
            prob = ens.probability(lam)
            for k, r in lam.occupations:
                want[k - 1] += prob * r / p.n
        return want

    @given(system_points)
    @settings(max_examples=40, deadline=None)
    def test_property_expected_shape_matches_ensemble(self, point):
        p = SystemParams(*point[:3], n=point[3])
        want = self.enumerated_expected_shape(p)
        got = mu_N_expected_shape(p)
        assert np.all(want > 0.0)
        assert float(np.max(np.abs(got - want) / want)) <= 1e-10

    def test_runs_to_the_exact_cap(self):
        # it reads one O(n^2) table, as exact_log_Z does, so it shares the
        # exact cap; the enumeration still runs at n = 41 (p(41) = 44,583)
        p = SystemParams(3, BETA_UNIT, 2.0 * critical_density(3, BETA_UNIT), n=41)
        want = self.enumerated_expected_shape(p)
        got = mu_N_expected_shape(p)
        assert np.all(want > 0.0)
        assert float(np.max(np.abs(got - want) / want)) <= 1e-10
        with pytest.raises(CapError) as err:
            mu_N_expected_shape(p.with_n(71))
        assert str(err.value) == f"n=71 exceeds the exact cap of 70 ({CAPS['exact'].cost})"

    def test_cap(self):
        with pytest.raises(CapError):
            mu_N_expected_shape(SystemParams(3, 1.0, 1.0, n=71))


class TestConvergenceScan:
    def test_gap_shrinks_d3(self):
        rho_c = critical_density(3, BETA_UNIT)
        rows = convergence_scan(
            SystemParams(3, BETA_UNIT, 0.5 * rho_c), [10, 20, 40, 60]
        )
        gaps = [abs(r.gap) for r in rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_gap_shrinks_d1(self):
        rows = convergence_scan(SystemParams(1, 1.0, 1.0), [10, 20, 40])
        gaps = [abs(r.gap) for r in rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_gap_regression_fixture(self):
        rho_c = critical_density(3, BETA_UNIT)
        rows = convergence_scan(SystemParams(3, BETA_UNIT, 0.5 * rho_c), [10])
        assert rows[0].gap == pytest.approx(GAP_FIXTURE_N10, rel=1e-9)

    def test_row_shape(self):
        rows = convergence_scan(SystemParams(1, 1.0, 1.0), [5])
        assert isinstance(rows[0], ScanRow)
        assert rows[0].n == 5
        assert rows[0].gap == pytest.approx(
            rows[0].log_z_per_n - rows[0].neg_chi, abs=1e-15
        )
