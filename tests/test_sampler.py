"""Tests for the split/merge chain: reversibility, exactness, condensation."""

import copy
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from cyclegas import sampler
from cyclegas.errors import CapError, ValidationError
from cyclegas.exactz import _log_Z_table, mu_N_expected_shape
from cyclegas.partitions import Partition
from cyclegas.sampler import (
    _POINT_MOVE,
    ChainState,
    CycleStats,
    _batch_stderr,
    _Sampling,
    _place,
    default_threshold,
    long_cycle_fraction_scan,
    run_chain,
)
from cyclegas.thermo import (
    SystemParams,
    _cycle_log_constants,
    _occupation_log_weight,
    critical_density,
)
from tests.oracles import enumerate_partitions, log_weight, weighted_ensemble

BETA_UNIT = 1.0 / (4.0 * math.pi)


def log_table(n: int) -> list[float]:
    """L[r] = log r for r <= n + 2, the table ChainState keeps as _L."""
    return [-math.inf] + [math.log(r) for r in range(1, n + 3)]


def split_terms(c: list[float], L: list[float], m: int, k: int, j: int) -> tuple[float, float]:
    """(c-sum change, log Hastings ratio) for splitting a k-cycle at j among m cycles.

    The kernel's closed form: a uniform slot pick makes every occupancy
    factor cancel, leaving theta_j theta_{k-j} / theta_k * (k - 1)/(m + 1),
    with c[k] = log theta_k and L[r] = log r.
    """
    dc = c[j] + c[k - j] - c[k]
    return dc, dc + L[k - 1] - L[m + 1]


def merge_terms(c: list[float], L: list[float], m: int, a: int, b: int) -> tuple[float, float]:
    """(c-sum change, log Hastings ratio) for merging an a- and a b-cycle among m.

    The inverse of split_terms: theta_s / (theta_a theta_b) * m/(s - 1).
    """
    s = a + b
    dc = c[s] - c[a] - c[b]
    return dc, dc + L[m] - L[s - 1]


def point_split_terms(c: list[float], L: list[float], k: int, j: int) -> tuple[float, float]:
    """(c-sum change, log Hastings ratio) for a point move splitting a k-cycle at j.

    Two uniform points propose a transposition, symmetric on permutations,
    so the ratio is the permutation weights' (k theta_k per k-cycle):
    j theta_j (k - j) theta_{k-j} / (k theta_k).
    """
    dc = c[j] + c[k - j] - c[k]
    return dc, dc + L[j] + L[k - j] - L[k]


def point_merge_terms(c: list[float], L: list[float], a: int, b: int) -> tuple[float, float]:
    """(c-sum change, log Hastings ratio) for a point move merging an a- and a b-cycle."""
    s = a + b
    dc = c[s] - c[a] - c[b]
    return dc, dc + L[s] - L[a] - L[b]


def point_owners(cycles: list[int]) -> list[int]:
    """The slot holding each point 0..n-1, with the cycles laid end to end in slot order."""
    return [slot for slot, k in enumerate(cycles) for _ in range(k)]


def occ_layout(occ: dict[int, int]) -> list[int]:
    """The cycle lengths class by class in occ's order: where a point move's points lie."""
    return [k for k, r in occ.items() for _ in range(r)]


def move_counts(occ: dict[int, int], removed, added) -> tuple[list[int], list[int]]:
    """Take the lengths in `removed` out of occ in place, then put `added` in.

    Returns each removed length's count before its removal and each added
    length's count after its addition: the weight changes by the move's
    c-sum plus L[r] for the first and minus L[r] for the second.
    """
    outs, ins = [], []
    for x in removed:
        r = occ[x]
        outs.append(r)
        if r == 1:
            del occ[x]
        else:
            occ[x] = r - 1
    for x in added:
        r = occ[x] = occ.get(x, 0) + 1
        ins.append(r)
    return outs, ins


def reference_step(st: ChainState) -> tuple[str, str]:
    """One step written with Random.randrange: (move kind, outcome).

    A slot split or a slot merge, each with chance (1 - _POINT_MOVE)/2, or
    else a point move, which is the split or merge its two points propose.
    """
    rng = st.rng
    cycles = st.cycles
    m = len(cycles)
    r = rng.random()
    if r < 1.0 - _POINT_MOVE:
        i = rng.randrange(m)
        if r < 0.5 * (1.0 - _POINT_MOVE):
            kind = "split"
            k = cycles[i]
            if k == 1:
                return kind, "auto_rejected"
            j = 1 + rng.randrange(k - 1)
            dc, lratio = split_terms(st._c, st._L, m, k, j)
        else:
            kind = "merge"
            if m < 2:
                return kind, "auto_rejected"
            i2 = rng.randrange(m - 1)
            if i2 >= i:
                i2 += 1
            dc, lratio = merge_terms(st._c, st._L, m, cycles[i], cycles[i2])
    else:
        u = rng.randrange(st.n)
        v = rng.randrange(st.n)
        layout = occ_layout(st.occ)
        owner = point_owners(layout)
        a, b = layout[owner[u]], layout[owner[v]]
        # the move acts on the first slots holding its lengths, in slot order
        i = cycles.index(a)
        if owner[u] == owner[v]:
            kind = "split"
            k = a
            j = (v - u) % k
            if j == 0:
                return kind, "auto_rejected"
            dc, lratio = point_split_terms(st._c, st._L, k, j)
        else:
            kind = "merge"
            i2 = next(slot for slot, x in enumerate(cycles) if x == b and slot != i)
            dc, lratio = point_merge_terms(st._c, st._L, a, b)
    if kind == "split":
        removed, added = (k,), (j, k - j)
    else:
        a, b = cycles[i], cycles[i2]
        removed, added = (a, b), (a + b,)
    if not (lratio >= 0.0 or rng.random() < math.exp(lratio)):
        return kind, "rejected"
    if kind == "split":
        cycles[i] = j
        cycles.append(k - j)
    else:
        cycles[i] = a + b
        cycles[i2] = cycles[-1]  # the last slot's cycle fills slot i2
        del cycles[-1]
    outs, ins = move_counts(st.occ, removed, added)
    dlw = dc
    for r in outs:
        dlw += st._L[r]
    for r in ins:
        dlw -= st._L[r]
    st.log_weight += dlw
    return kind, "accepted"


def legal_moves(occ):
    """Every (split k at j) and (merge a <= b) move from occupations occ."""
    splits = [(k, j) for k in occ if k >= 2 for j in range(1, k)]
    lengths = sorted(occ)
    merges = [
        (a, b)
        for i, a in enumerate(lengths)
        for b in lengths[i:]
        if a != b or occ[a] >= 2
    ]
    return splits, merges


def proposal_log_prob(occ: dict[int, int], removed, added) -> float:
    """log of a slot move's proposal probability from occ, by multiplicities.

    Leaves out the move kind's share (1 - _POINT_MOVE)/2.  A split of k picks one of occ[k]
    slots of m, then j or k - j; a merge picks one of the ordered slot pairs
    holding an a- and a b-cycle.
    """
    m = sum(occ.values())
    if len(removed) == 1:
        (k,), (j, j2) = removed, added
        return math.log(occ[k] / m * (1 if j == j2 else 2) / (k - 1))
    a, b = removed
    pairs = occ[a] * (occ[a] - 1) if a == b else 2 * occ[a] * occ[b]
    return math.log(pairs / (m * (m - 1)))


def point_log_prob(occ: dict[int, int], removed, added) -> float:
    """log of a point move's proposal probability from occ, by multiplicities.

    Leaves out the move's share _POINT_MOVE.  The ordered points (u, v) of
    the n * n split a k-cycle into j and k - j when they lie in one k-cycle
    at distance j or k - j, and merge an a- and a b-cycle when one lies in
    each.
    """
    n = sum(k * r for k, r in occ.items())
    if len(removed) == 1:
        (k,), (j, j2) = removed, added
        return math.log(occ[k] * k * (1 if j == j2 else 2) / n**2)
    a, b = removed
    pairs = occ[a] * (occ[a] - 1) if a == b else 2 * occ[a] * occ[b]
    return math.log(pairs * a * b / n**2)


def chain_snapshot(st: ChainState) -> tuple:
    """Everything a later step or a recorded sample can depend on."""
    return (
        list(st.occ.items()),
        list(st.cycles),
        st.log_weight,
        copy.deepcopy(st.acceptance_counts),
        st.rng.getstate(),
    )


def one_step_moves(occ: dict[int, int], c: list[float], L: list[float]):
    """Every proposal from occ: (probability, log ratio, removed, added).

    A slot split picks one of the m slots (slot * 1/m, slot = (1 -
    _POINT_MOVE)/2), auto-rejects a 1-cycle and otherwise picks j in
    1..k-1; a slot merge picks an ordered pair of distinct slots (slot *
    1/(m (m - 1))); a point move picks an ordered pair of the n points
    (_POINT_MOVE / n^2), which auto-rejects when they coincide.
    """
    cycles = occ_layout(occ)
    m, n = len(cycles), sum(cycles)
    slot = (1.0 - _POINT_MOVE) / 2
    for k in cycles:
        for j in range(1, k):
            yield slot / m / (k - 1), split_terms(c, L, m, k, j)[1], (k,), (j, k - j)
    for i1, a in enumerate(cycles):
        for i2, b in enumerate(cycles):
            if i1 != i2:
                yield slot / (m * (m - 1)), merge_terms(c, L, m, a, b)[1], (a, b), (a + b,)
    yield from point_moves(occ, c, L)


def point_moves(occ: dict[int, int], c: list[float], L: list[float]):
    """one_step_moves' point part: every ordered pair of distinct points, _POINT_MOVE / n^2 each.

    The points lie on the cycles laid end to end in occ_layout's order.
    """
    cycles = occ_layout(occ)
    n = sum(cycles)
    owner = point_owners(cycles)
    for u in range(n):
        for v in range(n):
            a, b = cycles[owner[u]], cycles[owner[v]]
            if owner[u] != owner[v]:
                yield _POINT_MOVE / n**2, point_merge_terms(c, L, a, b)[1], (a, b), (a + b,)
            elif u != v:
                j = (v - u) % a
                yield _POINT_MOVE / n**2, point_split_terms(c, L, a, j)[1], (a,), (j, a - j)


def proposed(snapshot: tuple) -> int:
    """Moves proposed so far, read from a chain_snapshot's counters."""
    return sum(tally["proposed"] for tally in snapshot[3].values())


def replayed_sums(p, steps, seed, burn_in, thin, k_report, threshold):
    """Integer sums over run_chain's sample points, replayed on the kernel.

    Steps a bare kernel from sample point to sample point and walks the
    occupations at each.  Returns (n_samples, sums of r_k for k = 1..k_report,
    long-cycle mass sum_{k>threshold} k r_k, tail mass sum_{k>k_report} k r_k,
    per-batch rows [long-cycle mass, r_1, ..., r_k_report] with the leftover
    samples' row last).
    """
    st = ChainState(p, seed=seed)
    n_samples = (steps - burn_in + thin - 1) // thin
    nb = min(50, n_samples)
    batch_size = n_samples // nb
    rows = [[0] * (k_report + 1) for _ in range(nb + 1)]
    tail_sum = 0
    for i in range(n_samples):
        st._advance(thin if i else burn_in + 1)
        row = rows[min(i // batch_size, nb)]
        for k, r in st.occ.items():
            if k <= k_report:
                row[k] += r
            else:
                tail_sum += k * r
            if k > threshold:
                row[0] += k * r
    sums = [sum(column) for column in zip(*rows)]
    return n_samples, sums[1:], sums[0], tail_sum, rows


def fraction_stderr(rows: list[list[int]], per_batch: int) -> list[float]:
    """Batch-means errors per column from the centred sample variance in Fractions.

    The centred sum equals (nb sum x^2 - (sum x)^2) / nb exactly, so each
    squared error, var / (nb per_batch^2), is the integer ratio, rounded
    once by float(); one sqrt follows.
    """
    nb = len(rows)
    out = []
    for col in zip(*rows):
        mean = Fraction(sum(col), nb)
        var = sum((x - mean) ** 2 for x in col) / (nb - 1)
        out.append(math.sqrt(float(var / (nb * per_batch**2))))
    return out


class TestMoveAlgebra:
    def test_unique_split_on_a_two_cycle(self):
        p = SystemParams(3, 1.0, 1.0, n=2)
        st = ChainState(p, seed=1)
        # force the state {r_2: 1} in the same occ dict
        st.occ.clear()
        st.occ[2] = 1
        st.cycles[:] = [2]
        st.log_weight = _occupation_log_weight(st.occ.items(), st._c)
        st.audit()
        while not st.step():  # merges auto-reject: one cycle only
            pass
        assert st.current == Partition(2, ((1, 2),))
        assert st.acceptance_counts["split"]["accepted"] == 1
        st.audit()

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_exhaustive_reversibility(self, n):
        # every split, slot or point, has the inverse merge with opposite log
        # terms, and the merge passes the counts the split passed, reversed
        p = SystemParams(3, 0.5, 1.0, n=n)
        c = _cycle_log_constants(p, "chain")
        L = log_table(n)
        for lam in enumerate_partitions(n):
            occ = lam.as_dict()
            m = sum(occ.values())
            for k in [k for k in occ if k >= 2]:
                for j in range(1, k):
                    dc_s, lr_s = split_terms(c, L, m, k, j)
                    dc_m, lr_m = merge_terms(c, L, m + 1, j, k - j)
                    assert abs(dc_s + dc_m) < 1e-12
                    assert abs(lr_s + lr_m) < 1e-12
                    dc_s, lr_s = point_split_terms(c, L, k, j)
                    dc_m, lr_m = point_merge_terms(c, L, j, k - j)
                    assert abs(dc_s + dc_m) < 1e-12
                    assert abs(lr_s + lr_m) < 1e-12
                    nxt = dict(occ)
                    outs_s, ins_s = move_counts(nxt, (k,), (j, k - j))
                    back = dict(nxt)
                    outs_m, ins_m = move_counts(back, (j, k - j), (k,))
                    assert back == occ
                    assert sorted(outs_s) == sorted(ins_m)
                    assert sorted(ins_s) == sorted(outs_m)

    @pytest.mark.parametrize(
        "occ",
        [
            {1: 3, 2: 2, 5: 1},  # two equal 2-cycles, a unique long cycle
            {5: 1, 2: 2, 1: 3},  # the same state, its classes in another order
            {2: 1, 7: 1, 1: 3},
            {4: 2, 1: 1, 3: 1},
            {3: 4},  # equal lengths only
            {12: 1},
            {1: 1},
        ],
        ids=["1x3-2x2-5", "5-2x2-1x3", "2-7-1x3", "4x2-1-3", "3x4", "12", "1"],
    )
    def test_placement_proposes_exactly_the_point_moves(self, occ):
        # every ordered pair (u, v) of the n * n, placed by _place and read
        # by the kernel's rule (one cycle when the lengths and offset // k
        # match), proposes the multiset of one_step_moves' point part, plus
        # the n pairs u == v that auto-reject
        n = sum(k * r for k, r in occ.items())
        c = _cycle_log_constants(SystemParams(3, 0.5, 1.0, n=n), "chain")
        got, coincident = Counter(), 0
        for u in range(n):
            a, pu = _place(occ, u)
            for v in range(n):
                b, pv = _place(occ, v)
                if a == b and pu // a == pv // a:
                    j = (pv - pu) % a
                    if j == 0:
                        coincident += 1
                    else:
                        got[(a,), (j, a - j)] += 1
                else:
                    got[(a, b), (a + b,)] += 1
        moves = point_moves(occ, c, log_table(n))
        want = Counter((removed, added) for _, _, removed, added in moves)
        assert got == want
        assert coincident == n

    @pytest.mark.parametrize("d", [1, 3])
    def test_log_table_terms_match_lgamma_formulas(self, d):
        # the weight change from L[r] = log r equals the difference of the
        # lg[r] = log r! weights, and each closed-form ratio, slot or point,
        # equals the full Hastings ratio with the proposal counted by
        # multiplicities, for every legal move of every partition with n <= 10
        for n in range(2, 11):
            p = SystemParams(d, 0.5, 1.0, n=n)
            c = _cycle_log_constants(p, "chain")
            L = log_table(n)
            for lam in enumerate_partitions(n):
                occ = lam.as_dict()
                m = sum(occ.values())
                lw = _occupation_log_weight(occ.items(), c)
                splits, merges = legal_moves(occ)
                moves = [((k,), (j, k - j), split_terms(c, L, m, k, j),
                          point_split_terms(c, L, k, j)) for k, j in splits]
                moves += [((a, b), (a + b,), merge_terms(c, L, m, a, b),
                           point_merge_terms(c, L, a, b)) for a, b in merges]
                for removed, added, (dc, lratio), (dc_pt, lratio_pt) in moves:
                    assert dc_pt == dc
                    nxt = dict(occ)
                    outs, ins = move_counts(nxt, removed, added)
                    dlw = dc + sum(L[r] for r in outs) - sum(L[r] for r in ins)
                    want = _occupation_log_weight(nxt.items(), c) - lw
                    assert dlw == pytest.approx(want, rel=0, abs=1e-12), (occ, removed)
                    slot = want + proposal_log_prob(nxt, added, removed)
                    slot -= proposal_log_prob(occ, removed, added)
                    assert lratio == pytest.approx(slot, rel=0, abs=1e-12), (occ, removed)
                    point = want + point_log_prob(nxt, added, removed)
                    point -= point_log_prob(occ, removed, added)
                    assert lratio_pt == pytest.approx(point, rel=0, abs=1e-12), (occ, removed)

    def test_mass_preserved_on_every_accepted_move(self):
        p = SystemParams(2, 0.5, 2.0, n=30)
        st = ChainState(p, seed=9)
        for _ in range(20_000):
            st.step()
            assert sum(k * r for k, r in st.occ.items()) == 30
        st.audit()

    def test_cached_log_weight_stays_honest(self):
        p = SystemParams(3, 1.0, 0.6, n=50)
        st = ChainState(p, seed=4)
        for _ in range(10):
            for _ in range(5_000):
                st.step()
            assert st.log_weight == pytest.approx(
                log_weight(st.current, p), abs=1e-10
            )


class TestKernel:
    @pytest.mark.parametrize(
        "p, seed",
        [(SystemParams(3, 0.5, 1.0, n=n), n) for n in (12, 200, 40, 1)]
        # the benchmark's condensed point: splits of the giant cycle among
        # many 1-cycle auto-rejects, and lengths that empty and refill
        + [(SystemParams(3, BETA_UNIT, 2.0 * critical_density(3, BETA_UNIT), n=2000), 2000)],
        ids=["12", "200", "40", "1", "n2000-condensed"],
    )
    def test_kernel_matches_randrange_reference(self, p, seed):
        # the kernel's inlined getrandbits picks reproduce Random.randrange,
        # its slot and count updates and its cached weight reproduce the
        # reference's bit for bit, and its counters tally its outcomes
        st = ChainState(p, seed=seed)
        ref = copy.deepcopy(st)
        tally = {kind: Counter() for kind in ("split", "merge")}
        for i in range(20_000):
            landed = st.step()
            kind, outcome = reference_step(ref)
            tally[kind][outcome] += 1
            assert landed == (outcome == "accepted")
            if i % 997 == 0:
                assert chain_snapshot(st)[:3] == chain_snapshot(ref)[:3]
                assert st.rng.getstate() == ref.rng.getstate()
        assert chain_snapshot(st)[:3] == chain_snapshot(ref)[:3]
        assert st.rng.getstate() == ref.rng.getstate()
        for kind, outcomes in tally.items():
            assert st.acceptance_counts[kind] == {
                "proposed": sum(outcomes.values()),
                "accepted": outcomes["accepted"],
                "auto_rejected": outcomes["auto_rejected"],
            }

    @pytest.mark.parametrize("n", [8, 300])
    def test_batched_advance_equals_single_steps(self, n):
        p = SystemParams(3, BETA_UNIT, 2.0 * critical_density(3, BETA_UNIT), n=n)
        single = ChainState(p, seed=21)
        batched = ChainState(p, seed=21)
        for count in (1, 7, 5_000, 20_000):
            landed = sum(single.step() for _ in range(count))
            assert batched._advance(count) == landed
            # occ, cycles, log_weight (bitwise), counters and RNG state
            assert chain_snapshot(batched) == chain_snapshot(single)

    @pytest.mark.parametrize("count", [0, 1, 4, 5, 6, 23])
    def test_sampled_advance_samples_after_its_first_move_then_every_thin(self, count):
        # any count: samples follow moves 1, 1 + thin, ..., and the fewer
        # than thin moves left over come last
        p = SystemParams(3, BETA_UNIT, 2.0 * critical_density(3, BETA_UNIT), n=30)
        thin, k_report, threshold = 5, 4, 3
        n_samples = -(-count // thin)
        sums = []
        sampled = ChainState(p, seed=7)
        stops = set(range(1, n_samples + 1))
        sampled._advance(count, _Sampling(thin, k_report, threshold, stops, sums))
        bare = ChainState(p, seed=7)
        want, row = [], [0] * (k_report + 1)
        for t in range(n_samples):
            bare._advance(thin if t else 1)
            long_mass = sum(k * r for k, r in bare.occ.items() if k > threshold)
            row = [row[0] + long_mass] + [row[k] + bare.occ.get(k, 0) for k in range(1, k_report + 1)]
            want.append(row)
        bare._advance(count - 1 - (n_samples - 1) * thin if count else 0)
        assert sums == want
        assert chain_snapshot(sampled) == chain_snapshot(bare)

    def test_occ_is_one_live_dict_without_zero_counts(self):
        # readers may bind st.occ once and read it after every step
        st = ChainState(SystemParams(1, 1.0, 5.0, n=40), seed=3)
        occ = st.occ
        lengths = set()
        for count in [1] * 2_000 + [1_000] * 20:
            if count == 1:
                st.step()
            else:
                st._advance(count)
            assert st.occ is occ
            assert 0 not in occ.values()
            assert occ == Counter(st.cycles)
            lengths.update(occ)
        assert len(lengths) > 20  # lengths came and went

    def test_condensed_chains_leave_the_seed_cycle(self):
        # at the benchmark's condensed point the start puts the whole tail
        # into one seed cycle, a long-cycle fraction more than the
        # benchmark's 0.1 band above the exact one (0.518), so a chain stuck
        # near its start fails there; point moves split and merge the seed
        # cycle, and four chains of the benchmark's 250k steps pool within
        # half that band of the exact value
        p = SystemParams(3, BETA_UNIT, 2.0 * critical_density(3, BETA_UNIT), n=2000)
        c = _cycle_log_constants(p, "chain")
        log_z = _log_Z_table(c, p.n)
        th = default_threshold(p.n)
        ks = range(th + 1, p.n + 1)
        exact = sum(k * math.exp(c[k] + log_z[p.n - k] - log_z[p.n]) for k in ks) / p.n
        occ = ChainState(p).occ
        assert occ[max(occ)] == 1
        start = sum(k * r for k, r in occ.items() if k > th) / p.n
        assert start - exact > 0.1
        runs = [run_chain(p, steps=250_000, seed=seed) for seed in range(4)]
        assert all(r.fraction_stderr > 0.0 for r in runs)
        pooled = sum(r.long_cycle_fraction for r in runs) / len(runs)
        assert abs(pooled - exact) < 0.05

    def test_start_caps_a_count_that_would_overfill_n(self, monkeypatch):
        # the rounded limiting shape holds at most n points for every
        # SystemParams (its mass is at most 1), so a shape of mass 1.5 stands
        # in: r_1 = 5 fits n = 10, r_2 = 5 would not and is cut to 2, r_3 to
        # none, and the one point left becomes a 1-cycle
        monkeypatch.setattr(sampler, "optimal_shape", lambda params: (None, lambda k: 0.5))
        occ = sampler._shape_occupations(SystemParams(3, BETA_UNIT, 1.0, n=10))
        assert occ == {1: 6, 2: 2}

    @pytest.mark.parametrize("n", [12, 5, 1])
    def test_rejected_step_changes_only_rng_and_counters(self, n):
        p = SystemParams(3, 0.5, 1.0, n=n)
        st = ChainState(p, seed=5)
        landings = Counter()
        for _ in range(1_500):
            before = chain_snapshot(st)
            landed = st.step()
            after = chain_snapshot(st)
            landings[landed] += 1
            assert proposed(after) == proposed(before) + 1
            if landed:
                assert dict(after[0]) != dict(before[0])
                assert st.log_weight == pytest.approx(
                    log_weight(st.current, p), abs=1e-10
                )
            else:
                # occ, cycles and log weight (bitwise)
                assert after[:3] == before[:3]
        if n > 1:
            assert landings[True] and landings[False]
        else:
            assert landings == {False: 1_500}


class TestExactness:
    def test_estimator_matches_exact_expectations_n20(self):
        p = SystemParams(3, 0.25, 1.0, n=20)
        stats = run_chain(p, steps=400_000, seed=5, thin=5)
        exact = mu_N_expected_shape(p)
        for k in range(1, stats.k_report + 1):
            err = max(stats.qhat_stderr[k - 1], 1e-6)
            assert abs(stats.mean_qhat[k - 1] - exact[k - 1]) <= 3.0 * err

    @pytest.mark.parametrize(
        "p",
        [
            SystemParams(3, 0.25, 1.0, n=7),
            SystemParams(1, 1.0, 1.0, n=8),
            SystemParams(2, 0.5, 2.0, n=9),
            SystemParams(3, BETA_UNIT, 2.0 * critical_density(3, BETA_UNIT), n=9),
        ],
        ids=["d3-n7", "d1-n8", "d2-n9", "d3-n9-condensed"],
    )
    def test_exact_detailed_balance(self, p):
        # the one-step transition matrix on cycle types, from every slot and
        # point proposal and its acceptance, is reversible against the exact law
        c = _cycle_log_constants(p, "chain")
        L = log_table(p.n)
        ens = weighted_ensemble(p)
        pi = {lam.occupations: ens.probability(lam) for lam in ens.log_weights}
        P = {}
        signs = Counter()
        for lam in ens.log_weights:
            row = P[lam.occupations] = Counter()
            for prob, lratio, removed, added in one_step_moves(lam.as_dict(), c, L):
                signs[lratio >= 0.0] += 1
                nxt = lam.as_dict()
                move_counts(nxt, removed, added)
                y = Partition.from_counts(p.n, nxt).occupations
                row[y] += prob * min(1.0, math.exp(lratio))
            assert sum(row.values()) <= 1.0 + 1e-15
        assert signs[True] and signs[False]  # some proposals are rejected
        for x, row in P.items():
            for y, pxy in row.items():
                flow, back = pi[x] * pxy, pi[y] * P[y][x]
                assert abs(flow - back) <= 1e-12 * max(flow, back), (x, y)


class TestRunChain:
    def test_seed_determinism(self):
        p = SystemParams(3, BETA_UNIT, 2.0, n=100)
        a = run_chain(p, steps=30_000, seed=11)
        b = run_chain(p, steps=30_000, seed=11)
        assert a == b  # bit-for-bit, tuples and floats
        c = run_chain(p, steps=30_000, seed=12)
        assert c != a

    def test_mass_identity_with_tail(self):
        p = SystemParams(1, 1.0, 1.0, n=60)
        stats = run_chain(p, steps=60_000, seed=3, k_report=20)
        short = sum((k) * stats.mean_qhat[k - 1] for k in range(1, 21))
        assert short + stats.tail_mass_mean == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "p, knobs",
        [
            (SystemParams(1, 1.0, 1.0, n=60),
             {"k_report": 20, "threshold": 10, "burn_in": 500, "thin": 7}),
            (SystemParams(3, BETA_UNIT, 2.0 * critical_density(3, BETA_UNIT), n=300),
             {"k_report": 30, "threshold": 44, "burn_in": 3000, "thin": 10}),
            # lengths 4..8 count in both tallies
            (SystemParams(3, 0.25, 1.0, n=8),
             {"k_report": 8, "threshold": 3, "burn_in": 1000, "thin": 10}),
            (SystemParams(1, 1.0, 1.0, n=60),
             {"k_report": 0, "threshold": 10, "burn_in": 500, "thin": 7}),
            (SystemParams(2, 0.5, 1.0, n=40),
             {"k_report": 10, "threshold": 5, "burn_in": 100, "thin": 1}),
            (SystemParams(3, BETA_UNIT, 2.0 * critical_density(3, BETA_UNIT), n=100),
             {"k_report": 30, "threshold": 21, "burn_in": 0, "thin": 10}),
            # one 1-cycle, every move auto-rejected; threshold 0 makes it long
            (SystemParams(3, 1.0, 1.0, n=1),
             {"k_report": 1, "threshold": 0, "burn_in": 10, "thin": 3}),
            # 75 samples: 50 batches of 1 and a leftover row of 25
            (SystemParams(2, 0.5, 1.0, n=40),
             {"k_report": 10, "threshold": 5, "burn_in": 0, "thin": 401}),
            # 30 samples, fewer than the 50 batches: 30 batches of 1
            (SystemParams(2, 0.5, 1.0, n=40),
             {"k_report": 10, "threshold": 5, "burn_in": 0, "thin": 1000}),
            # every length counts in both tallies, and the chain reaches a 40-cycle,
            # so the tables are written and read at every index 1..n
            (SystemParams(1, 1.0, 5.0, n=40),
             {"k_report": 40, "threshold": 0, "burn_in": 100, "thin": 3}),
        ],
        ids=["n60-d1", "n300-condensed", "k-report-above-threshold", "k-report-0",
             "thin-1", "burn-in-0", "n1", "leftover-samples", "fewer-samples-than-batches",
             "every-length-tallied"],
    )
    def test_means_are_exact_ratios_of_counts(self, p, knobs):
        # each float field is the integer sum over n * n_samples, rounded once,
        # and the batch-means errors come from the same per-batch integers
        stats = run_chain(p, steps=30_000, seed=7, **knobs)
        n_samples, r_sums, long_sum, tail_sum, rows = replayed_sums(p, 30_000, 7, **knobs)
        denom = p.n * n_samples
        assert stats.n_samples == n_samples
        assert stats.mean_qhat == tuple(float(Fraction(s, denom)) for s in r_sums)
        assert stats.long_cycle_fraction == float(Fraction(long_sum, denom))
        assert stats.tail_mass_mean == float(Fraction(tail_sum, denom))
        nb = len(rows) - 1
        stderr = fraction_stderr(rows[:nb], p.n * (n_samples // nb))
        assert stats.fraction_stderr == stderr[0]
        assert stats.qhat_stderr == tuple(stderr[1:])

    @pytest.mark.parametrize(
        "case, p, kwargs",
        [
            ("n2000-condensed",
             SystemParams(3, BETA_UNIT, 2.0 * critical_density(3, BETA_UNIT), n=2000),
             {"steps": 20_000, "seed": 2003}),
            ("n8", SystemParams(3, 0.25, 1.0, n=8), {"steps": 10_000, "seed": 8}),
            ("n60-d1", SystemParams(1, 1.0, 1.0, n=60),
             {"steps": 30_000, "seed": 3, "k_report": 20, "threshold": 10,
              "burn_in": 500, "thin": 7}),
        ],
        ids=["n2000-condensed", "n8", "n60-d1"],
    )
    def test_run_chain_matches_pinned_output(self, case, p, kwargs):
        # every field, floats bit for bit, as the slot and point moves gave
        # it; its means equal a replay that walks the occupations between
        # bare kernel calls (replayed_sums), and its errors are the Fraction
        # formula on the replay's batch tallies
        golden = json.loads(Path(__file__).with_name("run_chain_golden.json").read_text())
        want = {k: tuple(v) if isinstance(v, list) else v for k, v in golden[case].items()}
        assert run_chain(p, **kwargs) == CycleStats(**want)
        knobs = {"burn_in": kwargs["steps"] // 10, "thin": 10, "k_report": want["k_report"],
                 "threshold": want["threshold"], **kwargs}
        n_samples, _, _, _, rows = replayed_sums(p, **knobs)
        nb = len(rows) - 1
        stderr = fraction_stderr(rows[:nb], p.n * (n_samples // nb))
        assert (want["fraction_stderr"], want["qhat_stderr"]) == (stderr[0], tuple(stderr[1:]))

    def test_batch_stderr_of_a_constant_column_is_zero(self):
        # 50 batches of 450 samples at n = 2000 whose long-cycle mass never
        # changes: uncentred, np.std over the 2-D table read 9.5e-17 after
        # the 1/sqrt(50); the other column matches the exact sample stdev
        counts = [3 * b % 17 for b in range(50)]
        tallies = [[39_564, x] for x in counts]
        per_batch = 2000 * 450
        fixed, varying = _batch_stderr(tallies, per_batch)
        assert fixed == 0.0
        mean = Fraction(sum(counts), 50)
        var = sum((x - mean) ** 2 for x in counts) / 49
        want = math.sqrt(var) / (per_batch * math.sqrt(50))
        assert varying == pytest.approx(want, rel=1e-14)

    def test_stderr_shrinks_with_more_steps(self):
        # fast-mixing local observable so batch means are effectively
        # independent; the slow condensate mode would not scale cleanly
        p = SystemParams(2, 0.5, 1.0, n=100)
        short = run_chain(p, steps=200_000, seed=8, thin=2)
        longer = run_chain(p, steps=400_000, seed=8, thin=2)
        ratio = longer.qhat_stderr[0] / short.qhat_stderr[0]
        assert 1.0 / math.sqrt(2.0) * 0.8 <= ratio <= 1.0 / math.sqrt(2.0) * 1.2

    def test_audit_drift_is_relative_at_n2000(self):
        # run_chain audits the cached weight (~1,902) after its last step,
        # against 1e-10 relative; these steps leave it 3.4e-12 off
        rho_c = critical_density(3, BETA_UNIT)
        p = SystemParams(3, BETA_UNIT, rho_c / 2.0, n=2000)
        run_chain(p, steps=100_000, seed=2003)

    def test_audit_bound_is_relative(self):
        # at n = 2000 |log weight| is ~1,900: an absolute drift of 2e-10 is
        # 1e-13 relative and passes, a drift of 2e-10 relative does not
        rho_c = critical_density(3, BETA_UNIT)
        state = ChainState(SystemParams(3, BETA_UNIT, rho_c / 2.0, n=2000), seed=1)
        w = state.log_weight
        assert abs(w) > 1000.0
        state.log_weight = w + 2e-10
        state.audit()
        state.log_weight = w + 2e-10 * abs(w)
        with pytest.raises(ValidationError, match="cached log weight drifted"):
            state.audit()

    AUDIT_MESSAGES = {
        "zero-count": "cycle list out of sync",
        "cycle-entry-swapped": "cycle list out of sync",
        "cycle-entry-unoccupied": "cycle list out of sync",
        "mass-mismatch": "occupation mass",
    }

    @pytest.mark.parametrize("corruption", list(AUDIT_MESSAGES))
    def test_audit_checks_the_hand_kept_index(self, corruption):
        # the cycle list is the index the slot picks read; each corruption
        # but the last keeps the mass and the weight
        st = ChainState(SystemParams(1, 1.0, 5.0, n=40), seed=3)
        st._advance(2_000)
        st.audit()
        occupied = [k for k in st.occ if k >= 2]
        empty = next(x for x in range(2, 41) if x not in st.occ)
        assert len(occupied) >= 2
        if corruption == "zero-count":
            st.occ[empty] = 0
        elif corruption == "cycle-entry-swapped":
            x, y = occupied[:2]
            st.cycles[st.cycles.index(x)] = y
        elif corruption == "cycle-entry-unoccupied":
            st.cycles[0] = empty
        else:
            st.occ[1] = st.occ.get(1, 0) + 1
            st.cycles.append(1)
        with pytest.raises(ValidationError, match=self.AUDIT_MESSAGES[corruption]):
            st.audit()

    def test_every_run_audits_its_cached_weight(self, monkeypatch):
        # run_chain drives its chain through three kernel calls; each drifts
        advance = ChainState._advance

        def drifting_advance(self, count, sampling=None):
            landed = advance(self, count, sampling)
            self.log_weight += 1e-6
            return landed

        monkeypatch.setattr(ChainState, "_advance", drifting_advance)
        with pytest.raises(ValidationError, match="cached log weight drifted"):
            run_chain(SystemParams(2, 1.0, 1.0, n=40), steps=2_000, seed=1)

    def test_stderrs_are_python_floats(self):
        stats = run_chain(SystemParams(3, BETA_UNIT, 2.0, n=100), steps=5_000, seed=4)
        assert stats.qhat_stderr
        assert all(type(e) is float for e in stats.qhat_stderr)
        assert type(stats.fraction_stderr) is float

    def test_validation_and_caps(self):
        p = SystemParams(3, 1.0, 1.0, n=50)
        with pytest.raises(ValidationError):
            run_chain(p, steps=100, burn_in=200, seed=0)
        with pytest.raises(ValidationError):
            run_chain(SystemParams(3, 1.0, 1.0), steps=100)
        for bad in ({"k_report": -1}, {"k_report": -3}, {"k_report": 51}, {"threshold": -1}):
            with pytest.raises(ValidationError):
                run_chain(p, steps=100, seed=0, **bad)
        for steps in (0, -5):  # named as steps, not as the burn_in it implies
            with pytest.raises(ValidationError, match=f"steps must be >= 1, got {steps}$"):
                run_chain(p, steps=steps, seed=0)
        for thin in (0, -2):
            with pytest.raises(ValidationError, match=f"thin must be >= 1, got {thin}$"):
                run_chain(p, steps=100, seed=0, thin=thin)
        # one recorded sample (step 10 of 10 past a burn-in of 9) gives no error bar
        with pytest.raises(ValidationError, match="need at least 2 recorded samples"):
            run_chain(p, steps=10, burn_in=9, seed=0)
        run_chain(p, steps=11, burn_in=0, seed=0)  # two samples, at steps 1 and 11
        with pytest.raises(CapError):
            ChainState(SystemParams(3, 1.0, 1.0, n=200_000))

    def test_default_threshold_scaling(self):
        # floor(n^(2/3)) exactly, perfect cubes included
        assert [default_threshold(n) for n in (8, 27, 64, 1000, 8000)] == [4, 9, 16, 100, 400]
        for n in range(1, 10**5 + 1):
            t = default_threshold(n)
            assert t**3 <= n * n < (t + 1) ** 3, n


class TestCondensationSignal:
    def test_condensed_vs_normal_separation(self):
        rho_c = critical_density(3, BETA_UNIT)
        cond = long_cycle_fraction_scan(
            SystemParams(3, BETA_UNIT, 2.0 * rho_c), [200, 800], steps=400_000, seed=31
        )
        norm = long_cycle_fraction_scan(
            SystemParams(3, BETA_UNIT, 0.5 * rho_c), [200, 800], steps=200_000, seed=31
        )
        for row in cond:
            assert 0.35 <= row.fraction <= 0.70
        for row in norm:
            assert row.fraction < 0.02
        assert min(r.fraction for r in cond) > 10 * max(0.001, max(r.fraction for r in norm))

    def test_one_dimensional_chain_has_no_long_cycles(self):
        rows = long_cycle_fraction_scan(
            SystemParams(1, 1.0, 1.0), [200, 800], steps=200_000, seed=13
        )
        for row in rows:
            assert row.fraction < 0.02
