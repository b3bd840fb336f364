"""Tests for the split/merge chain: reversibility, exactness, condensation."""

import copy
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cyclegas.errors import CapError, ValidationError
from cyclegas.exactz import log_weight, mu_N_expected_shape
from cyclegas.partitions import Partition, enumerate_partitions
from cyclegas.sampler import (
    ChainState,
    CycleStats,
    _cycle_log_constants,
    default_threshold,
    long_cycle_fraction_scan,
    run_chain,
)
from cyclegas.thermo import SystemParams, critical_density

BETA_UNIT = 1.0 / (4.0 * math.pi)
LOG2 = math.log(2.0)


def occ_stats(occ: dict[int, int]) -> tuple[int, int]:
    return sum(occ.values()), sum(1 for k in occ if k >= 2)


def log_table(n: int) -> list[float]:
    """L[r] = log r for r <= n + 2, the table ChainState keeps as _L."""
    return [-math.inf] + [math.log(r) for r in range(1, n + 3)]


def split_move_terms(
    occ: dict[int, int],
    c: list[float],
    L: list[float],
    m: int,
    k2: int,
    k: int,
    j: int,
) -> tuple[float, float]:
    """(delta log weight, log Hastings ratio) for splitting a k-cycle at j.

    The kernel's split terms written as a function: reference_step checks
    the kernel against it bit for bit.  occ/m/k2 describe the state before
    the move; the move must be legal (occ[k] >= 1, k >= 2, 1 <= j <= k-1).
    L[r] = log r, so a ratio of factorials r!/(r-1)! is L[r] and log C(m, 2)
    is L[m] + L[m-1] - log 2.
    """
    j2 = k - j
    dlw = -c[k] + L[occ[k]]
    rj = occ.get(j, 0)
    log_fwd = -L[k2] - L[k - 1]
    if j == j2:
        dlw += 2.0 * c[j] - (L[rj + 2] + L[rj + 1])
        log_pairs = L[rj + 2] + L[rj + 1] - LOG2
    else:
        rj2 = occ.get(j2, 0)
        dlw += c[j] - L[rj + 1]
        dlw += c[j2] - L[rj2 + 1]
        log_pairs = L[rj + 1] + L[rj2 + 1]
        log_fwd += LOG2
    log_rev = log_pairs - (L[m + 1] + L[m] - LOG2)
    return dlw, log_rev - log_fwd


def merge_move_terms(
    occ: dict[int, int],
    c: list[float],
    L: list[float],
    m: int,
    k2: int,
    a: int,
    b: int,
) -> tuple[float, float]:
    """(delta log weight, log Hastings ratio) for merging an a- and a b-cycle.

    The kernel's merge terms written as a function (see split_move_terms).
    occ/m/k2 describe the state before the move; requires two distinct
    cycles of lengths a and b (occ[a] >= 2 when a == b).  L[r] = log r.
    """
    s = a + b
    rs = occ.get(s, 0)
    ra = occ[a]
    k2_new = k2
    if a == b:
        dlw = -2.0 * c[a] + L[ra] + L[ra - 1]
        log_pairs = L[ra] + L[ra - 1] - LOG2
        log_rev = 0.0
        if a >= 2 and ra == 2:
            k2_new -= 1
    else:
        rb = occ[b]
        dlw = (-c[a] + L[ra]) + (-c[b] + L[rb])
        log_pairs = L[ra] + L[rb]
        log_rev = LOG2
        if a >= 2 and ra == 1:
            k2_new -= 1
        if b >= 2 and rb == 1:
            k2_new -= 1
    dlw += c[s] - L[rs + 1]
    if rs == 0:
        k2_new += 1
    log_fwd = log_pairs - (L[m] + L[m - 1] - LOG2)
    log_rev -= L[k2_new] + L[s - 1]
    return dlw, log_rev - log_fwd


def lgamma_split_terms(occ, c, lg, m, k2, k, j):
    """The split terms on lg[r] = log r!, the form the L-table terms replaced."""
    j2 = k - j
    rk = occ[k]
    dlw = -c[k] + lg[rk] - lg[rk - 1]
    rj = occ.get(j, 0)
    if j == j2:
        dlw += 2.0 * c[j] - (lg[rj + 2] - lg[rj])
        npairs = (rj + 2) * (rj + 1) // 2
        log_fwd = -math.log(k2) - math.log(k - 1)
    else:
        rj2 = occ.get(j2, 0)
        dlw += c[j] - (lg[rj + 1] - lg[rj])
        dlw += c[j2] - (lg[rj2 + 1] - lg[rj2])
        npairs = (rj + 1) * (rj2 + 1)
        log_fwd = -math.log(k2) - math.log(k - 1) + math.log(2.0)
    log_rev = math.log(npairs) - math.log((m + 1) * m / 2.0)
    return dlw, log_rev - log_fwd


def lgamma_merge_terms(occ, c, lg, m, k2, a, b):
    """The merge terms on lg[r] = log r!, the form the L-table terms replaced."""
    s = a + b
    rs = occ.get(s, 0)
    ra = occ[a]
    k2_new = k2
    if a == b:
        dlw = -2.0 * c[a] + lg[ra] - lg[ra - 2]
        npairs = ra * (ra - 1) // 2
        log_rev_choice = 0.0
        k2_new -= a >= 2 and ra == 2
    else:
        rb = occ[b]
        dlw = (-c[a] + lg[ra] - lg[ra - 1]) + (-c[b] + lg[rb] - lg[rb - 1])
        npairs = ra * rb
        log_rev_choice = math.log(2.0)
        k2_new -= (a >= 2 and ra == 1) + (b >= 2 and rb == 1)
    dlw += c[s] - (lg[rs + 1] - lg[rs])
    log_fwd = math.log(npairs) - math.log(m * (m - 1) / 2.0)
    k2_new += rs == 0
    log_rev = -math.log(k2_new) - math.log(s - 1) + log_rev_choice
    return dlw, log_rev - log_fwd


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


def apply_move(st: ChainState, removed, added) -> None:
    """Take cycles of the lengths in `removed` out of st, then put `added` in.

    The slot policy as a function, the reference the kernel's written-out
    updates are checked against (reference_step).  Keeps occ, the cycle list
    (a removed cycle's slot is refilled by the last one) and the distinct
    lengths >= 2 in step; which slot a length gives up follows its position
    set's pop order, so the same calls in the same order give the same chain.
    """
    occ = st.occ
    cycles = st.cycles
    pos_by_len = st.pos_by_len
    split_keys = st.split_keys
    key_pos = st.key_pos
    for length in removed:
        r = occ[length] - 1
        if r == 0:
            del occ[length]
            if length >= 2:
                i = key_pos.pop(length)
                last = split_keys.pop()
                if last != length:
                    split_keys[i] = last
                    key_pos[last] = i
        else:
            occ[length] = r
        pos = pos_by_len[length].pop()
        last_idx = len(cycles) - 1
        if pos != last_idx:
            moved = cycles[last_idx]
            cycles[pos] = moved
            mset = pos_by_len[moved]
            mset.discard(last_idx)
            mset.add(pos)
        cycles.pop()
    for length in added:
        r = occ.get(length, 0) + 1
        occ[length] = r
        if r == 1 and length >= 2:
            key_pos[length] = len(split_keys)
            split_keys.append(length)
        pos_by_len[length].add(len(cycles))
        cycles.append(length)


def reference_step(st: ChainState) -> tuple[str, str]:
    """One step written with Random.randrange: (move kind, outcome)."""
    rng = st.rng
    if rng.random() < 0.5:
        kind = "split"
        k2 = len(st.split_keys)
        if k2 == 0:
            return kind, "auto_rejected"
        k = st.split_keys[rng.randrange(k2)]
        j = 1 + rng.randrange(k - 1)
        dlw, lratio = split_move_terms(st.occ, st._c, st._L, len(st.cycles), k2, k, j)
        removed, added = (k,), (j, k - j)
    else:
        kind = "merge"
        m = len(st.cycles)
        if m < 2:
            return kind, "auto_rejected"
        i1 = rng.randrange(m)
        i2 = rng.randrange(m - 1)
        if i2 >= i1:
            i2 += 1
        a, b = sorted((st.cycles[i1], st.cycles[i2]))
        dlw, lratio = merge_move_terms(
            st.occ, st._c, st._L, m, len(st.split_keys), a, b
        )
        removed, added = (a, b), (a + b,)
    total = dlw + lratio
    if total >= 0.0 or rng.random() < math.exp(total):
        apply_move(st, removed, added)
        st.log_weight += dlw
        return kind, "accepted"
    return kind, "rejected"


def chain_snapshot(st: ChainState) -> tuple:
    """Everything a later step or a recorded sample can depend on."""
    return (
        list(st.occ.items()),
        list(st.cycles),
        list(st.split_keys),
        {k: sorted(v) for k, v in st.pos_by_len.items()},
        st.log_weight,
        copy.deepcopy(st.acceptance_counts),
        st.rng.getstate(),
    )


def proposed(snapshot: tuple) -> int:
    """Moves proposed so far, read from a chain_snapshot's counters."""
    return sum(tally["proposed"] for tally in snapshot[5].values())


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


class TestMoveAlgebra:
    def test_unique_split_on_a_two_cycle(self):
        p = SystemParams(3, 1.0, 1.0, n=2)
        st = ChainState(p, seed=1)
        # force the state {r_2: 1}
        apply_move(st, tuple(st.cycles), (2,))
        while not st.step():  # merges auto-reject: one cycle only
            pass
        assert st.current == Partition(2, ((1, 2),))
        assert st.acceptance_counts["split"]["accepted"] == 1

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_exhaustive_reversibility(self, n):
        # every split has the inverse merge with opposite log terms
        p = SystemParams(3, 0.5, 1.0, n=n)
        c = _cycle_log_constants(p, "chain")
        lg = log_table(n)
        for lam in enumerate_partitions(n):
            occ = lam.as_dict()
            m, k2 = occ_stats(occ)
            for k in [k for k in occ if k >= 2]:
                for j in range(1, k):
                    dlw_s, lr_s = split_move_terms(occ, c, lg, m, k2, k, j)
                    nxt = dict(occ)
                    nxt[k] -= 1
                    if nxt[k] == 0:
                        del nxt[k]
                    nxt[j] = nxt.get(j, 0) + 1
                    nxt[k - j] = nxt.get(k - j, 0) + 1
                    m2, k22 = occ_stats(nxt)
                    a, b = min(j, k - j), max(j, k - j)
                    dlw_m, lr_m = merge_move_terms(nxt, c, lg, m2, k22, a, b)
                    assert abs(dlw_s + dlw_m) < 1e-12
                    assert abs(lr_s + lr_m) < 1e-12

    @pytest.mark.parametrize("d", [1, 3])
    def test_log_table_terms_match_lgamma_formulas(self, d):
        # L[r] = log r replaces differences of lg[r] = log r!; every legal
        # move of every partition with n <= 10 gets the same terms
        for n in range(2, 11):
            p = SystemParams(d, 0.5, 1.0, n=n)
            c = _cycle_log_constants(p, "chain")
            L = log_table(n)
            lg = [math.lgamma(r + 1) for r in range(n + 2)]
            for lam in enumerate_partitions(n):
                occ = lam.as_dict()
                m, k2 = occ_stats(occ)
                splits, merges = legal_moves(occ)
                for k, j in splits:
                    got = split_move_terms(occ, c, L, m, k2, k, j)
                    want = lgamma_split_terms(occ, c, lg, m, k2, k, j)
                    assert got == pytest.approx(want, rel=0, abs=1e-12), (occ, k, j)
                for a, b in merges:
                    got = merge_move_terms(occ, c, L, m, k2, a, b)
                    want = lgamma_merge_terms(occ, c, lg, m, k2, a, b)
                    assert got == pytest.approx(want, rel=0, abs=1e-12), (occ, a, b)

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
        # the benchmark's condensed point: splits of the giant cycle, and
        # lengths that empty and swap their split key with the last one
        + [(SystemParams(3, BETA_UNIT, 2.0 * critical_density(3, BETA_UNIT), n=2000), 2000)],
        ids=["12", "200", "40", "1", "n2000-condensed"],
    )
    def test_kernel_matches_randrange_reference(self, p, seed):
        # the kernel's inlined getrandbits picks reproduce Random.randrange,
        # its slot updates reproduce apply_move's, and its counters tally
        # the reference's outcomes
        st = ChainState(p, seed=seed)
        ref = copy.deepcopy(st)
        tally = {kind: Counter() for kind in ("split", "merge")}
        for i in range(20_000):
            landed = st.step()
            kind, outcome = reference_step(ref)
            tally[kind][outcome] += 1
            assert landed == (outcome == "accepted")
            if i % 997 == 0:
                assert chain_snapshot(st)[:5] == chain_snapshot(ref)[:5]
                assert st.rng.getstate() == ref.rng.getstate()
        assert chain_snapshot(st)[:5] == chain_snapshot(ref)[:5]
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
                # occ, cycles, split keys, positions and log weight (bitwise)
                assert after[:5] == before[:5]
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
        batch_means = np.array(rows[:nb], dtype=np.float64) / (p.n * (n_samples // nb))
        stderr = (np.std(batch_means, axis=0, ddof=1) / math.sqrt(nb)).tolist()
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
        # every field, floats bit for bit, as run_chain gave it when samples
        # were still taken by walking the occupations between kernel calls
        golden = json.loads(Path(__file__).with_name("run_chain_golden.json").read_text())
        want = {k: tuple(v) if isinstance(v, list) else v for k, v in golden[case].items()}
        assert run_chain(p, **kwargs) == CycleStats(**want)

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
        "split-key-missing": "split keys are not",
        "split-key-unoccupied": "split keys are not",
        "key-positions-swapped": "key positions are not",
        "slot-in-wrong-set": "slot sets out of sync",
        "slot-in-empty-set": "slot sets out of sync",
    }

    @pytest.mark.parametrize("corruption", list(AUDIT_MESSAGES))
    def test_audit_checks_the_hand_kept_index(self, corruption):
        # each corruption keeps the mass, the cycle count and the weight
        st = ChainState(SystemParams(1, 1.0, 5.0, n=40), seed=3)
        st._advance(2_000)
        st.audit()
        occupied = [k for k in st.occ if k >= 2]
        empty = next(x for x in range(2, 41) if x not in st.occ)
        assert len(occupied) >= 2
        if corruption == "zero-count":
            st.occ[empty] = 0
        elif corruption == "split-key-missing":
            del st.key_pos[st.split_keys.pop()]
        elif corruption == "split-key-unoccupied":
            st.key_pos[empty] = len(st.split_keys)
            st.split_keys.append(empty)
        elif corruption == "key-positions-swapped":
            x, y = st.split_keys[:2]
            st.key_pos[x], st.key_pos[y] = st.key_pos[y], st.key_pos[x]
        elif corruption == "slot-in-wrong-set":
            x, y = occupied[:2]
            i = st.cycles.index(x)
            st.pos_by_len[x].discard(i)
            st.pos_by_len[y].add(i)
        else:
            st.pos_by_len[empty].add(0)
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
