"""Tests for the split/merge chain: reversibility, exactness, condensation."""

import math
from collections import Counter

import pytest

from cyclegas.errors import CapError, ValidationError
from cyclegas.exactz import mu_N_expected_shape, weighted_ensemble
from cyclegas.partitions import Partition, enumerate_partitions
from cyclegas.sampler import (
    ChainState,
    _cycle_log_constants,
    default_threshold,
    long_cycle_fraction_scan,
    merge_move_terms,
    propose_move,
    run_chain,
    split_move_terms,
)
from cyclegas.thermo import SystemParams, critical_density

BETA_UNIT = 1.0 / (4.0 * math.pi)


def occ_stats(occ: dict[int, int]) -> tuple[int, int]:
    return sum(occ.values()), sum(1 for k in occ if k >= 2)


class TestMoveAlgebra:
    def test_unique_split_on_a_two_cycle(self):
        p = SystemParams(3, 1.0, 1.0, n=2)
        st = ChainState(p, seed=1, start="singletons")
        # force the state {r_2: 1}
        st._remove_cycle(1)
        st._remove_cycle(1)
        st._add_cycle(2)
        move = None
        while move is None or move.kind != "split":
            move = propose_move(st)
        assert move.candidate == Partition(2, ((1, 2),))
        assert move.detail == (2, 1)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_exhaustive_reversibility(self, n):
        # every split has the inverse merge with opposite log terms
        p = SystemParams(3, 0.5, 1.0, n=n)
        c = _cycle_log_constants(p, n)
        lg = [math.lgamma(r + 1) for r in range(n + 2)]
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
        from cyclegas.exactz import log_weight

        for _ in range(10):
            for _ in range(5_000):
                st.step()
            assert st.log_weight == pytest.approx(
                log_weight(st.current, p), abs=1e-10
            )


class TestExactness:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_frequencies_match_exact_distribution(self, n):
        p = SystemParams(3, 0.25, 1.0, n=n)
        ens = weighted_ensemble(p)
        exact = {lam.occupations: ens.probability(lam) for lam in ens.log_weights}
        st = ChainState(p, seed=2024 + n)
        steps = 1_000_000
        burn = 100_000
        counts = Counter()
        nb = 100
        batch_counts = [Counter() for _ in range(nb)]
        kept = steps - burn
        batch_size = kept // nb
        for i in range(steps):
            st.step()
            if i < burn:
                continue
            key = st.occupation_key()
            counts[key] += 1
            b = min((i - burn) // batch_size, nb - 1)
            batch_counts[b][key] += 1
        st.audit()
        total = sum(counts.values())
        for key, prob in exact.items():
            freq = counts.get(key, 0) / total
            bf = [bc.get(key, 0) / batch_size for bc in batch_counts]
            mean_b = sum(bf) / nb
            var_b = sum((x - mean_b) ** 2 for x in bf) / (nb - 1)
            stderr = math.sqrt(var_b / nb)
            err = max(stderr, 1.0 / total)
            assert abs(freq - prob) <= 4.0 * err, (
                f"n={n} type={key}: freq={freq} exact={prob} stderr={stderr}"
            )

    def test_detailed_balance_audit_n4(self):
        p = SystemParams(3, 0.25, 1.0, n=4)
        st = ChainState(p, seed=123)
        steps = 1_000_000
        burn = 50_000
        trans = Counter()
        prev = st.occupation_key()
        for i in range(steps):
            st.step()
            cur = st.occupation_key()
            if i >= burn:
                trans[(prev, cur)] += 1
            prev = cur
        for (x, y), nxy in trans.items():
            if x >= y:
                continue
            nyx = trans.get((y, x), 0)
            scale = math.sqrt(max(nxy + nyx, 1))
            assert abs(nxy - nyx) <= 3.0 * scale, (x, y, nxy, nyx)

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

    def test_stderr_shrinks_with_more_steps(self):
        # fast-mixing local observable so batch means are effectively
        # independent; the slow condensate mode would not scale cleanly
        p = SystemParams(2, 0.5, 1.0, n=100)
        short = run_chain(p, steps=200_000, seed=8, thin=2)
        longer = run_chain(p, steps=400_000, seed=8, thin=2)
        ratio = longer.qhat_stderr[0] / short.qhat_stderr[0]
        assert 1.0 / math.sqrt(2.0) * 0.8 <= ratio <= 1.0 / math.sqrt(2.0) * 1.2

    def test_audit_every(self):
        p = SystemParams(2, 1.0, 1.0, n=40)
        run_chain(p, steps=20_000, seed=1, audit_every=1000)

    def test_audit_drift_is_relative_at_n2000(self):
        # the cached weight (~1,895) accumulates ~1.1e-10 of rounding over
        # these steps: within 1e-10 relative, beyond 1e-10 absolute
        rho_c = critical_density(3, BETA_UNIT)
        p = SystemParams(3, BETA_UNIT, rho_c / 2.0, n=2000)
        audited = run_chain(p, steps=100_000, seed=2003, audit_every=997)
        assert audited == run_chain(p, steps=100_000, seed=2003)

    def test_validation_and_caps(self):
        p = SystemParams(3, 1.0, 1.0, n=50)
        with pytest.raises(ValidationError):
            run_chain(p, steps=100, burn_in=200, seed=0)
        with pytest.raises(ValidationError):
            run_chain(SystemParams(3, 1.0, 1.0), steps=100)
        with pytest.raises(CapError):
            ChainState(SystemParams(3, 1.0, 1.0, n=200_000))

    def test_default_threshold_scaling(self):
        assert default_threshold(1000) == 99
        assert default_threshold(8000) == 399 or default_threshold(8000) == 400


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
