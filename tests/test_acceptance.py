"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import random
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

from cyclegas.bosefn import bose_g, zeta
from cyclegas.entropy import (
    TruncatedShape,
    functional_S,
    minimize_S,
    minimizing_sequence,
    minimizing_sequence_s_closed_form,
    qhat_star_array,
)
from cyclegas.exactz import brute_force_log_Z, convergence_scan, exact_log_Z
from cyclegas.sampler import ChainState, run_chain
from cyclegas.thermo import (
    SystemParams,
    chi,
    critical_beta,
    critical_density,
    free_energy,
    solve_alpha,
    thermal_factor,
)
from tests.oracles import weighted_ensemble

BETA_UNIT = 1.0 / (4.0 * math.pi)

# independent oracle values, frozen from the alternating eta series
# (eta(s)/(1 - 2^(1-s)); truncation error below 1e-10, verified in
# tests/test_bosefn.py)
ZETA_3_HALVES_ORACLE = 2.6123753486854883
ZETA_5_HALVES_ORACLE = 1.3414872572509171


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:2d}: {text} ... FAIL")
        raise
    print(f"ACCEPTANCE {num:2d}: {text} ... PASS")


def test_criterion_01_oracle_equivalence():
    with criterion(1, "permutation-sum oracle equals partition sum (n <= 8)"):
        for n in range(1, 9):
            for d in (1, 2, 3):
                for beta in (0.25, 1.0):
                    for rho in (0.5, 2.0):
                        p = SystemParams(d, beta, rho, n=n)
                        bf = brute_force_log_Z(p)
                        ex = exact_log_Z(p)
                        assert abs(bf - ex) <= 1e-12 * abs(ex), (n, d, beta, rho)


def test_criterion_02_closed_form_phase_constants():
    with criterion(2, "rho_c and beta_c closed forms hit the zeta oracle"):
        rho_c = critical_density(3, BETA_UNIT)
        assert abs(rho_c - ZETA_3_HALVES_ORACLE) <= 1e-10
        beta_c = critical_beta(3, ZETA_3_HALVES_ORACLE)
        assert abs(beta_c - BETA_UNIT) <= 1e-12


def test_criterion_03_two_way_free_energy():
    with criterion(3, "closed-form f equals (rho/beta) S(Q*) at K=1e5, 27 points"):
        K = 100_000
        ks = np.arange(1, K + 1, dtype=np.float64)
        for d in (1, 2, 3):
            for beta in (0.5, 1.0, 2.0):
                for alpha_target in (0.05, 0.3, 1.0):
                    rho = bose_g(d / 2.0, alpha_target, 1e-14).value / thermal_factor(
                        d, beta
                    )
                    params = SystemParams(d, beta, rho)
                    sol = solve_alpha(params, 1e-12)
                    assert sol.regime == "normal"
                    qh = qhat_star_array(params, K) * np.exp(-sol.alpha * ks)
                    s_val = functional_S(TruncatedShape(qh, relaxed=True), params)
                    f_closed = sol.free_energy
                    assert abs(f_closed - rho / beta * s_val) <= 1e-8 * abs(f_closed), (
                        d,
                        beta,
                        alpha_target,
                    )


def test_criterion_04_condensed_rho_independence():
    with criterion(4, "condensed f is rho-independent and matches -zeta(5/2)"):
        for beta in (BETA_UNIT, 0.7):
            rho_c = critical_density(3, beta)
            f2 = free_energy(SystemParams(3, beta, 2.0 * rho_c))
            f3 = free_energy(SystemParams(3, beta, 3.0 * rho_c))
            assert f2 == f3  # identical code path, bitwise equality
            want = -ZETA_5_HALVES_ORACLE / (thermal_factor(3, beta) * beta)
            assert abs(f2 - want) <= 1e-10 * abs(want)


def test_criterion_05_variational_minimizer_recovery():
    with criterion(5, "numerical minimiser at K=5000 matches the closed form"):
        cases = [
            SystemParams(1, 1.0, 0.5),
            SystemParams(2, 0.8, bose_g(1.0, 0.4, 1e-14).value / thermal_factor(2, 0.8)),
            SystemParams(3, BETA_UNIT, 0.5 * critical_density(3, BETA_UNIT)),
        ]
        K = 5000
        ks = np.arange(1, K + 1, dtype=np.float64)
        for params in cases:
            sol = solve_alpha(params, 1e-12)
            assert sol.regime == "normal"
            res = minimize_S(params, K=K, tol=1e-12)
            closed = qhat_star_array(params, K) * np.exp(-sol.alpha * ks)
            assert float(np.max(np.abs(res.shape.qhat - closed))) <= 1e-8
            assert abs(res.s_value - sol.chi) <= 1e-6


def test_criterion_06_minimizing_sequence_identity():
    with criterion(6, "S(Q_n) matches the explicit evaluation and falls to chi"):
        params = SystemParams(3, BETA_UNIT, 2.0 * critical_density(3, BETA_UNIT))
        chi_c = chi(params)
        K = 5_000_000
        values = []
        for n in (1, 10, 100, 1000):
            shape = minimizing_sequence(n, params, K=K)
            s_closed = minimizing_sequence_s_closed_form(n, params)
            # the shape's closed form, then the array route on its untagged copy
            for s in (shape, TruncatedShape(shape.qhat, relaxed=True)):
                s_functional = functional_S(s, params)
                assert abs(s_functional - s_closed) <= 1e-10, n
            values.append(s_closed)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > chi_c for v in values)


def test_criterion_07_condensate_fraction_identity():
    with criterion(7, "1 - rho_c/rho equals 1 - (beta_c/beta)^(d/2), 100 draws"):
        rng = random.Random(2024)
        checked = 0
        while checked < 100:
            d = rng.choice([3, 4, 5])
            beta = rng.uniform(0.05, 2.0)
            rho_c = critical_density(d, beta)
            rho = rho_c * rng.uniform(1.05, 8.0)
            sol = solve_alpha(SystemParams(d, beta, rho))
            assert sol.regime == "condensed"
            lhs = 1.0 - rho_c / rho
            rhs = 1.0 - (sol.beta_c / beta) ** (d / 2.0)
            assert abs(lhs - rhs) <= 1e-10
            checked += 1


def test_criterion_08_finite_n_limit_trend():
    with criterion(8, "|(1/n) log Z_n + chi| shrinks along n = 10,20,40,60"):
        rho_c3 = critical_density(3, BETA_UNIT)
        param_sets = [
            SystemParams(3, BETA_UNIT, 0.5 * rho_c3),
            SystemParams(3, BETA_UNIT, 2.0 * rho_c3),
            SystemParams(1, 1.0, 1.0),
            SystemParams(2, 0.5, 0.7),
            SystemParams(3, 0.25, 2.0),
            SystemParams(1, 2.0, 0.3),
        ]
        monotone = 0
        for params in param_sets:
            rows = convergence_scan(params, [10, 20, 40, 60])
            gaps = [abs(r.gap) for r in rows]
            if all(a > b for a, b in zip(gaps, gaps[1:])):
                monotone += 1
        assert monotone >= 5, f"only {monotone} of 6 parameter sets are monotone"


def test_criterion_09_sampler_exactness():
    with criterion(9, "chain frequencies match exact mu_N; detailed balance holds"):
        # frequency agreement within 4 batch-means standard errors
        for n in (4, 6, 8):
            p = SystemParams(3, 0.25, 1.0, n=n)
            ens = weighted_ensemble(p)
            exact = {lam.occupations: ens.probability(lam) for lam in ens.log_weights}
            st = ChainState(p, seed=2024 + n)
            steps, burn = 1_000_000, 100_000
            nb = 100
            batch_size = (steps - burn) // nb
            counts = Counter()
            batches = [Counter() for _ in range(nb)]
            key = tuple(sorted(st.occ.items()))
            for i in range(steps):
                if st.step():  # only a landed move changes the state
                    key = tuple(sorted(st.occ.items()))
                if i < burn:
                    continue
                counts[key] += 1
                batches[min((i - burn) // batch_size, nb - 1)][key] += 1
            st.audit()
            total = sum(counts.values())
            for key, prob in exact.items():
                freq = counts.get(key, 0) / total
                bf = [bc.get(key, 0) / batch_size for bc in batches]
                mean_b = sum(bf) / nb
                stderr = math.sqrt(
                    sum((x - mean_b) ** 2 for x in bf) / (nb - 1) / nb
                )
                err = max(stderr, 1.0 / total)
                assert abs(freq - prob) <= 4.0 * err, (n, key)
        # detailed-balance audit on n = 4
        p = SystemParams(3, 0.25, 1.0, n=4)
        st = ChainState(p, seed=99)
        trans = Counter()
        prev = cur = tuple(sorted(st.occ.items()))
        for i in range(1_000_000):
            if st.step():
                cur = tuple(sorted(st.occ.items()))
            if i >= 50_000:
                trans[(prev, cur)] += 1
            prev = cur
        for (x, y), nxy in trans.items():
            if x >= y:
                continue
            nyx = trans.get((y, x), 0)
            assert abs(nxy - nyx) <= 3.0 * math.sqrt(max(nxy + nyx, 1)), (x, y)


def test_criterion_10_condensation_signal():
    with criterion(10, "long-cycle mass: ~1/2 when condensed, ~0 when normal"):
        rho_c = critical_density(3, BETA_UNIT)
        cond = run_chain(
            SystemParams(3, BETA_UNIT, 2.0 * rho_c, n=2000),
            steps=2_000_000,
            seed=42,
        )
        assert 0.4 <= cond.long_cycle_fraction <= 0.6, cond.long_cycle_fraction
        norm = run_chain(
            SystemParams(3, BETA_UNIT, 0.5 * rho_c, n=2000),
            steps=1_000_000,
            seed=42,
        )
        assert norm.long_cycle_fraction < 0.05, norm.long_cycle_fraction


def test_criterion_11_bose_function_cross_checks():
    with criterion(11, "series vs integral Bose values agree; g_1 closed form"):
        for s in (0.5, 1.0, 1.5, 2.5):
            for alpha in (0.1, 1.0, 5.0):
                series = bose_g(s, alpha, 1e-12)

                def integrand(t: float) -> float:
                    e = math.exp(-(t + alpha))
                    return t ** (s - 1.0) * e / (1.0 - e)

                val, err = quad(
                    integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200
                )
                g = math.gamma(s)
                assert (
                    abs(series.value - val / g)
                    <= series.error_bound + err / g + 1e-10
                ), (s, alpha)
        for alpha in (0.1, 0.5, 1.0, 2.0, 5.0):
            got = bose_g(1.0, alpha, 1e-13).value
            want = -math.log(-math.expm1(-alpha))
            assert abs(got - want) <= 1e-12
