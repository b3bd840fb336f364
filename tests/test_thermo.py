"""Tests for the phase-structure solver."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclegas import thermo
from cyclegas.bosefn import bose_g, zeta
from cyclegas.errors import ValidationError
from cyclegas.thermo import (
    INFINITE,
    SystemParams,
    chi,
    critical_beta,
    critical_density,
    free_energy,
    optimal_shape,
    solve_alpha,
    thermal_factor,
)

BETA_UNIT = 1.0 / (4.0 * math.pi)  # makes (4 pi beta)^(d/2) = 1
ZETA_3_HALVES = 2.6123753486854883


class TestCriticalConstants:
    def test_low_dimensions_never_condense(self):
        assert critical_density(2, 0.7) == INFINITE
        assert critical_density(1, 3.0) == INFINITE
        assert critical_beta(1, 1.0) == INFINITE
        assert critical_beta(2, 5.0) == INFINITE

    def test_rho_c_at_unit_thermal_factor(self):
        assert critical_density(3, BETA_UNIT) == pytest.approx(ZETA_3_HALVES, abs=1e-10)

    def test_rho_c_beta_scaling(self):
        base = critical_density(3, BETA_UNIT)
        assert critical_density(3, 4.0 * BETA_UNIT) == pytest.approx(base / 8.0, rel=1e-13)

    def test_beta_c_inverts_rho_c(self):
        assert critical_beta(3, ZETA_3_HALVES) == pytest.approx(BETA_UNIT, abs=1e-12)

    def test_duality_on_grid(self):
        # rho > rho_c(beta)  <=>  beta > beta_c(rho)
        for beta in [0.05 * (i + 1) for i in range(10)]:
            for rho in [0.4 * (j + 1) for j in range(10)]:
                lhs = rho > critical_density(3, beta)
                rhs = beta > critical_beta(3, rho)
                assert lhs == rhs

    def test_validation(self):
        with pytest.raises(ValidationError):
            critical_density(0, 1.0)
        with pytest.raises(ValidationError):
            critical_beta(3, -1.0)


class TestSolveAlpha:
    def test_forward_inverse_consistency(self):
        # choose rho so the root is exactly alpha = 1
        rho = bose_g(1.5, 1.0, 1e-14).value
        sol = solve_alpha(SystemParams(3, BETA_UNIT, rho), tol=1e-12)
        assert sol.regime == "normal"
        assert sol.alpha == pytest.approx(1.0, abs=1e-10)

    def test_critical_band(self):
        rho_c = critical_density(3, BETA_UNIT)
        sol = solve_alpha(SystemParams(3, BETA_UNIT, rho_c))
        assert sol.regime == "critical"
        assert sol.alpha == 0.0
        assert sol.condensate_fraction == pytest.approx(0.0, abs=1e-9)

    def test_condensed_fraction(self):
        rho_c = critical_density(3, BETA_UNIT)
        sol = solve_alpha(SystemParams(3, BETA_UNIT, 2.0 * rho_c))
        assert sol.regime == "condensed"
        assert sol.alpha == 0.0
        assert sol.condensate_fraction == pytest.approx(0.5, abs=1e-10)

    def test_root_residual_invariant(self):
        tol = 1e-11
        for d, beta, rho in [(1, 1.0, 0.5), (2, 0.5, 1.0), (3, 1.0, 0.04), (3, BETA_UNIT, 1.0)]:
            sol = solve_alpha(SystemParams(d, beta, rho), tol)
            assert sol.regime == "normal"
            target = rho * thermal_factor(d, beta)
            got = bose_g(d / 2.0, sol.alpha, 1e-14).value
            assert abs(got - target) <= tol * target

    def test_near_critical_root_is_certified(self):
        # just below rho_c the root is ~1e-8; the expansion path must carry it
        rho_c = critical_density(3, BETA_UNIT)
        sol = solve_alpha(SystemParams(3, BETA_UNIT, rho_c * (1.0 - 1e-4)), 1e-10)
        assert sol.regime == "normal"
        assert 0.0 < sol.alpha < 1e-6
        target = rho_c * (1.0 - 1e-4)
        got = bose_g(1.5, sol.alpha, 1e-14).value
        assert abs(got - target) <= 1e-10 * target

    def test_near_critical_root_higher_dimensions(self):
        # d = 4 exercises the integer-order expansion branch (s = 2), d = 5
        # the half-integer one, both at roots ~1e-5
        for d, beta in ((4, 0.3), (5, 0.2)):
            rho_c = critical_density(d, beta)
            rho = rho_c * (1.0 - 1e-4)
            sol = solve_alpha(SystemParams(d, beta, rho), 1e-10)
            assert sol.regime == "normal"
            assert 0.0 < sol.alpha < 1e-3
            target = rho * thermal_factor(d, beta)
            got = bose_g(d / 2.0, sol.alpha, 1e-14).value
            assert abs(got - target) <= 1e-10 * target

    @given(
        d=st.integers(min_value=1, max_value=5),
        beta=st.floats(min_value=0.02, max_value=5.0),
        log_gap=st.floats(min_value=-6.0, max_value=-1e-3),
        log_target=st.floats(min_value=-3.0, max_value=math.log10(12.0)),
        tol=st.sampled_from([1e-10, 1e-12]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_root_matches_polylog(self, d, beta, log_gap, log_target, tol):
        # d >= 3: rho up to (1 - 1e-6) rho_c; d <= 2: g_{d/2}(alpha) in [1e-3, 12]
        if d >= 3:
            rho = critical_density(d, beta) * (1.0 - 10.0**log_gap)
        else:
            rho = 10.0**log_target / thermal_factor(d, beta)
        sol = solve_alpha(SystemParams(d, beta, rho), tol)
        assert sol.regime == "normal" and sol.alpha > 0.0
        target = rho * thermal_factor(d, beta)
        with mpmath.workdps(30):
            g = float(mpmath.polylog(d / 2.0, mpmath.exp(-mpmath.mpf(sol.alpha))))
        # 1e-13: double rounding of the certified value
        assert abs(g - target) <= (tol + 1e-13) * target

    @pytest.mark.parametrize(
        "d, beta, g_ratio",
        [(3, b, r) for b in (BETA_UNIT, 0.25, 1.0)
         for r in (0.990, 0.9905, 0.991, 0.9915, 0.992, 0.995, 0.999)]
        + [(2, b, g) for b in (BETA_UNIT, 0.25, 1.0) for g in (7.0, 9.2, 11.5)],
    )
    def test_near_critical_solve_evaluation_ceiling(self, monkeypatch, d, beta, g_ratio):
        # d = 3: rho = g_ratio * rho_c; d = 2: g_1(alpha) = g_ratio
        calls = []

        def counting_bose_g(*args, **kwargs):
            calls.append(args)
            return bose_g(*args, **kwargs)

        monkeypatch.setattr(thermo, "bose_g", counting_bose_g)
        if d == 3:
            rho = g_ratio * critical_density(3, beta)
        else:
            rho = g_ratio / thermal_factor(2, beta)
        assert solve_alpha(SystemParams(d, beta, rho)).regime == "normal"
        assert len(calls) <= 30

    def test_alpha_decreasing_in_rho(self):
        rho_c = critical_density(3, BETA_UNIT)
        rhos = [f * rho_c for f in (0.1, 0.25, 0.5, 0.75, 0.9)]
        alphas = [solve_alpha(SystemParams(3, BETA_UNIT, r)).alpha for r in rhos]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))

    def test_regime_via_beta_c_matches_regime_via_rho_c(self):
        rng = random.Random(7)
        for _ in range(50):
            d = rng.choice([3, 4, 5])
            beta = rng.uniform(0.05, 2.0)
            rho = rng.uniform(0.05, 5.0)
            sol = solve_alpha(SystemParams(d, beta, rho))
            if sol.regime == "critical":
                continue
            via_beta = "condensed" if beta > sol.beta_c else "normal"
            assert sol.regime == via_beta


class TestOptimalShape:
    def test_normal_mass_sums_to_one(self):
        sol, qhat = optimal_shape(SystemParams(1, 1.0, 0.1), 1e-12)
        total = sum(k * qhat(k) for k in range(1, 5000))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_condensed_mass_is_rho_c_over_rho(self):
        rho_c = critical_density(3, BETA_UNIT)
        params = SystemParams(3, BETA_UNIT, 2.0 * rho_c)
        sol, qhat = optimal_shape(params, 1e-12)
        # partial sum plus the exact zeta tail of sum k^(-3/2)
        K = 200_000
        partial = sum(k * qhat(k) for k in range(1, K + 1))
        zeta_partial = sum(float(k) ** -1.5 for k in range(1, K + 1))
        tail = (zeta(1.5, 1e-14).value - zeta_partial) / (
            params.rho * thermal_factor(3, BETA_UNIT)
        )
        assert partial + tail == pytest.approx(0.5, abs=1e-9)

    def test_ratio_is_exponential_tilt(self):
        params = SystemParams(3, BETA_UNIT, 1.0)
        sol, qhat = optimal_shape(params)
        c = 1.0 / (params.rho * thermal_factor(3, BETA_UNIT))
        for k in range(1, 51):
            star = c * k ** (-2.5)
            assert qhat(k) / star == pytest.approx(math.exp(-sol.alpha * k), rel=1e-12)

    def test_cycle_mass_matches_qhat(self):
        params = SystemParams(2, 0.3, 0.8)
        sol, qhat = optimal_shape(params)
        for k in (1, 2, 5, 17):
            assert sol.cycle_mass(k) == pytest.approx(k * qhat(k), rel=1e-14)


class TestFreeEnergy:
    def test_condensed_is_density_independent(self):
        rho_c = critical_density(3, 0.7)
        f2 = free_energy(SystemParams(3, 0.7, 2.0 * rho_c))
        f3 = free_energy(SystemParams(3, 0.7, 3.0 * rho_c))
        assert f2 == f3  # same code path, bitwise

    def test_condensed_closed_form(self):
        beta = BETA_UNIT
        rho_c = critical_density(3, beta)
        f = free_energy(SystemParams(3, beta, 2.0 * rho_c))
        want = -zeta(2.5, 1e-14).value / (thermal_factor(3, beta) * beta)
        assert f == pytest.approx(want, rel=1e-12)

    def test_continuity_at_the_boundary(self):
        beta = BETA_UNIT
        rho_c = critical_density(3, beta)
        f_near = free_energy(SystemParams(3, beta, rho_c * (1.0 - 1e-4)))
        f_cond = free_energy(SystemParams(3, beta, rho_c * 2.0))
        assert abs(f_near - f_cond) <= 1e-3 * abs(f_cond)

    def test_f_equals_rho_over_beta_times_chi_formula(self):
        # chi written out as -alpha - g_{(d+2)/2}(alpha)/(rho (4 pi beta)^(d/2))
        for d, beta, rho in [(1, 1.0, 0.5), (2, 0.8, 0.6), (3, 1.0, 0.2), (3, 0.3, 1.0)]:
            params = SystemParams(d, beta, rho)
            sol = solve_alpha(params, 1e-12)
            if sol.regime != "normal":
                continue
            q = bose_g((d + 2.0) / 2.0, sol.alpha, 1e-14).value / (
                rho * thermal_factor(d, beta)
            )
            chi_formula = -sol.alpha - q
            assert sol.free_energy == pytest.approx(
                rho / beta * chi_formula, rel=1e-10
            )
            assert sol.chi == pytest.approx(chi_formula, rel=1e-10)

    def test_chi_negative_on_grid(self):
        for d in (1, 2, 3, 4):
            for beta in (0.2, 1.0, 3.0):
                for rho in (0.1, 1.0, 4.0):
                    assert chi(SystemParams(d, beta, rho)) < 0.0

    def test_chi_condensed_closed_form(self):
        beta = 0.9
        rho_c = critical_density(3, beta)
        rho = 4.0 * rho_c
        got = chi(SystemParams(3, beta, rho))
        want = -zeta(2.5, 1e-14).value / (rho * thermal_factor(3, beta))
        assert got == pytest.approx(want, rel=1e-12)


class TestCondensateIdentity:
    def test_fraction_identity_random_draws(self):
        rng = random.Random(42)
        for _ in range(100):
            d = rng.choice([3, 4, 5])
            beta = rng.uniform(0.05, 2.0)
            rho_c = critical_density(3 if d == 3 else d, beta)
            rho = rho_c * rng.uniform(1.05, 8.0)
            sol = solve_alpha(SystemParams(d, beta, rho))
            assert sol.regime == "condensed"
            via_beta = 1.0 - (sol.beta_c / beta) ** (d / 2.0)
            assert sol.condensate_fraction == pytest.approx(via_beta, abs=1e-10)


class TestSystemParams:
    def test_volume(self):
        p = SystemParams(3, 1.0, 0.5, n=10)
        assert p.volume == pytest.approx(20.0, rel=1e-12)
        assert p.volume * p.rho == pytest.approx(p.n, rel=1e-12)

    def test_volume_requires_n(self):
        with pytest.raises(ValidationError):
            SystemParams(3, 1.0, 0.5).volume

    def test_validation(self):
        with pytest.raises(ValidationError):
            SystemParams(0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            SystemParams(3, -1.0, 1.0)
        with pytest.raises(ValidationError):
            SystemParams(3, 1.0, 0.0)
        with pytest.raises(ValidationError):
            SystemParams(3, 1.0, 1.0, n=0)
        with pytest.raises(ValidationError):
            solve_alpha(SystemParams(3, 1.0, 1.0), tol=1e-14)
