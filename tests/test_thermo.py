"""Tests for the phase-structure solver."""

import functools
import math
import random
import re
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclegas import bosefn, thermo
from cyclegas.bosefn import bose_g, zeta
from cyclegas.errors import PrecisionError, ValidationError
from cyclegas.thermo import (
    INFINITE,
    SystemParams,
    chi,
    critical_beta,
    critical_density,
    free_energy,
    optimal_shape,
    qhat_star,
    solve_alpha,
    thermal_factor,
)

BETA_UNIT = 1.0 / (4.0 * math.pi)  # makes (4 pi beta)^(d/2) = 1
ZETA_3_HALVES = 2.6123753486854883
U = 2.0**-53
IDENTITY = (float, float)  # _bracketed_root's coordinate u and its inverse, for f linear in x


def _mp_bose(s, alpha):
    """g_s(alpha) in mpmath for s = 1/2 or 1, at 30 digits for any float alpha > 0."""
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        if s == 1.0:
            return -(mpmath.log(-mpmath.expm1(-a)) if a < 1 else mpmath.log1p(-mpmath.exp(-a)))
        if a >= 1:
            return mpmath.polylog(0.5, mpmath.exp(-a))
        # about 0: Gamma(1/2) alpha^(-1/2) + sum_k zeta(1/2 - k) (-alpha)^k / k!
        return mpmath.sqrt(mpmath.pi / a) + mpmath.fsum(
            c * (-a) ** k for k, c in enumerate(_expansion_coefficients())
        )


@functools.lru_cache(maxsize=1)
def _expansion_coefficients():
    with mpmath.workdps(30):
        return [mpmath.zeta(0.5 - k) / mpmath.factorial(k) for k in range(40)]


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

    @pytest.mark.parametrize("d", [True, 4.0, 3.5, 0, -1])
    def test_dimension_is_checked_as_system_params_checks_it(self, d):
        # one check and one message: a bool is not a dimension (True was d = 1,
        # so rho_c = inf), a float is refused even when whole, and 3.5 no longer
        # surfaces as the order s = 1.75 of zeta
        want = f"dimension d must be a positive integer, got {d}"
        for refused in (
            lambda: SystemParams(d, 1.0, 1.0),
            lambda: critical_density(d, 1.0),
            lambda: critical_beta(d, 1.0),
        ):
            with pytest.raises(ValidationError, match=re.escape(want)):
                refused()

    @pytest.mark.parametrize("d", [1, 3])
    def test_rho_c_refuses_nan_beta(self, d):
        # d = 1 returned inf for any beta, NaN included
        with pytest.raises(ValidationError, match="beta must be positive and finite, got nan"):
            critical_density(d, math.nan)

    @pytest.mark.parametrize("rho", [1e-310, 5e-324, 1.4e-308, 1e308])
    def test_beta_c_is_finite_for_every_positive_float_rho(self, rho):
        # zeta(3/2) / rho overflows below rho ~ 1.45e-308; beta_c does not
        z = zeta(1.5, 1e-13).value
        want = math.exp((2.0 / 3.0) * (math.log(z) - math.log(rho))) / (4.0 * math.pi)
        assert critical_beta(3, rho) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    def test_beta_c_refuses_non_finite_rho(self, rho):
        with pytest.raises(ValidationError, match="rho must be positive and finite"):
            critical_beta(3, rho)

    def test_rho_c_refuses_an_overflowing_quotient(self):
        # zeta(3/2) / (4 pi beta)^(3/2) leaves the floats; infinite means d <= 2
        with pytest.raises(ValidationError, match="rho_c overflows at d=3, beta=1e-207"):
            critical_density(3, 1e-207)


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

    # bose_g calls per solve_alpha (tol 1e-10) when the d <= 2 solver bisected
    # while g(0) is infinite, for targets g_{d/2}(alpha) in _TARGETS
    _TARGETS = (0.5, 0.75, 1, 1.5, 2, 3, 4, 5, 6, 7, 8, 9, 9.2, 10, 11.5, 12,
                14, 16, 18, 20, 22, 25, 28, 30)
    _BISECTING_CALLS = {
        1: (9, 10, 10, 11, 11, 12, 13, 13, 14, 14, 14, 15, 15, 15, 15, 15,
            16, 16, 16, 17, 17, 17, 18, 18),
        2: (10, 10, 11, 9, 12, 14, 15, 17, 18, 20, 21, 19, 23, 24, 26, 27,
            30, 33, 33, 36, 41, 44, 50, 53),
    }

    @pytest.mark.parametrize("d", [1, 2])
    def test_low_dimension_solve_takes_no_more_calls(self, monkeypatch, d):
        calls = []

        def counting_bose_g(*args, **kwargs):
            calls.append(args)
            return bose_g(*args, **kwargs)

        monkeypatch.setattr(thermo, "bose_g", counting_bose_g)
        for target, before in zip(self._TARGETS, self._BISECTING_CALLS[d]):
            calls.clear()
            beta = 0.3
            sol = solve_alpha(SystemParams(d, beta, target / thermal_factor(d, beta)))
            assert sol.regime == "normal"
            assert len(calls) <= before, (target, len(calls))
            if d == 2:
                # the root in closed form; the one call is the g_2 energy term
                assert [c[0] for c in calls] == [2.0], (target, calls)
            if target >= 5:
                # the analytic bracket is narrow around these small-alpha roots
                assert len(calls) <= 8, (target, len(calls))

    @staticmethod
    def _bracket_ladder(d):
        """Densities from 1e-300 up: to 10^15 / (4 pi)^(d/2) at d = 1, to 0.999 rho_c else."""
        if d == 1:
            return [10.0 ** (k / 4) / thermal_factor(1, 1.0) for k in range(-56, 61)]
        rho_c = critical_density(d, 1.0)
        return [10.0 ** (k / 4) for k in range(-1200, 0) if 10.0 ** (k / 4) < 0.999 * rho_c] + [
            0.999 * rho_c
        ]

    @pytest.mark.parametrize("d", [1, 3, 4, 5])
    def test_bracket_holds_the_root(self, monkeypatch, d):
        # d = 1: sqrt(pi/alpha) - 2 < g_(1/2)(alpha) < sqrt(pi/alpha) and
        # e^-alpha < g_(1/2)(alpha) put the root in [a, b]; every d: g_s(alpha)
        # < 1/(e^alpha - 1) puts it below b = log1p(1/t), and d >= 3 starts at
        # g_{d/2}(0) = zeta(d/2) > t.  f(a) and f(b) are certified of opposite
        # signs where the bounds survive rounding; where t - g_{d/2}(b), of
        # order t^2, is below the float resolution of t (d >= 3, t below about
        # 1e-15; d = 1 is stopped at 10^-14), b is the certified root instead
        brackets = []
        bracketed_root = thermo._bracketed_root

        def recording(f, a, f_a, b, tol_abs, u=(float, float), start=None):
            root = bracketed_root(f, a, f_a, b, tol_abs, u, start)
            brackets.append((f, a, b, tol_abs, root[0]))
            return root

        monkeypatch.setattr(thermo, "_bracketed_root", recording)
        for rho in self._bracket_ladder(d):
            brackets.clear()
            solve_alpha(SystemParams(d, 1.0, rho))
            [(f, a, b, tol_abs, alpha)] = brackets
            f_a, err_a = f(a)
            f_b, err_b = f(b)
            assert a < b and f_a - err_a > 0.0, rho
            assert f_b + err_b < 0.0 or (d >= 3 and alpha == b and abs(f_b) + err_b <= tol_abs), rho

    @pytest.mark.parametrize("tol", [1e-13, 1e-10, 1e-4])
    @pytest.mark.parametrize("d", [1, 3, 4, 5])
    def test_root_evaluations_stay_in_the_bracket(self, monkeypatch, d, tol):
        # every g_s(alpha) that solve_alpha evaluates, the energy term's
        # included, lies in the proven bracket; searching out from alpha = 1
        # left it at d >= 3 whenever t > 0.58, where log1p(1/t) < 1
        calls, brackets = [], []
        bracketed_root = thermo._bracketed_root

        def recording(f, a, f_a, b, tol_abs, u=(float, float), start=None):
            brackets.append((a, b))
            return bracketed_root(f, a, f_a, b, tol_abs, u, start)

        def recording_bose_g(s, alpha, *args, **kwargs):
            calls.append(alpha)
            return bose_g(s, alpha, *args, **kwargs)

        monkeypatch.setattr(thermo, "_bracketed_root", recording)
        monkeypatch.setattr(thermo, "bose_g", recording_bose_g)
        for rho in self._bracket_ladder(d)[::8]:
            calls.clear()
            brackets.clear()
            solve_alpha(SystemParams(d, 1.0, rho), tol)
            [(a, b)] = brackets
            assert calls and all(a <= alpha <= b for alpha in calls), (rho, a, b, calls)

    @staticmethod
    def _root_evaluations(monkeypatch):
        """(params, tol) -> the g_{d/2} evaluations of one solve_alpha, the energy term's excluded."""
        calls = []

        def counting_bose_g(s, *args, **kwargs):
            calls.append(s)
            return bose_g(s, *args, **kwargs)

        monkeypatch.setattr(thermo, "bose_g", counting_bose_g)

        def evaluations(params, tol):
            calls.clear()
            solve_alpha(params, tol)
            return calls.count(params.d / 2.0)

        return evaluations

    # the most root evaluations on the ladder below; the seeded secant took at
    # most 2 at every density, where Illinois regula falsi from b took up to 27
    _LADDER_EVALS_CAP = 4

    @pytest.mark.parametrize("tol", [1e-13, 1e-10, 1e-4])
    @pytest.mark.parametrize("d", [1, 3, 4, 5])
    def test_ladder_roots_take_few_evaluations(self, monkeypatch, d, tol):
        # every density of the ladder certifies (PrecisionError would fail
        # the test), from the seed, within the cap
        evaluations = self._root_evaluations(monkeypatch)
        counts = [evaluations(SystemParams(d, 1.0, rho), tol) for rho in self._bracket_ladder(d)]
        assert max(counts) <= self._LADDER_EVALS_CAP, max(counts)

    @pytest.mark.parametrize("d, mean_cap", [(1, 4.0), (3, 3.5)])
    def test_root_evaluations_on_the_phase_grid_strata(self, monkeypatch, d, mean_cap):
        # the benchmark's phase-grid strata at their midpoints, tol 1e-10: at
        # d = 3, rho / rho_c in 0.05..0.95 and the band 0.990..0.999; at d = 1,
        # g_(1/2)(alpha) from 0.05 to 12.  Illinois regula falsi took about 10
        # evaluations a root at d = 3 and 6 at d = 1
        edges = [0.05 + 0.06 * i for i in range(16)]
        ratios = [(lo + hi) / 2.0 for lo, hi in zip(edges, edges[1:])]
        ratios += [0.990, 0.9905, 0.991, 0.9915] + [0.992 + 0.001 * i for i in range(8)]
        edges = [0.05, 0.1, 0.2, 0.5, 1, 2, 4, 8, 12]
        targets = [math.sqrt(lo * hi) for lo, hi in zip(edges, edges[1:])]
        evaluations, counts = self._root_evaluations(monkeypatch), []
        for beta in (BETA_UNIT, 0.25, 1.0):
            if d == 3:
                rhos = [r * critical_density(3, beta) for r in ratios]
            else:
                rhos = [g / thermal_factor(1, beta) for g in targets]
            counts += [evaluations(SystemParams(d, beta, rho), 1e-10) for rho in rhos]
        assert sum(counts) / len(counts) <= mean_cap, counts
        # the seed's model is within the certificate: most roots are its first evaluation
        assert counts.count(1) >= 0.9 * len(counts), counts

    @pytest.mark.parametrize("tol", [1e-13, 1e-10, 1e-4])
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_ladder_roots_match_polylog(self, d, tol):
        # every eighth density: |g_{d/2}(alpha) - t| <= tol t against a
        # 40-digit polylog, with no allowance for rounding
        factor = thermal_factor(d, 1.0)
        for rho in self._bracket_ladder(d)[::8]:
            alpha = solve_alpha(SystemParams(d, 1.0, rho), tol).alpha
            with mpmath.workdps(40):
                target = mpmath.mpf(rho * factor)
                g = mpmath.polylog(d / 2.0, mpmath.exp(-mpmath.mpf(alpha)))
                assert abs(g - target) <= tol * target, (rho, alpha)

    @pytest.mark.parametrize("tol", [1e-13, 1e-10, 1e-4])
    @pytest.mark.parametrize("d", [1, 2])
    def test_low_dimension_roots_certify_or_refuse(self, d, tol):
        # across the normal floats, and at t = 745 where e^-t is subnormal:
        # an alpha within (tol + 1e-13) t of mpmath, or PrecisionError
        factor = thermal_factor(d, 1.0)
        certified = 0
        for t in [10.0 ** (k / 2) for k in range(-614, 617)] + [745.0]:
            rho = t / factor
            try:
                alpha = solve_alpha(SystemParams(d, 1.0, rho), tol).alpha
            except PrecisionError:
                continue
            target = mpmath.mpf(rho * factor)
            g = _mp_bose(d / 2.0, alpha)
            assert abs(g - target) <= (tol + 1e-13) * target, (t, alpha)
            certified += 1
        assert certified > 600

    @pytest.mark.parametrize("d", [1, 2])
    def test_subnormal_target_is_outside_the_domain(self, d):
        # a subnormal rho (4 pi beta)^(d/2) (here 0 to 1.3e-319) keeps at most
        # 15 significant bits: the root solver refuses it as qhat_star does
        for rho in (1e-320, 5e-324):
            params = SystemParams(d, 1.0, rho)
            for call in (lambda: solve_alpha(params), lambda: qhat_star(params, 1.0)):
                with pytest.raises(ValidationError, match="below the normal floats"):
                    call()
        # twice the smallest normal float still certifies
        factor = thermal_factor(d, 1.0)
        sol = solve_alpha(SystemParams(d, 1.0, 2.0 * sys.float_info.min / factor))
        assert 700.0 < sol.alpha < 710.0

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


class TestSeededRoot:
    """_bracketed_root from a start (x0, slope): the fallbacks that a good seed never needs."""

    @staticmethod
    def _recorded(f):
        calls = []

        def recorded(x):
            calls.append(x)
            return f(x)

        return recorded, calls

    @pytest.mark.parametrize("slope", [0.0, 1.0, -1e-300])
    def test_a_useless_slope_falls_back_inside_the_bracket(self, slope):
        # zero, of the wrong sign, or so flat that Newton's step leaves [0, 5]
        f, calls = self._recorded(lambda x: (math.exp(-x) - 0.5, 0.0))
        x, f_x = thermo._bracketed_root(f, 0.0, 0.5, 5.0, 1e-15, IDENTITY, (3.0, slope))
        assert abs(f_x) <= 1e-15 and x == pytest.approx(math.log(2.0))
        assert calls[0] == 3.0 and all(0.0 < c < 5.0 for c in calls) and len(calls) <= 60

    def test_later_steps_are_secants(self):
        # a start slope 200 times too steep: Newton's steps with it would
        # creep, the secant through the last two evaluations does not
        f, calls = self._recorded(lambda x: (math.exp(-x) - 0.5, 0.0))
        x, f_x = thermo._bracketed_root(f, 0.0, 0.5, 5.0, 1e-15, IDENTITY, (3.0, -10.0))
        assert abs(f_x) <= 1e-15 and len(calls) <= 10, calls

    def test_a_step_past_u_zero_is_not_mirrored_into_the_bracket(self):
        # in u = x^(-1/2), Newton's step from x0 = 2 lands at u = -0.6, which
        # u[1] would map to x = 2.78 inside [1, 4]; it bisects to 3 instead
        f, calls = self._recorded(lambda x: (3.0 - x, 0.0))
        u = (lambda x: x**-0.5, lambda v: v**-2.0)
        slope = 1.0 / (2.0**-0.5 + 0.6)
        assert thermo._bracketed_root(f, 1.0, math.nan, 4.0, 1e-12, u, (2.0, slope)) == (3.0, 0.0)
        assert calls == [2.0, 3.0]

    def test_the_far_end_is_the_last_candidate(self):
        # only b certifies; the start never evaluates it until the bracket
        # reaches float resolution, and then once
        f, calls = self._recorded(lambda x: (5.0 - x, 0.0))
        assert thermo._bracketed_root(f, 0.0, 5.0, 5.0, 0.0, IDENTITY, (1.0, -1.0)) == (5.0, 0.0)
        assert calls.count(5.0) == 1 and calls[-1] == 5.0 and len(calls) <= 60

    def test_no_candidate_left_raises(self):
        f, calls = self._recorded(lambda x: (5.0 - x, 0.0))
        with pytest.raises(PrecisionError):
            thermo._bracketed_root(f, 0.0, 5.0, 5.0, -1.0, IDENTITY, (1.0, -1.0))
        assert calls.count(5.0) == 1



class TestSeedModel:
    """_g_model, the seed's float model of g_s and g_{s-1}, on bosefn's shared tables."""

    @pytest.mark.parametrize("d", [3, 5])
    def test_expansion_coefficients_do_not_depend_on_tol(self, d):
        # the first solve fills the table; a solve of the same point at a
        # tighter and at a looser tol computes no zeta again
        bosefn._zeta_em.cache_clear()
        bosefn._expansion_coefficients.cache_clear()
        params = SystemParams(d, BETA_UNIT, 0.9 * critical_density(d, BETA_UNIT))
        misses = []
        for tol in (1e-10, 1e-12, 1e-8):
            solve_alpha(params, tol)
            misses.append(bosefn._zeta_em.cache_info().misses)
        assert misses[0] == misses[1] == misses[2] > 0, misses

    def test_no_seed_where_the_model_gives_none(self):
        # a target at or past the table's zeta(s) (s > 1) puts the first
        # guess at alpha <= 0, and at d = 1 past t = 1e102 the model's slope
        # overflows: the root search then starts unseeded
        for s in (1.5, 2.0, 4.0, 6.0):
            zeta_s = bosefn._expansion_coefficients(s, thermo._SEED_TERMS)[0][0]
            targets = [zeta_s] if s < 2.0 else [zeta_s, math.nextafter(zeta_s, math.inf)]
            for target in targets:
                assert thermo._root_seed(s, target, 0.0, math.log1p(1.0 / target)) is None, s
        t = 1e110
        assert thermo._root_seed(0.5, t, math.pi / (t + 2.0) ** 2, math.pi / t**2) is None
        assert thermo._root_seed(4.0, 1.0, 0.0, math.log(2.0)) is not None

    def test_a_seed_below_the_bracket_is_clamped_to_a(self):
        # at d = 1 and t = 10^15.65 the bracket from the analytic bounds on
        # g_(1/2) is a few ulps wide and the model's root lies below it: the
        # seed starts at a, with the model's slope there
        t = 10.0 ** (313 / 20)
        a = max(math.pi / (t + 2.0) / (t + 2.0), -math.log(t))
        b = min(math.pi / t / t, math.log1p(1.0 / t))
        assert a < b
        assert thermo._root_seed(0.5, t, a, b) == (a, thermo._g_model(0.5, a)[1])
        assert thermo._root_seed(0.5, t, 0.0, b)[0] < a

    def test_one_model_pass_per_newton_step(self, monkeypatch):
        # CI's density ladders at beta = 1/4pi.  Each Newton step of the seed
        # reads g_s and g_{s-1} from one _g_model pass, and a converged seed
        # starts the root with its last pass's slope: at most 3.5 passes a
        # seeded root on average (5.18 at d = 1 and 4.69 at d = 3 with one
        # pass per order and one more for the slope)
        rho_c = critical_density(3, BETA_UNIT)
        ladders = {
            1: [10.0 ** (k / 4) for k in range(-16, 17)],
            3: [rho_c * 10.0 ** (-k / 4) for k in range(1, 41)]
            + [rho_c * (1 - 10.0 ** (-k / 2)) for k in range(2, 13)],
        }
        g_model, passes = thermo._g_model, []
        monkeypatch.setattr(thermo, "_g_model", lambda *args: (passes.append(1), g_model(*args))[1])
        for d, rhos in ladders.items():
            counts = []
            for rho in rhos:
                passes.clear()
                solve_alpha(SystemParams(d, BETA_UNIT, rho))
                counts.append(len(passes))
            assert min(counts) >= 1 and sum(counts) / len(counts) <= 3.5, (d, counts)

    def test_moderate_density_roots_take_three_passes(self, monkeypatch):
        # at d = 3 the first guess inverts two terms of the expansion in
        # sqrt(alpha), or three of the series in e^-alpha: on alpha 0.3 to 1.5,
        # where the leading terms alone left it 26-70% off and 4-5 passes,
        # Newton's steps take at most 3
        g_model, passes = thermo._g_model, []
        monkeypatch.setattr(thermo, "_g_model", lambda *args: (passes.append(1), g_model(*args))[1])
        for alpha in [0.3 + 0.02 * k for k in range(61)]:
            target = bose_g(1.5, alpha, 1e-14).value
            passes.clear()
            sol = solve_alpha(SystemParams(3, BETA_UNIT, target))
            assert sol.alpha == pytest.approx(alpha, rel=1e-8)
            assert 1 <= len(passes) <= 3, (alpha, len(passes))

    @pytest.mark.parametrize("s", [-0.5, 0.5, 1.0, 1.5, 2.0, 2.5])
    def test_model_is_within_the_truncation_bounds(self, s):
        # against a 40-digit polylog.  Below _SEED_SWITCH the model is the
        # expansion through k = _SEED_TERMS, whose tail _expansion_term_bound
        # at k = 17 over 1 - alpha/(2 pi) bounds (at s = -1/2 the ratio of its
        # terms exceeds alpha/(2 pi) by 3%, which the bound's zeta(2) for
        # zeta(18.5) covers); rounding adds the table's zeta bounds and
        # Horner's 2 u a term, 40 u in all, of the sum of the terms' sizes.
        # From the switch on it is sum_{j<=16} j^-s e^(-alpha j), which
        # _tail_bound(s, alpha, 16) bounds for s > 0; rounding, j u in e^(-alpha j)
        # and 2 u a term of Horner's, stays under 50 u of g
        switch, terms = thermo._SEED_SWITCH, thermo._SEED_TERMS
        alphas = [1e-6, 1e-3, 0.1, 0.5, 1.0, 1.4, math.nextafter(switch, 0.0)]
        if s > 0:
            alphas += [switch, 2.0, 5.0, 20.0]
        for alpha in alphas:
            model, model_1 = thermo._g_model(s, alpha)
            with mpmath.workdps(40):
                want = mpmath.polylog(s, mpmath.exp(-mpmath.mpf(alpha)))
                err = float(abs(model - want))
                want_1 = mpmath.polylog(s - 1, mpmath.exp(-mpmath.mpf(alpha)))
                err_1 = float(abs(model_1 - want_1) / abs(want_1))
            # the model of g_{s-1}, minus g_s's derivative, only steers
            # Newton's steps: 3e-10 at worst, at s = -1/2 just below the switch
            assert err_1 <= 1e-9, (alpha, err_1)
            if alpha < switch:
                values, bounds = bosefn._expansion_coefficients(s, terms)
                sizes = abs(bosefn._singular(s, alpha)) + math.fsum(
                    abs(c) * alpha**k for k, c in enumerate(values)
                )
                truncation = bosefn._expansion_term_bound(s, alpha, terms + 1) / (
                    1.0 - alpha / (2.0 * math.pi)
                )
                allowance = bosefn._horner(bounds, alpha) + 40.0 * U * sizes
            else:
                truncation = bosefn._tail_bound(s, alpha, terms)
                allowance = 50.0 * U * float(want)
            assert err <= truncation + allowance, (alpha, err, truncation)
            # README: within about 1e-11 of g_s, worst just below the switch
            assert err <= 5e-11 * abs(float(want)), (alpha, err)


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
        for flag in (True, False):  # bool subclasses int, but is no dimension or size
            with pytest.raises(ValidationError, match="d must be a positive integer"):
                SystemParams(flag, 1.0, 1.0)
            with pytest.raises(ValidationError, match="n must be a positive integer"):
                SystemParams(3, 1.0, 1.0, n=flag)
        for tol in (1e-14, 1.0, 1e300, math.inf, math.nan):
            with pytest.raises(ValidationError):
                solve_alpha(SystemParams(3, 1.0, 1.0), tol=tol)
