"""Tests for the certified Bose-function and zeta evaluators."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cyclegas import bosefn
from cyclegas.bosefn import (
    BoseEval,
    bose_g,
    bose_small_alpha,
    zeta,
    zeta_continued,
)
from cyclegas.errors import DivergenceError, PrecisionError, ValidationError

# zeta(3/2) frozen from the alternating-series oracle below
ZETA_3_HALVES = 2.6123753486854883
# zeta(5/2) frozen the same way
ZETA_5_HALVES = 1.3414872572509171


def eta_series_zeta(s: float, n_terms: int) -> float:
    """Independent oracle: zeta via the alternating Dirichlet eta series.

    zeta(s) = eta(s) / (1 - 2^(1-s)); the eta truncation error is bounded by
    the first omitted term, (n_terms + 1)^-s.
    """
    total = 0.0
    chunk = 1_000_000
    for lo in range(1, n_terms + 1, chunk):
        hi = min(lo + chunk, n_terms + 1)
        ks = np.arange(lo, hi, dtype=np.float64)
        signs = np.where(ks % 2 == 1, 1.0, -1.0)
        total += float(np.sum(signs * ks ** (-s)))
    return total / (1.0 - 2.0 ** (1.0 - s))


def direct_series(s: float, alpha: float, n_terms: int) -> float:
    """Brute-force partial sum of k^-s e^(-alpha k)."""
    total = 0.0
    chunk = 1_000_000
    for lo in range(1, n_terms + 1, chunk):
        hi = min(lo + chunk, n_terms + 1)
        ks = np.arange(lo, hi, dtype=np.float64)
        total += float(np.sum(ks ** (-s) * np.exp(-alpha * ks)))
    return total


def integral_representation(s: float, alpha: float) -> tuple[float, float]:
    """(1/Gamma(s)) * integral_0^inf t^(s-1)/(e^(t+alpha) - 1) dt via quadrature."""
    def integrand(t: float) -> float:
        # 1/(e^(t+alpha) - 1) written overflow-safe
        e = math.exp(-(t + alpha))
        return t ** (s - 1.0) * e / (1.0 - e)

    val, err = quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
    g = math.gamma(s)
    return val / g, err / g


class TestZeta:
    def test_zeta2_matches_pi_squared_over_six(self):
        z = zeta(2.0, 1e-13)
        assert abs(z.value - math.pi**2 / 6.0) <= z.error_bound + 1e-14

    def test_zeta_3_halves_matches_eta_oracle(self):
        oracle = eta_series_zeta(1.5, 10_000_000)
        assert abs(oracle - ZETA_3_HALVES) < 2e-10
        assert zeta(1.5, 1e-12).value == pytest.approx(ZETA_3_HALVES, abs=1e-10)

    def test_zeta_5_halves_frozen(self):
        oracle = eta_series_zeta(2.5, 2_000_000)
        assert abs(oracle - ZETA_5_HALVES) < 1e-11
        assert zeta(2.5, 1e-12).value == pytest.approx(ZETA_5_HALVES, abs=1e-11)

    def test_zeta_tends_to_one(self):
        v = zeta(30.0, 1e-13).value
        assert 1.0 < v < 1.0 + 1e-8

    def test_bose_g_and_zeta_agree_at_alpha_zero(self):
        a = bose_g(2.5, 0.0, 1e-12)
        b = zeta(2.5, 1e-12)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-15

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            zeta(1.0, 1e-10)
        with pytest.raises(DivergenceError):
            zeta(0.5, 1e-10)
        with pytest.raises(ValidationError):
            zeta(1.0 + 1e-10, 1e-10)

    def test_continuation_known_values(self):
        assert zeta_continued(0.0).value == pytest.approx(-0.5, abs=1e-13)
        assert zeta_continued(-1.0).value == pytest.approx(-1.0 / 12.0, abs=1e-13)
        assert zeta_continued(-2.0).value == pytest.approx(0.0, abs=1e-13)
        assert zeta_continued(-3.0).value == pytest.approx(1.0 / 120.0, abs=1e-13)
        # reflection cross-check: zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
        for s in (-0.5, -1.5, -2.5, 0.25, 0.5, 0.75):
            refl = (
                2.0**s
                * math.pi ** (s - 1.0)
                * math.sin(math.pi * s / 2.0)
                * math.gamma(1.0 - s)
                * zeta(1.0 - s, 1e-14).value
                if 1.0 - s > 1.0 + 1e-9
                else None
            )
            if refl is not None:
                assert zeta_continued(s).value == pytest.approx(refl, abs=1e-12)


class TestBoseG:
    def test_monotone_in_alpha_example(self):
        assert bose_g(1.5, 0.5, 1e-12).value > bose_g(1.5, 1.0, 1e-12).value

    def test_g1_closed_form(self):
        # validate the closed form itself against a 10^7-term partial sum once
        alpha = 0.1
        brute = direct_series(1.0, alpha, 10_000_000)
        closed = -math.log(-math.expm1(-alpha))
        assert abs(brute - closed) < 1e-12
        for a in (0.1, 1.0, 5.0):
            got = bose_g(1.0, a, 1e-13).value
            want = -math.log(-math.expm1(-a))
            assert abs(got - want) < 1e-12

    def test_small_s_divergence_rate(self):
        # g_{1/2}(alpha) ~ Gamma(1/2) alpha^(-1/2) as alpha -> 0
        alpha = 1e-4
        lead = bose_g(0.5, alpha, 1e-10).value * math.sqrt(alpha)
        assert abs(lead / math.sqrt(math.pi) - 1.0) < 0.02
        brute = direct_series(0.5, alpha, 10_000_000)
        assert bose_g(0.5, alpha, 1e-10).value == pytest.approx(brute, rel=1e-9)

    def test_monotonicity_grid(self):
        for s in (0.5, 1.0, 1.5, 2.5):
            alphas = [0.05, 0.1, 0.5, 1.0, 2.0, 5.0]
            vals = [bose_g(s, a, 1e-13) for a in alphas]
            for lo, hi in zip(vals, vals[1:]):
                assert lo.value - lo.error_bound > hi.value + hi.error_bound

    def test_integral_representation_spot(self):
        for s, alpha in ((0.5, 1.0), (2.5, 0.1)):
            series = bose_g(s, alpha, 1e-12)
            integral, ierr = integral_representation(s, alpha)
            assert abs(series.value - integral) <= series.error_bound + ierr + 1e-10

    def test_certified_bound_honesty(self):
        rng = random.Random(20240817)
        for _ in range(100):
            s = rng.uniform(0.3, 4.0)
            alpha = rng.uniform(0.01, 5.0)
            tol = 10.0 ** rng.uniform(-11, -5)
            coarse = bose_g(s, alpha, tol)
            fine = bose_g(s, alpha, tol / 100.0)
            assert coarse.error_bound <= tol
            assert abs(coarse.value - fine.value) <= coarse.error_bound + 1e-14

    def test_errors(self):
        with pytest.raises(DivergenceError):
            bose_g(1.0, 0.0, 1e-10)
        with pytest.raises(DivergenceError):
            bose_g(0.5, 0.0, 1e-10)
        with pytest.raises(ValidationError):
            bose_g(1.5, -0.1, 1e-10)
        with pytest.raises(ValidationError):
            bose_g(0.0, 1.0, 1e-10)
        with pytest.raises(ValidationError):
            bose_g(1.5, 1.0, 1e-15)  # tol below the certifiable floor
        with pytest.raises(PrecisionError):
            # direct summation alone cannot certify this within the term cap
            bose_g(0.5, 1e-9, 1e-12, method="direct")
        with pytest.raises(ValidationError):
            bose_g(1.5, 0.7, 1e-10, method="expansion")  # alpha beyond 0.5

    def test_expansion_agrees_with_direct(self):
        def direct_terms(s, alpha):
            d = bose_g(s, alpha, 1e-13, method="direct")
            e = bose_g(s, alpha, 1e-13, method="expansion")
            assert abs(d.value - e.value) <= d.error_bound + e.error_bound + 1e-13
            return d.terms_used

        for s in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            for alpha in (0.004, 0.02, 0.1, 0.4):
                direct_terms(s, alpha)
        # either side of the "auto" crossover: 4,096 to 32,768 direct terms
        for s in (0.5, 1.0, 1.5, 2.0, 2.5):
            terms = [direct_terms(s, a) for a in (0.007, 0.0035, 0.0018, 0.0012)]
            assert min(terms) <= bosefn._DIRECT_TERMS_MAX < max(terms) <= 32_768

    def test_auto_sums_at_most_the_crossover(self, monkeypatch):
        summed = []
        direct = bosefn._bose_direct

        def counting_direct(s, alpha, tol):
            result = direct(s, alpha, tol)
            summed.append(result.terms_used)
            return result

        monkeypatch.setattr(bosefn, "_bose_direct", counting_direct)
        for s in (0.5, 1.0, 1.5, 2.0, 2.5, 3.7):
            for alpha in np.geomspace(1e-12, 0.5, 25):
                for tol in (1e-14, 1e-10, 1e-6):
                    g = bose_g(s, float(alpha), tol)
                    assert g.error_bound <= tol
        assert summed and max(summed) <= bosefn._DIRECT_TERMS_MAX

    def test_tiny_alpha_is_certified_by_expansion(self):
        g = bose_g(1.5, 1e-8, 1e-12)
        # leading behaviour Gamma(-1/2) alpha^(1/2) + zeta(3/2) + zeta(1/2) (-alpha)
        lead = math.gamma(-0.5) * math.sqrt(1e-8) + 2.6123753486854883
        assert g.error_bound <= 1e-12
        assert abs(g.value - lead) < 1e-6

    @given(
        st.floats(min_value=0.3, max_value=4.0),
        st.floats(min_value=0.01, max_value=3.0),
        st.floats(min_value=0.01, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_monotone_in_alpha(self, s, a1, a2):
        if abs(a1 - a2) < 1e-6:
            return
        lo, hi = min(a1, a2), max(a1, a2)
        v_lo = bose_g(s, lo, 1e-13)
        v_hi = bose_g(s, hi, 1e-13)
        assert v_lo.value + v_lo.error_bound >= v_hi.value - v_hi.error_bound


class TestSmallAlphaExpansion:
    def test_non_integer_branch(self):
        got = bose_small_alpha(1.5, 0.01, 3)
        want = bose_g(1.5, 0.01, 1e-12).value
        assert abs(got - want) < 1e-6

    def test_integer_branch_s1(self):
        got = bose_small_alpha(1.0, 0.1, 4)
        want = -math.log(-math.expm1(-0.1))
        assert abs(got - want) < 1e-4

    def test_integer_branch_s2(self):
        got = bose_small_alpha(2.0, 0.05, 6)
        want = bose_g(2.0, 0.05, 1e-13).value
        assert abs(got - want) < 1e-8

    def test_leading_alpha_divergence_s_half(self):
        alpha = 1e-4
        # precondition caps alpha at 0.5; 1e-4 is fine
        got = bose_small_alpha(0.5, alpha, 2)
        lead = math.gamma(0.5) * alpha ** (-0.5)
        assert abs(got / lead - 1.0) < 0.02

    def test_validation(self):
        with pytest.raises(ValidationError):
            bose_small_alpha(1.5, 0.0, 3)
        with pytest.raises(ValidationError):
            bose_small_alpha(1.5, 0.7, 3)
        with pytest.raises(ValidationError):
            bose_small_alpha(1.5, 0.1, -1)


class TestBoseEval:
    def test_invariants(self):
        with pytest.raises(ValidationError):
            BoseEval(value=1.0, error_bound=-1e-3, terms_used=5)
        with pytest.raises(ValidationError):
            BoseEval(value=1.0, error_bound=1e-3, terms_used=0)
