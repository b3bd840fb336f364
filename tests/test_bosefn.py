"""Tests for the certified Bose-function and zeta evaluators."""

import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cyclegas import bosefn
from cyclegas.bosefn import BoseEval, bose_g, zeta
from cyclegas.errors import DivergenceError, ValidationError

# zeta(3/2) frozen from the alternating-series oracle below
ZETA_3_HALVES = 2.6123753486854883
# zeta(5/2) frozen the same way
ZETA_5_HALVES = 1.3414872572509171
# the orders k/2, k = 1..8: g_{d/2} and g_{(d+2)/2} for d up to 6
HALF_INTEGER_ORDERS = tuple(k / 2.0 for k in range(1, 9))
U = 2.0**-53


def reflection_rounding(s: float) -> float:
    """A-priori relative rounding of _zeta_em(s) for s < 0, not a trivial zero.

    The log factor s log 2 + (s - 1) log pi + lgamma(1 - s) has two products,
    each within 2 u of its magnitude (the rounded constant, pi's own rounding
    inside log pi, the product), lgamma within 8 u, and two sums within u/2
    of the three magnitudes' total M each: at most 10 u M absolute, so 10 u M
    relative after exp.  exp (u/2), the sine of the reduced argument (under
    6 u), zeta(1 - s) >= 1 from a fsum head, the integral and the
    Euler-Maclaurin bracket (10 u) and two products (u) add under 20 u.
    """
    magnitude = abs(s * math.log(2.0)) + abs((s - 1.0) * math.log(math.pi)) + math.lgamma(1.0 - s)
    return (10.0 * magnitude + 20.0) * U


def expansion_magnitude(s: float, alpha: float, terms: int) -> float:
    """Sum of the magnitudes of the expansion's terms for g_s(alpha), in mpmath."""
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        if s == int(s):
            m = int(s)
            lead = a ** (m - 1) / mpmath.factorial(m - 1) * (mpmath.harmonic(m - 1) - mpmath.log(a))
        else:
            lead = mpmath.gamma(1 - s) * a ** (s - 1)
        total = abs(lead) + sum(
            abs(mpmath.zeta(s - k)) * a**k / mpmath.factorial(k)
            for k in range(terms)
            if k != s - 1
        )
        return float(total)


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


def certified_direct(s: float, alpha: float, tol: float) -> BoseEval:
    """The series summed to the first 16 * 2^j terms whose tail bounds meet tol.

    A reference for the expansion and "auto": _certified_terms picks the
    count, up to 10^8 terms, and _bose_direct sums it.
    """
    k, tail = bosefn._certified_terms(s, alpha, tol, 10**8)
    assert k, (s, alpha, tol)
    return bosefn._bose_direct(s, alpha, k, tail)


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

    @pytest.mark.parametrize("s", [3, 2, 0, -1, -6, -13])
    def test_int_and_float_orders_agree_bitwise(self, s):
        # the memo keys s = 3 and s = 3.0 alike, so both must give one value
        uncached = bosefn._zeta_em.__wrapped__
        for tol in (1e-15, 1e-12, 1e-8):
            assert uncached(s, tol) == uncached(float(s), tol)

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            zeta(1.0, 1e-10)
        with pytest.raises(DivergenceError):
            zeta(0.5, 1e-10)
        with pytest.raises(ValidationError):
            zeta(1.0 + 1e-10, 1e-10)

    def test_continuation_known_values(self):
        # the continuation below 1 that the small-alpha expansion sums
        zeta_em = bosefn._zeta_em
        assert zeta_em(0.0, 1e-13).value == pytest.approx(-0.5, abs=1e-13)
        assert zeta_em(-1.0, 1e-13).value == pytest.approx(-1.0 / 12.0, abs=1e-13)
        assert zeta_em(-2.0, 1e-13).value == pytest.approx(0.0, abs=1e-13)
        assert zeta_em(-3.0, 1e-13).value == pytest.approx(1.0 / 120.0, abs=1e-13)
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
                assert zeta_em(s, 1e-13).value == pytest.approx(refl, abs=1e-12)

    def test_em_table_is_bernoulli_over_factorial(self):
        for j in range(1, bosefn._EM_ORDER + 2):
            want = float(mpmath.bernoulli(2 * j)) / math.factorial(2 * j)
            assert bosefn._B_OVER_FACT[j - 1] == want

    @pytest.mark.parametrize("tol", [1e-15, 1e-10])
    def test_continuation_matches_mpmath(self, tol):
        # every order at or below 0 that the expansion sums, by the functional
        # equation: within its bound plus the a-priori rounding
        zeta_em = bosefn._zeta_em.__wrapped__
        for j in range(61):
            s = -j / 2.0
            z = zeta_em(s, tol)
            assert z.error_bound <= tol
            if j % 4 == 0:  # zeta(0) and the trivial zeros are exact
                assert (z.value, z.error_bound) == (-0.5 if j == 0 else 0.0, 0.0)
                continue
            with mpmath.workdps(30):
                want = mpmath.zeta(s)
                err = float(abs(z.value - want))
            assert err <= z.error_bound + reflection_rounding(s) * float(abs(want)), s


class TestEulerMaclaurinTail:
    """_em_bracket on its own: the one tail behind zeta, the truncated zetas and _bose_tail.

    The integral and f(n) are taken in 40-digit mpmath, so only the bracket is
    the helper's.  Rounding allowance: the bracket is 0.5 plus corrections of
    total size under 0.1 at these points, each within 20 u of itself (the
    rounded B_2j/(2j)!, up to 13 rounded factors of (s)_r n^-r, and for lam > 0
    a pow and a product per binomial term, all of one sign), and the fsum adds
    u/2 of the bracket: under 3 u, stated as 8 u, of f(n).
    """

    @staticmethod
    def check(tail, integral, f_n, bracket, first_omitted, mult=1.0):
        err = abs(integral + f_n * bracket - tail)
        assert err <= f_n * (mult * first_omitted + 8.0 * U), (float(err / f_n), first_omitted)

    @pytest.mark.parametrize(
        "sigma, n",
        [(sigma, n) for sigma in (3.5, 1.5, 0.5, -0.5, -2.5) for n in (17, 1001)]
        + [(sigma, 4) for sigma in (3.5, 1.5, 0.5)],
    )
    def test_hurwitz_tail_at_lam_zero(self, sigma, n):
        # sum_{k>=n} k^-sigma, continued to sigma <= 1, is the Hurwitz zeta(sigma, n).
        # For sigma > 0, f is completely monotone and the remainder is under the
        # first omitted term at every n; for sigma <= 0 the bound is doubled, as
        # _truncated_zetas uses it, which needs 2 pi n large against |sigma|
        bracket, first_omitted = bosefn._em_bracket(sigma, 0.0, n)
        with mpmath.workdps(40):
            integral = mpmath.mpf(n) ** (1 - sigma) / (sigma - 1)
            f_n = mpmath.mpf(n) ** -sigma
            tail = mpmath.zeta(sigma, n)
            self.check(tail, integral, f_n, bracket, first_omitted, 1.0 if sigma > 0 else 2.0)

    @pytest.mark.parametrize("s", [0.5, 1.5])
    @pytest.mark.parametrize("lam", [0.01, 0.3])
    @pytest.mark.parametrize("n", [4, 17, 1001])
    def test_lerch_tail(self, s, lam, n):
        # sum_{k>=n} k^-s e^(-lam k) = e^(-lam n) Phi(e^-lam, s, n); integral n^(1-s) E_s(lam n)
        bracket, first_omitted = bosefn._em_bracket(s, lam, n)
        with mpmath.workdps(40):
            lam_mp, n_mp = mpmath.mpf(lam), mpmath.mpf(n)
            integral = n_mp ** (1 - s) * mpmath.expint(s, lam_mp * n_mp)
            f_n = n_mp**-s * mpmath.exp(-lam_mp * n_mp)
            tail = mpmath.exp(-lam_mp * n_mp) * mpmath.lerchphi(mpmath.exp(-lam_mp), s, n_mp)
            self.check(tail, integral, f_n, bracket, first_omitted)

    def test_first_omitted_term_bites_at_small_n(self):
        # at n = 4 the bound, not the rounding, carries the check above
        for s, lam in ((3.5, 0.0), (1.5, 0.0), (1.5, 0.3)):
            assert bosefn._em_bracket(s, lam, 4)[1] > 1e3 * U


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
            s = rng.choice(HALF_INTEGER_ORDERS)
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
        for method in ("auto", "expansion"):
            with pytest.raises(ValidationError, match="alpha must be >= 0, got nan"):
                bose_g(1.5, math.nan, 1e-10, method=method)
        with pytest.raises(ValidationError, match="unknown method 'direct'"):
            bose_g(1.5, 0.1, 1e-10, method="direct")
        with pytest.raises(ValidationError):
            bose_g(0.0, 1.0, 1e-10)
        with pytest.raises(ValidationError):
            bose_g(1.5, 1.0, 1e-15)  # tol below the certifiable floor
        # direct summation alone cannot certify this within 10^8 terms
        assert bosefn._certified_terms(0.5, 1e-9, 1e-12, 10**8)[0] == 0
        with pytest.raises(ValidationError):
            bose_g(1.5, 0.7, 1e-10, method="expansion")  # alpha beyond 0.5

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_is_rejected(self, tol):
        with pytest.raises(ValidationError):
            bose_g(1.5, 0.1, tol)
        with pytest.raises(ValidationError):
            zeta(2.5, tol)

    @pytest.mark.parametrize("alpha", [0.5, 0.1, 1e-3, 1e-6])
    def test_expansion_matches_polylog(self, alpha):
        # g_s(alpha) = Li_s(e^-alpha).  Rounding scales with the terms'
        # magnitudes, nearly all of them in the leading term, zeta(s) and
        # zeta(s - 1): each is within a few u, and so is each addition that
        # carries them
        for k in range(1, 13):
            s = k / 2.0
            for tol in (1e-8, 1e-12, 1e-14):
                g = bose_g(s, alpha, tol, method="expansion")
                with mpmath.workdps(30):
                    err = float(abs(g.value - mpmath.polylog(s, mpmath.exp(-mpmath.mpf(alpha)))))
                assert g.error_bound <= tol
                magnitude = expansion_magnitude(s, alpha, g.terms_used)
                assert err <= g.error_bound + 8.0 * U * magnitude, (s, tol)

    def test_expansion_agrees_with_direct(self):
        def direct_terms(s, alpha):
            d = certified_direct(s, alpha, 1e-13)
            e = bose_g(s, alpha, 1e-13, method="expansion")
            assert abs(d.value - e.value) <= d.error_bound + e.error_bound + 1e-13
            return d.terms_used

        for s in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            for alpha in (0.004, 0.02, 0.1, 0.4):
                direct_terms(s, alpha)
        # either side of the "auto" crossover: 64 to 512 direct terms
        for s in (0.5, 1.0, 1.5, 2.0, 2.5):
            terms = [direct_terms(s, a) for a in (0.5, 0.25, 0.12, 0.06)]
            assert min(terms) <= bosefn._DIRECT_TERMS_MAX < max(terms) <= 512

    @pytest.mark.parametrize("terms", [64, 4_096, 32_768])
    def test_direct_sum_matches_polylog(self, terms):
        # the sum certified_direct returns once _certified_terms has fixed the
        # term count, here fixed directly so that every order reaches it;
        # alpha * terms = 40 leaves a tail far below rounding.  Each term
        # k^-s e^(-alpha k) carries one rounding each of pow and exp (at most
        # 1 ulp, 2 u, each) and of their product (u), and the rounding of the
        # argument alpha k (u relative) moves exp by alpha k u: (5 + alpha k) u
        # of the term to first order, 6 + alpha k to cover the second.  The
        # exactly rounded fsum adds u of the value
        alpha = 40.0 / terms
        for k in range(1, 13):
            s = k / 2.0
            g = bosefn._bose_direct(s, alpha, terms, bosefn._tail_bound(s, alpha, terms))
            with mpmath.workdps(30):
                err = float(abs(g.value - mpmath.polylog(s, mpmath.exp(-mpmath.mpf(alpha)))))
            rounding = U * (g.value + math.fsum(
                j ** -s * math.exp(-alpha * j) * (6.0 + alpha * j) for j in range(1, terms + 1)
            ))
            assert g.terms_used == terms
            assert err <= g.error_bound + rounding, s

    @pytest.mark.parametrize("terms", [16, 64, 128])
    def test_direct_sum_is_the_per_term_fsum(self, terms):
        # to _DIRECT_TERMS_MAX terms the j^-s come from the memoised _powers,
        # past it (128) from pow: the same bits as the per-term fsum either
        # way, the terms scaled by e^(alpha terms) below alpha = 0
        for s in HALF_INTEGER_ORDERS:
            for alpha in (-0.01, 1e-3, 0.3, 2.0):
                shift = terms if alpha < 0.0 else 0
                want = math.fsum(
                    j ** -s * math.exp(-alpha * (j - shift)) for j in range(1, terms + 1)
                )
                assert bosefn._bose_direct(s, alpha, terms, 0.0).value == want, (s, alpha)

    def test_expansion_past_the_float_factorials(self):
        # at integer s = n + 1 the singular term is (-alpha)^n / n! times a
        # log, and n! leaves the floats at n = 171: the term underflows to 0
        assert bosefn._singular(200.0, 0.01) == 0.0
        g = bose_g(200.0, 0.01, 1e-10, method="expansion")
        want = certified_direct(200.0, 0.01, 1e-10)
        assert g.error_bound <= 1e-10
        assert abs(g.value - want.value) <= g.error_bound + want.error_bound + 4 * U * want.value

    def test_horner_slope_sums_as_horner_does(self):
        # the root seed reads the model's value from _horner_slope: the same
        # bits as the certified expansion's _horner, and the derivative
        for s in HALF_INTEGER_ORDERS:
            coefficients = bosefn._expansion_coefficients(s, 16)[0]
            for x in (1e-6, 0.01, 0.3, 1.4):
                value, slope = bosefn._horner_slope(coefficients, x)
                assert value == bosefn._horner(coefficients, x), (s, x)
                want = math.fsum(k * c * x ** (k - 1) for k, c in enumerate(coefficients) if k)
                assert slope == pytest.approx(want, rel=1e-12, abs=1e-300), (s, x)

    def test_expansion_shares_memoised_zetas_across_tols(self):
        # 9 terms at three tols: the coefficient table does not depend on
        # tol, so only the first call computes zetas
        for s in (0.5, 1.5, 2.0, 2.5):
            bosefn._zeta_em.cache_clear()
            bosefn._expansion_coefficients.cache_clear()
            misses = []
            for f in (1.0, 1.25, 1.75):
                g = bose_g(s, 0.01, f * 72 * 2.0**-46, method="expansion")
                assert g.terms_used == 9
                misses.append(bosefn._zeta_em.cache_info().misses)
            assert misses[0] == misses[1] == misses[2] > 0

    def test_alpha_above_half_certifies_directly(self, monkeypatch):
        # the expansion refuses alpha > 0.5, so "auto" must certify there
        # within its direct crossover at every order and at the tol floor;
        # s = 1/2 needs 64 terms just above 0.5
        summed = []
        direct = bosefn._bose_direct

        def counting_direct(s, alpha, k, tail):
            summed.append(k)
            return direct(s, alpha, k, tail)

        monkeypatch.setattr(bosefn, "_bose_direct", counting_direct)
        for k in range(1, 13):
            for alpha in (math.nextafter(0.5, 1.0), 0.75, 2.0):
                summed.clear()
                g = bose_g(k / 2.0, alpha, 1e-14)
                assert summed == [g.terms_used]
                assert g.terms_used <= bosefn._DIRECT_TERMS_MAX
                assert g.error_bound <= 1e-14

    def test_auto_sums_at_most_the_crossover(self, monkeypatch):
        summed = []
        direct = bosefn._bose_direct

        def counting_direct(s, alpha, k, tail):
            result = direct(s, alpha, k, tail)
            summed.append(result.terms_used)
            return result

        monkeypatch.setattr(bosefn, "_bose_direct", counting_direct)
        for s in HALF_INTEGER_ORDERS:
            for alpha in np.geomspace(1e-12, 0.5, 25):
                for tol in (1e-14, 1e-10, 1e-6):
                    g = bose_g(s, float(alpha), tol)
                    assert g.error_bound <= tol
        assert summed and max(summed) <= bosefn._DIRECT_TERMS_MAX

    def test_auto_counts_its_direct_terms_once(self, monkeypatch):
        # one doubling from 16 terms picks the route, the terms summed and
        # their certificate: a sum of 16 * 2^j terms costs j + 1 tail bounds.
        # The grid straddles the crossover, near alpha = 0.2-0.4 at this tol
        bounds, summed = [], []
        tail_bound, direct = bosefn._tail_bound, bosefn._bose_direct

        def counting_tail_bound(s, alpha, k):
            bounds.append(k)
            return tail_bound(s, alpha, k)

        def counting_direct(s, alpha, k, tail):
            summed.append(k)
            return direct(s, alpha, k, tail)

        monkeypatch.setattr(bosefn, "_tail_bound", counting_tail_bound)
        monkeypatch.setattr(bosefn, "_bose_direct", counting_direct)
        routed = 0
        for s in HALF_INTEGER_ORDERS:
            for alpha in np.geomspace(0.1, 10.0, 30):
                bounds.clear()
                summed.clear()
                g = bose_g(s, float(alpha), 1e-12)
                if summed:
                    routed += 1
                    assert len(bounds) <= math.log2(g.terms_used / 16) + 1
        assert routed > 100

    def test_auto_bounds_once_at_alpha_up_to_half(self, monkeypatch):
        # where the expansion applies, the 16-term sum's one bound picks the
        # route: the expansion wherever 32 or 64 terms would be summed
        bounds = []
        tail_bound = bosefn._tail_bound

        def counting_tail_bound(s, alpha, k):
            bounds.append(k)
            return tail_bound(s, alpha, k)

        monkeypatch.setattr(bosefn, "_tail_bound", counting_tail_bound)
        for k in range(1, 13):
            for alpha in np.geomspace(1e-6, 0.5, 25):
                for tol in (1e-14, 1e-10, 1e-6):
                    bounds.clear()
                    g = bose_g(k / 2.0, float(alpha), tol)
                    assert g.error_bound <= tol
                    assert bounds == [16], (k / 2.0, alpha, tol, bounds)

    def test_auto_sums_16_terms_at_a_large_order(self, monkeypatch):
        # the bound is not skipped: at s = 200 the expansion would build a
        # table of 202 coefficients, where 16 terms certify
        summed = []
        direct = bosefn._bose_direct

        def counting_direct(s, alpha, k, tail):
            summed.append(k)
            return direct(s, alpha, k, tail)

        monkeypatch.setattr(bosefn, "_bose_direct", counting_direct)
        g = bose_g(200.0, 0.01, 1e-10)
        assert summed == [16] and g.terms_used == 16 and g.error_bound <= 1e-10

    @pytest.mark.parametrize("alpha", [0.25, 0.3, 0.35, 0.4, 0.45, 0.5])
    def test_auto_matches_polylog_where_its_route_moved(self, alpha):
        # on 0.25 <= alpha <= 0.5 "auto" takes the expansion where it summed
        # 32 or 64 terms: within its bound and the 8 u rounding allowance of
        # test_expansion_matches_polylog, against a 40-digit polylog
        for k in range(1, 13):
            s = k / 2.0
            for tol in (1e-14, 1e-10, 1e-6):
                g = bose_g(s, alpha, tol)
                with mpmath.workdps(40):
                    err = float(abs(g.value - mpmath.polylog(s, mpmath.exp(-mpmath.mpf(alpha)))))
                assert g.error_bound <= tol
                magnitude = expansion_magnitude(s, alpha, g.terms_used)
                assert err <= g.error_bound + 8.0 * U * magnitude, (s, tol)

    @pytest.mark.parametrize("alpha", [1e-3, 2e-4])
    @pytest.mark.parametrize("s", HALF_INTEGER_ORDERS)
    def test_auto_meets_tol_at_small_alpha(self, s, alpha):
        # the expansion (integer orders through its -log(alpha) branch) and
        # "auto" each certify tol and agree with direct summation
        tol = 1e-12
        direct = certified_direct(s, alpha, tol)
        for g in (bose_g(s, alpha, tol, method="expansion"), bose_g(s, alpha, tol)):
            assert g.error_bound <= tol
            assert abs(g.value - direct.value) <= (
                g.error_bound + direct.error_bound + 1e-15 * direct.value
            )

    @pytest.mark.parametrize("s", [1 - 1e-8, 1 + 1e-8, 2 - 1e-7, 2 + 1e-7, 0.3, 1.25, 2.75])
    def test_orders_off_the_half_integers_are_rejected(self, s):
        # a cycle weighs k^(-d/2): no caller needs any other order, and next
        # to an integer the expansion's leading terms cancel
        with pytest.raises(ValidationError):
            bose_g(s, 1e-3, 1e-12)
        with pytest.raises(ValidationError):
            zeta(s, 1e-12)

    def test_tiny_alpha_is_certified_by_expansion(self):
        g = bose_g(1.5, 1e-8, 1e-12)
        # leading behaviour Gamma(-1/2) alpha^(1/2) + zeta(3/2) + zeta(1/2) (-alpha)
        lead = math.gamma(-0.5) * math.sqrt(1e-8) + 2.6123753486854883
        assert g.error_bound <= 1e-12
        assert abs(g.value - lead) < 1e-6
        # s = 1/2 diverges like Gamma(1/2) alpha^(-1/2)
        g = bose_g(0.5, 1e-4, 1e-12)
        assert g.error_bound <= 1e-12
        assert abs(g.value / (math.gamma(0.5) * 1e-4 ** -0.5) - 1.0) < 0.02

    @given(
        st.sampled_from(HALF_INTEGER_ORDERS),
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


class TestBoseEval:
    def test_invariants(self):
        with pytest.raises(ValidationError):
            BoseEval(value=1.0, error_bound=-1e-3, terms_used=5)
        with pytest.raises(ValidationError):
            BoseEval(value=1.0, error_bound=math.nan, terms_used=3)  # NaN < 0 is False
        with pytest.raises(ValidationError):
            BoseEval(value=1.0, error_bound=1e-3, terms_used=0)
