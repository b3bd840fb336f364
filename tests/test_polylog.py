"""Tests for the certified truncated polylogarithm, against the sum of its terms."""

import math

import mpmath
import numpy as np
import pytest

from cyclegas import bosefn, entropy
from cyclegas.bosefn import BoseEval
from cyclegas.errors import ValidationError

U = 2.0**-53


# lam K for _truncated_polylog: a Poisson mixture of a few hundred terms
# (-300; the direct sum at K = 100), of a few dozen (-25) and of a few (-0.5),
# the truncated zeta (0), the alternating series (0.5) and bose_g less an
# Euler-Maclaurin tail (3, 30); lam = 0.3 and 0.9 then give bose_g alone
TRUNCATED_LAM_K = [-300.0, -25.0, -0.5, 0.0, 0.5, 3.0, 30.0]
# g_{d/2} and g_{1+d/2} for d = 1..3, and s = 2, where j = 1 is the harmonic term
ORDERS = (0.5, 1.0, 1.5, 2.0, 2.5)


class TestTruncatedPolylog:
    """_truncated_polylog, O(1) in K, against the sum of its K terms."""

    @staticmethod
    def reference(s: float, lam: float, K: int) -> tuple[float, float]:
        """The K terms summed, times e^(lam K) below 0, and the sum's own rounding.

        K <= 100 in 40-digit mpmath.  Otherwise each term k^-s e^(-lam (k -
        shift)) is formed by NumPy within (3 + |lam (k - shift)|) u of itself
        (pow, exp and the product round once each, and the exponent's
        rounding moves exp by its own size times u) and summed by the exactly
        rounded fsum.
        """
        shift = K if lam < 0.0 else 0
        if K <= 100:
            with mpmath.workdps(40):
                lam_mp = mpmath.mpf(lam)
                value = mpmath.fsum(
                    mpmath.mpf(k) ** -s * mpmath.exp(-lam_mp * (k - shift)) for k in range(1, K + 1)
                )
            return float(value), 0.0
        ks = np.arange(1.0, K + 1.0)
        arg = -lam * (ks - shift)
        terms = ks**-s * np.exp(arg)
        return math.fsum(terms.tolist()), U * math.fsum(((3.0 + np.abs(arg)) * terms).tolist())

    @staticmethod
    def allowance(t: BoseEval, lam: float, K: int) -> float:
        """A-priori rounding of the O(1) routes.

        Each summed series term, each Poisson weight's recurrence step (about
        -lam K of them) and each Euler-Maclaurin or continued-fraction step
        rounds about once: 2u per unit of their count, relative.
        """
        return 2 * U * (t.value + t.error_bound) * (t.terms_used + 4 + max(0.0, -lam * K))

    @pytest.mark.parametrize(
        "K, s, lam",
        [(K, s, y / K) for K in (100, 10**4) for s in ORDERS for y in TRUNCATED_LAM_K]
        + [(K, s, lam) for K in (100, 10**4) for s in ORDERS for lam in (0.3, 0.9)]
        + [(10**6, s, y / 10**6) for s in (0.5, 2.5) for y in (-25.0, 0.0, 3.0, 30.0)],
    )
    def test_matches_the_sum_of_its_terms(self, K, s, lam):
        t = entropy._truncated_polylog(s, lam, K)
        want, rounding = self.reference(s, lam, K)
        assert abs(t.value - want) <= t.error_bound + rounding + self.allowance(t, lam, K)
        if lam <= 0.0 or lam > 0.5 or lam * K <= 1.0:  # every route but bose_g's floor
            assert t.error_bound <= 1e-17 * t.value

    # K = 1 and 10 sum directly, 100 and 10**4 take the O(1) routes
    @pytest.mark.parametrize("K", [1, 10, 100, 10**4])
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_refuses_a_lam_that_is_not_finite(self, lam, K):
        with pytest.raises(ValidationError, match=r"^lam must be finite"):
            entropy._truncated_polylog(1.5, lam, K)

    def test_lam_zero_is_the_truncated_zeta(self):
        # zeta(s) less the Hurwitz zeta at K + 1, in mpmath
        for s in (1.5, 2.5, 3.5):
            for K in (100, 10**4, 10**6):
                t = entropy._truncated_polylog(s, 0.0, K)
                with mpmath.workdps(40):
                    want = mpmath.zeta(s) - mpmath.zeta(s, K + 1)
                assert abs(t.value - float(want)) <= t.error_bound + 8 * U * t.value

    @pytest.mark.parametrize("s", [0.5, 1.5, 2.0])
    def test_truncated_zetas_step_the_rising_factorials_down(self, monkeypatch, s):
        # each order's (sigma)_i n^-i, built from the order above it, is the
        # direct product bosefn._rising(sigma, n) to rounding: about 2u per
        # factor, 13 factors (s = 2 passes sigma = 0, whose entries are 0)
        em_bracket, orders = entropy._em_bracket, []

        def checking(sigma, lam, n, rising):
            direct = bosefn._rising(sigma, n)
            assert len(rising) == len(direct)
            assert all(abs(r - d) <= 32 * U * abs(d) for r, d in zip(rising, direct)), sigma
            orders.append(sigma)
            return em_bracket(sigma, lam, n, rising)

        monkeypatch.setattr(entropy, "_em_bracket", checking)
        entropy._truncated_zetas.__wrapped__(s, 2000, 511)
        assert orders == [s - j for j in range(512)]

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.5, 5.0])
    @pytest.mark.parametrize("z", [1.0, 3.0, 30.0])
    def test_exponential_integral_continued_fraction(self, p, z):
        # each of its steps rounds about once: 2u per step, relative
        value, bound, steps = entropy._expint_scaled(p, z, 1e-17)
        with mpmath.workdps(40):
            want = float(mpmath.expint(p, z) * mpmath.exp(z))
        assert abs(value - want) <= bound + 2 * U * steps * value
