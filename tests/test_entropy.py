"""Tests for the shape functional, its decomposition, and minimisation."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cyclegas import entropy
from cyclegas.entropy import (
    TruncatedShape,
    entropy_decomposition,
    functional_S,
    minimize_S,
    minimizing_sequence,
    minimizing_sequence_s_closed_form,
    qhat_star_array,
)
from cyclegas.errors import ValidationError
from cyclegas.thermo import (
    SystemParams,
    chi,
    critical_density,
    qhat_star,
    solve_alpha,
    zeta,
)

BETA_UNIT = 1.0 / (4.0 * math.pi)
log_constraint_mass = entropy._log_constraint_mass
B = entropy._BLOCK
BLOCK_EDGE_K = [1, B - 1, B, B + 1, 3 * B + 7]
U = 2.0**-53


def bisection_oracle(params: SystemParams, K: int, tol: float) -> float:
    """The dual root by a two-sided bracket search and plain bisection."""
    ks = np.arange(1, K + 1, dtype=np.float64)
    log_base = np.log(ks * qhat_star_array(params, K))

    def log_mass(lam):
        return log_constraint_mass(lam, log_base, ks)

    if log_mass(0.0) > 0.0:
        lo, hi = 0.0, 1.0
        while log_mass(hi) > 0.0:
            hi *= 2.0
    else:
        lo, hi = -1.0 / K, 0.0
        while log_mass(lo) < 0.0:
            lo *= 2.0
    lam = 0.5 * (lo + hi)
    residual = math.expm1(log_mass(lam))
    for _ in range(300):
        if abs(residual) <= tol:
            return lam
        if residual > 0.0:
            lo = lam
        else:
            hi = lam
        lam = 0.5 * (lo + hi)
        residual = math.expm1(log_mass(lam))
    raise AssertionError(f"bisection stalled at residual {residual}")


def normal_params() -> SystemParams:
    return SystemParams(1, 1.0, 0.5)


def condensed_params(mult: float = 2.0) -> SystemParams:
    rho_c = critical_density(3, BETA_UNIT)
    return SystemParams(3, BETA_UNIT, mult * rho_c)


class TestTruncatedShape:
    def test_strict_mass_constraint(self):
        qh = np.zeros(10)
        qh[0] = 1.0
        TruncatedShape(qh)  # mass exactly 1
        with pytest.raises(ValidationError):
            TruncatedShape(qh * 0.5)  # mass 1/2 without relaxation
        TruncatedShape(qh * 0.5, relaxed=True)

    def test_rejects_negative_and_overweight(self):
        with pytest.raises(ValidationError):
            TruncatedShape(np.array([-0.1, 0.55]), relaxed=True)
        with pytest.raises(ValidationError):
            TruncatedShape(np.array([2.0]), relaxed=True)

    def test_zero_vector_relaxed(self):
        shape = TruncatedShape(np.zeros(5), relaxed=True)
        assert shape.constraint_mass == 0.0


class TestTruncatedShapeRefusals:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
    def test_bad_entry_in_the_last_block_is_refused(self, bad):
        qh = np.zeros(3 * B + 7)
        qh[-1] = bad
        with pytest.raises(ValidationError, match="finite and >= 0"):
            TruncatedShape(qh, relaxed=True)

    def test_negative_zero_is_accepted(self):
        qh = np.zeros(3 * B + 7)
        qh[-1] = -0.0
        assert TruncatedShape(qh, relaxed=True).constraint_mass == 0.0


class TestReferenceShape:
    @pytest.mark.parametrize("K", [5000] + BLOCK_EDGE_K)
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_array_is_the_scalar_definition(self, d, K):
        params = SystemParams(d, 0.37, 1.9)
        ks = np.arange(1, K + 1, dtype=float)
        got = qhat_star_array(params, K)
        assert got.tobytes() == qhat_star(params, ks).tobytes()


class TestFunctionalS:
    def test_tilted_reference_identity(self):
        # S(Qhat* e^(-alpha k)) = -alpha * mass - sum(Qhat), checked directly
        params = normal_params()
        sol = solve_alpha(params, 1e-12)
        K = 10_000
        ks = np.arange(1, K + 1)
        qh = qhat_star_array(params, K) * np.exp(-sol.alpha * ks)
        shape = TruncatedShape(qh, relaxed=True)
        got = functional_S(shape, params)
        want = -sol.alpha * float(ks @ qh) - float(np.sum(qh))
        assert got == pytest.approx(want, abs=1e-12)
        # and the truncated mass is essentially 1, so S ~ -alpha - sum(Qhat)
        assert got == pytest.approx(-sol.alpha - float(np.sum(qh)), abs=1e-9)

    def test_single_atom(self):
        params = SystemParams(3, BETA_UNIT, 1.0)
        shape = TruncatedShape(np.array([1.0]))
        # Qhat*(1) = 1 here, so S = log(1) - 1
        assert functional_S(shape, params) == pytest.approx(-1.0, abs=1e-14)

    def test_zero_vector_gives_zero(self):
        params = normal_params()
        shape = TruncatedShape(np.zeros(50), relaxed=True)
        assert functional_S(shape, params) == 0.0


class TestDecomposition:
    def test_proportional_to_reference_has_zero_entropy(self):
        params = normal_params()
        K = 200
        qs = qhat_star_array(params, K)
        mass = float(np.arange(1, K + 1) @ qs)
        shape = TruncatedShape(qs / mass)
        dec = entropy_decomposition(shape, params)
        assert abs(dec.relative_entropy) < 1e-13
        assert dec.reconstructed_S == pytest.approx(
            functional_S(shape, params), rel=1e-12
        )

    def test_random_reconstruction(self):
        rng = np.random.default_rng(11)
        params = normal_params()
        for _ in range(20):
            qh = rng.uniform(0.0, 1.0, size=50)
            qh *= 1.0 / (np.arange(1, 51) @ qh)
            shape = TruncatedShape(qh)
            dec = entropy_decomposition(shape, params)
            s = functional_S(shape, params)
            assert dec.reconstructed_S == pytest.approx(s, rel=1e-12, abs=1e-12)

    def test_truncated_optimum_reproduces_chi(self):
        params = normal_params()
        sol = solve_alpha(params, 1e-12)
        K = 100_000
        qh = qhat_star_array(params, K) * np.exp(-sol.alpha * np.arange(1, K + 1))
        dec = entropy_decomposition(TruncatedShape(qh, relaxed=True), params)
        assert dec.reconstructed_S == pytest.approx(sol.chi, abs=1e-9)

    def test_degenerate_input(self):
        with pytest.raises(ValidationError):
            entropy_decomposition(
                TruncatedShape(np.zeros(10), relaxed=True), normal_params()
            )

    @given(
        arrays(
            np.float64,
            40,
            elements=st.floats(min_value=0.0, max_value=1.0),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_identity_property(self, raw):
        mass = float(np.arange(1, 41) @ raw)
        if mass < 1e-6:
            return
        qh = raw / mass
        params = normal_params()
        shape = TruncatedShape(qh)
        dec = entropy_decomposition(shape, params)
        s = functional_S(shape, params)
        assert dec.reconstructed_S == pytest.approx(s, rel=1e-11, abs=1e-11)


class TestMinimizeS:
    def test_normal_regime_matches_closed_form(self):
        params = normal_params()
        sol = solve_alpha(params, 1e-12)
        res = minimize_S(params, K=5000, tol=1e-12)
        closed = qhat_star_array(params, 5000) * np.exp(
            -sol.alpha * np.arange(1, 5001)
        )
        assert np.max(np.abs(res.shape.qhat - closed)) <= 1e-8
        assert res.s_value == pytest.approx(sol.chi, abs=1e-6)
        assert res.lam == pytest.approx(sol.alpha, abs=1e-9)

    def test_condensed_boundary_concentration(self):
        params = condensed_params()
        chi_c = chi(params)
        prev_s = None
        prev_ratio = None
        for K in (500, 1000, 2000):
            res = minimize_S(params, K=K, tol=1e-12)
            assert res.lam < 0.0
            assert res.s_value > chi_c
            if prev_s is not None:
                assert res.s_value < prev_s  # decreasing toward chi
            prev_s = res.s_value
            # interior pointwise convergence to the reference shape
            ratio = res.shape.qhat[4] / qhat_star_array(params, K)[4]
            if prev_ratio is not None:
                assert abs(ratio - 1.0) < abs(prev_ratio - 1.0)
            prev_ratio = ratio
            assert res.boundary_mass > 1e-4
        assert abs(prev_ratio - 1.0) < 0.05

    def test_normal_boundary_mass_is_negligible(self):
        res = minimize_S(normal_params(), K=2000, tol=1e-10)
        assert res.boundary_mass < 1e-12

    def test_tol_does_not_change_regime_diagnosis(self):
        params = condensed_params()
        r1 = minimize_S(params, K=500, tol=1e-8)
        r2 = minimize_S(params, K=500, tol=2e-8)
        assert (r1.lam < 0) == (r2.lam < 0)

    def test_constraint_and_K_validation(self):
        with pytest.raises(ValidationError):
            minimize_S(normal_params(), K=99)
        for tol in (0.0, 1e-20, 1e-14, 1.0, 1e300, math.inf, math.nan):
            with pytest.raises(ValidationError):
                minimize_S(normal_params(), K=500, tol=tol)

    def test_loose_tol_still_gives_a_shape(self):
        # a TruncatedShape holds its mass to 1e-7, so a looser tol is tightened
        for params in (normal_params(), condensed_params()):
            res = minimize_S(params, K=5000, tol=1e-3)
            assert abs(res.constraint_residual) <= 1e-7

    # d1-condensed: at rho = 2000, sum_k k Qhat*(k) is below 1 for both K, so
    # the truncated d = 1 problem piles mass at k = K as d = 3 does above rho_c
    @pytest.mark.parametrize("K", [5000, 100_000])
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize(
        "params",
        [normal_params(), SystemParams(1, BETA_UNIT, 2000.0),
         condensed_params(0.5), condensed_params(2.0)],
        ids=["d1-normal", "d1-condensed", "d3-normal", "d3-condensed"],
    )
    def test_dual_evaluation_ceiling(self, monkeypatch, params, tol, K):
        calls = []

        def counting(*args):
            calls.append(args[0])
            return log_constraint_mass(*args)

        monkeypatch.setattr(entropy, "_log_constraint_mass", counting)
        res = minimize_S(params, K=K, tol=tol)
        assert abs(res.constraint_residual) <= tol
        assert len(calls) <= 24, calls
        # the proven bracket: the mass Qhat*(1) sum_k k^(-d/2) e^(-lam k) is
        # below Qhat*(1)/(e^lam - 1) = 1 at lam = log1p(Qhat*(1)), and the
        # boundary term alone, K Qhat*(K) e^(-lam K), is 1 at lam = log(K Qhat*(K))/K
        qs = qhat_star_array(params, K)
        ks = np.arange(1, K + 1, dtype=np.float64)
        if float(np.sum(ks * qs)) > 1.0:
            lo, hi = 0.0, math.log1p(float(qs[0]))
        else:
            lo, hi = math.log(K * float(qs[-1])) / K, 0.0
        assert all(lo <= lam <= hi for lam in calls), (lo, hi, calls)

    @given(
        d=st.integers(1, 3),
        K=st.integers(100, 20_000),
        ratio=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 20.0)),
        tol=st.sampled_from([1e-8, 1e-10, 1e-12]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bisection_oracle(self, d, K, ratio, tol):
        # at beta = 1/4pi the truncated mass at lambda = 0 is rho_K / rho
        rho_K = float(np.sum(np.arange(1, K + 1, dtype=np.float64) ** (-d / 2.0)))
        params = SystemParams(d, BETA_UNIT, ratio * rho_K)
        res = minimize_S(params, K=K, tol=tol)
        assert abs(res.constraint_residual) <= tol
        # the residual's slope in lambda is -sum_k k^2 Qhat(k), at least the
        # mass (within tol of 1) in magnitude, so each root is within about
        # tol of the exact one
        assert abs(res.lam - bisection_oracle(params, K, tol)) <= 3 * tol

    def test_stationarity_residual(self):
        params = normal_params()
        res = minimize_S(params, K=2000, tol=1e-12)
        qs = qhat_star_array(params, 2000)
        ks = np.arange(1, 2001)
        interior = ks < 500
        resid = np.log(res.shape.qhat[interior] / qs[interior]) + res.lam * ks[interior]
        assert np.max(np.abs(resid)) < 1e-8

    def test_finite_difference_gradient(self):
        # dS/dQhat(k) = log(Qhat(k)/Qhat*(k)) at 20 random points in shape space
        params = normal_params()
        K = 80
        qs = qhat_star_array(params, K)
        rng = np.random.default_rng(3)
        for _ in range(20):
            qh = rng.uniform(1e-4, 0.9 / K, size=K) / np.arange(1, K + 1)
            i = int(rng.integers(0, K))
            h = 1e-5 * qh[i]
            up = qh.copy()
            up[i] += h
            dn = qh.copy()
            dn[i] -= h
            fd = (
                functional_S(TruncatedShape(up, relaxed=True), params)
                - functional_S(TruncatedShape(dn, relaxed=True), params)
            ) / (2.0 * h)
            assert fd == pytest.approx(math.log(qh[i] / qs[i]), abs=1e-5)

    def test_optimality_against_random_perturbations(self):
        params = normal_params()
        res = minimize_S(params, K=300, tol=1e-12)
        base = functional_S(res.shape, params)
        rng = random.Random(17)
        for _ in range(100):
            qh = res.shape.qhat.copy()
            i = rng.randrange(0, 300)
            j = rng.randrange(0, 300)
            if i == j:
                continue
            a = rng.uniform(0.0, qh[i])
            ki, kj = i + 1, j + 1
            qh[i] -= a
            qh[j] += a * ki / kj
            s = functional_S(TruncatedShape(qh), params)
            assert s >= base - 1e-12

    def test_truncation_stability(self):
        # near criticality the truncation error decays like a power of K, so
        # doubling K visibly shrinks the gap (far from criticality it hits
        # the rounding floor immediately)
        rho_c = critical_density(3, BETA_UNIT)
        params = SystemParams(3, BETA_UNIT, 0.98 * rho_c)
        sol = solve_alpha(params, 1e-12)
        chi_val = sol.chi
        gaps = []
        for K in (200, 400, 800, 1600):
            qh = qhat_star_array(params, K) * np.exp(-sol.alpha * np.arange(1, K + 1))
            s = functional_S(TruncatedShape(qh, relaxed=True), params)
            gaps.append(abs(s - chi_val))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestMinimizingSequence:
    def test_full_series_mass_is_one(self):
        params = condensed_params()
        K = 100_000
        shape = minimizing_sequence(1000, params, K=K)
        # truncated mass plus the exact zeta tail of the reference shape
        zeta_d2 = zeta(1.5, 1e-14).value
        # sum_k k Qhat*(k) = (1/rho) sum_k k^(-3/2) at (4 pi beta)^(3/2) = 1
        partial = float(np.sum(np.arange(1, K + 1, dtype=np.float64) ** -1.5))
        tail = (zeta_d2 - partial) / params.rho
        assert shape.constraint_mass + tail == pytest.approx(1.0, abs=1e-7)

    def test_matches_closed_form_evaluation(self):
        params = condensed_params()
        for n in (1, 10, 100):
            shape = minimizing_sequence(n, params, K=2_000_000)
            got = functional_S(shape, params)
            want = minimizing_sequence_s_closed_form(n, params)
            assert got == pytest.approx(want, abs=5e-10)

    def test_monotone_approach_to_chi(self):
        params = condensed_params()
        chi_c = chi(params)
        values = [
            minimizing_sequence_s_closed_form(n, params) for n in (1, 10, 100, 1000, 10_000)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > chi_c for v in values)
        assert values[-1] == pytest.approx(chi_c, abs=1e-3)

    def test_first_element_is_largest(self):
        params = condensed_params()
        assert minimizing_sequence_s_closed_form(
            1, params
        ) > minimizing_sequence_s_closed_form(10, params)

    def test_normal_regime_is_rejected(self):
        with pytest.raises(ValidationError):
            minimizing_sequence(10, normal_params())
        with pytest.raises(ValidationError):
            minimizing_sequence_s_closed_form(10, SystemParams(3, BETA_UNIT, 0.5))

    def test_truncation_must_cover_bump(self):
        params = condensed_params()
        with pytest.raises(ValidationError):
            minimizing_sequence(5000, params, K=1000)


def blocked_sum_bound(x: np.ndarray) -> float:
    """Bound on |fsum of per-block np.sums (or dots) - fsum of the whole vector|.

    A block's sum or dot product of n <= B terms has error at most
    gamma_B sum|x|, gamma_n = n u / (1 - n u), in any order (Higham,
    Accuracy and Stability of Numerical Algorithms, chs. 3-4); the fsum of
    the block sums and the reference fsum round once each, and a dot
    product's terms are rounded once in the reference.
    """
    gamma = B * U / (1.0 - B * U)
    return (gamma + 4.0 * U) * math.fsum(np.abs(x))


def whole_vector_terms(x: np.ndarray, ref: np.ndarray, minus_one: bool) -> np.ndarray:
    """x (log(x/ref) - 1), or x log(x/ref), with the ops of entropy; 0 where x is 0."""
    pos = x > 0
    t = np.log(x[pos] / ref[pos])
    if minus_one:
        t = t - 1.0
    out = np.zeros_like(x)
    out[pos] = x[pos] * t
    return out


def block_edge_shape(params: SystemParams, K: int) -> np.ndarray:
    """Qhat* scaled to mass 1/2, zeroed over [B - 5, 2B + 5): the zeros cross
    block edges and, at K = 3B + 7, fill the whole second block."""
    qh = qhat_star_array(params, K)
    qh[max(B - 5, 1) : 2 * B + 5] = 0.0
    return qh * (0.5 / math.fsum(np.arange(1, K + 1) * qh))


class TestBlockEdges:
    @pytest.mark.parametrize("K", BLOCK_EDGE_K)
    def test_sums_match_whole_vector_fsum(self, K):
        params = condensed_params()
        qh = block_edge_shape(params, K)
        qs = qhat_star(params, np.arange(1, K + 1, dtype=float))
        shape = TruncatedShape(qh, relaxed=True)

        products = np.arange(1, K + 1) * qh
        assert abs(shape.constraint_mass - math.fsum(products)) <= blocked_sum_bound(products)

        terms = whole_vector_terms(qh, qs, True)
        got = functional_S(shape, params)
        assert math.isfinite(got)
        assert abs(got - math.fsum(terms)) <= blocked_sum_bound(terms)

        dec = entropy_decomposition(shape, params)
        assert abs(dec.q - math.fsum(qh)) <= blocked_sum_bound(qh)
        assert abs(dec.q_star - math.fsum(qs)) <= blocked_sum_bound(qs)
        # with the call's q and q*, H's elements are the whole-vector ones
        terms = whole_vector_terms(qh / dec.q, qs / dec.q_star, False)
        assert math.isfinite(dec.relative_entropy)
        assert abs(dec.relative_entropy - math.fsum(terms)) <= blocked_sum_bound(terms)
        q, h = dec.q, dec.relative_entropy
        assert dec.reconstructed_S == q * h + q * math.log(q / dec.q_star) - q


class TestBlockedMemory:
    """Working memory beyond the shape is a few blocks, independent of K."""

    @staticmethod
    def peak(call) -> int:
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("K", [10**6, 2 * 10**6])
    def test_peaks(self, K):
        params = condensed_params()
        vector, mb = 8 * K, 2**20
        shape = minimizing_sequence(1000, params, K)
        assert self.peak(lambda: functional_S(shape, params)) < mb
        assert self.peak(lambda: entropy_decomposition(shape, params)) < mb
        assert self.peak(lambda: qhat_star_array(params, K)) <= vector + mb
        assert self.peak(lambda: minimizing_sequence(1000, params, K)) <= 2 * vector + mb
