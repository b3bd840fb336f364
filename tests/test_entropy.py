"""Tests for the shape functional, its decomposition, and minimisation."""

import math
import random
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cyclegas import entropy
from cyclegas.entropy import (
    ExponentialShape,
    TruncatedShape,
    entropy_decomposition,
    functional_S,
    minimize_S,
    minimizing_sequence,
    minimizing_sequence_s_closed_form,
    qhat_star_array,
)
from cyclegas.errors import CapError, ValidationError
from cyclegas.thermo import (
    SystemParams,
    chi,
    critical_density,
    qhat_star,
    solve_alpha,
    zeta,
)

BETA_UNIT = 1.0 / (4.0 * math.pi)
B = entropy._BLOCK
BLOCK_EDGE_K = [1, B - 1, B, B + 1, 3 * B + 7]
U = 2.0**-53


def whole_vector_logsumexp(values: np.ndarray) -> float:
    """log sum e^values from fresh whole-vector NumPy temporaries, max shifted."""
    m = float(np.max(values))
    return m + math.log(float(np.sum(np.exp(values - m))))


def log_constraint_mass(lam: float, log_base: np.ndarray, ks: np.ndarray) -> float:
    """The array dual: log sum_k k Qhat*(k) e^(-lam k) over whole K-vectors.

    log_base = log(k Qhat*(k)); the oracle of minimize_S's O(1) dual.
    """
    return whole_vector_logsumexp(log_base - lam * ks)


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


def dual_rounding(log_base: np.ndarray, lam: float, K: int, terms_used: int) -> float:
    """A-priori rounding between the O(1) and the array log constraint mass.

    The array dual forms log_base - lam k with an absolute error of at most
    u (|log_base| + |lam| K) per term before its log-sum-exp adds about
    log2 K roundings; the O(1) route carries about one relative rounding per
    summed term and per unit of |lam| K (its weights' recurrences and the
    exponent), each at most 2u; 8u per unit bounds both with room.
    """
    size = float(np.max(np.abs(log_base))) + abs(lam) * K
    return 8 * U * (size + math.log2(K) + terms_used)


def polylog_sum(params: SystemParams, order: float, lam: float, K: int) -> tuple[float, float]:
    """Qhat*(1) sum_{k<=K} k^-order e^(-lam k) and its certified bound, unscaled."""
    t = entropy._truncated_polylog(order, lam, K)
    scale = qhat_star(params, 1.0) * math.exp(max(-lam * K, 0.0))
    return t.value * scale, t.error_bound * scale


def closed_form_s_bound(params: SystemParams, lam: float, K: int) -> float:
    """Certified truncation of S = -lam M - q, plus 16u of its parts for rounding."""
    mass, mass_bound = polylog_sum(params, params.d / 2.0, lam, K)
    q, q_bound = polylog_sum(params, 1.0 + params.d / 2.0, lam, K)
    return abs(lam) * mass_bound + q_bound + 16 * U * (abs(lam) * mass + q)


def normal_params() -> SystemParams:
    return SystemParams(1, 1.0, 0.5)


def condensed_params(mult: float = 2.0) -> SystemParams:
    return condensed_params_d(3, mult)


def condensed_params_d(d: int, mult: float = 2.0) -> SystemParams:
    return SystemParams(d, BETA_UNIT, mult * critical_density(d, BETA_UNIT))


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

    def test_a_callers_writeable_array_is_copied(self):
        qh = np.zeros(10)
        qh[0] = 1.0
        shape = TruncatedShape(qh)
        qh[0] = 0.5
        assert shape.qhat[0] == 1.0
        assert not shape.qhat.flags.writeable
        # a read-only view still shares a writeable base
        view = qh[:]
        view.setflags(write=False)
        shape = TruncatedShape(view, relaxed=True)
        qh[0] = 0.25
        assert shape.qhat[0] == 0.5
        assert not shape.qhat.flags.writeable

    def test_the_makers_shapes_are_read_only(self):
        for shape in (
            minimize_S(normal_params(), K=1000).shape,
            minimize_S(condensed_params(), K=1000).shape,
            minimizing_sequence(10, condensed_params(), K=1000),
        ):
            assert not shape.qhat.flags.writeable
            with pytest.raises(ValueError):
                shape.qhat[0] = 0.0


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

    @pytest.mark.parametrize("K", [0, -1])
    def test_empty_truncation_is_rejected(self, K):
        with pytest.raises(ValidationError, match=f"K must be >= 1, got {K}$"):
            qhat_star_array(SystemParams(3, 0.37, 1.9), K)


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
        qs = qhat_star_array(params, K)
        ks = np.arange(1, K + 1, dtype=np.float64)
        log_base = np.log(ks * qs)
        s, log_c = params.d / 2.0, math.log(float(qs[0]))
        polylog, root = entropy._truncated_polylog, entropy._bracketed_root
        checked, calls = [], []

        def against_the_array_dual(order, lam, K_):
            t = polylog(order, lam, K_)
            if order == s:  # the O(1) log constraint mass, within its bound
                got = log_c + max(-lam * K, 0.0) + math.log(t.value)
                want = log_constraint_mass(lam, log_base, ks)
                allowance = dual_rounding(log_base, lam, K, t.terms_used)
                assert abs(got - want) <= t.error_bound / t.value + allowance, lam
                checked.append(lam)
            return t

        def counting_root(f, *args):
            def counted(lam):
                calls.append(lam)
                return f(lam)

            return root(counted, *args)

        monkeypatch.setattr(entropy, "_truncated_polylog", against_the_array_dual)
        monkeypatch.setattr(entropy, "_bracketed_root", counting_root)
        res = minimize_S(params, K=K, tol=tol)
        assert abs(res.constraint_residual) <= tol
        # after r0, at lambda = 0: the normal root starts at the density
        # seed's model root and certifies there or one secant step on; the
        # condensed one starts from the escaping-mass model
        normal = float(np.sum(ks * qs)) > 1.0
        assert len(calls) <= (2 if normal else 6), calls
        assert set(calls) <= set(checked)
        # the proven bracket: the mass Qhat*(1) sum_k k^(-d/2) e^(-lam k) is
        # below Qhat*(1)/(e^lam - 1) = 1 at lam = log1p(Qhat*(1)), and the
        # boundary term alone, K Qhat*(K) e^(-lam K), is 1 at lam = log(K Qhat*(K))/K
        qh = qs * np.exp(-res.lam * ks)
        assert res.shape.qhat.tobytes() == qh.tobytes()
        terms = qh * (-res.lam * ks - 1.0)
        s_bound = closed_form_s_bound(params, res.lam, K) + sum_bound(float(np.sum(np.abs(terms))))
        assert abs(res.s_value - float(np.sum(terms))) <= s_bound
        if normal:
            lo, hi = 0.0, math.log1p(float(qs[0]))
        else:
            lo, hi = math.log(K * float(qs[-1])) / K, 0.0
        # the bracket ends are formed from log Qhat*(1) and log K: an ulp apart
        slack = 4 * U * max(abs(lo), abs(hi))
        assert all(lo - slack <= lam <= hi + slack for lam in calls), (lo, hi, calls)

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

    def test_dual_mass_past_the_floats(self):
        # at lambda = 0 the log constraint mass is above log(max float), where
        # expm1 overflows; the residual reads +inf there and the root is bisected
        params = SystemParams(1, 1.0, 1e-306)
        K = 10**6
        ks = np.arange(1, K + 1, dtype=np.float64)
        log_base = np.log(ks * qhat_star_array(params, K))
        assert log_constraint_mass(0.0, log_base, ks) > math.log(sys.float_info.max)
        res = minimize_S(params, K=K)
        assert abs(res.constraint_residual) <= 1e-10
        assert res.lam == pytest.approx(703.3255263326934, rel=1e-12)
        assert res.s_value == pytest.approx(chi(params), rel=1e-13)

    @pytest.mark.parametrize("d", [8, 10, 12])
    def test_root_near_the_critical_density(self, d):
        # at K = 1e6 the tail past K is below an ulp of zeta(d/2), so within a
        # few ulps of rho_c the target 1/Qhat*(1) can sit at or past the seed
        # model's zeta(d/2) while the mass at lambda = 0 is still above 1:
        # the density seed gives no start there, and the root is unseeded
        for beta in (BETA_UNIT, 1.0):
            rho_c = critical_density(d, beta)
            rhos = [rho_c]
            for direction in (0.0, math.inf):
                rho = rho_c
                for _ in range(4):
                    rho = math.nextafter(rho, direction)
                    rhos.append(rho)
            for rho in rhos:
                res = minimize_S(SystemParams(d, beta, rho), K=10**6)
                assert abs(res.constraint_residual) <= 1e-10, (beta, rho)

    @pytest.mark.parametrize("K", [1000, 100_000])
    def test_qhat_near_the_float_limit(self, K):
        # at rho = 1e308, Qhat*(k) < 1e-308 is subnormal and the root has
        # lam K < -709, so e^(-lam K) alone overflows: the vector is formed
        # from log Qhat*(k), and its sums agree with the closed forms
        res = minimize_S(SystemParams(3, BETA_UNIT, 1e308), K=K)
        assert res.lam * K < -math.log(sys.float_info.max)
        qhat = res.shape.qhat
        assert res.boundary_mass == pytest.approx(K * float(qhat[-1]), rel=1e-12)
        plain = TruncatedShape(qhat)
        assert plain.constraint_mass == pytest.approx(res.shape.constraint_mass, rel=1e-12)

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


class TestArrayDualOracle:
    """minimize_S, O(1) in K, against the whole-vector array dual."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("ratio", [0.5, 2.0], ids=["normal", "condensed"])
    def test_matches_the_array_dual(self, d, ratio):
        # at beta = 1/4pi the truncated mass at lambda = 0 is rho_K / rho: the
        # root lies above 0 at ratio 0.5 and below it at ratio 2
        K, tol = 20_000, 1e-12
        ks = np.arange(1, K + 1, dtype=np.float64)
        params = SystemParams(d, BETA_UNIT, ratio * float(np.sum(ks ** (-d / 2.0))))
        res = minimize_S(params, K=K, tol=tol)
        assert (res.lam > 0.0) == (ratio < 1.0)
        assert abs(res.lam - bisection_oracle(params, K, tol)) <= 3 * tol
        qs = qhat_star_array(params, K)
        log_base = np.log(ks * qs)
        qh = qs * np.exp(-res.lam * ks)
        assert res.shape.qhat.tobytes() == qh.tobytes()
        # the residual and S at the root, each within its certified bound
        t = entropy._truncated_polylog(d / 2.0, res.lam, K)
        array_residual = math.expm1(log_constraint_mass(res.lam, log_base, ks))
        allowance = dual_rounding(log_base, res.lam, K, t.terms_used)
        assert abs(res.constraint_residual - array_residual) <= t.error_bound / t.value + allowance
        terms = qh * (-res.lam * ks - 1.0)
        s_bound = closed_form_s_bound(params, res.lam, K) + sum_bound(float(np.sum(np.abs(terms))))
        assert abs(res.s_value - float(np.sum(terms))) <= s_bound
        boundary = K * float(qh[-1])
        assert abs(res.boundary_mass - boundary) <= 1e-11 * max(boundary, 1.0)

    def test_normal_limits_are_alpha_and_chi(self):
        # near the transition the truncation shows up to K = 1e4; past it the
        # root and S sit within the tolerance of the density solve
        params = SystemParams(3, BETA_UNIT, 0.98 * critical_density(3, BETA_UNIT))
        sol = solve_alpha(params, 1e-13)
        tol = 1e-12
        gaps = []
        for K in (10**3, 10**4, 10**5, 10**7):
            res = minimize_S(params, K=K, tol=tol)
            gaps.append((abs(res.lam - sol.alpha), abs(res.s_value - sol.chi)))
        assert gaps[0][0] > gaps[1][0] > 3 * tol and gaps[0][1] > gaps[1][1] > 1e-9
        for lam_gap, s_gap in gaps[2:]:
            assert lam_gap <= 3 * tol
            assert s_gap <= 1e-11

    def test_condensed_limits_are_zero_and_chi(self):
        # lambda < 0 rises to 0 and S falls to chi, both about like log K / K
        # and K^-1/2; at K = 1e7 S is within 1e-6 of chi
        params = condensed_params()
        chi_c = chi(params, 1e-13)
        results = [minimize_S(params, K=K, tol=1e-12) for K in (10**3, 10**5, 10**7)]
        lams = [res.lam for res in results]
        gaps = [res.s_value - chi_c for res in results]
        assert lams[0] < lams[1] < lams[2] < 0.0
        assert gaps[0] > gaps[1] > gaps[2] > 0.0
        assert gaps[2] <= 1e-6


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
            got = functional_S(untagged(shape), params)  # the array route
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

    def test_bump_before_the_first_cycle_is_rejected(self):
        # at a condensed point, where n is the only thing wrong
        for n in (0, -3):
            with pytest.raises(ValidationError, match=f"n must be >= 1, got {n}$"):
                minimizing_sequence(n, condensed_params())

    def test_truncation_must_cover_bump(self):
        params = condensed_params()
        with pytest.raises(ValidationError):
            minimizing_sequence(5000, params, K=1000)

    @pytest.mark.parametrize("n, K", [(10, 1000), (600, 1200)])
    def test_default_truncation_is_twice_n_or_1000(self, n, K):
        shape = minimizing_sequence(n, condensed_params())
        assert (shape.K, shape.bump[0]) == (K, n)

    def test_default_truncation_stops_at_the_shape_cap(self):
        # 2n = 1.2e7 is past the cap, so K is the cap; the mass is the closed
        # form, and the 80 MB qhat is never built
        params = condensed_params()
        n, K = 6_000_000, 10**7
        shape = minimizing_sequence(n, params)
        assert (shape.K, shape.bump[0]) == (K, n)
        # sum_{k > K} k^(-3/2) = 2 / sqrt(K + 1/2) to O(K^(-5/2))
        tail = 2.0 / math.sqrt(K + 0.5) / params.rho
        assert shape.constraint_mass + tail == pytest.approx(1.0, abs=1e-12)
        assert "qhat" not in shape.__dict__

    def test_default_truncation_past_the_shape_cap_is_refused(self):
        with pytest.raises(CapError, match="shape cap"):
            minimizing_sequence(10**7 + 1, condensed_params())

    @pytest.mark.parametrize("m", [5, 12])
    def test_head_holds_a_bump_inside_it(self, m):
        # the bump at n = 5: the last entry of a head of 5, inside one of 12
        params = condensed_params()
        shape = minimizing_sequence(5, params, K=1000)
        n, eps = shape.bump
        head = shape.head(m)
        assert len(head) == m
        np.testing.assert_allclose(head, shape.qhat[:m], rtol=4 * U, atol=0.0)
        assert head[n - 1] - qhat_star(params, float(n)) == pytest.approx(eps, rel=1e-14)

    @pytest.mark.parametrize("n", [10**130, 10**200, 10**400])
    def test_huge_n_tends_to_chi(self, n):
        # Qhat*(n) underflows to 0 at 10^130 and 10^200, and float(n)
        # overflows at 10^400; S(Q_n) - chi is then below chi's last bit
        params = condensed_params()
        chi_c = chi(params, 1e-12)
        got = minimizing_sequence_s_closed_form(n, params)
        assert math.isfinite(got)
        assert got == pytest.approx(chi_c, rel=4 * U)
        assert minimizing_sequence_s_closed_form(10**6, params) > got

    def test_log_form_of_the_bump_matches_the_direct_one(self, monkeypatch):
        # every n through the log Qhat*(n) branch that huge n take
        params = condensed_params()
        ns = (1, 10, 1000, 10**6, 10**9)
        direct = [minimizing_sequence_s_closed_form(n, params) for n in ns]
        monkeypatch.setattr(entropy, "_LOG_TINY", math.inf)
        for n, want in zip(ns, direct):
            got = minimizing_sequence_s_closed_form(n, params)
            # log Qhat*(n) is about 40 in size: its rounding moves the bump
            # by about 40u relative
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), n


def blocked_sum_bound(x: np.ndarray) -> float:
    """Bound on |fsum of per-block np.sums (or dots) - fsum of the whole vector|.

    A block's sum or dot product of n <= B terms has error at most
    gamma_B sum|x|, gamma_n = n u / (1 - n u), in any order (Higham,
    Accuracy and Stability of Numerical Algorithms, chs. 3-4); the fsum of
    the block sums and the reference fsum round once each, and a dot
    product's terms are rounded once in the reference.
    """
    return sum_bound(math.fsum(np.abs(x)))


def sum_bound(abs_total: float) -> float:
    """blocked_sum_bound of terms whose absolute values sum to abs_total."""
    gamma = B * U / (1.0 - B * U)
    return (gamma + 4.0 * U) * abs_total


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


class TestUnmaskedTerms:
    @pytest.mark.parametrize("minus_one", [True, False])
    def test_terms_are_the_whole_vector_terms(self, minus_one, monkeypatch):
        params = SystemParams(3, BETA_UNIT, 0.01 * critical_density(3, BETA_UNIT))
        K = 3 * B + 7
        qs = qhat_star_array(params, K)
        assert qs[0] > 2.0  # so 5e-324 / Qhat*(1) rounds to 0
        x = block_edge_shape(params, K)
        x[0] = 5e-324
        x[2] = -0.0
        assert x[0] / qs[0] == 0.0
        assert np.sum(x == 0) > B  # +0.0 over a whole block
        with np.errstate(divide="ignore"):  # log(0) in the oracle
            want = whole_vector_terms(x, qs, minus_one)
        assert want[0] == -math.inf  # the oracle's ratio underflows too
        # the true term, about -4e-321: a multiple of the least subnormal,
        # so an ulp of log cannot move it
        want[0] = x[0] * (math.log(x[0]) - math.log(qs[0]) - minus_one)
        assert -5e-321 < want[0] < -3e-321
        # the terms are a temporary: read them as the block's last np.sum sees them
        summed = []
        np_sum = np.sum

        def recording_sum(a, *args, **kwargs):
            summed.append(np.array(a))
            return np_sum(a, *args, **kwargs)

        monkeypatch.setattr(np, "sum", recording_sum)
        for lo, hi in ((0, B), (B, 2 * B), (2 * B, K)):
            ref = qs[lo:hi].copy()
            x_block = x[lo:hi].copy()
            summed.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                total = entropy._xlogx_sum(x_block, ref, minus_one)
            # only the subnormal's block sums its terms a second time
            assert len(summed) == (2 if lo == 0 else 1)
            # +0.0 where x is +-0.0, the true term at the subnormal
            assert summed[-1].tobytes() == want[lo:hi].tobytes()
            assert total == float(np_sum(want[lo:hi]))
            # the inputs are left as they were
            assert ref.tobytes() == qs[lo:hi].tobytes()
            assert x_block.tobytes() == x[lo:hi].tobytes()

    def test_subnormal_entry_keeps_S_finite(self):
        # x / Qhat*(1) underflows to 0 at x = 5e-324, which once made S -inf
        params = SystemParams(3, BETA_UNIT, 0.01)
        qh = qhat_star_array(params, 1000)
        qh *= 0.5 / math.fsum(np.arange(1, 1001) * qh)
        qh[0] = 5e-324
        shape = TruncatedShape(qh, relaxed=True)
        s_value = functional_S(shape, params)
        assert math.isfinite(s_value)
        qh[0] = 0.0  # the true term, about -4e-321, is below S's rounding
        assert s_value == functional_S(TruncatedShape(qh, relaxed=True), params)
        rebuilt = entropy_decomposition(shape, params).reconstructed_S
        assert s_value == pytest.approx(rebuilt, rel=1e-12)


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


def untagged(shape: ExponentialShape) -> TruncatedShape:
    """The same vector as a TruncatedShape, adopted without a copy: the array route."""
    plain = TruncatedShape(shape.qhat, relaxed=True)
    assert plain.qhat is shape.qhat
    return plain


CLOSED_FORM_CASES = [
    (d, K, n)
    for d in (3, 4, 5)
    for K in BLOCK_EDGE_K + [10**6, 5 * 10**6]
    for n in sorted({1, 10, 1000, K})
    if n <= K
]


class TestClosedForms:
    """ExponentialShapes take closed forms; the array route is their oracle."""

    @staticmethod
    def rounding(abs_x: float, abs_terms: float) -> float:
        """Rounding of the whole-vector terms and of an O(1) closed form.

        A term's log argument x/ref has passed through at most six
        roundings (pow within one ulp, the scale c, the /q and /q* of H, the
        quotient), moving the log by at most 7u absolutely, and log, -1 and
        the product add 3u relative; the closed forms round a dozen
        operations on numbers no larger than sum|x| + sum|terms|.
        """
        return 16 * U * (abs_x + abs_terms)

    @pytest.mark.parametrize("d, K, n", CLOSED_FORM_CASES)
    def test_closed_forms_match_the_array_route(self, d, K, n):
        params = condensed_params_d(d)
        shape = minimizing_sequence(n, params, K)
        plain = untagged(shape)
        s_closed, dec = functional_S(shape, params), entropy_decomposition(shape, params)
        s_array, ref = functional_S(plain, params), entropy_decomposition(plain, params)

        # the certified truncation of q*_K = c sum_{k<=K} k^-(1+d/2)
        em = polylog_sum(params, 1.0 + d / 2.0, 0.0, K)[1]
        # sum|x| and sum|terms| of the array route's sums, from the shape:
        # Qhat* but for Qhat_n(n) = Qhat*(n) + eps, so every other term of S
        # is -Qhat*(k), and every other log(p/p*) of H is log(q*/q)
        q, q_star = ref.q, ref.q_star
        x_n = float(shape.qhat[n - 1])
        log_r = math.log(x_n / qhat_star(params, float(n)))
        abs_s = q - x_n + x_n * abs(log_r - 1.0)
        p_n, log_other = x_n / q, math.log(q_star / q)
        abs_h = (1.0 - p_n) * abs(log_other) + p_n * abs(log_r + log_other)

        bound = em + sum_bound(abs_s) + self.rounding(q, abs_s)
        assert abs(s_closed - s_array) <= bound
        for got, want in ((dec.q, q), (dec.q_star, q_star)):
            assert abs(got - want) <= em + sum_bound(want) + self.rounding(want, want)
        # H with each route's own q and q*: their differences dq and dq*
        # move H by (dq/q + dq*/q*) (1 + |H|)
        h = dec.relative_entropy
        shift = abs(dec.q - q) / dec.q + abs(dec.q_star - q_star) / dec.q_star
        bound_h = sum_bound(abs_h) + self.rounding(1.0, abs_h) + shift * (1.0 + abs(h))
        assert abs(h - ref.relative_entropy) <= bound_h
        # q H + q log(q/q*) - q rounds to S's closed form within 16u (q + |S|)
        assert abs(dec.reconstructed_S - s_closed) <= 16 * U * (dec.q + abs(s_closed))

    def test_params_mismatch_falls_back_to_the_array_route(self, monkeypatch):
        params = condensed_params()
        shape = minimizing_sequence(1000, params, K=B + 1)
        others = [
            condensed_params(3.0),
            SystemParams(3, 2 * BETA_UNIT, params.rho),
            SystemParams(4, BETA_UNIT, params.rho),
        ]
        want = [
            (functional_S(untagged(shape), p), entropy_decomposition(untagged(shape), p))
            for p in others
        ]

        def closed_form_called(*args):
            raise AssertionError("closed form taken")

        monkeypatch.setattr(entropy, "_truncated_polylog", closed_form_called)
        for p, (s_value, dec) in zip(others, want):
            assert functional_S(shape, p) == s_value
            assert entropy_decomposition(shape, p) == dec
        # a params object that only differs in n keeps the closed form
        with pytest.raises(AssertionError, match="closed form taken"):
            functional_S(shape, params.with_n(5))

    def test_writes_through_exposed_arrays_leave_the_closed_forms(self):
        # no closed form reads a vector, so no write through one can leave
        # them stale; the array route reads the vector as it is
        params = condensed_params()
        for shape in (
            minimizing_sequence(1000, params, K=B + 1),
            minimize_S(params, K=B + 1).shape,
        ):

            def closed():
                return (
                    functional_S(shape, params),
                    entropy_decomposition(shape, params),
                    shape.constraint_mass,
                    shape.head(10),
                )

            want = closed()
            plain = untagged(shape)
            assert functional_S(plain, params) != 0.0
            qhat = shape.qhat
            assert qhat.base is None  # an owner: NumPy lets its flag be set again
            qhat.setflags(write=True)
            qhat[:] = 0.0
            assert shape.qhat is qhat and plain.qhat is qhat
            assert closed() == want
            assert functional_S(plain, params) == 0.0

    def test_only_minimizing_sequence_tags_a_shape(self):
        # the makers' shapes are parametric; a TruncatedShape is a vector only
        params = condensed_params()
        shape = minimizing_sequence(10, params, K=1000)
        assert isinstance(shape, ExponentialShape)
        assert (shape.params, shape.K, shape.lam, shape.bump[0]) == (params, 1000, 0.0, 10)
        res = minimize_S(params, K=1000)
        assert (res.shape.lam, res.shape.bump) == (res.lam, None)
        with pytest.raises(TypeError):
            TruncatedShape(shape.qhat, relaxed=True, bump=shape.bump)


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
        for s in (shape, untagged(shape)):  # the closed forms, then the array route
            assert self.peak(lambda: functional_S(s, params)) < mb
            assert self.peak(lambda: entropy_decomposition(s, params)) < mb
        assert self.peak(lambda: qhat_star_array(params, K)) <= vector + mb
        assert self.peak(lambda: minimizing_sequence(1000, params, K)) <= vector + mb
