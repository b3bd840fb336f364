"""Phase structure of the cycle-weighted ensemble in the thermodynamic limit.

Solves the density constraint rho = (4 pi beta)^(-d/2) g_{d/2}(alpha) for the
exponential tilt alpha, locates the critical density/time-horizon for d >= 3,
and evaluates the limiting cycle-length distribution, condensate fraction,
specific free energy f and entropy infimum chi = beta f / rho.

All inputs are dimensionless; beta is the time horizon of a diffusion with
generator Laplacian (heat kernel (4 pi beta k)^(-d/2)), not Laplacian/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .bosefn import bose_g, zeta
from .errors import PrecisionError, ValidationError

INFINITE = math.inf

REGIME_NORMAL = "normal"
REGIME_CRITICAL = "critical"
REGIME_CONDENSED = "condensed"

_DEFAULT_TOL = 1e-10
_MIN_TOL = 1e-13


@dataclass(frozen=True)
class SystemParams:
    """Dimension, time horizon, density, and optional particle number.

    volume is derived as n / rho when n is set (so n / volume == rho).
    """

    d: int
    beta: float
    rho: float
    n: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or self.d < 1:
            raise ValidationError(f"dimension d must be a positive integer, got {self.d}")
        if not self.beta > 0 or not math.isfinite(self.beta):
            raise ValidationError(f"beta must be positive and finite, got {self.beta}")
        if not self.rho > 0 or not math.isfinite(self.rho):
            raise ValidationError(f"rho must be positive and finite, got {self.rho}")
        if self.n is not None and (not isinstance(self.n, int) or self.n < 1):
            raise ValidationError(f"n must be a positive integer when set, got {self.n}")

    @property
    def volume(self) -> float:
        if self.n is None:
            raise ValidationError("volume requires the particle number n to be set")
        return self.n / self.rho

    def with_n(self, n: int) -> "SystemParams":
        return replace(self, n=n)


@dataclass(frozen=True)
class ThermoSolution:
    """Resolved phase point: regime, tilt alpha, and derived quantities.

    cycle_mass(k) is the limiting per-particle mass k * Qhat(k) that the path
    ensemble places on the class of paths opening with a k-fold loop.
    """

    regime: str
    alpha: float
    rho_c: float
    beta_c: float
    condensate_fraction: float
    free_energy: float
    chi: float
    cycle_mass: Callable[[int], float]


def thermal_factor(d: int, beta: float) -> float:
    """(4 pi beta)^(d/2), the per-cycle heat-kernel normalisation."""
    return (4.0 * math.pi * beta) ** (d / 2.0)


def critical_density(d: int, beta: float, tol: float = 1e-13) -> float:
    """zeta(d/2) (4 pi beta)^(-d/2) for d >= 3; infinite for d = 1, 2."""
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    if beta <= 0:
        raise ValidationError(f"beta must be positive, got {beta}")
    if d <= 2:
        return INFINITE
    return zeta(d / 2.0, tol).value / thermal_factor(d, beta)


def critical_beta(d: int, rho: float, tol: float = 1e-13) -> float:
    """Time horizon above which condensation sets in at density rho (d >= 3).

    Defined by rho = rho_c(beta_c), i.e. (1/4pi) (zeta(d/2)/rho)^(2/d);
    infinite for d = 1, 2 where no condensation occurs.
    """
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    if rho <= 0:
        raise ValidationError(f"rho must be positive, got {rho}")
    if d <= 2:
        return INFINITE
    z = zeta(d / 2.0, tol).value
    return (z / rho) ** (2.0 / d) / (4.0 * math.pi)


def qhat_star_factory(params: SystemParams) -> Callable[[int], float]:
    """Reference increments: Qhat*(k) = 1/(rho (4 pi beta)^(d/2) k^(1+d/2))."""
    c = 1.0 / (params.rho * thermal_factor(params.d, params.beta))
    e = 1.0 + params.d / 2.0

    def qhat_star(k: int) -> float:
        return c * float(k) ** (-e)

    return qhat_star


def _solve_root(d: int, beta: float, rho: float, tol: float, rho_c: float) -> float:
    """The unique alpha > 0 with g_{d/2}(alpha) = rho (4 pi beta)^(d/2).

    Brackets the root in [0, hi] by doubling hi, then narrows the bracket
    by regula falsi with the Illinois modification (Dowell & Jarratt, BIT
    11, 168 (1971)): the function value kept at an endpoint retained twice
    in a row is halved, which makes the step superlinear without a
    derivative.  A step that falls outside the open bracket, or one taken
    while an endpoint value is infinite (g_{d/2}(0) = rho_c (4 pi
    beta)^(d/2) is infinite for d <= 2), is replaced by bisection.  alpha
    is returned once |g - target| + error_bound <= tol * target certifies
    it; PrecisionError otherwise.
    """
    factor = thermal_factor(d, beta)
    target = rho * factor
    s = d / 2.0
    inner = max(tol * target / 8.0, 1e-14)

    hi = 1.0
    while True:
        g_hi = bose_g(s, hi, inner)
        if g_hi.value + g_hi.error_bound < target:
            break
        hi *= 2.0
        if hi > 1e9:
            raise PrecisionError("failed to bracket the root of the density equation")
    lo = 0.0
    # g - target at the bracket ends: positive at lo, negative at hi
    f_lo = rho_c * factor - target
    f_hi = g_hi.value - target
    kept = None  # the endpoint the last step left in place
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # interval at floating-point resolution
        x = mid
        if math.isfinite(f_lo):
            step = lo + f_lo * (hi - lo) / (f_lo - f_hi)
            if lo < step < hi:
                x = step
        g_x = bose_g(s, x, inner)
        if abs(g_x.value - target) + g_x.error_bound <= tol * target:
            return x
        f_x = g_x.value - target
        if f_x > 0.0:
            lo, f_lo = x, f_x
            if kept == "hi":
                f_hi *= 0.5
            kept = "hi"
        else:
            hi, f_hi = x, f_x
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
    mid = 0.5 * (lo + hi)
    g_final = bose_g(s, mid, inner)
    if abs(g_final.value - target) + g_final.error_bound <= tol * target:
        return mid
    raise PrecisionError(
        f"density-equation residual not certified below {tol} (d={d}, beta={beta}, rho={rho})"
    )


def solve_alpha(params: SystemParams, tol: float = _DEFAULT_TOL) -> ThermoSolution:
    """Resolve the phase point: regime, alpha, and all derived quantities.

    Normal regime (d <= 2 always; d >= 3 with rho < rho_c): alpha is the
    unique positive root of the density equation.  For d >= 3 with
    rho > rho_c there is no root; alpha = 0 and the excess density sits in
    unboundedly long cycles.  |rho - rho_c| <= tol * rho is labelled
    'critical' and handled on the condensed branch.
    """
    if tol < _MIN_TOL:
        raise ValidationError(f"tol must be >= {_MIN_TOL}, got {tol}")
    d, beta, rho = params.d, params.beta, params.rho
    rho_c = critical_density(d, beta, min(tol, 1e-13))
    beta_c = critical_beta(d, rho, min(tol, 1e-13))

    if d >= 3 and abs(rho - rho_c) <= tol * rho:
        regime, alpha = REGIME_CRITICAL, 0.0
    elif d >= 3 and rho > rho_c:
        regime, alpha = REGIME_CONDENSED, 0.0
    else:
        regime = REGIME_NORMAL
        alpha = _solve_root(d, beta, rho, tol, rho_c)

    factor = thermal_factor(d, beta)
    s_energy = (d + 2.0) / 2.0
    if regime == REGIME_NORMAL:
        g = bose_g(s_energy, alpha, max(tol * 1e-2, 1e-14))
        f = -g.value / (factor * beta) - rho * alpha / beta
        fraction = 0.0
    else:
        z = zeta(s_energy, min(tol, 1e-13))
        f = -z.value / (factor * beta)
        fraction = max(0.0, 1.0 - rho_c / rho)
    chi_val = beta * f / rho

    qs = qhat_star_factory(params)

    def cycle_mass(k: int, _a: float = alpha) -> float:
        return float(k) * qs(k) * math.exp(-_a * float(k))

    return ThermoSolution(
        regime=regime,
        alpha=alpha,
        rho_c=rho_c,
        beta_c=beta_c,
        condensate_fraction=fraction,
        free_energy=f,
        chi=chi_val,
        cycle_mass=cycle_mass,
    )


def optimal_shape(
    params: SystemParams, tol: float = _DEFAULT_TOL
) -> tuple[ThermoSolution, Callable[[int], float]]:
    """The minimising increments Qhat(k) = Qhat*(k) e^(-alpha k).

    In the normal regime sum_k k Qhat(k) = 1; in the condensed regime the
    shape carries only rho_c / rho of the mass (the rest escapes to
    unboundedly long cycles).
    """
    sol = solve_alpha(params, tol)
    qs = qhat_star_factory(params)
    alpha = sol.alpha

    def qhat(k: int) -> float:
        return qs(k) * math.exp(-alpha * float(k))

    return sol, qhat


def free_energy(params: SystemParams, tol: float = _DEFAULT_TOL) -> float:
    """Specific free energy f(beta, rho).

    Normal regime / d <= 2: -g_{(d+2)/2}(alpha)/((4 pi beta)^(d/2) beta)
    - rho alpha / beta.  Condensed (d >= 3, rho > rho_c): the alpha = 0 value,
    independent of rho.
    """
    return solve_alpha(params, tol).free_energy


def chi(params: SystemParams, tol: float = _DEFAULT_TOL) -> float:
    """Entropy infimum chi(beta, rho) = beta f / rho.

    This is the infimum of the shape functional over admissible shapes and
    the negative exponential growth rate of the finite-n normalisation.
    """
    return solve_alpha(params, tol).chi
