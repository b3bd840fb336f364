"""Phase structure of the cycle-weighted ensemble in the thermodynamic limit.

Solves the density constraint rho = (4 pi beta)^(-d/2) g_{d/2}(alpha) for the
exponential tilt alpha, locates the critical density/time-horizon for d >= 3,
and evaluates the limiting cycle-length distribution, condensate fraction,
specific free energy f and entropy infimum chi = beta f / rho.

It is also the one home of the cycle weight theta_k = |V| (4 pi beta k)^(-d/2) / k:
thermal_factor, the reference shape qhat_star = theta_k / n, the log-space
table log theta_k (_cycle_log_constants), which both the exact sums (exactz)
and the chain (sampler) read, so the chain does not load the exact engine,
and a partition's log weight (_occupation_log_weight), which the chain reads.

Density roots start from the root of _g_model, a float model of g_s and
of its slope -g_{s-1}, read in one pass over bosefn's one table of
small-alpha expansion coefficients (or its memoised j^-s); entropy's dual
root starts from the same model root.

All inputs are dimensionless; beta is the time horizon of a diffusion with
generator Laplacian (heat kernel (4 pi beta k)^(-d/2)), not Laplacian/2.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Optional

from .bosefn import _expansion_coefficients, _horner_slope, _powers, _singular, bose_g, zeta
from .errors import CAPS, PrecisionError, ValidationError, check_cap

INFINITE = math.inf

REGIME_NORMAL = "normal"
REGIME_CRITICAL = "critical"
REGIME_CONDENSED = "condensed"

_DEFAULT_TOL = 1e-10
_MIN_TOL = 1e-13


def _check_dimension(d: int) -> None:
    """Refuse a dimension that is not a positive int (a bool or float included)."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValidationError(f"dimension d must be a positive integer, got {d}")


class _SystemParams(NamedTuple):
    d: int
    beta: float
    rho: float
    n: Optional[int] = None


class SystemParams(_SystemParams):
    """Dimension, time horizon, density, and optional particle number.

    volume is derived as n / rho when n is set (so n / volume == rho).
    """

    __slots__ = ()

    def __new__(cls, d: int, beta: float, rho: float, n: Optional[int] = None) -> "SystemParams":
        _check_dimension(d)
        if not beta > 0 or not math.isfinite(beta):
            raise ValidationError(f"beta must be positive and finite, got {beta}")
        if not rho > 0 or not math.isfinite(rho):
            raise ValidationError(f"rho must be positive and finite, got {rho}")
        if n is not None and (not isinstance(n, int) or isinstance(n, bool) or n < 1):
            raise ValidationError(f"n must be a positive integer when set, got {n}")
        return _SystemParams.__new__(cls, d, beta, rho, n)

    @property
    def volume(self) -> float:
        if self.n is None:
            raise ValidationError("volume requires the particle number n to be set")
        volume = self.n / self.rho
        if not math.isfinite(volume):
            raise ValidationError(f"volume n / rho overflows at n={self.n}, rho={self.rho}")
        return volume

    def with_n(self, n: int) -> "SystemParams":
        return type(self)(self.d, self.beta, self.rho, n)


class ThermoSolution(NamedTuple):
    """Resolved phase point: regime, tilt alpha, and derived quantities."""

    regime: str
    alpha: float
    rho_c: float
    beta_c: float
    condensate_fraction: float
    free_energy: float
    chi: float


def thermal_factor(d: int, beta: float) -> float:
    """(4 pi beta)^(d/2): a k-cycle weighs (4 pi beta k)^(-d/2) / k.

    The one home of that convention; ValidationError outside the floats.
    """
    try:
        factor = (4.0 * math.pi * beta) ** (d / 2.0)
    except OverflowError:
        factor = INFINITE
    if not 0.0 < factor < INFINITE:
        raise ValidationError(f"(4 pi beta)^(d/2) leaves the float range at d={d}, beta={beta}")
    return factor


def _density_scale(d: int, rho: float, factor: float) -> float:
    """rho (4 pi beta)^(d/2) from factor = thermal_factor(d, beta).

    ValidationError unless it is a normal float: 1/scale is then finite, and
    a subnormal value keeps too few significant bits to certify a root.
    """
    scale = rho * factor
    if scale == INFINITE:
        raise ValidationError(f"rho (4 pi beta)^(d/2) overflows at d={d}, rho={rho}")
    if scale < sys.float_info.min:
        raise ValidationError(
            f"rho (4 pi beta)^(d/2) = {scale!r} is below the normal floats at d={d}, rho={rho}"
        )
    return scale


def qhat_star(params: SystemParams, k):
    """Qhat*(k) = 1/(rho (4 pi beta)^(d/2) k^(1+d/2)), k a float or float array.

    n Qhat*(k) is theta_k, the weight of a k-cycle.  Linear, unlike its log
    twin _cycle_log_constants, and neither is a view of the other: this one
    refuses a subnormal rho (4 pi beta)^(d/2), where the log table stays finite.
    """
    d = params.d
    c = 1.0 / _density_scale(d, params.rho, thermal_factor(d, params.beta))
    return c * k ** (-(1.0 + d / 2.0))


def _require_n(params: SystemParams) -> int:
    if params.n is None:
        raise ValidationError("this operation needs params.n set")
    return params.n


@lru_cache(maxsize=None)
def _log_table(size: int) -> tuple[float, ...]:
    """math.log(k) for k = 1..size - 1, after a 0.0 in slot 0.

    Read by _cycle_log_constants at the power of two above n, and by
    ChainState at the one above n + 2, so the table is built at most once
    per octave of n up to the chain cap.
    """
    return (0.0, *map(math.log, range(1, size)))


def _cycle_log_constants(params: SystemParams, route: str) -> list[float]:
    """c[k] = log(n Qhat*(k)) = log(|V| / (4 pi beta)^(d/2)) - (1 + d/2) log k.

    For k = 0..n (c[0] unused); in log space, as n Qhat*(k) underflows at large d.
    Built from log(n / rho), not from qhat_star, so it is finite wherever the
    volume is, and its bits do not depend on qhat_star's rounding.
    The one gate into the exact engine and the chain: n = params.n must be set
    and within the cap of `route` before the table is built.
    """
    n = _require_n(params)
    check_cap(route, n)
    log_w = math.log(params.volume) - math.log(thermal_factor(params.d, params.beta))
    e = 1.0 + params.d / 2.0
    return [0.0] + [log_w - e * log_k for log_k in _log_table(1 << n.bit_length())[1 : n + 1]]


def _occupation_log_weight(
    occupations: Iterable[tuple[int, int]], c: list[float]
) -> float:
    """sum_k r_k c[k] - log(r_k!) over the (k, r_k) pairs of one partition."""
    w = 0.0
    for k, r in occupations:
        w += r * c[k] - math.lgamma(r + 1)
    return w


def critical_density(d: int, beta: float) -> float:
    """zeta(d/2) (4 pi beta)^(-d/2) for d >= 3; infinite (no transition) for d = 1, 2.

    ValidationError where the quotient overflows.
    """
    _check_dimension(d)
    if not 0.0 < beta < INFINITE:  # NaN fails too
        raise ValidationError(f"beta must be positive and finite, got {beta}")
    if d <= 2:
        return INFINITE
    rho_c = zeta(d / 2.0, _MIN_TOL).value / thermal_factor(d, beta)
    if rho_c == INFINITE:
        raise ValidationError(f"rho_c overflows at d={d}, beta={beta}")
    return rho_c


def critical_beta(d: int, rho: float) -> float:
    """Time horizon above which condensation sets in at density rho (d >= 3).

    Defined by rho = rho_c(beta_c), i.e. (1/4pi) (zeta(d/2)/rho)^(2/d);
    infinite for d = 1, 2 where no condensation occurs.  The powers precede
    the quotient, so beta_c is finite (< 1e216) for every positive float rho.
    """
    _check_dimension(d)
    if not 0.0 < rho < INFINITE:  # NaN fails too
        raise ValidationError(f"rho must be positive and finite, got {rho}")
    if d <= 2:
        return INFINITE
    e = 2.0 / d
    return zeta(d / 2.0, _MIN_TOL).value ** e / rho**e / (4.0 * math.pi)


def _log1mexp(x: float) -> float:
    """log(1 - e^-x) for x > 0, accurate as e^-x nears 0 or 1 (Maechler 2012)."""
    return math.log1p(-math.exp(-x)) if x > math.log(2.0) else math.log(-math.expm1(-x))


def _bracketed_root(
    f: Callable[[float], tuple[float, float]],
    a: float,
    f_a: float,
    b: float,
    tol_abs: float,
    u: tuple[Callable[[float], float], Callable[[float], float]],
    start: tuple[float, Optional[float]],
) -> tuple[float, float]:
    """The x between a and b where a decreasing f crosses zero, and f(x).

    f(x) returns (value, error_bound); f_a is f's value at a, where f is not
    evaluated, or NaN where it is not known, and the caller proves that f has
    the other sign at b.  Steps are taken in the coordinate u[0] (inverse
    u[1]) in which f is about linear.  start = (x0, slope), x0 in [a, b]:
    f(x0) is evaluated first and replaces the end on its side of the root,
    and b, unless it is x0, is evaluated only as the last candidate once the
    bracket is at float resolution.  With slope an estimate of df/du at x0,
    the first step is Newton's with it and each later one a secant through
    the last two evaluations.  With slope None (a caller with no seed starts
    at (b, None)) every step is regula falsi with the Illinois modification
    (Dowell & Jarratt, BIT 11, 168 (1971)), which halves the value kept at
    an end retained twice in a row.  A Newton or secant step that leaves the
    open bracket, or a zero slope, falls back to the Illinois step, and that
    to bisection where it leaves the bracket too or an end's value is not
    known.  Returns the first evaluation with |f(x)| + error_bound <=
    tol_abs; PrecisionError after CAPS["root_evals"] evaluations or at float
    resolution.
    """
    to_u, from_u = u
    x, slope = start
    f_x, error = f(x)
    if abs(f_x) + error <= tol_abs:
        return x, f_x
    # NaN: an end not evaluated; the start replaces the end on its side
    lo, hi, f_lo, f_hi = (a, b, f_a, math.nan) if a < b else (b, a, math.nan, f_a)
    if f_x > 0.0:
        lo, f_lo = x, f_x
    else:
        hi, f_hi = x, f_x
    u_x = to_u(x)
    kept = None  # the end the last step left in place
    for _ in range(CAPS["root_evals"].limit - 1):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # the bracket is at floating-point resolution: an end not
            # evaluated is the last candidate
            if math.isnan(f_lo) or math.isnan(f_hi):
                x = hi if math.isnan(f_hi) else lo
                f_x, error = f(x)
                if abs(f_x) + error <= tol_abs:
                    return x, f_x
            break
        u_lo, u_hi = to_u(lo), to_u(hi)
        step = math.nan
        if slope:  # Newton's step with the start's slope, then the secant's
            v = u_x - f_x / slope
            if (v - u_lo) * (v - u_hi) < 0.0:
                step = from_u(v)
        if not lo < step < hi:  # Illinois, which a NaN end turns into bisection
            step = from_u(u_lo + f_lo * (u_hi - u_lo) / (f_lo - f_hi))
            if not lo < step < hi:
                step = mid
        x, f_prev = step, f_x
        f_x, error = f(x)
        if abs(f_x) + error <= tol_abs:
            return x, f_x
        if slope is not None:  # the secant through the last two evaluations
            u_prev, u_x = u_x, to_u(x)
            slope = (f_x - f_prev) / (u_x - u_prev) if u_x != u_prev else 0.0
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
    raise PrecisionError(f"root not certified to {tol_abs:.3g}: last step {x!r} in [{lo!r}, {hi!r}]")


# The seed's float model of g_s switches from the small-alpha expansion to the
# e^-alpha series at _SEED_SWITCH; with _SEED_TERMS terms each, both are
# within about 1e-11 relative of g_s there, where they are worst.
_SEED_SWITCH = 1.5
_SEED_TERMS = 16
_SEED_NEWTON = 8  # at most; 6 sufficed at d = 1, 3-6, 8 on 20 targets a decade over the floats

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_ALPHA = ((math.sqrt, lambda v: v * v), lambda alpha: 2.0 * math.sqrt(alpha))
_INV_SQRT_ALPHA = ((lambda x: x**-0.5, lambda v: v**-2.0), lambda alpha: -2.0 * alpha**1.5)


def _coordinate(s: float):
    """The coordinate u of a root of g_s(alpha) = target, as (u, its inverse), and dalpha/du.

    g_s is about linear in sqrt(alpha) for s > 1 and in alpha^(-1/2) below.
    """
    return _SQRT_ALPHA if s > 1.0 else _INV_SQRT_ALPHA


def _g_model(s: float, alpha: float) -> tuple[float, float]:
    """A float model of g_s(alpha) and of g_{s-1}(alpha) = -d g_s / d alpha, in one pass.

    alpha > 0, s a multiple of 1/2 that is not below -1/2.  Below
    _SEED_SWITCH the model of g_s is bosefn's small-alpha expansion cut
    after _SEED_TERMS terms, on its memoised coefficient table; from there
    on the series sum_j j^-s e^(-alpha j) cut after as many terms, on
    bosefn's memoised j^-s.  The model of g_{s-1} is minus its derivative:
    _singular(s - 1) less the Horner sum's derivative below the switch, and
    sum_j j^(1-s) e^(-alpha j) above it.
    """
    if alpha >= _SEED_SWITCH:
        y = math.exp(-alpha)
        total, slope = _horner_slope(_powers(s)[:_SEED_TERMS], y)
        return y * total, y * (total + y * slope)
    total, slope = _horner_slope(_expansion_coefficients(s, _SEED_TERMS)[0], alpha)
    return _singular(s, alpha) + total, _singular(s - 1.0, alpha) - slope


def _root_seed(s: float, target: float, a: float, b: float) -> Optional[tuple[float, float]]:
    """A start (alpha0, g1) for a root of g_s(alpha) = target, alpha0 in [a, b], or None.

    alpha0 is the root of _g_model, by Newton's method in the coordinate
    _coordinate(s), from a first guess that inverts a few of g_s's terms;
    each step reads the model's value and slope from one pass.  It stops
    after a step of at most 1e-6 relative, which leaves about 1e-12, and g1
    is then the last pass's model of g_{s-1}, which that step moves by about
    1e-6 relative: the model's slope in alpha is -g1.  alpha0 is clamped
    into [a, b]; a clamped or unconverged alpha0 takes one more pass for g1.

    The first guess: at s = 1, g_1 inverts in closed form.  At s = 3/2,
    zeta(3/2) - 2 sqrt(pi) v - zeta(1/2) v^2 = target is solved for
    v = sqrt(alpha) in closed form where its root has alpha <= 1/2.  Any
    other target below 1 solves y + 2^-s y^2 + 3^-s y^3 = target for
    y = e^-alpha by Newton's method from y = target, above the root of the
    convex cubic.  Otherwise it is Gamma(1-s) alpha^(s-1) + zeta(s) = target
    below s = 2 and zeta(s) - zeta(s-1) alpha = target from there.  At s = 3/2
    the guess is 0.8%, 4% and 1.5% off at alpha 0.2, 0.45 and 0.8, where
    the leading terms alone are 33-58% off, and the root then takes at most
    3 passes from alpha 0.3 to 1.5.  There is no start (None) where the
    first guess is not above 0, a target at or past the table's zeta(s), or
    where the model leaves the floats (at d = 1 past t = 1e102,
    alpha^(-3/2) in its slope overflows).
    """
    (to_u, from_u), dalpha_du = _coordinate(s)
    zeta_s, minus_zeta_s1 = _expansion_coefficients(s, _SEED_TERMS)[0][:2]
    gap = zeta_s - target
    if s == 1.0:  # g_1(alpha) = -log(1 - e^-alpha)
        alpha = -_log1mexp(target)
    elif s == 1.5 and gap <= _SQRT_2PI - 0.5 * minus_zeta_s1:  # the root v <= 1/sqrt(2)
        v = gap / (_SQRT_PI + math.sqrt(math.pi - minus_zeta_s1 * gap))
        alpha = v * v if v > 0.0 else 0.0
    elif target < 1.0:
        _, c2, c3 = _powers(s)[:3]
        y = target
        for _ in range(_SEED_NEWTON):
            step = (y * (1.0 + y * (c2 + y * c3)) - target) / (1.0 + y * (2.0 * c2 + 3.0 * c3 * y))
            y -= step
            if step <= 1e-6 * y:
                break
        alpha = -math.log(y)
    elif s < 2.0:
        alpha = (-gap / math.gamma(1.0 - s)) ** (1.0 / (s - 1.0))
    else:  # at s = 2, zeta(1) is the pole and 1 stands in
        alpha = gap / (-minus_zeta_s1 or 1.0)
    if not alpha > 0.0:
        return None
    near = False  # whether the last pass's g1 holds at alpha
    try:
        for _ in range(_SEED_NEWTON):
            v = to_u(alpha)
            g, g1 = _g_model(s, alpha)
            step = (g - target) / (-g1 * dalpha_du(alpha))
            if not v - step > 0.0:
                break
            alpha = from_u(v - step)
            near = abs(step) <= 1e-6 * v
            if near:
                break
        # within a few ulps of b the model cannot tell the root from b (t - g(b),
        # about t^2, is below the float resolution of t), and b is the root
        if alpha >= b - 4.0 * math.ulp(b):
            alpha, near = b, False
        elif alpha < a:
            alpha, near = a, False
        return alpha, g1 if near else _g_model(s, alpha)[1]
    except ArithmeticError:
        return None


def _solve_root(d: int, rho: float, factor: float, tol: float, rho_c: float) -> float:
    """The unique alpha > 0 with g_{d/2}(alpha) = rho (4 pi beta)^(d/2).

    d = 2 inverts g_1 in closed form.  d = 1 and d >= 3 narrow a bracket
    whose ends analytic bounds on g_{d/2} prove: [0, log1p(1/target)] at
    d >= 3, where g_{d/2}(0) = zeta(d/2) lies above the target.  They start
    from _root_seed, the root of a float model of g_{d/2}, and take secant
    steps in the coordinate where g_{d/2} is about linear: sqrt(alpha) at
    d >= 3, alpha^(-1/2) at d = 1.  The seed changes only where the root is
    looked for: every evaluation lies in the bracket, and the root is still
    the first one certified to tol.
    """
    target = _density_scale(d, rho, factor)
    if d == 2:  # g_1(alpha) = -log(1 - e^-alpha), checked at the float alpha
        alpha = -_log1mexp(target)
        if not (alpha > 0.0 and abs(_log1mexp(alpha) + target) <= tol * target):
            raise PrecisionError(f"alpha is not certified to {tol} in floats at d=2, rho={rho}")
        return alpha
    s = d / 2.0
    inner = max(tol * target / 8.0, 1e-14)

    def excess(alpha: float) -> tuple[float, float]:
        g = bose_g(s, alpha, inner)
        return g.value - target, g.error_bound

    # g_s(alpha) < sum_k e^(-alpha k) = 1/(e^alpha - 1) term by term, so g_s < target at b
    b = math.log1p(1.0 / target)
    if d >= 3:
        a, f_a = 0.0, rho_c * factor - target
    else:
        # sqrt(pi/alpha) - 2 < g_(1/2)(alpha) < sqrt(pi/alpha) by integral comparison and
        # e^-alpha < g_(1/2)(alpha) term by term; dividing twice cannot overflow
        a = max(math.pi / (target + 2.0) / (target + 2.0), -math.log(target))
        b = min(math.pi / target / target, b)
        if a == 0.0:
            raise PrecisionError(f"alpha underflows at d=1, rho={rho}")
        f_a = math.nan  # positive, and not evaluated
    u, dalpha_du = _coordinate(s)
    seed = _root_seed(s, target, a, b)
    start = (b, None) if seed is None else (seed[0], -seed[1] * dalpha_du(seed[0]))
    return _bracketed_root(excess, a, f_a, b, tol * target, u, start)[0]


def solve_alpha(params: SystemParams, tol: float = _DEFAULT_TOL) -> ThermoSolution:
    """Resolve the phase point: regime, alpha, and all derived quantities.

    Normal regime (d <= 2 always; d >= 3 with rho < rho_c): alpha is the
    unique positive root of the density equation.  For d >= 3 with
    rho > rho_c there is no root; alpha = 0 and the excess density sits in
    unboundedly long cycles.  |rho - rho_c| <= tol * rho is labelled
    'critical' and handled on the condensed branch.
    """
    if not _MIN_TOL <= tol < 1.0:
        raise ValidationError(f"tol must be in [{_MIN_TOL}, 1), got {tol}")
    d, beta, rho = params.d, params.beta, params.rho
    factor = thermal_factor(d, beta)
    # |f| times it is at most zeta(3/2), so a normal divisor keeps f finite
    if factor * beta < sys.float_info.min:
        raise ValidationError(
            f"(4 pi beta)^(d/2) beta = {factor * beta!r} is below the normal floats"
            f" at d={d}, beta={beta}"
        )
    rho_c = critical_density(d, beta)
    beta_c = critical_beta(d, rho)

    if d >= 3 and abs(rho - rho_c) <= tol * rho:
        regime, alpha = REGIME_CRITICAL, 0.0
    elif d >= 3 and rho > rho_c:
        regime, alpha = REGIME_CONDENSED, 0.0
    else:
        regime = REGIME_NORMAL
        alpha = _solve_root(d, rho, factor, tol, rho_c)

    g = bose_g((d + 2.0) / 2.0, alpha, max(tol * 1e-2, 1e-14))  # zeta at alpha = 0
    f = -g.value / (factor * beta) - rho * alpha / beta
    return ThermoSolution(
        regime=regime,
        alpha=alpha,
        rho_c=rho_c,
        beta_c=beta_c,
        condensate_fraction=max(0.0, 1.0 - rho_c / rho),
        free_energy=f,
        chi=beta * f / rho,
    )


def optimal_shape(
    params: SystemParams, tol: float = _DEFAULT_TOL
) -> tuple[ThermoSolution, Callable[[int], float]]:
    """The minimising increments Qhat(k) = Qhat*(k) e^(-alpha k).

    Qhat*(k) = 1/(rho (4 pi beta)^(d/2) k^(1+d/2)) is the reference shape.
    In the normal regime sum_k k Qhat(k) = 1; in the condensed regime the
    shape carries only rho_c / rho of the mass (the rest escapes to
    unboundedly long cycles).
    """
    sol = solve_alpha(params, tol)
    alpha = sol.alpha

    def qhat(k: int) -> float:
        return qhat_star(params, float(k)) * math.exp(-alpha * float(k))

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
