"""Bose functions g_s(alpha) = sum_{k>=1} k^-s e^(-alpha k) with certified errors.

Every evaluation returns the value together with a rigorous truncation bound.
For alpha > 0 the series is summed directly with a geometric/integral tail
bound; for alpha = 0 the series is the Riemann zeta function and is
accelerated by Euler-Maclaurin summation (direct summation is hopeless near
s = 1).  The Euler-Maclaurin form also provides the analytic continuation of
zeta below 1, which the small-alpha expansion needs for its zeta(s - k) terms.

Error bounds certify series truncation; double-precision rounding is outside
their scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, PrecisionError, ValidationError

TERM_CAP = 10**8
_CHUNK = 1 << 16
_MIN_TOL = 1e-14


@dataclass(frozen=True)
class BoseEval:
    """A series value with a rigorous bound on the truncation error."""

    value: float
    error_bound: float
    terms_used: int

    def __post_init__(self) -> None:
        if self.error_bound < 0:
            raise ValidationError("error_bound must be nonnegative")
        if self.terms_used < 1:
            raise ValidationError("terms_used must be >= 1")


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        total += math.comb(n + 1, j) * _bernoulli(j)
    return -total / (n + 1)


def _rising(s: float, r: int) -> float:
    """Rising factorial s (s+1) ... (s+r-1)."""
    out = 1.0
    for i in range(r):
        out *= s + i
    return out


@lru_cache(maxsize=1024, typed=True)
def _zeta_em(s: float, tol: float) -> BoseEval:
    """Riemann zeta by Euler-Maclaurin, valid for real s != 1.

    Below s = 1 this is the analytic continuation; the remainder after the
    B_{2m} correction is bounded by the first omitted term (real s).
    Memoised: the expansion's zeta(s - k) coefficients do not depend on
    alpha, so a root solve pays for them once.  typed=True keeps an int s
    (whose numpy power takes another path) apart from the equal float.
    """
    if abs(s - 1.0) < 1e-12:
        raise DivergenceError("zeta has a pole at s = 1")
    # enough correction terms that the remainder decays: need s + 2m + 1 > 1
    m = max(6, math.ceil((3.0 - s) / 2.0) + 3)
    b_over_fact = [
        float(_bernoulli(2 * j)) / math.factorial(2 * j) for j in range(1, m + 2)
    ]
    n = 16
    while True:
        remainder = abs(b_over_fact[m] * _rising(s, 2 * m + 1)) * n ** (-s - 2 * m - 1)
        if remainder <= tol:
            break
        if n > 10**7:
            raise PrecisionError(
                f"cannot certify zeta({s}) to {tol} within the summation cap"
            )
        n *= 2
    ks = np.arange(1, n, dtype=np.float64)
    partial = float(np.sum(ks ** (-s)))
    value = partial + n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** (-s)
    for j in range(1, m + 1):
        value += b_over_fact[j - 1] * _rising(s, 2 * j - 1) * n ** (-s - 2 * j + 1)
    return BoseEval(value=value, error_bound=remainder, terms_used=n - 1 + m)


def zeta(s: float, tol: float) -> BoseEval:
    """Riemann zeta for s > 1, Euler-Maclaurin accelerated, certified."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if s <= 1.0:
        raise DivergenceError(f"zeta diverges for s <= 1, got s={s}")
    if s <= 1.0 + 1e-9:
        raise ValidationError("s must exceed 1 + 1e-9 for a certified evaluation")
    return _zeta_em(s, tol)


def zeta_continued(s: float, tol: float = 1e-13) -> BoseEval:
    """Analytic continuation of zeta to s < 1 (s != 1), certified."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if s >= 1.0:
        return zeta(s, tol)
    return _zeta_em(s, tol)


def _tail_bound(s: float, alpha: float, k: int) -> float:
    """Rigorous bound on sum_{j>k} j^-s e^(-alpha j)."""
    geom = (k + 1.0) ** (-s) * math.exp(-alpha * (k + 1.0)) / (-math.expm1(-alpha))
    if s > 1.0:
        integral = k ** (1.0 - s) / (s - 1.0)
        return min(geom, integral)
    return geom


def _bose_direct(s: float, alpha: float, tol: float) -> BoseEval:
    """Direct summation with geometric/integral tail certification."""
    k = 16
    while _tail_bound(s, alpha, k) > tol:
        k *= 2
        if k > TERM_CAP:
            raise PrecisionError(
                f"cannot certify g_{s}({alpha}) to {tol} within {TERM_CAP} terms"
            )
    chunk_sums = []
    for lo in range(1, k + 1, _CHUNK):
        hi = min(lo + _CHUNK, k + 1)
        js = np.arange(lo, hi, dtype=np.float64)
        chunk_sums.append(float(np.sum(js ** (-s) * np.exp(-alpha * js))))
    value = math.fsum(chunk_sums)
    return BoseEval(value=value, error_bound=_tail_bound(s, alpha, k), terms_used=k)


_LOG2 = math.log(2.0)
_LOG_PI = math.log(math.pi)
_LOG_ZETA2 = math.log(math.pi**2 / 6.0)


def _expansion_term_bound(s: float, alpha: float, k: int) -> float:
    """Upper bound on |zeta(s-k)| alpha^k / k! for k >= s + 1.

    Uses the functional equation: |zeta(s-k)| <= 2^(s-k) pi^(s-k-1)
    Gamma(1+k-s) zeta(1+k-s), and zeta(1+k-s) <= zeta(2) once 1+k-s >= 2.
    """
    return math.exp(
        _LOG_ZETA2
        + (s - k) * _LOG2
        + (s - k - 1.0) * _LOG_PI
        + math.lgamma(1.0 + k - s)
        - math.lgamma(k + 1.0)
        + k * math.log(alpha)
    )


def _expansion_sum(
    s: float, alpha: float, k_top: int, inner_tol: float
) -> tuple[float, float]:
    """Explicit part of the small-alpha expansion of g_s(alpha), with its error.

    Returns (total, inner_err): the singular leading term plus
    sum_{k=0}^{k_top} zeta(s-k) (-alpha)^k / k! (the k = s-1 term folded
    into the -log(alpha) branch for integer s), and the summed certified
    error of the zeta values, each evaluated to inner_tol.
    """
    s_int = round(s)
    is_integer = abs(s - s_int) < 1e-12 and s_int >= 1
    if is_integer:
        prefactor = (-alpha) ** (s_int - 1) / math.factorial(s_int - 1)
        harmonic = sum(1.0 / m for m in range(1, s_int))
        total = prefactor * (-math.log(alpha) + harmonic)
    else:
        total = math.gamma(1.0 - s) * alpha ** (s - 1.0)
    inner_err = 0.0
    coeff = 1.0  # (-alpha)^k / k!, built incrementally
    for k in range(0, k_top + 1):
        if k > 0:
            coeff *= -alpha / k
        if is_integer and k == s_int - 1:
            continue
        z = _zeta_em(s - k, inner_tol)
        total += z.value * coeff
        inner_err += z.error_bound * abs(coeff)
    return total, inner_err


def _bose_expansion(s: float, alpha: float, tol: float) -> BoseEval:
    """Convergent expansion of g_s about alpha = 0, certified for alpha <= 0.5.

    The terms zeta(s-k) (-alpha)^k / k! eventually decay geometrically with
    ratio alpha/(2 pi); the tail after the last explicit term is bounded via
    the functional-equation estimate in _expansion_term_bound.
    """
    if alpha > 0.5:
        raise ValidationError("expansion path requires alpha <= 0.5")

    # explicit terms: at least past k = s + 1 so the tail bound applies
    k_top = max(math.ceil(s) + 2, 8)
    ratio = alpha / (2.0 * math.pi)
    while True:
        tail = _expansion_term_bound(s, alpha, k_top + 1) / (1.0 - ratio)
        if tail <= tol / 2.0:
            break
        k_top += 4
        if k_top > 400:
            raise PrecisionError(
                f"expansion of g_{s}({alpha}) did not certify to {tol}"
            )

    inner_tol = max(tol / (8.0 * (k_top + 1)), 1e-15)
    total, inner_err = _expansion_sum(s, alpha, k_top, inner_tol)
    return BoseEval(
        value=total, error_bound=tail + inner_err, terms_used=k_top + 1
    )


# "auto" sums directly up to this many terms when alpha <= 0.5.  Median of
# 30 calls on a 2-vCPU x86-64 host (one core, tol 2.6e-11), s = 1 / s = 1.5:
#   direct terms    4,096   8,192  16,384  32,768  262,144  524,288
#   direct ms       0.045   0.067   0.120   0.750    4.5      8.5     (s = 1)
#                   0.069   0.098   0.175   0.860    5.3     10.2     (s = 1.5)
#   expansion ms    0.25-0.33 with a cold zeta cache, about 0.01 warm
# Beyond 16,384 terms the temporaries pass glibc's 128 KB mmap threshold and
# every call pays fresh page faults.  A root solve evaluates the expansion
# warm after its first call, so the crossover sits below the cold break-even.
_DIRECT_TERMS_MAX = 1 << 13


def bose_g(s: float, alpha: float, tol: float, method: str = "auto") -> BoseEval:
    """g_s(alpha) = sum_{k>=1} k^-s e^(-alpha k), with certified truncation.

    alpha = 0 requires s > 1 (the value is zeta(s), evaluated by
    Euler-Maclaurin); alpha > 0 converges for every s > 0.  `method` picks
    the evaluation route: "direct" term-by-term summation, "expansion" the
    certified small-alpha expansion (alpha <= 0.5), or "auto" by measured
    cost: direct summation when alpha > 0.5 or when it certifies within
    _DIRECT_TERMS_MAX terms, the expansion otherwise (its alpha-independent
    zeta coefficients are cached, so repeated calls cost microseconds).
    """
    if s <= 0:
        raise ValidationError(f"series order s must be positive, got {s}")
    if alpha < 0:
        raise ValidationError(f"alpha must be >= 0, got {alpha}")
    if tol < _MIN_TOL:
        raise ValidationError(f"tol must be >= {_MIN_TOL}, got {tol}")
    if method not in ("auto", "direct", "expansion"):
        raise ValidationError(f"unknown method {method!r}")
    if alpha == 0.0:
        if s <= 1.0:
            raise DivergenceError(
                f"g_s(0) diverges for s <= 1, got s={s}; need alpha > 0"
            )
        return _zeta_em(s, tol)

    if method == "direct":
        return _bose_direct(s, alpha, tol)
    if method == "expansion":
        return _bose_expansion(s, alpha, tol)
    k = 16
    while k <= _DIRECT_TERMS_MAX and _tail_bound(s, alpha, k) > tol:
        k *= 2
    if k <= _DIRECT_TERMS_MAX or alpha > 0.5:
        return _bose_direct(s, alpha, tol)
    return _bose_expansion(s, alpha, tol)


def bose_small_alpha(s: float, alpha: float, k_max: int) -> float:
    """Truncated expansion of g_s(alpha) about alpha = 0.

    Non-integer s:  Gamma(1-s) alpha^(s-1) + sum_{k=0}^{k_max} zeta(s-k) (-alpha)^k / k!
    Integer s:      the -log(alpha) branch replaces the k = s-1 term:
                    (-alpha)^(s-1)/(s-1)! [-log(alpha) + sum_{m=1}^{s-1} 1/m]
                    plus the regular sum skipping k = s-1.

    zeta below 1 is supplied by the Euler-Maclaurin continuation.
    """
    if not 0.0 < alpha <= 0.5:
        raise ValidationError(f"alpha must lie in (0, 0.5], got {alpha}")
    if s <= 0:
        raise ValidationError(f"series order s must be positive, got {s}")
    if k_max < 0:
        raise ValidationError(f"k_max must be >= 0, got {k_max}")
    s_int = round(s)
    is_integer = abs(s - s_int) < 1e-12 and s_int >= 1
    for k in range(0, k_max + 1):
        if is_integer and k == s_int - 1:
            continue
        arg = s - k
        if abs(arg - 1.0) <= 1e-9:
            raise ValidationError(
                f"expansion term k={k} evaluates zeta at {arg}, too close to the pole"
            )
    return _expansion_sum(s, alpha, k_max, 1e-13)[0]
