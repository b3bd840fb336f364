"""Bose functions g_s(alpha) = sum_{k>=1} k^-s e^(-alpha k) with certified errors.

The order s is a positive multiple of 1/2: a k-cycle in d dimensions weighs
(4 pi beta k)^(-d/2), so only g_{d/2} and g_{(d+2)/2} are ever needed.  Every
evaluation returns the value together with a rigorous truncation bound.  For
alpha > 0 the series is summed directly, at most 64 terms with a
geometric/integral tail bound, or else by the small-alpha expansion; for
alpha = 0 it is the Riemann zeta function, accelerated by Euler-Maclaurin
summation of one fixed order (direct summation is hopeless near s = 1).  The
small-alpha expansion (Robinson, Phys. Rev. 83, 678 (1951)) is written once:
_singular plus a Horner sum over _expansion_coefficients, one memoised table
of zeta(s - k) (-1)^k / k! at one tol, which thermo's root seed reads too.
Its zetas reach orders down to about -30; those at or below 0 come from the
functional equation, zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s)
zeta(1-s), whose factor less the sine also bounds the expansion's tail.
Error bounds certify series truncation, not rounding.

Every direct sum is a math.fsum of Python floats, exactly rounded: the zeta
head sum_{k<n} k^-s (n is 16 to a few hundred in practice) and _bose_direct,
the one direct sum of k^-s e^(-lam k), as _em_bracket is its one
Euler-Maclaurin tail (entropy's truncated polylogarithm reads both).  Its
first _DIRECT_TERMS_MAX powers k^-s are memoised in _powers, whose first 16
thermo's root seed reads too.  The module needs no NumPy.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import mul
from typing import NamedTuple

from .errors import CAPS, DivergenceError, PrecisionError, ValidationError

_MIN_TOL = 1e-14


class _BoseEval(NamedTuple):
    value: float
    error_bound: float
    terms_used: int


class BoseEval(_BoseEval):
    """A series value with a rigorous bound on the truncation error."""

    __slots__ = ()

    def __new__(cls, value: float, error_bound: float, terms_used: int) -> "BoseEval":
        if not error_bound >= 0:  # NaN fails too
            raise ValidationError("error_bound must be nonnegative")
        if terms_used < 1:
            raise ValidationError("terms_used must be >= 1")
        return _BoseEval.__new__(cls, value, error_bound, terms_used)


# B_2j / (2j)! for j = 1..7: the corrections of Euler-Maclaurin order
# _EM_ORDER and the coefficient of its first omitted term.  For s > 0 that
# term decays like n^(-s-13), so one order serves every s that _zeta_em sums.
_EM_ORDER = 6
_B_OVER_FACT = tuple(
    b / math.factorial(2 * j)
    for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6), start=1)
)


def _rising(s: float, n: int) -> list[float]:
    """(s)_i n^-i for i = 0..2 _EM_ORDER + 1, the factors of _em_bracket's derivatives."""
    rising = [1.0]
    for i in range(2 * _EM_ORDER + 1):
        rising.append(rising[-1] * (s + i) / n)
    return rising


def _em_bracket(s: float, lam: float, n: int, rising: list[float] | None = None) -> tuple[float, float]:
    """Euler-Maclaurin at n for the tail sum_{k>=n} f(k) of f(x) = x^-s e^(-lam x).

    The tail is the integral of f over [n, inf) plus f(n) (bracket + R).  Returns
    (bracket, first_omitted), relative to f(n): the half end term plus _EM_ORDER
    corrections B_2j/(2j)! |f^(2j-1)(n)|, and the size of the next one, with
    |f^(r)(n)| / f(n) = sum_i C(r, i) lam^(r-i) (s)_i n^-i (signed for s <= 0).
    For s > 0 and lam >= 0, f is completely monotone and |R| <= first_omitted.
    rising is _rising(s, n), built here unless the caller has it: a table over
    s, s - 1, ... builds each from the last, as (s - 1)_(i+1) = (s - 1) (s)_i.
    """
    if rising is None:
        rising = _rising(s, n)
    # |f^(r)(n)| / f(n) for odd r; at lam = 0 the sum's one nonzero term, a quarter the cost
    odd = [
        math.fsum(math.comb(r, i) * lam ** (r - i) * rising[i] for i in range(r + 1))
        for r in range(1, 2 * _EM_ORDER + 2, 2)
    ] if lam else rising[1::2]
    return math.fsum((0.5, *map(mul, _B_OVER_FACT, odd[:-1]))), abs(_B_OVER_FACT[-1] * odd[-1])


_LOG2 = math.log(2.0)
_LOG_PI = math.log(math.pi)
_LOG_ZETA2 = math.log(math.pi**2 / 6.0)


def _log_reflection(x: float) -> float:
    """log |2^x pi^(x-1) Gamma(1-x)| for x < 1, the functional equation's factor.

    zeta(x) = sin(pi x/2) e^_log_reflection(x) zeta(1-x).
    """
    return x * _LOG2 + (x - 1.0) * _LOG_PI + math.lgamma(1.0 - x)


@lru_cache(maxsize=1024)
def _zeta_em(s: float, tol: float) -> BoseEval:
    """Riemann zeta for real s != 1, certified to tol.

    For s > 0 the terms below n are summed directly, and the rest is the
    integral n^(1-s)/(s-1) plus n^-s times _em_bracket(s, 0, n).  For s <= 0,
    the continuation that the small-alpha expansion sums, it is the
    functional equation: zeta(0) = -1/2 and the trivial zeros are exact, and
    elsewhere zeta(1-s) to tol over the factor e^_log_reflection(s) bounds
    the error by tol.  Memoised: the expansion's zeta(s - k) coefficients do
    not depend on alpha, so a root solve pays for them once.
    """
    if abs(s - 1.0) < 1e-12:
        raise DivergenceError("zeta has a pole at s = 1")
    if s <= 0.0:
        if s % 2.0 == 0.0:
            return BoseEval(value=-0.5 if s == 0.0 else 0.0, error_bound=0.0, terms_used=1)
        factor = math.exp(_log_reflection(s))
        z = _zeta_em(1.0 - s, tol / factor)
        sine = math.sin(math.pi * (s % 4.0) / 2.0)  # s % 4 is exact: a short argument
        return BoseEval(sine * factor * z.value, factor * z.error_bound, z.terms_used)
    n = 16
    bracket, first_omitted = _em_bracket(s, 0.0, n)
    while (remainder := first_omitted * n**-s) > tol:
        n *= 2
        if n > CAPS["zeta_terms"].limit:
            raise PrecisionError(
                f"cannot certify zeta({s}) to {tol} within the summation cap"
            )
        bracket, first_omitted = _em_bracket(s, 0.0, n)
    head = math.fsum(k ** -s for k in range(1, n))
    value = head + n ** (1.0 - s) / (s - 1.0) + n**-s * bracket
    return BoseEval(value=value, error_bound=remainder, terms_used=n - 1 + _EM_ORDER)


def _check_order(s: float) -> None:
    """Refuse any order that is not a positive multiple of 1/2."""
    if not (s > 0 and 2 * s % 1 == 0):  # inf and nan leave a nan remainder
        raise ValidationError(f"order s must be a positive multiple of 1/2, got {s}")


def zeta(s: float, tol: float) -> BoseEval:
    """Riemann zeta for s > 1, Euler-Maclaurin accelerated, certified."""
    _check_order(s)
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be positive and finite, got {tol}")
    if s <= 1.0:
        raise DivergenceError(f"zeta diverges for s <= 1, got s={s}")
    return _zeta_em(s, tol)


def _tail_bound(s: float, alpha: float, k: int) -> float:
    """Rigorous bound on sum_{j>k} j^-s e^(-alpha j)."""
    geom = (k + 1.0) ** (-s) * math.exp(-alpha * (k + 1.0)) / (-math.expm1(-alpha))
    if s > 1.0:
        integral = k ** (1.0 - s) / (s - 1.0)
        return min(geom, integral)
    return geom


def _certified_terms(s: float, alpha: float, tol: float, cap: int) -> tuple[int, float]:
    """The first k = 16 * 2^j whose tail bound meets tol, and that bound; k = 0 past cap."""
    k = 16
    while (tail := _tail_bound(s, alpha, k)) > tol:
        k *= 2
        if k > cap:
            return 0, tail
    return k, tail


@lru_cache(maxsize=64)
def _powers(s: float) -> tuple[float, ...]:
    """j^-s for j = 1.._DIRECT_TERMS_MAX: short direct sums' and the root seed's powers."""
    return tuple(j**-s for j in range(1, _DIRECT_TERMS_MAX + 1))


def _bose_direct(s: float, alpha: float, k: int, tail: float) -> BoseEval:
    """The first k terms, times e^(alpha k) if alpha < 0 (they grow to k); tail bounds the rest.

    Each term is j^-s e^(-alpha j) summed by math.fsum, the j^-s read from
    the memoised _powers(s) for k <= _DIRECT_TERMS_MAX, so the sum is the same
    bits on either side of it.
    """
    shift = k if alpha < 0.0 else 0
    exps = map(math.exp, map(mul, range(1 - shift, k + 1 - shift), repeat(-alpha)))
    powers = _powers(s) if k <= _DIRECT_TERMS_MAX else map(pow, range(1, k + 1), repeat(-s))
    return BoseEval(value=math.fsum(map(mul, powers, exps)), error_bound=tail, terms_used=k)


def _expansion_term_bound(s: float, alpha: float, k: int) -> float:
    """Upper bound on |zeta(s-k)| alpha^k / k! for k >= s + 1.

    The functional equation with |sin| <= 1 and zeta(1+k-s) <= zeta(2):
    |zeta(s-k)| <= e^_log_reflection(s-k) zeta(2).
    """
    return math.exp(
        _LOG_ZETA2 + _log_reflection(s - k) - math.lgamma(k + 1.0) + k * math.log(alpha)
    )


# every zeta(s - k) of the expansion is taken to this tol, whatever the
# caller's: the bounds then add at most e^0.5 1e-15 < 2e-15 to the
# expansion's, under half of _MIN_TOL, so one table serves every tol
_COEFF_TOL = 1e-15


@lru_cache(maxsize=256)
def _expansion_coefficients(s: float, k_top: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """zeta(s - k) (-1)^k / k! for k = 0..k_top, and each one's error bound.

    The pole slot s - k = 1 holds 0, its term being _singular's.  Memoised:
    with every zeta at _COEFF_TOL the table depends on neither alpha nor tol.
    """
    values, bounds, k_fact = [], [], 1.0  # k! is exact to k = 22, inf past 170
    for k in range(k_top + 1):
        k_fact *= k or 1
        value, bound = (0.0, 0.0) if s - k == 1.0 else _zeta_em(s - k, _COEFF_TOL)[:2]
        values.append((-1.0) ** k * value / k_fact)
        bounds.append(bound / k_fact)
    return tuple(values), tuple(bounds)


def _horner(coefficients: tuple[float, ...], x: float) -> float:
    """sum_k coefficients[k] x^k."""
    total = 0.0
    for c in reversed(coefficients):
        total = total * x + c
    return total


def _horner_slope(coefficients: tuple[float, ...], x: float) -> tuple[float, float]:
    """_horner(coefficients, x), the same bits, and its derivative in x."""
    total = slope = 0.0
    for c in reversed(coefficients):
        slope = slope * x + total
        total = total * x + c
    return total, slope


def _singular(s: float, alpha: float) -> float:
    """The expansion's term singular at alpha = 0: Gamma(1-s) alpha^(s-1).

    At integer s = n + 1 >= 1, where Gamma has its pole and zeta(s - n) =
    zeta(1) its own, the two give (-alpha)^n / n! (H_n - log alpha) instead.
    Past n = 170, where n! leaves the floats, (-alpha)^n / n! is formed
    through lgamma and underflows to 0 for alpha <= 1.
    """
    if s % 1.0 or s < 1.0:
        return math.gamma(1.0 - s) * alpha ** (s - 1.0)
    n = int(s) - 1
    harmonic = math.fsum(1.0 / m for m in range(1, n + 1))
    if n <= 170:
        lead = (-alpha) ** n / math.factorial(n)
    else:
        lead = (-1.0) ** n * math.exp(n * math.log(alpha) - math.lgamma(n + 1.0))
    return lead * (harmonic - math.log(alpha))


def _bose_expansion(s: float, alpha: float, tol: float) -> BoseEval:
    """Robinson's expansion of g_s about alpha = 0, certified for alpha <= 0.5.

    g_s(alpha) = _singular(s, alpha) + sum_k zeta(s-k) (-alpha)^k / k!
    (Phys. Rev. 83, 678 (1951)), summed over _expansion_coefficients.  Its
    terms eventually decay geometrically with ratio alpha/(2 pi); the tail
    after the last explicit term is bounded via the functional-equation
    estimate in _expansion_term_bound.  Raises PrecisionError when the
    summed bound exceeds tol.
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
        if k_top > CAPS["expansion_terms"].limit:
            raise PrecisionError(
                f"expansion of g_{s}({alpha}) did not certify to {tol}"
            )

    values, bounds = _expansion_coefficients(s, k_top)
    bound = tail + _horner(bounds, alpha)
    if bound > tol:
        raise PrecisionError(f"expansion of g_{s}({alpha}) certifies only {bound:.3g} > {tol}")
    return BoseEval(value=_singular(s, alpha) + _horner(values, alpha), error_bound=bound, terms_used=k_top + 1)


# "auto" sums directly up to this many terms.  Best of 41 rounds of 100 calls,
# interleaved, on a 2-vCPU Intel Xeon host (one core, Python 3.11.7,
# tol 1e-10), at alpha 0.1 to 0.5 and s = 1/2, 3/2, 5/2 alike:
#   direct terms          16          32          64
#   direct us       3.4 - 3.6   5.3 - 5.5   8.9 - 9.2
#   expansion us    2.9 - 3.0 warm (3.9 at s = 1/2, alpha = 0.5, 13 terms)
# The warm expansion is cheaper than 16 direct terms (a root solve fills its
# coefficient table at its first call), and alpha = 0.1 to 0.5 needs 32 to
# 256 direct terms at this tol.  So at alpha <= 0.5 "auto" bounds the
# 16-term sum once and otherwise takes the expansion; the sum serves large s
# or a loose tol, where it certifies and the expansion would build a table
# of about s terms.  Above 0.5, which the expansion refuses, the crossover is
# the fewest terms that still certify every alpha at tol >= 1e-14 for
# s >= 1/2: just above alpha = 0.5, s = 1/2 leaves a tail of 2.4e-15 at 64
# terms and 3e-8 at 32.
_DIRECT_TERMS_MAX = 64


def bose_g(s: float, alpha: float, tol: float, method: str = "auto") -> BoseEval:
    """g_s(alpha) = sum_{k>=1} k^-s e^(-alpha k), with certified truncation.

    s is a positive multiple of 1/2.  alpha = 0 requires s > 1 (the value is
    zeta(s), evaluated by Euler-Maclaurin); alpha > 0 converges for every
    such s.  `method` picks the evaluation route: "expansion" the certified
    small-alpha expansion (alpha <= 0.5), or "auto" by measured cost; any
    other raises ValidationError.  At alpha <= 0.5 "auto"
    checks one tail bound: the first 16 terms when that bound certifies
    (large s or a loose tol), the expansion otherwise (its alpha-independent
    zeta coefficients are cached, so repeated calls cost microseconds).
    Above 0.5 it sums directly, doubling from 16 terms to the first count
    that certifies, which is at most _DIRECT_TERMS_MAX = 64.
    """
    _check_order(s)
    if not alpha >= 0:  # NaN fails too
        raise ValidationError(f"alpha must be >= 0, got {alpha}")
    if not _MIN_TOL <= tol < math.inf:
        raise ValidationError(f"tol must be finite and >= {_MIN_TOL}, got {tol}")
    if method not in ("auto", "expansion"):
        raise ValidationError(f"unknown method {method!r}")
    if alpha == 0.0:
        return zeta(s, tol)

    if method == "expansion":
        return _bose_expansion(s, alpha, tol)
    k, tail = _certified_terms(s, alpha, tol, 16 if alpha <= 0.5 else _DIRECT_TERMS_MAX)
    return _bose_direct(s, alpha, k, tail) if k else _bose_expansion(s, alpha, tol)
