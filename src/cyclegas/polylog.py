"""Truncated polylogarithms T(s, lam, K) = sum_{k<=K} k^-s e^(-lam k), certified.

T is the sum behind every shape of the paper's variational problem: a shape
Qhat*(k) e^(-lam k) on 1..K has constraint mass and increment mass
Qhat*(1) T at s = d/2 and 1 + d/2.  _truncated_polylog evaluates it for
either sign of lam in O(1) in K.  zeta less its Euler-Maclaurin tail at
K + 1 gives the truncated zetas sum_{k<=K} k^(j-s), and a Poisson mixture of
those is T at lam < 0; at lam > 0, T is bose_g's g_s(lam) less a tail, in
closed form through the exponential integral E_s.  Both tails are bosefn's one
Euler-Maclaurin tail, _em_bracket, and every short T is bosefn's one direct
sum, _bose_direct, so the module has no Bernoulli table and no summation loop
of its own.  As in bosefn, the bounds certify truncation, not rounding, every
sum is a math.fsum of Python floats and the module needs no NumPy.  It is its
own module so that the commands that need no shape do not load it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import mul

from .bosefn import (
    _DIRECT_TERMS_MAX,
    _EM_ORDER,
    _LOG2,
    _MIN_TOL,
    BoseEval,
    _bose_direct,
    _certified_terms,
    _em_bracket,
    _log_reflection,
    _rising,
    _tail_bound,
    _zeta_em,
    bose_g,
)
from .errors import CAPS, PrecisionError, ValidationError

_EULER_GAMMA = 0.5772156649015329


def _zetas_needed(J: int) -> int:
    """The table length _truncated_zetas is asked for: J rounded up to 2^i - 1 >= 15.

    So a root solve, whose Poisson terms shrink with |lam|, reuses few tables.
    """
    return (1 << max(J, 15).bit_length()) - 1


@lru_cache(maxsize=64)
def _truncated_zetas(s: float, K: int, J: int, tol: float) -> tuple[tuple[float, float], ...]:
    """(z_j, error bound) for j = 0..J: z_j = K^-j sum_{k<=K} k^(j-s), to tol z_j each.

    z_j is zeta(sigma) K^-j less the Euler-Maclaurin tail at n = K + 1, sigma = s - j:
    the integral n^(1-sigma)/(sigma-1) and n^-sigma _em_bracket(sigma, 0, n), with
    n^-sigma K^-j formed as n^-s (n/K)^j so that it stays in the floats; at
    sigma = 1 the pole's pair zeta(sigma) - n^(1-sigma)/(sigma-1) is gamma + log n.
    The remainder is at most the first omitted term for sigma > 0, and twice it
    for sigma <= 0: once the integral of the order-m remainder converges it is at
    most twice its first omitted term (DLMF 2.10.1, |B_2m - B~_2m(x)| <= 2|B_2m|),
    and up to that order each term is at most ((|sigma| + 1)/(2 pi n))^2 <= 1/4
    of the one before, which 2J <= K ensures.  Where |zeta(sigma)| K^-j is below
    tol/8 of z_j's lower bound (K^-j, or K^(1-s)/(1 + max(0, -sigma)) for
    sigma <= 1) it enters the bound only.  Memoised: the table depends on
    neither lam nor the shape.
    """
    if 2 * J > K:
        raise ValidationError(f"truncated zetas need 2J <= K, got J={J}, K={K}")
    zs = []
    n = K + 1
    log_k, log_step, n_s, k_s = math.log(K), math.log1p(1.0 / K), n**-s, K ** (1.0 - s)
    rising = _rising(s, n)
    for j in range(J + 1):
        sigma = s - j
        if j:  # (sigma)_(i+1) n^-(i+1) = (sigma / n) (sigma + 1)_i n^-i
            rising = [1.0, *map(mul, rising, repeat(sigma / n, 2 * _EM_ORDER + 1))]
        base = n_s * math.exp(j * log_step)  # n^-sigma K^-j
        k_j, log_k_j = K**-j, j * log_k
        bracket, first_omitted = _em_bracket(sigma, 0.0, n, rising)
        bound = base * first_omitted * (1.0 if sigma > 0.0 else 2.0)
        if sigma == 1.0:
            zs.append(((_EULER_GAMMA + math.log(n)) * k_j - base * bracket, bound))
            continue
        value = -base * (n / (sigma - 1.0) + bracket)
        lower = k_j if sigma > 1.0 else k_s / (1.0 + max(0.0, -sigma))
        log_need = math.log(tol * lower / 8.0)
        if sigma > 1.0:
            log_mag = math.inf  # zeta(sigma) > 1: always summed
        elif sigma > 0.0:
            log_mag = -math.log(1.0 - sigma)  # -1/(1 - sigma) < zeta(sigma) < 0
        elif sigma == 0.0:
            log_mag = -_LOG2
        else:  # the functional equation with zeta(1 - sigma) <= (1 - sigma)/(-sigma)
            log_mag = _log_reflection(sigma) + math.log((1.0 - sigma) / -sigma)
        if log_mag - log_k_j < log_need:
            bound += math.exp(log_mag - log_k_j)
        else:
            z = _zeta_em(sigma, math.ldexp(0.5, math.frexp(math.exp(log_need + log_k_j))[1]))
            value += z.value * k_j
            bound += z.error_bound * k_j
        zs.append((value, bound))
    return tuple(zs)


def _expint_scaled(p: float, z: float, tol: float) -> tuple[float, float, int]:
    """e^z E_p(z) for p, z > 0 to absolute tol, its bound and the terms used.

    The continued fraction 1/(z + p/(1 + 1/(z + (p+1)/(1 + 2/(z + ...))))) (DLMF
    8.19.17) has positive elements, so its convergents alternate about the value
    and two successive ones bracket it.  It converges in about 200 terms at z = 1.
    """
    a_prev, a, b_prev, b = 1.0, 0.0, 0.0, 1.0  # numerators and denominators
    f_prev = math.inf
    for i in range(1, CAPS["expint_steps"].limit + 1):
        if i % 2:
            c, d = (1.0 if i == 1 else (i - 1) // 2), z
        else:
            c, d = p + i // 2 - 1, 1.0
        a_prev, a = a, d * a + c * a_prev
        b_prev, b = b, d * b + c * b_prev
        if b > 1e100:
            a_prev, a, b_prev, b = a_prev / b, a / b, b_prev / b, 1.0
        f = a / b
        if abs(f - f_prev) <= tol:
            return f, abs(f - f_prev), i
        f_prev = f
    raise PrecisionError(f"E_{p}({z}) did not converge to {tol}")


def _bose_tail(s: float, lam: float, n: int, tol: float) -> BoseEval:
    """sum_{k>=n} k^-s e^(-lam k), lam > 0, by Euler-Maclaurin at n, certified to tol.

    The integral n^(1-s) E_s(lam n), plus f(n) = n^-s e^(-lam n) times
    _em_bracket(s, lam, n), whose first omitted term bounds the remainder.
    """
    scale = n**-s * math.exp(-lam * n)
    integral, cf_bound, cf_terms = _expint_scaled(s, lam * n, tol / (2.0 * n * scale))
    bracket, first_omitted = _em_bracket(s, lam, n)
    value = scale * (n * integral + bracket)
    return BoseEval(value, scale * (first_omitted + n * cf_bound), cf_terms + _EM_ORDER)


def _truncated_polylog(s: float, lam: float, K: int, tol: float) -> BoseEval:
    """T = sum_{k<=K} k^-s e^(-lam k), s > 0, K >= 1; times e^(lam K) when lam < 0.

    The factor keeps T in the floats: for lam < 0 its terms grow to k = K.  The
    bound certifies truncation and meets tol relative to the value on every route
    but one: for 0 < lam <= 0.5, bose_g's floor of _MIN_TOL absolute applies.
    - K <= _DIRECT_TERMS_MAX: the terms summed directly.
    - lam <= 0: with x = -lam K, e^(-x) T = sum_j P_x(j) z_j is a Poisson(x) mixture
      of _truncated_zetas (e^(x k/K) = sum_j x^j (k/K)^j / j!), taken to the j = J
      past which the Poisson mass is below tol/8 of the rest; directly when the
      table that needs (_zetas_needed(J)) passes K/2.
      lam = 0 is z_0, the truncated zeta.
    - 0 < lam K <= 1: the alternating sum_j (-lam K)^j z_j / j!, to its first
      omitted term.
    - lam > 0.5: the direct sum to the first 16 2^i terms that _tail_bound certifies.
    - otherwise: bose_g(s, lam) less the tail past K, which only enters the bound
      once _tail_bound meets tol and is _bose_tail's otherwise.
    A lam that is not finite raises ValidationError on every route.
    """
    if not math.isfinite(lam):
        raise ValidationError(f"lam must be finite, got {lam}")
    if K <= _DIRECT_TERMS_MAX:
        return _bose_direct(s, lam, K, 0.0)
    if lam <= 0.0:
        x = -lam * K
        m = int(x)
        weights = [1.0]  # Poisson(x) weights over the one at the mode m
        for j in range(m, 0, -1):
            weights.append(weights[-1] * j / x)
        weights.reverse()
        total, j = math.fsum(weights), m
        while (tail := weights[j] * x / (j + 1) * (j + 2) / (j + 2 - x)) > tol * total / 8.0:
            weights.append(weights[j] * x / (j + 1))
            total += weights[-1]
            j += 1
        if 2 * _zetas_needed(j) > K:
            return _bose_direct(s, lam, K, 0.0)
        zs = _truncated_zetas(s, K, _zetas_needed(j), tol)
        value = math.fsum(w * z for w, (z, _) in zip(weights, zs)) / total
        bound = math.fsum(w * b for w, (_, b) in zip(weights, zs)) / total
        return BoseEval(value, bound + (value + zs[j][0]) * tail / total, j + 1)
    y = lam * K
    if y <= 1.0:
        weights = [1.0]  # (-y)^j / j!, while the next one's size is above tol/32
        while abs(weights[-1]) * y / len(weights) > tol / 32.0:
            weights.append(-weights[-1] * y / len(weights))
        J = len(weights) - 1
        zs = _truncated_zetas(s, K, _zetas_needed(J + 1), tol)
        value = math.fsum(w * z for w, (z, _) in zip(weights, zs))
        bound = math.fsum(abs(w) * b for w, (_, b) in zip(weights, zs))
        omitted = abs(weights[-1]) * y / (J + 1) * (zs[J + 1][0] + zs[J + 1][1])
        return BoseEval(value, bound + omitted, J + 2)
    t_abs = tol * math.exp(-lam) / 4.0  # T >= e^-lam, its first term
    if lam > 0.5:
        k, tail = _certified_terms(s, lam, t_abs, K)
        return _bose_direct(s, lam, k, tail) if k else _bose_direct(s, lam, K, 0.0)
    g = bose_g(s, lam, max(t_abs, _MIN_TOL))
    tail = _tail_bound(s, lam, K)
    if tail <= t_abs:
        return BoseEval(g.value, g.error_bound + tail, g.terms_used)
    t = _bose_tail(s, lam, K + 1, t_abs)
    return BoseEval(g.value - t.value, g.error_bound + t.error_bound, g.terms_used + t.terms_used)
