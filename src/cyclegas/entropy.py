"""The shape functional S(Q) and its constrained minimisation.

Shapes are handled through their increments Qhat on 1..K (the monotone tail
function is in bijection with its increment sequence).  S(Q) =
sum_k Qhat(k) (log(Qhat(k)/Qhat*(k)) - 1) with the convention 0 log 0 = 0.
Minimisation over {Qhat >= 0, sum_k k Qhat(k) = 1} is solved exactly through
the scalar Lagrangian dual: stationarity forces Qhat = Qhat* e^(-lambda k),
leaving a single monotone root for lambda, found by the same bracketed
solver as the density equation (thermo._bracketed_root), from a seed: the
density seed's model root above lambda = 0, the escaping-mass model below.

In the condensed regime the truncated dual root sits below zero and the
constraint mass piles up at k = K; that boundary mass is the finite-K shadow
of the escaping minimising sequences and is reported, never suppressed.

The shapes the paper's variational problem produces are formulas, and are
held as such: an ExponentialShape is Qhat*(k) e^(-lam k) on 1..K plus an
optional bump eps at k = n.  minimize_S returns the minimiser (no bump) and
minimizing_sequence the condensed sequence element Q_n (lam = 0).  Every sum
over such a shape is a truncated polylogarithm T(s, lam, K) =
sum_{k<=K} k^-s e^(-lam k), which _truncated_polylog certifies to _SUM_TOL
relative in O(1) in K for either sign of lam: the dual's constraint mass, S,
the decomposition's q, q* and H, the mass and the boundary mass.  So
minimize_S builds no K-vector, and neither maker does; a shape's qhat is
built on first access only, in one blocked pass (_qhat_vector, which
qhat_star_array runs too) that checks every block is finite and >= 0.

zeta less its Euler-Maclaurin tail at K + 1 gives the truncated zetas
sum_{k<=K} k^(j-s), and a Poisson mixture of those is T at lam < 0; at
lam > 0, T is bose_g's g_s(lam) less a tail, in closed form through the
exponential integral E_s.  Both tails are bosefn's one Euler-Maclaurin tail,
_em_bracket, and every short T is bosefn's one direct sum, _bose_direct, so
T needs no Bernoulli table and no summation loop of its own.  As in bosefn,
the bounds certify truncation, not rounding, and every sum of T is a
math.fsum of Python floats.

TruncatedShape is the array route: caller-supplied vectors, and the closed
forms' test oracle.  Each K-long step runs over blocks of k (_blocks): each
element is the whole-vector formula in the same operation order, so Qhat* is
bit-identical to it, each sum is the math.fsum of the blocks' np.sums, and
no K-sized temporary is made beyond the shape itself.  NumPy is imported by
the array route and by qhat's materialisation only.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property, lru_cache
from itertools import repeat
from operator import mul
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .bosefn import (
    _DIRECT_TERMS_MAX,
    _EM_ORDER,
    _LOG2,
    _MIN_TOL as _BOSE_MIN_TOL,
    BoseEval,
    _bose_direct,
    _certified_terms,
    _em_bracket,
    _log_reflection,
    _rising,
    _tail_bound,
    _zeta_em,
    bose_g as _bose_g,  # private: the benchmark's tracer wraps each layer's public functions
)
from .errors import CAPS, PrecisionError, ValidationError, check_cap
from .thermo import (
    REGIME_CONDENSED,
    SystemParams,
    _MIN_TOL,
    _bracketed_root,
    _root_seed,
    qhat_star,
    solve_alpha,
)

if TYPE_CHECKING:
    import numpy as np

_MASS_ATOL = 1e-7
_BLOCK = 1 << 14  # lengths k per block, 128 KB of float64: the fastest of 2^13..2^15 timed
_SUM_TOL = 1e-17  # relative truncation of every truncated polylog: below half an ulp
_LOG_TINY = math.log(sys.float_info.min)
_LOG_HUGE = math.log(sys.float_info.max)
_EULER_GAMMA = 0.5772156649015329


def _blocks(K: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """(lo, hi, ks) for the blocks of k = 1..K, ks = k[lo:hi] = lo+1..hi.

    ks is a view into one buffer that the next step overwrites.
    """
    import numpy as np

    ks = np.arange(1.0, min(K, _BLOCK) + 1.0)
    for lo in range(0, K, _BLOCK):
        if lo:
            ks += _BLOCK  # whole numbers below 2^53: exact
        hi = min(lo + _BLOCK, K)
        yield lo, hi, ks[: hi - lo]


class _TruncatedShape(NamedTuple):
    qhat: np.ndarray
    relaxed: bool = False


class TruncatedShape(_TruncatedShape):
    """Increments Qhat(1..K) of a shape truncated at length K, held as a vector.

    Elements representing genuine shapes carry constraint mass
    sum_k k Qhat(k) == 1; anything lighter must be flagged `relaxed`
    (truncations of infinite shapes, diagnostic vectors).  qhat is
    read-only: a read-only array is adopted without a copy unless it views a
    writeable one (so TruncatedShape(shape.qhat, relaxed=True) shares an
    ExponentialShape's vector), and anything a caller could still write
    through is copied.  Shapes compare and hash by identity: tuple equality
    would compare the arrays.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, qhat: np.ndarray, relaxed: bool = False) -> "TruncatedShape":
        import numpy as np

        arr = np.asarray(qhat, dtype=np.float64)
        base = arr if arr.base is None else arr.base
        if arr.flags.writeable or not isinstance(base, np.ndarray) or base.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("qhat must be a nonempty 1-d sequence")
        if not (arr.min() >= 0.0 and arr.max() < math.inf):  # NaN fails both
            raise ValidationError("qhat entries must be finite and >= 0")
        self = _TruncatedShape.__new__(cls, arr, relaxed)
        _check_mass(self.constraint_mass, relaxed)
        return self

    @property
    def K(self) -> int:
        return int(self.qhat.size)

    @property
    def constraint_mass(self) -> float:
        qh = self.qhat
        return math.fsum(float(ks @ qh[lo:hi]) for lo, hi, ks in _blocks(qh.size))


def _check_mass(mass: float, relaxed: bool) -> None:
    if mass > 1.0 + _MASS_ATOL:
        raise ValidationError(f"constraint mass {mass} exceeds 1")
    if not relaxed and abs(mass - 1.0) > _MASS_ATOL:
        raise ValidationError(
            f"constraint mass {mass} != 1; pass relaxed=True for partial shapes"
        )


def _zetas_needed(J: int) -> int:
    """The table length _truncated_zetas is asked for: J rounded up to 2^i - 1 >= 15.

    So a root solve, whose Poisson terms shrink with |lam|, reuses few tables.
    """
    return (1 << max(J, 15).bit_length()) - 1


@lru_cache(maxsize=64)
def _truncated_zetas(s: float, K: int, J: int) -> tuple[tuple[float, float], ...]:
    """(z_j, error bound) for j = 0..J: z_j = K^-j sum_{k<=K} k^(j-s), to _SUM_TOL z_j each.

    z_j is zeta(sigma) K^-j less the Euler-Maclaurin tail at n = K + 1, sigma = s - j:
    the integral n^(1-sigma)/(sigma-1) and n^-sigma _em_bracket(sigma, 0, n), with
    n^-sigma K^-j formed as n^-s (n/K)^j so that it stays in the floats; at
    sigma = 1 the pole's pair zeta(sigma) - n^(1-sigma)/(sigma-1) is gamma + log n.
    The remainder is at most the first omitted term for sigma > 0, and twice it
    for sigma <= 0: once the integral of the order-m remainder converges it is at
    most twice its first omitted term (DLMF 2.10.1, |B_2m - B~_2m(x)| <= 2|B_2m|),
    and up to that order each term is at most ((|sigma| + 1)/(2 pi n))^2 <= 1/4
    of the one before, which 2J <= K ensures.  Where |zeta(sigma)| K^-j is below
    _SUM_TOL/8 of z_j's lower bound (K^-j, or K^(1-s)/(1 + max(0, -sigma)) for
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
        log_need = math.log(_SUM_TOL * lower / 8.0)
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


def _truncated_polylog(s: float, lam: float, K: int) -> BoseEval:
    """T = sum_{k<=K} k^-s e^(-lam k), s > 0, K >= 1; times e^(lam K) when lam < 0.

    The factor keeps T in the floats: for lam < 0 its terms grow to k = K.  The
    bound certifies truncation and meets _SUM_TOL relative to the value on every
    route but one: for 0 < lam <= 0.5, bose_g's floor of _BOSE_MIN_TOL absolute
    applies.
    - K <= _DIRECT_TERMS_MAX: the terms summed directly.
    - lam <= 0: with x = -lam K, e^(-x) T = sum_j P_x(j) z_j is a Poisson(x) mixture
      of _truncated_zetas (e^(x k/K) = sum_j x^j (k/K)^j / j!), taken to the j = J
      past which the Poisson mass is below _SUM_TOL/8 of the rest; directly when the
      table that needs (_zetas_needed(J)) passes K/2.
      lam = 0 is z_0, the truncated zeta.
    - 0 < lam K <= 1: the alternating sum_j (-lam K)^j z_j / j!, to its first
      omitted term.
    - lam > 0.5: the direct sum to the first 16 2^i terms that _tail_bound certifies.
    - otherwise: bose_g(s, lam) less the tail past K, which only enters the bound
      once _tail_bound meets _SUM_TOL and is _bose_tail's otherwise.
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
        while (tail := weights[j] * x / (j + 1) * (j + 2) / (j + 2 - x)) > _SUM_TOL * total / 8.0:
            weights.append(weights[j] * x / (j + 1))
            total += weights[-1]
            j += 1
        if 2 * _zetas_needed(j) > K:
            return _bose_direct(s, lam, K, 0.0)
        zs = _truncated_zetas(s, K, _zetas_needed(j))
        value = math.fsum(w * z for w, (z, _) in zip(weights, zs)) / total
        bound = math.fsum(w * b for w, (_, b) in zip(weights, zs)) / total
        return BoseEval(value, bound + (value + zs[j][0]) * tail / total, j + 1)
    y = lam * K
    if y <= 1.0:
        weights = [1.0]  # (-y)^j / j!, while the next one's size is above _SUM_TOL/32
        while abs(weights[-1]) * y / len(weights) > _SUM_TOL / 32.0:
            weights.append(-weights[-1] * y / len(weights))
        J = len(weights) - 1
        zs = _truncated_zetas(s, K, _zetas_needed(J + 1))
        value = math.fsum(w * z for w, (z, _) in zip(weights, zs))
        bound = math.fsum(abs(w) * b for w, (_, b) in zip(weights, zs))
        omitted = abs(weights[-1]) * y / (J + 1) * (zs[J + 1][0] + zs[J + 1][1])
        return BoseEval(value, bound + omitted, J + 2)
    t_abs = _SUM_TOL * math.exp(-lam) / 4.0  # T >= e^-lam, its first term
    if lam > 0.5:
        k, tail = _certified_terms(s, lam, t_abs, K)
        return _bose_direct(s, lam, k, tail) if k else _bose_direct(s, lam, K, 0.0)
    g = _bose_g(s, lam, max(t_abs, _BOSE_MIN_TOL))
    tail = _tail_bound(s, lam, K)
    if tail <= t_abs:
        return BoseEval(g.value, g.error_bound + tail, g.terms_used)
    t = _bose_tail(s, lam, K + 1, t_abs)
    return BoseEval(g.value - t.value, g.error_bound + t.error_bound, g.terms_used + t.terms_used)


def _polylog_sum(params: SystemParams, order: float, lam: float, K: int) -> float:
    """Qhat*(1) sum_{k<=K} k^-order e^(-lam k), the sum certified to _SUM_TOL relative."""
    t = _truncated_polylog(order, lam, K).value
    c = qhat_star(params, 1.0)
    if lam >= 0.0:
        return c * t
    return math.exp(math.log(c) - lam * K + math.log(t))  # t is scaled by e^(lam K)


class _ExponentialShape(NamedTuple):
    params: SystemParams
    K: int
    lam: float = 0.0
    bump: tuple[int, float] | None = None
    relaxed: bool = False


class ExponentialShape(_ExponentialShape):
    """Increments Qhat(k) = Qhat*(k) e^(-lam k) on 1..K, plus eps at k = n if bump = (n, eps).

    The shapes of minimize_S (no bump) and minimizing_sequence (lam = 0),
    held as their parameters: constraint_mass, and functional_S and
    entropy_decomposition at the shape's own (d, beta, rho), are formulas in
    truncated polylogarithms, O(1) in K.  qhat is built on first access in one
    blocked pass, which checks every block is finite and >= 0, and is
    read-only; no formula reads it, so nothing written through it can change
    them.  The instance dict holds only the cached constraint_mass and qhat:
    no attribute can be set or deleted.
    """

    def __new__(
        cls, params: SystemParams, K: int, lam: float = 0.0,
        bump: tuple[int, float] | None = None, relaxed: bool = False,
    ) -> "ExponentialShape":
        if K < 1:
            raise ValidationError(f"K must be >= 1, got {K}")
        check_cap("shape", K)
        if not math.isfinite(lam):
            raise ValidationError(f"lam must be finite, got {lam}")
        if bump is not None:
            n, eps = bump
            if not 1 <= n <= K:
                raise ValidationError(f"truncation K={K} must cover the bump at n={n}")
            if not 0.0 <= eps < math.inf:
                raise ValidationError(f"bump eps must be finite and >= 0, got {eps}")
        self = _ExponentialShape.__new__(cls, params, K, lam, bump, relaxed)
        _check_mass(self.constraint_mass, relaxed)
        return self

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"ExponentialShape is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def constraint_mass(self) -> float:
        """sum_k k Qhat(k) = Qhat*(1) T(d/2, lam, K) + n eps, computed once, at construction."""
        n, eps = self.bump or (0, 0.0)
        return _polylog_sum(self.params, self.params.d / 2.0, self.lam, self.K) + n * eps

    def head(self, m: int) -> list[float]:
        """The first min(m, K) increments, from the formula: qhat is not built."""
        lam = self.lam
        out = [
            qhat_star(self.params, float(k)) * math.exp(-lam * k)
            for k in range(1, min(m, self.K) + 1)
        ]
        if self.bump is not None and self.bump[0] <= len(out):
            out[self.bump[0] - 1] += self.bump[1]
        return out

    @cached_property
    def qhat(self) -> np.ndarray:
        """Qhat(1..K) as a read-only vector, built by _qhat_vector."""
        out = _qhat_vector(self.params, self.K, self.lam, self.bump)
        out.setflags(write=False)
        return out


def _qhat_vector(
    params: SystemParams, K: int, lam: float = 0.0, bump: tuple[int, float] | None = None
) -> np.ndarray:
    """Qhat*(k) e^(-lam k) for k = 1..K, plus eps at k = n if bump = (n, eps), in blocks.

    Each block is checked finite and >= 0.  A block where e^(-lam k) alone
    would overflow, or Qhat*(k) falls below the normal floats (a shape at a
    density near the float limit, whose lam K is below -700), forms
    e^(log Qhat*(k) - lam k) instead.
    """
    import numpy as np

    n, eps = bump or (0, 0.0)
    log_c, order = math.log(qhat_star(params, 1.0)), 1.0 + params.d / 2.0
    out = np.empty(K)
    for lo, hi, ks in _blocks(K):
        block = out[lo:hi]
        if lam:
            np.multiply(ks, -lam, out=block)
            if -lam * hi > _LOG_HUGE or log_c - order * math.log(hi) < _LOG_TINY:
                block += log_c - order * np.log(ks)
                np.exp(block, out=block)
            else:
                np.exp(block, out=block)
                block *= qhat_star(params, ks)
        else:
            block[:] = qhat_star(params, ks)
        if lo < n <= hi:
            block[n - 1 - lo] += eps
        if not (block.min() >= 0.0 and block.max() < math.inf):  # NaN fails both
            raise ValidationError("qhat entries must be finite and >= 0")
    return out


def qhat_star_array(params: SystemParams, K: int) -> np.ndarray:
    """Reference increments Qhat*(k) = c / k^(1+d/2) for k = 1..K."""
    if K < 1:
        raise ValidationError(f"K must be >= 1, got {K}")
    check_cap("shape", K)
    return _qhat_vector(params, K)


def _xlogx_sum(x: np.ndarray, ref: np.ndarray, minus_one: bool) -> float:
    """np.sum of x log(x/ref), less x when minus_one; 0 where x is 0.

    The terms are formed in one block-sized temporary, which a call per
    block frees.  The ops run unmasked (masked ufuncs cost about 1.8 times
    as much): where x is 0 they give 0 * -inf = nan, zeroed afterwards.
    Where x > 0 is so small that x/ref underflows to 0 (a subnormal x over
    ref > 1), the term is -inf; only a block whose sum is not finite forms
    its non-finite terms again, as x (log x - log ref).
    """
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.divide(x, ref)
        np.log(terms, out=terms)
        if minus_one:
            np.subtract(terms, 1.0, out=terms)
        np.multiply(x, terms, out=terms)
    terms[x == 0] = 0.0
    total = float(np.sum(terms))
    if math.isfinite(total):
        return total
    bad = ~np.isfinite(terms)
    xb = x[bad]
    with np.errstate(divide="ignore"):
        t = np.log(xb) - np.log(ref[bad])
    if minus_one:
        t -= 1.0
    terms[bad] = xb * t
    return float(np.sum(terms))


def _bump(params: SystemParams, lam: float, n: int, eps: float) -> float:
    """(a + eps) log1p(eps/a) with a = Qhat*(n) e^(-lam n), the bump's term in S.

    Where a is below the normal floats (huge n) the term is formed from
    log a = log c - (1+d/2) log n - lam n, math.log taking the int n, as
    eps (1 + t) (x + log1p(t)) with x = log(eps/a) and t = e^-x.
    """
    drift = lam * n if lam else 0.0  # n may be past the floats
    log_a = math.log(qhat_star(params, 1.0)) - (1.0 + params.d / 2.0) * math.log(n) - drift
    if log_a > _LOG_TINY:
        a = qhat_star(params, float(n)) if lam == 0.0 else math.exp(log_a)
        return (a + eps) * math.log1p(eps / a)
    if eps == 0.0:
        return 0.0
    x = math.log(eps) - log_a
    t = math.exp(-x)
    return eps * (1.0 + t) * (x + math.log1p(t))


def _closed_forms(
    shape: TruncatedShape | ExponentialShape, params: SystemParams
) -> tuple[float, float, float, float] | None:
    """(S, q, q*, H) of an ExponentialShape at its own (d, beta, rho); None otherwise.

    With c = Qhat*(1), mass M, q = c T(1+d/2, lam, K) + eps and q* =
    c T(1+d/2, 0, K): S = -lam M - q + B and H = (-lam M + B)/q - log(q/q*),
    where B = _bump(...) is the bump's term.  Exact up to rounding and the
    _SUM_TOL truncation of each T (bose_g's floor for 0 < lam <= 0.5).
    """
    if not isinstance(shape, ExponentialShape):
        return None
    own = shape.params
    if (own.d, own.beta, own.rho) != (params.d, params.beta, params.rho):
        return None
    lam, K, order = shape.lam, shape.K, 1.0 + params.d / 2.0
    n, eps = shape.bump or (0, 0.0)
    q_star = _polylog_sum(params, order, 0.0, K)
    q0 = q_star if lam == 0.0 else _polylog_sum(params, order, lam, K)
    q = q0 + eps
    drift = 0.0 if lam == 0.0 else -lam * shape.constraint_mass
    b = _bump(params, lam, n, eps) if eps else 0.0
    # log(q/q*): as log1p(eps/q*) when lam = 0, where q0 is q*
    log_ratio = math.log1p(eps / q_star) if lam == 0.0 else math.log(q) - math.log(q_star)
    return drift - q + b, q, q_star, (drift + b) / q - log_ratio


def functional_S(shape: TruncatedShape | ExponentialShape, params: SystemParams) -> float:
    """Truncated S(Q) = sum_{k<=K} Qhat(k) (log(Qhat(k)/Qhat*(k)) - 1).

    Zero increments contribute zero (x log x -> 0).  An ExponentialShape at
    its own parameters takes the closed form -lam M - q + B (_closed_forms);
    every other shape takes the array route, its sum exact up to float
    rounding.
    """
    check_cap("shape", shape.K)
    closed = _closed_forms(shape, params)
    if closed is not None:
        return closed[0]
    qh = shape.qhat
    return math.fsum(
        _xlogx_sum(qh[lo:hi], qhat_star(params, ks), True) for lo, hi, ks in _blocks(shape.K)
    )


class EntropyDecomposition(NamedTuple):
    q: float
    q_star: float
    relative_entropy: float
    reconstructed_S: float


def entropy_decomposition(
    shape: TruncatedShape | ExponentialShape, params: SystemParams
) -> EntropyDecomposition:
    """Split S(Q) = q H(P|P*) + q log(q/q*) - q over the truncation window.

    P = Qhat/q and P* = Qhat*/q* are the normalised increment profiles;
    H is their relative entropy.  reconstructed_S must agree with
    functional_S to float precision.  An ExponentialShape at its own
    parameters has q, q* and H in closed form (_closed_forms).  On the array
    route one pass over the blocks sums q and q*, a second sums H.
    """
    import numpy as np

    check_cap("shape", shape.K)
    closed = _closed_forms(shape, params)
    if closed is not None:
        return _decomposition(*closed[1:])
    qh = shape.qhat
    parts = [(np.sum(qh[lo:hi]), np.sum(qhat_star(params, ks))) for lo, hi, ks in _blocks(shape.K)]
    q, q_star = (math.fsum(column) for column in zip(*parts))
    if q <= 0.0:
        raise ValidationError("decomposition needs total increment mass q > 0")
    h = math.fsum(
        _xlogx_sum(qh[lo:hi] / q, qhat_star(params, ks) / q_star, False)
        for lo, hi, ks in _blocks(shape.K)
    )
    return _decomposition(q, q_star, h)


def _decomposition(q: float, q_star: float, h: float) -> EntropyDecomposition:
    return EntropyDecomposition(q, q_star, h, q * h + q * math.log(q / q_star) - q)


class MinimizeResult(NamedTuple):
    """Exact dual solution of the truncated constrained minimisation."""

    shape: ExponentialShape
    lam: float
    s_value: float
    boundary_mass: float  # K * Qhat(K), the constraint mass on the last site
    constraint_residual: float


def minimize_S(params: SystemParams, K: int, tol: float = 1e-10) -> MinimizeResult:
    """Minimise truncated S over {Qhat >= 0, sum_k k Qhat(k) = 1}.

    Stationarity gives Qhat(k) = Qhat*(k) e^(-lambda k); lambda solves the
    scalar constraint Qhat*(1) T(d/2, lambda, K) = 1 to |residual| +
    certified bound <= min(tol, 1e-7) with thermo._bracketed_root, the root
    solver of the density equation, between 0 and a far end that an
    elementary bound proves (lambda < 0 is allowed: the truncated problem is
    always feasible).  Each evaluation is one _truncated_polylog, O(1)
    in K; no K-vector is built.  tol lies in [1e-13, 1), the domain of
    solve_alpha.  In the normal regime lambda approaches the root of the
    density equation as K grows, and the search starts from the density
    seed's model root where it gives one (thermo._root_seed; no certified
    density solve); in
    the condensed regime lambda approaches 0 from below, mass concentrates
    at k = K, and the search starts from the escaping-mass model
    (_escape_seed).  A seed moves only where the root is looked for: the
    bracket and the certificate are the same.
    """
    if K < 100:
        raise ValidationError(f"K must be >= 100, got {K}")
    if not _MIN_TOL <= tol < 1.0:
        raise ValidationError(f"tol must be in [{_MIN_TOL}, 1), got {tol}")
    check_cap("shape", K)
    s = params.d / 2.0
    c = qhat_star(params, 1.0)
    log_c = math.log(c)

    # a shape that is not relaxed must hold its mass to _MASS_ATOL
    tol = min(tol, _MASS_ATOL)

    def residual(lam: float) -> tuple[float, float]:
        t = _truncated_polylog(s, lam, K)  # scaled by e^(lam K) below 0
        try:
            excess = math.expm1(log_c + max(-lam * K, 0.0) + math.log(t.value))
        except OverflowError:  # the mass is past the floats: bisect from this end
            return math.inf, 0.0
        return excess, (1.0 + excess) * t.error_bound / t.value

    # the mass falls as lambda rises: the root is above 0 when r0 > 0
    r0 = residual(0.0)[0]
    log_top = log_c - s * math.log(K)  # log K Qhat*(K)
    if r0 > 0.0:
        # mass = Qhat*(1) sum_k k^(-d/2) e^(-lambda k) < Qhat*(1)/(e^lambda - 1) = 1 at b;
        # the mass is about Qhat*(1) g_{d/2}(lambda), so the density seed's
        # model root starts the search where it gives one
        b = math.log1p(c)
        seed = _root_seed(s, 1.0 / c, 0.0, b)
        start = (b, None) if seed is None else (seed[0], -c * seed[1])
        lam, res = _bracketed_root(residual, 0.0, r0, b, tol, (float, float), start)
    else:
        # the boundary term K Qhat(K) = e^(log_top - lambda K) alone is 1 at
        # b = log_top / K; the mass grows about linearly in it, and a step
        # that rounds to a term v <= 0 maps outside the bracket, so it bisects
        boundary = (
            lambda lam: math.exp(log_top - lam * K),
            lambda v: (log_top - math.log(v)) / K if v > 0.0 else math.inf,
        )
        b = log_top / K
        start = _escape_seed(-r0, K, log_top) or (b, None)
        lam, res = _bracketed_root(residual, 0.0, r0, b, tol, boundary, start)

    shape = ExponentialShape(params, K, lam)
    return MinimizeResult(
        shape=shape,
        lam=lam,
        s_value=functional_S(shape, params),
        boundary_mass=math.exp(log_top - lam * K),
        constraint_residual=res,
    )


def _escape_seed(missing: float, K: int, log_top: float) -> tuple[float, float] | None:
    """A start (lambda0, slope) for minimize_S's dual root below 0, or None.

    Past lambda = 0 the mass that lambda adds piles up near k = K, where
    its terms are about K Qhat*(K) e^(-lambda k) (k near K): the
    escaping-mass model K Qhat*(K) e^(-lambda K) / (-lambda) = missing,
    missing = 1 - mass(0).  In x = -lambda K it reads x - log x = log A,
    A = missing / (K^2 Qhat*(K)), solved by Newton's method for the root
    x > 1, which needs A > e.  The slope is the model's in the boundary
    coordinate v = K Qhat*(K) e^x that the root steps in: the model's mass
    is mass(0) + v K / x, so d mass / dv = (K / x) (1 - 1/x).
    """
    log_a = math.log(missing) - math.log(K) - log_top if missing > 0.0 else -math.inf
    if not log_a > 1.0:
        return None
    x = log_a + math.log(log_a)
    for _ in range(8):
        step = (x - math.log(x) - log_a) / (1.0 - 1.0 / x)
        x -= step
        if abs(step) <= 1e-12 * x:
            break
    x = min(x, -log_top)  # the bracket's end at lambda = log_top / K
    return -x / K, K / x * (1.0 - 1.0 / x)


def _condensed_bump(n: int, params: SystemParams, tol: float) -> tuple[float, float]:
    """chi and the bump eps = (rho - rho_c)/(n rho) of the condensed Q_n."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    sol = solve_alpha(params, tol)
    if sol.regime != REGIME_CONDENSED:
        raise ValidationError(
            f"minimizing sequences exist only in the condensed regime, not {sol.regime}"
        )
    try:
        return sol.chi, (params.rho - sol.rho_c) / (n * params.rho)
    except OverflowError:  # n past the floats: eps < 1/n is below them
        return sol.chi, 0.0


def minimizing_sequence(
    n: int, params: SystemParams, K: int | None = None
) -> ExponentialShape:
    """The condensed-phase sequence element Q_n: Qhat* plus a bump at k = n.

    Qhat_n(n) = Qhat*(n) + (rho - rho_c)/(n rho); everywhere else Qhat_n =
    Qhat*.  Its full-series constraint mass is exactly 1; the truncation at K
    is flagged relaxed.  Only defined in the condensed regime.  K defaults to
    max(n, min(2n, CAPS["shape"].limit), 1000): 2n, or the shape cap where 2n
    exceeds it, so n up to the cap builds and a larger n raises CapError.
    """
    _, eps = _condensed_bump(n, params, 1e-10)
    if K is None:
        K = max(n, min(2 * n, CAPS["shape"].limit), 1000)
    if K < n:
        raise ValidationError(f"truncation K={K} must cover the bump at n={n}")
    return ExponentialShape(params, K, bump=(n, eps), relaxed=True)


def minimizing_sequence_s_closed_form(
    n: int, params: SystemParams, tol: float = 1e-12
) -> float:
    """Closed-form S(Q_n): S(Q*) - eps + (Qhat*(n) + eps) log(1 + eps/Qhat*(n)).

    Here eps = (rho - rho_c)/(n rho) and S(Q*) = chi = -q*_inf is the
    condensed-phase entropy infimum: functional_S's closed form at K = inf.
    S(Q_n) decreases to S(Q*) as n grows, exhibiting that the infimum is
    approached but never attained; it stays finite for any int n.
    """
    chi, eps = _condensed_bump(n, params, tol)
    return chi - eps + _bump(params, 0.0, n, eps)
