"""The shape functional S(Q) and its constrained minimisation.

Shapes are handled through their increments Qhat on 1..K (the monotone tail
function is in bijection with its increment sequence).  S(Q) =
sum_k Qhat(k) (log(Qhat(k)/Qhat*(k)) - 1) with the convention 0 log 0 = 0.
Minimisation over {Qhat >= 0, sum_k k Qhat(k) = 1} is solved exactly through
the scalar Lagrangian dual: stationarity forces Qhat = Qhat* e^(-lambda k),
leaving a single monotone root for lambda, found by the same bracketed
solver as the density equation (thermo._bracketed_root).

In the condensed regime the truncated dual root sits below zero and the
constraint mass piles up at k = K; that boundary mass is the finite-K shadow
of the escaping minimising sequences and is reported, never suppressed.

Outside minimize_S every K-long step runs over blocks of k (_blocks): each
element is the whole-vector formula in the same operation order, so Qhat* is
bit-identical to it, each sum is the math.fsum of the blocks' np.sums, and
no K-sized temporary is made beyond the shape itself.  Each maker builds its
vector once and hands it to TruncatedShape read-only, uncopied; minimize_S
evaluates its dual in place in one work buffer, so it peaks at four
K-vectors (CAPS["shape"]).

A shape made by minimizing_sequence is Qhat* plus one bump, so its S and
decomposition have closed forms in q*_K = sum_{k<=K} Qhat*(k), which
bosefn._zeta_truncated certifies: functional_S and entropy_decomposition
take that route, in O(1), when the shape's parameters match, and the array
route for every other shape (and as the closed forms' test oracle).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .bosefn import _zeta_truncated
from .errors import ValidationError, check_cap
from .thermo import (
    REGIME_CONDENSED,
    SystemParams,
    _MIN_TOL,
    _bracketed_root,
    qhat_star,
    solve_alpha,
)

_MASS_ATOL = 1e-7
_BLOCK = 1 << 14  # lengths k per block, 128 KB of float64: the fastest of 2^13..2^15 timed
_SUM_TOL = 1e-17  # truncation of q*_K / c >= 1: below half an ulp
_LOG_TINY = math.log(sys.float_info.min)


def _blocks(K: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """(lo, hi, ks) for the blocks of k = 1..K, ks = k[lo:hi] = lo+1..hi.

    ks is a view into one buffer that the next step overwrites.
    """
    ks = np.arange(1.0, min(K, _BLOCK) + 1.0)
    for lo in range(0, K, _BLOCK):
        if lo:
            ks += _BLOCK  # whole numbers below 2^53: exact
        hi = min(lo + _BLOCK, K)
        yield lo, hi, ks[: hi - lo]


@dataclass(frozen=True, eq=False)
class TruncatedShape:
    """Increments Qhat(1..K) of a shape truncated at length K.

    Elements representing genuine shapes carry constraint mass
    sum_k k Qhat(k) == 1; anything lighter must be flagged `relaxed`
    (truncations of infinite shapes, diagnostic vectors).  A shape made by
    minimizing_sequence also holds (d, beta, rho, n, eps) in _sequence,
    which selects the closed forms; qhat is a read-only view of a read-only
    base, so a write or setflags(write=True) through shape.qhat is refused.
    The base itself owns its data and can be made writeable again; writing
    through qhat.base is unsupported and leaves the tag stale.
    TruncatedShape(shape.qhat, relaxed=True) is the same vector untagged,
    adopted without a copy.
    """

    qhat: np.ndarray
    relaxed: bool = False
    _sequence: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        # hold a read-only view of a read-only base that owns its data:
        # NumPy refuses to set WRITEABLE on the view.  A read-only owner
        # (the makers below hand over their fresh vector this way) or such a
        # view (another shape's qhat) is adopted without a copy; anything a
        # caller could still write through is copied
        arr = np.asarray(self.qhat, dtype=np.float64)
        base = arr if arr.base is None else arr.base
        if (
            arr.flags.writeable
            or not isinstance(base, np.ndarray)
            or base.flags.writeable
            or base.base is not None
        ):
            arr = base = arr.copy()
            arr.setflags(write=False)
        if arr is base:
            arr = arr.view()
        object.__setattr__(self, "qhat", arr)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("qhat must be a nonempty 1-d sequence")
        if not (arr.min() >= 0.0 and arr.max() < math.inf):  # NaN fails both
            raise ValidationError("qhat entries must be finite and >= 0")
        mass = self.constraint_mass
        if mass > 1.0 + _MASS_ATOL:
            raise ValidationError(f"constraint mass {mass} exceeds 1")
        if not self.relaxed and abs(mass - 1.0) > _MASS_ATOL:
            raise ValidationError(
                f"constraint mass {mass} != 1; pass relaxed=True for partial shapes"
            )

    @property
    def K(self) -> int:
        return int(self.qhat.size)

    @property
    def constraint_mass(self) -> float:
        qh = self.qhat
        return math.fsum(float(ks @ qh[lo:hi]) for lo, hi, ks in _blocks(qh.size))


def qhat_star_array(params: SystemParams, K: int) -> np.ndarray:
    """Reference increments Qhat*(k) = c / k^(1+d/2) for k = 1..K."""
    if K < 1:
        raise ValidationError(f"K must be >= 1, got {K}")
    check_cap("shape", K)
    out = np.empty(K)
    for lo, hi, ks in _blocks(K):
        out[lo:hi] = qhat_star(params, ks)
    return out


def _xlogx_sum(x: np.ndarray, ref: np.ndarray, minus_one: bool) -> float:
    """np.sum of x log(x/ref), less x when minus_one; 0 where x is 0.

    The terms are formed in one block-sized temporary, which a call per
    block frees.  The ops run unmasked (masked ufuncs cost about 1.8 times
    as much): where x is 0 they give 0 * -inf = nan, zeroed afterwards.
    Where x > 0 is so small that x/ref underflows to 0 (a subnormal x over
    ref > 1), the term is -inf; only a block whose sum is not finite forms
    its non-finite terms again, as x (log x - log ref).
    """
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


def _bump(params: SystemParams, n: int, eps: float) -> float:
    """(Qhat*(n) + eps) log1p(eps/Qhat*(n)), the bump's term in S(Q_n).

    Where Qhat*(n) is below the normal floats (huge n) the term is formed
    from log Qhat*(n) = log c - (1+d/2) log n, math.log taking the int n,
    as eps (1 + t) (x + log1p(t)) with x = log(eps/Qhat*(n)) and t = e^-x.
    """
    log_qn = math.log(qhat_star(params, 1.0)) - (1.0 + params.d / 2.0) * math.log(n)
    if log_qn > _LOG_TINY:
        qn = qhat_star(params, float(n))
        return (qn + eps) * math.log1p(eps / qn)
    if eps == 0.0:
        return 0.0
    x = math.log(eps) - log_qn
    t = math.exp(-x)
    return eps * (1.0 + t) * (x + math.log1p(t))


def _s_of_sequence(params: SystemParams, n: int, eps: float, q_star: float) -> float:
    """S of Q_n over a window where Qhat* has mass q_star: -q_star - eps + bump."""
    return -q_star - eps + _bump(params, n, eps)


def _sequence_of(shape: TruncatedShape, params: SystemParams) -> tuple[int, float, float] | None:
    """(n, eps, q*_K) of a minimizing_sequence shape made at params' (d, beta, rho).

    q*_K = c sum_{k<=K} k^-(1+d/2), certified to c _SUM_TOL.  None for any
    other shape.
    """
    tag = shape._sequence
    if tag is None or tag[:3] != (params.d, params.beta, params.rho):
        return None
    sums = _zeta_truncated(1.0 + params.d / 2.0, shape.K, _SUM_TOL)
    return tag[3], tag[4], qhat_star(params, 1.0) * sums.value


def functional_S(shape: TruncatedShape, params: SystemParams) -> float:
    """Truncated S(Q) = sum_{k<=K} Qhat(k) (log(Qhat(k)/Qhat*(k)) - 1).

    Zero increments contribute zero (x log x -> 0).  On the array route the
    sum is exact up to float rounding.  A minimizing_sequence shape at
    these parameters takes the closed form -q*_K - eps + (Qhat*(n) + eps)
    log1p(eps/Qhat*(n)) instead, exact up to rounding and the certified
    truncation c 1e-17 of q*_K.
    """
    check_cap("shape", shape.K)
    seq = _sequence_of(shape, params)
    if seq is not None:
        return _s_of_sequence(params, *seq)
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
    shape: TruncatedShape, params: SystemParams
) -> EntropyDecomposition:
    """Split S(Q) = q H(P|P*) + q log(q/q*) - q over the truncation window.

    P = Qhat/q and P* = Qhat*/q* are the normalised increment profiles;
    H is their relative entropy.  reconstructed_S must agree with
    functional_S to float precision.  One pass over the blocks sums q and
    q*, a second sums H.  A minimizing_sequence shape at these parameters
    has q = q*_K + eps and H = ((Qhat*(n) + eps)/q) log1p(eps/Qhat*(n)) -
    log1p(eps/q*_K) in closed form, with functional_S's truncation bound.
    """
    check_cap("shape", shape.K)
    seq = _sequence_of(shape, params)
    if seq is not None:
        n, eps, q_star = seq
        q = q_star + eps
        h = _bump(params, n, eps) / q - math.log1p(eps / q_star)
        return _decomposition(q, q_star, h)
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


def _log_constraint_mass(
    lam: float, log_base: np.ndarray, ks: np.ndarray, buf: np.ndarray
) -> float:
    """log sum_k k Qhat*(k) e^(-lambda k), overflow-safe; overwrites buf.

    The max-shifted log-sum-exp of log_base - lam * ks, bit for bit as
    fresh whole-vector NumPy temporaries give it, in buf alone:
    ks * (-lam) + log_base rounds as log_base - lam * ks does.
    """
    np.multiply(ks, -lam, out=buf)
    buf += log_base
    m = float(np.max(buf))
    buf -= m
    np.exp(buf, out=buf)
    return m + math.log(float(np.sum(buf)))


@dataclass(frozen=True)
class MinimizeResult:
    """Exact dual solution of the truncated constrained minimisation."""

    shape: TruncatedShape
    lam: float
    s_value: float
    boundary_mass: float  # K * Qhat(K), the constraint mass on the last site
    constraint_residual: float


def minimize_S(params: SystemParams, K: int, tol: float = 1e-10) -> MinimizeResult:
    """Minimise truncated S over {Qhat >= 0, sum_k k Qhat(k) = 1}.

    Stationarity gives Qhat(k) = Qhat*(k) e^(-lambda k); lambda solves the
    scalar constraint sum_k k Qhat(k) = 1 to |residual| <= min(tol, 1e-7)
    with thermo._bracketed_root, the root solver of the density equation,
    between 0 and a far end that an elementary bound proves (lambda < 0 is
    allowed: the truncated problem is always feasible).  tol lies in
    [1e-13, 1), the domain of solve_alpha.  In the normal regime lambda
    approaches the root of the density equation as K grows; in the condensed
    regime lambda approaches 0 from below and mass concentrates at k = K.
    """
    if K < 100:
        raise ValidationError(f"K must be >= 100, got {K}")
    if not _MIN_TOL <= tol < 1.0:
        raise ValidationError(f"tol must be in [{_MIN_TOL}, 1), got {tol}")
    # four K-vectors: qs, ks, log_base and the dual's work buffer
    qs = qhat_star_array(params, K)
    ks = np.arange(1, K + 1, dtype=np.float64)
    log_base = ks * qs
    np.log(log_base, out=log_base)
    buf = np.empty(K)

    # a shape that is not relaxed must hold its mass to _MASS_ATOL
    tol = min(tol, _MASS_ATOL)

    def residual(lam: float) -> tuple[float, float]:
        try:
            return math.expm1(_log_constraint_mass(lam, log_base, ks, buf)), 0.0
        except OverflowError:  # the mass is past the floats: bisect from this end
            return math.inf, 0.0

    # the mass falls as lambda rises: the root is above 0 when r0 > 0
    r0 = residual(0.0)[0]
    if r0 > 0.0:
        # mass = Qhat*(1) sum_k k^(-d/2) e^(-lambda k) < Qhat*(1)/(e^lambda - 1) = 1 at b
        lam, res = _bracketed_root(residual, 0.0, r0, math.log1p(float(qs[0])), tol)
    else:
        # the boundary term K Qhat(K) = e^(log_base[-1] - lambda K) alone is 1 at
        # b = log_base[-1] / K; the mass grows about linearly in it, and a step
        # that rounds to a term v <= 0 maps outside the bracket, so it bisects
        log_top = float(log_base[-1])
        boundary = (
            lambda lam: math.exp(log_top - lam * K),
            lambda v: (log_top - math.log(v)) / K if v > 0.0 else math.inf,
        )
        lam, res = _bracketed_root(residual, 0.0, r0, log_top / K, tol, boundary)

    # qh = qs * exp(-lam ks) in qs, S = sum qh (-lam ks - 1) in buf, with
    # the roundings of those whole-vector expressions
    np.multiply(ks, -lam, out=buf)
    np.exp(buf, out=buf)
    qh = np.multiply(qs, buf, out=qs)
    np.multiply(ks, -lam, out=buf)
    buf -= 1.0
    buf *= qh
    s_value = float(np.sum(buf))
    # free the work vectors before the shape's checks add their block buffer
    del ks, log_base, buf
    qh.setflags(write=False)
    return MinimizeResult(
        shape=TruncatedShape(qh, relaxed=False),
        lam=lam,
        s_value=s_value,
        boundary_mass=float(K * qh[-1]),
        constraint_residual=res,
    )


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
) -> TruncatedShape:
    """The condensed-phase sequence element Q_n: Qhat* plus a bump at k = n.

    Qhat_n(n) = Qhat*(n) + (rho - rho_c)/(n rho); everywhere else Qhat_n =
    Qhat*.  Its full-series constraint mass is exactly 1; the truncation at K
    is flagged relaxed and tagged for the closed forms of functional_S and
    entropy_decomposition.  Only defined in the condensed regime.
    """
    _, eps = _condensed_bump(n, params, 1e-10)
    if K is None:
        K = max(2 * n, 1000)
    if K < n:
        raise ValidationError(f"truncation K={K} must cover the bump at n={n}")
    qh = qhat_star_array(params, K)
    qh[n - 1] += eps
    qh.setflags(write=False)
    shape = TruncatedShape(qh, relaxed=True)
    object.__setattr__(shape, "_sequence", (params.d, params.beta, params.rho, n, eps))
    return shape


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
    return _s_of_sequence(params, n, eps, -chi)
