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
no K-sized temporary is made beyond the shape itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ValidationError, check_cap
from .exactz import _logsumexp
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
    (truncations of infinite shapes, diagnostic vectors).
    """

    qhat: np.ndarray
    relaxed: bool = False

    def __post_init__(self) -> None:
        arr = np.asarray(self.qhat, dtype=np.float64).copy()
        arr.setflags(write=False)
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

    Overwrites ref.  A call per block frees the block's temporaries.
    """
    pos = x > 0
    np.divide(x, ref, out=ref, where=pos)
    np.log(ref, out=ref, where=pos)
    if minus_one:
        np.subtract(ref, 1.0, out=ref, where=pos)
    np.multiply(x, ref, out=ref)  # 0 where x is 0: ref is finite there
    return float(np.sum(ref))


def functional_S(shape: TruncatedShape, params: SystemParams) -> float:
    """Truncated S(Q) = sum_{k<=K} Qhat(k) (log(Qhat(k)/Qhat*(k)) - 1).

    Zero increments contribute zero (x log x -> 0).  The sum is finite and
    exact up to float rounding; no tolerance applies.
    """
    check_cap("shape", shape.K)
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
    q*, a second sums H.
    """
    check_cap("shape", shape.K)
    qh = shape.qhat
    parts = [(np.sum(qh[lo:hi]), np.sum(qhat_star(params, ks))) for lo, hi, ks in _blocks(shape.K)]
    q, q_star = (math.fsum(column) for column in zip(*parts))
    if q <= 0.0:
        raise ValidationError("decomposition needs total increment mass q > 0")

    def h_block(lo: int, hi: int, ks: np.ndarray) -> float:
        p_star = qhat_star(params, ks)
        p_star /= q_star
        return _xlogx_sum(qh[lo:hi] / q, p_star, False)

    h = math.fsum(h_block(*block) for block in _blocks(shape.K))
    reconstructed = q * h + q * math.log(q / q_star) - q
    return EntropyDecomposition(q, q_star, h, reconstructed)


def _log_constraint_mass(lam: float, log_base: np.ndarray, ks: np.ndarray) -> float:
    """log sum_k k Qhat*(k) e^(-lambda k), overflow-safe."""
    return _logsumexp(log_base - lam * ks)


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
    qs = qhat_star_array(params, K)
    ks = np.arange(1, K + 1, dtype=np.float64)
    log_base = np.log(ks * qs)

    # a shape that is not relaxed must hold its mass to _MASS_ATOL
    tol = min(tol, _MASS_ATOL)

    def residual(lam: float) -> tuple[float, float]:
        return math.expm1(_log_constraint_mass(lam, log_base, ks)), 0.0

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

    qh = qs * np.exp(-lam * ks)
    shape = TruncatedShape(qh, relaxed=False)
    s_value = float(np.sum(qh * (-lam * ks - 1.0)))
    return MinimizeResult(
        shape=shape,
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
    return sol.chi, (params.rho - sol.rho_c) / (n * params.rho)


def minimizing_sequence(
    n: int, params: SystemParams, K: int | None = None
) -> TruncatedShape:
    """The condensed-phase sequence element Q_n: Qhat* plus a bump at k = n.

    Qhat_n(n) = Qhat*(n) + (rho - rho_c)/(n rho); everywhere else Qhat_n =
    Qhat*.  Its full-series constraint mass is exactly 1; the truncation at K
    is flagged relaxed.  Only defined in the condensed regime.
    """
    _, eps = _condensed_bump(n, params, 1e-10)
    if K is None:
        K = max(2 * n, 1000)
    if K < n:
        raise ValidationError(f"truncation K={K} must cover the bump at n={n}")
    qh = qhat_star_array(params, K)
    qh[n - 1] += eps
    return TruncatedShape(qh, relaxed=True)


def minimizing_sequence_s_closed_form(
    n: int, params: SystemParams, tol: float = 1e-12
) -> float:
    """Closed-form S(Q_n): S(Q*) - eps + (Qhat*(n) + eps) log(1 + eps/Qhat*(n)).

    Here eps = (rho - rho_c)/(n rho) and S(Q*) is the condensed-phase entropy
    infimum.  S(Q_n) decreases to S(Q*) as n grows, exhibiting that the
    infimum is approached but never attained.
    """
    chi, eps = _condensed_bump(n, params, tol)
    qstar_n = qhat_star(params, float(n))
    return chi - eps + (qstar_n + eps) * math.log1p(eps / qstar_n)
