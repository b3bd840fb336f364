"""The resource-cap table: each route's boundary, the stated costs, the term caps."""

import math
import tracemalloc

import numpy as np
import pytest

from cyclegas import bosefn, entropy, thermo
from cyclegas.entropy import (
    TruncatedShape,
    entropy_decomposition,
    functional_S,
    minimize_S,
    qhat_star_array,
)
from cyclegas.errors import CAPS, CapError, PrecisionError, ValidationError
from cyclegas.exactz import (
    brute_force_log_Z,
    confinement_log_Z_bracket,
    convergence_scan,
    exact_log_Z,
    mu_N_expected_shape,
)
from cyclegas.partitions import Partition, conjugacy_class_size, iter_parts, partition_count
from cyclegas.sampler import ChainState, run_chain
from cyclegas.thermo import SystemParams, critical_density

BETA_UNIT = 1.0 / (4.0 * math.pi)


def at(n: int) -> SystemParams:
    return SystemParams(3, 1.0, 1.0, n=n)


# every call that sizes its work by n (K for a shape), with the route whose
# cap guards it and a row number that stays with the call, so that a test id
# does not change when another row goes
GUARDED = [
    (0, "enumeration", iter_parts),
    (2, "enumeration", partition_count),
    (3, "enumeration", lambda n: conjugacy_class_size(Partition(n, ((n, 1),)))),
    (4, "exact", lambda n: exact_log_Z(at(n))),
    (5, "exact", lambda n: convergence_scan(SystemParams(3, 1.0, 1.0), [n])),
    (6, "exact", lambda n: confinement_log_Z_bracket(at(n))),
    (8, "exact", lambda n: mu_N_expected_shape(at(n))),
    (9, "permutations", lambda n: brute_force_log_Z(at(n))),
    (10, "chain", lambda n: ChainState(at(n))),
    (11, "chain", lambda n: run_chain(at(n), steps=100)),
    (12, "shape", lambda K: qhat_star_array(SystemParams(3, 1.0, 1.0), K)),
]


@pytest.mark.parametrize(
    "route, call", [row[1:] for row in GUARDED], ids=[f"{route}-{i}" for i, route, _ in GUARDED]
)
def test_route_runs_at_its_cap_and_refuses_one_more(route, call):
    cap = CAPS[route]
    call(cap.limit)
    with pytest.raises(CapError) as err:
        call(cap.limit + 1)
    want = f"{cap.size}={cap.limit + 1} exceeds the {route} cap of {cap.limit} ({cap.cost})"
    assert str(err.value) == want


def test_stated_costs_hold():
    assert partition_count(120) == 1_844_349_560
    assert partition_count(70) == 4_087_968
    assert math.factorial(9) == 362_880
    for route in ("enumeration", "exact"):
        cap = CAPS[route]
        assert f"p({cap.limit}) = {partition_count(cap.limit):,}" in cap.cost
    cap = CAPS["permutations"]
    assert f"{cap.limit}! = {math.factorial(cap.limit):,}" in cap.cost
    cap = CAPS["shape"]
    want = f"{8 * cap.limit // 10**6} MB: one float64 K-vector, a shape's materialised qhat"
    assert cap.cost == want


@pytest.mark.parametrize("ratio", [0.5, 2.0], ids=["normal", "condensed"])
def test_minimize_S_peaks_within_the_shape_cost(ratio):
    # the stated megabytes at the cap, scaled to K = 10^6: the solve builds
    # no K-vector, and materialising qhat adds the vector and a few block
    # buffers (the k block and Qhat*'s two temporaries)
    cap, K = CAPS["shape"], 10**6
    stated = int(cap.cost.split(" MB")[0]) * 10**6 * K // cap.limit
    blocks = 4 * 8 * entropy._BLOCK
    params = SystemParams(3, BETA_UNIT, ratio * critical_density(3, BETA_UNIT))
    minimize_S(params, K).shape.qhat
    tracemalloc.start()
    try:
        res = minimize_S(params, K)
        solve = tracemalloc.get_traced_memory()[1]
        res.shape.qhat
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solve < 64 * 1024
    assert stated <= peak <= stated + blocks


@pytest.mark.parametrize("call", [functional_S, entropy_decomposition])
def test_shape_functionals_keep_the_shape_cap_and_scale_check(monkeypatch, call):
    # they take a built shape, so a shape one past a lowered cap stands in
    # for one past the real cap
    monkeypatch.setitem(CAPS, "shape", CAPS["shape"]._replace(limit=100))
    params = SystemParams(3, 1.0, 1.0)
    call(TruncatedShape(qhat_star_array(params, 100), relaxed=True), params)
    shape = TruncatedShape(np.full(101, 1e-5), relaxed=True)
    with pytest.raises(CapError) as err:
        call(shape, params)
    assert str(err.value) == f"K=101 exceeds the shape cap of 100 ({CAPS['shape'].cost})"
    monkeypatch.undo()
    with pytest.raises(ValidationError, match="below the normal floats"):
        call(shape, SystemParams(2, 1.0, 1e-320))


def evaluations_of_a_root():
    """Evaluations _bracketed_root makes for log 2 as the root of e^-x - 1/2 on [0, 5]."""
    calls = []

    def f(x):
        calls.append(x)
        return math.exp(-x) - 0.5, 0.0

    root = thermo._bracketed_root(f, 0.0, 0.5, 5.0, 1e-15, (float, float), (5.0, None))
    assert root[0] == pytest.approx(math.log(2.0))
    return len(calls)


# the iteration caps, with the count each call below runs to
ITERATION_CAPS = [
    ("expansion_terms", 12, lambda: bosefn.bose_g(1.5, 0.5, 1e-14, method="expansion").terms_used - 1),
    ("expint_steps", 206, lambda: entropy._expint_scaled(1.5, 1.0, 1e-17)[2]),
    ("root_evals", 9, evaluations_of_a_root),
]


def test_term_caps_bound_the_certified_series(monkeypatch):
    def zeta():  # uncached: 127 summed terms, 6 corrections
        return bosefn._zeta_em.__wrapped__(2.5, 1e-30)

    assert zeta().terms_used == 133
    monkeypatch.setitem(CAPS, "zeta_terms", CAPS["zeta_terms"]._replace(limit=32))
    with pytest.raises(PrecisionError):
        zeta()
    # each iteration cap: the call runs at exactly its count and refuses one less
    for route, count, call in ITERATION_CAPS:
        assert call() == count
        monkeypatch.setitem(CAPS, route, CAPS[route]._replace(limit=count))
        assert call() == count
        monkeypatch.setitem(CAPS, route, CAPS[route]._replace(limit=count - 1))
        with pytest.raises(PrecisionError):
            call()


def test_zeta_term_cap_holds_after_doubling(monkeypatch):
    # zeta(2.5) to 1e-30 needs n = 128 summed terms; a cap of 64 must refuse
    # it rather than run one doubling past the cap
    monkeypatch.setitem(CAPS, "zeta_terms", CAPS["zeta_terms"]._replace(limit=64))
    bosefn._zeta_em.cache_clear()
    with pytest.raises(PrecisionError):
        bosefn._zeta_em(2.5, 1e-30)
