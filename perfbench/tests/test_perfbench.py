"""Tests of the benchmark's own machinery: oracles, failure counting, order
statistics, spans, and the contract between BENCHMARK.json and the code.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import oracles  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from cyclegas import SystemParams, exact_log_Z, mu_N_expected_shape  # noqa: E402

POINTS = [(3, 1.0 / (4.0 * math.pi), 5.2), (3, 0.25, 0.3), (1, 1.0, 0.5), (2, 0.5, 1.0)]


@pytest.mark.parametrize("d,beta,rho", POINTS)
def test_recursion_matches_enumeration_up_to_40(d, beta, rho):
    for n in (1, 2, 5, 13, 27, 40):
        want = exact_log_Z(SystemParams(d, beta, rho, n=n))
        assert oracles.close(oracles.log_z(d, beta, rho, n), want, oracles.LOGZ_TOL), n


@pytest.mark.parametrize("d,beta,rho", POINTS)
def test_recursion_expectations_match_enumeration_at_20(d, beta, rho):
    want = mu_N_expected_shape(SystemParams(d, beta, rho, n=20))
    got = oracles.expected_r(d, beta, rho, 20) / 20
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-15)
    assert abs(float(np.arange(1, 21) @ got) - 1.0) < 1e-12


def test_exact_long_cycle_fraction_at_2000():
    beta = 1.0 / (4.0 * math.pi)
    rho = 2.0 * workloads.rho_c3(beta)
    frac = oracles.long_cycle_fraction(3, beta, rho, 2000, int(2000 ** (2.0 / 3.0)))
    assert abs(frac - 0.51788) < 5e-5


def _report(tasks, records):
    return {"tasks": tasks, "records": records}


def test_injected_wrong_result_is_counted():
    p = {"d": 3, "beta": 0.25, "rho": 1.0, "n": 12}
    good = exact_log_Z(SystemParams(3, 0.25, 1.0, n=12))
    tasks = [{"id": "a", "kind": "exact_log_Z", "args": p},
             {"id": "b", "kind": "exact_log_Z", "args": p},
             {"id": "c", "kind": "exact_log_Z", "args": p}]
    records = [
        {"id": "a", "round": 0, "seconds": 0.1, "data": good, "error": None},
        {"id": "b", "round": 0, "seconds": 0.1, "data": good * (1 + 1e-9), "error": None},
        {"id": "c", "round": 0, "seconds": 0.1, "data": None, "error": "CapError: too big"},
    ]
    failures = run.check_report(_report(tasks, records), oracles.Checker())
    assert [f["id"] for f in failures] == ["b", "c"]


def test_wrong_exit_code_and_bad_alpha_are_counted():
    checker = oracles.Checker(run.SCHEMA)
    edge = {"id": "e", "kind": "cli", "args": {"argv": ["phase", "--bogus"], "expect_exit": 1}}
    assert checker.check(edge, {"exit": 1, "stdout": "", "stderr": ""}) == []
    assert checker.check(edge, {"exit": 0, "stdout": "{}", "stderr": ""})
    solve = {"id": "s", "kind": "solve_alpha", "args": {"d": 3, "beta": 0.25, "rho": 0.1}}
    data = {"regime": "normal", "alpha": 1.0, "rho_c": oracles.rho_c(3, 0.25), "beta_c": 1.0,
            "condensate_fraction": 0.0, "free_energy": 0.0, "chi": 0.0}
    assert any("density residual" in p for p in checker.check(solve, data))


def test_chains_pool_against_exact_answers():
    checker = oracles.Checker()
    c = workloads.SMALL_CHAIN
    exact = oracles.expected_r(c["d"], c["beta"], c["rho"], c["n"]) / c["n"]
    honest = {"mean_qhat": list(exact), "qhat_stderr": [1e-3] * c["n"], "n_samples": 1000}
    assert checker.check_pool(c, [honest, honest]) == []
    off = dict(honest, mean_qhat=list(exact + 0.01))
    assert checker.check_pool(c, [off, off])
    big = dict(workloads.CONDENSED, rho=2.0 * workloads.rho_c3(workloads.BETA_UNIT))
    near = {"threshold": 158, "long_cycle_fraction": 0.5}
    assert checker.check_pool(big, [near, dict(near, long_cycle_fraction=0.54)]) == []
    assert checker.check_pool(big, [dict(near, long_cycle_fraction=0.3)])


def _frozen_chain(args):
    """What a chain that never leaves its start state would report."""
    from cyclegas import ChainState
    from cyclegas.sampler import default_threshold

    n, steps = args["n"], args["steps"]
    state = ChainState(SystemParams(args["d"], args["beta"], args["rho"], n=n), seed=1)
    threshold, k_report = default_threshold(n), min(n, 30)
    mean = [state.occ.get(k, 0) / n for k in range(1, k_report + 1)]
    stay = {"proposed": steps // 2, "accepted": 0, "auto_rejected": 0}
    return {
        "n": n, "k_report": k_report, "threshold": threshold, "mean_qhat": mean,
        "qhat_stderr": [0.0] * k_report, "fraction_stderr": 0.0,
        "long_cycle_fraction": sum(k * r for k, r in state.occ.items() if k > threshold) / n,
        "tail_mass_mean": 1.0 - sum(k * m for k, m in enumerate(mean, 1)),
        "n_samples": -(-(steps - steps // 10) // 10), "seed": 1,
        "acceptance": {"split": stay, "merge": dict(stay, proposed=steps - steps // 2)},
    }


def test_frozen_condensed_chain_fails():
    args = dict(workloads.CONDENSED, rho=2.0 * workloads.rho_c3(workloads.BETA_UNIT))
    tasks = [{"id": f"c{i}", "kind": "run_chain", "args": dict(args, seed=i)} for i in range(4)]
    records = [{"id": t["id"], "round": 0, "seconds": 1.0, "data": _frozen_chain(args),
                "error": None} for t in tasks]
    failures = run.check_report(_report(tasks, records), oracles.Checker())
    assert [f["id"] for f in failures] == ["c0", "c1", "c2", "c3"]
    problems = failures[0]["problems"]
    assert "no split move accepted" in problems and "no merge move accepted" in problems
    assert any("never changed" in p for p in problems)
    # the start state's long-cycle fraction (0.63) is also outside the band
    assert any("long-cycle fraction" in p for p in problems)


@pytest.mark.parametrize("n,rank", [(11, 1), (12, 2), (100, 90), (432, 422)])
def test_tail_picks_the_order_statistic_with_ten_beyond(n, rank):
    values = list(range(n, 0, -1))  # n..1, unsorted on purpose
    value, percentile = stats.tail(values)
    assert value == rank
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100.0 * rank / n)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))


def test_task_seconds_are_normalised_medians_over_the_warm_rounds():
    ref = probe.REF_S

    def rec(task, r, seconds, before=ref, after=ref):
        return {"id": task, "round": r, "seconds": seconds, "probe_before": before,
                "probe_after": after}

    records = [rec("a", 0, 0.5), rec("b", 0, 0.5),
               rec("a", 1, 2.0), rec("b", 1, 1.0),
               rec("a", 2, 1.0), rec("b", 2, 3.0, 2 * ref, 4 * ref),  # host 3x slower
               rec("a", 3, 1.2), rec("b", 3, 1.1)]
    assert stats.task_seconds(records) == pytest.approx([1.2, 1.0])
    assert stats.task_seconds(records[:2]) == [0.5, 0.5]  # a single-pass (traced) run


def test_timed_rounds_depend_only_on_seconds():
    for w in workloads.WORKLOADS:
        assert workloads.timed_rounds(w, 0) == workloads.MIN_TIMED_ROUNDS
        assert workloads.timed_rounds(w, 20) >= workloads.MIN_TIMED_ROUNDS


def test_tau_int_of_ar1():
    rng = np.random.default_rng(0)
    phi, n = 0.9, 200_000
    x = np.empty(n)
    x[0] = 0.0
    noise = rng.standard_normal(n)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + noise[i]
    want = (1 + phi) / (2 * (1 - phi))  # 9.5 in the 1/2 + sum rho convention
    assert stats.tau_int(x) == pytest.approx(want, rel=0.1)
    assert stats.tau_int(rng.standard_normal(n)) == pytest.approx(0.5, abs=0.05)


def test_self_time_subtracts_children():
    recorded = [
        {"name": "thermo.solve_alpha", "start": 0.0, "end": 10.0, "parent": -1},
        {"name": "bosefn.bose_g", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "bosefn.zeta", "start": 5.0, "end": 6.0, "parent": 0},
        {"name": "bosefn.zeta", "start": 5.2, "end": 5.7, "parent": 2},
    ]
    assert spans.self_times(recorded) == pytest.approx([6.0, 3.0, 0.5, 0.5])


def test_tracer_nests_spans_across_layers():
    import cyclegas
    from cyclegas import thermo

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.task = "t"
        cyclegas.solve_alpha(SystemParams(3, 0.25, 0.2))
    finally:
        tracer.uninstall()
    assert not hasattr(thermo.bose_g, "__wrapped__")
    names = [s["name"] for s in tracer.spans]
    assert names[0] == "thermo.solve_alpha"
    root = tracer.spans[0]
    assert root["attrs"]["regime"] == "normal"
    roots = [s for s in tracer.spans[1:] if s["parent"] == 0]
    assert any(s["name"] == "bosefn.bose_g" and "terms" in s["attrs"] for s in roots)
    assert any(s["name"] == "thermo.critical_density" for s in roots)


def test_workloads_are_seeded_and_fixed_in_size():
    for w in workloads.WORKLOADS:
        a, b, c = workloads.build(w, 1), workloads.build(w, 1), workloads.build(w, 2)
        assert a == b
        assert a != c
        assert [t["id"] for t in a] == [t["id"] for t in c]
        assert len(a) > stats.TAIL_BEYOND
    assert len(workloads.build("phase-grid", 0)) == 146


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.E2E
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
