"""Tests for scripts/bench_record.py: --compare on hand-made paired files, and the paired runs."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "scripts", "bench_record.py")
)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)
RUN_TIER1 = bench_record.run_tier1

BENCH = {
    "workloads": [{"name": "fast"}, {"name": "slow"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


# the tail of a tier-1 run's pytest -q --durations=10 output (two of its ten lines)
TIER1_OUTPUT = """\
........F.                                                               [100%]
=================================== FAILURES ===================================
FAILED tests/test_x.py::test_b - assert 1 == 2
============================= slowest 10 durations =============================
14.80s call     tests/test_acceptance.py::test_09_chain[n=2000 condensed]
1.51s setup    tests/test_exactz.py::TestLogZTable::test_rows[1000]

(8 durations < 0.005s hidden.  Use -vv to show these durations.)
1 failed, 902 passed, 2 errors in 54.67s
"""


@pytest.fixture(autouse=True)
def no_pytest_inside_pytest(monkeypatch):
    """Every record these tests build reads TIER1_OUTPUT instead of running tier-1."""
    calls = []
    monkeypatch.setattr(
        bench_record, "run_tier1", lambda tree: (calls.append(tree), (TIER1_OUTPUT, 60.0))[1]
    )
    return calls


def record(path, failed: int, parent: dict, medians: dict, wins: int = 5) -> str:
    """One file recorded with --parent over 10 pairs, each side given by its medians.

    On the measured side the "slow" workload failed `failed` of its 10
    tasks, every metric won `wins` pairs, and each parent quartile lies 1%
    from its median (a quartile spread of 2% of the median).
    """

    def side(values: dict, failed: int) -> dict:
        metrics = {m: {"median": v, "q1": 0.99 * v, "q3": 1.01 * v} for m, v in values.items()}
        return {"failed": failed, "attempted": 10, "metrics": metrics}

    workloads = {}
    for name, values in medians.items():
        entry = side(values, failed if name == "slow" else 0)
        entry.update(parent=side(parent[name], 0), wins=dict.fromkeys(values, wins), runs=[{}] * 10)
        workloads[name] = entry
    path.write_text(json.dumps({"workloads": workloads}))
    return str(path)


def compared(capsys) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())


def test_flags_each_change_past_its_bound(tmp_path, capsys):
    parent = {"fast": {"wall_s": 1.0, "rate": 100.0}, "slow": {"wall_s": 2.0, "rate": 50.0}}
    paired = record(tmp_path / "paired.json", 0, parent, {
        "fast": {"wall_s": 0.5, "rate": 105.0},  # better past 0.25; rate inside 0.1
        "slow": {"wall_s": 2.4, "rate": 40.0},  # wall inside 0.25; rate worse past 0.1
    })
    assert bench_record.compare(paired, BENCH) == 1
    lines = compared(capsys)
    assert lines["fast wall_s"] == "1 -> 0.5 s  x0.500 (bound 0.25)  better  wins 5/10"
    assert lines["fast rate"] == "100 -> 105 1/s  x1.050 (bound 0.1)  wins 5/10"
    assert lines["slow wall_s"] == "2 -> 2.4 s  x1.200 (bound 0.25)  wins 5/10"
    assert lines["slow rate"] == "50 -> 40 1/s  x0.800 (bound 0.1)  WORSE  wins 5/10"


def test_a_larger_failed_share_is_worse(tmp_path, capsys):
    medians = {"fast": {"wall_s": 1.0, "rate": 1.0}, "slow": {"wall_s": 1.0, "rate": 1.0}}
    same = record(tmp_path / "same.json", 0, medians, medians)
    failing = record(tmp_path / "failing.json", 1, medians, medians)
    assert bench_record.compare(same, BENCH) == 0
    assert bench_record.compare(failing, BENCH) == 1
    assert "slow failed: 0 -> 0.1 of tasks  WORSE" in capsys.readouterr().out


@pytest.mark.parametrize(
    "wins, wall_s, rate, verdicts",
    [
        # 9 of 10 pairs and a median gain past the parent's 2% quartile spread
        (9, 0.97, 103.0, ("claimable", "claimable")),
        (8, 0.97, 103.0, ("no claim", "no claim")),  # one pair short
        (10, 0.99, 101.0, ("no claim", "no claim")),  # inside the spread
        (10, 1.02, 97.0, ("no claim", "no claim")),  # worse
    ],
)
def test_a_claim_needs_nine_wins_and_a_gain_past_the_parent_spread(
    tmp_path, capsys, wins, wall_s, rate, verdicts
):
    parent = {"fast": {"wall_s": 1.0, "rate": 100.0}}
    medians = {"fast": {"wall_s": wall_s, "rate": rate}}
    paired = record(tmp_path / "paired.json", 0, parent, medians, wins)
    assert bench_record.compare(paired, dict(BENCH, workloads=[{"name": "fast"}])) == 0
    lines = compared(capsys)
    for metric, verdict in zip(("wall_s", "rate"), verdicts):
        assert lines[f"fast {metric} verdict"].startswith(f"{verdict} (wins {wins}/10, need 9;")
    gain = f"{1.0 - wall_s:.6g} s against parent quartile spread 0.02 s)"
    assert lines["fast wall_s verdict"].endswith(gain)


def test_compare_takes_one_paired_file(tmp_path, capsys):
    medians = {"fast": {"wall_s": 1.0, "rate": 1.0}}
    paired = record(tmp_path / "paired.json", 0, medians, medians)
    with pytest.raises(SystemExit) as err:
        bench_record.main(["--compare", paired, paired])
    assert err.value.code == 2
    assert "--compare takes one file recorded with --parent" in capsys.readouterr().err
    alone = tmp_path / "alone.json"
    alone.write_text(json.dumps({"workloads": {"fast": {"failed": 0, "attempted": 1}}}))
    assert bench_record.compare(str(alone), BENCH) == 2
    assert "no parent side for fast" in capsys.readouterr().err


def stub_runner(calls: list):
    """A runner that records each call and returns a result whose wall_s sorts by tree."""

    def runner(tree, workload, seed, seconds):
        calls.append((tree, workload, seed))
        wall = {"new": 1.0, "parent": 2.0}[tree] + seed / 100
        if tree == "new" and seed == 3:
            wall = 5.0  # the parent wins this pair
        return {
            "seed": seed, "failed": 0, "attempted": 4, "provenance": {"tree": tree},
            "metrics": {"wall_s": {"value": wall}, "rate": {"value": 10.0}},
        }

    return runner


def test_parent_runs_interleave_seed_by_seed(monkeypatch):
    monkeypatch.setattr(bench_record, "SEEDS", (1, 2, 3, 4))
    calls = []
    bench = dict(BENCH, run_seconds=7)
    record = bench_record.build_record("new", "parent", bench, stub_runner(calls))
    # each seed runs both trees back to back for each workload, the parent
    # first at the first and third seeds, second at the others
    want = []
    for seed, order in ((1, ("parent", "new")), (2, ("new", "parent")),
                        (3, ("parent", "new")), (4, ("new", "parent"))):
        for workload in ("fast", "slow"):
            want += [(tree, workload, seed) for tree in order]
    assert calls == want
    assert record["parent_first"] == [True, False, True, False]
    entry = record["workloads"]["fast"]
    assert entry["metrics"]["wall_s"]["values"] == [1.01, 1.02, 5.0, 1.04]
    assert entry["parent"]["metrics"]["wall_s"]["values"] == [2.01, 2.02, 2.03, 2.04]
    assert entry["parent"]["runs"][0]["provenance"] == {"tree": "parent"}
    # lower wall_s wins 3 of 4 pairs; an equal rate wins none
    assert entry["wins"] == {"wall_s": 3, "rate": 0}


def test_one_file_compares_its_two_sides(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_record, "SEEDS", (1, 2, 3, 4))
    record = bench_record.build_record("new", "parent", dict(BENCH, run_seconds=7), stub_runner([]))
    path = tmp_path / "paired.json"
    path.write_text(json.dumps(record))
    assert bench_record.compare(str(path), BENCH) == 0
    lines = compared(capsys)
    # medians: parent 2.025, new 1.03; x0.509 is better past the 0.25 bound
    assert lines["fast wall_s"] == "2.025 -> 1.03 s  x0.509 (bound 0.25)  better  wins 3/4"
    assert lines["slow rate"] == "10 -> 10 1/s  x1.000 (bound 0.1)  wins 0/4"
    assert lines["fast wall_s verdict"].startswith("no claim (wins 3/4, need 4;")


def test_a_record_holds_ten_pairs():
    # a claimed gain is judged on ten pairs of runs, seeds 1-10
    calls = []
    record = bench_record.build_record("new", "parent", dict(BENCH, run_seconds=7), stub_runner(calls))
    assert record["seeds"] == list(range(1, 11)) and len(calls) == 10 * 2 * 2
    assert record["parent_first"] == [True, False] * 5
    assert sum(record["workloads"]["fast"]["wins"].values()) == 9


def checkout(root, *names: str, cache: bool = False) -> str:
    """A checkout at root/names holding BENCHMARK.json, and src/cyclegas/__pycache__ with cache."""
    tree = root.joinpath(*names)
    (tree / "src" / "cyclegas").mkdir(parents=True)
    (tree / "BENCHMARK.json").write_text(json.dumps(dict(BENCH, run_seconds=7)))
    if cache:
        (tree / "src" / "cyclegas" / "__pycache__").mkdir()
    return str(tree)


def by_name(calls: list):
    """stub_runner on the last component of each checkout's path."""
    runner = stub_runner(calls)
    return lambda tree, *args: runner(os.path.basename(tree), *args)


def test_parent_refuses_paths_of_two_lengths(tmp_path, capsys):
    # the chain workload leans with the checkout path's length
    calls = []
    new, parent = checkout(tmp_path, "new"), checkout(tmp_path, "parent")
    with pytest.raises(SystemExit) as err:
        bench_record.main(["39", "--checkout", new, "--parent", parent], runner=by_name(calls))
    assert err.value.code == 2 and calls == []
    want = f"paths differ in length ({len(new)} and {len(parent)})"
    assert want in capsys.readouterr().err


@pytest.mark.parametrize("cached", ["new", "parent"])
def test_parent_refuses_a_bytecode_cache_on_either_side(tmp_path, capsys, cached):
    calls = []
    new = checkout(tmp_path, "ab", "new", cache=cached == "new")
    parent = checkout(tmp_path, "parent", cache=cached == "parent")
    assert len(new) == len(parent)
    with pytest.raises(SystemExit) as err:
        bench_record.main(["39", "--checkout", new, "--parent", parent], runner=by_name(calls))
    assert err.value.code == 2 and calls == []
    cache = os.path.join(new if cached == "new" else parent, "src", "cyclegas", "__pycache__")
    assert f"{cache} holds bytecode" in capsys.readouterr().err


def test_parent_runs_a_fair_pair(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "SEEDS", (1, 2))
    monkeypatch.setattr(bench_record, "ROOT", str(tmp_path))
    calls = []
    new, parent = checkout(tmp_path, "ab", "new"), checkout(tmp_path, "parent")
    assert bench_record.main(["39", "--checkout", new, "--parent", parent], runner=by_name(calls)) == 0
    assert len(calls) == 2 * 2 * 2
    record = json.loads((tmp_path / "BENCH_39.json").read_text())
    assert record["workloads"]["fast"]["wins"] == {"wall_s": 2, "rate": 0}


def test_runs_write_no_bytecode(tmp_path, monkeypatch):
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    (out / "result-fast-seed3-trace0.json").write_text(json.dumps({"seed": 3}))
    seen = []
    monkeypatch.setattr(bench_record.subprocess, "run", lambda argv, **kwargs: seen.append(kwargs))
    assert bench_record.run(str(tmp_path), "fast", 3, 7) == {"seed": 3}
    [kwargs] = seen
    assert kwargs["cwd"] == str(tmp_path) and kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"


def test_tier1_reads_counts_and_slowest_tests():
    suite = bench_record.tier1(TIER1_OUTPUT, 61.5)
    # the two errors count as failed
    assert (suite["passed"], suite["failed"], suite["wall_s"]) == (902, 3, 61.5)
    first, second = suite["slowest"]
    assert first == {
        "seconds": 14.8,
        "when": "call",
        "test": "tests/test_acceptance.py::test_09_chain[n=2000 condensed]",
    }
    assert (second["seconds"], second["when"]) == (1.51, "setup")
    clean = bench_record.tier1("....\n903 passed in 54.67s\n", 55.0)
    assert (clean["passed"], clean["failed"], clean["slowest"]) == (903, 0, [])


def test_tier1_runs_once_per_side_parent_first(no_pytest_inside_pytest, monkeypatch):
    monkeypatch.setattr(bench_record, "SEEDS", (1, 2))
    record = bench_record.build_record("new", "parent", dict(BENCH, run_seconds=7), stub_runner([]))
    assert no_pytest_inside_pytest == ["parent", "new"]
    assert record["tier1"]["passed"] == record["tier1"]["parent"]["passed"] == 902
    assert record["tier1"]["wall_s"] == 60.0 and len(record["tier1"]["slowest"]) == 2
    alone = bench_record.build_record("new", None, dict(BENCH, run_seconds=7), stub_runner([]))
    assert "parent" not in alone["tier1"] and no_pytest_inside_pytest[2:] == ["new"]


def test_an_injected_tier1_runner_replaces_pytest(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "SEEDS", (1, 2))
    monkeypatch.setattr(bench_record, "ROOT", str(tmp_path))
    trees = []
    new = checkout(tmp_path, "new")

    def fake(tree):
        trees.append(tree)
        return "7 passed in 1.00s\n", 2.0

    assert bench_record.main(["41", "--checkout", new], runner=by_name([]), tier1_runner=fake) == 0
    record = json.loads((tmp_path / "BENCH_41.json").read_text())
    assert trees == [new]
    assert record["tier1"] == {"passed": 7, "failed": 0, "wall_s": 2.0, "slowest": []}


def test_tier1_writes_no_bytecode(tmp_path, monkeypatch):
    seen = []

    def fake_run(argv, **kwargs):
        seen.append((argv, kwargs))
        return bench_record.subprocess.CompletedProcess(argv, 0, stdout="3 passed in 0.10s\n")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    output, wall_s = RUN_TIER1(str(tmp_path))
    assert output == "3 passed in 0.10s\n" and wall_s >= 0.0
    [(argv, kwargs)] = seen
    assert argv[1:3] == ["-m", "pytest"] and "--durations=10" in argv
    assert argv[argv.index("-p") + 1] == "no:cacheprovider"
    assert kwargs["cwd"] == str(tmp_path) and kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert kwargs["env"]["PYTHONPATH"].split(os.pathsep)[0] == "src"
