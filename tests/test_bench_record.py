"""Tests for scripts/bench_record.py --compare on two hand-made BENCH files."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "scripts", "bench_record.py")
)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

BENCH = {
    "workloads": [{"name": "fast"}, {"name": "slow"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def record(path, failed: int, medians: dict[str, dict[str, float]]) -> str:
    workloads = {
        name: {
            "failed": failed if name == "slow" else 0,
            "attempted": 10,
            "metrics": {m: {"median": v} for m, v in values.items()},
        }
        for name, values in medians.items()
    }
    path.write_text(json.dumps({"workloads": workloads}))
    return str(path)


def test_flags_each_change_past_its_bound(tmp_path, capsys):
    old = record(tmp_path / "old.json", 0, {
        "fast": {"wall_s": 1.0, "rate": 100.0},
        "slow": {"wall_s": 2.0, "rate": 50.0},
    })
    new = record(tmp_path / "new.json", 0, {
        "fast": {"wall_s": 0.5, "rate": 105.0},  # better past 0.25; rate inside 0.1
        "slow": {"wall_s": 2.4, "rate": 40.0},  # wall inside 0.25; rate worse past 0.1
    })
    assert bench_record.compare(old, new, BENCH) == 1
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["fast wall_s"] == "1 -> 0.5 s  x0.500 (bound 0.25)  better"
    assert lines["fast rate"] == "100 -> 105 1/s  x1.050 (bound 0.1)"
    assert lines["slow wall_s"] == "2 -> 2.4 s  x1.200 (bound 0.25)"
    assert lines["slow rate"] == "50 -> 40 1/s  x0.800 (bound 0.1)  WORSE"


def test_a_larger_failed_share_is_worse(tmp_path, capsys):
    medians = {"fast": {"wall_s": 1.0, "rate": 1.0}, "slow": {"wall_s": 1.0, "rate": 1.0}}
    old = record(tmp_path / "old.json", 0, medians)
    new = record(tmp_path / "new.json", 1, medians)
    assert bench_record.compare(old, old, BENCH) == 0
    assert bench_record.compare(old, new, BENCH) == 1
    assert "slow failed: 0 -> 0.1 of tasks  WORSE" in capsys.readouterr().out
