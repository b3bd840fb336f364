"""Per-layer metrics from a traced run, and the end-to-end metric each should move.

Every per-layer metric is listed in ``PER_LAYER`` with its unit, its better
direction and the (end-to-end metric, workload) pairs it is expected to
move.  A metric with no work behind it on a workload (``entropy.calls`` on
``chain``, ``sampler.ess`` outside ``chain``) reads 0 and is listed under
``not_applicable`` in the result file.
"""

from __future__ import annotations

import statistics

from spans import self_times
from probe import normalised
from stats import task_seconds

CLI_COMMANDS = ("phase", "alpha", "free-energy", "minimize", "exact-z", "converge",
                "sample", "scan-long-cycles")

_BOSE = [("wall_s", "phase-grid"), ("task_tail_ms", "phase-grid")]
_THERMO = [("task_p50_ms", "phase-grid"), ("task_tail_ms", "phase-grid"), ("cli.phase_s", "cli-readme")]
_ENTROPY = [("wall_s", "phase-grid")]
_PARTS = [("wall_s", "exact-sums")]
_EXACTZ = [("wall_s", "exact-sums"), ("task_tail_ms", "exact-sums"), ("cli.converge_s", "cli-readme")]
_SAMPLER = [("wall_s", "chain"), ("task_p50_ms", "chain")]
_CLI = [("task_p50_ms", "cli-readme"), ("wall_s", "cli-readme")]

# (name, unit, better, moves)
PER_LAYER = [
    ("bosefn.calls", "count", "lower", _BOSE),
    ("bosefn.terms", "count", "lower", _BOSE),
    ("bosefn.terms_per_call_max", "count", "lower", _BOSE),
    ("bosefn.self_s", "s", "lower", _BOSE),
    ("bosefn.precision_errors", "count", "lower", _BOSE),
    ("thermo.solves", "count", "lower", _THERMO),
    ("thermo.evals_per_solve", "count", "lower", _THERMO),
    ("thermo.evals_per_solve_max", "count", "lower", _THERMO),
    ("thermo.near_critical_s", "s", "lower", _THERMO),
    ("thermo.self_s", "s", "lower", _THERMO),
    ("entropy.calls", "count", "lower", _ENTROPY),
    ("entropy.elements", "count", "lower", _ENTROPY),
    ("entropy.ns_per_element", "ns", "lower", _ENTROPY),
    ("entropy.computed_bytes", "bytes", "lower", _ENTROPY),
    ("entropy.self_s", "s", "lower", _ENTROPY),
    ("partitions.items", "count", "lower", _PARTS),
    ("partitions.ns_per_item", "ns", "lower", _PARTS),
    ("exactz.log_z_s", "s", "lower", _EXACTZ),
    ("exactz.expect_s", "s", "lower", _EXACTZ),
    ("exactz.bracket_s", "s", "lower", _EXACTZ),
    ("exactz.oracle_s", "s", "lower", _EXACTZ),
    ("exactz.ns_per_partition", "ns", "lower", _EXACTZ),
    ("exactz.self_s", "s", "lower", _EXACTZ),
    ("sampler.steps", "count", "higher", _SAMPLER),
    ("sampler.steps_per_s", "1/s", "higher", _SAMPLER),
    ("sampler.start_s", "s", "lower", _SAMPLER),
    ("sampler.split_proposed", "count", "higher", _SAMPLER),
    ("sampler.accept_split", "ratio", "higher", _SAMPLER),
    ("sampler.merge_proposed", "count", "higher", _SAMPLER),
    ("sampler.accept_merge", "ratio", "higher", _SAMPLER),
    ("sampler.auto_reject_frac", "ratio", "lower", _SAMPLER),
    ("sampler.self_s", "s", "lower", _SAMPLER),
    ("sampler.fraction_z", "sigma", "lower", _SAMPLER),
    ("sampler.tau_int_steps", "steps", "lower", _SAMPLER),
    ("sampler.ess", "count", "higher", _SAMPLER),
    ("sampler.ess_per_s", "1/s", "higher", _SAMPLER),
    *[(f"cli.{c}_s", "s", "lower", _CLI) for c in CLI_COMMANDS],
    ("cli.import_s", "s", "lower", _CLI),
    ("cli.exit_code_mismatches", "count", "lower", _CLI),
    ("trace.overhead_frac", "ratio", "lower", []),
]

UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _entries(spans, idxs, layer):
    """Spans among ``idxs`` that enter ``layer`` from outside it."""
    out = []
    for i in idxs:
        s = spans[i]
        if _layer(s["name"]) != layer:
            continue
        parent = s["parent"]
        if parent < 0 or _layer(spans[parent]["name"]) != layer:
            out.append(s)
    return out


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans, traced: dict, base: dict):
    """Returns (metrics, not_applicable) for one traced run."""
    selfs = self_times(spans)
    work = [i for i, s in enumerate(spans) if s["task"] not in ("setup", "post")]
    ws = [spans[i] for i in work]

    def self_s(layer):
        return sum(selfs[i] for i in work if _layer(spans[i]["name"]) == layer)

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in ws if s["name"] == name]

    m = {}
    bose = _entries(spans, work, "bosefn")
    m["bosefn.calls"] = len(bose)
    m["bosefn.terms"] = sum(s["attrs"].get("terms", 0) for s in bose)
    m["bosefn.terms_per_call_max"] = max((s["attrs"].get("terms", 0) for s in bose), default=0)
    m["bosefn.self_s"] = self_s("bosefn")
    m["bosefn.precision_errors"] = sum(s["attrs"].get("error") == "PrecisionError" for s in bose)

    solves = named("thermo.solve_alpha")
    evals = []
    near = 0.0
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    for i in work:
        s = spans[i]
        if s["name"] != "thermo.solve_alpha" or s["attrs"].get("regime") != "normal":
            continue
        d = s["attrs"]["d"]
        evals.append(sum(c["name"] == "bosefn.bose_g" and c["attrs"].get("s") == d / 2.0
                         for c in children.get(i, [])))
        outer = s["parent"] < 0 or spans[s["parent"]]["name"] != "thermo.solve_alpha"
        if outer and d >= 3 and s["attrs"].get("ratio", 0.0) >= 0.99:
            near += dur(s)
    m["thermo.solves"] = len(solves)
    m["thermo.evals_per_solve"] = statistics.mean(evals) if evals else 0.0
    m["thermo.evals_per_solve_max"] = max(evals, default=0)
    m["thermo.near_critical_s"] = near
    m["thermo.self_s"] = self_s("thermo")

    ent = _entries(spans, work, "entropy")
    elements = sum(s["attrs"].get("K", 0) for s in ent)
    m["entropy.calls"] = len(ent)
    m["entropy.elements"] = elements
    m["entropy.self_s"] = self_s("entropy")
    m["entropy.ns_per_element"] = _ratio(m["entropy.self_s"], elements, 1e9)
    m["entropy.computed_bytes"] = 8 * elements  # one float64 K-vector per call, from sizes

    parts = named("partitions.iter_parts")
    m["partitions.items"] = sum(s["attrs"].get("items", 0) for s in parts)
    drain = traced.get("extras", {}).get("drain")
    m["partitions.ns_per_item"] = _ratio(drain["seconds"], drain["items"], 1e9) if drain else 0.0

    log_z = named("exactz.exact_log_Z")
    log_z_items = sum(s["attrs"].get("items", 0) for s in parts
                      if s["parent"] >= 0 and spans[s["parent"]]["name"] == "exactz.exact_log_Z")
    m["exactz.log_z_s"] = sum(map(dur, log_z))
    m["exactz.expect_s"] = sum(map(dur, named("exactz.mu_N_expected_shape")))
    m["exactz.bracket_s"] = sum(map(dur, named("exactz.confinement_log_Z_bracket")))
    m["exactz.oracle_s"] = sum(map(dur, named("exactz.brute_force_log_Z")))
    m["exactz.ns_per_partition"] = _ratio(m["exactz.log_z_s"], log_z_items, 1e9)
    m["exactz.self_s"] = self_s("exactz")

    chains = named("sampler.run_chain")
    acc = [s["attrs"]["acceptance"] for s in chains if "acceptance" in s["attrs"]]
    total = {k: {f: sum(a[k][f] for a in acc) for f in ("proposed", "accepted", "auto_rejected")}
             for k in ("split", "merge")}
    steps = total["split"]["proposed"] + total["merge"]["proposed"]
    m["sampler.steps"] = steps
    m["sampler.steps_per_s"] = _ratio(steps, sum(map(dur, chains)))
    m["sampler.start_s"] = sum(map(dur, named("sampler.ChainState")))
    m["sampler.split_proposed"] = total["split"]["proposed"]
    m["sampler.accept_split"] = _ratio(total["split"]["accepted"], total["split"]["proposed"])
    m["sampler.merge_proposed"] = total["merge"]["proposed"]
    m["sampler.accept_merge"] = _ratio(total["merge"]["accepted"], total["merge"]["proposed"])
    m["sampler.auto_reject_frac"] = _ratio(
        total["split"]["auto_rejected"] + total["merge"]["auto_rejected"], steps)
    m["sampler.self_s"] = self_s("sampler")
    honesty = traced.get("extras", {}).get("honesty")
    for key in ("fraction_z", "tau_int_steps", "ess", "ess_per_s"):
        m["sampler." + key] = 0.0
    if honesty:
        if honesty["stderr"] > 0:
            m["sampler.fraction_z"] = abs(honesty["estimate"] - honesty["exact"]) / honesty["stderr"]
        m["sampler.tau_int_steps"] = honesty["tau_int_steps"]
        m["sampler.ess"] = honesty["ess"]
        m["sampler.ess_per_s"] = _ratio(honesty["ess"], honesty["seconds"])

    by_command: dict[str, list] = {}
    mismatches = 0
    for report in (base, traced):
        for task, rec in zip_records(report):
            if task["kind"] != "cli":
                continue
            code = task["args"]["expect_exit"]
            if rec["data"] is None or rec["data"]["exit"] != code:
                mismatches += 1
            if report is base and code == 0:
                by_command.setdefault(task["args"]["argv"][0], []).append(
                    normalised(rec["seconds"], rec["probe_before"], rec["probe_after"]))
    for c in CLI_COMMANDS:
        m[f"cli.{c}_s"] = statistics.median(by_command[c]) if c in by_command else 0.0
    m["cli.import_s"] = traced.get("extras", {}).get("cli_import_s", 0.0)
    m["cli.exit_code_mismatches"] = mismatches

    m["trace.overhead_frac"] = (sum(task_seconds(traced["records"]))
                                / sum(task_seconds(base["records"])) - 1.0)
    not_applicable = sorted(k for k, v in m.items() if v == 0 and not k.endswith(
        ("precision_errors", "exit_code_mismatches")))
    return {k: float(v) for k, v in m.items()}, not_applicable


def zip_records(report):
    tasks = {t["id"]: t for t in report["tasks"]}
    return [(tasks[r["id"]], r) for r in report["records"]]
