"""Independent oracles for every benchmark task; nothing is borrowed from src/.

* Exact finite-n sums come from the cycle-index recursion in log space,
  ``n Z_n = sum_k k theta_k Z_{n-k}``, with ``E[r_k] = theta_k Z_{n-k} / Z_n``,
  where ``theta_k = |V| / (k (4 pi beta k)^(d/2))`` and ``|V| = n / rho``.
* Every normal-regime ``alpha`` is checked through its density residual with
  ``mpmath.polylog``; ``rho_c`` with ``scipy.special.zeta``.
* Entropy results are recomputed from the reference increments with NumPy.
* Chains are checked on exact invariants and on having moved (accepted
  splits and merges, batch means of ``r_1`` that differ), then pooled over
  the chains of one round that differ only in seed: at ``n = 2000`` the
  mean long-cycle fraction must sit within a band of the exact one, at
  ``n = 8`` the pooled ``E[r_k]/n`` within 4 reported standard errors of the
  exact values.  (At ``n = 2000`` condensed, 250k-step chains sit 14-21
  reported standard errors off the exact small-k ``E[r_k]/n``: the known
  batch-means defect, so that comparison cannot be a gate there.)
* CLI outputs are validated against the package's JSON schema and then
  checked value by value with the oracles above.

``Checker.check`` returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath
import numpy as np
import scipy.optimize
import scipy.special

import workloads
from stats import shape_summary

LOGZ_TOL = 1e-12  # relative, as the package's own oracle-equivalence criterion
CONST_TOL = 1e-12  # rho_c, beta_c, condensate fraction
DENSITY_SLACK = 1e-13  # float rounding of a 2M-term sum, on top of the certified tol
ENERGY_TOL = 1e-10  # f and chi, relative
ENTROPY_TOL = 1e-10  # S values, relative to max(|S|, 1)
SIGMAS = 4.0
LONG_CYCLE_BAND = 0.1  # n = 2000 condensed: |estimate - exact| (criterion 10's 0.4..0.6)
NORMAL_BAND = 0.05  # n = 2000 normal

mpmath.mp.dps = 30


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(b), 1.0)


# ---------------------------------------------------------------- recursion


def log_theta(d: int, beta: float, rho: float, n: int, shift: float = 0.0) -> np.ndarray:
    """log theta_k for k = 1..n at volume n / rho."""
    k = np.arange(1, n + 1, dtype=np.float64)
    return math.log(n / rho) - np.log(k) - (d / 2.0) * np.log(4.0 * math.pi * beta * k) + shift


def log_z_table(log_th: np.ndarray) -> np.ndarray:
    """log Z_m for m = 0..n from n Z_n = sum_k k theta_k Z_{n-k}."""
    n = log_th.size
    log_k_theta = np.log(np.arange(1, n + 1, dtype=np.float64)) + log_th
    lz = np.zeros(n + 1)
    for m in range(1, n + 1):
        terms = log_k_theta[:m] + lz[m - 1::-1]
        top = terms.max()
        lz[m] = top + math.log(np.exp(terms - top).sum()) - math.log(m)
    return lz


def log_z(d: int, beta: float, rho: float, n: int, confinement: str = "free") -> float:
    shift = 0.0
    if confinement == "lower":
        shift = math.log1p(-math.exp(-d * n / (4.0 * beta)))
    return float(log_z_table(log_theta(d, beta, rho, n, shift))[n])


def expected_r(d: int, beta: float, rho: float, n: int) -> np.ndarray:
    """E[r_k] for k = 1..n."""
    lt = log_theta(d, beta, rho, n)
    lz = log_z_table(lt)
    return np.exp(lt + lz[n - 1::-1] - lz[n])


def long_cycle_fraction(d: int, beta: float, rho: float, n: int, threshold: int) -> float:
    """E[sum_{k > threshold} k r_k] / n."""
    k = np.arange(1, n + 1, dtype=np.float64)
    mass = k * expected_r(d, beta, rho, n) / n
    return float(mass[threshold:].sum())


# ---------------------------------------------------------------- thermo


def factor(d: int, beta: float) -> float:
    return (4.0 * math.pi * beta) ** (d / 2.0)


def rho_c(d: int, beta: float) -> float:
    if d <= 2:
        return math.inf
    return float(scipy.special.zeta(d / 2.0)) / factor(d, beta)


def polylog(s: float, alpha: float) -> float:
    """g_s(alpha) = Li_s(e^-alpha), alpha > 0."""
    return float(mpmath.polylog(s, mpmath.exp(-mpmath.mpf(alpha))))


def alpha_root(d: int, beta: float, rho: float) -> float:
    """The density root, solved on log alpha with mpmath polylog values."""
    target = rho * factor(d, beta)
    if d >= 3 and target >= float(scipy.special.zeta(d / 2.0)):
        return 0.0
    if d == 2:
        return -math.log(-math.expm1(-target))

    def h(x: float) -> float:
        return polylog(d / 2.0, math.exp(x)) - target

    lo, hi = -60.0, 10.0
    while h(hi) > 0:
        hi += 10.0
    return math.exp(scipy.optimize.brentq(h, lo, hi, xtol=1e-15, rtol=1e-15))


def free_energy(d: int, beta: float, rho: float, alpha: float | None = None) -> float:
    """f from polylog values; pass ``alpha`` once its density residual is checked."""
    if alpha is None:
        alpha = alpha_root(d, beta, rho)
    s_energy = (d + 2.0) / 2.0
    if alpha == 0.0:
        return -float(scipy.special.zeta(s_energy)) / (factor(d, beta) * beta)
    return -polylog(s_energy, alpha) / (factor(d, beta) * beta) - rho * alpha / beta


def density_ok(d: int, beta: float, rho: float, alpha: float, tol: float) -> bool:
    target = rho * factor(d, beta)
    return abs(polylog(d / 2.0, alpha) - target) <= (tol + DENSITY_SLACK) * target


def _phase_problems(d, beta, rho, data, tol) -> list[str]:
    out = []
    rc = rho_c(d, beta)
    normal = d <= 2 or rho < rc
    expect = "normal" if normal else "condensed"
    if data["regime"] != expect:
        out.append(f"regime {data['regime']} != {expect}")
    elif normal and not (data["alpha"] > 0 and density_ok(d, beta, rho, data["alpha"], tol)):
        out.append(f"alpha {data['alpha']} fails the polylog density residual")
    elif not normal and data["alpha"] != 0.0:
        out.append("condensed alpha must be 0")
    got_rc = math.inf if data["rho_c"] in ("infinity", math.inf) else data["rho_c"]
    if not (got_rc == rc or close(got_rc, rc, CONST_TOL)):
        out.append(f"rho_c {got_rc} != {rc}")
    fraction = 0.0 if normal else 1.0 - rc / rho
    if abs(data["condensate_fraction"] - fraction) > CONST_TOL:
        out.append(f"condensate fraction {data['condensate_fraction']} != {fraction}")
    return out


# ---------------------------------------------------------------- entropy


def qstar(d: int, beta: float, rho: float, K: int) -> np.ndarray:
    k = np.arange(1, K + 1, dtype=np.float64)
    return k ** (-(1.0 + d / 2.0)) / (rho * factor(d, beta))


def s_functional(qh: np.ndarray, qs: np.ndarray) -> float:
    pos = qh > 0
    return float(np.sum(qh[pos] * (np.log(qh[pos]) - np.log(qs[pos]) - 1.0)))


def _summary_problems(got: dict, want: dict) -> list[str]:
    out = []
    for key in ("sum", "kdot", "last", "at_n"):
        if key in want and not close(got[key], want[key], 1e-11):
            out.append(f"{key} {got[key]} != {want[key]}")
    for a, b in zip(got["head"], want["head"]):
        if not close(a, b, 1e-12):
            out.append(f"head {got['head']} != {want['head']}")
            break
    if got["K"] != want["K"]:
        out.append(f"K {got['K']} != {want['K']}")
    return out


def minimize_expected(d, beta, rho, K, lam) -> dict:
    qs = qstar(d, beta, rho, K)
    k = np.arange(1, K + 1, dtype=np.float64)
    qh = qs * np.exp(-lam * k)
    return {"mass": float(k @ qh), "s_value": s_functional(qh, qs),
            "boundary_mass": float(K * qh[-1]), "shape": shape_summary(qh)}


def _minimize_problems(d, beta, rho, K, data, tol) -> list[str]:
    want = minimize_expected(d, beta, rho, K, data["lam"])
    out = []
    if abs(want["mass"] - 1.0) > tol + DENSITY_SLACK:
        out.append(f"constraint mass {want['mass']} at lam={data['lam']}")
    if not close(data["s_value"], want["s_value"], ENTROPY_TOL):
        out.append(f"S {data['s_value']} != {want['s_value']}")
    if not close(data["boundary_mass"], want["boundary_mass"], 1e-11):
        out.append(f"boundary mass {data['boundary_mass']} != {want['boundary_mass']}")
    return out + (_summary_problems(data["shape"], want["shape"]) if "shape" in data else [])


def sequence_expected(d, beta, rho, n, K) -> dict:
    qs = qstar(d, beta, rho, K)
    qh = qs.copy()
    qh[n - 1] += (rho - rho_c(d, beta)) / (n * rho)
    q, q_star = float(qh.sum()), float(qs.sum())
    p, p_star = qh / q, qs / q_star
    return {
        "shape": shape_summary(qh, n),
        "S": s_functional(qh, qs),
        "q": q,
        "q_star": q_star,
        "relative_entropy": float(np.sum(p * np.log(p / p_star))),
    }


# ---------------------------------------------------------------- chains


def chain_invariants(args: dict, data: dict) -> list[str]:
    out = []
    steps = args["steps"]
    acc = data["acceptance"]
    proposed = acc["split"]["proposed"] + acc["merge"]["proposed"]
    if proposed != steps:
        out.append(f"{proposed} proposals for {steps} steps")
    for kind in ("split", "merge"):
        c = acc[kind]
        if not 0 <= c["accepted"] + c["auto_rejected"] <= c["proposed"]:
            out.append(f"{kind} counts inconsistent: {c}")
    burn = steps // 10
    if data["n_samples"] != -(-(steps - burn) // 10):
        out.append(f"n_samples {data['n_samples']}")
    # a chain that never moves (or moves without changing its state) would
    # still pass the pooled checks below when it starts near the answer
    for kind in ("split", "merge"):
        if acc[kind]["accepted"] == 0:
            out.append(f"no {kind} move accepted")
    if data["qhat_stderr"][0] == 0.0:
        out.append("r_1/n identical in every batch: the state never changed")
    k = np.arange(1, len(data["mean_qhat"]) + 1)
    mass = float(k @ np.asarray(data["mean_qhat"])) + data["tail_mass_mean"]
    if abs(mass - 1.0) > 1e-9:
        out.append(f"short mass + tail = {mass}, not 1")
    if not 0.0 <= data["long_cycle_fraction"] <= 1.0 or data["fraction_stderr"] < 0:
        out.append("long-cycle fraction outside [0, 1]")
    return out


def pooled_shape_problems(d, beta, rho, n, results: list[dict]) -> list[str]:
    """Pooled E[r_k]/n of several chains against the exact value, within 4 sigma."""
    exact = expected_r(d, beta, rho, n) / n
    m = len(results)
    means = np.mean([r["mean_qhat"] for r in results], axis=0)
    samples = sum(r["n_samples"] for r in results)
    sigma = np.sqrt(np.sum(np.square([r["qhat_stderr"] for r in results]), axis=0)) / m
    sigma = np.maximum(sigma, 1.0 / (n * samples))
    z = np.abs(means - exact[: means.size]) / sigma
    bad = np.nonzero(z > SIGMAS)[0]
    return [f"E[r_{k + 1}]/n off by {z[k]:.2f} sigma" for k in bad]


# ---------------------------------------------------------------- CLI


def _arg(argv: list[str], flag: str, cast=float):
    return cast(argv[argv.index(flag) + 1])


def _csv_records(text: str) -> list[dict]:
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


class Checker:
    """Checks task results; expected values are cached per task input."""

    def __init__(self, schema_path: str | None = None):
        self._cache: dict[str, object] = {}
        self._validator = None
        if schema_path is not None:
            import jsonschema

            with open(schema_path) as fh:
                schema = json.load(fh)
            self._validator = jsonschema.Draft7Validator(schema)

    def _memo(self, task: dict, fn):
        key = (task["kind"], json.dumps(task["args"], sort_keys=True))
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def check(self, task: dict, data) -> list[str]:
        return getattr(self, "_" + task["kind"])(task, task["args"], data)

    # thermo ------------------------------------------------------------
    def _solve_alpha(self, task, a, data):
        out = _phase_problems(a["d"], a["beta"], a["rho"], data, workloads.TOL)
        if out:
            return out
        # f is stationary in alpha at the root, so the checked alpha gives f
        f = free_energy(a["d"], a["beta"], a["rho"], data["alpha"])
        if not close(data["free_energy"], f, ENERGY_TOL):
            out.append(f"free energy {data['free_energy']} != {f}")
        if not close(data["chi"], a["beta"] * f / a["rho"], ENERGY_TOL):
            out.append(f"chi {data['chi']}")
        return out

    def _free_energy(self, task, a, data):
        f = self._memo(task, lambda: free_energy(a["d"], a["beta"], a["rho"]))
        return [] if close(data, f, ENERGY_TOL) else [f"free energy {data} != {f}"]

    def _critical_density(self, task, a, data):
        want = rho_c(a["d"], a["beta"])
        if want == math.inf:
            return [] if data == "infinity" else [f"rho_c {data} != inf"]
        return [] if close(data, want, CONST_TOL) else [f"rho_c {data} != {want}"]

    # entropy -----------------------------------------------------------
    def _minimize_S(self, task, a, data):
        return _minimize_problems(a["d"], a["beta"], a["rho"], a["K"], data, workloads.TOL)

    def _sequence(self, task, a):
        key = ("sequence", a["d"], a["beta"], a["rho"], a["n"], a["K"])
        if key not in self._cache:
            self._cache[key] = sequence_expected(a["d"], a["beta"], a["rho"], a["n"], a["K"])
        return self._cache[key]

    def _minimizing_sequence(self, task, a, data):
        return _summary_problems(data, self._sequence(task, a)["shape"])

    def _functional_S(self, task, a, data):
        want = self._sequence(task, a)["S"]
        return [] if close(data, want, ENTROPY_TOL) else [f"S {data} != {want}"]

    def _entropy_decomposition(self, task, a, data):
        want = self._sequence(task, a)
        out = []
        for key, tol in (("q", 1e-11), ("q_star", 1e-11), ("relative_entropy", ENTROPY_TOL)):
            if not close(data[key], want[key], tol):
                out.append(f"{key} {data[key]} != {want[key]}")
        if not close(data["reconstructed_S"], want["S"], ENTROPY_TOL):
            out.append(f"reconstructed S {data['reconstructed_S']} != {want['S']}")
        return out

    # exact sums --------------------------------------------------------
    def _logz(self, a, n, confinement="free"):
        key = ("logz", a["d"], a["beta"], a["rho"], n, confinement)
        if key not in self._cache:
            self._cache[key] = log_z(a["d"], a["beta"], a["rho"], n, confinement)
        return self._cache[key]

    def _exact_log_Z(self, task, a, data):
        want = self._logz(a, a["n"])
        return [] if close(data, want, LOGZ_TOL) else [f"log Z {data} != {want}"]

    _brute_force_log_Z = _exact_log_Z

    def _convergence_scan(self, task, a, data):
        neg_chi = -a["beta"] * self._memo(task, lambda: free_energy(a["d"], a["beta"], a["rho"])) / a["rho"]
        out = []
        if [row["n"] for row in data] != a["n_list"]:
            out.append("scan rows do not match n_list")
        for row in data:
            want = self._logz(a, row["n"]) / row["n"]
            if not close(row["log_z_per_n"], want, LOGZ_TOL):
                out.append(f"n={row['n']}: log Z/n {row['log_z_per_n']} != {want}")
            if not close(row["neg_chi"], neg_chi, ENERGY_TOL):
                out.append(f"neg_chi {row['neg_chi']} != {neg_chi}")
            if abs(row["gap"] - (row["log_z_per_n"] - row["neg_chi"])) > 1e-12:
                out.append("gap != log Z/n + chi")
        return out

    def _mu_N_expected_shape(self, task, a, data):
        want = self._memo(task, lambda: expected_r(a["d"], a["beta"], a["rho"], a["n"]) / a["n"])
        got = np.asarray(data)
        if got.shape != want.shape:
            return [f"shape {got.shape} != {want.shape}"]
        err = np.abs(got - want) - (1e-10 * np.abs(want) + 1e-15)
        return [] if np.all(err <= 0) else [f"E[r_k]/n off by up to {float(np.max(err)):.3g}"]

    def _confinement_log_Z_bracket(self, task, a, data):
        n, d, beta = a["n"], a["d"], a["beta"]
        out = []
        if not close(data["log_z"], self._logz(a, n), LOGZ_TOL):
            out.append(f"log Z {data['log_z']}")
        if not close(data["log_z_lower"], self._logz(a, n, "lower"), LOGZ_TOL):
            out.append(f"lower log Z {data['log_z_lower']}")
        shift = n * abs(math.log1p(-math.exp(-d * n / (4.0 * beta))))
        if not close(data["max_shift"], shift, 1e-12):
            out.append(f"max shift {data['max_shift']} != {shift}")
        return out

    # chains ------------------------------------------------------------
    def _run_chain(self, task, a, data):
        return chain_invariants(a, data)

    def check_pool(self, args: dict, results: list[dict]) -> list[str]:
        """Chains that differ only in seed, pooled against the exact answer.

        Enumerable sizes compare E[r_k]/n within 4 reported sigma; n = 2000
        compares the mean long-cycle fraction with the exact one.
        """
        d, beta, rho, n = args["d"], args["beta"], args["rho"], args["n"]
        if n <= 40:
            return pooled_shape_problems(d, beta, rho, n, results)
        exact = self.long_cycle_exact(args, results[0]["threshold"])
        mean = sum(r["long_cycle_fraction"] for r in results) / len(results)
        band = LONG_CYCLE_BAND if rho > rho_c(d, beta) else NORMAL_BAND
        return [] if abs(mean - exact) <= band else [f"long-cycle fraction {mean} vs exact {exact}"]

    def long_cycle_exact(self, args: dict, threshold: int) -> float:
        key = ("long", args["d"], args["beta"], args["rho"], args["n"], threshold)
        if key not in self._cache:
            self._cache[key] = long_cycle_fraction(args["d"], args["beta"], args["rho"], args["n"], threshold)
        return self._cache[key]

    # CLI ---------------------------------------------------------------
    def _cli(self, task, a, data):
        argv, code = a["argv"], a["expect_exit"]
        if data["exit"] != code:
            return [f"exit {data['exit']} != {code}"]
        if code != 0:
            return [] if data["stdout"] == "" else ["output printed on failure"]
        command = argv[0]
        if "--format" in argv and _arg(argv, "--format", str) == "csv":
            return self._cli_csv(command, argv, _csv_records(data["stdout"]))
        doc = json.loads(data["stdout"])
        if self._validator is not None:
            errors = [e.message for e in self._validator.iter_errors(doc)]
            if errors:
                return [f"schema: {errors[0]}"]
        if doc["command"] != command:
            return [f"command {doc['command']} != {command}"]
        return getattr(self, "_cli_" + command.replace("-", "_"))(task, argv, doc["data"])

    def _cli_params(self, argv):
        return _arg(argv, "--d", int), _arg(argv, "--beta"), _arg(argv, "--rho")

    def _cli_phase(self, task, argv, data):
        d, beta, rho = self._cli_params(argv)
        out = _phase_problems(d, beta, rho, data, _arg(argv, "--tol") if "--tol" in argv else workloads.TOL)
        if d >= 3:
            beta_c = (float(scipy.special.zeta(d / 2.0)) / rho) ** (2.0 / d) / (4.0 * math.pi)
            if not close(data["beta_c"], beta_c, CONST_TOL):
                out.append(f"beta_c {data['beta_c']} != {beta_c}")
        return out

    def _cli_alpha(self, task, argv, data):
        d, beta, rho = self._cli_params(argv)
        if d <= 2 or rho < rho_c(d, beta):
            if data["regime"] != "normal" or not density_ok(d, beta, rho, data["alpha"], workloads.TOL):
                return [f"alpha {data['alpha']} fails the polylog density residual"]
        return []

    def _cli_free_energy(self, task, argv, data):
        d, beta, rho = self._cli_params(argv)
        f = self._memo(task, lambda: free_energy(d, beta, rho))
        out = [] if close(data["free_energy"], f, ENERGY_TOL) else [f"f {data['free_energy']} != {f}"]
        if not close(data["chi"], beta * f / rho, ENERGY_TOL):
            out.append(f"chi {data['chi']}")
        return out

    def _cli_minimize(self, task, argv, data):
        d, beta, rho = self._cli_params(argv)
        K = _arg(argv, "--K", int)
        out = _minimize_problems(d, beta, rho, K, data, workloads.TOL)
        want = minimize_expected(d, beta, rho, K, data["lam"])["shape"]["head"]
        if not all(close(x, y, 1e-12) for x, y in zip(data["qhat_head"], want)):
            out.append("qhat_head differs")
        chi = beta * self._memo(task, lambda: free_energy(d, beta, rho)) / rho
        if not close(data["chi"], chi, ENERGY_TOL):
            out.append(f"chi {data['chi']} != {chi}")
        return out

    def _cli_exact_z(self, task, argv, data):
        d, beta, rho = self._cli_params(argv)
        n = _arg(argv, "--n", int)
        a = {"d": d, "beta": beta, "rho": rho, "n": n}
        out = self._confinement_log_Z_bracket(task, a, {
            "log_z": data["log_z"], "log_z_lower": data["log_z_confinement_lower"],
            "max_shift": data["confinement_max_shift"]})
        if "--oracle" in argv and not close(data["log_z_brute"], self._logz(a, n), LOGZ_TOL):
            out.append(f"brute-force log Z {data['log_z_brute']}")
        neg_chi = -beta * self._memo(task, lambda: free_energy(d, beta, rho)) / rho
        if not close(data["neg_chi"], neg_chi, ENERGY_TOL):
            out.append(f"neg_chi {data['neg_chi']} != {neg_chi}")
        return out

    def _cli_csv(self, command, argv, rows):
        if command != "converge":
            return [f"no CSV check for {command}"]
        d, beta, rho = self._cli_params(argv)
        a = {"d": d, "beta": beta, "rho": rho, "n_list": [int(x) for x in _arg(argv, "--n-list", str).split(",")]}
        task = {"kind": "cli-converge", "args": a}
        data = [{k: (int(v) if k == "n" else float(v)) for k, v in row.items()} for row in rows]
        return self._convergence_scan(task, a, data)

    def _cli_sample(self, task, argv, data):
        steps = _arg(argv, "--steps", int)
        out = chain_invariants({"steps": steps}, {
            "acceptance": data["acceptance"], "n_samples": data["n_samples"],
            "mean_qhat": [row["mean_qhat"] for row in data["shape"]],
            "qhat_stderr": [row["stderr"] for row in data["shape"]],
            "tail_mass_mean": data["tail_mass_mean"],
            "long_cycle_fraction": data["long_cycle_fraction"],
            "fraction_stderr": data["fraction_stderr"]})
        if data["seed"] != _arg(argv, "--seed", int) or data["n"] != _arg(argv, "--n", int):
            out.append("seed or n not echoed")
        return out

    def _cli_scan_long_cycles(self, task, argv, data):
        n_list = [int(x) for x in _arg(argv, "--n-list", str).split(",")]
        if [row["n"] for row in data] != n_list:
            return ["scan rows do not match --n-list"]
        bad = [r for r in data if not (0.0 <= r["fraction"] <= 1.0 and r["stderr"] >= 0.0)]
        return [f"row out of range: {r}" for r in bad]
