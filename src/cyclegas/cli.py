"""Command-line surface: phase diagrams, free energies, exact sums, chains.

Every run writes a single machine-readable artifact (JSON object or CSV
table) to stdout or --output, with the fully resolved configuration embedded
for auditability.  Human diagnostics go to stderr only.  Exit codes: 0 ok,
1 usage, 2 validation error, 3 cap/precision error.

Each handler imports the layers it runs, so a command loads only those, and
a usage error none.  The scalar commands (phase, alpha, free-energy) load
thermo and bosefn; minimize adds entropy and polylog, exact-z and converge add exactz,
sample and scan-long-cycles add sampler but not exactz: the cycle weights
both engines read live in thermo.  Every command runs on Python
floats and ints, and none loads NumPy: minimize's dual and its qhat_head are
formulas, and no command builds a shape's vector.  Nor does any load
dataclasses (the records are NamedTuples), fractions or the partitions
layer, which only ChainState.current imports; only --format csv loads csv.

All physical inputs are dimensionless; beta is the time horizon of a
diffusion with generator Laplacian (heat kernel (4 pi beta k)^(-d/2)), so
there is no factor-of-2 freedom in beta.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from typing import Any

from .errors import CapError, PrecisionError, ValidationError

SEED_ENV_VAR = "CYCLEGAS_SEED"

_CSV_COLUMNS = {
    "phase": ["regime", "alpha", "residual_bound", "rho_c", "beta_c", "condensate_fraction"],
    "alpha": ["alpha", "regime", "residual_bound"],
    "free-energy": ["free_energy", "chi", "alpha", "regime"],
    "minimize": ["K", "lam", "s_value", "chi", "boundary_mass", "constraint_residual"],
    "exact-z": [
        "n",
        "log_z",
        "log_z_per_n",
        "neg_chi",
        "log_z_confinement_lower",
        "confinement_max_shift",
        "log_z_brute",
        "oracle_abs_diff",
    ],
    "converge": ["n", "log_z_per_n", "neg_chi", "gap"],
    "sample": ["k", "mean_qhat", "stderr"],
    "scan-long-cycles": ["n", "fraction", "stderr"],
}


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage problems."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")


def _add_system_args(p: argparse.ArgumentParser, with_n: bool = False) -> None:
    p.add_argument("--d", type=int, required=True, help="spatial dimension (>= 1)")
    p.add_argument("--beta", type=float, required=True, help="time horizon (> 0)")
    p.add_argument("--rho", type=float, required=True, help="particle density (> 0)")
    if with_n:
        p.add_argument("--n", type=int, required=True, help="particle number")


def _add_output_args(p: argparse.ArgumentParser, with_tol: bool = True) -> None:
    if with_tol:
        p.add_argument("--tol", type=float, default=1e-10, help="certified tolerance")
    p.add_argument(
        "--format",
        choices=["json", "csv"],
        default="json",
        dest="output_format",
        help="output format (default json)",
    )
    p.add_argument("--output", default=None, help="write to this path instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="cyclegas",
        description=(
            "Thermodynamics of cycle-weighted random partitions: phase "
            "boundaries, free energies, exact finite-n sums, entropy "
            "minimisation, and Monte Carlo cycle statistics."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    for name, text in [
        ("phase", "regime, alpha, critical constants"),
        ("alpha", "solve the density equation for alpha"),
        ("free-energy", "specific free energy and chi"),
    ]:
        p = sub.add_parser(name, help=text)
        _add_system_args(p)
        _add_output_args(p)

    p = sub.add_parser("minimize", help="minimise the truncated shape functional")
    _add_system_args(p)
    p.add_argument("--K", type=int, default=5000, help="truncation length")
    _add_output_args(p)

    p = sub.add_parser("exact-z", help="exact finite-n partition sum")
    _add_system_args(p, with_n=True)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also run the permutation-sum oracle (n <= 9) and report the gap",
    )
    _add_output_args(p)

    p = sub.add_parser("converge", help="scan (1/n) log Z_n against its limit")
    _add_system_args(p)
    p.add_argument("--n-list", default="10,20,40,60", help="comma-separated sizes")
    _add_output_args(p)

    p = sub.add_parser("sample", help="split/merge chain cycle statistics")
    _add_system_args(p, with_n=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--thin", type=int, default=10)
    p.add_argument("--k-report", type=int, default=None)
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help=f"default ${SEED_ENV_VAR} or 0")
    _add_output_args(p, with_tol=False)

    p = sub.add_parser("scan-long-cycles", help="long-cycle mass across sizes")
    _add_system_args(p)
    p.add_argument("--n-list", default="500,2000,8000", help="comma-separated sizes")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--thin", type=int, default=10)
    p.add_argument("--seed", type=int, default=None, help=f"default ${SEED_ENV_VAR} or 0")
    _add_output_args(p, with_tol=False)

    return parser


def _parse_n_list(raw: str) -> list[int]:
    try:
        values = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"--n-list must be comma-separated integers, got {raw!r}")
    if not values:
        raise ValidationError("--n-list is empty")
    return values


def _finite(x: float) -> Any:
    """JSON has no Infinity literal; encode it as a string marker."""
    if isinstance(x, float) and math.isinf(x):
        return "infinity"
    return x


def _run_solve(args) -> dict:
    """phase, alpha and free-energy: one density solve, projected per command."""
    from . import thermo

    sol = thermo.solve_alpha(
        thermo.SystemParams(args.d, args.beta, args.rho), args.tol
    )
    record = {
        "regime": sol.regime,
        "alpha": sol.alpha,
        "residual_bound": args.tol * args.rho,
        "rho_c": _finite(sol.rho_c),
        "beta_c": _finite(sol.beta_c),
        "condensate_fraction": sol.condensate_fraction,
        "free_energy": sol.free_energy,
        "chi": sol.chi,
    }
    return {key: record[key] for key in _CSV_COLUMNS[args.command]}


def _run_minimize(args) -> dict:
    from . import entropy, thermo

    params = thermo.SystemParams(args.d, args.beta, args.rho)
    res = entropy.minimize_S(params, K=args.K, tol=args.tol)
    chi_val = thermo.chi(params, args.tol)
    return {
        "K": args.K,
        "lam": res.lam,
        "s_value": res.s_value,
        "chi": chi_val,
        "boundary_mass": res.boundary_mass,
        "constraint_residual": res.constraint_residual,
        "qhat_head": res.shape.head(10),
    }


def _run_exact_z(args) -> dict:
    from . import exactz, thermo

    params = thermo.SystemParams(args.d, args.beta, args.rho, n=args.n)
    bracket = exactz.confinement_log_Z_bracket(params)
    log_z = bracket["log_z"]
    out = {
        "n": args.n,
        "log_z": log_z,
        "log_z_per_n": log_z / args.n,
        "neg_chi": -thermo.chi(params, args.tol),
        "log_z_confinement_lower": bracket["log_z_lower"],
        "confinement_max_shift": bracket["max_shift"],
    }
    if args.oracle:
        brute = exactz.brute_force_log_Z(params)
        out["log_z_brute"] = brute
        out["oracle_abs_diff"] = abs(brute - log_z)
    return out


def _run_converge(args) -> list[dict]:
    from . import exactz, thermo

    params = thermo.SystemParams(args.d, args.beta, args.rho)
    rows = exactz.convergence_scan(params, _parse_n_list(args.n_list), args.tol)
    return [row._asdict() for row in rows]


def _run_sample(args) -> dict:
    from . import sampler, thermo

    params = thermo.SystemParams(args.d, args.beta, args.rho, n=args.n)
    stats = sampler.run_chain(
        params,
        steps=args.steps,
        burn_in=args.burn_in,
        seed=args.seed,
        thin=args.thin,
        k_report=args.k_report,
        threshold=args.threshold,
    )
    record = stats._asdict()
    means, stderrs = record.pop("mean_qhat"), record.pop("qhat_stderr")
    record["shape"] = [
        {"k": k, "mean_qhat": m, "stderr": s}
        for k, (m, s) in enumerate(zip(means, stderrs), start=1)
    ]
    return record


def _run_scan_long_cycles(args) -> list[dict]:
    from . import sampler, thermo

    params = thermo.SystemParams(args.d, args.beta, args.rho)
    rows = sampler.long_cycle_fraction_scan(
        params,
        _parse_n_list(args.n_list),
        steps=args.steps,
        seed=args.seed,
        thin=args.thin,
    )
    return [row._asdict() for row in rows]


_HANDLERS = {
    "phase": _run_solve,
    "alpha": _run_solve,
    "free-energy": _run_solve,
    "minimize": _run_minimize,
    "exact-z": _run_exact_z,
    "converge": _run_converge,
    "sample": _run_sample,
    "scan-long-cycles": _run_scan_long_cycles,
}


def _config_dict(args) -> dict:
    return {key: _finite(val) for key, val in sorted(vars(args).items()) if key != "command"}


def _render(command: str, args, data) -> str:
    envelope = {"command": command, "config": _config_dict(args), "data": data}
    if args.output_format == "json":
        return json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    import csv

    buf = io.StringIO()
    for key, val in sorted(envelope["config"].items()):
        buf.write(f"# {key}={val}\n")
    cols = _CSV_COLUMNS[command]
    rows = data["shape"] if command == "sample" else data
    if isinstance(rows, dict):
        rows = [rows]
    writer = csv.DictWriter(buf, fieldnames=cols, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in cols})
    return buf.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("cyclegas: error: a command is required\n")
        return 1
    try:
        if vars(args).get("seed", 0) is None:
            args.seed = _default_seed()
        data = _HANDLERS[args.command](args)
        text = _render(args.command, args, data)
    except ValidationError as exc:
        sys.stderr.write(f"cyclegas {args.command}: invalid input: {exc}\n")
        return 2
    except (CapError, PrecisionError) as exc:
        sys.stderr.write(f"cyclegas {args.command}: {exc}\n")
        return 3
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            reason = exc.strerror or exc
            sys.stderr.write(f"cyclegas {args.command}: cannot write {args.output}: {reason}\n")
            return 2
        sys.stderr.write(f"cyclegas {args.command}: wrote {args.output}\n")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
