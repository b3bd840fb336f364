"""Command-line surface: phase diagrams, free energies, exact sums, chains.

Every run writes a single machine-readable artifact (JSON object or CSV
table) to stdout or --output, with the fully resolved configuration embedded
for auditability.  Human diagnostics go to stderr only.  Exit codes: 0 ok,
1 usage, 2 validation error, 3 cap/precision error.  argparse reports a
usage problem with its own exit 2, which main returns as 1.

Each command is one row of _COMMANDS: its help text, its own flags (--n
among them where it takes one), whether it takes --tol, its handler and its
CSV columns.  build_parser adds every command's flags from its row; main
builds the SystemParams, runs the row's handler on them, and _render writes
the row's columns.

Each handler reaches the library through the package namespace, which
imports a name's home module on first use, so a command loads only the
layers it runs, and a usage error none.  The scalar commands (phase, alpha,
free-energy) load thermo and bosefn; minimize adds entropy, exact-z and
converge add exactz, sample and scan-long-cycles add sampler but not
exactz: the cycle weights both engines read live in thermo.  Every
command runs on Python floats and ints, and none loads NumPy: minimize's
dual and its qhat_head are formulas, and no command builds a shape's vector.
Nor does any load dataclasses (the records are NamedTuples), fractions or
the partitions layer, which only ChainState.current imports; only --format
csv loads csv.

Every input comes from argv; the CLI reads no environment variable of its
own.  The chain commands (sample, scan-long-cycles) take --seed, default 0,
so a chain is deterministic given its command line.

All physical inputs are dimensionless; beta is the time horizon of a
diffusion with generator Laplacian (heat kernel (4 pi beta k)^(-d/2)), so
there is no factor-of-2 freedom in beta.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import Any, Callable, NamedTuple

import cyclegas

from .errors import CapError, PrecisionError, ValidationError

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
    return "infinity" if isinstance(x, float) and math.isinf(x) else x


def _run_solve(args, params) -> dict:
    """phase, alpha and free-energy: one density solve, projected onto the command's columns."""
    record = cyclegas.solve_alpha(params, args.tol)._asdict()
    record["residual_bound"] = args.tol * args.rho
    return {key: _finite(record[key]) for key in _COMMANDS[args.command].columns}


def _run_minimize(args, params) -> dict:
    record = cyclegas.minimize_S(params, K=args.K, tol=args.tol)._asdict()
    shape = record.pop("shape")
    return dict(record, K=args.K, chi=cyclegas.chi(params, args.tol), qhat_head=shape.head(10))


def _run_exact_z(args, params) -> dict:
    """log Z_n, the shifted log Z, -chi (and the n! oracle), by the command's columns."""
    bracket = cyclegas.confinement_log_Z_bracket(params)
    log_z, lower, shift = (bracket[key] for key in ("log_z", "log_z_lower", "max_shift"))
    values = [args.n, log_z, log_z / args.n, -cyclegas.chi(params, args.tol), lower, shift]
    if args.oracle:
        brute = cyclegas.brute_force_log_Z(params)
        values += [brute, abs(brute - log_z)]
    return dict(zip(_COMMANDS[args.command].columns, values))


def _run_converge(args, params) -> list[dict]:
    rows = cyclegas.convergence_scan(params, _parse_n_list(args.n_list), args.tol)
    return [row._asdict() for row in rows]


def _run_sample(args, params) -> dict:
    """run_chain's record, with its per-k means and errors regrouped as the rows of its shape."""
    names = ("steps", "burn_in", "seed", "thin", "k_report", "threshold")
    record = cyclegas.run_chain(params, **{key: getattr(args, key) for key in names})._asdict()
    shape = zip(record.pop("mean_qhat"), record.pop("qhat_stderr"))
    record["shape"] = [{"k": k, "mean_qhat": m, "stderr": s} for k, (m, s) in enumerate(shape, 1)]
    return record


def _run_scan_long_cycles(args, params) -> list[dict]:
    keywords = {key: getattr(args, key) for key in ("steps", "seed", "thin")}
    rows = cyclegas.long_cycle_fraction_scan(params, _parse_n_list(args.n_list), **keywords)
    return [row._asdict() for row in rows]


class _Command(NamedTuple):
    """One row of _COMMANDS: everything the CLI knows of one command.

    Its parser takes --d, --beta and --rho, then args (each flag with its
    add_argument options; --n comes first where the command takes it), then
    --tol if with_tol, then --format and --output.  handler(args, params)
    returns the output's data; --format csv writes the columns of each record.
    """

    help: str
    handler: Callable[[argparse.Namespace, Any], Any]
    columns: tuple[str, ...]
    args: dict[str, dict] = {}
    with_tol: bool = True


_COMMANDS = {
    "phase": _Command(
        "regime, alpha, critical constants",
        _run_solve,
        ("regime", "alpha", "residual_bound", "rho_c", "beta_c", "condensate_fraction"),
    ),
    "alpha": _Command(
        "solve the density equation for alpha", _run_solve, ("alpha", "regime", "residual_bound")
    ),
    "free-energy": _Command(
        "specific free energy and chi", _run_solve, ("free_energy", "chi", "alpha", "regime")
    ),
    "minimize": _Command(
        "minimise the truncated shape functional",
        _run_minimize,
        ("K", "lam", "s_value", "chi", "boundary_mass", "constraint_residual"),
        {"--K": {"type": int, "default": 5000, "help": "truncation length"}},
    ),
    "exact-z": _Command(
        "exact finite-n partition sum",
        _run_exact_z,
        (
            "n",
            "log_z",
            "log_z_per_n",
            "neg_chi",
            "log_z_confinement_lower",
            "confinement_max_shift",
            "log_z_brute",
            "oracle_abs_diff",
        ),
        {
            "--n": {"type": int, "required": True, "help": "particle number"},
            "--oracle": {
                "action": "store_true",
                "help": "also run the permutation-sum oracle (n <= 9) and report the gap",
            },
        },
    ),
    "converge": _Command(
        "scan (1/n) log Z_n against its limit",
        _run_converge,
        ("n", "log_z_per_n", "neg_chi", "gap"),
        {"--n-list": {"default": "10,20,40,60", "help": "comma-separated sizes"}},
    ),
    "sample": _Command(
        "split/merge chain cycle statistics",
        _run_sample,
        ("k", "mean_qhat", "stderr"),
        {
            "--n": {"type": int, "required": True, "help": "particle number"},
            "--steps": {"type": int, "required": True},
            "--burn-in": {"type": int},
            "--thin": {"type": int, "default": 10},
            "--k-report": {"type": int},
            "--threshold": {"type": int},
            "--seed": {"type": int, "default": 0, "help": "default 0"},
        },
        with_tol=False,
    ),
    "scan-long-cycles": _Command(
        "long-cycle mass across sizes",
        _run_scan_long_cycles,
        ("n", "fraction", "stderr"),
        {
            "--n-list": {"default": "500,2000,8000", "help": "comma-separated sizes"},
            "--steps": {"type": int, "required": True},
            "--thin": {"type": int, "default": 10},
            "--seed": {"type": int, "default": 0, "help": "default 0"},
        },
        with_tol=False,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclegas",
        description=(
            "Thermodynamics of cycle-weighted random partitions: phase boundaries, free energies, "
            "exact finite-n sums, entropy minimisation, and Monte Carlo cycle statistics."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--d", type=int, required=True, help="spatial dimension (>= 1)")
        p.add_argument("--beta", type=float, required=True, help="time horizon (> 0)")
        p.add_argument("--rho", type=float, required=True, help="particle density (> 0)")
        for flag, options in command.args.items():
            p.add_argument(flag, **options)
        if command.with_tol:
            p.add_argument("--tol", type=float, default=1e-10, help="certified tolerance")
        p.add_argument(
            "--format",
            choices=["json", "csv"],
            default="json",
            dest="output_format",
            help="output format (default json)",
        )
        p.add_argument("--output", help="write to this path instead of stdout")
    return parser


def _render(command: str, args, data) -> str:
    config = {key: _finite(val) for key, val in sorted(vars(args).items()) if key != "command"}
    if args.output_format == "json":
        envelope = {"command": command, "config": config, "data": data}
        return json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    import csv

    buf = io.StringIO()
    buf.writelines(f"# {key}={val}\n" for key, val in config.items())
    rows = data["shape"] if command == "sample" else data
    writer = csv.DictWriter(buf, fieldnames=_COMMANDS[command].columns, extrasaction="ignore")
    writer.writeheader()
    writer.writerows([rows] if isinstance(rows, dict) else rows)
    return buf.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("a command is required")
    except SystemExit as exc:  # argparse's usage exit 2 is this CLI's 1; -h exits 0
        return 1 if exc.code else 0
    try:
        params = cyclegas.SystemParams(args.d, args.beta, args.rho, getattr(args, "n", None))
        data = _COMMANDS[args.command].handler(args, params)
        text = _render(args.command, args, data)
    except ValidationError as exc:
        sys.stderr.write(f"cyclegas {args.command}: invalid input: {exc}\n")
        return 2
    except (CapError, PrecisionError) as exc:
        sys.stderr.write(f"cyclegas {args.command}: {exc}\n")
        return 3
    if not args.output:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        reason = exc.strerror or exc
        sys.stderr.write(f"cyclegas {args.command}: cannot write {args.output}: {reason}\n")
        return 2
    sys.stderr.write(f"cyclegas {args.command}: wrote {args.output}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
