#!/usr/bin/env python3
"""Finite-n convergence of (1/n) log Z_n toward -chi for several phase points.

Reproduces the monotone-gap table: six parameter sets spanning both phases
and dimensions 1..3, sizes 10..60 by default (n is capped by
cyclegas.errors.CAPS["exact"]).
"""

import argparse
import math
import sys

from cyclegas.exactz import convergence_scan
from cyclegas.thermo import SystemParams, critical_density

BETA_UNIT = 1.0 / (4.0 * math.pi)


def parameter_sets() -> list[SystemParams]:
    rho_c3 = critical_density(3, BETA_UNIT)
    return [
        SystemParams(3, BETA_UNIT, 0.5 * rho_c3),
        SystemParams(3, BETA_UNIT, 2.0 * rho_c3),
        SystemParams(1, 1.0, 1.0),
        SystemParams(2, 0.5, 0.7),
        SystemParams(3, 0.25, 2.0),
        SystemParams(1, 2.0, 0.3),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-list", default="10,20,40,60")
    ap.add_argument("--tol", type=float, default=1e-10)
    args = ap.parse_args()
    n_list = [int(tok) for tok in args.n_list.split(",")]

    print("d,beta,rho,n,log_z_per_n,neg_chi,gap")
    for params in parameter_sets():
        rows = convergence_scan(params, n_list, args.tol)
        for r in rows:
            print(
                f"{params.d},{params.beta:.6g},{params.rho:.6g},"
                f"{r.n},{r.log_z_per_n:.12g},{r.neg_chi:.12g},{r.gap:.12g}"
            )
        gaps = [abs(r.gap) for r in rows]
        mono = all(a > b for a, b in zip(gaps, gaps[1:]))
        print(
            f"# d={params.d} beta={params.beta:.4g} rho={params.rho:.4g}: "
            f"gap monotone decreasing = {mono}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
