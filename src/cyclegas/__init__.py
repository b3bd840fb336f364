"""Thermodynamics of cycle-weighted random integer partitions.

Exact finite-n canonical normalisations over partition cycle types, their
infinite-volume limits (critical constants, free energy, entropy infimum),
the limiting cycle-length shapes, and split/merge Monte Carlo for large n.

The namespace is lazy (PEP 562): each exported name, and each layer module
named in _EXPORTS, is imported from its home module on first access, so a
caller pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "bosefn": ("BoseEval", "bose_g", "zeta"),
    "entropy": (
        "EntropyDecomposition",
        "ExponentialShape",
        "MinimizeResult",
        "TruncatedShape",
        "entropy_decomposition",
        "functional_S",
        "minimize_S",
        "minimizing_sequence",
        "minimizing_sequence_s_closed_form",
        "qhat_star_array",
    ),
    "errors": ("CapError", "CycleGasError", "DivergenceError", "PrecisionError", "ValidationError"),
    "exactz": (
        "brute_force_log_Z",
        "confinement_log_Z_bracket",
        "convergence_scan",
        "exact_log_Z",
        "mu_N_expected_shape",
    ),
    "partitions": (
        "Partition",
        "ShapeMeasure",
        "conjugacy_class_size",
        "log_conjugacy_class_size",
        "occupations_from_shape",
        "partition_count",
        "shape_measure",
    ),
    "sampler": ("ChainState", "CycleStats", "long_cycle_fraction_scan", "run_chain"),
    "thermo": (
        "SystemParams",
        "ThermoSolution",
        "chi",
        "critical_beta",
        "critical_density",
        "free_energy",
        "optimal_shape",
        "solve_alpha",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it in the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
