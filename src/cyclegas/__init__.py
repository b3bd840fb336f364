"""Thermodynamics of cycle-weighted random integer partitions.

Exact finite-n canonical normalisations over partition cycle types, their
infinite-volume limits (critical constants, free energy, entropy infimum),
the limiting cycle-length shapes, and split/merge Monte Carlo for large n.
"""

from .bosefn import BoseEval, bose_g, zeta
from .entropy import (
    EntropyDecomposition,
    MinimizeResult,
    TruncatedShape,
    entropy_decomposition,
    functional_S,
    minimize_S,
    minimizing_sequence,
    minimizing_sequence_s_closed_form,
    qhat_star_array,
)
from .errors import (
    CapError,
    CycleGasError,
    DivergenceError,
    PrecisionError,
    ValidationError,
)
from .exactz import (
    WeightedEnsemble,
    brute_force_log_Z,
    confinement_log_Z_bracket,
    convergence_scan,
    exact_log_Z,
    log_weight,
    mu_N_expected_shape,
    weighted_ensemble,
)
from .partitions import (
    Partition,
    ShapeMeasure,
    conjugacy_class_size,
    enumerate_partitions,
    log_conjugacy_class_size,
    occupations_from_shape,
    partition_count,
    shape_measure,
)
from .sampler import (
    ChainState,
    CycleStats,
    long_cycle_fraction_scan,
    run_chain,
)
from .thermo import (
    SystemParams,
    ThermoSolution,
    chi,
    critical_beta,
    critical_density,
    free_energy,
    optimal_shape,
    solve_alpha,
)

__version__ = "0.1.0"
