"""Exception types shared across the package, and the resource caps.

The CLI maps these onto exit codes: validation problems exit 2,
cap/precision problems exit 3.
"""

from typing import NamedTuple


class CycleGasError(Exception):
    """Base class for all library errors."""


class ValidationError(CycleGasError, ValueError):
    """Invalid input: a precondition or structural invariant is violated."""


class DivergenceError(ValidationError):
    """A series diverges at the requested arguments (e.g. g_s(0) for s <= 1)."""


class CapError(CycleGasError, ValueError):
    """A size exceeded the cap of its route in CAPS (see check_cap)."""


class PrecisionError(CycleGasError, RuntimeError):
    """The requested tolerance cannot be certified within the term cap."""


class Cap(NamedTuple):
    """The largest size a route accepts, and what running at that size costs."""

    limit: int
    cost: str
    size: str = "n"  # the name of the size in the refusal message


# Every resource cap of the package, by route.  Size routes refuse a size
# above limit through check_cap (CapError); the two term caps bound a
# certified series and raise PrecisionError in bosefn instead.
CAPS = {
    # iter_parts, enumerate_partitions, partition_count,
    # conjugacy_class_size
    "enumeration": Cap(120, "p(120) = 1,844,349,560 partitions"),
    # exact_log_Z (so convergence_scan, confinement_log_Z_bracket): the
    # range of its enumeration oracle
    "exact": Cap(70, "oracle range p(70) = 4,087,968 partitions"),
    # weighted_ensemble, mu_N_expected_shape
    "ensemble": Cap(40, "p(40) = 37,338 partitions in memory"),
    # brute_force_log_Z
    "permutations": Cap(9, "9! = 362,880 permutations"),
    # ChainState
    "chain": Cap(100_000, "O(n) chain state"),
    # entropy.qhat_star_array (so minimize_S, minimizing_sequence), functional_S and
    # entropy_decomposition; cost: minimize_S's peak
    "shape": Cap(10**7, "480 MB: six float64 K-vectors in minimize_S", "K"),
    # bosefn.bose_g(method="direct")
    "bose_terms": Cap(10**8, "terms summed"),
    # bosefn._zeta_em
    "zeta_terms": Cap(10**7, "terms in one unchunked array"),
}


def check_cap(route: str, n: int) -> None:
    """Raise CapError when size n exceeds the cap of `route` in CAPS."""
    cap = CAPS[route]
    if n > cap.limit:
        raise CapError(f"{cap.size}={n} exceeds the {route} cap of {cap.limit} ({cap.cost})")
