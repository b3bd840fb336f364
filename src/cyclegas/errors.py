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
# above limit through check_cap (CapError); the exact and chain routes pass
# through thermo._cycle_log_constants, the one gate of the exact sums and the
# chain.  The last four bound the iterations of a certified series or root
# and raise PrecisionError where they run instead.
CAPS = {
    # iter_parts (so the tests' enumeration oracle), partition_count,
    # conjugacy_class_size
    "enumeration": Cap(120, "p(120) = 1,844,349,560 partitions"),
    # exact_log_Z (so convergence_scan, confinement_log_Z_bracket) and
    # mu_N_expected_shape, one O(n^2) table each: the range of their
    # enumeration oracle
    "exact": Cap(70, "oracle range p(70) = 4,087,968 partitions"),
    # brute_force_log_Z
    "permutations": Cap(9, "9! = 362,880 permutations"),
    # ChainState (so run_chain)
    "chain": Cap(100_000, "O(n) chain state"),
    # entropy.qhat_star_array, the shapes (so minimize_S, minimizing_sequence),
    # functional_S and entropy_decomposition; cost: a shape's qhat, built on access
    "shape": Cap(10**7, "80 MB: one float64 K-vector, a shape's materialised qhat", "K"),
    # bosefn._zeta_em
    "zeta_terms": Cap(10**7, "terms summed"),
    # bosefn._bose_expansion: the last explicit term k, each a zeta(s - k) of its memoised table
    "expansion_terms": Cap(400, "terms zeta(s - k) (-alpha)^k / k! of the small-alpha expansion"),
    # entropy._expint_scaled: about 200 steps at lam n = 1, more as lam n shrinks
    "expint_steps": Cap(10_000, "continued-fraction steps of E_s"),
    # thermo._bracketed_root (so every density and shape root), the first
    # evaluation included: b's, or a seed's.  A seeded density root takes
    # one or two, minimize's seeded dual root one or two above lambda = 0
    # and five or six below it
    "root_evals": Cap(400, "evaluations of the certified function per root"),
}


def check_cap(route: str, n: int) -> None:
    """Raise CapError when size n exceeds the cap of `route` in CAPS."""
    cap = CAPS[route]
    if n > cap.limit:
        raise CapError(f"{cap.size}={n} exceeds the {route} cap of {cap.limit} ({cap.cost})")
