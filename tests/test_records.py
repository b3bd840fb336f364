"""The record types: immutable NamedTuples whose constructors validate.

One test per record.  Each builds it positionally and by keyword, reads the
defaults, checks every ValidationError message word for word, and checks that
a field cannot be assigned.
"""

from fractions import Fraction

import numpy as np
import pytest

from cyclegas.bosefn import BoseEval
from cyclegas.entropy import ExponentialShape, MinimizeResult, TruncatedShape, minimize_S
from cyclegas.errors import CapError, ValidationError
from cyclegas.partitions import Partition, ShapeMeasure
from cyclegas.thermo import SystemParams, ThermoSolution, qhat_star
from tests.oracles import WeightedEnsemble, weighted_ensemble

BETA_UNIT = 0.07957747154594767  # 1 / (4 pi): (4 pi beta)^(d/2) = 1


def refuses(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


def frozen(record, *names):
    """Assigning any field (or a new attribute) raises AttributeError."""
    for name in (*names, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_bose_eval():
    e = BoseEval(1.5, 1e-12, 16)
    assert e == BoseEval(value=1.5, error_bound=1e-12, terms_used=16)
    assert BoseEval._fields == ("value", "error_bound", "terms_used")
    assert (e.value, e.error_bound, e.terms_used) == (1.5, 1e-12, 16)
    assert BoseEval(1.0, 0.0, 1).error_bound == 0.0
    refuses(lambda: BoseEval(1.0, -1e-3, 5), "error_bound must be nonnegative")
    refuses(lambda: BoseEval(1.0, 1e-3, 0), "terms_used must be >= 1")
    frozen(e, *BoseEval._fields)


def test_system_params():
    p = SystemParams(3, 1.0, 0.5)
    assert p == SystemParams(d=3, beta=1.0, rho=0.5)
    assert SystemParams._fields == ("d", "beta", "rho", "n")
    assert p.n is None
    assert repr(p) == "SystemParams(d=3, beta=1.0, rho=0.5, n=None)"
    q = p.with_n(10)
    assert type(q) is SystemParams and q == SystemParams(3, 1.0, 0.5, n=10) and q.volume == 20.0
    assert p.n is None  # with_n builds a new record
    refuses(lambda: p.with_n(0), "n must be a positive integer when set, got 0")
    refuses(lambda: SystemParams(0, 1.0, 1.0), "dimension d must be a positive integer, got 0")
    refuses(lambda: SystemParams(3.0, 1.0, 1.0), "dimension d must be a positive integer, got 3.0")
    refuses(lambda: SystemParams(3, 0.0, 1.0), "beta must be positive and finite, got 0.0")
    refuses(lambda: SystemParams(3, float("inf"), 1.0), "beta must be positive and finite, got inf")
    refuses(lambda: SystemParams(3, 1.0, float("nan")), "rho must be positive and finite, got nan")
    refuses(lambda: SystemParams(3, 1.0, 1.0, 2.0), "n must be a positive integer when set, got 2.0")
    refuses(lambda: SystemParams(3, 1.0, 1.0).volume, "volume requires the particle number n to be set")
    frozen(q, *SystemParams._fields)
    cache = {p: "a", q: "b"}
    assert cache[SystemParams(3, 1.0, 0.5)] == "a" and cache[p.with_n(10)] == "b"


def test_thermo_solution():
    sol = ThermoSolution("normal", 0.1, 2.6, 0.2, 0.0, -1.0, -0.5)
    assert sol == ThermoSolution(
        regime="normal", alpha=0.1, rho_c=2.6, beta_c=0.2,
        condensate_fraction=0.0, free_energy=-1.0, chi=-0.5,
    )
    assert ThermoSolution._fields == (
        "regime", "alpha", "rho_c", "beta_c", "condensate_fraction", "free_energy", "chi",
    )
    frozen(sol, *ThermoSolution._fields)


def test_partition():
    lam = Partition(4, ((1, 2), (2, 1)))
    assert lam == Partition(n=4, occupations=((1, 2), (2, 1)))
    assert Partition._fields == ("n", "occupations")
    assert lam.parts() == (2, 1, 1) and lam.num_cycles == 3
    assert type(Partition.from_counts(4, {2: 1, 1: 2})) is Partition
    assert Partition.from_parts([2, 1, 1]) == lam
    refuses(lambda: Partition(0, ()), "partition total must be >= 1, got 0")
    refuses(lambda: Partition(4, ((2, 1), (1, 2))), "occupation lengths must be strictly increasing")
    refuses(lambda: Partition(4, ((1, 0), (4, 1))), "stored occupation count must be >= 1, got r_1=0")
    refuses(lambda: Partition(4, ((1, 3),)), "occupations sum to 3, expected n=4")
    frozen(lam, *Partition._fields)
    counts = {lam: 1.0, Partition(4, ((4, 1),)): 2.0}
    assert counts[Partition.from_counts(4, {1: 2, 2: 1})] == 1.0


def test_shape_measure():
    q = ShapeMeasure(4, (Fraction(3, 4), Fraction(1, 4)))
    assert q == ShapeMeasure(n=4, tail=(Fraction(3, 4), Fraction(1, 4)))
    assert ShapeMeasure._fields == ("n", "tail")
    assert q.increments == (Fraction(1, 2), Fraction(1, 4))
    assert all(type(x) is Fraction for x in q.increments)
    refuses(lambda: ShapeMeasure(0, (Fraction(1),)), "shape measure needs n >= 1, got 0")
    refuses(lambda: ShapeMeasure(4, ()), "shape measure tail must be nonempty")
    refuses(lambda: ShapeMeasure(4, (Fraction(1), Fraction(0))), "tail values must be positive")
    refuses(
        lambda: ShapeMeasure(4, (Fraction(2, 3), Fraction(1, 3))),
        "tail values must be multiples of 1/n",
    )
    refuses(lambda: ShapeMeasure(4, (Fraction(1, 4), Fraction(3, 4))), "tail must be non-increasing")
    refuses(lambda: ShapeMeasure(4, (Fraction(1, 2), Fraction(1, 4))), "tail values must sum to 1")
    frozen(q, *ShapeMeasure._fields)


def test_weighted_ensemble():
    params = SystemParams(3, 1.0, 1.0, n=4)
    ens = weighted_ensemble(params)
    assert type(ens) is WeightedEnsemble and WeightedEnsemble._fields == (
        "params", "log_weights", "log_Z",
    )
    assert WeightedEnsemble(params, ens.log_weights, ens.log_Z) == ens
    assert WeightedEnsemble(params=params, log_weights=ens.log_weights, log_Z=ens.log_Z) == ens
    assert ens.params == params and len(ens.log_weights) == 5
    # the log weights are keyed by value: a partition built anew finds its entry
    lam = Partition(4, ((4, 1),))
    assert ens.log_weights[lam] == ens.log_weights[Partition.from_parts([4])]
    assert sum(ens.probability(mu) for mu in ens.log_weights) == pytest.approx(1.0, rel=1e-12)
    frozen(ens, *WeightedEnsemble._fields)


def test_truncated_shape():
    qhat = np.array([1.0])
    a = TruncatedShape(qhat)
    assert TruncatedShape._fields == ("qhat", "relaxed")
    assert a.relaxed is False and a.K == 1 and a.constraint_mass == 1.0
    assert a.qhat is not qhat and not a.qhat.flags.writeable  # a writeable input is copied
    b = TruncatedShape(qhat=a.qhat, relaxed=True)
    assert b.qhat is a.qhat and b.relaxed is True  # a read-only array is adopted
    # identity, not tuple equality: comparing the arrays would be ambiguous
    assert a == a and not a != a
    assert a != TruncatedShape(qhat) and not a == TruncatedShape(qhat)
    assert hash(a) == object.__hash__(a) and len({a, b, TruncatedShape(qhat)}) == 3
    refuses(lambda: TruncatedShape(np.ones((1, 1))), "qhat must be a nonempty 1-d sequence")
    refuses(lambda: TruncatedShape([]), "qhat must be a nonempty 1-d sequence")
    refuses(lambda: TruncatedShape([np.nan]), "qhat entries must be finite and >= 0")
    refuses(lambda: TruncatedShape([-1.0]), "qhat entries must be finite and >= 0")
    refuses(lambda: TruncatedShape([2.0]), "constraint mass 2.0 exceeds 1")
    refuses(
        lambda: TruncatedShape([0.5]),
        "constraint mass 0.5 != 1; pass relaxed=True for partial shapes",
    )
    frozen(a, *TruncatedShape._fields)


def test_exponential_shape():
    params = SystemParams(3, BETA_UNIT, 5.3)  # condensed: a truncation is lighter than 1
    shape = ExponentialShape(params, 200, 0.0, None, True)
    assert shape == ExponentialShape(params=params, K=200, relaxed=True)
    assert ExponentialShape._fields == ("params", "K", "lam", "bump", "relaxed")
    assert (shape.lam, shape.bump, shape.relaxed) == (0.0, None, True)
    assert hash(shape) == hash(ExponentialShape(params, 200, relaxed=True))
    assert "qhat" not in vars(shape)  # built on first access, not at construction
    # the constraint mass is computed once, at construction, for every formula to read
    assert vars(shape) == {"constraint_mass": shape.constraint_mass}
    qhat = shape.qhat
    assert shape.qhat is qhat and not qhat.flags.writeable
    assert qhat[0] == qhat_star(params, 1.0)
    for assign in (lambda: setattr(shape, "qhat", np.zeros(200)), lambda: delattr(shape, "qhat")):
        with pytest.raises(AttributeError):
            assign()
    assert shape.qhat is qhat
    refuses(lambda: ExponentialShape(params, 0, relaxed=True), "K must be >= 1, got 0")
    with pytest.raises(CapError):
        ExponentialShape(params, 10**7 + 1, relaxed=True)
    refuses(
        lambda: ExponentialShape(params, 200, float("inf"), relaxed=True),
        "lam must be finite, got inf",
    )
    refuses(
        lambda: ExponentialShape(params, 200, bump=(201, 0.0), relaxed=True),
        "truncation K=200 must cover the bump at n=201",
    )
    refuses(
        lambda: ExponentialShape(params, 200, bump=(5, -1.0), relaxed=True),
        "bump eps must be finite and >= 0, got -1.0",
    )
    with pytest.raises(ValidationError, match=r"^constraint mass .* != 1; pass relaxed=True"):
        ExponentialShape(params, 200)
    frozen(shape, *ExponentialShape._fields)


def test_minimize_result():
    res = minimize_S(SystemParams(1, 1.0, 0.5), K=100)
    assert type(res) is MinimizeResult and type(res.shape) is ExponentialShape
    assert MinimizeResult._fields == (
        "shape", "lam", "s_value", "boundary_mass", "constraint_residual",
    )
    again = MinimizeResult(
        shape=res.shape, lam=res.lam, s_value=res.s_value,
        boundary_mass=res.boundary_mass, constraint_residual=res.constraint_residual,
    )
    assert again == res == MinimizeResult(*res)
    frozen(res, *MinimizeResult._fields)
