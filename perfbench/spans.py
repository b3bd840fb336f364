"""Spans around the public names at each ``cyclegas`` layer boundary.

The tracer replaces every public module-level function of the package
modules (and of the package namespace) with a wrapper that records a span:
name, start, end, parent span and task id.  Names one layer imported from
another (``thermo.bose_g``, ``entropy.solve_alpha``, ``exactz.chi``,
``sampler.optimal_shape`` ...) are wrapped in the importing module too, so
spans nest across layers.  ``ChainState.__init__`` is wrapped on the class;
``ChainState.step`` and the move-ratio helpers it calls once per step
(``PER_STEP``) are not, because a per-step span would cost more than the
step.  Generator functions (``exactz.iter_parts``) get a zero-length marker
span that counts the items yielded without timing each one.

Counts are taken at the same boundaries: ``terms_used`` of Bose/zeta
results, ``K`` of entropy calls, the regime of a density solve and the
acceptance counts of a chain.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types

LAYERS = ("partitions", "bosefn", "thermo", "entropy", "exactz", "sampler", "cli")
PER_STEP = {"split_move_terms", "merge_move_terms"}


def _bose_attrs(attrs, args, kwargs, result):
    attrs["s"] = float(args[0]) if args else float(kwargs["s"])
    attrs["terms"] = int(result.terms_used)


def _solve_attrs(attrs, args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    attrs["d"] = params.d
    attrs["regime"] = result.regime
    if result.rho_c != float("inf"):
        attrs["ratio"] = params.rho / result.rho_c


def _k_from_arg(attrs, args, kwargs, result):
    attrs["K"] = int(args[1] if len(args) > 1 else kwargs["K"])


def _k_from_shape_arg(attrs, args, kwargs, result):
    attrs["K"] = int((args[0] if args else kwargs["shape"]).K)


def _k_from_result(attrs, args, kwargs, result):
    attrs["K"] = int(result.K)


def _minimize_attrs(attrs, args, kwargs, result):
    attrs["K"] = int(result.shape.K)


def _chain_attrs(attrs, args, kwargs, result):
    attrs["acceptance"] = result.acceptance


COUNTERS = {
    "bosefn.bose_g": _bose_attrs,
    "bosefn.zeta": _bose_attrs,
    "bosefn.zeta_continued": _bose_attrs,
    "thermo.solve_alpha": _solve_attrs,
    "entropy.qhat_star_array": _k_from_arg,
    "entropy.functional_S": _k_from_shape_arg,
    "entropy.entropy_decomposition": _k_from_shape_arg,
    "entropy.minimizing_sequence": _k_from_result,
    "entropy.minimize_S": _minimize_attrs,
    "sampler.run_chain": _chain_attrs,
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._wrapped: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.task = "setup"

    def _open(self, name: str) -> dict:
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else -1,
            "task": self.task,
            "attrs": {},
        }
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn):
        """A wrapper that records one span named ``name`` per call of ``fn``."""
        counter = COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["attrs"]["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(span["attrs"], args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        def count(gen, attrs):
            for item in gen:
                attrs["items"] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span["end"] = span["start"]  # a marker: its items are timed by the consumer
            span["attrs"]["items"] = 0
            return count(fn(*args, **kwargs), span["attrs"])

        return traced

    def _wrapper_for(self, fn):
        key = id(fn)
        if key not in self._wrapped:
            layer = fn.__module__.rsplit(".", 1)[-1]
            self._wrapped[key] = self.wrap(f"{layer}.{fn.__name__}", fn)
        return self._wrapped[key]

    def install(self) -> None:
        """Wrap every public function name in the package and its layer modules."""
        package = importlib.import_module("cyclegas")
        modules = [importlib.import_module(f"cyclegas.{m}") for m in LAYERS]
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and attr not in PER_STEP
                    and obj.__module__.startswith("cyclegas.")
                ):
                    self._patch(module, attr, self._wrapper_for(obj))
        chain_state = importlib.import_module("cyclegas.sampler").ChainState
        self._patch(chain_state, "__init__", self.wrap("sampler.ChainState", chain_state.__init__))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put back every name ``install`` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another (a single thread), so their
    durations add without overlap.
    """
    child_total = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_total[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child_total)]
