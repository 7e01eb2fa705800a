"""Span tracer that wraps randquad's public functions from outside the package.

``Tracer.install`` replaces every public function of the six layer modules
(``summation``, ``quadrature``, ``random_sources``, ``integrands``,
``experiments``, ``cli``) under every module-level name it is bound to, in
those modules and in the package namespace: ``compensated_sum`` is wrapped
where ``summation`` defines it and where ``quadrature``, ``integrands`` and
``experiments`` import it.  Two public methods are wrapped on their classes
(``RngStream.generator``, ``BrownianIntegrand.value_at``), and the
integrand factories hand back integrands whose evaluators are wrapped, so
evaluation time lands in ``integrands`` and not in the rule that called it.
``Tracer.restore`` puts every original back.

Each call records a span ``(parent, boundary, start_ns, end_ns)`` in memory;
the parent link lets ``summary`` compute self time (a span's duration minus
its direct children's).  A call that is not reached through a module-level
name, such as ``cli``'s dispatch table entries, is not a boundary: its time
is the self time of the enclosing span.

Counts are taken at the same boundaries.  Two are computed from sizes
rather than observed: ``random_sources.draws`` (from the sizes of the
sampled arrays) and ``integrands.dense_bytes`` (from the dense
``cells x cells`` arrays of ``sobolev_seminorm``).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from collections import Counter

import numpy as np

LAYERS = ("summation", "quadrature", "random_sources", "integrands", "experiments", "cli")
COUNTS = (
    "summation.elements",
    "quadrature.cells",
    "quadrature.evaluations",
    "random_sources.streams",
    "random_sources.draws",
    "integrands.eval_points",
    "integrands.dense_bytes",
    "experiments.replications",
)
METHODS = (
    ("random_sources", "RngStream", "generator"),
    ("integrands", "BrownianIntegrand", "value_at"),
)
_RULES = ("quadrature.ctq", "quadrature.rtq", "quadrature.rtq_prefix", "integrands.ctq_brownian", "integrands.rtq_brownian")
_FACTORIES = ("integrands.power_integrand", "integrands.constant_integrand", "integrands.affine_integrand")
# sobolev_seminorm holds dist, diff and kernel (float64) and keep (bool),
# each cells x cells.
_SOBOLEV_BYTES_PER_PAIR = 3 * 8 + 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(values) -> int:
    return int(values.size) if isinstance(values, np.ndarray) else len(values)


class Tracer:
    """Wraps randquad's layer boundaries; one instance per traced process."""

    def __init__(self, package) -> None:
        self.package = package
        self.modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        self.spans: list = []
        self.counts: Counter = Counter()
        self.boundaries: list[str] = []
        self.not_found: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list = []
        self._hooks = {name: self._count_rule for name in _RULES}
        self._hooks.update({name: functools.partial(self._wrap_evaluators, name) for name in _FACTORIES})
        self._hooks.update(
            {
                "summation.compensated_sum": self._count_elements,
                "summation.compensated_cumsum": self._count_elements,
                "random_sources.RngStream.generator": self._count_stream,
                "random_sources.sample_tau_sequence": self._count_draws_len,
                "random_sources.coarsen_tau": self._count_draws_len,
                "random_sources.sample_brownian_path": self._count_draws_path,
                "integrands.BrownianIntegrand.value_at": self._count_points,
                "integrands.sobolev_seminorm": self._count_dense,
                "experiments.mc_lp_error": self._count_replications,
            }
        )

    # -- installing and restoring -------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer, module in self.modules.items():
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{name}"))
        for module in (self.package, *self.modules.values()):
            for name, obj in list(vars(module).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    self._patch(module, name, found[1])
        for layer, cls_name, method in METHODS:
            cls = getattr(self.modules[layer], cls_name, None)
            fn = None if cls is None else cls.__dict__.get(method)
            if fn is None:
                self.not_found.append(f"{layer}.{cls_name}.{method}")
                continue
            self._patch(cls, method, self.wrap(fn, f"{layer}.{cls_name}.{method}"))

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def reset(self) -> None:
        """Forget recorded spans and counts (the wrappers stay usable)."""
        self.spans.clear()
        self.counts.clear()

    # -- spans ----------------------------------------------------------------------

    def wrap(self, fn, boundary: str):
        """``fn`` recording one span per call under ``boundary`` (layer.name)."""
        boundary_id = self._ids.get(boundary)
        if boundary_id is None:
            boundary_id = self._ids[boundary] = len(self.boundaries)
            self.boundaries.append(boundary)
        hook = self._hooks.get(boundary)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (parent, boundary_id, start, end)
            if hook is not None:
                result = hook(args, kwargs, result)
            return result

        return traced

    def summary(self, wall_ns: int) -> dict:
        """Per-layer calls and self time, per-boundary calls, and the rest of the wall time."""
        durations = [end - start for _, _, start, end in self.spans]
        self_ns = list(durations)
        for (parent, _, _, _), d in zip(self.spans, durations):
            if parent >= 0:
                self_ns[parent] -= d
        layer_of = [b.split(".", 1)[0] for b in self.boundaries]
        layer_self = dict.fromkeys(LAYERS, 0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        boundary_calls = Counter()
        boundary_inclusive = Counter()
        root_ns = 0
        for (parent, bid, _, _), d, s in zip(self.spans, durations, self_ns):
            layer = layer_of[bid]
            layer_self[layer] += s
            layer_calls[layer] += 1
            boundary_calls[self.boundaries[bid]] += 1
            boundary_inclusive[self.boundaries[bid]] += d
            if parent < 0:
                root_ns += d
        return {
            "wall_ns": wall_ns,
            "unattributed_ns": wall_ns - root_ns,
            "layer_self_ns": layer_self,
            "layer_calls": layer_calls,
            "boundary_calls": dict(boundary_calls),
            "boundary_inclusive_ns": dict(boundary_inclusive),
            "counts": {name: self.counts[name] for name in COUNTS},
        }

    # -- counters -------------------------------------------------------------------

    def _count_elements(self, args, kwargs, result):
        self.counts["summation.elements"] += _size(_arg(args, kwargs, 0, "values"))
        return result

    def _count_rule(self, args, kwargs, result):
        self.counts["quadrature.cells"] += _arg(args, kwargs, 1, "part").intervals
        last = result[-1] if isinstance(result, list) else result
        self.counts["quadrature.evaluations"] += last.evaluations
        return result

    def _count_stream(self, args, kwargs, result):
        self.counts["random_sources.streams"] += 1
        return result

    def _count_draws_len(self, args, kwargs, result):
        self.counts["random_sources.draws"] += len(result)
        return result

    def _count_draws_path(self, args, kwargs, result):
        # increments, offsets and bridge residuals: one of each per fine cell
        self.counts["random_sources.draws"] += 3 * result.cells
        return result

    def _count_points(self, args, kwargs, result):
        # evaluators take the times as their only argument, value_at after self
        self.counts["integrands.eval_points"] += _size(np.asarray(args[-1]))
        return result

    def _count_dense(self, args, kwargs, result):
        self.counts["integrands.dense_bytes"] += _SOBOLEV_BYTES_PER_PAIR * result.cells**2
        return result

    def _count_replications(self, args, kwargs, result):
        self.counts["experiments.replications"] += _arg(args, kwargs, 3, "replications")
        return result

    def _wrap_evaluators(self, factory, args, kwargs, result):
        replaced = {}
        for attr in ("evaluator", "exact_derivative"):
            fn = getattr(result, attr)
            if fn is not None:
                boundary = f"{factory}.{attr}"
                self._hooks.setdefault(boundary, self._count_points)
                replaced[attr] = self.wrap(fn, boundary)
        return dataclasses.replace(result, **replaced)
