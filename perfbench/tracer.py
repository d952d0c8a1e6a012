"""Span tracer that wraps the package's public functions from outside.

`Tracer.install()` replaces every traced function with a wrapper in each
`kostant_toda` module namespace that holds it (so `verify.integrate` and
`resolvent.integrate` are wrapped as well as `dynamics.integrate`), and
patches the traced methods on their classes. Each call records a span
(name, start, end, parent) in memory; hooks add counts measured at the same
boundary. `uninstall()` puts the original objects back.

Self time of a span is its duration minus the durations of its child spans;
calls never overlap, because the package runs on one thread.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "kostant_toda"
LAYERS = ("backends", "core", "dynamics", "moments", "polynomials", "resolvent", "verify", "cli")

# Methods are not listed in __all__; these are the ones the layer metrics name.
METHODS = {
    "core": ("LatticeState.dense",),
    "dynamics": ("Trajectory.state_at", "Trajectory.to_csv"),
}


def _integrate_key(state, cfg, corruption=None, resolvent_zs=None, x0_blocks=None):
    def raw(x):
        return None if x is None else np.ascontiguousarray(x).tobytes()

    return (raw(state.a), raw(state.b), raw(state.c), state.t, cfg, corruption,
            raw(resolvent_zs), raw(x0_blocks))


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.distinct = defaultdict(set)
        self.enabled = True
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, hook=None, name_arg=False):
        """Wrapper of fn recording a span called name (suffixed by the first
        argument when name_arg is set) and then calling hook."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = f"{name}.{args[0]}" if name_arg else name
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([label, 0.0, 0.0, parent])
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx][1] = start
                tracer.spans[idx][2] = end
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        holders = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for layer, module in modules.items():
            for attr in _traced_names(layer, module):
                fn = getattr(module, attr)
                wrapper = self.wrap(f"{layer}.{attr}", fn, HOOKS.get(f"{layer}.{attr}"),
                                    name_arg=(layer, attr) == ("verify", "run_control"))
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, key, wrapper)
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(f"{layer}.{path}", fn, HOOKS.get(f"{layer}.{path}")))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- aggregation -----------------------------------------------------

    def summary(self):
        """Per span name: calls, total duration and self time, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(out)


def _traced_names(layer, module):
    names = [n for n in getattr(module, "__all__", ()) if inspect.isfunction(getattr(module, n))]
    if layer == "verify":
        names += [n for n, v in vars(module).items()
                  if (n.startswith("check_") or n == "run_control") and callable(v)]
    return names


# -- counters measured at the layer boundaries ---------------------------


def _count_integrate(tracer, fn, args, kwargs, result):
    tracer.distinct["dynamics.integrate"].add(_integrate_key(*args, **kwargs))


def _count_rk4(tracer, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    tracer.counts["backends.rk4_trajectory.steps"] += int(bound["n_steps"])
    tracer.counts["backends.rk4_trajectory.samples_bytes"] += result[0].nbytes


def _count_terms(key):
    def hook(tracer, fn, args, kwargs, result):
        tracer.counts[key] += result.terms_used

    return hook


HOOKS = {
    "dynamics.integrate": _count_integrate,
    "backends.rk4_trajectory": _count_rk4,
    "resolvent.resolvent_block": _count_terms("resolvent.resolvent_block.terms"),
    "moments.exponential_moments": _count_terms("moments.exponential_moments.terms_used"),
}
