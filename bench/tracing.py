"""Span tracing of poistomo's public functions, installed from outside.

The benchmark measures end-to-end numbers with nothing installed and takes
per-layer numbers from a separate traced run.  A ``Tracer`` replaces each
traced function by a timing wrapper in every ``poistomo`` namespace that
holds it (``from .x import f`` copies the reference, so patching only the
defining module would miss those callers) and puts every original back on
exit.  Spans are kept in memory as per-name aggregates: calls, inclusive time
and self time (inclusive time minus the inclusive time of direct children).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute) -> span name.  Methods are patched on their class.
FUNCTIONS = {
    ("forward", "build_radon_operator"): "forward.build",
    ("klbasis", "build_kl_basis"): "klbasis.build",
    ("fields", "grad_arrays"): "fields.grad_arrays",
    ("fields", "div_arrays"): "fields.div_arrays",
    ("fields", "tv_arrays"): "fields.tv_arrays",
    ("admm", "solve_map"): "admm.solve_map",
    ("admm", "z_step"): "admm.z_step",
    ("admm", "offset_direction"): "samplers.offset_direction",
    ("samplers", "run_chain"): "samplers.run_chain",
    ("samplers", "tune_stepsize"): "samplers.tune_stepsize",
    ("diagnostics", "intensity_samples"): "diagnostics.intensity_samples",
    ("diagnostics", "posterior_mean"): "diagnostics.posterior_mean",
    ("diagnostics", "pointwise_hpdi"): "diagnostics.pointwise_hpdi",
    ("diagnostics", "ess_matrix"): "diagnostics.ess_matrix",
    ("diagnostics", "acf_matrix"): "diagnostics.acf_matrix",
    ("artifacts", "credible_level"): "artifacts.credible_level",
    ("artifacts", "credible_level_map"): "artifacts.credible_level_map",
    ("calibrate", "chi2_sf"): "calibrate.chi2_sf",
    ("calibrate", "posterior_predictive_p"): "calibrate.posterior_predictive_p",
    ("calibrate", "admissible_search"): "calibrate.admissible_search",
    ("calibrate", "select_lambda"): "calibrate.select_lambda",
}

METHODS = {
    ("klbasis", "KLBasis", "synthesize_values"): "klbasis.synthesize",
    ("klbasis", "KLBasis", "pullback"): "klbasis.pullback",
    ("forward", "RadonOperator", "apply"): "forward.apply",
    ("forward", "RadonOperator", "adjoint"): "forward.adjoint",
    ("posterior", "TGPosterior", "evaluate"): "posterior.evaluate",
    ("posterior", "TGPosterior", "phi_grad_at"): "posterior.phi_grad_at",
}

# Every namespace searched for references to a traced function.
NAMESPACES = ["poistomo"] + [f"poistomo.{m}" for m in (
    "fields", "klbasis", "forward", "posterior", "admm", "samplers",
    "diagnostics", "artifacts", "calibrate", "phantom", "config", "cli")]

# Spans under which calls of every other span are also counted, so that
# ratios such as evaluations per chain step are measured where they happen.
SCOPES = ("samplers.run_chain", "admm.solve_map")


class Tracer:
    """Per-name span aggregates, plus hooks that see a span's arguments and
    result (for counters only the return value carries, such as the accepted
    steps of a chain)."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.scoped = defaultdict(int)       # (scope, name) -> calls
        self.hooks = {}                      # name -> fn(args, kwargs, result)
        self._stack = []                     # child time of each open span
        self._scopes = []                    # open spans that are in SCOPES
        self._patches = []                   # (owner, attribute, original)

    # -- spans --------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        is_scope = name in SCOPES
        if is_scope:
            self._scopes.append(name)
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            if is_scope:
                self._scopes.pop()
            stat = self.stats[name]
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt - frame[0]
            if self._stack:
                self._stack[-1][0] += dt
            for scope in self._scopes:
                self.scoped[(scope, name)] += 1
        hook = self.hooks.get(name)
        if hook is not None:
            hook(args, kwargs, result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    # -- installation ---------------------------------------------------------

    def __enter__(self):
        namespaces = [importlib.import_module(m) for m in NAMESPACES]
        for (module, attr), name in FUNCTIONS.items():
            original = getattr(importlib.import_module(f"poistomo.{module}"),
                               attr)
            traced = self.wrap(name, original)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    self._patch(ns, attr, traced)
        for (module, cls, attr), name in METHODS.items():
            owner = getattr(importlib.import_module(f"poistomo.{module}"), cls)
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- read-out -------------------------------------------------------------

    def calls(self, name) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total(self, name) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_time(self, name) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def per_call_ms(self, name) -> float:
        n = self.calls(name)
        return 1e3 * self.total(name) / n if n else 0.0

    def aggregates(self) -> dict:
        """Per-name calls, inclusive and self seconds, for the report."""
        return {name: {"calls": c, "total_s": t, "self_s": st}
                for name, (c, t, st) in sorted(self.stats.items())}
