"""Per-layer spans recorded from outside pulsescope.

The package binds its helpers with ``from .x import y``, so a public
function lives under several module namespaces. ``Tracer.install``
replaces it, by object identity, in every ``pulsescope.*`` namespace
that holds it, and ``Tracer.uninstall`` puts the originals back. Private
names are never wrapped: work done inside them is part of the public
caller's self time.

A span records (name, start, end, parent index) in memory. Counts are
taken from argument sizes at the call boundary, so they are computed,
not measured. Call-backs passed across a boundary (``chi_fn`` of
``f_integral``, ``evaluate`` of ``refine_until_converged``, the
``integrand`` of ``certified_tail_cutoff`` and a resolution curve's
``evaluator`` in ``spot_size``) are wrapped to count their calls; only
``chi_fn`` also gets a span of its own, so ``f_integral.self_s``
excludes chi synthesis.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "pulsescope"
CHI_SPAN = "excitation.f_integral.chi"


def _count_calls(tracer, counter, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.counts[counter] += 1
        return fn(*args, **kwargs)
    return counted


def _hook_refine(tracer, a):
    a["evaluate"] = _count_calls(
        tracer, "quadrature.refine_until_converged.evals", a["evaluate"])


def _hook_tail_cutoff(tracer, a):
    a["integrand"] = _count_calls(
        tracer, "quadrature.certified_tail_cutoff.panels", a["integrand"])


def _points(name, first, second):
    def hook(tracer, a):
        tracer.counts[name + ".points"] += np.size(a[first]) * np.size(a[second])
    return hook


def _size(counter, arg, offset=0):
    def hook(tracer, a):
        tracer.counts[counter] += np.size(a[arg]) + offset
    return hook


def _hook_spot_size(tracer, a):
    curve = a["curve"]
    evaluator = curve.evaluator
    if evaluator is None:
        return None
    curve.evaluator = _count_calls(
        tracer, "focal.spot_size.evaluations", evaluator)

    def restore():
        curve.evaluator = evaluator
    return restore


def _hook_eta(tracer, a):
    # chi is exactly proportional to sqrt(pulse_energy), so calls that
    # differ only in the energy repeat the same chi work
    key = tuple(repr(a[k]) for k in ("geometry", "spectrum", "tls", "grid_scale"))
    tracer.eta_inputs.add(key)


def _hook_f_integral(tracer, a):
    chi_fn = a["chi_fn"]

    def chi(tau):
        tracer.counts["excitation.f_integral.chi_samples"] += np.size(tau)
        return tracer.call(CHI_SPAN, chi_fn, (tau,), {})
    a["chi_fn"] = chi


# "<module>.<function>" -> hook(tracer, bound arguments) run before the
# call; a hook may replace arguments and may return a restore callable.
LAYERS = {
    "spectra.make_spectrum": None,
    "quadrature.refine_until_converged": _hook_refine,
    "quadrature.oscillatory_cos_sin": _points("quadrature.oscillatory_cos_sin", "t", "q"),
    "quadrature.certified_tail_cutoff": _hook_tail_cutoff,
    "quadrature.filon_transform": _points("quadrature.filon_transform", "t", "q"),
    "bessel.j1_over_x": _size("bessel.j1_over_x.points", "x"),
    "focal.focal_intensity_rephased": _size("focal.focal_intensity_rephased.radii", "rho"),
    "focal.focal_field_time": _size("focal.focal_field_time.samples", "t"),
    "focal.spot_size": _hook_spot_size,
    "excitation.eta": _hook_eta,
    "excitation.f_integral": _hook_f_integral,
    "excitation.excitation_probability": None,
    "oracle.propagate_driven_tls": _size("oracle.propagate_driven_tls.steps", "times", -1),
    "oracle.oracle_excitation_probability": None,
    "scenario.run_scenario": None,
    "scenario.oracle_compare": None,
    "scenario.emit_figure_data": None,
    "config.load_config": None,
    "cli.main": None,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.eta_inputs = set()
        self.missing = []
        self._stack = []
        self._replaced = []      # (namespace dict, key, original)

    def reset(self):
        self.spans, self._stack = [], []
        self.counts = defaultdict(int)
        self.eta_inputs = set()

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn, hook):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            restore = None
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                restore = hook(self, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            try:
                return self.call(name, fn, args, kwargs)
            finally:
                if restore is not None:
                    restore()
        return traced

    def install(self):
        self.missing = []
        namespaces = [vars(m) for n, m in list(sys.modules.items())
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, hook in LAYERS.items():
            module, func = name.split(".")
            fn = getattr(sys.modules.get(f"{PACKAGE}.{module}"), func, None)
            if not inspect.isfunction(fn):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn, hook)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is fn:
                        ns[key] = wrapper
                        self._replaced.append((ns, key, fn))

    def uninstall(self):
        for ns, key, fn in reversed(self._replaced):
            ns[key] = fn
        self._replaced = []

    def summary(self) -> dict:
        """Per-layer metrics of the spans and counts recorded since reset.

        A counter that never fired is absent here; the caller reads it as 0.
        """
        busy = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        out = dict(self.counts)
        for name in list(LAYERS) + [CHI_SPAN]:
            if name in self.missing:
                continue
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = busy[name] - child[name]
        out["excitation.f_integral.chi_s"] = busy[CHI_SPAN]
        n_eta = calls["excitation.eta"]
        out["excitation.eta.distinct_inputs"] = len(self.eta_inputs)
        # no call wastes nothing
        out["excitation.eta.useful_ratio"] = (
            len(self.eta_inputs) / n_eta if n_eta else 1.0)
        return out
