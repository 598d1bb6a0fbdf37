"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces, at run time, the coarse public entry points of
each ``etale`` module with wrappers that record a span (name, start, end,
parent) and, for some, a count taken from the return value.  Every module
attribute bound to a wrapped function is replaced, so calls made through
``from .x import f`` bindings are seen too.  Per-element functions (``mul``,
``inv``, ``length``, ``act``, ``source_unit``, ``evaluate``) are not wrapped.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

ENTRY_POINTS = {
    "model": ["load_model", "GroupoidModel.ball", "GroupoidModel.sphere",
              "GroupoidModel.source_ball"],
    "algebra": ["sphere_indicator", "convolve"],
    "spectral": ["reduced_norm", "reduced_norm_at_unit", "power_sequence_norm",
                 "radial_convolve"],
    "metric": ["hyperbolicity_delta", "distance_matrix", "growth_stats", "band_check"],
    "kernels": ["gram_matrix", "gns_build", "gns_isometry_defect", "psd_check",
                "haagerup_witness_check"],
    "exotic": ["extension_criteria", "certificate"],
    "cli": ["main"],
}

# counts taken from return values: span name -> [(counter, fn(result))]
COUNTERS = {
    "model.ball": [("model.elements", len)],
    "model.sphere": [("model.elements", len)],
    "model.source_ball": [("model.elements", len)],
    "algebra.convolve": [("algebra.convolve_support", len)],
    "spectral.reduced_norm_at_unit": [
        ("spectral.iterations", lambda est: sum(r[2] for r in est.trace)),
        ("spectral.fiber_solves", lambda est: len(est.trace))],
    "metric.hyperbolicity_delta": [("metric.quadruples", lambda est: est.quadruples)],
    "kernels.gram_matrix": [("kernels.gram_entries", lambda G: G.size)],
}

# per-layer time metric -> spans whose self time it sums
SELF_TIMES = {
    "model.load_model_s": ["model.load_model"],
    "model.ball_s": ["model.ball", "model.sphere"],
    "model.source_ball_s": ["model.source_ball"],
    "algebra.sphere_indicator_s": ["algebra.sphere_indicator"],
    "algebra.convolve_s": ["algebra.convolve"],
    "spectral.reduced_norm_s": ["spectral.reduced_norm", "spectral.reduced_norm_at_unit"],
    "spectral.power_sequence_norm_s": ["spectral.power_sequence_norm"],
    "spectral.radial_convolve_s": ["spectral.radial_convolve"],
    "metric.hyperbolicity_delta_s": ["metric.hyperbolicity_delta"],
    "metric.distance_matrix_s": ["metric.distance_matrix"],
    "metric.growth_stats_s": ["metric.growth_stats"],
    "metric.band_check_s": ["metric.band_check"],
    "kernels.gram_matrix_s": ["kernels.gram_matrix"],
    "kernels.gns_build_s": ["kernels.gns_build"],
    "kernels.gns_isometry_defect_s": ["kernels.gns_isometry_defect"],
    "kernels.psd_check_s": ["kernels.psd_check"],
    "kernels.haagerup_witness_check_s": ["kernels.haagerup_witness_check"],
    "exotic.extension_criteria_s": ["exotic.extension_criteria"],
    "exotic.certificate_s": ["exotic.certificate"],
    "cli.self_s": ["cli.main"],
}

COUNT_NAMES = sorted({c for cs in COUNTERS.values() for c, _ in cs})


class Tracer:
    """Keeps spans in memory: ``(name, start, end, parent index, query)``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.query = None
        self.scale: dict = {}  # query -> speed factor applied to its span times
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        counters = COUNTERS.get(name, ())
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, self.query])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            for counter, measure in counters:
                self.counts[counter] += measure(result)
            return result
        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "etale" or n.startswith("etale.")]
        for layer, names in ENTRY_POINTS.items():
            mod = importlib.import_module(f"etale.{layer}")
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    owner = getattr(mod, cls_name)
                    fn = owner.__dict__[meth]
                    self._restore.append((owner, meth, fn))
                    setattr(owner, meth, self._wrap(f"{layer}.{meth}", fn))
                    continue
                fn = getattr(mod, name)
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._restore.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Span time minus the time of its child spans, summed by name, at
        the reference host speed of the span's query."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for (name, t0, t1, _, query), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + ((t1 - t0) - c) * self.scale.get(query, 1.0)
        return out

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round self times and counts."""
        st = self.self_times()
        out = {k: sum(st.get(n, 0.0) for n in names) / rounds for k, names in SELF_TIMES.items()}
        out.update({k: v / rounds for k, v in self.counts.items()})
        return out
