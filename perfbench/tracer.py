"""Spans around the calls into quadsurf's modules, recorded from outside the library.

`Tracer.install` replaces each traced function with a wrapper in every
quadsurf module namespace that holds it (``solve`` reaches ``margins``
through ``quadsurf.newton``, ``prox_contains`` through
``quadsurf.stationarity``, ...), so calls made inside the library are seen
as well as the benchmark's own.  Spans (name, start, end, parent, operation)
stay in memory and are written out when the run ends.  A probe attached
to a traced function turns its arguments or result into counts at the same
boundary.
"""

import sys
import time
from collections import defaultdict

import numpy as np

import quadsurf.model as qs_model


def _probe_design(counts, args, kwargs, out):
    counts["design_bytes"] = max(counts["design_bytes"],
                                 out.a.nbytes + out.M.nbytes + out.G.nbytes)


def _probe_predict(counts, args, kwargs, out):
    counts["predict_rows"] += 1


def _probe_predict_many(counts, args, kwargs, out):
    counts["predict_rows"] += int(np.size(out))


def _probe_index_sets(counts, args, kwargs, out):
    counts["index_sets_calls"] += 1
    counts["working_total"] += int(out.working.size)


def _probe_saddle(counts, args, kwargs, out):
    counts["saddle_dim_max"] = max(counts["saddle_dim_max"], out.shape[0])


def _probe_direction(counts, args, kwargs, out):
    state, cache = args[0], args[1]
    counts["direction_flops"] += (cache.d + int(state.working.working.size)) ** 3 / 3.0


def _probe_solve(counts, args, kwargs, out):
    counts["solves"] += 1
    counts["iters"] += out.final.iter
    counts["stationary_starts"] += out.final.iter == 0
    counts["singular"] += out.status.value == "singular_system"


# (module, attribute, span name, probe); decision_values is a method, traced
# on the class so every caller goes through it.
TARGETS = (
    ("quadsurf.model", "build_design", "model.build_design", _probe_design),
    ("quadsurf.model", "margins", "model.margins", None),
    ("quadsurf.model", "predict", "model.predict", _probe_predict),
    ("quadsurf.model", "predict_many", "model.predict_many", _probe_predict_many),
    ("quadsurf.prox", "prox_contains", "prox.prox_contains", None),
    ("quadsurf.stationarity", "index_sets", "stationarity.index_sets", _probe_index_sets),
    ("quadsurf.stationarity", "residual", "stationarity.residual", None),
    ("quadsurf.stationarity", "pstationary_check", "stationarity.pstationary_check", None),
    ("quadsurf.stationarity", "saddle_matrix", "stationarity.saddle_matrix", _probe_saddle),
    ("quadsurf.newton", "solve", "newton.solve", _probe_solve),
    ("quadsurf.newton", "newton_direction", "newton.newton_direction", _probe_direction),
    ("quadsurf.baseline", "warm_start_point", "baseline.warm_start_point", None),
    ("quadsurf.baseline", "ls_qssvm_fit", "baseline.ls_qssvm_fit", None),
    ("quadsurf.datagen", "generate", "datagen.generate", None),
    ("quadsurf.bench", "load_csv", "bench.load_csv", None),
    ("quadsurf.bench", "split", "bench.split", None),
    ("quadsurf.bench", "fit_normalizer", "bench.fit_normalizer", None),
    ("quadsurf.bench", "apply_normalizer", "bench.apply_normalizer", None),
)


class Tracer:
    """In-memory span recorder; `op` tags spans with the operation in progress
    (-1 during set-up)."""

    def __init__(self):
        self.names = [t[2] for t in TARGETS] + ["model.decision_values"]
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.span_name, self.span_start, self.span_end = [], [], []
        self.span_parent, self.span_op = [], []
        self.stack = []
        self.op = -1
        self.counts = defaultdict(float)
        self._patches = []

    def _wrap(self, fn, name, probe):
        name_id = self.name_ids[name]
        stack, counts = self.stack, self.counts
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_op = self.span_parent, self.span_op

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_op.append(self.op)
            span_end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            span_start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                span_end[idx] = time.perf_counter()
                stack.pop()
            if probe is not None:
                probe(counts, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Swap the wrappers in; `uninstall` puts the original functions back."""
        if not self._patches:
            modules = [m for k, m in sys.modules.items()
                       if m is not None and (k == "quadsurf" or k.startswith("quadsurf."))]
            for mod_name, attr, name, probe in TARGETS:
                orig = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(orig, name, probe)
                self._patches += [(mod, attr, orig, wrapper) for mod in modules
                                  if mod.__dict__.get(attr) is orig]
            cls = qs_model.SurfaceParams
            orig = cls.__dict__["decision_values"]
            self._patches.append((cls, "decision_values", orig,
                                  self._wrap(orig, "model.decision_values", None)))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def clear(self):
        """Drop the spans recorded so far; counts are kept.  Call between
        operations, when no span is open."""
        for spans in (self.span_name, self.span_start, self.span_end,
                      self.span_parent, self.span_op):
            spans.clear()

    def arrays(self):
        return {
            "name": np.asarray(self.span_name, dtype=np.int32),
            "start": np.asarray(self.span_start),
            "end": np.asarray(self.span_end),
            "parent": np.asarray(self.span_parent, dtype=np.int64),
            "op": np.asarray(self.span_op, dtype=np.int64),
        }

    def self_times(self):
        """Per span name: (calls, total self seconds), and the summed duration
        of top-level spans.  Self time is a span's duration minus the time its
        direct children cover."""
        sp = self.arrays()
        dur = sp["end"] - sp["start"]
        child = np.zeros_like(dur)
        has_parent = sp["parent"] >= 0
        np.add.at(child, sp["parent"][has_parent], dur[has_parent])
        self_t = dur - child
        out = {}
        for i, name in enumerate(self.names):
            mask = sp["name"] == i
            out[name] = (int(np.count_nonzero(mask)), float(self_t[mask].sum()))
        return out, float(dur[~has_parent].sum())

    def save(self, path):
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())
