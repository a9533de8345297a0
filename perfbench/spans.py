"""Span recorder for one traced rerankit CLI process.

`install()` replaces each traced function by a wrapper under every name a
rerankit module binds it to (for example both `rerankit.matrix_ops.topk_smallest`
and the `topk_smallest` that `rerankit.optimize` imported), so the program's own
call sites go through the wrapper while no source file changes. Each wrapper
records a span (name, start, end, parent) plus the layer's work counts. With
`track_memory` it also keeps the tracemalloc peak reached while each span was
open; tracemalloc slows every allocation (order expansion runs about 3x
slower), so timed runs leave it off. `dump()` writes the spans as JSON when
the process ends.
"""

import functools
import importlib
import json
import time
import tracemalloc

import numpy as np


def _nbytes(_args, _kwargs, result):
    return {"bytes": int(result.nbytes)}


def _pairwise(args, _kwargs, result):
    n, m = result.shape
    d = int(np.shape(args[0])[1])
    return {"pairs": n * m, "gflop": 2.0 * n * m * d / 1e9, "shape": [n, m, d]}


def _topk(args, _kwargs, result):
    n, m = np.shape(args[0])
    k = result.indices.shape[1]
    return {"rows": n, "kept": n * k, "scanned": n * m}


def _expand_order(args, _kwargs, result):
    before = args[0]
    first, prev = before.levels[0], before.levels[-1]
    first_len = np.fromiter((a.size for a in first), dtype=np.int64, count=len(first))
    hops = np.concatenate(prev) if prev else np.empty(0, dtype=np.int64)
    scanned = int(first_len[hops.astype(np.int64)].sum())
    support = int(sum(a.size for a in result.levels[-1]))
    return {"support_nnz": support, "pool": scanned}


def _gaussian_weights(_args, _kwargs, result):
    return {"nnz": int(sum(m.nnz for m in result))}


def _evaluate(args, _kwargs, result):
    dist, q, g = args[0], args[1], args[2]
    num_q, num_g = np.shape(dist)
    ncam = int(max(q.camids.max(initial=0), g.camids.max(initial=0))) + 1
    npid = int(max(q.pids.max(initial=0), g.pids.max(initial=0))) + 1
    per_pid = np.bincount(g.pids, minlength=npid)
    per_pid_cam = np.bincount(g.pids * ncam + g.camids, minlength=npid * ncam)
    positives = per_pid[q.pids] - per_pid_cam[q.pids * ncam + q.camids]
    return {
        "queries": num_q,
        "valid": int(result.num_valid_queries),
        "positives": int(positives.sum()),
        "sorted": num_q * num_g,
    }


def _read_npy(args, _kwargs, _result):
    return {"bytes": len(args[0])}


def _write_npy(_args, _kwargs, result):
    return {"bytes": len(result)}


# Traced functions: "<module>.<function>" -> work counter (or None).
# A span's self time is its duration minus its children's, so nesting
# (enhance -> pairwise_sq_euclidean -> as_feature_matrix) is never double counted.
LAYERS = {
    "cli.main": None,
    "matrix_ops.as_feature_matrix": _nbytes,
    "matrix_ops.l2_normalize_rows": _nbytes,
    "matrix_ops.pairwise_sq_euclidean": _pairwise,
    "matrix_ops.topk_smallest": _topk,
    "enhance.build_first_order": None,
    "enhance.expand_order": _expand_order,
    "enhance.adaptive_sigma": None,
    "enhance.gaussian_weights": _gaussian_weights,
    "enhance.latent_features": None,
    "enhance.enhance": None,
    "optimize.neighborhood_filter": None,
    "optimize.asymmetric_similarity": None,
    "optimize.optimize": None,
    "metrics.evaluate": _evaluate,
    "io_formats.read_npy": _read_npy,
    "io_formats.write_npy": _write_npy,
    "io_formats.read_labels": None,
    "pipeline.compute_refined_distances": None,
    "pipeline.rerank_files": None,
    "pipeline.eval_files": None,
    "synthetic.generate": None,
}

# Functions that are only counted, without a span of their own, so their time
# stays in the caller's self time (the streamed ARO route inside optimize).
COUNTED = ("optimize._similarity_streamed",)


class Tracer:
    """Open spans form a stack: the program is single-threaded at Python level."""

    def __init__(self, track_memory: bool):
        self.spans = []
        self.counted = {name: 0 for name in COUNTED}
        self.track_memory = track_memory
        self._stack = []

    def _fold_peak(self):
        """Fold the tracemalloc peak since the last reset into every open span."""
        if not self.track_memory:
            return 0
        current, peak = tracemalloc.get_traced_memory()
        for span in self._stack:
            span["peak"] = max(span["peak"], peak)
        tracemalloc.reset_peak()
        return current

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = time.perf_counter()
            parent = self._stack[-1]["id"] if self._stack else None
            base = self._fold_peak()
            span = {"id": len(self.spans), "parent": parent, "name": name, "peak": base}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._fold_peak()
                self._stack.pop()
            span["peak_alloc"] = span.pop("peak") - base
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            span["enter"], span["exit"] = enter, time.perf_counter()
            return result

        return traced

    def count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counted[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path, started):
        """Write the spans as one JSON line, then the time the dump ended as a second.

        `started` is when the process began to run Python code; with the
        dump's own start and end it lets the parent tell interpreter start-up,
        imports, the dump and interpreter exit apart.
        """
        doc = {"started": started, "dump_start": time.perf_counter(),
               "spans": self.spans, "counted": self.counted}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) + "\n")
            fh.write(json.dumps({"dump_end": time.perf_counter()}) + "\n")


def _rebind(original, replacement, modules):
    """Point every module-level name bound to `original` at `replacement`."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(track_memory: bool = False) -> Tracer:
    """Wrap every traced function in the loaded rerankit modules.

    Modules come from `importlib.import_module`: the package re-exports some
    functions under their module's name, so `import rerankit.enhance` yields
    the function. A traced name that no longer exists raises, so a refactor
    that moves a function breaks the traced run instead of reporting zero.
    """
    tracer = Tracer(track_memory)
    module_names = {key.split(".")[0] for key in (*LAYERS, *COUNTED)}
    modules = {name: importlib.import_module(f"rerankit.{name}") for name in module_names}
    everything = [importlib.import_module("rerankit"), *modules.values()]
    for key, counter in LAYERS.items():
        module, func = key.split(".")
        original = getattr(modules[module], func)
        _rebind(original, tracer.wrap(key, original, counter), everything)
    for key in COUNTED:
        module, func = key.split(".")
        original = getattr(modules[module], func)
        _rebind(original, tracer.count(key, original), everything)
    if track_memory:
        tracemalloc.start()
    return tracer
