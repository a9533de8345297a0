"""The benchmark's traced run still sees every layer it measures.

`perfbench/spans.py` wraps rerankit functions by name, and the benchmark
fails a traced run whose layers record no call. These tests run the same
traced commands (`perfbench/child.py --trace-out`) on a small synthetic
split, so a refactor that renames, bypasses or stops calling a traced
function fails here first.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rerankit.enhance import build_first_order
from rerankit.matrix_ops import as_feature_matrix, l2_normalize_rows
from rerankit.pipeline import config_from_dict

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tmp_path, tag, cli_args, memory=False) -> dict:
    trace = tmp_path / f"{tag}.trace.jsonl"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(PERFBENCH / "child.py"), "--trace-out", str(trace),
            *(["--trace-memory"] if memory else []), "--", *cli_args]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{tag} exited {proc.returncode}: {proc.stderr[-2000:]}"
    with open(trace, encoding="utf-8") as fh:
        return json.loads(fh.readline())


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    data, out = tmp / "data", tmp / "out"
    # 1,100 query and 1,100 gallery rows: every kNN scan runs two blocks,
    # so on two BLAS threads the helper lane runs one of them, under
    # --trace-memory too. DMON's scans (k1 2) take the float32 prefilter in
    # blocks of 1,024 + 76 rows; ARO's (k2 20, fewer than 2 * 20 tiles)
    # take the float64 kernel in blocks of 909 + 191 rows.
    synth = _traced(tmp, "synth", ["synth", "--ids", "110", "--per-id", "20", "--dim", "16",
                                   "--query-fraction", "0.5", "--out", str(data)])
    rerank_args = ["rerank", "--query", str(data / "q.npy"), "--gallery", str(data / "g.npy"),
                   "--out", str(out)]
    rerank = _traced(tmp, "rerank", rerank_args)
    memory = _traced(tmp, "mem", rerank_args, memory=True)
    no_dmon = _traced(tmp, "no_dmon", [*rerank_args[:-1], str(tmp / "no_dmon"), "--no-dmon"])
    evaluate = _traced(tmp, "eval", ["eval", "--dist", str(out / "dist.npy"),
                                     "--query-labels", str(data / "q_labels.csv"),
                                     "--gallery-labels", str(data / "g_labels.csv")])
    return {"synth": synth, "rerank": rerank, "mem": memory, "no_dmon": no_dmon,
            "eval": evaluate, "data": data, "out": out}


def _spans(doc, name):
    return [span for span in doc["spans"] if span["name"] == name]


def test_every_traced_layer_records_a_span(traced_run):
    spans = _load_spans()
    docs = [traced_run[tag] for tag in ("synth", "rerank", "eval")]
    silent = [name for name in spans.LAYERS if not any(_spans(doc, name) for doc in docs)]
    assert not silent, f"traced layers recorded no call: {silent}"
    for name in spans.COUNTED:
        assert traced_run["rerank"]["counted"][name] > 0, name


def test_features_are_checked_once_per_entry(traced_run):
    """A default rerank checks its features where they enter and nowhere
    below: `compute_refined_distances` checks query and gallery, each of
    the two `enhance` calls checks its set, and `optimize` checks both."""
    assert len(_spans(traced_run["rerank"], "matrix_ops.as_feature_matrix")) == 6


def test_rows_are_normalized_once_per_stage(traced_run):
    """`compute_refined_distances` normalizes the query and gallery features
    where they enter; each `enhance` call then normalizes only its output,
    and ARO takes its rows as they are."""
    doc = traced_run["rerank"]
    spans = _spans(doc, "matrix_ops.l2_normalize_rows")
    assert len(spans) == 4
    assert len(_spans(traced_run["no_dmon"], "matrix_ops.l2_normalize_rows")) == 2
    names = {span["id"]: span["name"] for span in doc["spans"]}
    parents = [names[span["parent"]] for span in spans]
    assert parents == ["pipeline.compute_refined_distances"] * 2 + ["enhance.enhance"] * 2


def test_memory_trace_records_peaks(traced_run):
    for name in ("enhance.enhance", "optimize.optimize"):
        peaks = [span["peak_alloc"] for span in _spans(traced_run["mem"], name)]
        assert peaks and min(peaks) > 0, name


def test_npy_byte_counts_equal_file_sizes(traced_run):
    data = traced_run["data"]
    sizes = sorted((data / name).stat().st_size for name in ("q.npy", "g.npy"))
    written = sorted(s["counts"]["bytes"] for s in _spans(traced_run["synth"], "io_formats.write_npy"))
    read = sorted(s["counts"]["bytes"] for s in _spans(traced_run["rerank"], "io_formats.read_npy"))
    assert written == sizes
    assert read == sizes


def _dmon_counts(feats, cfg):
    """The pool and support of each order expansion, and the kernel-weight
    entries, of one default `enhance` call: counted by set algebra on the
    first-order neighbours of its pre-normalized rows."""
    orders = build_first_order(l2_normalize_rows(feats), cfg.k1)
    first = [set(map(int, row)) for row in orders.levels[0]]
    levels, expand = [first], []
    for _ in range(1, cfg.orders):
        pool = sum(len(first[y]) for row in levels[-1] for y in row)
        levels.append([set().union(*(first[y] for y in row)) - {x}
                       for x, row in enumerate(levels[-1])])
        expand.append({"support_nnz": sum(map(len, levels[-1])), "pool": pool})
    return expand, [sum(len(row) for level in levels for row in level)]


def test_dmon_counters_count_the_neighbour_tables(traced_run):
    """The benchmark's `enhance.expand_order.{support_nnz,pool}` and
    `enhance.gaussian_weights.nnz` equal, for the query and then the gallery
    `enhance` call, the counts taken in-process from `q.npy` and `g.npy`."""
    doc = traced_run["rerank"]
    manifest = json.loads((traced_run["out"] / "manifest.json").read_text(encoding="utf-8"))
    cfg = config_from_dict(manifest["params"]).dmon
    calls = _spans(doc, "enhance.enhance")
    assert len(calls) == 2
    for call, name in zip(calls, ("q.npy", "g.npy")):
        children = [span for span in doc["spans"] if span["parent"] == call["id"]]
        expand = [span["counts"] for span in children if span["name"] == "enhance.expand_order"]
        nnz = [span["counts"]["nnz"] for span in children
               if span["name"] == "enhance.gaussian_weights"]
        feats = as_feature_matrix(np.load(traced_run["data"] / name))
        assert (expand, nnz) == _dmon_counts(feats, cfg), name
