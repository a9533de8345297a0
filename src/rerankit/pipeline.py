"""End-to-end orchestration: synth, rerank, eval, sweep, and ablation runs.

Every rerank writes a manifest JSON capturing all effective parameters
and the tool version; re-running from a manifest reproduces the output
bytes exactly. Dataset presets bundle published hyperparameter settings
so the same configurations can be applied to real feature dumps.
"""

import itertools
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .enhance import DmonConfig, enhance
from .io_formats import (
    NpyRows,
    NpyRowWriter,
    npy_header,
    read_json,
    read_labels,
    read_npy,
    write_json,
    write_labels,
    write_npy,
)
from .metrics import EvalReport, evaluate
from .optimize import AroConfig, optimize
from .synthetic import SynthSpec, generate

PRESETS = {
    "market1501": {"k1": 2, "k2": 20, "gamma": 0.75, "orders": 3, "batch_size": None},
    "dukemtmc": {"k1": 5, "k2": 20, "gamma": 0.75, "orders": 3, "batch_size": None},
    "msmt17": {"k1": 5, "k2": 2, "gamma": 0.75, "orders": 3, "batch_size": 10000},
}

ABLATION_VARIANTS = (
    ("baseline", False, False),
    ("+ARO", False, True),
    ("+DMON", True, False),
    ("+DMON+ARO", True, True),
)

DIST_FILENAME = "dist.npy"
MANIFEST_FILENAME = "manifest.json"


class InsufficientSpaceError(ValueError):
    """The output directory has less free space than the distance file needs."""


@dataclass(frozen=True)
class PipelineConfig:
    """Which stages run and with what hyperparameters.

    `aro_uses_enhanced` selects whether the distance-optimization stage
    consumes the enhanced features (the default, matching the serial
    enhancement -> optimization flow) or the raw ones. `dmon_joint`
    enhances the concatenation of query and gallery instead of each set
    separately.
    """

    dmon: DmonConfig = DmonConfig()
    aro: AroConfig = AroConfig()
    dmon_on: bool = True
    aro_on: bool = True
    aro_uses_enhanced: bool = True
    dmon_joint: bool = False
    max_rank: int = 50

    def __post_init__(self):
        if self.max_rank < 1:
            raise ValueError(f"max_rank must be >= 1, got {self.max_rank}")


def config_to_dict(cfg: PipelineConfig) -> dict:
    out = {
        "dmon": asdict(cfg.dmon),
        "aro": asdict(cfg.aro),
        "dmon_on": cfg.dmon_on,
        "aro_on": cfg.aro_on,
        "aro_uses_enhanced": cfg.aro_uses_enhanced,
        "dmon_joint": cfg.dmon_joint,
        "max_rank": cfg.max_rank,
    }
    if out["dmon"]["alphas"] is not None:
        out["dmon"]["alphas"] = list(out["dmon"]["alphas"])
    return out


def config_from_dict(data: dict) -> PipelineConfig:
    dmon = dict(data["dmon"])
    if dmon.get("alphas") is not None:
        dmon["alphas"] = tuple(dmon["alphas"])
    return PipelineConfig(
        dmon=DmonConfig(**dmon),
        aro=AroConfig(**data["aro"]),
        dmon_on=data["dmon_on"],
        aro_on=data["aro_on"],
        aro_uses_enhanced=data["aro_uses_enhanced"],
        dmon_joint=data["dmon_joint"],
        max_rank=data["max_rank"],
    )


def compute_refined_distances(
    query_feats, gallery_feats, cfg: PipelineConfig, sink=None
) -> np.ndarray | None:
    """Run the configured stages and return the final query-gallery matrix.

    With both stages off this is the plain (pre-normalized) squared
    distance matrix. With a `sink`, the matrix is handed to it as
    `optimize` row stripes instead, and None is returned.
    """
    fq = np.asarray(query_feats, dtype=np.float64)
    fg = np.asarray(gallery_feats, dtype=np.float64)
    if cfg.dmon_on:
        if cfg.dmon_joint:
            stacked = enhance(np.vstack([fq, fg]), cfg.dmon)
            enhanced_q, enhanced_g = stacked[: fq.shape[0]], stacked[fq.shape[0] :]
        else:
            # batching applies to the gallery side only
            enhanced_q = enhance(fq, replace(cfg.dmon, batch_size=None))
            enhanced_g = enhance(fg, cfg.dmon)
        if cfg.aro_uses_enhanced or not cfg.aro_on:
            fq, fg = enhanced_q, enhanced_g
    return optimize(fq, fg, replace(cfg.aro, enabled=cfg.aro_on), sink=sink)


def _manifest(command: str, params: dict, inputs: dict, outputs: dict, seed=None) -> dict:
    return {
        "tool": "rerankit",
        "version": __version__,
        "command": command,
        "seed": seed,
        "inputs": inputs,
        "params": params,
        "outputs": outputs,
    }


def synth_files(spec: SynthSpec, out_dir) -> dict:
    """Generate a synthetic split and write q/g features (NPY) and labels (CSV)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fq, q_labels, fg, g_labels = generate(spec)
    paths = {
        "query": out / "q.npy",
        "gallery": out / "g.npy",
        "query_labels": out / "q_labels.csv",
        "gallery_labels": out / "g_labels.csv",
    }
    paths["query"].write_bytes(write_npy(fq, precision="float32"))
    paths["gallery"].write_bytes(write_npy(fg, precision="float32"))
    paths["query_labels"].write_text(write_labels(q_labels), encoding="utf-8")
    paths["gallery_labels"].write_text(write_labels(g_labels), encoding="utf-8")
    manifest = _manifest(
        "synth", asdict(spec), {}, {k: str(v.name) for k, v in paths.items()},
        seed=spec.seed,
    )
    (out / MANIFEST_FILENAME).write_text(write_json(manifest), encoding="utf-8")
    return {k: str(v) for k, v in paths.items()}


def rerank_files(
    query_path,
    gallery_path,
    out_dir,
    cfg: PipelineConfig,
    seed: int | None = None,
) -> dict:
    """Load feature files, compute refined distances, write NPY + manifest.

    Distances are stored in float64 so downstream evaluation sees exactly
    the computed values. Each refined row stripe is appended to
    `dist.npy.partial` as it is computed, and the file is renamed to
    `dist.npy` once complete; on any error it is deleted, so an earlier
    `dist.npy` is never clobbered by a partial one.

    Raises:
        InsufficientSpaceError: before any computation, when the output
            directory has less free space than `dist.npy` needs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fq = read_npy(Path(query_path).read_bytes())
    fg = read_npy(Path(gallery_path).read_bytes())
    shape = (fq.shape[0], fg.shape[0])
    needed = len(npy_header(shape)) + shape[0] * shape[1] * 8
    st = os.statvfs(out)
    free = st.f_bavail * st.f_frsize
    if free < needed:
        raise InsufficientSpaceError(
            f"{DIST_FILENAME} needs {needed} bytes but {out} has {free} bytes free"
        )
    partial = out / (DIST_FILENAME + ".partial")
    try:
        with open(partial, "wb") as fh:
            writer = NpyRowWriter(fh, shape)
            compute_refined_distances(fq, fg, cfg, sink=writer)
            writer.finish()
        os.replace(partial, out / DIST_FILENAME)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    distance_kind = (
        "squared_euclidean_minus_similarity" if cfg.aro_on else "squared_euclidean"
    )
    manifest = _manifest(
        "rerank",
        config_to_dict(cfg),
        {"query": str(query_path), "gallery": str(gallery_path)},
        {"distances": DIST_FILENAME, "distance_kind": distance_kind},
        seed=seed,
    )
    (out / MANIFEST_FILENAME).write_text(write_json(manifest), encoding="utf-8")
    return manifest


def rerank_from_manifest(manifest_path, out_dir) -> dict:
    """Re-run a rerank exactly as recorded in a previous manifest."""
    manifest = read_json(Path(manifest_path).read_text(encoding="utf-8"))
    cfg = config_from_dict(manifest["params"])
    return rerank_files(
        manifest["inputs"]["query"],
        manifest["inputs"]["gallery"],
        out_dir,
        cfg,
        seed=manifest.get("seed"),
    )


def eval_files(
    dist_path,
    query_labels_path,
    gallery_labels_path,
    max_rank: int = 50,
    report_path=None,
    config: dict | None = None,
) -> dict:
    """Evaluate a distance file against labels, optionally write the report.

    The distance file is read in row stripes (`NpyRows`), never whole.
    """
    with open(dist_path, "rb") as fh:
        dist = NpyRows(fh)
        q_labels = read_labels(Path(query_labels_path).read_text(encoding="utf-8"))
        g_labels = read_labels(Path(gallery_labels_path).read_text(encoding="utf-8"))
        report = evaluate(dist, q_labels, g_labels, max_rank=max_rank)
    effective = {
        "tool": "rerankit",
        "version": __version__,
        "max_rank": max_rank,
        "distances": str(dist_path),
        "query_labels": str(query_labels_path),
        "gallery_labels": str(gallery_labels_path),
    }
    if config:
        effective.update(config)
    doc = report.to_json_dict(config=effective)
    if report_path is not None:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        Path(report_path).write_text(write_json(doc), encoding="utf-8")
    return doc


def _evaluate_config(fq, q_labels, fg, g_labels, cfg: PipelineConfig) -> EvalReport:
    dist = compute_refined_distances(fq, fg, cfg)
    return evaluate(dist, q_labels, g_labels, max_rank=cfg.max_rank)


def run_sweep(
    query_path,
    gallery_path,
    query_labels_path,
    gallery_labels_path,
    base_cfg: PipelineConfig,
    k1_values,
    k2_values,
    gamma_values,
    order_values,
) -> list[dict]:
    """Cartesian hyperparameter sweep; one rerank+eval per grid cell.

    The first row is the baseline (both stages off), used for the delta
    columns. Rows follow the deterministic grid order of
    itertools.product(k1, k2, gamma, orders).
    """
    grids = [list(k1_values), list(k2_values), list(gamma_values), list(order_values)]
    if any(len(g) == 0 for g in grids):
        raise ValueError("empty sweep grid")
    fq = read_npy(Path(query_path).read_bytes())
    fg = read_npy(Path(gallery_path).read_bytes())
    q_labels = read_labels(Path(query_labels_path).read_text(encoding="utf-8"))
    g_labels = read_labels(Path(gallery_labels_path).read_text(encoding="utf-8"))

    rows = []
    base_report = _evaluate_config(
        fq, q_labels, fg, g_labels, replace(base_cfg, dmon_on=False, aro_on=False)
    )
    rows.append(
        {
            "label": "baseline",
            "k1": "",
            "k2": "",
            "gamma": "",
            "orders": "",
            "dmon_on": False,
            "aro_on": False,
            "mAP": base_report.mean_ap,
            "rank1": base_report.rank1,
            "delta_mAP": 0.0,
            "delta_rank1": 0.0,
        }
    )
    for k1, k2, gamma, orders in itertools.product(*grids):
        cfg = replace(
            base_cfg,
            dmon=replace(base_cfg.dmon, k1=k1, gamma=gamma, orders=orders),
            aro=replace(base_cfg.aro, k2=k2),
        )
        report = _evaluate_config(fq, q_labels, fg, g_labels, cfg)
        rows.append(
            {
                "label": "grid",
                "k1": k1,
                "k2": k2,
                "gamma": gamma,
                "orders": orders,
                "dmon_on": cfg.dmon_on,
                "aro_on": cfg.aro_on,
                "mAP": report.mean_ap,
                "rank1": report.rank1,
                "delta_mAP": report.mean_ap - base_report.mean_ap,
                "delta_rank1": report.rank1 - base_report.rank1,
            }
        )
    return rows


SWEEP_COLUMNS = (
    "label",
    "k1",
    "k2",
    "gamma",
    "orders",
    "dmon_on",
    "aro_on",
    "mAP",
    "rank1",
    "delta_mAP",
    "delta_rank1",
)


def sweep_rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def run_pipeline(
    spec: SynthSpec,
    cfg: PipelineConfig,
    out_dir,
    ablation: bool = False,
) -> list[dict]:
    """synth -> rerank -> eval in one pass.

    Default mode compares the baseline against the configured stages;
    `ablation` runs the four-variant grid (baseline, +ARO, +DMON,
    +DMON+ARO) and writes ablation.csv.
    """
    out = Path(out_dir)
    paths = synth_files(spec, out / "data")
    if ablation:
        variants = ABLATION_VARIANTS
    else:
        variants = (
            ("baseline", False, False),
            ("configured", cfg.dmon_on, cfg.aro_on),
        )
    subdir_names = {"baseline": "baseline", "+ARO": "aro", "+DMON": "dmon",
                    "+DMON+ARO": "dmon_aro", "configured": "configured"}
    rows = []
    for label, dmon_on, aro_on in variants:
        variant_cfg = replace(cfg, dmon_on=dmon_on, aro_on=aro_on)
        run_dir = out / subdir_names[label]
        rerank_files(paths["query"], paths["gallery"], run_dir, variant_cfg, seed=spec.seed)
        doc = eval_files(
            run_dir / DIST_FILENAME,
            paths["query_labels"],
            paths["gallery_labels"],
            max_rank=cfg.max_rank,
            report_path=run_dir / "report.json",
            config={"variant": label, "max_rank": cfg.max_rank},
        )
        rows.append({"variant": label, "mAP": doc["mAP"], "rank1": doc["cmc"][0]})
    name = "ablation.csv" if ablation else "comparison.csv"
    lines = ["variant,mAP,rank1"]
    lines += [f"{r['variant']},{r['mAP']},{r['rank1']}" for r in rows]
    (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = _manifest(
        "pipeline",
        {"spec": asdict(spec), "config": config_to_dict(cfg), "ablation": ablation},
        {},
        {"table": name, "variants": [subdir_names[label] for label, _, _ in variants]},
        seed=spec.seed,
    )
    (out / "pipeline_manifest.json").write_text(write_json(manifest), encoding="utf-8")
    return rows
