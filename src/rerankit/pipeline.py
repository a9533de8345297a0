"""End-to-end orchestration: synth, rerank, eval, sweep, and ablation runs.

Every rerank writes a manifest JSON capturing all effective parameters
and the tool version; re-running from a manifest reproduces the output
bytes exactly. Dataset presets bundle published hyperparameter settings
so the same configurations can be applied to real feature dumps.
"""

import json
import os
import types
import typing
from dataclasses import asdict, dataclass, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .enhance import DmonConfig, batch_bounds, enhance
from .io_formats import (
    LabelFormatError,
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
from .metrics import MAX_RANK, EvalReport, SampleLabels, evaluate
from .optimize import AroConfig, as_query_gallery, optimize
from .synthetic import SynthSpec, generate

PRESETS = {
    "market1501": {"k1": 2, "k2": 20, "gamma": 0.75, "orders": 3, "batch_size": None},
    "dukemtmc": {"k1": 5, "k2": 20, "gamma": 0.75, "orders": 3, "batch_size": None},
    "msmt17": {"k1": 5, "k2": 2, "gamma": 0.75, "orders": 3, "batch_size": 10000},
}

# (label, run subdirectory, DMON on, ARO on)
ABLATION_VARIANTS = (
    ("baseline", "baseline", False, False),
    ("+ARO", "aro", False, True),
    ("+DMON", "dmon", True, False),
    ("+DMON+ARO", "dmon_aro", True, True),
)

DIST_FILENAME = "dist.npy"
MANIFEST_FILENAME = "manifest.json"


class InsufficientSpaceError(ValueError):
    """The output directory has less free space than the distance file needs."""


class ConfigError(ValueError):
    """A parameter or manifest field is missing, unknown, ill-typed or out of range."""


@dataclass(frozen=True)
class PipelineConfig:
    """Which stages run and with what hyperparameters.

    DMON runs when `dmon_on`, ARO when `aro.enabled`; ARO measures the
    enhanced features whenever DMON ran. `dmon_joint` enhances the
    concatenation of query and gallery instead of each set separately.
    """

    dmon: DmonConfig = DmonConfig()
    aro: AroConfig = AroConfig()
    dmon_on: bool = True
    dmon_joint: bool = False
    max_rank: int = MAX_RANK

    def __post_init__(self):
        if self.max_rank < 1:
            raise ValueError(f"max_rank must be >= 1, got {self.max_rank}")

    def with_stages(self, dmon_on: bool, aro_on: bool) -> "PipelineConfig":
        """This config with DMON and ARO each switched on or off."""
        return replace(self, dmon_on=dmon_on, aro=replace(self.aro, enabled=aro_on))


def config_from_dict(params) -> PipelineConfig:
    """The PipelineConfig that `asdict` recorded as a manifest's `params`.

    Every field must be present and of its declared type (JSON integers
    are read as floats where a float is declared). Manifests of earlier
    versions recorded fields that map to the current ones:
    - `dmon.sigma_mode` beside `dmon.sigma` maps to `dmon.sigma` (None
      when adaptive), and a top-level `aro_on` to `aro.enabled`;
    - `dmon.alphas`, `dmon.normalize_weight_rows` and
      `dmon.disjoint_orders` are dropped at the one value each can hold
      now (null, true and false: halving decay, row-normalized kernel
      weights, overlapping orders);
    - `aro_uses_enhanced` is dropped; false with ARO on, which measured
      the raw features, maps to `dmon_on` false.

    Raises:
        ConfigError: naming the first field that is missing, unknown,
            ill-typed or out of range.
    """
    uses_enhanced = True
    if isinstance(params, dict):
        params = {key: dict(v) if isinstance(v, dict) else v for key, v in params.items()}
        dmon = params["dmon"] if isinstance(params.get("dmon"), dict) else {}
        mode = dmon.pop("sigma_mode", "fixed")
        if mode not in ("adaptive", "fixed"):
            raise ConfigError(f"dmon.sigma_mode must be 'adaptive' or 'fixed', got {mode!r}")
        if mode == "adaptive":
            dmon["sigma"] = None
        if "aro_on" in params and isinstance(params.get("aro"), dict):
            params["aro"]["enabled"] = params.pop("aro_on")
        retired = {"alphas": None, "normalize_weight_rows": True, "disjoint_orders": False}
        for name, value in retired.items():
            got = dmon.pop(name, value)
            if got is not value:
                raise ConfigError(f"dmon.{name} can only be {json.dumps(value)}, got {got!r}")
        uses_enhanced = _typed(params.pop("aro_uses_enhanced", True), bool, "aro_uses_enhanced")
    cfg = _build(PipelineConfig, params, "")
    # ARO on the raw features is ARO without DMON
    return cfg if uses_enhanced or not cfg.aro.enabled else replace(cfg, dmon_on=False)


def _build(cls, data, where: str):
    """An instance of the config dataclass `cls` from the fields in `data`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where.rstrip('.') or 'params'} must be an object, got {data!r}")
    hints = typing.get_type_hints(cls)
    odd = sorted(set(data) ^ set(hints))
    if odd:
        raise ConfigError(f"{'unknown' if odd[0] in data else 'missing'} field {where}{odd[0]}")
    values = {
        name: _build(hint, data[name], f"{where}{name}.")
        if is_dataclass(hint)
        else _typed(data[name], hint, where + name)
        for name, hint in hints.items()
    }
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from None


def _typed(value, hint, name: str):
    """`value` checked against `hint` (a class or a union of classes), with
    JSON integers as floats."""
    for option in typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,):
        if type(value) is option:
            return value
        if option is float and type(value) is int:
            return float(value)
    raise ConfigError(f"{name} must be {getattr(hint, '__name__', hint)}, got {value!r}")


def compute_refined_distances(
    query_feats, gallery_feats, cfg: PipelineConfig, sink=None
) -> np.ndarray | None:
    """Run the configured stages and return the final query-gallery matrix.

    With both stages off this is the plain (pre-normalized) squared
    distance matrix; ARO takes DMON's unit-or-zero rows as they are. With
    a `sink`, the matrix is handed to it as `optimize` row stripes, and
    None is returned. Both feature sets are checked before any stage runs.
    """
    fq, fg = as_query_gallery(query_feats, gallery_feats)
    if not cfg.dmon_on:
        return optimize(fq, fg, cfg.aro, sink=sink)
    if cfg.dmon_joint:
        stacked = enhance(np.vstack([fq, fg]), cfg.dmon)
        fq, fg = stacked[: fq.shape[0]], stacked[fq.shape[0] :]
    else:
        # batching applies to the gallery side only
        fq, fg = enhance(fq, replace(cfg.dmon, batch_size=None)), enhance(fg, cfg.dmon)
    return optimize(fq, fg, replace(cfg.aro, pre_normalize=False), sink=sink)


def clamp_warnings(num_q: int, num_g: int, cfg: PipelineConfig) -> list[str]:
    """The k clamps of a rerank of num_q queries and num_g gallery rows: k1 to
    n - 1 in each DMON batch of n <= k1 rows (`batch_bounds`), k2 to num_g."""
    sets = [("query", num_q, replace(cfg.dmon, batch_size=None)), ("gallery", num_g, cfg.dmon)]
    if cfg.dmon_joint:
        sets = [("query+gallery", num_q + num_g, cfg.dmon)]
    found = []
    for name, n, dmon in sets if cfg.dmon_on and cfg.dmon.gamma != 1.0 else []:
        sizes = [b - a for a, b in batch_bounds(n, dmon)]
        found += [f"DMON k1={dmon.k1} is clamped to {size - 1} in {sizes.count(size)} {name} "
                  f"batch(es) of {size} rows" for size in sorted(set(sizes)) if size <= dmon.k1]
    if cfg.aro.enabled and cfg.aro.k2 > num_g:
        found.append(f"ARO k2={cfg.aro.k2} is clamped to the gallery's {num_g} rows")
    return found


def _manifest(command: str, params: dict, inputs: dict, outputs: dict, seed=None, warnings=()):
    """A command's manifest, with a top-level `warnings` list (of k clamps)
    only when `warnings` is not empty."""
    return {
        "tool": "rerankit",
        "version": __version__,
        "command": command,
        "seed": seed,
        "inputs": inputs,
        "params": params,
        "outputs": outputs,
    } | ({"warnings": warnings} if warnings else {})


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
    the computed values. Each refined row stripe is written to
    `dist.npy.partial` at its rows' offset as soon as it is computed, in
    any order, and the file is renamed to `dist.npy` once every row is
    written; on any error it is deleted, so an earlier `dist.npy` is
    never clobbered by a partial one.

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
        "squared_euclidean_minus_similarity" if cfg.aro.enabled else "squared_euclidean"
    )
    manifest = _manifest(
        "rerank",
        asdict(cfg),
        {"query": str(query_path), "gallery": str(gallery_path)},
        {"distances": DIST_FILENAME, "distance_kind": distance_kind},
        seed=seed,
        warnings=clamp_warnings(*shape, cfg),
    )
    (out / MANIFEST_FILENAME).write_text(write_json(manifest), encoding="utf-8")
    return manifest


def rerank_from_manifest(manifest_path, out_dir) -> dict:
    """Re-run a rerank exactly as recorded in a previous manifest.

    Raises:
        ConfigError: the manifest is not a JSON object, or a field is
            missing, unknown, ill-typed or out of range.
    """
    try:
        manifest = read_json(Path(manifest_path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{manifest_path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"{manifest_path} does not hold a JSON object")
    inputs = manifest.get("inputs") if isinstance(manifest.get("inputs"), dict) else {}
    return rerank_files(
        _typed(inputs.get("query"), str, "inputs.query"),
        _typed(inputs.get("gallery"), str, "inputs.gallery"),
        out_dir,
        config_from_dict(manifest.get("params")),
        seed=_typed(manifest.get("seed"), int | None, "seed"),
    )


def eval_files(
    dist_path,
    query_labels_path,
    gallery_labels_path,
    max_rank: int = MAX_RANK,
    report_path=None,
    config: dict | None = None,
) -> dict:
    """Evaluate a distance file against labels, optionally write the report.

    The distance file is read in row stripes (`NpyRows`), never whole.
    """
    with open(dist_path, "rb") as fh:
        dist = NpyRows(fh)
        q_labels = _read_label_file(query_labels_path)
        g_labels = _read_label_file(gallery_labels_path)
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


def _read_label_file(path) -> SampleLabels:
    """`read_labels` of the bytes of a label file; an error names the file."""
    try:
        return read_labels(Path(path).read_bytes())
    except LabelFormatError as exc:
        raise LabelFormatError(f"{path}: {exc}") from None


def _evaluate_config(fq, q_labels, fg, g_labels, cfg: PipelineConfig) -> EvalReport:
    dist = compute_refined_distances(fq, fg, cfg)
    return evaluate(dist, q_labels, g_labels, max_rank=cfg.max_rank)


def _grid_values(cfg: PipelineConfig) -> dict:
    """The values of the swept parameters in `cfg`, keyed by their sweep column."""
    return {"k1": cfg.dmon.k1, "k2": cfg.aro.k2, "gamma": cfg.dmon.gamma, "orders": cfg.dmon.orders}


def _sweep_row(label: str, grid: dict, cfg: PipelineConfig, report, base) -> dict:
    return {
        "label": label,
        **grid,
        "dmon_on": cfg.dmon_on,
        "aro_on": cfg.aro.enabled,
        "mAP": report.mean_ap,
        "rank1": report.rank1,
        "delta_mAP": report.mean_ap - base.mean_ap,
        "delta_rank1": report.rank1 - base.rank1,
    }


def run_sweep(
    query_path,
    gallery_path,
    query_labels_path,
    gallery_labels_path,
    cells: list[PipelineConfig],
) -> tuple[list[dict], list[str]]:
    """Hyperparameter sweep; one rerank+eval per grid cell, in the given order.

    The first row is the baseline (both stages off, with the first
    cell's other settings), used for the delta columns. Also returns the
    cells' k clamps (`clamp_warnings`), each once, in the order first met.
    """
    if not cells:
        raise ValueError("empty sweep grid")
    fq = read_npy(Path(query_path).read_bytes())
    fg = read_npy(Path(gallery_path).read_bytes())
    q_labels = _read_label_file(query_labels_path)
    g_labels = _read_label_file(gallery_labels_path)

    base_cfg = cells[0].with_stages(False, False)
    base = _evaluate_config(fq, q_labels, fg, g_labels, base_cfg)
    rows = [_sweep_row("baseline", dict.fromkeys(_grid_values(base_cfg), ""), base_cfg, base, base)]
    for cfg in cells:
        report = _evaluate_config(fq, q_labels, fg, g_labels, cfg)
        rows.append(_sweep_row("grid", _grid_values(cfg), cfg, report, base))
    clamps = dict.fromkeys(line for cfg in cells for line in clamp_warnings(len(fq), len(fg), cfg))
    return rows, list(clamps)


def sweep_rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(rows[0])] + [",".join(map(str, row.values())) for row in rows]
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
    configured = ("configured", "configured", cfg.dmon_on, cfg.aro.enabled)
    variants = ABLATION_VARIANTS if ablation else (ABLATION_VARIANTS[0], configured)
    rows = []
    for label, subdir, dmon_on, aro_on in variants:
        run_dir = out / subdir
        variant_cfg = cfg.with_stages(dmon_on, aro_on)
        rerank_files(paths["query"], paths["gallery"], run_dir, variant_cfg, seed=spec.seed)
        doc = eval_files(
            run_dir / DIST_FILENAME,
            paths["query_labels"],
            paths["gallery_labels"],
            max_rank=cfg.max_rank,
            report_path=run_dir / "report.json",
            config={"variant": label},
        )
        rows.append({"variant": label, "mAP": doc["mAP"], "rank1": doc["cmc"][0]})
    name = "ablation.csv" if ablation else "comparison.csv"
    (out / name).write_text(sweep_rows_to_csv(rows), encoding="utf-8")
    manifest = _manifest(
        "pipeline",
        {"spec": asdict(spec), "config": asdict(cfg), "ablation": ablation},
        {},
        {"table": name, "variants": [subdir for _, subdir, _, _ in variants]},
        seed=spec.seed,
    )
    (out / "pipeline_manifest.json").write_text(write_json(manifest), encoding="utf-8")
    return rows
