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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .enhance import DmonConfig, enhance
from .io_formats import (
    LabelFormatError,
    NpyFormatError,
    NpyRows,
    NpyRowWriter,
    npy_header,
    read_labels,
    read_npy,
    write_json,
    write_labels,
    write_npy,
)
from .matrix_ops import l2_normalize_rows
from .metrics import MAX_RANK, Evaluator, check_max_rank, evaluate
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

    `pre_normalize` L2-normalizes both feature sets where they enter.
    DMON runs when `dmon_on`, ARO when `aro.enabled`; ARO measures the
    enhanced features whenever DMON ran. `dmon_joint` enhances the
    concatenation of query and gallery instead of each set separately.
    `dmon_batch_size` splits the gallery (or the joint stack) into the
    chunks of `batch_bounds`, each enhanced as a set of its own; the
    query set is always enhanced whole.
    """

    dmon: DmonConfig = DmonConfig()
    aro: AroConfig = AroConfig()
    dmon_on: bool = True
    dmon_joint: bool = False
    dmon_batch_size: int | None = None
    pre_normalize: bool = True

    def __post_init__(self):
        if self.dmon_batch_size is not None and self.dmon_batch_size < 1:
            raise ValueError(f"dmon_batch_size must be >= 1 or None, got {self.dmon_batch_size}")

    def with_stages(self, dmon_on: bool, aro_on: bool) -> "PipelineConfig":
        """This config with DMON and ARO each switched on or off."""
        return replace(self, dmon_on=dmon_on, aro=replace(self.aro, enabled=aro_on))


def config_from_dict(params) -> PipelineConfig:
    """The PipelineConfig that `asdict` recorded as a manifest's `params`;
    the CLI builds the config of its flags and presets here too.

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
      the raw features, maps to `dmon_on` false;
    - `dmon.pre_normalize` and `aro.pre_normalize` map to a top-level
      `pre_normalize`: the first when `dmon_on`, else the second (the one
      the first stage run read); `max_rank`, which no rerank read, is dropped;
    - `dmon.batch_size` maps to a top-level `dmon_batch_size`, in a
      manifest that has no `dmon_batch_size` of its own.

    Raises:
        ConfigError: naming the first field that is missing, unknown,
            ill-typed or out of range.
    """
    if isinstance(params, dict):
        params = {key: dict(v) if isinstance(v, dict) else v for key, v in params.items()}
        dmon = params["dmon"] if isinstance(params.get("dmon"), dict) else {}
        aro = params["aro"] if isinstance(params.get("aro"), dict) else {}
        mode = dmon.pop("sigma_mode", "fixed")
        if mode not in ("adaptive", "fixed"):
            raise ConfigError(f"dmon.sigma_mode must be 'adaptive' or 'fixed', got {mode!r}")
        if mode == "adaptive":
            dmon["sigma"] = None
        if "aro_on" in params:
            aro["enabled"] = params.pop("aro_on")
        retired = {"alphas": None, "normalize_weight_rows": True, "disjoint_orders": False}
        for name, value in retired.items():
            got = dmon.pop(name, value)
            if got is not value:
                raise ConfigError(f"dmon.{name} can only be {json.dumps(value)}, got {got!r}")
        # ARO on the raw features is ARO without DMON
        uses_enhanced = _typed(params.pop("aro_uses_enhanced", True), bool, "aro_uses_enhanced")
        if not uses_enhanced and aro.get("enabled") is True and params.get("dmon_on") is True:
            params["dmon_on"] = False
        if "pre_normalize" not in params:
            dmon_pre, aro_pre = dmon.pop("pre_normalize", None), aro.pop("pre_normalize", None)
            params["pre_normalize"] = dmon_pre if params.get("dmon_on") is True else aro_pre
            params.pop("max_rank", None)
        if "dmon_batch_size" not in params and "batch_size" in dmon:
            params["dmon_batch_size"] = dmon.pop("batch_size")
    return build_config(PipelineConfig, params)


def build_config(cls, data, where: str = ""):
    """An instance of the config dataclass `cls` from the fields in `data`,
    each present and of its declared type; a nested config is an object
    of its own fields. Every error is a ConfigError that names the field
    by its dotted path from `where`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where.rstrip('.') or 'params'} must be an object, got {data!r}")
    hints = typing.get_type_hints(cls)
    odd = sorted(set(data) ^ set(hints))
    if odd:
        raise ConfigError(f"{'unknown' if odd[0] in data else 'missing'} field {where}{odd[0]}")
    values = {
        name: build_config(hint, data[name], f"{where}{name}.")
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
            try:
                return float(value)
            except OverflowError:
                raise ConfigError(f"{name} is an integer beyond the float range") from None
    raise ConfigError(f"{name} must be {getattr(hint, '__name__', hint)}, got {value!r}")


def _check_max_rank(max_rank) -> None:
    """`metrics.check_max_rank` of `max_rank`, an int; a ConfigError otherwise."""
    max_rank = _typed(max_rank, int, "max_rank")
    try:
        check_max_rank(max_rank)
    except ValueError as exc:
        raise ConfigError(exc) from None


def compute_refined_distances(
    query_feats, gallery_feats, cfg: PipelineConfig, sink=None
) -> np.ndarray | None:
    """Run the configured stages and return the final query-gallery matrix.

    Both feature sets are checked, and L2-normalized when
    `cfg.pre_normalize`, before any stage runs; the stages take their
    rows as given. With both stages off this is the plain squared
    distance matrix. DMON enhances the query set whole and the gallery
    (or, with `dmon_joint`, the query-gallery stack) in the chunks of
    `batch_bounds`. With a `sink`, the matrix is handed to it as
    `optimize` row stripes, and None is returned.
    """
    fq, fg = as_query_gallery(query_feats, gallery_feats)
    if cfg.pre_normalize:
        fq, fg = l2_normalize_rows(fq), l2_normalize_rows(fg)
    if cfg.dmon_on and cfg.dmon_joint:
        stacked = _enhance_chunks(np.vstack([fq, fg]), cfg)
        fq, fg = stacked[: fq.shape[0]], stacked[fq.shape[0] :]
    elif cfg.dmon_on:
        fq, fg = enhance(fq, cfg.dmon), _enhance_chunks(fg, cfg)
    return optimize(fq, fg, cfg.aro, sink=sink)


def batch_bounds(n: int, cfg: PipelineConfig) -> list[tuple[int, int]]:
    """(start, stop) of each chunk of cfg.dmon_batch_size rows (all n when None)
    that DMON enhances alone; a last chunk of at most k1 rows joins the one before."""
    starts = list(range(0, n, cfg.dmon_batch_size or n))
    if len(starts) > 1 and n - starts[-1] <= cfg.dmon.k1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _enhance_chunks(feats: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """`enhance` of each `batch_bounds` chunk of `feats`, stacked."""
    parts = [enhance(feats[a:b], cfg.dmon) for a, b in batch_bounds(len(feats), cfg)]
    return parts[0] if len(parts) == 1 else np.vstack(parts)


def clamp_warnings(num_q: int, num_g: int, cfg: PipelineConfig) -> list[str]:
    """The k clamps of a rerank of num_q queries and num_g gallery rows: k2 to
    num_g, and k1 to n - 1 in each set of n <= k1 rows that DMON enhances (the
    query set whole, the gallery or joint stack in `batch_bounds` chunks)."""
    sets = [("query", [(0, num_q)]), ("gallery", batch_bounds(num_g, cfg))]
    if cfg.dmon_joint:
        sets = [("query+gallery", batch_bounds(num_q + num_g, cfg))]
    k1, found = cfg.dmon.k1, []
    for name, bounds in sets if cfg.dmon_on and cfg.dmon.gamma != 1.0 else []:
        sizes = [b - a for a, b in bounds]
        found += [f"DMON k1={k1} is clamped to {size - 1} in {sizes.count(size)} {name} "
                  f"batch(es) of {size} rows" for size in sorted(set(sizes)) if size <= k1]
    if cfg.aro.enabled and cfg.aro.k2 > num_g:
        found.append(f"ARO k2={cfg.aro.k2} is clamped to the gallery's {num_g} rows")
    return found


def _manifest(path, command: str, params: dict, inputs: dict, outputs: dict, seed=None,
              warnings=()) -> dict:
    """Write a command's manifest to `path` and return it, with a top-level
    `warnings` list (of k clamps) only when `warnings` is not empty."""
    doc = {
        "tool": "rerankit",
        "version": __version__,
        "command": command,
        "seed": seed,
        "inputs": inputs,
        "params": params,
        "outputs": outputs,
    } | ({"warnings": warnings} if warnings else {})
    Path(path).write_text(write_json(doc), encoding="utf-8")
    return doc


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
    _manifest(out / MANIFEST_FILENAME, "synth", asdict(spec), {},
              {k: str(v.name) for k, v in paths.items()}, seed=spec.seed)
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
        ConfigError: before anything is read or written, when `seed` is
            neither an int nor None.
        InsufficientSpaceError: before any computation, when the output
            directory has less free space than `dist.npy` needs.
    """
    _typed(seed, int | None, "seed")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fq, fg = _read_file(query_path, read_npy), _read_file(gallery_path, read_npy)
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
    return _manifest(
        out / MANIFEST_FILENAME,
        "rerank",
        asdict(cfg),
        {"query": str(query_path), "gallery": str(gallery_path)},
        {"distances": DIST_FILENAME, "distance_kind": distance_kind},
        seed=seed,
        warnings=clamp_warnings(*shape, cfg),
    )


def rerank_from_manifest(manifest_path, out_dir) -> dict:
    """Re-run a rerank exactly as recorded in a previous manifest.

    Raises:
        ConfigError: the manifest is not a JSON object, or a field is
            missing, unknown, ill-typed or out of range.
    """
    try:
        manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
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
        seed=manifest.get("seed"),
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

    The distance file is read in row stripes (`NpyRows`), never whole. A
    `max_rank` that is not an int >= 1 is a ConfigError, raised before any
    file is read.
    """
    _check_max_rank(max_rank)
    with open(dist_path, "rb") as fh:
        with _naming(dist_path):
            dist = NpyRows(fh)
        q_labels = _read_file(query_labels_path, read_labels)
        g_labels = _read_file(gallery_labels_path, read_labels)
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


@contextmanager
def _naming(path):
    """A malformed-file error raised inside, prefixed with the file's path."""
    try:
        yield
    except (NpyFormatError, LabelFormatError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _read_file(path, read):
    """`read` (`read_npy` or `read_labels`) of the bytes of the file at
    `path`; a malformed file's error names it."""
    with _naming(path):
        return read(Path(path).read_bytes())


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


def sweep_files(query_path, gallery_path, query_labels_path, gallery_labels_path,
                cells: list[PipelineConfig], out_path) -> dict:
    """Hyperparameter sweep; one rerank+eval per grid cell, in the given order,
    each scoring ARO's row stripes with an `Evaluator` as they are refined.

    The first row is the baseline (both stages off, with the first
    cell's other settings), used for the delta columns; a cell equal to
    it reuses its report instead of running again. The rows are
    written to `out_path`, as JSON if it ends in `.json`, else as CSV, and
    beside them `<out_path>.manifest.json`, which records the grid the
    cells ran (each of k1, k2, gamma and orders as the list of its distinct
    values, in the order the cells first take them), the first cell's
    config, the format and each k clamp (`clamp_warnings`) once. Returns
    that manifest.
    """
    if not cells:
        raise ValueError("empty sweep grid")
    fq, fg = _read_file(query_path, read_npy), _read_file(gallery_path, read_npy)
    q_labels = _read_file(query_labels_path, read_labels)
    g_labels = _read_file(gallery_labels_path, read_labels)
    counts = (len(q_labels), len(g_labels))
    if counts != (len(fq), len(fg)):
        raise ValueError(f"label counts {counts} != feature rows {(len(fq), len(fg))}")

    def score(cfg: PipelineConfig):
        evaluator = Evaluator(q_labels, g_labels)
        compute_refined_distances(fq, fg, cfg, sink=evaluator)
        return evaluator.report()

    base_cfg = cells[0].with_stages(False, False)
    base = score(base_cfg)
    grid = [_grid_values(cfg) for cfg in cells]
    rows = [_sweep_row("baseline", dict.fromkeys(grid[0], ""), base_cfg, base, base)]
    for values, cfg in zip(grid, cells):
        rows.append(_sweep_row("grid", values, cfg, base if cfg == base_cfg else score(cfg), base))
    clamps = dict.fromkeys(line for cfg in cells for line in clamp_warnings(len(fq), len(fg), cfg))

    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    fmt = "json" if out.suffix.lower() == ".json" else "csv"
    out.write_text(write_json(rows) if fmt == "json" else sweep_rows_to_csv(rows), encoding="utf-8")
    return _manifest(
        f"{out}.manifest.json",
        "sweep",
        {**{key: list(dict.fromkeys(values[key] for values in grid)) for key in grid[0]},
         "base": asdict(cells[0]), "format": fmt},
        {"query": str(query_path), "gallery": str(gallery_path),
         "query_labels": str(query_labels_path), "gallery_labels": str(gallery_labels_path)},
        {"table": str(out)},
        warnings=list(clamps),
    )


def sweep_rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(rows[0])] + [",".join(map(str, row.values())) for row in rows]
    return "\n".join(lines) + "\n"


def run_pipeline(
    spec: SynthSpec,
    cfg: PipelineConfig,
    out_dir,
    ablation: bool = False,
    max_rank: int = MAX_RANK,
) -> list[dict]:
    """synth -> rerank -> eval in one pass, each eval with a CMC of `max_rank`.

    Default mode compares the baseline against the configured stages;
    `ablation` runs the four-variant grid (baseline, +ARO, +DMON,
    +DMON+ARO) and writes ablation.csv. A `max_rank` that is not an int
    >= 1 is a ConfigError, raised before anything is written.
    """
    _check_max_rank(max_rank)
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
            max_rank=max_rank,
            report_path=run_dir / "report.json",
            config={"variant": label},
        )
        rows.append({"variant": label, "mAP": doc["mAP"], "rank1": doc["cmc"][0]})
    name = "ablation.csv" if ablation else "comparison.csv"
    (out / name).write_text(sweep_rows_to_csv(rows), encoding="utf-8")
    _manifest(
        out / "pipeline_manifest.json",
        "pipeline",
        {"spec": asdict(spec), "config": asdict(cfg), "ablation": ablation, "max_rank": max_rank},
        {},
        {"table": name, "variants": [subdir for _, subdir, _, _ in variants]},
        seed=spec.seed,
    )
    return rows
