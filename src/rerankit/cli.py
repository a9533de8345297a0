"""Command-line front end.

Subcommands: synth, rerank, eval, sweep, pipeline. Exit codes:
0 success, 2 configuration error, 3 I/O error, 4 data error.
"""

import argparse
import sys
from pathlib import Path

from . import __version__
from .enhance import DmonConfig
from .io_formats import LabelFormatError, NpyFormatError, write_json
from .optimize import AroConfig
from .pipeline import (
    PRESETS,
    PipelineConfig,
    _manifest,
    config_to_dict,
    eval_files,
    rerank_files,
    rerank_from_manifest,
    run_pipeline,
    run_sweep,
    sweep_rows_to_csv,
    synth_files,
)
from .synthetic import SynthSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4


class ConfigError(Exception):
    pass


def _add_synth_spec_flags(p: argparse.ArgumentParser):
    p.add_argument("--ids", type=int, default=50, help="number of identities")
    p.add_argument("--per-id", type=int, default=10, help="samples per identity")
    p.add_argument("--dim", type=int, default=64, help="embedding dimension")
    p.add_argument("--cams", type=int, default=4, help="number of cameras")
    p.add_argument("--intra-noise", type=float, default=0.35)
    p.add_argument("--cam-offset", type=float, default=0.25)
    p.add_argument("--query-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=7)


def _add_rerank_flags(p: argparse.ArgumentParser):
    p.add_argument("--preset", choices=sorted(PRESETS), help="published parameter bundle")
    p.add_argument("--k1", type=int, help="first-order neighborhood size")
    p.add_argument("--k2", type=int, help="distance-filter neighborhood size")
    p.add_argument("--gamma", type=float, help="original-feature fusion weight")
    p.add_argument("--orders", type=int, help="number of neighbor orders")
    p.add_argument("--sigma", type=float, help="fixed kernel bandwidth")
    p.add_argument("--sigma-mode", choices=["adaptive", "fixed"])
    p.add_argument("--batch-size", type=int, help="gallery chunk size (default: unlimited)")
    p.add_argument("--fill", type=float, choices=[0.0, 1.0], help="filter fill value")
    p.add_argument("--baseline", action="store_true", help="bypass both stages")
    p.add_argument("--no-dmon", action="store_true", help="skip feature enhancement")
    p.add_argument("--no-aro", action="store_true", help="skip distance optimization")
    p.add_argument(
        "--aro-on-raw",
        action="store_true",
        help="optimize distances of the raw (not enhanced) features",
    )
    p.add_argument("--joint", action="store_true", help="enhance query+gallery jointly")
    p.add_argument(
        "--no-pre-normalize",
        action="store_true",
        help="skip L2 row normalization of input features",
    )
    p.add_argument("--max-rank", type=int, default=50)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rerankit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rerankit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic query/gallery split")
    _add_synth_spec_flags(p)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("rerank", help="compute refined query-gallery distances")
    p.add_argument("--query", help="query feature NPY")
    p.add_argument("--gallery", help="gallery feature NPY")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="recorded in the manifest")
    p.add_argument("--from-manifest", help="re-run with a previous manifest's parameters")
    _add_rerank_flags(p)

    p = sub.add_parser("eval", help="score a distance matrix with CMC/mAP")
    p.add_argument("--dist", required=True, help="distance NPY")
    p.add_argument("--query-labels", required=True)
    p.add_argument("--gallery-labels", required=True)
    p.add_argument("--max-rank", type=int, default=50)
    p.add_argument("--out", help="report JSON path (printed to stdout regardless)")

    p = sub.add_parser("sweep", help="cartesian hyperparameter sweep")
    p.add_argument("--query", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--query-labels", required=True)
    p.add_argument("--gallery-labels", required=True)
    p.add_argument("--k1", default="2", help="comma-separated grid values")
    p.add_argument("--k2", default="20", help="comma-separated grid values")
    p.add_argument("--gamma", default="0.75", help="comma-separated grid values")
    p.add_argument("--orders", default="3", help="comma-separated grid values")
    p.add_argument("--fill", type=float, choices=[0.0, 1.0])
    p.add_argument("--sigma", type=float)
    p.add_argument("--sigma-mode", choices=["adaptive", "fixed"])
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-rank", type=int, default=50)
    p.add_argument("--out", required=True, help="table path (.csv or .json)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("pipeline", help="synth -> rerank -> eval in one run")
    _add_synth_spec_flags(p)
    _add_rerank_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--ablation",
        action="store_true",
        help="run the four-variant grid: baseline, +ARO, +DMON, +DMON+ARO",
    )
    return parser


def _spec_from_args(args) -> SynthSpec:
    try:
        return SynthSpec(
            num_ids=args.ids,
            imgs_per_id=args.per_id,
            dim=args.dim,
            num_cams=args.cams,
            intra_noise=args.intra_noise,
            cam_offset_scale=args.cam_offset,
            query_fraction=args.query_fraction,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _pipeline_config_from_args(args) -> PipelineConfig:
    effective = {
        "k1": 2, "k2": 20, "gamma": 0.75, "orders": 3, "batch_size": None,
        "sigma": 1.0, "sigma_mode": "adaptive", "fill": 1.0,
    }
    if args.preset:
        effective.update(PRESETS[args.preset])
    for key in ("k1", "k2", "gamma", "orders", "sigma", "sigma_mode", "batch_size", "fill"):
        value = getattr(args, key, None)
        if value is not None:
            effective[key] = value
    dmon_on = not (args.baseline or args.no_dmon)
    aro_on = not (args.baseline or args.no_aro)
    if not args.baseline and not (dmon_on or aro_on):
        raise ConfigError(
            "both stages disabled: plain ranking must be requested with --baseline"
        )
    pre_normalize = not args.no_pre_normalize
    try:
        return PipelineConfig(
            dmon=DmonConfig(
                k1=effective["k1"],
                orders=effective["orders"],
                gamma=effective["gamma"],
                sigma_mode=effective["sigma_mode"],
                sigma=effective["sigma"],
                batch_size=effective["batch_size"],
                pre_normalize=pre_normalize,
            ),
            aro=AroConfig(
                k2=effective["k2"],
                fill_value=effective["fill"],
                pre_normalize=pre_normalize,
            ),
            dmon_on=dmon_on,
            aro_on=aro_on,
            aro_uses_enhanced=not args.aro_on_raw,
            dmon_joint=args.joint,
            max_rank=args.max_rank,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_grid(text: str, cast, flag: str) -> list:
    values = [v.strip() for v in text.split(",") if v.strip()]
    if not values:
        raise ConfigError(f"empty grid for {flag}")
    try:
        return [cast(v) for v in values]
    except ValueError:
        raise ConfigError(f"bad value in {flag} grid: {text!r}") from None


def _cmd_synth(args) -> int:
    spec = _spec_from_args(args)
    paths = synth_files(spec, args.out)
    for name in ("query", "gallery", "query_labels", "gallery_labels"):
        print(paths[name])
    return EXIT_OK


def _cmd_rerank(args) -> int:
    if args.from_manifest:
        manifest = rerank_from_manifest(args.from_manifest, args.out)
    else:
        if not args.query or not args.gallery:
            raise ConfigError("--query and --gallery are required (or --from-manifest)")
        cfg = _pipeline_config_from_args(args)
        manifest = rerank_files(args.query, args.gallery, args.out, cfg, seed=args.seed)
    print(str(Path(args.out) / manifest["outputs"]["distances"]))
    return EXIT_OK


def _cmd_eval(args) -> int:
    doc = eval_files(
        args.dist,
        args.query_labels,
        args.gallery_labels,
        max_rank=args.max_rank,
        report_path=args.out,
    )
    sys.stdout.write(write_json(doc))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    k1s = _parse_grid(args.k1, int, "--k1")
    k2s = _parse_grid(args.k2, int, "--k2")
    gammas = _parse_grid(args.gamma, float, "--gamma")
    orders = _parse_grid(args.orders, int, "--orders")
    base = {
        "sigma": args.sigma if args.sigma is not None else 1.0,
        "sigma_mode": args.sigma_mode or "adaptive",
        "batch_size": args.batch_size,
        "fill": args.fill if args.fill is not None else 1.0,
    }
    try:
        base_cfg = PipelineConfig(
            dmon=DmonConfig(
                sigma=base["sigma"], sigma_mode=base["sigma_mode"], batch_size=base["batch_size"]
            ),
            aro=AroConfig(fill_value=base["fill"]),
            max_rank=args.max_rank,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = run_sweep(
        args.query,
        args.gallery,
        args.query_labels,
        args.gallery_labels,
        base_cfg,
        k1s,
        k2s,
        gammas,
        orders,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        out.write_text(write_json(rows), encoding="utf-8")
    else:
        out.write_text(sweep_rows_to_csv(rows), encoding="utf-8")
    manifest = _manifest(
        "sweep",
        {"k1": k1s, "k2": k2s, "gamma": gammas, "orders": orders,
         "base": config_to_dict(base_cfg), "format": args.format},
        {"query": args.query, "gallery": args.gallery,
         "query_labels": args.query_labels, "gallery_labels": args.gallery_labels},
        {"table": str(out)},
    )
    Path(f"{out}.manifest.json").write_text(write_json(manifest), encoding="utf-8")
    print(str(out))
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    spec = _spec_from_args(args)
    cfg = _pipeline_config_from_args(args)
    rows = run_pipeline(spec, cfg, args.out, ablation=args.ablation)
    width = max(len(r["variant"]) for r in rows)
    print(f"{'variant'.ljust(width)}  {'mAP':>10}  {'rank1':>10}")
    for row in rows:
        print(f"{row['variant'].ljust(width)}  {row['mAP']:>10.6f}  {row['rank1']:>10.6f}")
    return EXIT_OK


_HANDLERS = {
    "synth": _cmd_synth,
    "rerank": _cmd_rerank,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NpyFormatError, LabelFormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
