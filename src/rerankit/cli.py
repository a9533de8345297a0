"""Command-line front end.

Subcommands: synth, rerank, eval, sweep, pipeline. Exit codes:
0 success, 2 configuration error, 3 I/O error, 4 data error.
"""

import argparse
import itertools
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .enhance import DmonConfig
from .io_formats import write_json
from .optimize import AroConfig
from .pipeline import (
    PRESETS,
    ConfigError,
    PipelineConfig,
    _manifest,
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

# Parameter flags that set a value: flag dest -> (PipelineConfig section, field),
# section None for PipelineConfig's own fields. Presets use the same keys.
_VALUE_FLAGS = {
    "k1": ("dmon", "k1"),
    "orders": ("dmon", "orders"),
    "gamma": ("dmon", "gamma"),
    "sigma": ("dmon", "sigma"),
    "batch_size": ("dmon", "batch_size"),
    "k2": ("aro", "k2"),
    "fill": ("aro", "fill_value"),
    "max_rank": (None, "max_rank"),
}


@contextmanager
def _config_errors():
    """Report a ValueError from building a config as a configuration error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _add_synth_spec_flags(p: argparse.ArgumentParser):
    p.add_argument("--ids", type=int, default=50, help="number of identities")
    p.add_argument("--per-id", type=int, default=10, help="samples per identity")
    p.add_argument("--dim", type=int, default=64, help="embedding dimension")
    p.add_argument("--cams", type=int, default=4, help="number of cameras")
    p.add_argument("--intra-noise", type=float, default=0.35)
    p.add_argument("--cam-offset", type=float, default=0.25)
    p.add_argument("--query-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=7)


def _grid(cast):
    """An argparse type: a comma-separated list of `cast` values."""

    def parse(text: str) -> list:
        values = [cast(v) for v in text.split(",") if v.strip()]
        if not values:
            raise argparse.ArgumentTypeError("empty grid")
        return values

    parse.__name__ = f"{cast.__name__} list"
    return parse


def _add_config_flags(p: argparse.ArgumentParser, grid: bool = False):
    """The parameter flags of rerank, pipeline and sweep. Every flag defaults
    to None (or False), so only the flags given override the defaults of
    PipelineConfig and the preset. With `grid`, --k1/--k2/--gamma/--orders
    take comma-separated lists."""
    ints, floats = (_grid(int), _grid(float)) if grid else (int, float)
    each = "comma-separated values of " if grid else ""
    p.add_argument("--preset", choices=sorted(PRESETS), help="published parameter bundle")
    p.add_argument("--k1", type=ints, help=f"{each}first-order neighborhood size")
    p.add_argument("--k2", type=ints, help=f"{each}distance-filter neighborhood size")
    p.add_argument("--gamma", type=floats, help=f"{each}original-feature fusion weight")
    p.add_argument("--orders", type=ints, help=f"{each}number of neighbor orders")
    p.add_argument("--sigma", type=float, help="fixed kernel bandwidth (default: adaptive)")
    p.add_argument("--batch-size", type=int, help="gallery (or --joint stack) chunk size")
    p.add_argument("--fill", type=float, choices=[0.0, 1.0], help="filter fill value")
    p.add_argument("--max-rank", type=int, help="CMC length")
    p.add_argument("--baseline", action="store_true", help="bypass both stages")
    p.add_argument("--no-dmon", action="store_true", help="skip feature enhancement")
    p.add_argument("--no-aro", action="store_true", help="skip distance optimization")
    p.add_argument("--joint", action="store_true", help="enhance query+gallery jointly")
    p.add_argument(
        "--no-pre-normalize",
        action="store_true",
        help="skip L2 row normalization of input features",
    )


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
    p.add_argument(
        "--from-manifest",
        help="re-run a previous manifest's inputs and parameters (no other flag but --out)",
    )
    _add_config_flags(p)

    p = sub.add_parser("eval", help="score a distance matrix with CMC/mAP")
    p.add_argument("--dist", required=True, help="distance NPY")
    p.add_argument("--query-labels", required=True)
    p.add_argument("--gallery-labels", required=True)
    p.add_argument("--max-rank", type=int, default=PipelineConfig.max_rank)
    p.add_argument("--out", help="report JSON path (printed to stdout regardless)")

    p = sub.add_parser("sweep", help="cartesian hyperparameter sweep")
    p.add_argument("--query", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--query-labels", required=True)
    p.add_argument("--gallery-labels", required=True)
    _add_config_flags(p, grid=True)
    p.add_argument("--out", required=True, help="table path (.csv or .json)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("pipeline", help="synth -> rerank -> eval in one run")
    _add_synth_spec_flags(p)
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--ablation",
        action="store_true",
        help="run the four-variant grid: baseline, +ARO, +DMON, +DMON+ARO",
    )
    return parser


def _spec_from_args(args) -> SynthSpec:
    with _config_errors():
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


def _config_from_args(args) -> PipelineConfig:
    """The config of the flags given, over the preset, over the dataclass defaults."""
    if args.no_dmon and args.no_aro and not args.baseline:
        raise ConfigError("both stages disabled: plain ranking must be requested with --baseline")
    pre_normalize = not args.no_pre_normalize
    parts = {
        "dmon": {"pre_normalize": pre_normalize},
        "aro": {"enabled": not (args.baseline or args.no_aro), "pre_normalize": pre_normalize},
        None: {"dmon_on": not (args.baseline or args.no_dmon), "dmon_joint": args.joint},
    }
    given = {key: getattr(args, key) for key in _VALUE_FLAGS if getattr(args, key) is not None}
    for key, value in {**PRESETS.get(args.preset, {}), **given}.items():
        section, name = _VALUE_FLAGS[key]
        parts[section][name] = value
    with _config_errors():
        return PipelineConfig(
            dmon=DmonConfig(**parts["dmon"]), aro=AroConfig(**parts["aro"]), **parts[None]
        )


def _cmd_synth(args) -> int:
    spec = _spec_from_args(args)
    paths = synth_files(spec, args.out)
    for name in ("query", "gallery", "query_labels", "gallery_labels"):
        print(paths[name])
    return EXIT_OK


def _cmd_rerank(args) -> int:
    if args.from_manifest:
        ignored = [
            "--" + key.replace("_", "-")
            for key, value in vars(args).items()
            if key not in ("command", "out", "from_manifest")
            and value is not None
            and value is not False
        ]
        if ignored:
            raise ConfigError(
                f"--from-manifest takes inputs and parameters from the manifest; "
                f"drop {', '.join(ignored)}"
            )
        manifest = rerank_from_manifest(args.from_manifest, args.out)
    else:
        if not args.query or not args.gallery:
            raise ConfigError("--query and --gallery are required (or --from-manifest)")
        cfg = _config_from_args(args)
        manifest = rerank_files(args.query, args.gallery, args.out, cfg, seed=args.seed)
    print(str(Path(args.out) / manifest["outputs"]["distances"]))
    return EXIT_OK


def _cmd_eval(args) -> int:
    with _config_errors():
        PipelineConfig(max_rank=args.max_rank)
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
    """Every cell's config is built, and so checked, before any data is read."""
    keys = ("k1", "k2", "gamma", "orders")
    cells = [
        _config_from_args(argparse.Namespace(**{**vars(args), **dict(zip(keys, values))}))
        for values in itertools.product(*(getattr(args, key) or [None] for key in keys))
    ]
    rows, clamps = run_sweep(
        args.query, args.gallery, args.query_labels, args.gallery_labels, cells
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        out.write_text(write_json(rows), encoding="utf-8")
    else:
        out.write_text(sweep_rows_to_csv(rows), encoding="utf-8")
    grid = {key: getattr(args, key) or [rows[1][key]] for key in keys}
    manifest = _manifest(
        "sweep",
        {**grid, "base": asdict(cells[0]), "format": args.format},
        {"query": args.query, "gallery": args.gallery,
         "query_labels": args.query_labels, "gallery_labels": args.gallery_labels},
        {"table": str(out)},
        warnings=clamps,
    )
    Path(f"{out}.manifest.json").write_text(write_json(manifest), encoding="utf-8")
    print(str(out))
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    spec = _spec_from_args(args)
    cfg = _config_from_args(args)
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
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # NpyFormatError and LabelFormatError too
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
