"""Command-line front end.

Subcommands: synth, rerank, eval, sweep, pipeline. Exit codes:
0 success, 2 configuration error, 3 I/O error, 4 data error.
"""

import argparse
import itertools
import sys
import typing
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .io_formats import write_json
from .metrics import MAX_RANK
from .pipeline import (
    PRESETS,
    ConfigError,
    PipelineConfig,
    build_config,
    config_from_dict,
    eval_files,
    rerank_files,
    rerank_from_manifest,
    run_pipeline,
    sweep_files,
    synth_files,
)
from .synthetic import SynthSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4

# Parameter flags that set a value, and preset keys: dest -> (config section or None, field).
_VALUE_FLAGS = {
    "k1": ("dmon", "k1"),
    "orders": ("dmon", "orders"),
    "gamma": ("dmon", "gamma"),
    "sigma": ("dmon", "sigma"),
    "batch_size": (None, "dmon_batch_size"),
    "k2": ("aro", "k2"),
    "fill": ("aro", "fill_value"),
}


def _add_synth_spec_flags(p: argparse.ArgumentParser):
    """SynthSpec's flags, each stored under its field's name and defaulting to None."""
    p.add_argument("--ids", dest="num_ids", help="number of identities")
    p.add_argument("--per-id", dest="imgs_per_id", help="samples per identity")
    p.add_argument("--dim", help="embedding dimension")
    p.add_argument("--cams", dest="num_cams", help="number of cameras")
    p.add_argument("--intra-noise")
    p.add_argument("--cam-offset", dest="cam_offset_scale")
    p.add_argument("--query-fraction")
    p.add_argument("--seed")


def _from_text(text, owner, name: str):
    """Flag text as the int or float that `owner`, a config class or a
    function, declares for `name`. Any other text, and a value that is not
    text, is returned as it is, for `build_config` to refuse by name."""
    if isinstance(text, str):
        hint = typing.get_type_hints(owner)[name]
        for option in typing.get_args(hint) or (hint,):
            if option in (int, float):
                try:
                    return option(text)
                except ValueError:
                    pass
    return text


def _add_config_flags(p: argparse.ArgumentParser, grid: bool = False):
    """The parameter flags of rerank, pipeline and sweep. Every flag defaults
    to None (or False), so only the flags given override the defaults of
    PipelineConfig and the preset. With `grid`, --k1/--k2/--gamma/--orders
    take comma-separated lists."""
    each = "comma-separated values of " if grid else ""
    p.add_argument("--preset", choices=sorted(PRESETS), help="published parameter bundle")
    p.add_argument("--k1", help=f"{each}first-order neighborhood size")
    p.add_argument("--k2", help=f"{each}distance-filter neighborhood size")
    p.add_argument("--gamma", help=f"{each}original-feature fusion weight")
    p.add_argument("--orders", help=f"{each}number of neighbor orders")
    p.add_argument("--sigma", help="fixed kernel bandwidth (default: adaptive)")
    p.add_argument("--batch-size", help="gallery (or --joint stack) chunk size")
    p.add_argument("--fill", help="filter fill value, 0 or 1")
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
    p.add_argument("--seed", help="recorded in the manifest")
    p.add_argument(
        "--from-manifest",
        help="re-run a previous manifest's inputs and parameters (no other flag but --out)",
    )
    _add_config_flags(p)

    p = sub.add_parser("eval", help="score a distance matrix with CMC/mAP")
    p.add_argument("--dist", required=True, help="distance NPY")
    p.add_argument("--query-labels", required=True)
    p.add_argument("--gallery-labels", required=True)
    p.add_argument("--max-rank", default=MAX_RANK, help="CMC length")
    p.add_argument("--out", help="report JSON path (printed to stdout regardless)")

    p = sub.add_parser("sweep", help="cartesian hyperparameter sweep")
    p.add_argument("--query", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--query-labels", required=True)
    p.add_argument("--gallery-labels", required=True)
    _add_config_flags(p, grid=True)
    p.add_argument("--out", required=True, help="table path: JSON if it ends in .json, else CSV")

    p = sub.add_parser("pipeline", help="synth -> rerank -> eval in one run")
    _add_synth_spec_flags(p)
    _add_config_flags(p)
    p.add_argument("--max-rank", default=MAX_RANK, help="CMC length")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--ablation",
        action="store_true",
        help="run the four-variant grid: baseline, +ARO, +DMON, +DMON+ARO",
    )
    return parser


def _spec_from_args(args) -> SynthSpec:
    """The SynthSpec of the flags given over its defaults."""
    params = asdict(SynthSpec())
    params.update((name, _from_text(getattr(args, name), SynthSpec, name))
                  for name in params if getattr(args, name) is not None)
    return build_config(SynthSpec, params)


def _config_from_args(args) -> PipelineConfig:
    """The config of the flags given, over the preset, over the dataclass
    defaults, built as a manifest's `params` are by `config_from_dict`."""
    if args.no_dmon and args.no_aro and not args.baseline:
        raise ConfigError("both stages disabled: plain ranking must be requested with --baseline")
    params = asdict(PipelineConfig())
    given = {key: getattr(args, key) for key in _VALUE_FLAGS if getattr(args, key) is not None}
    for key, value in {**PRESETS.get(args.preset, {}), **given}.items():
        section, name = _VALUE_FLAGS[key]
        owner = typing.get_type_hints(PipelineConfig)[section] if section else PipelineConfig
        (params[section] if section else params)[name] = _from_text(value, owner, name)
    params["aro"]["enabled"] = not (args.baseline or args.no_aro)
    params.update(dmon_on=not (args.baseline or args.no_dmon), dmon_joint=args.joint,
                  pre_normalize=not args.no_pre_normalize)
    return config_from_dict(params)


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
        seed = _from_text(args.seed, rerank_files, "seed")
        manifest = rerank_files(args.query, args.gallery, args.out, cfg, seed=seed)
    print(str(Path(args.out) / manifest["outputs"]["distances"]))
    return EXIT_OK


def _cmd_eval(args) -> int:
    doc = eval_files(
        args.dist,
        args.query_labels,
        args.gallery_labels,
        max_rank=_from_text(args.max_rank, eval_files, "max_rank"),
        report_path=args.out,
    )
    sys.stdout.write(write_json(doc))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    """--k1/--k2/--gamma/--orders are comma-separated lists; every cell's
    config is built, and so checked, before any data is read, and a cell
    equal to an earlier one, once typed, is dropped."""
    grid = {}
    for key in ("k1", "k2", "gamma", "orders"):
        text = getattr(args, key)
        grid[key] = [None] if text is None else [v for v in text.split(",") if v.strip()]
        if not grid[key]:
            raise ConfigError(f"{'.'.join(filter(None, _VALUE_FLAGS[key]))} must list at least "
                              f"one value, got {text!r}")
    cells = list(dict.fromkeys(
        _config_from_args(argparse.Namespace(**{**vars(args), **dict(zip(grid, values))}))
        for values in itertools.product(*grid.values())
    ))
    manifest = sweep_files(args.query, args.gallery, args.query_labels, args.gallery_labels,
                           cells, args.out)
    print(manifest["outputs"]["table"])
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    spec = _spec_from_args(args)
    cfg = _config_from_args(args)
    max_rank = _from_text(args.max_rank, run_pipeline, "max_rank")
    rows = run_pipeline(spec, cfg, args.out, ablation=args.ablation, max_rank=max_rank)
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
    except MemoryError as exc:  # an input too large for this machine
        print(f"data error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
