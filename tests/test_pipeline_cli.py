import argparse
import json
import re
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import rerankit.metrics as metrics_module
import rerankit.optimize as optimize_module
from rerankit import matrix_ops, pipeline
from rerankit import cli
from rerankit.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK, main
from rerankit.enhance import DmonConfig, enhance
from rerankit.io_formats import npy_header, read_npy, write_labels, write_npy
from rerankit.matrix_ops import l2_normalize_rows, pairwise_sq_euclidean
from rerankit.metrics import SampleLabels, evaluate
from rerankit.optimize import AroConfig, optimize
from rerankit.pipeline import (
    ConfigError,
    PipelineConfig,
    compute_refined_distances,
    config_from_dict,
)
from rerankit.synthetic import SynthSpec, generate

from naive_impl import naive_evaluate, sq_norms
from test_enhance import underflow_gallery
from test_matrix_ops import FakeBlasThreads


def synth_args(out, ids=10, per_id=6, dim=16, cams=3, seed=7, noise=None):
    args = [
        "synth", "--ids", str(ids), "--per-id", str(per_id), "--dim", str(dim),
        "--cams", str(cams), "--seed", str(seed), "--out", str(out),
    ]
    if noise is not None:
        args += ["--intra-noise", str(noise), "--cam-offset", "0.0"]
    return args


@pytest.fixture()
def data_dir(tmp_path):
    out = tmp_path / "data"
    assert main(synth_args(out)) == EXIT_OK
    return out


class TestSynthCommand:
    def test_writes_four_files(self, tmp_path):
        out = tmp_path / "d"
        assert main(synth_args(out)) == EXIT_OK
        for name in ("q.npy", "g.npy", "q_labels.csv", "g_labels.csv"):
            assert (out / name).exists()

    @pytest.mark.parametrize("command", ["synth", "pipeline"])
    def test_flags_default_to_synth_spec(self, command):
        args = cli._build_parser().parse_args([command, "--out", "x"])
        assert cli._spec_from_args(args) == SynthSpec()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(synth_args(a)) == EXIT_OK
        assert main(synth_args(b)) == EXIT_OK
        for name in ("q.npy", "g.npy", "q_labels.csv", "g_labels.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_single_camera_rejected(self, tmp_path):
        assert main(synth_args(tmp_path / "x", cams=1)) == EXIT_CONFIG

    def test_writes_manifest_with_version(self, tmp_path):
        out = tmp_path / "d"
        assert main(synth_args(out)) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["version"]
        assert manifest["params"]["num_ids"] == 10


class TestRerankCommand:
    def test_baseline_equals_raw_distances(self, data_dir, tmp_path):
        out = tmp_path / "run"
        code = main([
            "rerank", "--query", str(data_dir / "q.npy"), "--gallery",
            str(data_dir / "g.npy"), "--out", str(out), "--baseline",
        ])
        assert code == EXIT_OK
        dist = read_npy((out / "dist.npy").read_bytes())
        fq = l2_normalize_rows(read_npy((data_dir / "q.npy").read_bytes()))
        fg = l2_normalize_rows(read_npy((data_dir / "g.npy").read_bytes()))
        assert_array_equal(dist, pairwise_sq_euclidean(fq, fg, sq_norms(fg)))

    def test_manifest_records_effective_params(self, data_dir, tmp_path):
        out = tmp_path / "run"
        code = main([
            "rerank", "--query", str(data_dir / "q.npy"), "--gallery",
            str(data_dir / "g.npy"), "--out", str(out), "--preset", "market1501",
        ])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["dmon"]["k1"] == 2
        assert manifest["params"]["dmon"]["orders"] == 3
        assert manifest["params"]["dmon"]["gamma"] == 0.75
        assert manifest["params"]["aro"]["k2"] == 20
        assert manifest["version"]
        assert manifest["outputs"]["distance_kind"] == "squared_euclidean_minus_similarity"

    def test_msmt17_preset(self, data_dir, tmp_path):
        out = tmp_path / "run"
        code = main([
            "rerank", "--query", str(data_dir / "q.npy"), "--gallery",
            str(data_dir / "g.npy"), "--out", str(out), "--preset", "msmt17",
        ])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["dmon"]["k1"] == 5
        assert manifest["params"]["aro"]["k2"] == 2
        assert manifest["params"]["dmon_batch_size"] == 10000
        assert "batch_size" not in manifest["params"]["dmon"]

    def test_dukemtmc_preset(self, data_dir, tmp_path):
        out = tmp_path / "run"
        code = main([
            "rerank", "--query", str(data_dir / "q.npy"), "--gallery",
            str(data_dir / "g.npy"), "--out", str(out), "--preset", "dukemtmc",
        ])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["dmon"]["k1"] == 5
        assert manifest["params"]["aro"]["k2"] == 20

    def test_flags_override_preset(self, data_dir, tmp_path):
        out = tmp_path / "run"
        code = main([
            "rerank", "--query", str(data_dir / "q.npy"), "--gallery",
            str(data_dir / "g.npy"), "--out", str(out), "--preset", "market1501",
            "--k1", "4", "--gamma", "0.5",
        ])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["dmon"]["k1"] == 4
        assert manifest["params"]["dmon"]["gamma"] == 0.5
        assert manifest["params"]["aro"]["k2"] == 20

    def test_mode_flags_recorded_in_manifest(self, data_dir, tmp_path):
        out = tmp_path / "run"
        code = main([
            "rerank", "--query", str(data_dir / "q.npy"), "--gallery",
            str(data_dir / "g.npy"), "--out", str(out),
            "--joint", "--no-pre-normalize",
        ])
        assert code == EXIT_OK
        params = json.loads((out / "manifest.json").read_text())["params"]
        assert params["dmon_joint"] is True
        assert params["pre_normalize"] is False

    def test_rerun_from_manifest_reproduces_bytes(self, data_dir, tmp_path):
        first = tmp_path / "first"
        again = tmp_path / "again"
        assert main([
            "rerank", "--query", str(data_dir / "q.npy"), "--gallery",
            str(data_dir / "g.npy"), "--out", str(first), "--k1", "3", "--k2", "5",
        ]) == EXIT_OK
        assert main([
            "rerank", "--from-manifest", str(first / "manifest.json"),
            "--out", str(again),
        ]) == EXIT_OK
        assert (first / "dist.npy").read_bytes() == (again / "dist.npy").read_bytes()

    def test_both_stages_off_requires_baseline_flag(self, data_dir, tmp_path):
        code = main([
            "rerank", "--query", str(data_dir / "q.npy"), "--gallery",
            str(data_dir / "g.npy"), "--out", str(tmp_path / "x"),
            "--no-dmon", "--no-aro",
        ])
        assert code == EXIT_CONFIG

    def test_missing_file_is_io_error(self, tmp_path):
        code = main([
            "rerank", "--query", str(tmp_path / "absent.npy"), "--gallery",
            str(tmp_path / "absent.npy"), "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_IO

    def test_orders_without_bound_stop_at_the_last_nonzero_decay(self, data_dir, tmp_path):
        run = tmp_path / "run"
        assert main(rerank_args(data_dir, run, "--orders", "100000000")) == EXIT_OK
        assert params_of(run)["dmon"]["orders"] == 100000000

    def test_corrupt_npy_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.npy"
        bad.write_bytes(b"not an npy at all")
        code = main([
            "rerank", "--query", str(bad), "--gallery", str(bad),
            "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_DATA

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_distances_are_data_error(self, tmp_path, capsys):
        feats = tmp_path / "huge.npy"
        rng = np.random.default_rng(11)
        feats.write_bytes(write_npy(rng.standard_normal((6, 4)) * 1e160, precision="float64"))
        code = main([
            "rerank", "--query", str(feats), "--gallery", str(feats),
            "--out", str(tmp_path / "x"), "--no-dmon", "--no-pre-normalize",
        ])
        assert code == EXIT_DATA
        assert "overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", [[], ["--sigma", "1.0"]])
    def test_dmon_scan_overflow_is_typed_data_error(self, tmp_path, capsys, sigma):
        """Row norms near 1e160 are finite, but their squared distances are
        not: DMON's first scan reports the overflow, not a later symptom."""
        feats = tmp_path / "huge.npy"
        rng = np.random.default_rng(13)
        feats.write_bytes(write_npy(rng.standard_normal((300, 16)) * 2.5e159, precision="float64"))
        code = main([
            "rerank", "--query", str(feats), "--gallery", str(feats),
            "--out", str(tmp_path / "x"), "--no-pre-normalize", *sigma,
        ])
        assert code == EXIT_DATA
        assert "squared distances overflow float64" in capsys.readouterr().err


# A value other than the default for each parameter flag of `rerank`.
NON_DEFAULT_FLAGS = {
    "--preset": ["msmt17"],
    "--k1": ["3"],
    "--k2": ["5"],
    "--gamma": ["0.5"],
    "--orders": ["2"],
    "--sigma": ["0.4"],
    "--batch-size": ["7"],
    "--fill": ["0"],
    "--baseline": [],
    "--no-dmon": [],
    "--no-aro": [],
    "--joint": [],
    "--no-pre-normalize": [],
}

# A rerank manifest as earlier versions wrote it: the bandwidth as
# `sigma_mode` plus `sigma`, the ARO switch as top-level `aro_on`, a
# `pre_normalize` switch in each of `dmon` and `aro`, a `max_rank` that no
# rerank read, and DMON and ARO settings that are fixed now (`dmon.alphas`,
# `dmon.normalize_weight_rows`, `dmon.disjoint_orders`, `aro_uses_enhanced`).
OLD_MANIFEST = """{{
  "command": "rerank",
  "inputs": {{"gallery": {gallery}, "query": {query}}},
  "outputs": {{"distance_kind": "squared_euclidean", "distances": "dist.npy"}},
  "params": {{
    "aro": {{"enabled": true, "fill_value": 1.0, "k2": 20, "pre_normalize": true}},
    "aro_on": {aro_on},
    "aro_uses_enhanced": true,
    "dmon": {{
      "alphas": null, "batch_size": null, "disjoint_orders": false, "gamma": 0.75,
      "k1": 2, "normalize_weight_rows": true, "orders": 3, "pre_normalize": true,
      "sigma": {sigma}, "sigma_mode": "{sigma_mode}"
    }},
    "dmon_joint": false,
    "dmon_on": true,
    "max_rank": 50
  }},
  "seed": null,
  "tool": "rerankit",
  "version": "0.1.0"
}}
"""


def rerank_parameter_flags() -> set:
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.option_strings[-1] for a in sub.choices["rerank"]._actions}
    return flags - {"--help", "--query", "--gallery", "--out", "--seed", "--from-manifest"}


def replay(manifest, out, *flags):
    return main(["rerank", "--from-manifest", str(manifest), "--out", str(out), *flags])


def params_of(run):
    return json.loads((run / "manifest.json").read_text())["params"]


def field_paths(cfg) -> dict:
    """Each field of a PipelineConfig, its sections' fields as `section.field`."""
    paths = {}
    for key, value in asdict(cfg).items():
        if isinstance(value, dict):
            paths.update({f"{key}.{name}": v for name, v in value.items()})
        else:
            paths[key] = value
    return paths


class TestParameterSurface:
    """Every parameter is defined once, recorded in the manifest, and
    replayed from it; nothing the user passes is silently ignored."""

    def test_every_rerank_parameter_flag_has_a_case(self):
        assert rerank_parameter_flags() == set(NON_DEFAULT_FLAGS)

    def test_every_config_field_can_be_set_from_the_command_line(self):
        """A field that no flag or preset changes holds one value in use, so
        it belongs in the code as a constant. Builds configs only."""
        parser = cli._build_parser()
        default = field_paths(PipelineConfig())
        cases = [[flag, *values] for flag, values in NON_DEFAULT_FLAGS.items()]
        cases += [["--preset", name] for name in pipeline.PRESETS]
        changed = set()
        for case in cases:
            args = parser.parse_args(rerank_args(Path("data"), Path("run"), *case))
            got = field_paths(cli._config_from_args(args))
            changed |= {path for path, value in default.items() if got[path] != value}
        assert changed == set(default)

    @pytest.mark.parametrize("flag", sorted(NON_DEFAULT_FLAGS))
    def test_flag_changes_params_and_replays(self, data_dir, tmp_path, flag):
        default, run, again = tmp_path / "default", tmp_path / "run", tmp_path / "again"
        assert main(rerank_args(data_dir, default)) == EXIT_OK
        assert main(rerank_args(data_dir, run, flag, *NON_DEFAULT_FLAGS[flag])) == EXIT_OK
        assert params_of(run) != params_of(default)
        assert replay(run / "manifest.json", again) == EXIT_OK
        assert (again / "dist.npy").read_bytes() == (run / "dist.npy").read_bytes()

    @pytest.mark.parametrize("flag", sorted(NON_DEFAULT_FLAGS))
    def test_flag_changes_distances(self, data_dir, tmp_path, flag):
        default, run = tmp_path / "default", tmp_path / "run"
        assert main(rerank_args(data_dir, default)) == EXIT_OK
        assert main(rerank_args(data_dir, run, flag, *NON_DEFAULT_FLAGS[flag])) == EXIT_OK
        assert (run / "dist.npy").read_bytes() != (default / "dist.npy").read_bytes()

    def test_only_the_commands_that_rank_take_max_rank(self, data_dir, tmp_path, capsys):
        """rerank writes no CMC and sweep rows hold only mAP and rank-1, so
        neither takes --max-rank (eval and pipeline do: `test_max_rank_zero`)."""
        sweep = ["sweep", "--query", str(data_dir / "q.npy"), "--gallery",
                 str(data_dir / "g.npy"), "--query-labels", str(data_dir / "q_labels.csv"),
                 "--gallery-labels", str(data_dir / "g_labels.csv"),
                 "--out", str(tmp_path / "s.csv")]
        for args in (rerank_args(data_dir, tmp_path / "run"), sweep):
            assert main([*args, "--max-rank", "10"]) == EXIT_CONFIG
            assert "unrecognized arguments: --max-rank 10" in capsys.readouterr().err
        assert not (tmp_path / "run").exists() and not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("sigma_mode, sigma, aro_on, edit, expect", [
        ("fixed", 0.4, "false", {}, ["--sigma", "0.4", "--no-aro"]),
        ("adaptive", 1.0, "true", {}, []),
        # ARO on the raw features is ARO without DMON
        ("adaptive", 1.0, "true", {"aro_uses_enhanced": False}, ["--no-dmon"]),
        # without ARO, the features it would measure change nothing
        ("adaptive", 1.0, "false", {"aro_uses_enhanced": False}, ["--no-aro"]),
        ("adaptive", 1.0, "true", {"dmon": {"alphas": [1, 0.5, 0.25]}}, "dmon.alphas"),
        ("adaptive", 1.0, "true", {"dmon": {"normalize_weight_rows": False}},
         "dmon.normalize_weight_rows"),
        ("adaptive", 1.0, "true", {"dmon": {"disjoint_orders": True}}, "dmon.disjoint_orders"),
        # the pre-normalization a replay keeps is the one the first stage run read
        ("adaptive", 1.0, "true", {"dmon": {"pre_normalize": False}}, ["--no-pre-normalize"]),
        ("adaptive", 1.0, "true", {"dmon": {"pre_normalize": False}, "dmon_on": False},
         ["--no-dmon"]),
        # the gallery batching moved from `dmon.batch_size` to `dmon_batch_size`
        ("adaptive", 1.0, "true", {"dmon": {"batch_size": 7}}, ["--batch-size", "7"]),
    ])
    def test_old_manifest_replays_like_the_new_flags(
        self, data_dir, tmp_path, capsys, sigma_mode, sigma, aro_on, edit, expect
    ):
        """`expect` is the flags of a new run with the same params and bytes,
        or the field named by the configuration error (exit 2) of a replay
        that a fixed setting refuses."""
        manifest = json.loads(OLD_MANIFEST.format(
            query=json.dumps(str(data_dir / "q.npy")), gallery=json.dumps(str(data_dir / "g.npy")),
            sigma=sigma, sigma_mode=sigma_mode, aro_on=aro_on,
        ))
        params = manifest["params"]
        for key, value in edit.items():
            params[key] = {**params[key], **value} if isinstance(value, dict) else value
        old = tmp_path / "old.json"
        old.write_text(json.dumps(manifest))
        if isinstance(expect, str):
            assert replay(old, tmp_path / "old") == EXIT_CONFIG
            assert expect in capsys.readouterr().err
            assert not (tmp_path / "old").exists()
            return
        assert replay(old, tmp_path / "old") == EXIT_OK
        assert main(rerank_args(data_dir, tmp_path / "new", *expect)) == EXIT_OK
        assert params_of(tmp_path / "old") == params_of(tmp_path / "new")
        assert (tmp_path / "old" / "dist.npy").read_bytes() == (
            tmp_path / "new" / "dist.npy").read_bytes()

    def test_manifest_with_top_level_pre_normalize_maps_dmon_batch_size(
        self, data_dir, tmp_path
    ):
        """A manifest that records the gallery batching as `dmon.batch_size`
        beside a top-level `pre_normalize` replays to the params and bytes
        of a new `--batch-size` run, which records it as `dmon_batch_size`."""
        manifest = {
            "command": "rerank", "seed": None, "tool": "rerankit", "version": "0.1.0",
            "inputs": {"query": str(data_dir / "q.npy"), "gallery": str(data_dir / "g.npy")},
            "outputs": {"distance_kind": "squared_euclidean_minus_similarity",
                        "distances": "dist.npy"},
            "params": {
                "aro": {"enabled": True, "fill_value": 1.0, "k2": 20},
                "dmon": {"batch_size": 7, "gamma": 0.75, "k1": 2, "orders": 3, "sigma": None},
                "dmon_joint": False, "dmon_on": True, "pre_normalize": True,
            },
        }
        old = tmp_path / "old.json"
        old.write_text(json.dumps(manifest))
        assert replay(old, tmp_path / "old") == EXIT_OK
        assert main(rerank_args(data_dir, tmp_path / "new", "--batch-size", "7")) == EXIT_OK
        assert params_of(tmp_path / "old") == params_of(tmp_path / "new")
        assert params_of(tmp_path / "new")["dmon_batch_size"] == 7
        assert (tmp_path / "old" / "dist.npy").read_bytes() == (
            tmp_path / "new" / "dist.npy").read_bytes()

    def test_sigma_alone_means_fixed(self, data_dir, tmp_path):
        assert main(rerank_args(data_dir, tmp_path / "adaptive")) == EXIT_OK
        assert main(rerank_args(data_dir, tmp_path / "fixed", "--sigma", "0.05")) == EXIT_OK
        assert params_of(tmp_path / "adaptive")["dmon"]["sigma"] is None
        assert params_of(tmp_path / "fixed")["dmon"]["sigma"] == 0.05
        assert (tmp_path / "adaptive" / "dist.npy").read_bytes() != (
            tmp_path / "fixed" / "dist.npy").read_bytes()

    def test_no_aro_is_recorded_as_aro_disabled(self, data_dir, tmp_path):
        assert main(rerank_args(data_dir, tmp_path / "run", "--no-aro")) == EXIT_OK
        params = params_of(tmp_path / "run")
        assert params["aro"]["enabled"] is False
        assert "aro_on" not in params

    @pytest.mark.parametrize("extra", [
        ["--query", "q.npy"], ["--gallery", "g.npy"], ["--seed", "0"], ["--k1", "7"],
        ["--fill", "0"], ["--no-aro"], ["--preset", "dukemtmc"],
    ])
    def test_from_manifest_rejects_other_flags(self, data_dir, tmp_path, capsys, extra):
        assert main(rerank_args(data_dir, tmp_path / "run")) == EXIT_OK
        code = replay(tmp_path / "run" / "manifest.json", tmp_path / "again", *extra)
        assert code == EXIT_CONFIG
        assert extra[0] in capsys.readouterr().err
        assert not (tmp_path / "again").exists()


def edit_params(params, edit):
    if edit == "missing":
        del params["dmon"]["k1"]
    elif edit == "unknown":
        params["aro"]["k3"] = 4
    elif edit == "huge_integer":  # beyond the float range
        params["dmon"]["gamma"] = 10**400
    else:
        params["aro"]["k2"] = "x"


class TestManifestErrors:
    """A malformed manifest is a configuration error (exit 2) that names
    the field, before any input is read."""

    @pytest.mark.parametrize("edit, field", [
        ("missing", "dmon.k1"), ("unknown", "aro.k3"), ("ill_typed", "aro.k2"),
        ("huge_integer", "dmon.gamma is an integer beyond the float range"),
    ])
    def test_bad_field_is_config_error(self, data_dir, tmp_path, capsys, edit, field):
        assert main(rerank_args(data_dir, tmp_path / "run")) == EXIT_OK
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        edit_params(manifest["params"], edit)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert replay(bad, tmp_path / "again") == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not (tmp_path / "again").exists()

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"params": ')
        assert replay(bad, tmp_path / "again") == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("params, field", [
        ({"dmon_on": "false"}, "dmon_on"),
        ({"dmon": {"gamma": 2.0}}, "dmon.gamma"),
        ({"dmon": {"sigma": None, "sigma_mode": "other"}}, "dmon.sigma_mode"),
        ({"aro": {"fill_value": True}}, "aro.fill_value"),
        ({"dmon": {"alphas": [1, "x", 0.25]}}, "dmon.alphas"),
        # a manifest with the top-level switch is new, and has no stage switches
        ({"aro": {"pre_normalize": True}}, "aro.pre_normalize"),
        ({"dmon": {"pre_normalize": False}}, "dmon.pre_normalize"),
        ({"max_rank": 50}, "max_rank"),
        # a manifest with `dmon_batch_size` is new, and has no `dmon.batch_size`
        ({"dmon": {"batch_size": 7}}, "unknown field dmon.batch_size"),
        ({"dmon_batch_size": 0}, "dmon_batch_size must be >= 1"),
    ])
    def test_config_from_dict_names_the_field(self, params, field):
        good = asdict(PipelineConfig())
        for key, value in params.items():
            good[key] = {**good[key], **value} if isinstance(value, dict) else value
        with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
            config_from_dict(good)

    def test_config_from_dict_inverts_asdict(self):
        cfg = PipelineConfig(
            dmon=DmonConfig(sigma=0.3), aro=AroConfig(fill_value=0.0, enabled=False),
            dmon_joint=True, dmon_batch_size=9, pre_normalize=False,
        )
        assert config_from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg


class TestConfigErrorsBeforeData:
    """Bad parameters exit 2 before any input is read: the inputs here do not exist."""

    @pytest.mark.parametrize("command, flags, field", [
        ("sweep", ["--k1", "0"], "dmon.k1"),
        ("sweep", ["--gamma", "2"], "dmon.gamma"),
        ("sweep", ["--k1", "2,0"], "dmon.k1"),
        ("sweep", ["--k2", "5,0"], "aro.k2"),
        ("sweep", ["--max-rank", "0"], "unrecognized arguments: --max-rank"),
        ("sweep", ["--sigma", "0"], "dmon.sigma"),
        ("sweep", ["--no-dmon", "--no-aro"], "--baseline"),
        ("sweep", ["--batch-size", "0"], "dmon_batch_size"),
        ("rerank", ["--k1", "0"], "dmon.k1"),
        ("rerank", ["--batch-size", "0"], "dmon_batch_size"),
        # a flag over a preset
        ("rerank", ["--preset", "dukemtmc", "--k2", "0"], "aro.k2"),
        ("pipeline", ["--gamma", "2"], "dmon.gamma"),
        ("pipeline", ["--ids", "1"], "num_ids"),
        # ill-typed text is the same error as an out-of-range value
        ("rerank", ["--k1", "abc"], "dmon.k1 must be int, got 'abc'"),
        ("rerank", ["--k1", "2.5"], "dmon.k1 must be int, got '2.5'"),
        ("rerank", ["--gamma=-1e-3"], "dmon.gamma"),
        ("rerank", ["--sigma=-inf"], "dmon.sigma"),
        ("rerank", ["--seed", "x"], "seed"),
        ("sweep", ["--k1", "2,x"], "dmon.k1 must be int, got 'x'"),
        ("synth", ["--ids", "x"], "num_ids"),
        ("synth", ["--seed", "-1"], "seed must be >= 0, got -1"),
        ("pipeline", ["--seed", "-1"], "seed must be >= 0, got -1"),
        ("eval", ["--max-rank", "abc"], "max_rank must be int, got 'abc'"),
    ])
    def test_bad_flag_names_its_field(self, tmp_path, capsys, command, flags, field):
        """A bad flag value is the configuration error a manifest's would be,
        naming the field by its path in the manifest's `params`: one stderr
        line, and no file written. An option the command lacks is argparse's
        usage error instead, and only that."""
        absent, out = str(tmp_path / "absent"), tmp_path / "out"
        args = {"sweep": ["--query", absent, "--gallery", absent, "--query-labels", absent,
                          "--gallery-labels", absent, "--out", str(out / "s.csv")],
                "rerank": ["--query", absent, "--gallery", absent, "--out", str(out)],
                "eval": ["--dist", absent, "--query-labels", absent, "--gallery-labels", absent,
                         "--out", str(out / "report.json")],
                "synth": ["--out", str(out)],
                "pipeline": ["--out", str(out)]}[command]
        assert main([command, *args, *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert field in err
        if field.startswith("unrecognized arguments"):
            assert err.startswith("usage:"), err
        else:
            assert err.startswith("configuration error: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pipeline", "eval"])
    def test_max_rank_zero(self, tmp_path, capsys, command):
        args = (["pipeline", "--out", str(tmp_path / "run")] if command == "pipeline"
                else eval_args(tmp_path / "absent", tmp_path / "run"))
        assert main([*args, "--max-rank", "0"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error: max_rank must be >= 1, got 0\n"
        assert not (tmp_path / "run").exists()


@contextmanager
def stripes_of(rows, num_g):
    """Make every row stripe (QG, kNN scan block, evaluator) about `rows` rows
    of a `num_g`-wide matrix."""
    entries = rows * num_g
    with mock.patch.object(matrix_ops, "_STRIPE_ELEMS", entries), \
            mock.patch.object(optimize_module, "_STRIPE_ELEMS", entries), \
            mock.patch.object(metrics_module, "_STRIPE_ENTRIES", entries):
        yield


def write_split(out, fq, fg, q_labels, g_labels, precision="float32"):
    out.mkdir(parents=True, exist_ok=True)
    (out / "q.npy").write_bytes(write_npy(fq, precision=precision))
    (out / "g.npy").write_bytes(write_npy(fg, precision=precision))
    (out / "q_labels.csv").write_text(write_labels(SampleLabels(*q_labels)))
    (out / "g_labels.csv").write_text(write_labels(SampleLabels(*g_labels)))
    return out


def rerank_args(data, out, *flags):
    return ["rerank", "--query", str(data / "q.npy"), "--gallery", str(data / "g.npy"),
            "--out", str(out), *flags]


def eval_args(data, out):
    return ["eval", "--dist", str(out / "dist.npy"), "--query-labels",
            str(data / "q_labels.csv"), "--gallery-labels", str(data / "g_labels.csv"),
            "--out", str(out / "report.json")]


# Degenerate splits: (query features, gallery features, query labels,
# gallery labels, rerank flags). Every query has a cross-camera positive.
_RNG = np.random.default_rng(61)
DEGENERATE = {
    "nq1_ng1": (_RNG.standard_normal((1, 3)), _RNG.standard_normal((1, 3)),
                ([0], [0]), ([0], [1]), []),
    "ng_at_most_k1_and_k2": (_RNG.standard_normal((2, 4)), _RNG.standard_normal((3, 4)),
                             ([0, 1], [0, 0]), ([0, 1, 1], [1, 1, 2]),
                             ["--k1", "3", "--k2", "5"]),
    "duplicate_and_zero_rows": (
        np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [2.0, 4.0, 0.0]]),
        np.array([[1.0, 2.0, 0.0]] * 4 + [[0.0, 0.0, 0.0]] * 3),
        ([0, 1, 0], [0, 0, 1]), ([0, 1, 0, 1, 0, 1, 1], [1, 1, 0, 0, 2, 2, 3]), []),
    "final_gallery_batch_of_one": (_RNG.standard_normal((4, 5)), _RNG.standard_normal((9, 5)),
                                   (np.arange(4) % 3, np.zeros(4, int)),
                                   (np.arange(9) % 3, 1 + np.arange(9) % 2),
                                   ["--batch-size", "4"]),
}


class TestStreamedRerank:
    """The CLI streams dist.npy stripe by stripe and eval reads it back in
    stripes; both must agree with the in-memory route on any shape."""

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(DEGENERATE))
    def test_degenerate_shapes_match_in_memory_route(self, tmp_path, case, rows):
        fq, fg, q_labels, g_labels, flags = DEGENERATE[case]
        data = write_split(tmp_path / "data", fq, fg, q_labels, g_labels)
        out = tmp_path / "run"
        with stripes_of(rows, fg.shape[0]):
            assert main(rerank_args(data, out, *flags)) == EXIT_OK
            cfg = config_from_dict(json.loads((out / "manifest.json").read_text())["params"])
            expected = compute_refined_distances(
                read_npy((data / "q.npy").read_bytes()),
                read_npy((data / "g.npy").read_bytes()),
                cfg,
            )
            assert (out / "dist.npy").read_bytes() == write_npy(expected, precision="float64")
            assert main(eval_args(data, out)) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        exp_cmc, exp_map, exp_valid = naive_evaluate(expected, *q_labels, *g_labels)
        np.testing.assert_allclose(report["cmc"], exp_cmc, rtol=0, atol=1e-12)
        assert abs(report["mAP"] - exp_map) <= 1e-12
        assert report["valid_queries"] == exp_valid
        assert not (out / "dist.npy.partial").exists()

    @pytest.mark.parametrize("rows", [1, 3])
    def test_float32_and_float64_files_agree(self, tmp_path, rows):
        """A float64 file of the values a float32 file holds reranks to the same bytes."""
        rng = np.random.default_rng(67)
        fq = rng.standard_normal((5, 6)).astype(np.float32).astype(np.float64)
        fg = rng.standard_normal((11, 6)).astype(np.float32).astype(np.float64)
        labels = ((np.arange(5) % 3, np.zeros(5, int)), (np.arange(11) % 3, np.ones(11, int)))
        outputs = []
        for precision in ("float32", "float64"):
            data = write_split(tmp_path / precision, fq, fg, *labels, precision=precision)
            with stripes_of(rows, 11):
                assert main(rerank_args(data, tmp_path / f"run_{precision}")) == EXIT_OK
            outputs.append((tmp_path / f"run_{precision}" / "dist.npy").read_bytes())
        assert outputs[0] == outputs[1]

    def test_same_file_as_query_and_gallery_stable_across_stripes(self, tmp_path):
        """A query set equal to the gallery gets the same bytes whatever the
        stripe height, including a stripe as tall as the gallery. Small
        integer features keep every product exact, because BLAS may round
        GEMMs of different heights differently in the last bit."""
        feats = np.random.default_rng(73).integers(-3, 4, (13, 4)).astype(np.float64)
        labels = (np.arange(13) % 4, np.arange(13) % 3)
        data = write_split(tmp_path / "data", feats, feats, labels, labels)
        gallery = str(data / "g.npy")
        outputs = set()
        for rows in (1, 2, 3, 7, 13):
            out = tmp_path / f"run{rows}"
            with stripes_of(rows, 13):
                assert main(["rerank", "--query", gallery, "--gallery", gallery,
                             "--out", str(out), "--no-dmon", "--no-pre-normalize"]) == EXIT_OK
            outputs.add((out / "dist.npy").read_bytes())
        assert len(outputs) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("flags", [["--no-dmon"], ["--baseline"]])
    def test_failed_rerank_leaves_no_partial_and_keeps_earlier_output(self, tmp_path, flags):
        """ARO overflow raises before any stripe is written; with --baseline
        the last stripe is not finite, after earlier stripes went out."""
        rng = np.random.default_rng(71)
        fq = rng.standard_normal((4, 3))
        fg = rng.standard_normal((6, 3))
        labels = ((np.arange(4) % 2, np.zeros(4, int)), (np.arange(6) % 2, np.ones(6, int)))
        good = write_split(tmp_path / "good", fq, fg, *labels, precision="float64")
        fq[-1] *= 1e160
        fg *= 1e160 if flags == ["--no-dmon"] else 1.0
        huge = write_split(tmp_path / "huge", fq, fg, *labels, precision="float64")
        out = tmp_path / "run"
        assert main(rerank_args(good, out)) == EXIT_OK
        earlier = (out / "dist.npy").read_bytes()
        fresh = tmp_path / "fresh"
        with stripes_of(1, 6):
            for target in (out, fresh):
                code = main(rerank_args(huge, target, "--no-pre-normalize", *flags))
                assert code == EXIT_DATA
                assert not (target / "dist.npy.partial").exists()
        assert (out / "dist.npy").read_bytes() == earlier
        assert not (fresh / "dist.npy").exists()

    def test_helper_lane_failure_leaves_no_partial(self, tmp_path, monkeypatch):
        """A failure in a helper lane's similarity kernel reaches
        `rerank_files`, which deletes the partial file (the caller's lane
        may have written its first stripe) and writes no dist.npy."""
        rng = np.random.default_rng(73)
        labels = ((np.arange(9) % 2, np.zeros(9, int)), (np.arange(6) % 2, np.ones(6, int)))
        data = write_split(tmp_path / "data", rng.standard_normal((9, 3)),
                           rng.standard_normal((6, 3)), *labels)
        monkeypatch.setattr(matrix_ops, "_blas_threads", lambda: FakeBlasThreads(2))
        real = optimize_module._similarity

        def failing(q_rows, g_rows):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("lane failed")
            return real(q_rows, g_rows)

        monkeypatch.setattr(optimize_module, "_similarity", failing)
        out = tmp_path / "run"
        with stripes_of(2, 6), pytest.raises(RuntimeError, match="lane failed"):
            pipeline.rerank_files(data / "q.npy", data / "g.npy", out,
                                  PipelineConfig(dmon_on=False))
        assert list(out.iterdir()) == []
        assert not matrix_ops._LANES_BUSY.locked()

    def test_too_little_free_space_fails_before_any_scan(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        num_q = read_npy((data_dir / "q.npy").read_bytes()).shape[0]
        num_g = read_npy((data_dir / "g.npy").read_bytes()).shape[0]
        needed = len(npy_header((num_q, num_g))) + num_q * num_g * 8
        free = {"bytes": needed - 1}

        def statvfs(path):
            return mock.Mock(f_bavail=free["bytes"], f_frsize=1)

        monkeypatch.setattr(pipeline.os, "statvfs", statvfs)
        out = tmp_path / "run"
        with mock.patch.object(pipeline, "compute_refined_distances") as compute:
            assert main(rerank_args(data_dir, out)) == EXIT_DATA
        compute.assert_not_called()
        assert f"needs {needed} bytes" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        free["bytes"] = needed
        assert main(rerank_args(data_dir, out)) == EXIT_OK
        assert (out / "dist.npy").stat().st_size == needed


class TestEvalCommand:
    def test_noiseless_baseline_map_is_one(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(synth_args(data, noise=0.0)) == EXIT_OK
        run = tmp_path / "run"
        assert main([
            "rerank", "--query", str(data / "q.npy"), "--gallery",
            str(data / "g.npy"), "--out", str(run), "--baseline",
        ]) == EXIT_OK
        report_path = tmp_path / "report.json"
        capsys.readouterr()  # drain synth/rerank path prints
        code = main([
            "eval", "--dist", str(run / "dist.npy"),
            "--query-labels", str(data / "q_labels.csv"),
            "--gallery-labels", str(data / "g_labels.csv"),
            "--out", str(report_path),
        ])
        assert code == EXIT_OK
        doc = json.loads(report_path.read_text())
        assert set(doc) >= {"cmc", "mAP", "valid_queries"}
        assert doc["mAP"] == 1.0
        printed = json.loads(capsys.readouterr().out)
        assert printed == doc

    def test_label_mismatch_is_data_error(self, data_dir, tmp_path):
        run = tmp_path / "run"
        assert main([
            "rerank", "--query", str(data_dir / "q.npy"), "--gallery",
            str(data_dir / "g.npy"), "--out", str(run), "--baseline",
        ]) == EXIT_OK
        code = main([
            "eval", "--dist", str(run / "dist.npy"),
            "--query-labels", str(data_dir / "g_labels.csv"),  # wrong length
            "--gallery-labels", str(data_dir / "g_labels.csv"),
        ])
        assert code == EXIT_DATA


def sweep_args(data, out, *flags):
    return ["sweep", "--query", str(data / "q.npy"), "--gallery", str(data / "g.npy"),
            "--query-labels", str(data / "q_labels.csv"),
            "--gallery-labels", str(data / "g_labels.csv"), "--out", str(out), *flags]


class TestSweepCommand:
    @staticmethod
    def counted_sweep(args):
        """Run `main(args)` and return its exit code and the configs it ran."""
        runs = []
        real = pipeline.compute_refined_distances

        def spy(fq, fg, cfg, **kwargs):
            runs.append(cfg)
            return real(fq, fg, cfg, **kwargs)

        with mock.patch.object(pipeline, "compute_refined_distances", spy):
            return main(args), runs

    def test_grid_rows_and_baseline(self, data_dir, tmp_path):
        """One row and one run per distinct cell: a repeated cell, equal
        once typed, is dropped, and a cell equal to the baseline reuses its
        report, so each table equals that of a sweep of the distinct cells."""
        out = tmp_path / "sweep.csv"
        code, runs = self.counted_sweep(sweep_args(data_dir, out, "--k1", "1,2"))
        assert code == EXIT_OK and len(runs) == 3
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("label,k1,k2,gamma,orders")
        assert len(lines) == 1 + 1 + 2  # header, baseline, two grid cells
        assert lines[1].split(",")[0] == "baseline"
        for flags, distinct, count in [
            (("--k1", "2,2", "--gamma", "0.75,0.750"), ("--k1", "2", "--gamma", "0.75"), 2),
            (("--baseline",), ("--baseline",), 1),
        ]:
            code, runs = self.counted_sweep(sweep_args(data_dir, out, *flags))
            assert code == EXIT_OK and len(runs) == len(set(runs)) == count
            assert main(sweep_args(data_dir, tmp_path / "distinct.csv", *distinct)) == EXIT_OK
            table = out.read_text()
            assert [line.split(",")[0] for line in table.splitlines()[1:]] == ["baseline", "grid"]
            assert table == (tmp_path / "distinct.csv").read_text()

    def test_deterministic(self, data_dir, tmp_path):
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            assert main([
                "sweep", "--query", str(data_dir / "q.npy"),
                "--gallery", str(data_dir / "g.npy"),
                "--query-labels", str(data_dir / "q_labels.csv"),
                "--gallery-labels", str(data_dir / "g_labels.csv"),
                "--k1", "1,2", "--gamma", "0.5,0.75", "--out", str(out),
            ]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_empty_grid_rejected(self, data_dir, tmp_path):
        code = main([
            "sweep", "--query", str(data_dir / "q.npy"),
            "--gallery", str(data_dir / "g.npy"),
            "--query-labels", str(data_dir / "q_labels.csv"),
            "--gallery-labels", str(data_dir / "g_labels.csv"),
            "--k1", ",", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == EXIT_CONFIG

    def test_json_format(self, data_dir, tmp_path):
        """The table format follows the suffix of --out."""
        out = tmp_path / "sweep.json"
        assert main(sweep_args(data_dir, out, "--k1", "2")) == EXIT_OK
        rows = json.loads(out.read_text())
        assert rows[0]["label"] == "baseline"
        assert {"mAP", "rank1", "delta_mAP"} <= set(rows[1])
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["params"]["format"] == "json"

    def test_other_suffixes_write_csv(self, data_dir, tmp_path):
        out = tmp_path / "sweep.txt"
        assert main(sweep_args(data_dir, out, "--k1", "2")) == EXIT_OK
        assert out.read_text().startswith("label,k1,k2,gamma,orders")
        assert json.loads(Path(f"{out}.manifest.json").read_text())["params"]["format"] == "csv"

    def test_format_flag_is_gone(self, data_dir, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(sweep_args(data_dir, out, "--format", "json")) == EXIT_CONFIG
        assert not out.exists()

    def test_label_count_mismatch_is_data_error_before_any_cell(self, data_dir, tmp_path, capsys):
        args = sweep_args(data_dir, tmp_path / "sweep.csv")
        args[args.index("--query-labels") + 1] = str(data_dir / "g_labels.csv")
        with mock.patch.object(pipeline, "compute_refined_distances") as compute:
            assert main(args) == EXIT_DATA
        compute.assert_not_called()
        assert "label counts" in capsys.readouterr().err

    def test_writes_manifest(self, data_dir, tmp_path):
        """The manifest records the grid the cells ran, each value of the
        type its field declares."""
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--query", str(data_dir / "q.npy"),
            "--gallery", str(data_dir / "g.npy"),
            "--query-labels", str(data_dir / "q_labels.csv"),
            "--gallery-labels", str(data_dir / "g_labels.csv"),
            "--k1", "1,2", "--gamma", "1,0.75", "--out", str(out),
        ]) == EXIT_OK
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["params"]["k1"] == [1, 2]
        assert manifest["params"]["gamma"] == [1.0, 0.75]
        assert [type(v) for v in manifest["params"]["gamma"]] == [float, float]
        assert manifest["params"]["k2"] == [20] and manifest["params"]["orders"] == [3]
        assert "warnings" not in manifest  # nothing clamps


class TestPipelineCommand:
    def test_ablation_emits_four_variant_rows(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "pipeline", "--ids", "8", "--per-id", "6", "--dim", "12",
            "--cams", "3", "--seed", "11", "--out", str(out), "--ablation",
        ])
        assert code == EXIT_OK
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert lines[0] == "variant,mAP,rank1"
        variants = [line.split(",")[0] for line in lines[1:]]
        assert variants == ["baseline", "+ARO", "+DMON", "+DMON+ARO"]

    def test_ablation_deterministic(self, tmp_path):
        contents = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main([
                "pipeline", "--ids", "8", "--per-id", "6", "--dim", "12",
                "--cams", "3", "--seed", "11", "--out", str(out), "--ablation",
            ]) == EXIT_OK
            contents.append((out / "ablation.csv").read_bytes())
        assert contents[0] == contents[1]

    def test_writes_pipeline_manifest_and_reports(self, tmp_path):
        out = tmp_path / "run"
        assert main([
            "pipeline", "--ids", "8", "--per-id", "6", "--dim", "12",
            "--cams", "3", "--seed", "11", "--out", str(out), "--ablation",
        ]) == EXIT_OK
        manifest = json.loads((out / "pipeline_manifest.json").read_text())
        assert manifest["params"]["ablation"] is True
        assert manifest["outputs"]["variants"] == ["baseline", "aro", "dmon", "dmon_aro"]
        report = json.loads((out / "dmon_aro" / "report.json").read_text())
        assert report["config"]["variant"] == "+DMON+ARO"
        assert report["config"]["version"]

    def test_default_mode_compares_baseline_and_configured(self, tmp_path):
        out = tmp_path / "run"
        assert main([
            "pipeline", "--ids", "6", "--per-id", "5", "--dim", "10",
            "--cams", "2", "--seed", "3", "--out", str(out),
        ]) == EXIT_OK
        lines = (out / "comparison.csv").read_text().strip().split("\n")
        assert [line.split(",")[0] for line in lines] == [
            "variant", "baseline", "configured",
        ]

    def test_noiseless_saturates_all_variants(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "pipeline", "--ids", "6", "--per-id", "6", "--dim", "12",
            "--cams", "3", "--seed", "13", "--intra-noise", "0.0",
            "--cam-offset", "0.0", "--out", str(out), "--ablation",
        ])
        assert code == EXIT_OK
        for line in (out / "ablation.csv").read_text().strip().split("\n")[1:]:
            assert float(line.split(",")[1]) == 1.0


class TestComputeRefinedDistances:
    def test_joint_vs_separate_modes_differ_in_general(self):
        fq, _, fg, _ = generate(SynthSpec(num_ids=6, imgs_per_id=5, dim=8, seed=3))
        cfg = PipelineConfig()
        separate = compute_refined_distances(fq, fg, cfg)
        joint = compute_refined_distances(fq, fg, replace(cfg, dmon_joint=True))
        assert separate.shape == joint.shape == (fq.shape[0], fg.shape[0])
        assert not np.allclose(separate, joint)

    def test_batch_flag_only_chunks_gallery(self):
        """The query set is enhanced whole and the gallery chunk by chunk."""
        rng = np.random.default_rng(9)
        fq, fg = rng.standard_normal((9, 8)), rng.standard_normal((23, 8))
        cfg = PipelineConfig(aro=AroConfig(k2=5), dmon_batch_size=4)
        q, g = l2_normalize_rows(fq), l2_normalize_rows(fg)
        bounds = pipeline.batch_bounds(len(g), cfg)
        assert len(bounds) == 6
        chunked = np.vstack([enhance(g[a:b], cfg.dmon) for a, b in bounds])
        expected = optimize(enhance(q, cfg.dmon), chunked, cfg.aro)
        assert_array_equal(compute_refined_distances(fq, fg, cfg), expected)


    @pytest.mark.parametrize("threads", [None, 2])
    @pytest.mark.parametrize("cfg", [PipelineConfig(), PipelineConfig(dmon_joint=True),
                                     PipelineConfig(dmon_batch_size=10)],
                             ids=["defaults", "joint", "batched"])
    def test_evaluator_sink_equals_evaluate_of_the_matrix(self, monkeypatch, threads, cfg):
        """Scoring the refined stripes as they arrive, on one lane or on two
        (so from a helper thread too, in any order), reports what
        `evaluate` of the collected matrix reports, bit for bit."""
        fq, q_labels, fg, g_labels = generate(
            SynthSpec(num_ids=12, imgs_per_id=6, dim=8, num_cams=3, seed=5))
        monkeypatch.setattr(matrix_ops, "_blas_threads",
                            lambda: threads and FakeBlasThreads(threads))
        evaluator = metrics_module.Evaluator(q_labels, g_labels)
        seen = set()

        def sink(start, stripe):
            seen.add(threading.current_thread())
            evaluator(start, stripe)

        with stripes_of(2, len(fg)):
            expected = evaluate(compute_refined_distances(fq, fg, cfg), q_labels, g_labels)
            assert compute_refined_distances(fq, fg, cfg, sink=sink) is None
        report = evaluator.report()
        assert len(seen) == (threads or 1)
        assert_array_equal(report.cmc, expected.cmc)
        assert report.mean_ap == expected.mean_ap
        assert report.num_valid_queries == expected.num_valid_queries


class TestClampWarnings:
    """The rerank and sweep manifests name every k clamp in a top-level
    `warnings` list: k1 in each DMON batch of at most k1 rows (of the query
    set, the gallery or the joint stack) and k2 beyond the gallery. The list
    is written only when it is not empty, and a rerank replay gives the same
    bytes."""

    @pytest.mark.parametrize("nq, ng, flags, expected", [
        (2, 3, ["--k1", "3", "--k2", "5"], [
            "DMON k1=3 is clamped to 1 in 1 query batch(es) of 2 rows",
            "DMON k1=3 is clamped to 2 in 1 gallery batch(es) of 3 rows",
            "ARO k2=5 is clamped to the gallery's 3 rows",
        ]),
        # batches of 2, 2, 2, 3
        (4, 9, ["--batch-size", "2", "--k2", "5"], [
            "DMON k1=2 is clamped to 1 in 3 gallery batch(es) of 2 rows",
        ]),
        # 4 + 9 stacked rows: batches of 2, 2, 2, 2, 2, 3
        (4, 9, ["--batch-size", "2", "--joint", "--k2", "5"], [
            "DMON k1=2 is clamped to 1 in 5 query+gallery batch(es) of 2 rows",
        ]),
        (4, 9, ["--batch-size", "4", "--k2", "5"], []),  # the last row joins the batch before
        (4, 9, ["--batch-size", "2", "--no-dmon"],
         ["ARO k2=20 is clamped to the gallery's 9 rows"]),
        (4, 9, ["--batch-size", "2", "--gamma", "1", "--no-aro"], []),
        (6, 24, [], []),
    ])
    def test_manifest_names_every_clamp(self, tmp_path, nq, ng, flags, expected):
        rng = np.random.default_rng(79)
        labels = ((np.arange(nq) % 3, np.zeros(nq, int)), (np.arange(ng) % 3, np.ones(ng, int)))
        data = write_split(tmp_path / "data", rng.standard_normal((nq, 5)),
                           rng.standard_normal((ng, 5)), *labels)
        run, again = tmp_path / "run", tmp_path / "again"
        assert main(rerank_args(data, run, *flags)) == EXIT_OK
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest.get("warnings", "absent") == (expected or "absent")
        cfg = config_from_dict(manifest["params"])
        expected_dist = compute_refined_distances(
            read_npy((data / "q.npy").read_bytes()), read_npy((data / "g.npy").read_bytes()), cfg)
        assert (run / "dist.npy").read_bytes() == write_npy(expected_dist, precision="float64")
        assert replay(run / "manifest.json", again) == EXIT_OK
        assert (again / "manifest.json").read_bytes() == (run / "manifest.json").read_bytes()
        assert (again / "dist.npy").read_bytes() == (run / "dist.npy").read_bytes()

    def test_sweep_manifest_names_each_clamp_once(self, tmp_path, capsys):
        """2 queries and 4 gallery rows: each cell clamps k2, and the k1 2 and
        k1 5 cells clamp k1; the manifest lists each clamp once, in the order
        first met, and nothing is written to stderr."""
        data, out = tmp_path / "data", tmp_path / "sweep.csv"
        assert main(synth_args(data, ids=2, per_id=3)) == EXIT_OK
        assert main([
            "sweep", "--query", str(data / "q.npy"), "--gallery", str(data / "g.npy"),
            "--query-labels", str(data / "q_labels.csv"),
            "--gallery-labels", str(data / "g_labels.csv"),
            "--k1", "1,2,5", "--out", str(out),
        ]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert json.loads(Path(f"{out}.manifest.json").read_text())["warnings"] == [
            "ARO k2=20 is clamped to the gallery's 4 rows",
            "DMON k1=2 is clamped to 1 in 1 query batch(es) of 2 rows",
            "DMON k1=5 is clamped to 1 in 1 query batch(es) of 2 rows",
            "DMON k1=5 is clamped to 3 in 1 gallery batch(es) of 4 rows",
        ]


def npy_bytes(arr) -> bytes:
    """A float64 NPY file of `arr` as given, non-finite values included."""
    return npy_header(arr.shape) + np.ascontiguousarray(arr, dtype="<f8").tobytes()


class TestInputContract:
    """Features are checked once, where they enter, each named, before any stage runs."""

    @pytest.mark.parametrize("flags", [[], ["--joint"], ["--no-dmon"], ["--baseline"]])
    def test_width_mismatch_fails_before_any_scan(self, tmp_path, capsys, flags):
        rng = np.random.default_rng(71)
        data = tmp_path / "data"
        data.mkdir()
        (data / "q.npy").write_bytes(write_npy(rng.standard_normal((12, 8))))
        (data / "g.npy").write_bytes(write_npy(rng.standard_normal((30, 6))))
        with mock.patch("rerankit.enhance.knn_scan") as dmon_scan, \
                mock.patch.object(optimize_module, "knn_scan") as aro_scan:
            assert main(rerank_args(data, tmp_path / "run", *flags)) == EXIT_DATA
        dmon_scan.assert_not_called()
        aro_scan.assert_not_called()
        err = capsys.readouterr().err
        assert err == "data error: dimension mismatch: query dim 8, gallery dim 6\n"

    @pytest.mark.parametrize("side", ["query", "gallery"])
    @pytest.mark.parametrize("dmon_on", [True, False])
    def test_non_finite_value_names_its_input(self, side, dmon_on):
        fq, _, fg, _ = generate(SynthSpec(num_ids=6, imgs_per_id=5, dim=8, seed=3))
        (fq if side == "query" else fg)[3, 2] = np.nan
        message = f"^{side} features contains a non-finite value in row 3$"
        with pytest.raises(ValueError, match=message):
            compute_refined_distances(fq, fg, PipelineConfig(dmon_on=dmon_on))

    def test_cli_names_the_non_finite_input(self, data_dir, tmp_path, capsys):
        fg = read_npy((data_dir / "g.npy").read_bytes()).copy()
        fg[3, 0] = np.inf
        (data_dir / "g.npy").write_bytes(npy_bytes(fg))
        assert main(rerank_args(data_dir, tmp_path / "run")) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == "data error: gallery features contains a non-finite value in row 3\n"

    def test_structured_npy_is_a_data_error(self, data_dir, tmp_path, capsys):
        np.save(data_dir / "q.npy", np.zeros(3, dtype=[("x", "<f4")]))
        assert main(rerank_args(data_dir, tmp_path / "run")) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "unsupported dtype descr" in err, err

    @pytest.mark.parametrize("form", ["fortran", "float32", "int64", "list"])
    @pytest.mark.parametrize("pre_normalize", [True, False])
    def test_any_input_form_gives_the_same_bytes(self, form, pre_normalize):
        """The entry points convert what they are handed; the stages then see
        the same C-ordered float64 matrix, so the output bytes do not depend
        on the input's layout or storage type."""
        rng = np.random.default_rng(73)
        fq = rng.integers(-6, 7, size=(20, 5)).astype(np.float64)
        fg = rng.integers(-6, 7, size=(45, 5)).astype(np.float64)
        convert = {"fortran": np.asfortranarray, "float32": lambda x: x.astype(np.float32),
                   "int64": lambda x: x.astype(np.int64), "list": lambda x: x.tolist()}[form]
        dmon, aro = DmonConfig(), AroConfig(k2=5)
        cfg = PipelineConfig(dmon=dmon, aro=aro, pre_normalize=pre_normalize)
        assert enhance(convert(fg), dmon).tobytes() == enhance(fg, dmon).tobytes()
        assert optimize(convert(fq), convert(fg), aro).tobytes() == optimize(fq, fg, aro).tobytes()
        for joint in (False, True):
            joint_cfg = replace(cfg, dmon_joint=joint)
            got = compute_refined_distances(convert(fq), convert(fg), joint_cfg)
            assert got.tobytes() == compute_refined_distances(fq, fg, joint_cfg).tobytes()


class TestKernelUnderflow:
    """A bandwidth under which a row's kernel weights all underflow is a data
    error naming the bandwidth, not a NaN row blamed on finite input."""

    def test_fixed_sigma(self, data_dir, tmp_path, capsys):
        code = main(rerank_args(data_dir, tmp_path / "run", "--sigma", "0.001"))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"data error: order-1 kernel weights of row \d+ all underflow at fixed sigma "
            r"0\.001; set a larger --sigma\n", err), err
        assert not (tmp_path / "run" / "dist.npy").exists()

    def test_adaptive_sigma(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "q.npy").write_bytes(write_npy(np.random.default_rng(1).standard_normal((10, 8))))
        (data / "g.npy").write_bytes(write_npy(underflow_gallery()))
        assert main(rerank_args(data, tmp_path / "run")) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(
            "data error: order-1 kernel weights of row 120 all underflow at adaptive sigma "), err


def strict_json(text: str):
    """`json.loads` that refuses `NaN`, `Infinity` and `-Infinity`."""

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


class TestOneRulePerValue:
    """A bad value from a flag or a replayed manifest takes one path: a
    one-line configuration error naming its field, exit 2, no file written.
    What the config dataclasses accept runs, and every JSON file written is
    strict."""

    @pytest.mark.parametrize("command, flags, message", [
        ("rerank", ["--fill", "0.5"], "aro.fill_value must be 0.0 or 1.0, got 0.5"),
        ("rerank", ["--sigma", "inf"], "dmon.sigma must be finite and > 0, or None, got inf"),
        ("rerank", ["--sigma", "nan"], "dmon.sigma must be finite and > 0, or None, got nan"),
        ("synth", ["--intra-noise", "nan"], "intra_noise must be finite and >= 0, got nan"),
        ("synth", ["--intra-noise", "inf"], "intra_noise must be finite and >= 0, got inf"),
        ("synth", ["--cam-offset", "inf"], "cam_offset_scale must be finite and >= 0, got inf"),
        ("pipeline", ["--intra-noise", "inf"], "intra_noise must be finite and >= 0, got inf"),
        ("replay", ["Infinity"], "dmon.sigma must be finite and > 0, or None, got inf"),
        ("replay", ["NaN"], "dmon.sigma must be finite and > 0, or None, got nan"),
    ])
    def test_bad_value_is_one_config_error_line(
        self, data_dir, tmp_path, capsys, command, flags, message
    ):
        out = tmp_path / "out"
        if command == "replay":
            assert main(rerank_args(data_dir, tmp_path / "run")) == EXIT_OK
            text = (tmp_path / "run" / "manifest.json").read_text()
            assert '"sigma": null' in text
            bad = tmp_path / "bad.json"
            bad.write_text(text.replace('"sigma": null', f'"sigma": {flags[0]}'))
            args = ["rerank", "--from-manifest", str(bad), "--out", str(out)]
        else:
            args = {"rerank": rerank_args(data_dir, out, *flags),
                    "synth": ["synth", "--out", str(out), *flags],
                    "pipeline": ["pipeline", "--out", str(out), *flags]}[command]
        capsys.readouterr()
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"configuration error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--sigma", "1e160"], ["--orders", "1800"]])
    def test_overflowing_bandwidth_runs(self, data_dir, tmp_path, flags):
        assert main(rerank_args(data_dir, tmp_path / "run", *flags)) == EXIT_OK
        assert np.isfinite(read_npy((tmp_path / "run" / "dist.npy").read_bytes())).all()

    @pytest.mark.parametrize("command", ["synth", "rerank"])
    def test_out_of_memory_is_a_data_error(self, data_dir, tmp_path, capsys, monkeypatch, command):
        """Simulated: a real allocation this large could get the test runner killed."""
        text = "Unable to allocate 47.7 GiB for an array with shape (100000000, 64)"

        def exhausted(*args, **kwargs):
            raise MemoryError(text)

        monkeypatch.setattr(pipeline, "generate", exhausted)
        monkeypatch.setattr(pipeline, "compute_refined_distances", exhausted)
        out = tmp_path / "out"
        args = (["synth", "--out", str(out)] if command == "synth"
                else rerank_args(data_dir, out))
        capsys.readouterr()
        assert main(args) == EXIT_DATA
        assert capsys.readouterr() == ("", f"data error: out of memory: {text}\n")
        assert not out.exists() or not any(out.iterdir())

    def test_every_json_written_is_strict(self, data_dir, tmp_path, capsys):
        run = tmp_path / "run"
        for args in (
            synth_args(tmp_path / "synth"),
            rerank_args(data_dir, run, "--sigma", "1e160"),
            eval_args(data_dir, run),
            sweep_args(data_dir, tmp_path / "sweep.json", "--k1", "2,3"),
            sweep_args(data_dir, tmp_path / "sweep.csv"),
            ["pipeline", "--ids", "8", "--per-id", "4", "--dim", "8", "--ablation",
             "--out", str(tmp_path / "pipeline")],
        ):
            capsys.readouterr()
            assert main(args) == EXIT_OK
            if args[0] == "eval":
                strict_json(capsys.readouterr().out)
        written = sorted(tmp_path.rglob("*.json"))
        # two synth manifests, the rerank's, the eval report, the JSON table and
        # two sweep manifests, and the pipeline's own, its synth's and 4 x 2 variant files
        assert len(written) == 17
        for path in written:
            strict_json(path.read_text())


def bad_label_run(data_dir, tmp_path, command, side, content: bytes):
    """Overwrite one label file with `content`, then run eval (of a baseline
    rerank) or sweep on the split; returns (exit code, the file's path)."""
    labels = data_dir / f"{side}_labels.csv"
    labels.write_bytes(content)
    if command == "eval":
        assert main(rerank_args(data_dir, tmp_path / "run", "--baseline")) == EXIT_OK
        args = eval_args(data_dir, tmp_path / "run")
    else:
        args = ["sweep", "--query", str(data_dir / "q.npy"), "--gallery", str(data_dir / "g.npy"),
                "--query-labels", str(data_dir / "q_labels.csv"),
                "--gallery-labels", str(data_dir / "g_labels.csv"),
                "--out", str(tmp_path / "sweep.csv")]
    return main(args), labels


@pytest.mark.parametrize("command", ["eval", "sweep"])
@pytest.mark.parametrize("side", ["q", "g"])
class TestLabelFileErrors:
    """Label files are decoded by `read_labels`, and an error names the file."""

    def test_malformed_line_names_the_file(self, data_dir, tmp_path, capsys, command, side):
        code, labels = bad_label_run(data_dir, tmp_path, command, side,
                                     b"pid,camid\n1,0\n2,1,5\n")
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {labels}: expected 2 fields, got 3 (line 3)\n"

    def test_non_utf8_is_a_typed_label_error(self, data_dir, tmp_path, capsys, command, side):
        code, labels = bad_label_run(data_dir, tmp_path, command, side,
                                     b"pid,camid\n\xff1,0\n")
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {labels}: labels are not valid UTF-8: "), err

    def test_id_beyond_int64_names_the_line(self, data_dir, tmp_path, capsys, command, side):
        code, labels = bad_label_run(data_dir, tmp_path, command, side,
                                     b"pid,camid\n1,0\n99999999999999999999999,1\n")
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == (f"data error: {labels}: pid and camid must be non-negative "
                       "and below 2**63 (line 3)\n")


@pytest.mark.parametrize("command, name", [
    ("rerank", "q.npy"), ("rerank", "g.npy"), ("sweep", "q.npy"), ("sweep", "g.npy"),
    ("eval", "dist.npy"),
])
def test_malformed_npy_names_the_file(data_dir, tmp_path, capsys, command, name):
    """A feature or distance file that is not NPY is a data error that names
    the file, as a label file's is."""
    run = tmp_path / "run"
    if command == "eval":
        assert main(rerank_args(data_dir, run, "--baseline")) == EXIT_OK
    bad = (run if name == "dist.npy" else data_dir) / name
    bad.write_bytes(b"not an npy at all")
    args = {"rerank": rerank_args(data_dir, run), "sweep": sweep_args(data_dir, run / "s.csv"),
            "eval": eval_args(data_dir, run)}[command]
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"data error: {bad}: not an NPY file: bad magic (byte offset 0)\n"


class TestReadOnlyInputs:
    """float64 files load as read-only views; no stage may write into its input."""

    def test_stages_accept_read_only_arrays(self):
        fq, q_labels, fg, g_labels = generate(SynthSpec(num_ids=12, imgs_per_id=6, dim=16, seed=5))
        ro_q = read_npy(write_npy(fq, precision="float64"))
        ro_g = read_npy(write_npy(fg, precision="float64"))
        assert not ro_q.flags.writeable and not ro_g.flags.writeable

        cfg = DmonConfig()
        assert_array_equal(enhance(ro_g, cfg), enhance(fg.copy(), cfg))
        dist = optimize(ro_q, ro_g, AroConfig())
        assert_array_equal(dist, optimize(fq.copy(), fg.copy(), AroConfig()))
        ro_dist = read_npy(write_npy(dist, precision="float64"))
        assert not ro_dist.flags.writeable
        report = evaluate(ro_dist, q_labels, g_labels).to_json_dict()
        assert report == evaluate(dist.copy(), q_labels, g_labels).to_json_dict()


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "rerankit" in capsys.readouterr().out


def test_import_does_not_load_scipy(tmp_path):
    """No command needs scipy: synth, rerank, eval, sweep and --version run
    on numpy alone, so a rerank process never pays scipy's import time."""
    data, run = tmp_path / "data", tmp_path / "run"
    labels = ["--query-labels", str(data / "q_labels.csv"),
              "--gallery-labels", str(data / "g_labels.csv")]
    commands = [
        ["--version"],
        synth_args(data),
        ["rerank", "--query", str(data / "q.npy"), "--gallery", str(data / "g.npy"),
         "--out", str(run), "--orders", "4"],
        ["eval", "--dist", str(run / "dist.npy"), *labels],
        ["sweep", "--query", str(data / "q.npy"), "--gallery", str(data / "g.npy"), *labels,
         "--k1", "1,3", "--fill", "0", "--out", str(tmp_path / "sweep.csv")],
    ]
    code = (
        "import sys\n"
        "from rerankit.cli import main\n"
        f"codes = [main(args) for args in {commands!r}]\n"
        "print(codes)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2] == str([EXIT_OK] * len(commands))
    assert lines[-1] == "[]"
