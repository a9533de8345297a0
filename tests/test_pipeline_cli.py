import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from rerankit.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK, main
from rerankit.enhance import DmonConfig, enhance
from rerankit.io_formats import read_json, read_npy, write_npy
from rerankit.matrix_ops import l2_normalize_rows, pairwise_sq_euclidean
from rerankit.metrics import evaluate
from rerankit.optimize import AroConfig, optimize
from rerankit.pipeline import PipelineConfig, compute_refined_distances
from rerankit.synthetic import SynthSpec, generate


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
        manifest = read_json((out / "manifest.json").read_text())
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
        assert_array_equal(dist, pairwise_sq_euclidean(fq, fg))

    def test_manifest_records_effective_params(self, data_dir, tmp_path):
        out = tmp_path / "run"
        code = main([
            "rerank", "--query", str(data_dir / "q.npy"), "--gallery",
            str(data_dir / "g.npy"), "--out", str(out), "--preset", "market1501",
        ])
        assert code == EXIT_OK
        manifest = read_json((out / "manifest.json").read_text())
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
        manifest = read_json((out / "manifest.json").read_text())
        assert manifest["params"]["dmon"]["k1"] == 5
        assert manifest["params"]["aro"]["k2"] == 2
        assert manifest["params"]["dmon"]["batch_size"] == 10000

    def test_dukemtmc_preset(self, data_dir, tmp_path):
        out = tmp_path / "run"
        code = main([
            "rerank", "--query", str(data_dir / "q.npy"), "--gallery",
            str(data_dir / "g.npy"), "--out", str(out), "--preset", "dukemtmc",
        ])
        assert code == EXIT_OK
        manifest = read_json((out / "manifest.json").read_text())
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
        manifest = read_json((out / "manifest.json").read_text())
        assert manifest["params"]["dmon"]["k1"] == 4
        assert manifest["params"]["dmon"]["gamma"] == 0.5
        assert manifest["params"]["aro"]["k2"] == 20

    def test_mode_flags_recorded_in_manifest(self, data_dir, tmp_path):
        out = tmp_path / "run"
        code = main([
            "rerank", "--query", str(data_dir / "q.npy"), "--gallery",
            str(data_dir / "g.npy"), "--out", str(out),
            "--joint", "--aro-on-raw", "--no-pre-normalize",
        ])
        assert code == EXIT_OK
        params = read_json((out / "manifest.json").read_text())["params"]
        assert params["dmon_joint"] is True
        assert params["aro_uses_enhanced"] is False
        assert params["dmon"]["pre_normalize"] is False
        assert params["aro"]["pre_normalize"] is False

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

    def test_corrupt_npy_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.npy"
        bad.write_bytes(b"not an npy at all")
        code = main([
            "rerank", "--query", str(bad), "--gallery", str(bad),
            "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_DATA


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
        doc = read_json(report_path.read_text())
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


class TestSweepCommand:
    def test_grid_rows_and_baseline(self, data_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--query", str(data_dir / "q.npy"),
            "--gallery", str(data_dir / "g.npy"),
            "--query-labels", str(data_dir / "q_labels.csv"),
            "--gallery-labels", str(data_dir / "g_labels.csv"),
            "--k1", "1,2", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("label,k1,k2,gamma,orders")
        assert len(lines) == 1 + 1 + 2  # header, baseline, two grid cells
        assert lines[1].split(",")[0] == "baseline"

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
        out = tmp_path / "sweep.json"
        assert main([
            "sweep", "--query", str(data_dir / "q.npy"),
            "--gallery", str(data_dir / "g.npy"),
            "--query-labels", str(data_dir / "q_labels.csv"),
            "--gallery-labels", str(data_dir / "g_labels.csv"),
            "--k1", "2", "--out", str(out), "--format", "json",
        ]) == EXIT_OK
        rows = read_json(out.read_text())
        assert rows[0]["label"] == "baseline"
        assert {"mAP", "rank1", "delta_mAP"} <= set(rows[1])

    def test_writes_manifest(self, data_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--query", str(data_dir / "q.npy"),
            "--gallery", str(data_dir / "g.npy"),
            "--query-labels", str(data_dir / "q_labels.csv"),
            "--gallery-labels", str(data_dir / "g_labels.csv"),
            "--k1", "1,2", "--out", str(out),
        ]) == EXIT_OK
        manifest = read_json(Path(f"{out}.manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["params"]["k1"] == [1, 2]


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
        manifest = read_json((out / "pipeline_manifest.json").read_text())
        assert manifest["params"]["ablation"] is True
        assert manifest["outputs"]["variants"] == ["baseline", "aro", "dmon", "dmon_aro"]
        report = read_json((out / "dmon_aro" / "report.json").read_text())
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

    def test_aro_on_raw_ignores_enhancement(self):
        fq, _, fg, _ = generate(SynthSpec(num_ids=6, imgs_per_id=5, dim=8, seed=5))
        with_raw = compute_refined_distances(
            fq, fg, PipelineConfig(aro_uses_enhanced=False)
        )
        aro_only = compute_refined_distances(
            fq, fg, PipelineConfig(dmon_on=False)
        )
        assert_array_equal(with_raw, aro_only)

    def test_batch_flag_only_chunks_gallery(self):
        fq, _, fg, _ = generate(SynthSpec(num_ids=8, imgs_per_id=5, dim=8, seed=9))
        cfg = PipelineConfig(
            dmon=DmonConfig(batch_size=7), aro=AroConfig(), aro_on=False
        )
        out = compute_refined_distances(fq, fg, cfg)
        assert np.all(np.isfinite(out))


class TestReadOnlyInputs:
    """float64 files load as read-only views; no stage may write into its input."""

    def test_stages_accept_read_only_arrays(self):
        fq, q_labels, fg, g_labels = generate(SynthSpec(num_ids=12, imgs_per_id=6, dim=16, seed=5))
        ro_q = read_npy(write_npy(fq, precision="float64"))
        ro_g = read_npy(write_npy(fg, precision="float64"))
        assert not ro_q.flags.writeable and not ro_g.flags.writeable

        cfg = DmonConfig()
        assert_array_equal(enhance(ro_g, cfg), enhance(fg.copy(), cfg))
        for limit in (8192, 0):  # dense and streamed ARO routes
            dist = optimize(ro_q, ro_g, AroConfig(), dense_gallery_limit=limit)
            assert_array_equal(dist, optimize(fq.copy(), fg.copy(), AroConfig(), dense_gallery_limit=limit))
        ro_dist = read_npy(write_npy(dist, precision="float64"))
        assert not ro_dist.flags.writeable
        report = evaluate(ro_dist, q_labels, g_labels).to_json_dict()
        assert report == evaluate(dist.copy(), q_labels, g_labels).to_json_dict()


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "rerankit" in capsys.readouterr().out
