import json

import numpy as np
import pytest

from lungsound import cli, evaluation
from report_fixtures import BASELINE_CM, SEMI_CM


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero(capsys):
    for sub in ("extract", "split", "train", "evaluate", "compare"):
        code, out, _ = run_cli(capsys, sub, "--help")
        assert code == 0
        assert "usage" in out.lower()
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "split", "--cache", "x", "--out", "y", "--frobnicate")
    assert code == 1
    assert "usage" in err.lower() or "error" in err.lower()


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, )
    assert code == 1


def test_missing_file_is_data_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "split", "--cache", str(tmp_path / "nope.lsfc"),
                           "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert "error" in err.lower()


def test_full_pipeline(capsys, tmp_path, small_corpus):
    cache = tmp_path / "cache.lsfc"
    manifest = tmp_path / "split.json"
    out_dir = tmp_path / "run"
    report = tmp_path / "report.txt"
    report_json = tmp_path / "report.json"
    confusion_csv = tmp_path / "confusion.csv"

    # cycle-annotation text files next to the audio must be ignored
    (small_corpus["audio_dir"] / "100_1b1_Tc_sc_Synth.txt").write_text(
        "0.0\t1.2\t0\t1\n1.2\t2.0\t1\t0\n")
    code, out, _ = run_cli(capsys, "extract",
                           "--audio-dir", str(small_corpus["audio_dir"]),
                           "--diagnosis-csv", str(small_corpus["csv"]),
                           "--out", str(cache), "--jobs", "1")
    assert code == 0
    assert "cached 48 recordings" in out

    code, out, _ = run_cli(capsys, "split", "--cache", str(cache), "--seed", "3",
                           "--unlabeled-fraction", "0.4", "--out", str(manifest))
    assert code == 0
    assert manifest.exists()

    code, out, _ = run_cli(capsys, "train", "--cache", str(cache),
                           "--manifest", str(manifest), "--mode", "baseline",
                           "--seed", "0", "--out-dir", str(out_dir),
                           "--epochs", "1", "--batch-size", "8")
    assert code == 0
    ckpt = out_dir / "baseline-seed0.lsnn"
    assert ckpt.exists()
    assert (out_dir / "baseline-seed0-manifest.json").exists()

    code, out, _ = run_cli(capsys, "evaluate", "--checkpoint", str(ckpt),
                           "--cache", str(cache), "--manifest", str(manifest),
                           "--report", str(report), "--json", str(report_json),
                           "--confusion", str(confusion_csv))
    assert code == 0
    assert "precision" in report.read_text()
    assert "accuracy" in out
    parsed = json.loads(report_json.read_text())
    assert "accuracy" in parsed
    assert confusion_csv.read_text().startswith("true\\predicted")

    run_manifest = json.loads((out_dir / "baseline-seed0-manifest.json").read_text())
    assert run_manifest["seed"] == 0
    assert run_manifest["feature_config_hash"]
    assert run_manifest["config"]["epochs"] == 1


def test_train_semi_with_drop(capsys, tmp_path, small_corpus):
    cache = small_corpus["cache_path"]
    manifest = tmp_path / "split.json"
    run_cli(capsys, "split", "--cache", str(cache), "--seed", "1",
            "--unlabeled-fraction", "0.4", "--out", str(manifest))
    code, _, _ = run_cli(capsys, "train", "--cache", str(cache),
                         "--manifest", str(manifest), "--mode", "semi",
                         "--drop", "co_refinement", "--seed", "2",
                         "--out-dir", str(tmp_path / "run"), "--epochs", "1",
                         "--refit-epochs", "1", "--batch-size", "8")
    assert code == 0
    data = json.loads((tmp_path / "run" / "semi-drop-co_refinement-seed2-manifest.json")
                      .read_text())
    assert data["ablation"] == "co_refinement"
    assert data["schedule"][0]["passes"] == ["mixmatch", "co_refurbishing"]


def test_drop_with_baseline_rejected(capsys, tmp_path, small_corpus):
    manifest = tmp_path / "split.json"
    run_cli(capsys, "split", "--cache", str(small_corpus["cache_path"]), "--out",
            str(manifest))
    code, _, err = run_cli(capsys, "train", "--cache", str(small_corpus["cache_path"]),
                           "--manifest", str(manifest), "--mode", "baseline",
                           "--drop", "both", "--seed", "0",
                           "--out-dir", str(tmp_path / "run"), "--epochs", "1")
    assert code == 2
    assert "drop" in err


def test_evaluate_config_hash_mismatch(capsys, tmp_path, small_corpus):
    cache_a = small_corpus["cache_path"]
    manifest = tmp_path / "split.json"
    out_dir = tmp_path / "run"
    run_cli(capsys, "split", "--cache", str(cache_a), "--out", str(manifest))
    run_cli(capsys, "train", "--cache", str(cache_a), "--manifest", str(manifest),
            "--mode", "baseline", "--seed", "0", "--out-dir", str(out_dir),
            "--epochs", "1", "--batch-size", "8")
    # rebuild the cache with a different hop length: different config hash
    cache_b = tmp_path / "other.lsfc"
    code, _, _ = run_cli(capsys, "extract", "--audio-dir", str(small_corpus["audio_dir"]),
                         "--diagnosis-csv", str(small_corpus["csv"]),
                         "--out", str(cache_b), "--hop-length", "256", "--jobs", "1")
    assert code == 0
    code, _, err = run_cli(capsys, "evaluate",
                           "--checkpoint", str(out_dir / "baseline-seed0.lsnn"),
                           "--cache", str(cache_b), "--manifest", str(manifest),
                           "--report", str(tmp_path / "r.txt"))
    assert code == 2
    assert "ConfigHashMismatch" in err


def test_compare_reports_pneumonia_delta(capsys, tmp_path):
    a = tmp_path / "baseline.json"
    b = tmp_path / "semi.json"
    a.write_text(evaluation.report(BASELINE_CM).to_json())
    b.write_text(evaluation.report(SEMI_CM).to_json())
    code, out, _ = run_cli(capsys, "compare", "--a", str(a), "--b", str(b))
    assert code == 0
    pneumonia_precision = next(line for line in out.splitlines()
                               if "Pneumonia" in line and "precision" in line)
    assert "+0.42" in pneumonia_precision
    assert any("accuracy" in line and "+0.04" in line for line in out.splitlines())


def test_compare_report_missing_class_is_data_error(capsys, tmp_path):
    a = tmp_path / "baseline.json"
    b = tmp_path / "semi.json"
    a.write_text(evaluation.report(BASELINE_CM).to_json())
    damaged = json.loads(evaluation.report(SEMI_CM).to_json())
    del damaged["Pneumonia"]
    b.write_text(json.dumps(damaged))
    code, out, err = run_cli(capsys, "compare", "--a", str(a), "--b", str(b))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "Pneumonia" in err
