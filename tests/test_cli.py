import json
import os
import shutil
import struct

import numpy as np
import pytest

from lungsound import cli, dataset, evaluation, nn
from lungsound.rng import substream
from report_fixtures import BASELINE_CM, SEMI_CM
from test_audio_io import make_wav


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


def _data_error(code, out, err):
    return code == 2 and out == "" and len(err.splitlines()) == 1 and "Traceback" not in err


def test_extract_drops_partial_trailing_sample(capsys, tmp_path, small_corpus):
    audio_dir = tmp_path / "audio"
    audio_dir.mkdir()
    wavs = sorted(small_corpus["audio_dir"].glob("*.wav"))[:4]
    for wav in wavs[2:]:
        shutil.copy(wav, audio_dir)
    data = wavs[0].read_bytes()  # a 44-byte header, then the data payload
    rate = struct.unpack_from("<I", data, 24)[0]
    (audio_dir / wavs[0].name).write_bytes(make_wav(data[44:] + b"\x01", rate=rate))
    (audio_dir / wavs[1].name).write_bytes(make_wav(b"\x01", rate=rate))  # no whole sample
    cache = tmp_path / "cache.lsfc"
    code, out, err = run_cli(capsys, "extract", "--audio-dir", str(audio_dir),
                             "--diagnosis-csv", str(small_corpus["csv"]),
                             "--out", str(cache), "--jobs", "1")
    assert code == 0, err
    assert "cached 3 recordings" in out and "(1 failed)" in out
    assert len(dataset.FeatureCache.load(cache)) == 3


def test_extract_jobs_default_counts_usable_cpus(monkeypatch):
    # a process may run on fewer CPUs than the machine has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    args = cli.build_parser().parse_args(["extract", "--audio-dir", "a",
                                          "--diagnosis-csv", "b", "--out", "c"])
    assert args.jobs == 1


def test_extract_non_utf8_diagnosis_csv_is_data_error(capsys, tmp_path, small_corpus):
    csv = tmp_path / "diagnosis.csv"
    csv.write_bytes(b"101,URTI\n102,\xff\xfeCOPD\n")
    result = run_cli(capsys, "extract", "--audio-dir", str(small_corpus["audio_dir"]),
                     "--diagnosis-csv", str(csv), "--out", str(tmp_path / "c.lsfc"))
    assert _data_error(*result), result
    assert "MalformedCsv" in result[2] and "UTF-8" in result[2]


def test_extract_conflicting_diagnoses_is_data_error(capsys, tmp_path, small_corpus):
    lines = small_corpus["csv"].read_text().splitlines()
    pid, diagnosis = lines[0].split(",")
    other = "COPD" if diagnosis != "COPD" else "URTI"
    csv = tmp_path / "diagnosis.csv"
    csv.write_text("\n".join(lines + [f"{pid},{diagnosis}", f"{pid},{other}"]) + "\n")
    result = run_cli(capsys, "extract", "--audio-dir", str(small_corpus["audio_dir"]),
                     "--diagnosis-csv", str(csv), "--out", str(tmp_path / "c.lsfc"))
    assert _data_error(*result), result
    assert "MalformedCsv" in result[2]
    assert f"{csv}:{len(lines) + 2}:" in result[2] and "line 1" in result[2]


def test_extract_audio_dir_naming_a_file_is_data_error(capsys, tmp_path, small_corpus):
    result = run_cli(capsys, "extract", "--audio-dir", str(small_corpus["csv"]),
                     "--diagnosis-csv", str(small_corpus["csv"]),
                     "--out", str(tmp_path / "c.lsfc"))
    assert _data_error(*result), result
    assert "NotADirectoryError" in result[2]


def test_damaged_cache_is_data_error(capsys, tmp_path, small_corpus):
    data = small_corpus["cache_path"].read_bytes()
    trailer_at = 42 + 48 * (5 + 4 * 40 * 862)
    cache = tmp_path / "damaged.lsfc"
    for blob in (data[:20], data[:100_000], data[:trailer_at] + b"\xff{"):
        cache.write_bytes(blob)
        result = run_cli(capsys, "split", "--cache", str(cache),
                         "--out", str(tmp_path / "m.json"))
        assert _data_error(*result), result
        assert "MalformedHeader" in result[2]


@pytest.mark.parametrize("text", [
    "{not json",
    json.dumps({"train_unlabeled": [], "test": [1], "seed": 0, "unlabeled_fraction": 0.0}),
    json.dumps({"train_labeled": "abc", "train_unlabeled": [], "test": [1], "seed": 0,
                "unlabeled_fraction": 0.0}),
    json.dumps({"train_labeled": [0, 2 ** 70], "train_unlabeled": [], "test": [1], "seed": 0,
                "unlabeled_fraction": 0.0}),
    b"{\xff}",
])
def test_malformed_split_manifest_is_data_error(capsys, tmp_path, small_corpus, text):
    manifest = tmp_path / "split.json"
    manifest.write_bytes(text if isinstance(text, bytes) else text.encode())
    result = run_cli(capsys, "train", "--cache", str(small_corpus["cache_path"]),
                     "--manifest", str(manifest), "--mode", "baseline",
                     "--out-dir", str(tmp_path / "run"), "--epochs", "1")
    assert _data_error(*result), result
    assert "split manifest" in result[2]


def test_evaluate_refuses_checkpoint_it_cannot_score(capsys, tmp_path, small_corpus, small_split):
    manifest = tmp_path / "split.json"
    small_split.save(manifest)
    meta = {"config_hash": small_corpus["cache"].config_hash.hex()}
    nan_params = nn.init_params(substream(0, "init"))
    nan_params.dense_b[0] = np.nan
    for params, reason in ((nn.init_params(substream(0, "init"), nn.CnnSpec((8, 16), (2, 3))),
                            "production network"),
                           (nan_params, "not all finite")):
        ckpt = tmp_path / "model.lsnn"
        nn.save_checkpoint(ckpt, params, meta)
        result = run_cli(capsys, "evaluate", "--checkpoint", str(ckpt),
                         "--cache", str(small_corpus["cache_path"]), "--manifest", str(manifest),
                         "--report", str(tmp_path / "r.txt"))
        assert _data_error(*result), result
        assert reason in result[2]
        assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("mean, std", [
    ([0.0] * 3, [1.0] * 3),                 # not one entry per coefficient row
    ([0.0] * 40, [1.0] * 39),
    ([[0.0] * 40], [[1.0] * 40]),
    ([float("nan")] + [0.0] * 39, [1.0] * 40),
    ([0.0] * 40, [float("inf")] + [1.0] * 39),
    ([0.0] * 40, [0.0] + [1.0] * 39),       # a std that is not > 0
    ([0.0] * 40, [-1.0] * 40),
    ([0.0] * 40, "wide"),
])
def test_evaluate_refuses_bad_normalizer(capsys, tmp_path, small_corpus, small_split, mean, std):
    manifest = tmp_path / "split.json"
    small_split.save(manifest)
    ckpt = tmp_path / "model.lsnn"
    nn.save_checkpoint(ckpt, nn.init_params(substream(0, "init")),
                       {"config_hash": small_corpus["cache"].config_hash.hex(),
                        "norm_mean": mean, "norm_std": std})
    result = run_cli(capsys, "evaluate", "--checkpoint", str(ckpt),
                     "--cache", str(small_corpus["cache_path"]), "--manifest", str(manifest),
                     "--report", str(tmp_path / "r.txt"))
    assert _data_error(*result), result
    assert "normalizer" in result[2]
    assert not (tmp_path / "r.txt").exists()
