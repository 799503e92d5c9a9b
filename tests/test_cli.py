import json
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lungsound import cli, dataset, evaluation, features, nn
from lungsound.rng import substream
from conftest import cached_corpus
from report_fixtures import BASELINE_CM, SEMI_CM
from test_audio_io import make_wav


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _data_error(code, out, err):
    return code == 2 and out == "" and len(err.splitlines()) == 1 and "Traceback" not in err


def test_help_exits_zero(capsys):
    for sub in ("extract", "split", "train", "evaluate", "compare"):
        code, out, _ = run_cli(capsys, sub, "--help")
        assert code == 0
        assert "usage" in out.lower()
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    # the front end is fixed: extract takes no option that could change the grid
    _, out, _ = run_cli(capsys, "extract", "--help")
    assert set(re.findall(r"--[a-z-]+", out)) == {"--help", "--audio-dir", "--diagnosis-csv",
                                                  "--out", "--jobs"}


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
    assert "cached 48 recordings" in out and "failed" not in out  # 2 Asthma WAVs dropped
    assert len(list(small_corpus["audio_dir"].glob("*.wav"))) == 50

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
    assert run_manifest["config"]["unlabeled_loss_weight"] == 1.0
    assert "ssl" not in run_manifest["config"]


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


def test_train_non_finite_features_is_numeric_error(capsys, tmp_path, small_corpus,
                                                    small_split):
    rec_id = small_split.train_labeled[0]
    row = int(small_corpus["cache"].rows([rec_id])[0])
    data = bytearray(small_corpus["cache_path"].read_bytes())
    at = 42 + row * (5 + 4 * 40 * 862) + 5  # header, earlier records, then id and class
    data[at:at + 4] = struct.pack("<f", float("nan"))
    cache = tmp_path / "nan.lsfc"
    cache.write_bytes(bytes(data))
    assert np.isnan(dataset.FeatureCache.load(cache).gather([rec_id])).sum() == 1
    manifest = tmp_path / "split.json"
    small_split.save(manifest)
    code, out, err = run_cli(capsys, "train", "--cache", str(cache), "--manifest", str(manifest),
                             "--mode", "baseline", "--out-dir", str(tmp_path / "run"),
                             "--epochs", "1", "--batch-size", "8")
    assert code == 3 and out == "", (code, out, err)
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "epoch 0, batch 0" in err
    run = json.loads((tmp_path / "run" / "baseline-seed0-manifest.json").read_text())
    assert run["aborted"]["epoch"] == 0 and "loss" in run["aborted"]["error"]
    assert not (tmp_path / "run" / "baseline-seed0.lsnn").exists()


def test_train_step_to_non_finite_parameters_is_numeric_error(capsys, tmp_path, small_corpus,
                                                              small_split):
    # finite features, loss and gradient; the update overflows float32
    manifest = tmp_path / "split.json"
    small_split.save(manifest)
    code, out, err = run_cli(capsys, "train", "--cache", str(small_corpus["cache_path"]),
                             "--manifest", str(manifest), "--mode", "baseline",
                             "--out-dir", str(tmp_path / "run"), "--epochs", "1",
                             "--batch-size", "64", "--validation-fraction", "0",
                             "--learning-rate", "1e39")
    assert code == 3 and out == "", (code, out, err)
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "epoch 0, batch 0" in err and "parameters" in err
    run = json.loads((tmp_path / "run" / "baseline-seed0-manifest.json").read_text())
    assert run["aborted"]["epoch"] == 0 and "parameters" in run["aborted"]["error"]
    assert not (tmp_path / "run" / "baseline-seed0.lsnn").exists()


def test_train_numeric_error_prints_one_stderr_line(tmp_path, small_corpus, small_split):
    """Run as its own process, so numpy warnings reach stderr as a user sees them."""
    manifest = tmp_path / "split.json"
    small_split.save(manifest)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "lungsound.cli", "train",
         "--cache", str(small_corpus["cache_path"]), "--manifest", str(manifest),
         "--mode", "baseline", "--out-dir", str(tmp_path / "run"), "--epochs", "1",
         "--batch-size", "64", "--validation-fraction", "0", "--learning-rate", "1e39"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3 and proc.stdout == "", (proc.returncode, proc.stderr)
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "parameters" in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize("flag, value", [("--refit-epochs", "-3"), ("--patience", "0"),
                                         ("--patience", "-1"), ("--learning-rate", "nan"),
                                         ("--learning-rate", "inf"), ("--learning-rate", "0"),
                                         ("--learning-rate", "-1"),
                                         ("--unlabeled-loss-weight", "1.5")])
def test_train_bad_config_is_usage_error(capsys, tmp_path, small_corpus, small_split,
                                         flag, value):
    manifest = tmp_path / "split.json"
    small_split.save(manifest)
    code, out, err = run_cli(capsys, "train", "--cache", str(small_corpus["cache_path"]),
                             "--manifest", str(manifest), "--mode", "semi",
                             "--out-dir", str(tmp_path / "run"), "--epochs", "1",
                             "--batch-size", "8", flag, value)
    assert code == 1 and out == "", (code, out, err)
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_split_bad_unlabeled_fraction_is_usage_error(capsys, tmp_path, small_corpus):
    code, out, err = run_cli(capsys, "split", "--cache", str(small_corpus["cache_path"]),
                             "--unlabeled-fraction", "1.5", "--out", str(tmp_path / "m.json"))
    assert code == 1 and out == "", (code, out, err)
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "unlabeled_fraction" in err
    assert not (tmp_path / "m.json").exists()


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
    assert not dataset.build_feature_cache(small_corpus["entries"],
                                           features.MfccConfig(hop_length=256), cache_b)
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
    result = run_cli(capsys, "compare", "--a", str(a), "--b", str(b))
    assert _data_error(*result), result
    assert "Pneumonia" in result[2]


@pytest.mark.parametrize("damage, reason", [
    (lambda d: d.update(accuracy=float("nan")), "accuracy"),
    (lambda d: d["COPD"].update(support=-3.7), "COPD support"),
    (lambda d: d["COPD"].update(support=-3), "COPD support"),
    (lambda d: d["URTI"].update(support=2.5), "URTI support"),
    (lambda d: d["Healthy"].update(precision=1.5), "Healthy precision"),
    (lambda d: d["macro avg"].update(recall=float("inf")), "macro avg recall"),
    (lambda d: d["weighted avg"].update({"f1-score": -0.1}), "weighted avg f1-score"),
], ids=["nan-accuracy", "fractional-negative-support", "negative-support",
        "fractional-support", "precision-above-one", "infinite-recall", "negative-f1"])
def test_compare_refuses_report_it_cannot_compare(capsys, tmp_path, damage, reason):
    a = tmp_path / "baseline.json"
    b = tmp_path / "semi.json"
    a.write_text(evaluation.report(BASELINE_CM).to_json())
    damaged = json.loads(evaluation.report(SEMI_CM).to_json())
    damage(damaged)
    b.write_text(json.dumps(damaged))
    result = run_cli(capsys, "compare", "--a", str(a), "--b", str(b))
    assert _data_error(*result), result
    assert reason in result[2]


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


def test_extract_only_out_of_scope_diagnoses_is_data_error(capsys, tmp_path, small_corpus):
    lines = small_corpus["csv"].read_text().splitlines()
    csv = tmp_path / "diagnosis.csv"
    csv.write_text("".join(f"{line}\n" for line in lines if line.endswith(",Asthma")))
    result = run_cli(capsys, "extract", "--audio-dir", str(small_corpus["audio_dir"]),
                     "--diagnosis-csv", str(csv), "--out", str(tmp_path / "c.lsfc"))
    assert _data_error(*result), result
    assert "no usable recordings" in result[2]
    assert not (tmp_path / "c.lsfc").exists()


@pytest.mark.parametrize("flag, value", [("--sample-rate", "16000"), ("--clip-seconds", "10"),
                                         ("--frame-length", "512"), ("--hop-length", "256")])
def test_extract_front_end_flag_is_usage_error(capsys, tmp_path, small_corpus, flag, value):
    # the cache and the network fix the 40x862 grid; these flags could only
    # truncate, zero-pad or break it
    cache = tmp_path / "c.lsfc"
    code, out, err = run_cli(capsys, "extract", "--audio-dir", str(small_corpus["audio_dir"]),
                             "--diagnosis-csv", str(small_corpus["csv"]), "--out", str(cache),
                             "--jobs", "1", flag, value)
    assert code == 1 and out == "", (code, out, err)
    assert "unrecognized arguments" in err and "Traceback" not in err
    assert not cache.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_extract_jobs_below_one_is_usage_error(capsys, tmp_path, small_corpus, jobs):
    cache = tmp_path / "c.lsfc"
    code, out, err = run_cli(capsys, "extract", "--audio-dir", str(small_corpus["audio_dir"]),
                             "--diagnosis-csv", str(small_corpus["csv"]), "--out", str(cache),
                             "--jobs", jobs)
    assert code == 1 and out == "", (code, out, err)
    assert len(err.splitlines()) == 1 and "Traceback" not in err and "jobs" in err
    assert not cache.exists()


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


def _edited_cache(tmp_path, small_corpus, edit):
    """small_corpus's cache file after edit(records, trailer) changed its
    record array or its trailer dict in place."""
    data = small_corpus["cache_path"].read_bytes()
    recs = np.frombuffer(data, dataset._RECORD, len(small_corpus["cache"]), 42).copy()
    trailer = json.loads(data[42 + recs.nbytes:])
    edit(recs, trailer)
    path = tmp_path / "edited.lsfc"
    path.write_bytes(data[:42] + recs.tobytes() + json.dumps(trailer).encode())
    return path


def _duplicate_id(recs, trailer):
    del trailer["stems"][str(recs["id"][1])]  # so the stems still name every record
    recs["id"][1] = recs["id"][0]


def _swap_ids(recs, trailer):
    recs["id"][[0, 1]] = recs["id"][[1, 0]]


def _class_of_first(cls):
    def edit(recs, trailer):
        recs["cls"][0] = cls
    return edit


def _drop_first_stem(recs, trailer):
    del trailer["stems"][str(recs["id"][0])]


def _add_stem(recs, trailer):
    trailer["stems"][str(recs["id"][-1] + 1)] = "999_1b1_Tc_sc_Synth"


def _number_stem(recs, trailer):
    trailer["stems"][str(recs["id"][0])] = 5  # split --by-patient parses every stem


@pytest.mark.parametrize("edit, reason", [
    (_duplicate_id, "strictly increasing"),
    (_swap_ids, "strictly increasing"),
    (_class_of_first(nn.N_CLASSES), f"outside -1..{nn.N_CLASSES - 1}"),
    (_class_of_first(7), f"outside -1..{nn.N_CLASSES - 1}"),
    (_class_of_first(-2), f"outside -1..{nn.N_CLASSES - 1}"),
    (_drop_first_stem, "stems do not name exactly the records"),
    (_add_stem, "stems do not name exactly the records"),
    (_number_stem, "stem is not a string"),
], ids=["duplicate-id", "swapped-ids", "class-6", "class-7", "class-minus-2", "stem-missing",
        "stem-extra", "stem-not-string"])
def test_split_refuses_cache_breaking_its_format(capsys, tmp_path, small_corpus, edit, reason):
    result = run_cli(capsys, "split", "--by-patient",
                     "--cache", str(_edited_cache(tmp_path, small_corpus, edit)),
                     "--out", str(tmp_path / "m.json"))
    assert _data_error(*result), result
    assert "MalformedHeader" in result[2] and reason in result[2]
    assert not (tmp_path / "m.json").exists()


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
    meta = {"config_hash": small_corpus["cache"].config_hash.hex()}  # no normalizer
    good = nn.init_params(substream(0, "init"))
    nan_params = good.copy()
    nan_params.dense_b[0] = np.nan
    for params, metadata, reason in (
            (nn.init_params(substream(0, "init"), nn.CnnSpec((2, 3))), meta,
             "production network"),
            (nan_params, meta, "not all finite"),
            (good, [1, 2], "not a JSON object"),
            (good, meta, "unreadable normalizer"),
            (good, {"norm_mean": [0.0] * 40, "norm_std": [1.0] * 40}, "feature-config hash")):
        ckpt = tmp_path / "model.lsnn"
        nn.save_checkpoint(ckpt, params, metadata)
        result = run_cli(capsys, "evaluate", "--checkpoint", str(ckpt),
                         "--cache", str(small_corpus["cache_path"]), "--manifest", str(manifest),
                         "--report", str(tmp_path / "r.txt"))
        assert _data_error(*result), result
        assert reason in result[2]
        assert not (tmp_path / "r.txt").exists()


def test_train_and_evaluate_refuse_split_of_another_cache(capsys, tmp_path, small_corpus):
    # a split made from a smaller corpus: its ids name other recordings in small_corpus
    other = cached_corpus(tmp_path / "other", recordings_per_class=4, seed=2, duration_s=1.0)
    manifest = tmp_path / "split.json"
    assert run_cli(capsys, "split", "--cache", str(other["cache_path"]),
                   "--out", str(manifest))[0] == 0
    cache = str(small_corpus["cache_path"])
    result = run_cli(capsys, "train", "--cache", cache, "--manifest", str(manifest),
                     "--mode", "baseline", "--out-dir", str(tmp_path / "run"), "--epochs", "1")
    assert _data_error(*result), result
    assert "SplitCacheMismatch" in result[2] and "another cache" in result[2]
    assert not (tmp_path / "run").exists()

    ckpt = tmp_path / "model.lsnn"
    nn.save_checkpoint(ckpt, nn.init_params(substream(0, "init")),
                       {"config_hash": small_corpus["cache"].config_hash.hex(),
                        "norm_mean": [0.0] * 40, "norm_std": [1.0] * 40})
    evaluate = ("evaluate", "--checkpoint", str(ckpt), "--cache", cache,
                "--report", str(tmp_path / "r.txt"))
    result = run_cli(capsys, *evaluate, "--manifest", str(manifest))
    assert _data_error(*result), result
    assert "SplitCacheMismatch" in result[2]
    assert not (tmp_path / "r.txt").exists()

    # the cache's own split, and a split that records no stems, still score
    own = tmp_path / "own.json"
    assert run_cli(capsys, "split", "--cache", cache, "--out", str(own))[0] == 0
    assert run_cli(capsys, *evaluate, "--manifest", str(own))[0] == 0
    bare = json.loads(manifest.read_text())
    del bare["stems"]
    manifest.write_text(json.dumps(bare))
    assert run_cli(capsys, *evaluate, "--manifest", str(manifest))[0] == 0


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
