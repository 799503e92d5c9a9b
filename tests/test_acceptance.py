"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-7 run on synthetic data and are part of the default suite. The
corpus-scale run (criterion 8) takes hours and only activates when the
LUNGSOUND_ICBHI_DIR environment variable points at a real corpus directory
(audio_and_txt_files/ plus patient_diagnosis.csv).
"""

import functools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from lungsound import dataset, evaluation, features, nn, training
from lungsound.features import MfccConfig, extract_mfcc
from lungsound.audio_io import AudioClip
from lungsound.rng import substream
from lungsound.training import FeatureNormalizer, TrainConfig, train_baseline, train_semi

import nn_oracle as oracle
from conftest import cached_corpus
from report_fixtures import BASELINE_CM, BASELINE_EXPECTED, SEMI_CM, SEMI_EXPECTED
from reference_mfcc import reference_mfcc
from test_dataset import labels_from_counts


def criterion(n, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE criterion {n}: FAIL: {description}")
                raise
            print(f"\nACCEPTANCE criterion {n}: PASS: {description}")
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def tone_corpus(tmp_path_factory):
    """Six-class corpus (60 recordings/class) with its cache and split."""
    t0 = time.monotonic()
    cache = cached_corpus(tmp_path_factory.mktemp("tone-corpus"), recordings_per_class=60,
                          seed=0, duration_s=2.0)["cache"]
    labels = {int(r): int(c) for r, c in zip(cache.ids, cache.classes)}
    split = dataset.make_splits(labels, seed=0, unlabeled_fraction=0.5)
    return {"cache": cache, "split": split, "build_seconds": time.monotonic() - t0}


@criterion(1, "MFCC pipeline matches the naive O(N^2)-DFT oracle on 100 random clips")
def test_c1_mfcc_oracle_equivalence():
    t0 = time.monotonic()
    cfg = MfccConfig(clip_seconds=1.0, target_frames=44)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        samples = rng.uniform(-0.9, 0.9, size=22050)
        clip = AudioClip(samples, 22050)
        fast = extract_mfcc(clip, cfg)
        ref = reference_mfcc(samples, 22050, cfg)
        worst = max(worst, float(np.max(np.abs(fast - ref))))
    elapsed = time.monotonic() - t0
    print(f"\n  max-abs difference over 100 clips: {worst:.2e} ({elapsed:.1f}s)")
    assert worst < 1e-5
    assert elapsed < 60.0


@criterion(2, "backprop gradients match central finite differences on the shrunken net")
def test_c2_gradient_correctness():
    t0 = time.monotonic()
    spec = nn.CnnSpec(input_shape=(8, 16), channels=(2, 3))
    worst = 0.0
    total = 0
    for loss_kind in ("cross_entropy", "squared_error"):
        max_rel, n_params = oracle.gradient_check(spec, seed=0, eps=1e-3,
                                              loss_kind=loss_kind, batch=1)
        worst = max(worst, max_rel)
        total = n_params
    elapsed = time.monotonic() - t0
    print(f"\n  worst relative error over {total} params x 2 losses: "
          f"{worst:.2e} ({elapsed:.1f}s)")
    assert worst < 1e-4
    assert elapsed < 120.0


@criterion(3, "forward pass reproduces the derived shape chain and 44086 parameters")
def test_c3_shape_fidelity():
    spec = nn.CnnSpec()
    expected = [(40, 862, 1),
                (39, 861, 16), (19, 430, 16),
                (18, 429, 32), (9, 214, 32),
                (8, 213, 64), (4, 106, 64),
                (3, 105, 128), (1, 52, 128),
                (128,), (6,)]
    assert oracle.layer_shapes(spec) == expected
    assert oracle.param_count(spec) == 44086
    params = nn.init_params(substream(0, "init"), spec)
    assert sum(a.size for a in params.arrays()) == 44086
    x = np.random.default_rng(3).normal(size=(1, 40, 862)).astype(np.float32)
    probs, trace = nn.forward_batch(params, x, training=False, keep_trace=True)
    assert [t.shape[1:] for t in trace.pool_out] == expected[2::2][:4]
    assert trace.dense_in.shape == (1, 128)
    assert probs.shape == (1, 6)


@criterion(4, "reference confusion matrices reproduce the published report values")
def test_c4_metric_reproduction():
    t0 = time.monotonic()
    semi = evaluation.report(SEMI_CM)
    assert semi.accuracy == pytest.approx(171 / 184)
    assert round(semi.accuracy * 100, 1) == 92.9
    base = evaluation.report(BASELINE_CM)
    assert base.accuracy == pytest.approx(164 / 184)
    assert round(base.accuracy * 100, 1) == 89.1

    for rep, expected in ((semi, SEMI_EXPECTED), (base, BASELINE_EXPECTED)):
        assert [evaluation._fmt2(v) for v in rep.precision] == expected["precision"]
        assert [evaluation._fmt2(v) for v in rep.recall] == expected["recall"]
        assert [evaluation._fmt2(v) for v in rep.f1] == expected["f1"]
        assert evaluation._fmt2(rep.accuracy) == expected["accuracy"]
        assert [evaluation._fmt2(v) for v in rep.macro_avg] == expected["macro"]
        assert [evaluation._fmt2(v) for v in rep.weighted_avg] == expected["weighted"]

    text = evaluation.format_report(semi)
    assert ["COPD", "0.97", "1.00", "0.98", "159"] in [l.split() for l in text.splitlines()]
    assert time.monotonic() - t0 < 1.0


@criterion(5, "stratified split reproduces supports {3,3,159,7,7,5} and the 13/3 class")
def test_c5_split_reproduction():
    t0 = time.monotonic()
    labels = labels_from_counts({0: 16, 1: 13, 2: 793, 3: 35, 4: 37, 5: 23})
    manifest = dataset.make_splits(labels, seed=0, unlabeled_fraction=0.5)
    supports = [sum(1 for r in manifest.test if labels[r] == c) for c in range(6)]
    assert supports == [3, 3, 159, 7, 7, 5]
    assert len(manifest.test) == 184

    small = dataset.make_splits({i: 0 for i in range(16)}, seed=0, unlabeled_fraction=0.0)
    assert (len(small.train_labeled), len(small.test)) == (13, 3)
    assert time.monotonic() - t0 < 1.0


@criterion(6, "neutralized semi-supervised epoch equals a supervised epoch bit-for-bit")
def test_c6_degeneracy_equivalence(tone_corpus):
    t0 = time.monotonic()
    cache, split = tone_corpus["cache"], tone_corpus["split"]
    cfg = TrainConfig(epochs=1, refit_epochs=0, batch_size=16, mode="semi", seed=42,
                      ssl=oracle.neutralized(), validation_fraction=0.0)
    lab_ids, xs_lab, ys_lab, xs_unlab, _ = training._prepare(cache, split)
    onehot = training.one_hot(ys_lab)

    p_semi = nn.init_params(substream(cfg.seed, "init"))
    s_semi = nn.AdamState.for_params(p_semi)
    training.run_mixmatch_epoch(p_semi, s_semi, xs_lab, onehot, xs_unlab, cfg, epoch=0)

    p_sup = nn.init_params(substream(cfg.seed, "init"))
    s_sup = nn.AdamState.for_params(p_sup)
    training.run_supervised_epoch(p_sup, s_sup, xs_lab, onehot, cfg, epoch=0)

    for a, b in zip(p_semi.arrays(), p_sup.arrays()):
        assert np.array_equal(a, b)  # bit-for-bit
    elapsed = time.monotonic() - t0
    print(f"\n  one neutralized epoch vs one supervised epoch: identical ({elapsed:.1f}s)")
    assert elapsed < 60.0


@criterion(7, "synthetic end-to-end: baseline and semi both >= 90%, semi >= baseline")
def test_c7_synthetic_end_to_end(tone_corpus):
    t0 = time.monotonic()
    cache, split = tone_corpus["cache"], tone_corpus["split"]
    base_accs, semi_accs = [], []
    for seed in (0, 1, 2):
        bcfg = TrainConfig(epochs=25, batch_size=16, seed=seed, early_stop_patience=5,
                           validation_fraction=0.1)
        bp, bman = train_baseline(bcfg, cache, split)
        y, p = training.evaluate_split(bp, cache, split,
                                       FeatureNormalizer.from_meta(bman.normalizer))
        base_accs.append(float((y == p).mean()))

        scfg = TrainConfig(epochs=3, refit_epochs=20, batch_size=16, mode="semi",
                           seed=seed, early_stop_patience=5, validation_fraction=0.1)
        sp, sman = train_semi(scfg, cache, split)
        y, p = training.evaluate_split(sp, cache, split,
                                       FeatureNormalizer.from_meta(sman.normalizer))
        semi_accs.append(float((y == p).mean()))

    elapsed = time.monotonic() - t0 + tone_corpus["build_seconds"]
    print(f"\n  baseline accuracies: {[round(a, 3) for a in base_accs]}")
    print(f"  semi accuracies:     {[round(a, 3) for a in semi_accs]}")
    print(f"  total wall clock including corpus build: {elapsed:.0f}s")
    assert all(a >= 0.90 for a in base_accs)
    assert all(a >= 0.90 for a in semi_accs)
    assert np.mean(semi_accs) >= np.mean(base_accs)
    assert elapsed < 900.0


ICBHI_DIR = os.environ.get("LUNGSOUND_ICBHI_DIR")


@pytest.mark.skipif(not ICBHI_DIR, reason="set LUNGSOUND_ICBHI_DIR to run the "
                                          "corpus-scale reproduction (hours)")
@criterion(8, "corpus-scale reproduction: semi vs baseline and single-module ablations")
def test_c8_corpus_scale_reproduction(tmp_path):
    root = Path(ICBHI_DIR)
    audio_dir = root / "audio_and_txt_files"
    csv_path = root / "patient_diagnosis.csv"
    if not audio_dir.is_dir():
        audio_dir = root
    cfg = MfccConfig()
    metas = dataset.scan_audio_dir(audio_dir)
    diagnoses = dataset.load_diagnoses(csv_path)
    entries = [(i, diagnoses[m.patient_id], m.path) for i, m in enumerate(metas)
               if diagnoses.get(m.patient_id) is not None]
    cache_path = tmp_path / "icbhi.lsfc"
    dataset.build_feature_cache(entries, cfg, cache_path, jobs=os.cpu_count() or 1)
    cache = dataset.FeatureCache.load(cache_path, expected_config=cfg)
    labels = {int(r): int(c) for r, c in zip(cache.ids, cache.classes)}
    split = dataset.make_splits(labels, seed=0, unlabeled_fraction=0.5)

    def accuracy(run):
        params, manifest = run
        y, p = training.evaluate_split(params, cache, split,
                                       FeatureNormalizer.from_meta(manifest.normalizer))
        return float((y == p).mean())

    results = {"baseline": [], "semi": [], "drop_refinement": [], "drop_refurbishing": []}
    for seed in (0, 1, 2):
        bcfg = TrainConfig(epochs=60, batch_size=16, seed=seed, validation_fraction=0.1)
        results["baseline"].append(accuracy(train_baseline(bcfg, cache, split)))
        scfg = TrainConfig(epochs=10, refit_epochs=60, batch_size=16, mode="semi",
                           seed=seed, validation_fraction=0.1)
        results["semi"].append(accuracy(train_semi(scfg, cache, split)))
        results["drop_refinement"].append(
            accuracy(train_semi(scfg, cache, split, drop="co_refinement")))
        results["drop_refurbishing"].append(
            accuracy(train_semi(scfg, cache, split, drop="co_refurbishing")))

    means = {k: float(np.mean(v)) for k, v in results.items()}
    targets = {"baseline": 0.891, "semi": 0.929,
               "drop_refinement": 0.897, "drop_refurbishing": 0.907}
    print("\n  corpus-scale results (mean over 3 seeds) vs published targets:")
    for key, mean in means.items():
        delta = (mean - targets[key]) * 100
        note = "within +/-3 points" if abs(delta) <= 3.0 else "outside +/-3 points"
        print(f"    {key}: {mean:.3f} (target {targets[key]:.3f}, "
              f"delta {delta:+.1f} points, {note})")
    # required properties: exact published numbers are not guaranteed
    assert means["semi"] >= means["baseline"] - 0.01
    assert means["semi"] >= means["drop_refinement"] - 0.01
    assert means["semi"] >= means["drop_refurbishing"] - 0.01
