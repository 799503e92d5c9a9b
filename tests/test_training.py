import json
import logging
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lungsound import dataset, nn, training
from lungsound.dataset import FeatureCache, SplitManifest
from lungsound.errors import ConfigHashMismatch, DataError, MalformedHeader, NonFiniteLoss
from lungsound.rng import substream
from lungsound.training import (FeatureNormalizer, TrainConfig, run_mixmatch_epoch,
                                run_supervised_epoch, train_baseline, train_semi)


def neutral_config(epochs, **kw):
    """A semi config without unlabeled loss: under the `neutralize` fixture its
    schedule degenerates to supervision."""
    return TrainConfig(epochs=epochs, mode="semi", unlabeled_loss_weight=0.0, **kw)


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))


def memorization_cache(rng, n=10, unlabeled_fraction=0.0):
    """A cache of n random recordings, classes in turn, and a seed-0 split of it."""
    mats = rng.normal(0.0, 1.0, size=(n, 40, 862)).astype(np.float32)
    classes = np.arange(n) % 6
    cache = FeatureCache(ids=np.arange(n), classes=classes.astype(np.int64),
                         matrices=mats, config_hash=b"\x00" * 32)
    return cache, dataset.make_splits({i: i % 6 for i in range(n)}, seed=0,
                                      unlabeled_fraction=unlabeled_fraction)


def test_overfit_memorization_set(small_corpus):
    cache = small_corpus["cache"]
    mats = training.FeatureNormalizer.fit(cache.matrices[:10]).apply(cache.matrices[:10].copy())
    onehot = training.one_hot(cache.classes[:10])
    cfg = TrainConfig(epochs=200, batch_size=10, seed=1, validation_fraction=0.0)
    params = nn.init_params(substream(cfg.seed, "init"))
    state = nn.AdamState.for_params(params)
    ws = nn.Workspace(cfg.batch_size)
    losses = []
    for e in range(cfg.epochs):
        losses.append(run_supervised_epoch(params, state, mats, onehot, cfg, e, ws))
        if losses[-1] < 0.05:
            break
    assert losses[0] >= losses[1] >= losses[2]
    assert losses[-1] < 0.05
    assert len(losses) <= 200


def test_baseline_determinism(small_corpus, small_split):
    cfg = TrainConfig(epochs=2, batch_size=8, seed=11, validation_fraction=0.1)
    p1, m1 = train_baseline(cfg, small_corpus["cache"], small_split)
    p2, m2 = train_baseline(cfg, small_corpus["cache"], small_split)
    assert params_equal(p1, p2)
    assert m1.epoch_rows == m2.epoch_rows


def test_semi_schedule_order(small_corpus, small_split):
    cfg = TrainConfig(epochs=2, refit_epochs=1, batch_size=8, mode="semi", seed=4,
                      validation_fraction=0.1)
    _, manifest = train_semi(cfg, small_corpus["cache"], small_split)
    ssl_epochs = [row for row in manifest.schedule if row["epoch"] < 2]
    assert all(r["passes"] == ["mixmatch", "co_refinement", "co_refurbishing"]
               for r in ssl_epochs)
    refit = [row for row in manifest.schedule if row["epoch"] >= 2]
    assert refit and all(r["passes"] == ["supervised"] for r in refit)


def test_ablation_schedules(small_corpus, small_split):
    cfg = TrainConfig(epochs=1, refit_epochs=0, batch_size=8, mode="semi", seed=4,
                      validation_fraction=0.0)
    _, m_ref = train_semi(cfg, small_corpus["cache"], small_split, drop="co_refinement")
    assert m_ref.schedule[0]["passes"] == ["mixmatch", "co_refurbishing"]
    assert m_ref.ablation == "co_refinement"
    _, m_refurb = train_semi(cfg, small_corpus["cache"], small_split, drop="co_refurbishing")
    assert m_refurb.schedule[0]["passes"] == ["mixmatch", "co_refinement"]
    _, m_both = train_semi(cfg, small_corpus["cache"], small_split, drop="both")
    assert m_both.schedule[0]["passes"] == ["mixmatch"]
    with pytest.raises(ValueError):
        train_semi(cfg, small_corpus["cache"], small_split, drop="everything")


def test_entry_point_refuses_the_other_mode(tmp_path, rng):
    # a manifest must not record one mode and a config naming the other
    cache, split = memorization_cache(rng)
    for train, mode in ((train_baseline, "semi"), (train_semi, "baseline")):
        cfg = TrainConfig(epochs=1, refit_epochs=1, mode=mode, validation_fraction=0.0)
        with pytest.raises(ValueError, match=f"got '{mode}'"):
            train(cfg, cache, split, out_dir=tmp_path)
    assert not any(tmp_path.iterdir())


def test_degenerate_epoch_equals_supervised(small_corpus, small_split, neutralize):
    cache = small_corpus["cache"]
    xs = cache.gather(small_split.train_labeled)
    ys = cache.classes[cache.rows(small_split.train_labeled)]
    onehot = training.one_hot(ys)
    xu = cache.gather(small_split.train_unlabeled)
    cfg = neutral_config(epochs=1, batch_size=8, seed=21, validation_fraction=0.0)

    p_semi = nn.init_params(substream(cfg.seed, "init"))
    s_semi = nn.AdamState.for_params(p_semi)
    run_mixmatch_epoch(p_semi, s_semi, xs, onehot, xu, cfg, 0, nn.Workspace(cfg.batch_size))

    p_sup = nn.init_params(substream(cfg.seed, "init"))
    s_sup = nn.AdamState.for_params(p_sup)
    run_supervised_epoch(p_sup, s_sup, xs, onehot, cfg, 0, nn.Workspace(cfg.batch_size))

    assert params_equal(p_semi, p_sup)


def test_full_run_degeneracy(small_corpus, small_split, neutralize):
    cache = small_corpus["cache"]
    semi_cfg = neutral_config(epochs=3, refit_epochs=0, batch_size=8, seed=13,
                              validation_fraction=0.0)
    base_cfg = TrainConfig(epochs=3, batch_size=8, seed=13, validation_fraction=0.0)
    p_semi, _ = train_semi(semi_cfg, cache, small_split, drop="both")
    p_base, _ = train_baseline(base_cfg, cache, small_split)
    assert params_equal(p_semi, p_base)


def test_early_stop_restores_best(small_corpus, small_split):
    cfg = TrainConfig(epochs=40, batch_size=8, seed=2, early_stop_patience=3,
                      validation_fraction=0.2)
    params, manifest = train_baseline(cfg, small_corpus["cache"], small_split)
    rows = [r for r in manifest.epoch_rows if "val_accuracy" in r]
    assert len(rows) < 40  # patience actually stopped the run
    best = max(r["val_accuracy"] for r in rows)
    assert manifest.final_val_accuracy == best
    assert rows[manifest.best_epoch]["val_accuracy"] == best
    # restored parameters really are the best-epoch ones
    lab_ids, xs_lab, ys_lab, _, _ = training._prepare(small_corpus["cache"], small_split)
    _, val = training._stratified_validation(lab_ids, ys_lab, 0.2, cfg.seed)
    assert training._accuracy(params, xs_lab[val], ys_lab[val],
                              nn.Workspace(len(val))) == pytest.approx(best)


def test_prepare_peak_memory_is_bounded(rng):
    # one gather, standardized in place: the pools themselves plus fitting's
    # float64 temporaries over them (3x); 96 pooled rows, so that the
    # float64 temporaries of a 32-row chunk stay under fitting's
    cache, split = memorization_cache(rng, n=120, unlabeled_fraction=0.5)
    tracemalloc.start()
    try:
        _, xs_lab, _, xs_unlab, _ = training._prepare(cache, split)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(xs_lab) and len(xs_unlab)
    assert peak <= 3.5 * (xs_lab.nbytes + xs_unlab.nbytes)


def test_early_stopper_unit():
    params = nn.init_params(substream(0, "init"), nn.CnnSpec(channels=(2, 3)))
    stopper = training._EarlyStopper(patience=2)
    assert not stopper.update(0, 0.5, params)
    snapshot = params.copy()
    assert not stopper.update(1, 0.7, params)
    for a in params.arrays():
        a += 1.0  # training keeps moving, accuracy degrades
    assert not stopper.update(2, 0.6, params)
    assert stopper.update(3, 0.6, params)
    assert stopper.best_epoch == 1
    assert params_equal(stopper.best_params, snapshot)


def test_ramp_weight():
    cfg = TrainConfig(epochs=8, mode="semi")
    assert training._ramp_weight(cfg, 0) == pytest.approx(0.5)
    assert training._ramp_weight(cfg, 1) == pytest.approx(1.0)
    assert training._ramp_weight(cfg, 7) == pytest.approx(1.0)


def test_every_epoch_logs_one_line(caplog, rng):
    cache, split = memorization_cache(rng, n=18, unlabeled_fraction=0.5)
    semi = TrainConfig(epochs=2, refit_epochs=2, batch_size=8, mode="semi", seed=0,
                       validation_fraction=0.0)
    base = TrainConfig(epochs=2, batch_size=8, seed=0, validation_fraction=0.0)
    runs = [(lambda: train_semi(semi, cache, split), ["ssl", "ssl", "refit", "refit"]),
            (lambda: train_baseline(base, cache, split), ["supervised", "supervised"])]
    for run, phases in runs:
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="lungsound.training"):
            _, manifest = run()
        lines = [r.getMessage() for r in caplog.records if r.name == "lungsound.training"]
        assert [row["phase"] for row in manifest.epoch_rows] == phases
        assert len(lines) == len(manifest.epoch_rows)
        for line, row in zip(lines, manifest.epoch_rows):
            assert line.startswith(f"{row['phase']} epoch {row['epoch']}:")


def test_non_finite_loss_aborts_with_manifest(tmp_path, rng):
    cache, split = memorization_cache(rng)
    cache.matrices[3, 5, 5] = np.nan
    cfg = TrainConfig(epochs=2, batch_size=4, seed=0, validation_fraction=0.0)
    with pytest.raises(NonFiniteLoss) as exc_info:
        train_baseline(cfg, cache, split, out_dir=tmp_path)
    assert "epoch 0" in str(exc_info.value)
    manifest_path = tmp_path / "baseline-seed0-manifest.json"
    assert manifest_path.exists()
    data = json.loads(manifest_path.read_text())
    assert data["aborted"] is not None
    assert "batch" in data["aborted"]["error"]


def test_artifacts_written(tmp_path, small_corpus, small_split):
    cfg = TrainConfig(epochs=1, refit_epochs=1, batch_size=8, mode="semi", seed=6,
                      validation_fraction=0.1)
    params, manifest = train_semi(cfg, small_corpus["cache"], small_split,
                                  out_dir=tmp_path)
    assert manifest.checkpoint_path
    loaded, meta = nn.load_checkpoint(manifest.checkpoint_path)
    assert params_equal(loaded, params)
    assert meta["config_hash"] == small_corpus["cache"].config_hash.hex()
    loaded, norm = training.load_model(manifest.checkpoint_path, small_corpus["cache"])
    assert params_equal(loaded, params) and norm.to_meta() == manifest.normalizer
    saved = json.loads((tmp_path / "semi-seed6-manifest.json").read_text())
    assert saved["mode"] == "semi"
    assert saved["config"]["unlabeled_loss_weight"] == 1.0 and "ssl" not in saved["config"]
    assert len(saved["epoch_rows"]) == len(manifest.epoch_rows)


def test_load_model_refuses_checkpoint_it_cannot_score(tmp_path, small_corpus):
    cache = small_corpus["cache"]
    norm = {"norm_mean": [0.0] * 40, "norm_std": [1.0] * 40}
    meta = {"config_hash": cache.config_hash.hex(), **norm}
    good = nn.init_params(substream(0, "init"))
    inf_params = good.copy()
    inf_params.conv_kernels[2][0, 0, 0, 0] = np.inf
    ckpt = tmp_path / "model.lsnn"
    for params, metadata, error, reason in (
            (nn.init_params(substream(0, "init"), nn.CnnSpec((2, 3))), meta,
             DataError, "production network"),
            (inf_params, meta, DataError, "not all finite"),
            (good, norm, ConfigHashMismatch, "feature-config hash"),
            (good, {**meta, "config_hash": "00" * 32}, ConfigHashMismatch, "feature-config hash"),
            (good, {**meta, "norm_std": [0.0] * 40}, DataError, "normalizer"),
            (good, {"config_hash": meta["config_hash"]}, DataError, "unreadable normalizer"),
            (good, [1, 2], MalformedHeader, "not a JSON object")):
        nn.save_checkpoint(ckpt, params, metadata)
        with pytest.raises(error, match=reason):
            training.load_model(ckpt, cache)
    nn.save_checkpoint(ckpt, good, meta)
    params, got = training.load_model(ckpt, cache)
    assert params_equal(params, good) and got.to_meta() == norm


def test_train_config_validation():
    for bad in (dict(epochs=-1), dict(refit_epochs=-3, mode="semi"), dict(batch_size=0),
                dict(early_stop_patience=0), dict(early_stop_patience=-2),
                dict(validation_fraction=0.5), dict(mode="both"),
                dict(learning_rate=float("nan")), dict(learning_rate=float("inf")),
                dict(learning_rate=0.0), dict(learning_rate=-1.0)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    TrainConfig(epochs=0, refit_epochs=0, early_stop_patience=1)


def test_unlabeled_loss_weight_validation():
    for bad in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="unlabeled_loss_weight"):
            TrainConfig(mode="semi", unlabeled_loss_weight=bad)
    for good in (0.0, 0.3, 1.0):
        assert TrainConfig(mode="semi", unlabeled_loss_weight=good).unlabeled_loss_weight == good


def test_evaluate_split(small_corpus, small_split):
    # zero epochs: the initial parameters, with the run's fitted normalizer
    params, manifest = train_baseline(TrainConfig(epochs=0), small_corpus["cache"], small_split)
    norm = FeatureNormalizer.from_meta(manifest.normalizer)
    y_true, y_pred = training.evaluate_split(params, small_corpus["cache"], small_split, norm)
    assert len(y_true) == len(small_split.test) == len(y_pred)
    assert set(np.unique(y_true)) <= set(range(6))


def test_no_block_pool_thread_outlives_its_workspace(monkeypatch, small_corpus, small_split):
    built = []

    class CountedPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["thread_name_prefix"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(nn, "usable_cpus", lambda: 2)
    monkeypatch.setattr(nn, "ThreadPoolExecutor", CountedPool)
    before = set(threading.enumerate())
    cfg = TrainConfig(epochs=1, batch_size=8, seed=3, validation_fraction=0.2)
    params, manifest = train_baseline(cfg, small_corpus["cache"], small_split)
    training.evaluate_split(params, small_corpus["cache"], small_split,
                            FeatureNormalizer.from_meta(manifest.normalizer))
    # one pool for the training run, one for the scoring call
    assert built == ["lungsound-nn"] * 2
    left = [t for t in threading.enumerate()
            if t not in before and t.name.startswith("lungsound-nn")]
    for t in left:
        t.join(timeout=10)
    assert not [t.name for t in left if t.is_alive()]
