"""Training schedules.

One schedule runs every mode: SSL epochs, then supervised epochs with a
validation slice, early stopping and best-epoch restoration. Semi mode runs a
mixmatch, a co-refinement and a co-refurbishing pass per SSL epoch (ablations
drop co passes), then a refit; baseline is the schedule with zero SSL epochs.

Every pass is one batch loop, `_run_pass`, that owns batch order, unlabeled
cycling, dropout substreams, error context and loss means; a pass only
defines its gradient step. The benchmark tracer wraps `run_supervised_epoch`,
`run_mixmatch_epoch`, `_run_co_pass` (reading `args[2]` and the pass id in
`args[7]`), `_accuracy`, `_prepare` and the entry points by module-global
name, so the schedule calls them through this namespace.

All randomness flows from the single config seed through named substreams
keyed by (epoch, pass, batch), so runs replay exactly and independent stages
never perturb each other.
"""

from __future__ import annotations

import json
import logging
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import nn, ssl
from .dataset import FeatureCache, SplitManifest
from .errors import NonFiniteLoss, NoUsableData
from .rng import substream

log = logging.getLogger(__name__)

# pass ids keying the batch/dropout streams; supervised epochs share the
# mixmatch slot so a fully neutralized semi epoch replays a supervised one
PASS_MAIN = 0
CO_PASSES = {"co_refinement": 1, "co_refurbishing": 2}  # name -> pass id, in run order
PASS_CO_REFINEMENT = CO_PASSES["co_refinement"]

VALID_DROPS = {*CO_PASSES, "both"}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    refit_epochs: int = 60            # cap for the final supervised fine-tune (semi mode)
    batch_size: int = 16
    mode: str = "baseline"            # "baseline" or "semi"
    ssl: ssl.SslConfig = field(default_factory=ssl.SslConfig)
    learning_rate: float = 1e-3
    seed: int = 0
    early_stop_patience: int = 10
    validation_fraction: float = 0.1

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("need epochs >= 0 and batch_size >= 1")
        if not 0.0 <= self.validation_fraction < 0.5:
            raise ValueError("validation_fraction must be in [0, 0.5)")
        if self.mode not in ("baseline", "semi"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class RunManifest:
    mode: str
    seed: int
    ablation: str | None
    config: dict
    cache_path: str | None
    split_seed: int
    feature_config_hash: str | None = None
    cache_sha256: str | None = None
    epoch_rows: list = field(default_factory=list)
    schedule: list = field(default_factory=list)
    wall_clock_s: float = 0.0
    checkpoint_path: str | None = None
    best_epoch: int | None = None
    final_val_accuracy: float | None = None
    aborted: dict | None = None
    normalizer: dict | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())


def one_hot(labels, n_classes: int = nn.N_CLASSES) -> np.ndarray:
    return np.eye(n_classes, dtype=np.float32)[np.asarray(labels, dtype=np.int64)]


@dataclass
class FeatureNormalizer:
    """Per-coefficient standardization fitted on the training pools.

    Raw log-energy cepstra span hundreds of units, which saturates the
    network from the first forward pass; every input is therefore z-scored
    per coefficient row before training and inference. The statistics travel
    with the checkpoint so evaluation applies the identical transform.
    """

    mean: np.ndarray  # (n_coefficients,)
    std: np.ndarray

    @classmethod
    def fit(cls, mats: np.ndarray) -> "FeatureNormalizer":
        mean = mats.mean(axis=(0, 2), dtype=np.float64)
        std = mats.std(axis=(0, 2), dtype=np.float64)
        return cls(mean=mean, std=np.maximum(std, 1e-6))

    def apply(self, mats: np.ndarray) -> np.ndarray:
        return ((mats - self.mean[:, None]) / self.std[:, None]).astype(np.float32)

    def to_meta(self) -> dict:
        return {"norm_mean": self.mean.tolist(), "norm_std": self.std.tolist()}

    @classmethod
    def from_meta(cls, meta: dict) -> "FeatureNormalizer":
        return cls(mean=np.asarray(meta["norm_mean"], dtype=np.float64),
                   std=np.asarray(meta["norm_std"], dtype=np.float64))


def predict_batch(params: nn.ModelParams, xs: np.ndarray, chunk: int = 32) -> np.ndarray:
    """Inference-mode class predictions for a stack of feature matrices."""
    out = []
    for i in range(0, len(xs), chunk):
        probs, _ = nn.forward_batch(params, xs[i:i + chunk], training=False, keep_trace=False)
        out.append(probs.argmax(axis=1))
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def _accuracy(params, xs, ys) -> float:
    return float((predict_batch(params, xs) == np.asarray(ys)).mean())


@contextmanager
def _numeric_context(epoch: int, batch: int):
    """Attach the offending epoch/batch to numerical failures."""
    try:
        yield
    except NonFiniteLoss as exc:
        raise NonFiniteLoss(f"epoch {epoch}, batch {batch}: {exc}") from None


def _stratified_validation(ids, classes, fraction, seed):
    """Split ids into (fit, val) keeping per-class proportions."""
    ids = np.asarray(ids)
    if fraction <= 0 or len(ids) == 0:
        return ids, ids[:0]
    fit, val = [], []
    for cls in np.unique(classes):
        members = ids[classes == cls]
        order = members[substream(seed, "val", int(cls)).permutation(len(members))]
        n_val = int(np.floor(fraction * len(members) + 0.5))
        val.extend(order[:n_val])
        fit.extend(order[n_val:])
    return np.array(sorted(fit)), np.array(sorted(val))


def _ramp_weight(cfg: TrainConfig, epoch: int) -> float:
    """Unlabeled-loss weight, ramped linearly over the first epochs."""
    ramp = max(1, int(round(cfg.ssl.ramp_fraction * cfg.epochs)))
    return cfg.ssl.unlabeled_loss_weight * min(1.0, (epoch + 1) / ramp)


def _run_pass(xs_lab, ys_onehot, xs_unlab, cfg: TrainConfig, epoch: int, pass_id: int,
              step):
    """The batch loop of every pass; returns size-weighted mean (labeled,
    unlabeled) losses of `step(b, x, y, u, dropout_rng)`, one step per batch.

    Each labeled batch is paired with as many unlabeled rows, read from the
    number of labeled rows consumed so far in a cycled unlabeled permutation.
    """
    order = substream(cfg.seed, "batch", epoch, pass_id).permutation(len(xs_lab))
    if len(xs_unlab):
        u_order = np.resize(substream(cfg.seed, "unlabeled", epoch, pass_id)
                            .permutation(len(xs_unlab)), len(xs_lab))
    lab_total, unlab_total = 0.0, 0.0
    for b, start in enumerate(range(0, len(order), cfg.batch_size)):
        batch = order[start:start + cfg.batch_size]
        u = xs_unlab[u_order[start:start + len(batch)]] if len(xs_unlab) else xs_unlab
        with _numeric_context(epoch, b):
            lab, unlab = step(b, xs_lab[batch], ys_onehot[batch], u,
                              substream(cfg.seed, "dropout", epoch, pass_id, b))
        lab_total += lab * len(batch)
        unlab_total += unlab * len(batch)
    n = max(len(order), 1)
    return lab_total / n, unlab_total / n


def run_supervised_epoch(params, opt_state, xs, ys_onehot, cfg: TrainConfig, epoch: int):
    """One pass of cross-entropy steps over shuffled batches; returns mean loss."""
    def step(b, x, y, u, dropout_rng):
        _, _, losses = nn.weighted_gradient_step(
            params, opt_state, [(1.0, x, y, "cross_entropy", dropout_rng)], cfg.learning_rate)
        return losses[0], 0.0
    return _run_pass(xs, ys_onehot, xs[:0], cfg, epoch, PASS_MAIN, step)[0]


def run_mixmatch_epoch(params, opt_state, xs_lab, ys_onehot, xs_unlab,
                       cfg: TrainConfig, epoch: int):
    """One mixmatch pass; returns mean (supervised, unlabeled) loss components."""
    lu_eff = _ramp_weight(cfg, epoch)

    def step(b, x, y, u, dropout_rng):
        (x_in, x_tgt), (u_in, u_tgt) = ssl.mixmatch(
            x, y, u, params, cfg.ssl, substream(cfg.seed, "augment", epoch, b),
            substream(cfg.seed, "mixup", epoch, b))
        _, _, losses = nn.weighted_gradient_step(
            params, opt_state, [(1.0, x_in, x_tgt, "cross_entropy", dropout_rng),
                                (lu_eff, u_in, u_tgt, "squared_error", dropout_rng)],
            cfg.learning_rate)
        return losses
    return _run_pass(xs_lab, ys_onehot, xs_unlab, cfg, epoch, PASS_MAIN, step)


def _run_co_pass(params, opt_state, xs_lab, ys_onehot, xs_unlab, cfg: TrainConfig,
                 epoch: int, pass_id: int):
    """One co-refinement or co-refurbishing pass, by pass id; returns the mean
    labeled loss."""
    def step(b, x, y, u, dropout_rng):
        if pass_id == PASS_CO_REFINEMENT:
            return ssl.co_refinement_step(params, opt_state, x, y, u,
                                          cfg.ssl.refinement_weight, dropout_rng,
                                          lr=cfg.learning_rate)[2]
        return ssl.co_refurbishing_step(params, opt_state, x, y, u, cfg.ssl.refurbish_weight,
                                        cfg.ssl.refurbish_fraction,
                                        substream(cfg.seed, "refurbish", epoch, b),
                                        dropout_rng, lr=cfg.learning_rate)[2]
    return _run_pass(xs_lab, ys_onehot, xs_unlab, cfg, epoch, pass_id, step)[0]


class _EarlyStopper:
    """Tracks best validation accuracy; restores the best parameter snapshot."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_acc = -1.0
        self.best_epoch = -1
        self.best_params = None
        self.stale = 0

    def update(self, epoch: int, acc: float, params: nn.ModelParams) -> bool:
        """Record epoch result; True when training should stop."""
        if acc > self.best_acc:
            self.best_acc = acc
            self.best_epoch = epoch
            self.best_params = params.copy()
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.patience


def _prepare(cache: FeatureCache, split: SplitManifest):
    """Gather and standardize the training pools.

    The normalizer is always fitted on labeled plus unlabeled training
    features (both are available at train time in every mode) so baseline
    and semi runs see bit-identical inputs.
    """
    split.validate()
    lab_ids = np.asarray(split.train_labeled, dtype=np.int64)
    if len(lab_ids) == 0:
        raise NoUsableData("split has no labeled training recordings")
    xs_lab = cache.gather(lab_ids)
    ys_lab = np.array([cache.class_of(r) for r in lab_ids], dtype=np.int64)
    if (ys_lab < 0).any():
        raise NoUsableData("labeled split contains recordings without a class")
    xs_unlab = (cache.gather(split.train_unlabeled)
                if len(split.train_unlabeled) else xs_lab[:0])
    norm = FeatureNormalizer.fit(np.concatenate([xs_lab, xs_unlab])
                                 if len(xs_unlab) else xs_lab)
    return lab_ids, norm.apply(xs_lab), ys_lab, norm.apply(xs_unlab), norm


def _write_run(manifest: RunManifest, t0: float, out_dir, tag: str, params=None) -> None:
    """Stamp the wall clock and save the manifest under out_dir, after the
    checkpoint when `params` are given (a completed run)."""
    manifest.wall_clock_s = time.monotonic() - t0
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if params is not None:
        ckpt = out / f"{tag}.lsnn"
        nn.save_checkpoint(ckpt, params, {
            "seed": manifest.seed, "mode": manifest.mode, "ablation": manifest.ablation,
            "best_epoch": manifest.best_epoch, "config_hash": manifest.feature_config_hash,
            **manifest.normalizer})
        manifest.checkpoint_path = str(ckpt)
    manifest.save(out / f"{tag}-manifest.json")


def _train(cfg: TrainConfig, cache: FeatureCache, split: SplitManifest, out_dir,
           mode: str, drop: str | None = None):
    """SSL epochs, then supervised ones with a fresh optimizer; returns (params,
    manifest). Semi runs cfg.epochs + cfg.refit_epochs, baseline 0 + cfg.epochs."""
    ssl_epochs, sup_epochs, phase = ((0, cfg.epochs, "supervised") if mode == "baseline"
                                     else (cfg.epochs, cfg.refit_epochs, "refit"))
    co_passes = [name for name in CO_PASSES if drop not in (name, "both")]
    t0 = time.monotonic()
    lab_ids, xs_lab, ys_lab, xs_unlab, norm = _prepare(cache, split)
    fit_ids, val_ids = _stratified_validation(lab_ids, ys_lab, cfg.validation_fraction,
                                              cfg.seed)
    idx = {int(r): i for i, r in enumerate(lab_ids)}
    fit_sel = np.array([idx[int(r)] for r in fit_ids], dtype=np.int64)
    val_sel = np.array([idx[int(r)] for r in val_ids], dtype=np.int64)
    xs_fit, onehot_fit = xs_lab[fit_sel], one_hot(ys_lab[fit_sel])
    xs_val, ys_val = xs_lab[val_sel], ys_lab[val_sel]

    params = nn.init_params(substream(cfg.seed, "init"))
    manifest = RunManifest(mode=mode, seed=cfg.seed, ablation=drop, config=asdict(cfg),
                           cache_path=cache.path, split_seed=split.seed,
                           feature_config_hash=cache.config_hash.hex(),
                           cache_sha256=cache.file_sha256)
    tag = f"{mode}{'-drop-' + drop if drop else ''}-seed{cfg.seed}"

    def record(row, passes):
        """Validate, then log and keep one epoch row; returns its accuracy."""
        if len(xs_val):
            row["val_accuracy"] = _accuracy(params, xs_val, ys_val)
        manifest.epoch_rows.append(row)
        manifest.schedule.append({"epoch": row["epoch"], "passes": passes})
        log.info("%s epoch %d: %s", row["phase"], row["epoch"], row)
        return row.get("val_accuracy")

    stopper = _EarlyStopper(cfg.early_stop_patience)
    try:
        opt_state = nn.AdamState.for_params(params)
        for epoch in range(ssl_epochs):
            row = {"epoch": epoch, "phase": "ssl"}
            row["mixmatch_ce"], row["mixmatch_mse"] = run_mixmatch_epoch(
                params, opt_state, xs_fit, onehot_fit, xs_unlab, cfg, epoch)
            row["unlabeled_weight"] = _ramp_weight(cfg, epoch)
            for name in co_passes:
                row[f"{name}_ce"] = _run_co_pass(params, opt_state, xs_fit, onehot_fit,
                                                 xs_unlab, cfg, epoch, CO_PASSES[name])
            record(row, ["mixmatch", *co_passes])

        opt_state = nn.AdamState.for_params(params)  # fresh optimizer state
        for epoch in range(ssl_epochs, ssl_epochs + sup_epochs):
            loss = run_supervised_epoch(params, opt_state, xs_fit, onehot_fit, cfg, epoch)
            acc = record({"epoch": epoch, "phase": phase, "loss": loss}, ["supervised"])
            if acc is not None and stopper.update(epoch, acc, params):
                break
    except NonFiniteLoss as exc:
        manifest.aborted = {"epoch": len(manifest.epoch_rows), "error": str(exc)}
        _write_run(manifest, t0, out_dir, tag)
        raise

    if stopper.best_params is not None:
        for dst, src in zip(params.arrays(), stopper.best_params.arrays()):
            dst[:] = src
        manifest.best_epoch, manifest.final_val_accuracy = stopper.best_epoch, stopper.best_acc
    elif sup_epochs:
        manifest.best_epoch = ssl_epochs + sup_epochs - 1
    manifest.normalizer = norm.to_meta()
    _write_run(manifest, t0, out_dir, tag, params)
    return params, manifest


def train_baseline(cfg: TrainConfig, cache: FeatureCache, split: SplitManifest,
                   out_dir=None):
    """Supervised training on the labeled split; returns (params, manifest)."""
    return _train(cfg, cache, split, out_dir, "baseline")


def train_semi(cfg: TrainConfig, cache: FeatureCache, split: SplitManifest,
               out_dir=None, drop: str | None = None):
    """Semi-supervised schedule; returns (params, manifest).

    Per epoch: mixmatch pass, then co-refinement, then co-refurbishing (the
    `drop` selector skips co passes); afterwards a supervised fine-tune on the
    labeled split with validation early stopping and a fresh optimizer state.
    """
    if drop is not None and drop not in VALID_DROPS:
        raise ValueError(f"drop must be one of {sorted(VALID_DROPS)}, got {drop!r}")
    return _train(cfg, cache, split, out_dir, "semi", drop)


def evaluate_split(params: nn.ModelParams, cache: FeatureCache, split: SplitManifest,
                   norm: FeatureNormalizer | None = None):
    """(true labels, predicted labels) over the manifest's test recordings.

    `norm` must be the normalizer the model was trained with; when omitted,
    it is refitted on the training pools of the same split, which reproduces
    the training-time statistics exactly.
    """
    if not split.test:
        raise NoUsableData("split has no test recordings")
    if norm is None:
        _, _, _, _, norm = _prepare(cache, split)
    xs = norm.apply(cache.gather(split.test))
    ys = np.array([cache.class_of(r) for r in split.test], dtype=np.int64)
    return ys, predict_batch(params, xs)
