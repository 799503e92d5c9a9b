"""Training schedules.

One schedule runs every mode: SSL epochs, then supervised epochs with a
validation slice, early stopping and best-epoch restoration. Semi mode runs a
mixmatch, a co-refinement and a co-refurbishing pass per SSL epoch (ablations
drop co passes), then a refit; baseline is the schedule with zero SSL epochs.

Every pass is one batch loop, `_run_pass`, that owns batch order, unlabeled
cycling, dropout substreams, error context, the gradient step and loss
means; a pass only defines each batch's loss terms (with `ssl` building the
semi-supervised ones). The benchmark tracer wraps `run_supervised_epoch`,
`run_mixmatch_epoch`, `_run_co_pass` (reading `args[2]` and the pass id in
`args[7]`), `_accuracy`, `_prepare` and the entry points by module-global
name, so the schedule calls them through this namespace.

All randomness flows from the single config seed through named substreams
keyed by (epoch, pass, batch), so runs replay exactly and independent stages
never perturb each other.

One nn.Workspace, sized for the run's largest forward, serves every forward
and backward of a `_train` call, validation and target forwards included.
The SSL passes read the `ssl` constants as `ssl.NAME` when they run; the
unlabeled loss weight is the one SSL setting in TrainConfig.
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
from .dataset import _CACHE_SHAPE, FeatureCache, SplitManifest
from .errors import ConfigHashMismatch, DataError, NonFiniteLoss, NoUsableData
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
    unlabeled_loss_weight: float = 1.0  # mixmatch's unlabeled term, before the ramp
    learning_rate: float = 1e-3
    seed: int = 0
    early_stop_patience: int = 10
    validation_fraction: float = 0.1

    def __post_init__(self):
        if self.epochs < 0 or self.refit_epochs < 0 or self.batch_size < 1:
            raise ValueError("need epochs >= 0, refit_epochs >= 0 and batch_size >= 1")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.unlabeled_loss_weight <= 1.0:
            raise ValueError(f"unlabeled_loss_weight must be in [0, 1], "
                             f"got {self.unlabeled_loss_weight}")
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
        return json.dumps(asdict(self), indent=2, allow_nan=False)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())


def one_hot(labels) -> np.ndarray:
    return np.eye(nn.N_CLASSES, dtype=np.float32)[np.asarray(labels, dtype=np.int64)]


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
        """Inverse of to_meta. Raises DataError unless mean and std are finite
        vectors with one entry per coefficient row of the cache, every std > 0."""
        rows = _CACHE_SHAPE[0]
        try:
            mean, std = (np.asarray(meta[k], dtype=np.float64) for k in ("norm_mean", "norm_std"))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"unreadable normalizer ({type(exc).__name__}: {exc})") from None
        if mean.shape != (rows,) or std.shape != (rows,) or not (
                np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise DataError(f"normalizer needs {rows} finite means and {rows} finite "
                            f"stds > 0, got shapes {mean.shape} and {std.shape}")
        return cls(mean=mean, std=std)


PREDICT_CHUNK = 32


def predict_batch(params: nn.ModelParams, xs: np.ndarray,
                  ws: nn.Workspace | None = None) -> np.ndarray:
    """Inference-mode class predictions for a stack of feature matrices, in
    chunks of PREDICT_CHUNK rows that all run in `ws`, or in one workspace
    built for this call."""
    if ws is None:
        ws = nn.Workspace(min(len(xs), PREDICT_CHUNK))
    out = []
    for i in range(0, len(xs), PREDICT_CHUNK):
        probs, _ = nn.forward_batch(params, xs[i:i + PREDICT_CHUNK], ws=ws)
        out.append(probs.argmax(axis=1))
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def _accuracy(params, xs, ys, ws) -> float:
    return float((predict_batch(params, xs, ws=ws) == np.asarray(ys)).mean())


@contextmanager
def _numeric_context(epoch: int, batch: int):
    """Attach the offending epoch/batch to numerical failures."""
    try:
        yield
    except NonFiniteLoss as exc:
        raise NonFiniteLoss(f"epoch {epoch}, batch {batch}: {exc}") from None


def _stratified_validation(ids, classes, fraction, seed):
    """Split rows into (fit, val) row positions keeping per-class proportions,
    each in ascending-id order (all rows, in their given order, fit when
    fraction is 0)."""
    ids = np.asarray(ids)
    if fraction <= 0:
        return np.arange(len(ids)), np.arange(0)
    is_val = np.zeros(len(ids), dtype=bool)
    for cls in np.unique(classes):
        members = np.flatnonzero(classes == cls)
        order = members[substream(seed, "val", int(cls)).permutation(len(members))]
        is_val[order[:int(np.floor(fraction * len(members) + 0.5))]] = True
    by_id = np.argsort(ids, kind="stable")
    return by_id[~is_val[by_id]], by_id[is_val[by_id]]


def _ramp_weight(cfg: TrainConfig, epoch: int) -> float:
    """Unlabeled-loss weight, ramped linearly over the first RAMP_FRACTION of epochs."""
    ramp = max(1, int(round(ssl.RAMP_FRACTION * cfg.epochs)))
    return cfg.unlabeled_loss_weight * min(1.0, (epoch + 1) / ramp)


def _run_pass(params, opt_state, xs_lab, ys_onehot, xs_unlab, cfg: TrainConfig, epoch: int,
              pass_id: int, terms, ws):
    """The batch loop of every pass: one gradient step per batch on the loss
    terms `terms(b, x, y, u)` returns. Returns the size-weighted mean losses of
    the first (labeled) and second (unlabeled, 0.0 when absent) terms.

    Each labeled batch is paired with as many unlabeled rows, read from the
    number of labeled rows consumed so far in a cycled unlabeled permutation.
    """
    order = substream(cfg.seed, "batch", epoch, pass_id).permutation(len(xs_lab))
    if len(xs_unlab):
        u_order = np.resize(substream(cfg.seed, "unlabeled", epoch, pass_id)
                            .permutation(len(xs_unlab)), len(xs_lab))
    totals = [0.0, 0.0]
    for b, start in enumerate(range(0, len(order), cfg.batch_size)):
        batch = order[start:start + cfg.batch_size]
        u = xs_unlab[u_order[start:start + len(batch)]] if len(xs_unlab) else xs_unlab
        with _numeric_context(epoch, b):
            losses = nn.weighted_gradient_step(
                params, opt_state, terms(b, xs_lab[batch], ys_onehot[batch], u),
                substream(cfg.seed, "dropout", epoch, pass_id, b), cfg.learning_rate, ws)
        for i, loss in enumerate(losses):
            totals[i] += loss * len(batch)
    n = max(len(order), 1)
    return totals[0] / n, totals[1] / n


def run_supervised_epoch(params, opt_state, xs, ys_onehot, cfg: TrainConfig, epoch: int, ws):
    """One pass of cross-entropy steps over shuffled batches; returns mean loss."""
    return _run_pass(params, opt_state, xs, ys_onehot, xs[:0], cfg, epoch, PASS_MAIN,
                     lambda b, x, y, u: [(1.0, x, y, "cross_entropy")], ws)[0]


def run_mixmatch_epoch(params, opt_state, xs_lab, ys_onehot, xs_unlab,
                       cfg: TrainConfig, epoch: int, ws):
    """One mixmatch pass; returns mean (supervised, unlabeled) loss components."""
    lu_eff = _ramp_weight(cfg, epoch)

    def terms(b, x, y, u):
        (x_in, x_tgt), (u_in, u_tgt) = ssl.mixmatch(
            x, y, u, params, substream(cfg.seed, "augment", epoch, b),
            substream(cfg.seed, "mixup", epoch, b), ws)
        return [(1.0, x_in, x_tgt, "cross_entropy"), (lu_eff, u_in, u_tgt, "squared_error")]
    return _run_pass(params, opt_state, xs_lab, ys_onehot, xs_unlab, cfg, epoch, PASS_MAIN,
                     terms, ws)


def _run_co_pass(params, opt_state, xs_lab, ys_onehot, xs_unlab, cfg: TrainConfig,
                 epoch: int, pass_id: int, ws):
    """One co-refinement or co-refurbishing pass, by pass id; returns the mean
    labeled loss."""
    def terms(b, x, y, u):
        if pass_id == PASS_CO_REFINEMENT:
            return ssl.co_refinement_step(params, x, y, u, ssl.REFINEMENT_WEIGHT, ws)
        return ssl.co_refurbishing_step(params, x, y, u, ssl.REFURBISH_WEIGHT,
                                        ssl.REFURBISH_FRACTION,
                                        substream(cfg.seed, "refurbish", epoch, b), ws)
    return _run_pass(params, opt_state, xs_lab, ys_onehot, xs_unlab, cfg, epoch, pass_id,
                     terms, ws)[0]


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
    split.check_cache(cache)
    lab_ids = np.asarray(split.train_labeled, dtype=np.int64)
    if len(lab_ids) == 0:
        raise NoUsableData("split has no labeled training recordings")
    xs_lab = cache.gather(lab_ids)
    ys_lab = cache.classes[cache.rows(lab_ids)]
    if (ys_lab < 0).any():
        raise NoUsableData("labeled split contains recordings without a class")
    xs_unlab = cache.gather(split.train_unlabeled)
    norm = FeatureNormalizer.fit(np.concatenate([xs_lab, xs_unlab]))
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


def load_model(path, cache: FeatureCache):
    """(params, normalizer) of a checkpoint `_write_run` wrote, if it can score
    `cache`: production-network tensor shapes, finite parameters, the feature-
    config hash of `cache` and a valid normalizer; else raises DataError."""
    params, meta = nn.load_checkpoint(path)
    shapes = [a.shape for a in params.arrays()]
    if shapes != [a.shape for a in nn.init_params(np.random.default_rng(0)).arrays()]:
        raise DataError(f"{path}: tensor shapes {shapes} do not fit the production network")
    if not params.all_finite():
        raise DataError(f"{path}: parameters are not all finite")
    if meta.get("config_hash") != cache.config_hash.hex():
        raise ConfigHashMismatch(f"{path}: its feature-config hash is missing or not the cache's")
    try:
        return params, FeatureNormalizer.from_meta(meta)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _train(cfg: TrainConfig, cache: FeatureCache, split: SplitManifest, out_dir,
           drop: str | None = None):
    """SSL epochs, then supervised ones with a fresh optimizer; returns (params,
    manifest). By cfg.mode, semi runs cfg.epochs + cfg.refit_epochs and
    baseline 0 + cfg.epochs."""
    ssl_epochs, sup_epochs, phase = ((0, cfg.epochs, "supervised") if cfg.mode == "baseline"
                                     else (cfg.epochs, cfg.refit_epochs, "refit"))
    co_passes = [name for name in CO_PASSES if drop not in (name, "both")]
    t0 = time.monotonic()
    lab_ids, xs_lab, ys_lab, xs_unlab, norm = _prepare(cache, split)
    fit, val = _stratified_validation(lab_ids, ys_lab, cfg.validation_fraction, cfg.seed)
    xs_fit, onehot_fit = xs_lab[fit], one_hot(ys_lab[fit])
    xs_val, ys_val = xs_lab[val], ys_lab[val]
    # the largest forward: a mixmatch term of k copies per unlabeled row, a
    # training batch, or a validation chunk
    copies = ssl.N_AUGMENTATIONS if ssl_epochs and len(xs_unlab) else 1
    ws = nn.Workspace(max(min(cfg.batch_size, len(xs_fit)) * copies,
                          min(len(xs_val), PREDICT_CHUNK)))

    params = nn.init_params(substream(cfg.seed, "init"))
    manifest = RunManifest(mode=cfg.mode, seed=cfg.seed, ablation=drop, config=asdict(cfg),
                           cache_path=cache.path, split_seed=split.seed,
                           feature_config_hash=cache.config_hash.hex(),
                           cache_sha256=cache.file_sha256)
    tag = f"{cfg.mode}{'-drop-' + drop if drop else ''}-seed{cfg.seed}"

    def record(row, passes):
        """Validate, then log and keep one epoch row; returns its accuracy."""
        if len(xs_val):
            row["val_accuracy"] = _accuracy(params, xs_val, ys_val, ws)
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
                params, opt_state, xs_fit, onehot_fit, xs_unlab, cfg, epoch, ws)
            row["unlabeled_weight"] = _ramp_weight(cfg, epoch)
            for name in co_passes:
                row[f"{name}_ce"] = _run_co_pass(params, opt_state, xs_fit, onehot_fit,
                                                 xs_unlab, cfg, epoch, CO_PASSES[name], ws)
            record(row, ["mixmatch", *co_passes])

        opt_state = nn.AdamState.for_params(params)  # fresh optimizer state
        for epoch in range(ssl_epochs, ssl_epochs + sup_epochs):
            loss = run_supervised_epoch(params, opt_state, xs_fit, onehot_fit, cfg, epoch, ws)
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
    if cfg.mode != "baseline":
        raise ValueError(f"train_baseline needs mode 'baseline', got {cfg.mode!r}")
    return _train(cfg, cache, split, out_dir)


def train_semi(cfg: TrainConfig, cache: FeatureCache, split: SplitManifest,
               out_dir=None, drop: str | None = None):
    """Semi-supervised schedule; returns (params, manifest).

    Per epoch: mixmatch pass, then co-refinement, then co-refurbishing (the
    `drop` selector skips co passes); afterwards a supervised fine-tune on the
    labeled split with validation early stopping and a fresh optimizer state.
    """
    if cfg.mode != "semi":
        raise ValueError(f"train_semi needs mode 'semi', got {cfg.mode!r}")
    if drop is not None and drop not in VALID_DROPS:
        raise ValueError(f"drop must be one of {sorted(VALID_DROPS)}, got {drop!r}")
    return _train(cfg, cache, split, out_dir, drop)


def evaluate_split(params: nn.ModelParams, cache: FeatureCache, split: SplitManifest,
                   norm: FeatureNormalizer):
    """(true labels, predicted labels) over the manifest's test recordings,
    standardized by `norm`, the normalizer the model was trained with."""
    if not split.test:
        raise NoUsableData("split has no test recordings")
    split.check_cache(cache)
    xs = norm.apply(cache.gather(split.test))
    ys = cache.classes[cache.rows(split.test)]
    return ys, predict_batch(params, xs)
