"""Semi-supervised batch strategies.

Three ways of exploiting an unlabeled pool next to a labeled one:

* mixmatch: augment both pools, guess sharpened labels for the unlabeled
  items, then mixup-pair everything against a shuffled union.
* co_refinement_step: labeled data plus the model's own inference
  predictions on unlabeled data, used directly as soft targets.
* co_refurbishing_step: blend the model's predictions into a random subset of
  the labeled targets, next to the unlabeled soft targets.

Pseudo-label construction never backpropagates into the model that produced
it: all targets are built from inference-mode forwards and held constant.
Each strategy only defines one batch's loss terms, as (weight, xs, targets,
loss_kind) tuples or the arrays they are made of; `training._run_pass`
supplies the batches and takes the gradient step on them. Every target
forward runs through the run's nn.Workspace, passed as `ws`. The benchmark
tracer wraps `mixmatch`, `augment`, `mixup` and the two co steps by name,
and counts the inference forwards made inside them as target forwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import DegenerateInput

MIXUP_ALPHA = 0.75     # mixup draws lambda from Beta(MIXUP_ALPHA, MIXUP_ALPHA)
RAMP_FRACTION = 0.25   # the unlabeled loss weight ramps up over this fraction of epochs


@dataclass(frozen=True)
class SslConfig:
    temperature: float = 0.5          # sharpening temperature
    n_augmentations: int = 2          # augmented copies per unlabeled item
    unlabeled_loss_weight: float = 1.0
    refurbish_weight: float = 0.7     # weight kept on the true label
    refurbish_fraction: float = 0.3   # labeled fraction whose targets get blended
    refinement_weight: float = 0.5
    augment_noise_scale: float = 0.05
    augment_max_mask_frames: int = 40
    fixed_lambda: float | None = None  # overrides the Beta draw when set

    def __post_init__(self):
        if self.temperature <= 0 or self.n_augmentations < 1:
            raise ValueError("need temperature > 0 and n_augmentations >= 1")
        for name in ("unlabeled_loss_weight", "refurbish_weight",
                     "refurbish_fraction", "refinement_weight"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


def augment(x: np.ndarray, rng: np.random.Generator, noise_scale: float,
            max_mask_frames: int) -> np.ndarray:
    """Additive Gaussian noise plus one time-mask span set to the matrix mean.

    Noise sigma is noise_scale times the matrix standard deviation; the mask
    covers a random contiguous span of at most max_mask_frames columns. With
    both knobs zero this is the identity.
    """
    if noise_scale <= 0 and max_mask_frames <= 0:
        return x
    out = np.array(x, dtype=np.float64)
    if noise_scale > 0:
        out += rng.normal(0.0, noise_scale * float(x.std()), size=x.shape)
    if max_mask_frames > 0:
        width = int(rng.integers(1, max_mask_frames + 1))
        width = min(width, x.shape[1])
        start = int(rng.integers(0, x.shape[1] - width + 1))
        out[:, start:start + width] = float(x.mean())
    return out.astype(x.dtype)


def sharpen(p: np.ndarray, temperature: float) -> np.ndarray:
    """p_i^(1/T) renormalized; T < 1 concentrates mass, T = 1 is the identity."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    p = np.asarray(p, dtype=np.float64)
    if (p < 0).any() or p.sum() <= 0:
        raise DegenerateInput("sharpen needs a non-negative vector with positive mass")
    if temperature == 1.0:
        return p.copy()
    q = p ** (1.0 / temperature)
    return q / q.sum()


def guess_labels(params: nn.ModelParams, copies: np.ndarray, k: int,
                 temperature: float, ws: nn.Workspace | None = None) -> np.ndarray:
    """Sharpened mean inference prediction over each item's k augmented copies.

    `copies` holds k consecutive rows per item; returns one label per item.
    """
    probs, _ = nn.forward_batch(params, copies, ws=ws)
    probs = probs.astype(np.float64).reshape(len(copies) // k, k, -1)
    return np.stack([sharpen(p.mean(axis=0), temperature) for p in probs])


def mixup(x1, y1, x2, y2, rng: np.random.Generator, fixed_lambda: float | None = None):
    """Convex combination with lam' = max(lam, 1 - lam), lam ~ Beta(MIXUP_ALPHA,
    MIXUP_ALPHA) or fixed_lambda.

    The result is always at least half-weighted toward (x1, y1); a forced
    lam' of exactly 1 returns copies of the first pair.
    """
    lam = float(rng.beta(MIXUP_ALPHA, MIXUP_ALPHA) if fixed_lambda is None else fixed_lambda)
    lam = max(lam, 1.0 - lam)
    if lam == 1.0:
        return np.array(x1), np.array(y1)
    x1, x2 = np.asarray(x1), np.asarray(x2)
    y1, y2 = np.asarray(y1, dtype=np.float64), np.asarray(y2, dtype=np.float64)
    return (lam * x1 + (1.0 - lam) * x2).astype(x1.dtype), lam * y1 + (1.0 - lam) * y2


def mixmatch(labeled_x, labeled_y, unlabeled_x, params: nn.ModelParams, cfg: SslConfig,
             rng_augment: np.random.Generator, rng_mixup: np.random.Generator,
             ws: nn.Workspace | None = None):
    """Build the two mixed training batches from a labeled and an unlabeled batch.

    Labeled items are augmented once and keep their targets; each unlabeled
    item contributes n_augmentations copies sharing one guessed label. The
    union is mixup-paired against a shuffled copy of itself. Returns
    ((x_inputs, x_targets), (u_inputs, u_targets)): the mixed items of
    labeled and of unlabeled origin, as stacked arrays.
    """
    if len(labeled_x) == 0:
        raise ValueError("mixmatch needs a non-empty labeled batch")
    k, n_lab = cfg.n_augmentations, len(labeled_x)
    noise, mask = cfg.augment_noise_scale, cfg.augment_max_mask_frames
    all_x = np.stack([augment(x, rng_augment, noise, mask) for x in labeled_x]
                     + [augment(u, rng_augment, noise, mask)
                        for u in unlabeled_x for _ in range(k)])
    all_y = np.asarray(labeled_y, dtype=np.float64)
    if len(unlabeled_x):
        guesses = guess_labels(params, all_x[n_lab:], k, cfg.temperature, ws)
        all_y = np.concatenate([all_y, np.repeat(guesses, k, axis=0)])

    perm = rng_mixup.permutation(len(all_x))
    mixed_x, mixed_y = np.empty_like(all_x), np.empty_like(all_y)
    for i, j in enumerate(perm):
        mixed_x[i], mixed_y[i] = mixup(all_x[i], all_y[i], all_x[j], all_y[j], rng_mixup,
                                       cfg.fixed_lambda)
    return (mixed_x[:n_lab], mixed_y[:n_lab]), (mixed_x[n_lab:], mixed_y[n_lab:])


def co_refinement_step(params: nn.ModelParams, labeled_x: np.ndarray,
                       labeled_y: np.ndarray, unlabeled_x: np.ndarray,
                       refinement_weight: float, ws: nn.Workspace | None = None):
    """Loss terms of CE(labeled, true) + weight * CE(unlabeled, own predictions).

    The soft targets are inference-mode predictions treated as constants.
    Returns the terms as (weight, xs, targets, loss_kind) tuples.
    """
    terms = [(1.0, labeled_x, labeled_y, "cross_entropy")]
    if refinement_weight > 0 and len(unlabeled_x):
        targets_u, _ = nn.forward_batch(params, unlabeled_x, ws=ws)
        terms.append((refinement_weight, unlabeled_x, targets_u, "cross_entropy"))
    return terms


def refurbish_targets(y_true: np.ndarray, preds: np.ndarray, weight: float) -> np.ndarray:
    """weight * true label + (1 - weight) * model prediction, rowwise."""
    return weight * np.asarray(y_true, dtype=np.float64) \
        + (1.0 - weight) * np.asarray(preds, dtype=np.float64)


def co_refurbishing_step(params: nn.ModelParams, labeled_x: np.ndarray,
                         labeled_y: np.ndarray, unlabeled_x: np.ndarray, weight: float,
                         fraction: float, rng: np.random.Generator,
                         ws: nn.Workspace | None = None):
    """CE loss terms on labeled data with a blended-target subset plus weighted
    unlabeled pseudo-targets.

    A random `fraction` of the labeled batch gets targets
    weight * y_true + (1 - weight) * prediction; unlabeled items enter with
    their predicted soft targets at weight (1 - weight). Returns the terms as
    (weight, xs, targets, loss_kind) tuples.
    """
    n = len(labeled_x)
    n_ref = int(np.floor(fraction * n + 0.5))
    targets = np.asarray(labeled_y, dtype=np.float64).copy()
    if n_ref > 0 and weight < 1.0:
        chosen = np.sort(rng.choice(n, size=n_ref, replace=False))
        preds, _ = nn.forward_batch(params, labeled_x[chosen], ws=ws)
        targets[chosen] = refurbish_targets(targets[chosen], preds, weight)

    terms = [(1.0, labeled_x, targets, "cross_entropy")]
    if weight < 1.0 and len(unlabeled_x):
        targets_u, _ = nn.forward_batch(params, unlabeled_x, ws=ws)
        terms.append((1.0 - weight, unlabeled_x, targets_u, "cross_entropy"))
    return terms
