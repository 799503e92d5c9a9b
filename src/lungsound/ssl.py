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
The three strategies share one shape: (params, labeled_x, labeled_y,
unlabeled_x, ..., ws) in, one batch's loss terms out, as (weight, xs,
targets, loss_kind) tuples with the labeled term first;
`training._run_pass` supplies the batches and takes the gradient step on
them. Every target forward runs through the run's nn.Workspace, `ws`.

The strategies run at one setting, the module constants below. Every
function here reads them when it runs and takes none as an argument, so a
test can neutralize them with monkeypatch; mixmatch's `unlabeled_weight` is
the epoch's ramp, a schedule value. The benchmark tracer wraps
`mixmatch`, `augment`, `mixup` and the two co steps by name, and counts the
inference forwards made inside them as target forwards.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .errors import DegenerateInput

MIXUP_ALPHA = 0.75             # mixup draws lambda from Beta(MIXUP_ALPHA, MIXUP_ALPHA)
RAMP_FRACTION = 0.25           # the unlabeled loss weight ramps up over this fraction of epochs
TEMPERATURE = 0.5              # sharpening temperature of mixmatch's guessed labels
N_AUGMENTATIONS = 2            # augmented copies per unlabeled item in mixmatch
AUGMENT_NOISE_SCALE = 0.05     # augment's noise sigma, as a fraction of the matrix std
AUGMENT_MAX_MASK_FRAMES = 40   # augment's longest time-mask span
REFINEMENT_WEIGHT = 0.5        # co-refinement weight on the unlabeled term
REFURBISH_WEIGHT = 0.7         # co-refurbishing weight kept on the true label
REFURBISH_FRACTION = 0.3       # labeled fraction whose targets co-refurbishing blends


def augment(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian noise plus one time-mask span set to the matrix mean.

    Noise sigma is AUGMENT_NOISE_SCALE times the matrix standard deviation;
    the mask covers a random contiguous span of at most
    AUGMENT_MAX_MASK_FRAMES columns. With both constants zero this is the
    identity.
    """
    noise_scale, max_mask_frames = AUGMENT_NOISE_SCALE, AUGMENT_MAX_MASK_FRAMES
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


def sharpen(p: np.ndarray) -> np.ndarray:
    """p_i^(1/TEMPERATURE) renormalized; a temperature below 1 concentrates
    mass, 1 is the identity."""
    p = np.asarray(p, dtype=np.float64)
    if (p < 0).any() or p.sum() <= 0:
        raise DegenerateInput("sharpen needs a non-negative vector with positive mass")
    if TEMPERATURE == 1.0:
        return p.copy()
    q = p ** (1.0 / TEMPERATURE)
    return q / q.sum()


def guess_labels(params: nn.ModelParams, copies: np.ndarray, ws: nn.Workspace) -> np.ndarray:
    """Sharpened mean inference prediction over each item's augmented copies.

    `copies` holds N_AUGMENTATIONS consecutive rows per item; returns one
    label per item.
    """
    k = N_AUGMENTATIONS
    probs, _ = nn.forward_batch(params, copies, ws=ws)
    probs = probs.astype(np.float64).reshape(len(copies) // k, k, -1)
    return np.stack([sharpen(p.mean(axis=0)) for p in probs])


def mixup(x1, y1, x2, y2, rng: np.random.Generator):
    """Convex combination with lam' = max(lam, 1 - lam), lam ~ Beta(MIXUP_ALPHA,
    MIXUP_ALPHA).

    The result is always at least half-weighted toward (x1, y1); a drawn
    lam' of exactly 1 returns copies of the first pair.
    """
    lam = float(rng.beta(MIXUP_ALPHA, MIXUP_ALPHA))
    lam = max(lam, 1.0 - lam)
    if lam == 1.0:
        return np.array(x1), np.array(y1)
    x1, x2 = np.asarray(x1), np.asarray(x2)
    y1, y2 = np.asarray(y1, dtype=np.float64), np.asarray(y2, dtype=np.float64)
    return (lam * x1 + (1.0 - lam) * x2).astype(x1.dtype), lam * y1 + (1.0 - lam) * y2


def mixmatch(params: nn.ModelParams, labeled_x, labeled_y, unlabeled_x,
             unlabeled_weight: float, rng_augment: np.random.Generator,
             rng_mixup: np.random.Generator, ws: nn.Workspace):
    """Loss terms of CE(mixed labeled items) + unlabeled_weight * squared
    error(mixed unlabeled items).

    Labeled items are augmented once and keep their targets; each unlabeled
    item contributes N_AUGMENTATIONS copies sharing one guessed label. The
    union is mixup-paired against a shuffled copy of itself; the first term
    holds the mixed items of labeled origin, the second those of unlabeled
    origin. `unlabeled_weight` is the epoch's ramped weight.
    """
    if len(labeled_x) == 0:
        raise ValueError("mixmatch needs a non-empty labeled batch")
    k, n_lab = N_AUGMENTATIONS, len(labeled_x)
    all_x = np.stack([augment(x, rng_augment) for x in labeled_x]
                     + [augment(u, rng_augment) for u in unlabeled_x for _ in range(k)])
    all_y = np.asarray(labeled_y, dtype=np.float64)
    if len(unlabeled_x):
        guesses = guess_labels(params, all_x[n_lab:], ws)
        all_y = np.concatenate([all_y, np.repeat(guesses, k, axis=0)])

    perm = rng_mixup.permutation(len(all_x))
    mixed_x, mixed_y = np.empty_like(all_x), np.empty_like(all_y)
    for i, j in enumerate(perm):
        mixed_x[i], mixed_y[i] = mixup(all_x[i], all_y[i], all_x[j], all_y[j], rng_mixup)
    return [(1.0, mixed_x[:n_lab], mixed_y[:n_lab], "cross_entropy"),
            (unlabeled_weight, mixed_x[n_lab:], mixed_y[n_lab:], "squared_error")]


def co_refinement_step(params: nn.ModelParams, labeled_x: np.ndarray,
                       labeled_y: np.ndarray, unlabeled_x: np.ndarray, ws: nn.Workspace):
    """Loss terms of CE(labeled, true) + REFINEMENT_WEIGHT * CE(unlabeled,
    own predictions).

    The soft targets are inference-mode predictions treated as constants.
    """
    terms = [(1.0, labeled_x, labeled_y, "cross_entropy")]
    if REFINEMENT_WEIGHT > 0 and len(unlabeled_x):
        targets_u, _ = nn.forward_batch(params, unlabeled_x, ws=ws)
        terms.append((REFINEMENT_WEIGHT, unlabeled_x, targets_u, "cross_entropy"))
    return terms


def refurbish_targets(y_true: np.ndarray, preds: np.ndarray) -> np.ndarray:
    """REFURBISH_WEIGHT * true label + (1 - REFURBISH_WEIGHT) * model
    prediction, rowwise."""
    return REFURBISH_WEIGHT * np.asarray(y_true, dtype=np.float64) \
        + (1.0 - REFURBISH_WEIGHT) * np.asarray(preds, dtype=np.float64)


def co_refurbishing_step(params: nn.ModelParams, labeled_x: np.ndarray,
                         labeled_y: np.ndarray, unlabeled_x: np.ndarray,
                         rng: np.random.Generator, ws: nn.Workspace):
    """CE loss terms on labeled data with a blended-target subset plus weighted
    unlabeled pseudo-targets.

    A random REFURBISH_FRACTION of the labeled batch gets refurbish_targets;
    unlabeled items enter with their predicted soft targets at weight
    1 - REFURBISH_WEIGHT.
    """
    weight, n = REFURBISH_WEIGHT, len(labeled_x)
    n_ref = int(np.floor(REFURBISH_FRACTION * n + 0.5))
    targets = np.asarray(labeled_y, dtype=np.float64).copy()
    if n_ref > 0 and weight < 1.0:
        chosen = np.sort(rng.choice(n, size=n_ref, replace=False))
        preds, _ = nn.forward_batch(params, labeled_x[chosen], ws=ws)
        targets[chosen] = refurbish_targets(targets[chosen], preds)

    terms = [(1.0, labeled_x, targets, "cross_entropy")]
    if weight < 1.0 and len(unlabeled_x):
        targets_u, _ = nn.forward_batch(params, unlabeled_x, ws=ws)
        terms.append((1.0 - weight, unlabeled_x, targets_u, "cross_entropy"))
    return terms
