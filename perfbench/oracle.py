"""Independent computations the benchmark checks the program's outputs against.

Nothing here calls into lungsound: the WAV writer, the expected decoded
samples, the linear resampler, the cache parser and the report counts are
written from the file formats and definitions. Each check returns a list of
failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

WORKING_RATE = 22050
# one quantisation step per encoding, in units of full scale
STEP = {"pcm16": 2.0 ** -15, "pcm24": 2.0 ** -23, "float32": 2.0 ** -23}
_WIDTH = {"pcm16": 2, "pcm24": 3, "float32": 4}
_EPS32 = float(np.finfo(np.float32).eps)

CACHE_SHAPE = (40, 862)


# -- WAV files -------------------------------------------------------------

def quantise(channels: np.ndarray, encoding: str) -> np.ndarray:
    """The sample values a decoder must recover, shape (n_channels, n_frames)."""
    if encoding == "float32":
        return channels.astype(np.float32).astype(np.float64)
    scale = 2.0 ** (8 * _WIDTH[encoding] - 1)
    return np.clip(np.rint(channels * scale), -scale, scale - 1) / scale


def write_wav(path, channels: np.ndarray, rate: int, encoding: str) -> None:
    """RIFF/WAVE writer for PCM16, PCM24 and float32, interleaved channels."""
    n_ch, _ = channels.shape
    width = _WIDTH[encoding]
    inter = quantise(channels, encoding).T.reshape(-1)
    if encoding == "float32":
        payload = inter.astype("<f4").tobytes()
        fmt_code = 3
    else:
        ints = np.rint(inter * 2.0 ** (8 * width - 1)).astype("<i4")
        payload = ints.view(np.uint8).reshape(-1, 4)[:, :width].tobytes()
        fmt_code = 1
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, fmt_code, n_ch, rate,
                                       rate * n_ch * width, n_ch * width, 8 * width))
        fh.write(b"data" + struct.pack("<I", len(payload)))
        fh.write(payload)


def check_decoded(name: str, decoded: np.ndarray, rate: int, channels: np.ndarray,
                  expected_rate: int, encoding: str) -> list:
    """Decoded mono samples against the mean of the written channels."""
    expected = channels.mean(axis=0)
    if rate != expected_rate:
        return [f"{name}: decoded rate {rate}, wrote {expected_rate}"]
    if decoded.shape != expected.shape:
        return [f"{name}: decoded {decoded.shape} samples, wrote {expected.shape}"]
    worst = float(np.max(np.abs(decoded - expected)))
    if worst > STEP[encoding]:
        return [f"{name}: decoded samples off by {worst:.3g} > step {STEP[encoding]:.3g}"]
    return []


# -- resampling and MFCC ---------------------------------------------------

def linear_resample(x: np.ndarray, rate: int, target: int, n_keep: int) -> np.ndarray:
    """First n_keep samples of x linearly interpolated from rate to target.

    Output j sits at input position j * rate / target; positions past the last
    input sample hold that sample. Output length is round(len(x) * target / rate).
    """
    n_out = max(1, int(round(len(x) * target / rate)))
    pos = np.arange(min(n_out, n_keep), dtype=np.float64) * rate / target
    i = np.minimum(np.floor(pos).astype(np.int64), len(x) - 1)
    nxt = np.minimum(i + 1, len(x) - 1)
    frac = np.where(i < len(x) - 1, pos - i, 0.0)
    return x[i] + frac * (x[nxt] - x[i])


def check_mfcc(name: str, grid: np.ndarray, reference: np.ndarray) -> list:
    """Cached float32 grid against a float64 reference, at float32 resolution."""
    if grid.shape != reference.shape:
        return [f"{name}: cached grid {grid.shape} vs reference {reference.shape}"]
    tol = _EPS32 * float(np.max(np.abs(reference)))
    worst = float(np.max(np.abs(grid.astype(np.float64) - reference)))
    if worst > tol:
        return [f"{name}: MFCC off the naive-DFT oracle by {worst:.3g} > {tol:.3g}"]
    return []


# -- feature cache ---------------------------------------------------------

def parse_cache(path):
    """(ids, classes, matrices) read straight from the .lsfc layout."""
    with open(path, "rb") as fh:
        data = fh.read()
    (count,) = struct.unpack_from("<I", data, 38)
    rec = np.dtype([("id", "<u4"), ("cls", "i1"), ("mat", "<f4", CACHE_SHAPE)])
    recs = np.frombuffer(data, dtype=rec, count=count, offset=42)
    return recs["id"].astype(np.int64), recs["cls"].astype(np.int64), recs["mat"]


def check_cache(ids, classes, matrices, parsed) -> list:
    p_ids, p_cls, p_mat = parsed
    out = []
    if not np.array_equal(ids, p_ids):
        out.append("cache: loaded ids differ from the file")
    if not np.array_equal(classes, p_cls):
        out.append("cache: loaded classes differ from the file")
    if matrices.shape != p_mat.shape or not np.array_equal(matrices, p_mat):
        out.append("cache: loaded matrices differ from the file")
    return out


def check_gathers(gathers, parsed) -> list:
    """Each (ids, stacked rows) gather against the file's rows for those ids."""
    p_ids, _, p_mat = parsed
    row = {int(r): i for i, r in enumerate(p_ids)}
    for ids, got in gathers:
        want = p_mat[[row[int(r)] for r in ids]]
        if got.shape != want.shape or not np.array_equal(got, want):
            return [f"gather of {len(ids)} ids differs from the file's rows"]
    return []


# -- training and evaluation ------------------------------------------------

def param_hash(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def check_report(y_true, y_pred, cm, accuracy: float, support, n_classes: int) -> list:
    """Evaluation report against counts taken directly from the label vectors."""
    y_true = [int(v) for v in y_true]
    y_pred = [int(v) for v in y_pred]
    out = []
    counts = [[0] * n_classes for _ in range(n_classes)]
    for t, p in zip(y_true, y_pred):
        counts[t][p] += 1
    if np.asarray(cm).tolist() != counts:
        out.append("report: confusion matrix differs from direct counts")
    if int(np.asarray(cm).sum()) != len(y_true):
        out.append(f"report: confusion total {int(np.asarray(cm).sum())} != {len(y_true)}")
    hits = sum(t == p for t, p in zip(y_true, y_pred))
    if abs(accuracy - hits / len(y_true)) > 1e-12:
        out.append(f"report: accuracy {accuracy} != {hits}/{len(y_true)}")
    direct = [y_true.count(c) for c in range(n_classes)]
    if [int(s) for s in support] != direct:
        out.append(f"report: supports {list(map(int, support))} != {direct}")
    return out


def check_schedule(schedule, ssl_epochs: int, sup_epochs: int) -> list:
    """SSL epochs list their three passes in order; supervised epochs follow."""
    want = ([["mixmatch", "co_refinement", "co_refurbishing"]] * ssl_epochs
            + [["supervised"]] * sup_epochs)
    got = [row["passes"] for row in schedule]
    if got != want:
        return [f"schedule {json.dumps(got)} != expected {json.dumps(want)}"]
    return []


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    p = np.asarray(probs, dtype=np.float64)[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(p, 1e-12)).mean())


def standardise(train_mats: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Per-coefficient z-score with statistics from the training pools."""
    mean = train_mats.mean(axis=(0, 2), dtype=np.float64)[:, None]
    std = np.maximum(train_mats.std(axis=(0, 2), dtype=np.float64), 1e-6)[:, None]
    return ((mats - mean) / std).astype(np.float32)
