"""Golden replay: every training mode reproduces recorded parameter hashes.

Each mode trains on the `small_corpus` geometry in a fresh interpreter pinned
to one OpenBLAS thread, and hashes the trained parameters together with the
manifest's `epoch_rows` and `schedule`. The expected digests were recorded on
the numpy/BLAS build named below. Bit-for-bit replay is only claimed within
one build and thread count (see the README), so another build skips that
comparison. On every build, `semi` is also trained in a process that may run
on one CPU, where the conv stages' block pool runs inline, and in one that
may run on all usable CPUs; the two digests must be equal.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BUILD = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}

EXPECTED = {
    "baseline": "0796c98cf02fbedfa73bc9c1b676e8ebea137af2582207fcb17d694370e6822a",
    "semi": "57b0cb2d62a59ccfdf5636ec9fa868a71e496504d73d73386f8b2d456660c270",
    "drop=co_refinement": "1876db36704fc90eb238e5d49710d788c10360461bc0597e1e97bf723160ba69",
    "drop=co_refurbishing": "f5161e983f0752263a4d80e635913c01b16d977adf714140e78166cf3f29e4e3",
    "drop=both": "561cf198402cdeb4c5152e464e63047ca7aef49ffa4769de17f3206924146024",
}

SRC = Path(__file__).resolve().parent.parent / "src"

# argv: cache, split, then the EXPECTED keys to train (all when none are given)
SCRIPT = r"""
import hashlib, json, sys
from lungsound import dataset, nn, training

cache = dataset.FeatureCache.load(sys.argv[1])
split = dataset.SplitManifest.load(sys.argv[2])
out = {}
for mode, drop in [("baseline", None), ("semi", None), ("semi", "co_refinement"),
                   ("semi", "co_refurbishing"), ("semi", "both")]:
    key = mode if drop is None else f"drop={drop}"
    if sys.argv[3:] and key not in sys.argv[3:]:
        continue
    cfg = training.TrainConfig(epochs=2, refit_epochs=2, batch_size=8, mode=mode,
                               seed=5, validation_fraction=0.1)
    if mode == "baseline":
        params, manifest = training.train_baseline(cfg, cache, split)
    else:
        params, manifest = training.train_semi(cfg, cache, split, drop=drop)
    h = hashlib.sha256()
    for name, arr in params.named():
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    h.update(json.dumps([manifest.epoch_rows, manifest.schedule], sort_keys=True).encode())
    out[key] = h.hexdigest()
print(json.dumps({"usable_cpus": nn.usable_cpus(), "hashes": out}))
"""


def _build():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    return {"numpy": np.__version__, "blas": name}


def replay_hashes(cache_path, split_path, *keys, preexec_fn=None):
    """Train the modes named by `keys` (all when none) in a fresh interpreter;
    returns (the nn usable-CPU count there, {key: digest})."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(cache_path), str(split_path), *keys],
                          env=env, capture_output=True, text=True, timeout=300,
                          preexec_fn=preexec_fn)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["usable_cpus"], out["hashes"]


def _skip_other_build():
    if _build() != BUILD:
        pytest.skip(f"hashes were recorded on {BUILD}; this build is {_build()}, "
                    "and replay is only claimed within one build")


def test_replay_hashes_match_recorded_build(tmp_path, small_corpus, small_split):
    _skip_other_build()
    split_path = tmp_path / "split.json"
    small_split.save(split_path)
    assert replay_hashes(small_corpus["cache_path"], split_path)[1] == EXPECTED


def test_semi_replays_on_one_cpu(tmp_path, small_corpus, small_split):
    """The conv stages' block pool sizes itself to the usable CPUs, but not
    the blocks: a process that may run on one CPU runs every block inline
    and trains the same bits as one that runs them on every usable CPU. The
    two digests are compared with each other, so this runs on any build."""
    if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs sched_setaffinity and at least two usable CPUs")
    cpu = min(os.sched_getaffinity(0))
    split_path = tmp_path / "split.json"
    small_split.save(split_path)
    pinned = replay_hashes(small_corpus["cache_path"], split_path, "semi",
                           preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    unpinned = replay_hashes(small_corpus["cache_path"], split_path, "semi")
    assert pinned[0] == 1 and unpinned[0] >= 2
    assert pinned[1] == unpinned[1]
