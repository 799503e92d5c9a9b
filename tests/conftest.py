import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for reference_mfcc

from lungsound import dataset, features, synthetic


def cached_corpus(root, **corpus):
    """synthetic.generate_corpus(root, **corpus) plus the feature cache of its
    in-scope recordings (`entries`) at root/features.lsfc."""
    audio_dir, csv_path = synthetic.generate_corpus(root, **corpus)
    cfg = features.MfccConfig()
    metas = dataset.scan_audio_dir(audio_dir)
    diagnoses = dataset.load_diagnoses(csv_path)
    entries = [(i, diagnoses[m.patient_id], m.path) for i, m in enumerate(metas)
               if diagnoses.get(m.patient_id) is not None]
    cache_path = root / "features.lsfc"
    failures = dataset.build_feature_cache(entries, cfg, cache_path)
    assert not failures
    return dict(root=root, audio_dir=audio_dir, csv=csv_path, cfg=cfg, entries=entries,
                cache_path=cache_path,
                cache=dataset.FeatureCache.load(cache_path, expected_config=cfg))


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """Tiny six-class corpus (8 recordings/class, 1 s clips) plus its cache;
    two more recordings have an out-of-scope diagnosis and are not cached."""
    return cached_corpus(tmp_path_factory.mktemp("small-corpus"), recordings_per_class=8,
                         seed=7, duration_s=1.0, include_excluded=2)


@pytest.fixture(scope="session")
def small_split(small_corpus):
    cache = small_corpus["cache"]
    labels = {int(r): int(c) for r, c in zip(cache.ids, cache.classes)}
    return dataset.make_splits(labels, seed=3, unlabeled_fraction=0.4)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
