"""Corpus ingestion: filename metadata, diagnosis CSV, stratified splits, and
the binary feature cache.

The corpus layout is a directory of WAV files named
patientid_recordingindex_chestlocation_acquisitionmode_equipment.wav plus a
two-column patient_id,diagnosis CSV. Respiratory-cycle annotation .txt files
sitting next to the audio are recognized and ignored.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import audio_io, features
from .errors import (ConfigHashMismatch, DataError, MalformedCsv, MalformedHeader,
                     MalformedName, NoUsableData, SplitCacheMismatch, UnknownPatient)
from .nn import N_CLASSES
from .rng import substream

log = logging.getLogger(__name__)

CLASS_NAMES = ("Bronchiectasis", "Bronchiolitis", "COPD", "Healthy", "Pneumonia", "URTI")
CLASS_IDS = {name: i for i, name in enumerate(CLASS_NAMES)}
UNLABELED = -1  # cache sentinel for records without a usable class

TEST_FRACTION = 0.2


@dataclass(frozen=True)
class RecordingMeta:
    patient_id: int
    recording_index: str
    chest_location: str
    acquisition_mode: str
    equipment: str
    path: str = ""


def parse_filename(stem: str, path: str = "") -> RecordingMeta:
    """Split an underscore-delimited recording stem into its five fields."""
    parts = stem.split("_")
    if len(parts) != 5:
        raise MalformedName(f"{stem!r}: expected 5 underscore-delimited fields, got {len(parts)}")
    try:
        patient_id = int(parts[0])
    except ValueError:
        raise MalformedName(f"{stem!r}: patient id {parts[0]!r} is not an integer") from None
    return RecordingMeta(patient_id, parts[1], parts[2], parts[3], parts[4], path)


def scan_audio_dir(root) -> list:
    """All parseable WAV recordings under root, sorted by stem."""
    metas = []
    for p in sorted(Path(root).iterdir()):
        if p.suffix.lower() != ".wav":
            continue
        metas.append(parse_filename(p.stem, str(p)))
    return metas


def load_diagnoses(csv_path) -> dict:
    """patient_id -> class id, or None for out-of-scope diagnoses.

    Any diagnosis outside the six classes (Asthma, LRTI, ...) maps to None and
    its recordings are dropped later; the count is logged. A non-numeric first
    row is treated as a header, and a UTF-8 byte-order mark is skipped. A
    patient listed again with another diagnosis raises MalformedCsv.
    """
    try:
        with open(csv_path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"{csv_path}: not UTF-8 text ({exc.reason})") from None
    mapping = {}
    seen = {}  # patient id -> (line, diagnosis) of its first row
    excluded = 0
    for lineno, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise MalformedCsv(f"{csv_path}:{lineno + 1}: expected 2 fields, got {len(parts)}")
        try:
            pid = int(parts[0])
        except ValueError:
            if lineno == 0:
                continue  # header row
            raise MalformedCsv(f"{csv_path}:{lineno + 1}: bad patient id {parts[0]!r}") from None
        if pid in seen:
            first, diagnosis = seen[pid]
            if diagnosis != parts[1]:
                raise MalformedCsv(f"{csv_path}:{lineno + 1}: patient {pid} is {parts[1]!r} "
                                   f"here but {diagnosis!r} on line {first}")
            continue
        seen[pid] = (lineno + 1, parts[1])
        cls = CLASS_IDS.get(parts[1])
        if cls is None:
            excluded += 1
        mapping[pid] = cls
    if excluded:
        log.info("diagnosis csv: %d patients with out-of-scope diagnoses excluded", excluded)
    return mapping


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


@dataclass
class SplitManifest:
    train_labeled: list
    train_unlabeled: list
    test: list
    seed: int
    unlabeled_fraction: float
    stems: dict = field(default_factory=dict)  # recording id -> stem, for audit

    def validate(self) -> None:
        """DataError unless every id appears once across the three lists."""
        ids = [*self.train_labeled, *self.train_unlabeled, *self.test]
        if len(set(ids)) != len(ids):
            repeated = next(r for r, n in Counter(ids).items() if n > 1)
            raise DataError(f"split manifest lists recording id {repeated} more than once")

    def check_cache(self, cache: "FeatureCache") -> None:
        """Refuse a split made from another cache: SplitCacheMismatch when an
        id it lists has a stem here that differs from the cache's stem for it.
        Ids without a stem on either side are not checked."""
        ids = [*self.train_labeled, *self.train_unlabeled, *self.test]
        bad = [(r, self.stems[r], cache.stems[r]) for r in ids
               if r in self.stems and r in cache.stems and self.stems[r] != cache.stems[r]]
        if bad:
            rid, mine, theirs = bad[0]
            raise SplitCacheMismatch(
                f"the split was made from another cache: {len(bad)} of its {len(ids)} ids "
                f"name other recordings here (id {rid} is {mine!r} in the split, "
                f"{theirs!r} in the cache)")

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "unlabeled_fraction": self.unlabeled_fraction,
            "train_labeled": list(map(int, self.train_labeled)),
            "train_unlabeled": list(map(int, self.train_unlabeled)),
            "test": list(map(int, self.test)),
            "stems": {str(k): v for k, v in self.stems.items()},
        }, indent=2)

    @classmethod
    def from_json(cls, text) -> "SplitManifest":
        """Inverse of to_json (str or UTF-8 bytes); bad JSON, a missing key or
        an id list that is not a list of u32 record ids raises DataError."""
        try:
            d = json.loads(text)
            lists = [d[k] for k in ("train_labeled", "train_unlabeled", "test")]
            if not all(type(ids) is list and all(type(r) is int and 0 <= r < 2 ** 32 for r in ids)
                       for ids in lists):
                raise TypeError("an id list is not a list of u32 record ids")
            m = cls(*lists, seed=d["seed"], unlabeled_fraction=d["unlabeled_fraction"],
                    stems={int(k): v for k, v in d.get("stems", {}).items()})
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise DataError(f"not a split manifest ({type(exc).__name__}: {exc})") from None
        m.validate()
        return m

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "SplitManifest":
        try:
            return cls.from_json(Path(path).read_bytes())
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


def make_splits(labels: dict, seed: int, unlabeled_fraction: float,
                stems: dict | None = None, by_patient: bool = False) -> SplitManifest:
    """Per-class stratified split of recording ids.

    `labels` maps recording id -> class id. 20% of each class (nearest
    integer, at least 1 when the class has >= 3 units) goes to test;
    `unlabeled_fraction` of the remainder has its labels withheld for
    training. Deterministic given (labels, seed, fraction).

    The default split unit is the recording. With by_patient=True all
    recordings of one patient travel together (fractions then apply to
    patient counts); this needs `stems` to recover patient ids.
    """
    if not labels:
        raise NoUsableData("no labeled recordings to split")
    if not 0.0 <= unlabeled_fraction < 1.0:
        raise ValueError(f"unlabeled_fraction must be in [0, 1), got {unlabeled_fraction}")
    if by_patient:
        if not stems:
            raise ValueError("by_patient splitting needs recording stems")
        units = {}  # patient id -> (class, [recording ids])
        for rec_id, cls in labels.items():
            pid = parse_filename(stems[rec_id]).patient_id
            units.setdefault(pid, (cls, []))[1].append(rec_id)
    else:
        units = {rec_id: (cls, [rec_id]) for rec_id, cls in labels.items()}

    by_class = {}
    for unit_id, (cls, _) in units.items():
        by_class.setdefault(cls, []).append(unit_id)

    train_labeled, train_unlabeled, test = [], [], []
    for cls in sorted(by_class):
        ids = np.array(sorted(by_class[cls]))
        n = len(ids)
        if n < 3:
            log.warning("class %s has only %d %s; test slice may be empty",
                        CLASS_NAMES[cls] if 0 <= cls < len(CLASS_NAMES) else cls, n,
                        "patients" if by_patient else "recordings")
        order = ids[substream(seed, "split", cls).permutation(n)]
        n_test = _round_half_up(TEST_FRACTION * n)
        if n >= 3:
            n_test = max(1, n_test)
        rest = order[n_test:]
        n_unlab = _round_half_up(unlabeled_fraction * len(rest))
        for unit_id in order[:n_test]:
            test.extend(units[int(unit_id)][1])
        for unit_id in rest[:n_unlab]:
            train_unlabeled.extend(units[int(unit_id)][1])
        for unit_id in rest[n_unlab:]:
            train_labeled.extend(units[int(unit_id)][1])

    manifest = SplitManifest(sorted(map(int, train_labeled)), sorted(map(int, train_unlabeled)),
                             sorted(map(int, test)), seed, unlabeled_fraction,
                             stems=dict(stems or {}))
    manifest.validate()
    return manifest


# -- feature cache ---------------------------------------------------------
#
# Cache v1, little-endian: the _HEADER (magic, version, feature-config hash,
# record count), `count` packed _RECORDs in strictly increasing id order (class
# UNLABELED or 0..N_CLASSES-1), then a UTF-8 JSON trailer {"stems": {id: stem}
# for every record, "failures": [[id, path, message], ...]}.

_CACHE_MAGIC = b"LSFC"
_CACHE_VERSION = 1
_CACHE_SHAPE = (40, 862)  # the record layout is fixed-shape
_HEADER = struct.Struct("<4sH32sI")
_RECORD = np.dtype([("id", "<u4"), ("cls", "i1"), ("mat", "<f4", _CACHE_SHAPE)])


def _extract(rec_id, cls, path, cfg):
    """(id, class, MFCC grid) of one entry, or the message of the DataError
    that stopped it. Only the clip_seconds window that the grid keeps is
    decoded and resampled."""
    try:
        clip = audio_io.resample(audio_io.load_wav(path, cfg.clip_seconds), cfg.sample_rate)
        return rec_id, cls, features.extract_mfcc(clip, cfg).astype("<f4")
    except DataError as exc:
        return f"{type(exc).__name__}: {exc}"


def build_feature_cache(entries, cfg: features.MfccConfig, out_path, jobs: int = 1):
    """Extract features for (recording id, class id, wav path) entries.

    Writes the binary cache (records sorted by recording id) and returns the
    list of per-file failures as (recording id, path, message). Files that
    fail to decode are skipped, not fatal. With `jobs` > 1, that many threads
    extract the entries.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if (cfg.n_coefficients, cfg.target_frames) != _CACHE_SHAPE:
        raise ValueError(f"cache records are fixed at {_CACHE_SHAPE}, "
                         f"config gives ({cfg.n_coefficients}, {cfg.target_frames})")
    work = [(int(rid), int(cls), path) for rid, cls, path in entries]
    results, failures = [], []
    # one job runs on the caller's thread: a worker thread gets a malloc arena
    # of its own, which keeps the freed extraction buffers resident
    with ThreadPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        outcomes = (pool.map if pool else map)(lambda w: _extract(*w, cfg), work)
        for (rid, _, path), outcome in zip(work, outcomes):
            if isinstance(outcome, str):
                log.warning("skipping recording %d (%s): %s", rid, path, outcome)
                failures.append((rid, path, outcome))
            else:
                results.append(outcome)
    results.sort(key=lambda r: r[0])

    stems = {rid: Path(path).stem for rid, _, path in work}
    trailer = {"stems": {str(r[0]): stems[r[0]] for r in results},
               "failures": [list(f) for f in failures]}
    with open(out_path, "wb") as fh:
        fh.write(_HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, cfg.hash_bytes(), len(results)))
        fh.writelines(np.array(r, dtype=_RECORD) for r in results)  # no copy of the whole block
        fh.write(json.dumps(trailer).encode())
    return failures


class FeatureCache:
    """In-memory view of a cache file: ids, class ids, and feature matrices."""

    def __init__(self, ids, classes, matrices, config_hash, stems=None, path=None,
                 file_sha256=None):
        self.ids = np.asarray(ids)
        if (np.diff(self.ids) <= 0).any():
            raise ValueError("recording ids are not strictly increasing")
        self.classes = np.asarray(classes)
        self.matrices = matrices
        self.config_hash = config_hash
        self.stems = stems or {}
        self.path = path
        self.file_sha256 = file_sha256

    def __len__(self):
        return len(self.ids)

    def rows(self, rec_ids) -> np.ndarray:
        """Row positions of recording ids, in the order given; an id absent
        from the cache raises UnknownPatient."""
        want = np.asarray(rec_ids, dtype=np.int64)
        at = np.searchsorted(self.ids, want)
        known = at < len(self.ids)
        known[known] = self.ids[at[known]] == want[known]
        if not known.all():
            raise UnknownPatient(f"recording {want[~known][0]} not present in cache")
        return at

    def gather(self, rec_ids) -> np.ndarray:
        """Feature matrices of recording ids, stacked in the order given."""
        return self.matrices[self.rows(rec_ids)]

    @classmethod
    def load(cls, path, expected_config: features.MfccConfig | None = None) -> "FeatureCache":
        """Read a cache file; a truncated or damaged one raises MalformedHeader.

        The record block is read once, straight into one _RECORD array, and
        `matrices` is a writable view of its grids.
        """
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if head[:4] != _CACHE_MAGIC:
                raise MalformedHeader(f"{path}: not a feature cache")
            try:
                _, version, config_hash, count = _HEADER.unpack(head)
                if version != _CACHE_VERSION:
                    raise MalformedHeader(f"{path}: unsupported cache version {version}")
                if expected_config is not None and config_hash != expected_config.hash_bytes():
                    raise ConfigHashMismatch(
                        f"{path}: cache was built with a different feature config")
                # checked before allocating: a damaged count could ask for terabytes
                if _HEADER.size + count * _RECORD.itemsize >= os.fstat(fh.fileno()).st_size:
                    raise ValueError(f"{count} records and a trailer do not fit in the file")
                recs = np.empty(count, _RECORD)
                if fh.readinto(recs) != recs.nbytes:
                    raise ValueError("short record block")
                tail = fh.read()
                trailer = json.loads(tail.decode())
                stems = {int(k): v for k, v in trailer.get("stems", {}).items()}
                if not ((recs["cls"] >= UNLABELED) & (recs["cls"] < N_CLASSES)).all():
                    raise ValueError(f"a class id lies outside {UNLABELED}..{N_CLASSES - 1}")
                if stems.keys() != set(recs["id"].tolist()):
                    raise ValueError("the trailer's stems do not name exactly the records")
                if not all(type(stem) is str for stem in stems.values()):
                    raise ValueError("a trailer stem is not a string")
                digest = hashlib.sha256(head)
                digest.update(recs)
                digest.update(tail)
                return cls(recs["id"].astype(np.int64), recs["cls"].astype(np.int64),
                           recs["mat"], config_hash, stems, str(path), digest.hexdigest())
            except (struct.error, ValueError, AttributeError) as exc:
                # a short header or record block, a bad trailer, or records that break the format
                raise MalformedHeader(f"{path}: damaged cache ({type(exc).__name__}: {exc})") \
                    from None
