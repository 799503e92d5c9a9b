import hashlib
import json
import logging
import struct
from pathlib import Path

import numpy as np
import pytest

from lungsound import audio_io, dataset, features
from lungsound.dataset import (FeatureCache, SplitManifest, build_feature_cache,
                               load_diagnoses, make_splits, parse_filename)
from lungsound.errors import (ConfigHashMismatch, MalformedCsv, MalformedHeader,
                              MalformedName, NoUsableData, UnknownPatient)
from front_end_oracle import mfcc_grid
from test_audio_io import encode, make_wav

# class counts mirroring the reference corpus
REFERENCE_COUNTS = {0: 16, 1: 13, 2: 793, 3: 35, 4: 37, 5: 23}


def test_parse_filename():
    meta = parse_filename("101_1b1_Al_sc_Meditron")
    assert meta.patient_id == 101
    assert meta.recording_index == "1b1"
    assert meta.chest_location == "Al"
    assert meta.acquisition_mode == "sc"
    assert meta.equipment == "Meditron"


def test_parse_filename_wrong_field_count():
    with pytest.raises(MalformedName):
        parse_filename("101_1b1_Al_sc")
    with pytest.raises(MalformedName):
        parse_filename("101_1b1_Al_sc_Meditron_extra")


def test_parse_filename_bad_patient_id():
    with pytest.raises(MalformedName):
        parse_filename("abc_1_2_3_4")


def test_load_diagnoses(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("101,URTI\n103,Asthma\n107,COPD\n110,LRTI\n")
    mapping = load_diagnoses(csv)
    assert mapping[101] == 5
    assert mapping[103] is None  # out-of-scope diagnosis
    assert mapping[107] == 2
    assert mapping[110] is None


def test_load_diagnoses_header_detected(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("patient_id,diagnosis\n42,Healthy\n")
    assert load_diagnoses(csv) == {42: 3}


def test_load_diagnoses_byte_order_mark(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_bytes(b"\xef\xbb\xbf101,URTI\n102,COPD\n")
    assert load_diagnoses(csv) == {101: 5, 102: 2}
    csv.write_bytes(b"\xef\xbb\xbfpatient_id,diagnosis\n42,Healthy\n")
    assert load_diagnoses(csv) == {42: 3}


def test_load_diagnoses_identical_repeat_accepted(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("101,URTI\n102,COPD\n101,URTI\n")
    assert load_diagnoses(csv) == {101: 5, 102: 2}


def test_load_diagnoses_malformed(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("101,URTI,extra\n")
    with pytest.raises(MalformedCsv):
        load_diagnoses(csv)
    csv.write_text("1,Healthy\nnope,COPD\n")
    with pytest.raises(MalformedCsv):
        load_diagnoses(csv)


def test_empty_diagnoses_leads_to_no_usable_data(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("")
    assert load_diagnoses(csv) == {}
    with pytest.raises(NoUsableData):
        make_splits({}, seed=0, unlabeled_fraction=0.5)


def labels_from_counts(counts):
    labels = {}
    rec_id = 0
    for cls, n in counts.items():
        for _ in range(n):
            labels[rec_id] = cls
            rec_id += 1
    return labels


def test_reference_class_counts_give_published_supports():
    labels = labels_from_counts(REFERENCE_COUNTS)
    manifest = make_splits(labels, seed=0, unlabeled_fraction=0.5)
    supports = [sum(1 for r in manifest.test if labels[r] == c) for c in range(6)]
    assert supports == [3, 3, 159, 7, 7, 5]
    assert len(manifest.test) == 184


def test_sixteen_recording_class_splits_13_3():
    manifest = make_splits({i: 0 for i in range(16)}, seed=1, unlabeled_fraction=0.0)
    assert len(manifest.test) == 3
    assert len(manifest.train_labeled) == 13
    assert len(manifest.train_unlabeled) == 0


def test_unlabeled_fraction():
    manifest = make_splits({i: 0 for i in range(20)}, seed=1, unlabeled_fraction=0.5)
    assert len(manifest.test) == 4
    assert len(manifest.train_unlabeled) == 8
    assert len(manifest.train_labeled) == 8


def test_split_determinism():
    labels = labels_from_counts(REFERENCE_COUNTS)
    a = make_splits(labels, seed=5, unlabeled_fraction=0.3)
    b = make_splits(labels, seed=5, unlabeled_fraction=0.3)
    assert a.train_labeled == b.train_labeled
    assert a.train_unlabeled == b.train_unlabeled
    assert a.test == b.test
    c = make_splits(labels, seed=6, unlabeled_fraction=0.3)
    assert c.test != a.test


def test_no_leakage():
    manifest = make_splits(labels_from_counts(REFERENCE_COUNTS), seed=2,
                           unlabeled_fraction=0.4)
    lab, unlab, test = map(set, (manifest.train_labeled, manifest.train_unlabeled,
                                 manifest.test))
    assert not (lab & unlab) and not (lab & test) and not (unlab & test)
    assert len(lab) + len(unlab) + len(test) == sum(REFERENCE_COUNTS.values())


def test_class_too_small_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="lungsound.dataset"):
        make_splits({0: 0, 1: 0, 2: 1}, seed=0, unlabeled_fraction=0.0)
    assert any("only" in r.message for r in caplog.records)


def test_patient_level_split_keeps_patients_together():
    # 12 patients x 3 recordings each, 2 patients per class
    labels, stems = {}, {}
    rec = 0
    for pid in range(12):
        for k in range(3):
            labels[rec] = pid % 6
            stems[rec] = f"{100 + pid}_{k}b1_Al_sc_Synth"
            rec += 1
    manifest = make_splits(labels, seed=4, unlabeled_fraction=0.5,
                           stems=stems, by_patient=True)
    subsets = {"test": manifest.test, "lab": manifest.train_labeled,
               "unlab": manifest.train_unlabeled}
    patient_of = {r: parse_filename(stems[r]).patient_id for r in labels}
    for name, ids in subsets.items():
        for other, other_ids in subsets.items():
            if name == other:
                continue
            shared = {patient_of[r] for r in ids} & {patient_of[r] for r in other_ids}
            assert not shared
    assert sorted(sum(subsets.values(), [])) == sorted(labels)
    with pytest.raises(ValueError):
        make_splits(labels, seed=4, unlabeled_fraction=0.5, by_patient=True)


def test_manifest_json_round_trip():
    manifest = make_splits({i: i % 6 for i in range(60)}, seed=9,
                           unlabeled_fraction=0.25, stems={0: "a_b_c_d_e"})
    again = SplitManifest.from_json(manifest.to_json())
    assert again.train_labeled == manifest.train_labeled
    assert again.train_unlabeled == manifest.train_unlabeled
    assert again.test == manifest.test
    assert again.stems[0] == "a_b_c_d_e"


def test_cache_round_trip(small_corpus):
    cache = small_corpus["cache"]
    reloaded = FeatureCache.load(small_corpus["cache_path"],
                                 expected_config=small_corpus["cfg"])
    assert np.array_equal(cache.ids, reloaded.ids)
    assert np.array_equal(cache.classes, reloaded.classes)
    assert np.array_equal(cache.matrices, reloaded.matrices)  # bit-identical
    assert len(reloaded) == 48
    assert reloaded.stems


def test_cache_config_hash_mismatch(small_corpus):
    other = features.MfccConfig(hop_length=256)
    with pytest.raises(ConfigHashMismatch):
        FeatureCache.load(small_corpus["cache_path"], expected_config=other)


def test_cache_unknown_recording(small_corpus):
    cache = small_corpus["cache"]
    with pytest.raises(UnknownPatient):
        cache.gather([999999])
    with pytest.raises(UnknownPatient, match="999999"):
        cache.gather([int(cache.ids[0]), 999999])
    with pytest.raises(UnknownPatient):
        cache.gather([-1])
    ids = cache.ids[[5, 0, 5]]
    assert np.array_equal(cache.gather(ids), np.stack([cache.matrices[i] for i in (5, 0, 5)]))
    assert cache.gather([]).shape == (0,) + cache.matrices.shape[1:]


def test_cache_ids_strictly_increase():
    mats = np.zeros((3, 40, 862), np.float32)
    for ids in ([0, 2, 2], [0, 2, 1]):
        with pytest.raises(ValueError, match="strictly increasing"):
            FeatureCache(ids, [0, 1, 2], mats, b"\x00" * 32)
    cache = FeatureCache([0, 2, 5], [0, 1, 2], mats, b"\x00" * 32)
    assert cache.rows([5, 0, 5, 2]).tolist() == [2, 0, 2, 1]
    for absent in (-1, 1, 6):
        with pytest.raises(UnknownPatient):
            cache.rows([absent])


def _mfcc(path, cfg):
    return features.extract_mfcc(audio_io.resample(audio_io.load_wav(path), cfg.sample_rate),
                                 cfg).astype("<f4")


def _cache_bytes(cfg, records, stems, failures):
    """The v1 layout assembled by hand: header, packed records, JSON trailer."""
    out = b"LSFC" + struct.pack("<H", 1) + cfg.hash_bytes() + struct.pack("<I", len(records))
    for rid, cls, mat in records:
        out += struct.pack("<Ib", rid, cls) + mat.tobytes()
    trailer = {"stems": {str(rid): stem for rid, stem in stems}, "failures": failures}
    return out + json.dumps(trailer).encode()


def test_cache_bytes_match_documented_layout(tmp_path, small_corpus):
    cfg = small_corpus["cfg"]
    bad = tmp_path / "999_1b1_Tc_sc_Synth.wav"
    bad.write_bytes(b"this is not audio")
    first, second = sorted(small_corpus["audio_dir"].glob("*.wav"))[:2]
    out = tmp_path / "cache.lsfc"
    # out of id order, an unlabeled record and a failure
    failures = build_feature_cache([(7, 2, str(first)), (3, 5, str(bad)),
                                    (1, dataset.UNLABELED, str(second))], cfg, out)
    assert [f[:2] for f in failures] == [(3, str(bad))]
    data = out.read_bytes()
    assert data == _cache_bytes(
        cfg, [(1, -1, _mfcc(second, cfg)), (7, 2, _mfcc(first, cfg))],
        [(1, second.stem), (7, first.stem)], [[3, str(bad), failures[0][2]]])
    cache = FeatureCache.load(out, expected_config=cfg)
    assert cache.ids.tolist() == [1, 7] and cache.classes.tolist() == [-1, 2]
    assert np.array_equal(cache.gather([7, 1]), np.stack([_mfcc(first, cfg), _mfcc(second, cfg)]))
    assert cache.stems == {1: second.stem, 7: first.stem}
    assert cache.file_sha256 == hashlib.sha256(data).hexdigest()
    assert cache.matrices.dtype == np.float32 and cache.matrices.flags.writeable


# the shortest kept length (in 22050 Hz samples) at which the reflected right
# edge of the 20 s window can read signal, so that every frame is transformed
_EDGE = 441000 - 1 - 1024


def test_cache_bytes_match_whole_file_front_end(tmp_path):
    """Recordings longer than the 20 s grid, at odd rates, widths and channel
    counts: decoding only the window changes no byte of the cache. Recordings
    shorter than it, framed only as far as their signal reaches, match the
    chain run over every frame of the padded window."""
    cfg = features.MfccConfig()
    rng = np.random.default_rng(11)
    entries = []
    # (rate, format, bits, channels, frames, frames before digital silence)
    for i, (rate, fmt, bits, channels, n, n_signal) in enumerate([
            (7919, 1, 24, 2, 23 * 7919, None), (11025, 1, 8, 1, 21 * 11025, None),
            (44100, 3, 32, 2, 20 * 44100 + 22050, None), (48000, 1, 16, 1, 22 * 48000, None),
            (4000, 1, 32, 2, 25 * 4000, None),
            (22050, 1, 16, 1, 300, None), (8000, 1, 16, 2, 8000, None),
            (16000, 3, 32, 1, 4 * 16000, None), (44100, 1, 24, 2, 9 * 44100, None),
            (22050, 1, 16, 1, _EDGE - 1, None), (22050, 1, 16, 1, _EDGE, None),
            (22050, 1, 16, 1, _EDGE + 1, None),
            (22050, 1, 16, 1, 6 * 22050, 2 * 22050), (22050, 1, 16, 1, 3 * 22050, 0)]):
        t = np.arange(n)[:, None] / rate
        frames = 0.5 * np.sin(2 * np.pi * 180.0 * (i + 1) * t) \
            + rng.uniform(-0.4, 0.4, (len(t), channels))
        if n_signal is not None:
            frames[n_signal:] = 0.0
        path = tmp_path / f"{200 + i}_1b1_Tc_sc_Synth.wav"
        path.write_bytes(make_wav(encode(frames, fmt, bits), fmt, channels, rate, bits))
        entries.append((i, i % 6, str(path)))
    out = tmp_path / "cache.lsfc"
    assert build_feature_cache(entries, cfg, out) == []
    assert out.read_bytes() == _cache_bytes(
        cfg, [(rid, cls, mfcc_grid(path, cfg)) for rid, cls, path in entries],
        [(rid, Path(path).stem) for rid, _, path in entries], [])


def test_cache_with_every_extraction_failed(tmp_path, small_corpus):
    cfg = small_corpus["cfg"]
    bad = tmp_path / "999_1b1_Tc_sc_Synth.wav"
    bad.write_bytes(b"RIFF")
    out = tmp_path / "cache.lsfc"
    failures = build_feature_cache([(4, 1, str(bad))], cfg, out)
    assert out.read_bytes() == _cache_bytes(cfg, [], [], [[4, str(bad), failures[0][2]]])
    cache = FeatureCache.load(out, expected_config=cfg)
    assert len(cache) == 0 and cache.matrices.shape == (0, 40, 862) and cache.stems == {}
    assert cache.gather([]).shape == (0, 40, 862)
    with pytest.raises(UnknownPatient):
        cache.gather([4])


def test_cache_truncated_or_damaged_is_malformed(tmp_path, small_corpus):
    data = small_corpus["cache_path"].read_bytes()
    record = 5 + 4 * 40 * 862
    (count,) = struct.unpack_from("<I", data, 38)
    trailer_at = 42 + count * record
    cuts = [*range(43), 42 + 1, 42 + 5, 42 + record - 1, 42 + 7 * record + 4,
            trailer_at - 1, trailer_at, len(data) - 1]
    damaged = [data[:n] for n in cuts]
    damaged += [data[:trailer_at] + b"\xff{}",                        # trailer not UTF-8
                data[:trailer_at] + b"[]",                             # trailer not an object
                data[:trailer_at] + b'{"stems": {"x": "a"}}',           # stem id not an integer
                data[:38] + struct.pack("<I", 0xFFFFFFFF) + data[42:]]  # count beyond the file
    path = tmp_path / "damaged.lsfc"
    for blob in damaged:
        path.write_bytes(blob)
        with pytest.raises(MalformedHeader):
            FeatureCache.load(path)


def test_cache_records_failures(tmp_path, small_corpus):
    bad = tmp_path / "999_1b1_Tc_sc_Synth.wav"
    bad.write_bytes(b"this is not audio")
    good = next(iter(small_corpus["audio_dir"].glob("*.wav")))
    entries = [(0, 2, str(good)), (1, 3, str(bad))]
    out = tmp_path / "cache.lsfc"
    failures = build_feature_cache(entries, small_corpus["cfg"], out)
    assert len(failures) == 1
    assert failures[0][0] == 1
    cache = FeatureCache.load(out)
    assert len(cache) == 1


def test_cache_shape_fixed(tmp_path):
    cfg = features.MfccConfig(clip_seconds=1.0, target_frames=44)
    with pytest.raises(ValueError):
        build_feature_cache([], cfg, tmp_path / "c.lsfc")


@pytest.mark.parametrize("entries, message", [
    ([(1, 0, "a.wav"), (2, 1, "b.wav"), (1, 2, "c.wav")],
     r"recording id 1 \(c\.wav\) is listed twice"),
    ([(1, 0, "a.wav"), (2, 6, "b.wav"), (3, -2, "c.wav")], r"recording 2 \(b\.wav\) has class 6"),
    ([(1, 0, "a.wav"), (2 ** 32, 1, "b.wav"), (-1, 1, "c.wav")],
     r"recording id 4294967296 \(b\.wav\) does not fit in u32"),
], ids=["duplicate-id", "class-outside-range", "id-outside-u32"])
def test_cache_builder_refuses_entries_the_loader_rejects(tmp_path, monkeypatch, entries, message):
    """Each entry is checked before any file is read, and no cache is written."""
    def load_wav(*args, **kwargs):
        pytest.fail("a WAV was read before the entries were checked")
    monkeypatch.setattr(audio_io, "load_wav", load_wav)
    out = tmp_path / "c.lsfc"
    with pytest.raises(ValueError, match=message):
        build_feature_cache(entries, features.MfccConfig(), out)
    assert not out.exists()


def test_parallel_extraction_matches_serial(tmp_path, small_corpus):
    wavs = sorted(small_corpus["audio_dir"].glob("*.wav"))[:6]
    entries = [(i, i % 6, str(p)) for i, p in enumerate(wavs)]
    cfg = small_corpus["cfg"]
    build_feature_cache(entries, cfg, tmp_path / "serial.lsfc", jobs=1)
    build_feature_cache(entries, cfg, tmp_path / "parallel.lsfc", jobs=2)
    assert (tmp_path / "serial.lsfc").read_bytes() == (tmp_path / "parallel.lsfc").read_bytes()
