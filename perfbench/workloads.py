"""The benchmark's workloads: inputs made from a seed, one round of work, and
the checks on that round's outputs.

A workload object is built for one seed. `setup(dir)` writes its inputs and
returns what it measured there; `round()` repeats the same operations every
time and returns their timings and outputs; `check(rounds)` compares the
outputs with computations made independently of the package (see oracle.py)
and returns failure messages.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from lungsound import audio_io, dataset, evaluation, features, nn, synthetic, training
from lungsound.rng import substream

CFG = features.MfccConfig()
WINDOW_SAMPLES = int(round(CFG.clip_seconds * CFG.sample_rate))
CHANCE = 1.0 / nn.N_CLASSES
ROOT = Path(__file__).resolve().parent.parent


def _reference_mfcc():
    """The naive-DFT MFCC oracle kept with the package's tests."""
    spec = importlib.util.spec_from_file_location("reference_mfcc",
                                                  ROOT / "tests" / "reference_mfcc.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.reference_mfcc


def _median(xs):
    return float(np.median(xs))


# -- ingest ------------------------------------------------------------------

RATES = (4000, 10000, 22050, 44100)
ENCODINGS = ("pcm16", "pcm24", "float32")
# seconds; two below and two well beyond the 20 s feature window
DURATIONS = (4.0, 9.0, 30.0, 55.0)
CACHE_READERS = 5   # the walkthrough's split, 2x train and 2x evaluate each load the cache
GATHER_BATCH = 16
ORACLE_SAMPLE = 3   # cached grids checked against the naive-DFT oracle per run


class Ingest:
    """WAV corpus -> feature cache with one worker, then cache loads and gathers."""

    name = "ingest"

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        combos = [(r, e, ch) for r in RATES for e in ENCODINGS for ch in (1, 2)]
        durations = (2.0, 21.0) if toy else DURATIONS
        if toy:
            combos = combos[::4]
        self.files = [(r, e, ch, durations[i % len(durations)])
                      for i, (r, e, ch) in enumerate(combos)]

    def signal(self, i: int) -> tuple:
        """(class id, channels array) of file i, a tone/noise mixture from the seed."""
        rate, _, n_ch, dur = self.files[i]
        rng = np.random.default_rng([self.seed, i])
        cls = int(rng.integers(nn.N_CLASSES))
        f0 = (165.0, 262.0, 392.0, 587.0, 880.0, 1319.0)[cls] * rng.uniform(0.96, 1.04)
        f0 = min(f0, 0.4 * rate)
        t = np.arange(int(dur * rate)) / rate
        chans = []
        for _ in range(n_ch):
            x = np.sin(2 * np.pi * f0 * t + rng.uniform(0, 2 * np.pi))
            x += 0.4 * np.sin(2 * np.pi * 2 * f0 * t + rng.uniform(0, 2 * np.pi))
            x += 0.05 * rng.normal(size=t.shape)
            chans.append(x * rng.uniform(0.3, 0.8) / np.abs(x).max())
        return cls, np.stack(chans)

    def setup(self, ws: Path) -> dict:
        ws.mkdir(parents=True)
        self.entries = []
        for i, (rate, enc, _, _) in enumerate(self.files):
            cls, chans = self.signal(i)
            path = ws / f"{100 + i}_1b1_Tc_sc_{enc}.wav"
            oracle.write_wav(path, chans, rate, enc)
            self.entries.append((i, cls, str(path)))
        self.cache_path = ws / "ingest.lsfc"
        return {}

    def round(self) -> dict:
        t0 = perf_counter()
        failures = dataset.build_feature_cache(self.entries, CFG, self.cache_path, jobs=1)
        t1 = perf_counter()
        load_s = []
        for _ in range(CACHE_READERS):
            tl = perf_counter()
            cache = dataset.FeatureCache.load(self.cache_path, expected_config=CFG)
            load_s.append(perf_counter() - tl)
        order = cache.ids[substream(self.seed, "batch").permutation(len(cache))]
        gathers = [(ids, cache.gather(ids)) for ids in
                   (order[i:i + GATHER_BATCH] for i in range(0, len(order), GATHER_BATCH))]
        t2 = perf_counter()
        mb = CACHE_READERS * self.cache_path.stat().st_size / 1e6
        return {"round_s": t2 - t0, "extract_rate": len(self.entries) / (t1 - t0),
                "cache_load_rate": mb / sum(load_s),
                "attempted": len(self.entries) + CACHE_READERS + len(gathers),
                "failed": len(failures),
                "out": {"failures": failures, "cache": cache, "gathers": gathers}}

    def check(self, rounds) -> list:
        out = rounds[-1]["out"]
        bad = [f"extraction failed: {f}" for f in out["failures"]]
        cache = out["cache"]
        parsed = oracle.parse_cache(self.cache_path)
        want_cls = [cls for _, cls, _ in sorted(self.entries)]
        if parsed[0].tolist() != sorted(r for r, _, _ in self.entries) \
                or parsed[1].tolist() != want_cls:
            bad.append("cache: ids or classes differ from the recordings written")
        bad += oracle.check_cache(cache.ids, cache.classes, cache.matrices, parsed)
        bad += oracle.check_gathers(out["gathers"], parsed)

        for i, (rate, enc, _, _) in enumerate(self.files):
            clip = audio_io.load_wav(self.entries[i][2])
            bad += oracle.check_decoded(Path(self.entries[i][2]).name, clip.samples,
                                        clip.sample_rate, self.signal(i)[1], rate, enc)

        reference_mfcc = _reference_mfcc()
        row = {int(r): k for k, r in enumerate(parsed[0])}
        pick = np.random.default_rng(self.seed).choice(len(self.files), ORACLE_SAMPLE,
                                                       replace=False)
        for i in sorted(int(p) for p in pick):
            rate, enc, _, _ = self.files[i]
            mono = oracle.quantise(self.signal(i)[1], enc).mean(axis=0)
            x = oracle.linear_resample(mono, rate, CFG.sample_rate, WINDOW_SAMPLES)
            bad += oracle.check_mfcc(Path(self.entries[i][2]).name, parsed[2][row[i]],
                                     reference_mfcc(x, CFG.sample_rate, CFG))
        return bad

    def metrics(self, setups, rounds) -> dict:
        """Rates at nominal machine pace (a slow spell has scale < 1)."""
        return {"extract_rate": _median([r["extract_rate"] / r["scale"] for r in rounds]),
                "cache_load_rate": _median([r["cache_load_rate"] / r["scale"] for r in rounds])}


# -- training ------------------------------------------------------------------

class Training:
    """Tone corpus cached in set-up; each round loads the cache, trains, loads it
    again and scores every cached recording, as the train and evaluate commands do."""

    RECORDINGS_PER_CLASS = 16
    UNLABELED_FRACTION = 0.5
    VALIDATION_FRACTION = 0.25

    def __init__(self, seed: int, semi: bool, toy: bool = False):
        self.seed = seed
        self.semi = semi
        self.name = "semi" if semi else "supervised"
        self.per_class = 6 if toy else self.RECORDINGS_PER_CLASS
        if semi:
            self.ssl_epochs, self.sup_epochs = (1, 6) if toy else (3, 6)
        else:
            self.ssl_epochs, self.sup_epochs = 0, (4 if toy else 12)
        # patience beyond the epoch count: early stopping never shortens a round
        self.cfg = training.TrainConfig(
            epochs=self.ssl_epochs if semi else self.sup_epochs,
            refit_epochs=self.sup_epochs, batch_size=16, mode="semi" if semi else "baseline",
            seed=seed, early_stop_patience=self.sup_epochs + 1,
            validation_fraction=self.VALIDATION_FRACTION)

    def setup(self, ws: Path) -> dict:
        audio_dir, csv = synthetic.generate_corpus(ws, recordings_per_class=self.per_class,
                                                   seed=self.seed, duration_s=2.0)
        diagnoses = dataset.load_diagnoses(csv)
        entries = [(i, diagnoses[m.patient_id], m.path)
                   for i, m in enumerate(dataset.scan_audio_dir(audio_dir))]
        self.cache_path = ws / "features.lsfc"
        t0 = perf_counter()
        failures = dataset.build_feature_cache(entries, CFG, self.cache_path, jobs=1)
        extract_s = perf_counter() - t0
        if failures:
            raise RuntimeError(f"set-up extraction failed: {failures}")
        cache = dataset.FeatureCache.load(self.cache_path, expected_config=CFG)
        labels = {int(r): int(c) for r, c in zip(cache.ids, cache.classes)}
        self.split = dataset.make_splits(labels, seed=self.seed,
                                         unlabeled_fraction=self.UNLABELED_FRACTION)
        # scoring covers every cached recording; accuracy is read on the test ids
        self.score_split = dataset.SplitManifest([], [], sorted(labels), self.seed, 0.0)
        return {"extract_rate": len(entries) / extract_s}

    def round(self) -> dict:
        t0 = perf_counter()
        cache = dataset.FeatureCache.load(self.cache_path, expected_config=CFG)
        t1 = perf_counter()
        train = training.train_semi if self.semi else training.train_baseline
        params, manifest = train(self.cfg, cache, self.split)
        t2 = perf_counter()
        cache = dataset.FeatureCache.load(self.cache_path, expected_config=CFG)
        t3 = perf_counter()
        norm = training.FeatureNormalizer.from_meta(manifest.normalizer)
        y, p = training.evaluate_split(params, cache, self.score_split, norm)
        cm = evaluation.confusion(y, p)
        rep = evaluation.report(cm)
        t4 = perf_counter()
        mb = 2 * self.cache_path.stat().st_size / 1e6
        return {"round_s": t4 - t0, "cache_load_rate": mb / ((t1 - t0) + (t3 - t2)),
                "attempted": 6, "failed": 0,
                "param_sha256": oracle.param_hash(params.arrays()),
                "out": {"params": params, "manifest": manifest, "y": y, "p": p,
                        "cm": cm, "report": rep}}

    def check(self, rounds) -> list:
        out = rounds[-1]["out"]
        bad = []
        hashes = {r["param_sha256"] for r in rounds}
        if len(hashes) != 1:
            bad.append(f"replay: {len(rounds)} identical rounds gave {len(hashes)} "
                       "different parameter hashes")
        params = out["params"]
        if not all(np.isfinite(a).all() for a in params.arrays()):
            bad.append("trained parameters are not all finite")

        ids, classes, mats = oracle.parse_cache(self.cache_path)
        row = {int(r): k for k, r in enumerate(ids)}
        y, p = np.asarray(out["y"]), np.asarray(out["p"])
        if y.tolist() != [int(classes[row[r]]) for r in self.score_split.test]:
            bad.append("evaluation: true labels differ from the cached classes")
        rep = out["report"]
        bad += oracle.check_report(y, p, out["cm"], rep.accuracy, rep.support, nn.N_CLASSES)

        test = np.isin(self.score_split.test, self.split.test)
        acc = float((y[test] == p[test]).mean())
        if acc < 2 * CHANCE:
            bad.append(f"test accuracy {acc:.3f} is not clearly above chance "
                       f"(needs >= {2 * CHANCE:.3f})")

        pools = self.split.train_labeled + self.split.train_unlabeled
        lab = self.split.train_labeled
        xs = oracle.standardise(mats[[row[r] for r in pools]], mats[[row[r] for r in lab]])
        ys = np.array([classes[row[r]] for r in lab])
        start = nn.init_params(substream(self.seed, "init"))
        before = oracle.cross_entropy(_probs(start, xs), ys)
        after = oracle.cross_entropy(_probs(params, xs), ys)
        if not after < before:
            bad.append(f"training loss did not fall: {before:.4f} -> {after:.4f}")

        bad += oracle.check_schedule(out["manifest"].schedule, self.ssl_epochs,
                                     self.sup_epochs)
        return bad

    def metrics(self, setups, rounds) -> dict:
        """Rates at nominal machine pace (a slow spell has scale < 1)."""
        return {"extract_rate": _median([s["extract_rate"] / s["scale"] for s in setups]),
                "cache_load_rate": _median([r["cache_load_rate"] / r["scale"] for r in rounds])}


def _probs(params, xs, chunk: int = 32):
    return np.concatenate([nn.forward_batch(params, xs[i:i + chunk], keep_trace=False)[0]
                           for i in range(0, len(xs), chunk)])


def make(name: str, seed: int, toy: bool = False):
    if name == "ingest":
        return Ingest(seed, toy)
    if name in ("supervised", "semi"):
        return Training(seed, semi=name == "semi", toy=toy)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ingest", "supervised", "semi")
