"""Synthetic six-class corpus of tone/noise mixtures.

Each class is a distinct recipe (fundamental pitch, harmonic balance, noise
floor); each recording jitters the recipe's frequency, amplitude and phase.
Output is a directory of 16-bit PCM WAV files named like real corpus
recordings plus a patient_id,diagnosis CSV, so the whole ingestion path can
be exercised end to end without clinical data.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .dataset import CLASS_NAMES
from .rng import substream

# per class: fundamental Hz, second-harmonic weight, noise sigma
_RECIPES = (
    (165.0, 0.10, 0.02),
    (262.0, 0.60, 0.05),
    (392.0, 0.25, 0.12),
    (587.0, 0.80, 0.03),
    (880.0, 0.15, 0.20),
    (1319.0, 0.50, 0.08),
)

_PATIENTS_PER_CLASS = 12

_SAMPLE_RATES = (22050, 44100)  # alternate across recordings, to exercise the resampler


def write_wav_pcm16(path, samples: np.ndarray, sample_rate: int) -> None:
    """Minimal 16-bit mono PCM writer."""
    pcm = np.clip(np.asarray(samples) * 32767.0, -32768, 32767).astype("<i2")
    payload = pcm.tobytes()
    with open(path, "wb") as fh:
        fh.write(b"RIFF")
        fh.write(struct.pack("<I", 36 + len(payload)))
        fh.write(b"WAVE")
        fh.write(b"fmt ")
        fh.write(struct.pack("<IHHIIHH", 16, 1, 1, sample_rate, sample_rate * 2, 2, 16))
        fh.write(b"data")
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)


def tone_mixture(class_id: int, rng: np.random.Generator, duration_s: float,
                 sample_rate: int) -> np.ndarray:
    f0, harmonic, noise = _RECIPES[class_id]
    f0 *= float(rng.uniform(0.96, 1.04))
    amp = float(rng.uniform(0.35, 0.75))
    t = np.arange(int(duration_s * sample_rate)) / sample_rate
    sig = np.sin(2 * np.pi * f0 * t + rng.uniform(0, 2 * np.pi))
    sig += harmonic * np.sin(2 * np.pi * 2 * f0 * t + rng.uniform(0, 2 * np.pi))
    sig += noise * rng.normal(size=t.shape)
    sig *= amp / max(1e-9, np.abs(sig).max())
    return sig


def generate_corpus(root, recordings_per_class: int = 60, seed: int = 0,
                    duration_s: float = 2.0, include_excluded: int = 0):
    """Write the corpus under `root`; returns (audio_dir, diagnosis_csv_path).

    `include_excluded` adds that many recordings with an out-of-scope
    diagnosis (Asthma) that ingestion must drop.
    """
    root = Path(root)
    audio_dir = root / "audio"
    audio_dir.mkdir(parents=True, exist_ok=True)
    rng = substream(seed, "synth")
    csv_lines = []
    per_patient = max(1, recordings_per_class // _PATIENTS_PER_CLASS)

    def emit(pid: int, rec_idx: int, class_id: int | None, counter: int):
        rate = _SAMPLE_RATES[counter % len(_SAMPLE_RATES)]
        sig = (tone_mixture(class_id, rng, duration_s, rate) if class_id is not None
               else 0.1 * rng.normal(size=int(duration_s * rate)))
        write_wav_pcm16(audio_dir / f"{pid}_{rec_idx}b1_Tc_sc_Synth.wav", sig, rate)

    counter = 0
    for class_id, name in enumerate(CLASS_NAMES):
        for i in range(recordings_per_class):
            pid = 100 + class_id * 100 + i // per_patient
            if i % per_patient == 0:
                csv_lines.append(f"{pid},{name}")
            emit(pid, 1 + i % per_patient, class_id, counter)
            counter += 1
    for j in range(include_excluded):
        pid = 900 + j
        csv_lines.append(f"{pid},Asthma")
        emit(pid, 1, None, counter)
        counter += 1

    csv_path = root / "diagnosis.csv"
    csv_path.write_text("\n".join(csv_lines) + "\n")
    return audio_dir, csv_path
