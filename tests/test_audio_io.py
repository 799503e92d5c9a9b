import struct

import numpy as np
import pytest

from lungsound import audio_io
from lungsound.errors import EmptyAudio, MalformedHeader, UnsupportedEncoding
from lungsound.synthetic import write_wav_pcm16


def make_wav(payload: bytes, fmt=1, channels=1, rate=44100, bits=16,
             magic=b"RIFF", wave=b"WAVE", include_fmt=True) -> bytes:
    chunks = b""
    if include_fmt:
        block = channels * bits // 8
        fmt_body = struct.pack("<HHIIHH", fmt, channels, rate, rate * block, block, bits)
        chunks += b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) % 2:
        chunks += b"\x00"
    return magic + struct.pack("<I", 4 + len(chunks)) + wave + chunks


def encode(frames: np.ndarray, fmt=1, bits=16) -> bytes:
    """Interleaved frames (n, channels) in [-1, 1] as a data-chunk payload."""
    if fmt == 3:
        return frames.astype("<f4").tobytes()
    if bits == 8:
        return (np.round(frames * 127) + 128).astype(np.uint8).tobytes()
    q = np.round(frames * (2 ** (bits - 1) - 1)).astype("<i4")
    if bits == 24:
        return q.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    return q.astype(f"<i{bits // 8}").tobytes()


def write(tmp_path, data: bytes):
    p = tmp_path / "clip.wav"
    p.write_bytes(data)
    return p


def test_pcm16_scaling(tmp_path):
    path = write(tmp_path, make_wav(struct.pack("<h", 16384)))
    clip = audio_io.load_wav(path)
    assert clip.sample_rate == 44100
    assert clip.samples.tolist() == [0.5]


def test_stereo_averaged_to_mono(tmp_path):
    payload = struct.pack("<hh", int(0.2 * 32768), int(0.6 * 32768))
    clip = audio_io.load_wav(write(tmp_path, make_wav(payload, channels=2)))
    assert clip.samples.shape == (1,)
    assert abs(clip.samples[0] - 0.4) < 1e-4


def test_empty_data_chunk(tmp_path):
    with pytest.raises(EmptyAudio):
        audio_io.load_wav(write(tmp_path, make_wav(b"")))


def test_bad_magic(tmp_path):
    with pytest.raises(MalformedHeader):
        audio_io.load_wav(write(tmp_path, make_wav(b"\x00\x00", magic=b"RIFX")))
    with pytest.raises(MalformedHeader):
        audio_io.load_wav(write(tmp_path, b"RI"))


def test_missing_fmt_chunk(tmp_path):
    with pytest.raises(MalformedHeader):
        audio_io.load_wav(write(tmp_path, make_wav(b"\x00\x00", include_fmt=False)))


@pytest.mark.parametrize("data,message", [
    (make_wav(b"")[:-8], "missing data chunk"),  # the empty data chunk's 8-byte header cut
    (make_wav(b"\x00\x00", channels=0), "channel count 0"),
    (make_wav(b"\x00\x00", rate=0), "sample rate 0"),
], ids=["no-data-chunk", "zero-channels", "zero-rate"])
def test_unusable_header_fields(tmp_path, data, message):
    with pytest.raises(MalformedHeader, match=message):
        audio_io.load_wav(write(tmp_path, data))


def test_truncated_chunk(tmp_path):
    good = make_wav(struct.pack("<4h", 1, 2, 3, 4))
    with pytest.raises(MalformedHeader):
        audio_io.load_wav(write(tmp_path, good[:-5]))


def test_compressed_format_rejected(tmp_path):
    with pytest.raises(UnsupportedEncoding):
        audio_io.load_wav(write(tmp_path, make_wav(b"\x00\x00", fmt=85)))  # MP3 code


def test_pcm8(tmp_path):
    clip = audio_io.load_wav(write(tmp_path, make_wav(bytes([192]), bits=8)))
    assert clip.samples.tolist() == [0.5]


def test_pcm24(tmp_path):
    val = 2 ** 22
    payload = bytes([val & 0xFF, (val >> 8) & 0xFF, (val >> 16) & 0xFF])
    clip = audio_io.load_wav(write(tmp_path, make_wav(payload, bits=24)))
    assert clip.samples.tolist() == [0.5]
    neg = struct.pack("<i", -(2 ** 22))[:3]
    clip = audio_io.load_wav(write(tmp_path, make_wav(neg, bits=24)))
    assert clip.samples.tolist() == [-0.5]


def test_pcm32(tmp_path):
    clip = audio_io.load_wav(write(tmp_path, make_wav(struct.pack("<i", 2 ** 30), bits=32)))
    assert clip.samples.tolist() == [0.5]


def test_float32(tmp_path):
    payload = struct.pack("<2f", 0.25, 1.5)
    clip = audio_io.load_wav(write(tmp_path, make_wav(payload, fmt=3, bits=32)))
    assert clip.samples.tolist() == [0.25, 1.0]  # out-of-range floats are clipped


@pytest.mark.parametrize("fmt,bits,sample", [
    (1, 16, struct.pack("<h", 16384)),
    (1, 24, struct.pack("<i", 2 ** 22)[:3]),
    (1, 32, struct.pack("<i", 2 ** 30)),
    (3, 32, struct.pack("<f", 0.5)),
], ids=["pcm16", "pcm24", "pcm32", "float32"])
def test_partial_trailing_sample_dropped(tmp_path, fmt, bits, sample):
    for extra in range(1, bits // 8):
        stray = sample[:extra]
        clip = audio_io.load_wav(write(tmp_path, make_wav(sample + stray, fmt=fmt, bits=bits)))
        assert clip.samples.tolist() == [0.5]
        with pytest.raises(EmptyAudio):
            audio_io.load_wav(write(tmp_path, make_wav(stray, fmt=fmt, bits=bits)))


def test_unsupported_bit_depths(tmp_path):
    with pytest.raises(UnsupportedEncoding):
        audio_io.load_wav(write(tmp_path, make_wav(b"\x00" * 4, bits=12)))
    with pytest.raises(UnsupportedEncoding):
        audio_io.load_wav(write(tmp_path, make_wav(b"\x00" * 8, fmt=3, bits=64)))


def test_normalization_invariant(tmp_path, rng):
    samples = rng.uniform(-1, 1, 500)
    write_wav_pcm16(tmp_path / "n.wav", samples, 8000)
    clip = audio_io.load_wav(tmp_path / "n.wav")
    assert np.abs(clip.samples).max() <= 1.0
    assert np.max(np.abs(clip.samples - samples)) < 1e-4


def test_resample_identity():
    clip = audio_io.AudioClip(np.linspace(-1, 1, 100), 22050)
    assert audio_io.resample(clip, 22050) is clip


def test_resample_duration():
    clip = audio_io.AudioClip(np.zeros(4000), 4000)
    out = audio_io.resample(clip, 8000)
    assert abs(len(out.samples) - 8000) <= 1
    assert out.sample_rate == 8000


def test_resample_constant():
    clip = audio_io.AudioClip(np.full(1000, 0.3), 8000)
    out = audio_io.resample(clip, 12000)
    assert np.allclose(out.samples, 0.3)


def test_resample_bad_rate():
    clip = audio_io.AudioClip(np.zeros(10), 8000)
    with pytest.raises(ValueError):
        audio_io.resample(clip, 0)


def test_resample_round_trip_rms():
    rate = 8000
    t = np.arange(rate) / rate
    for freq in (500, 900, rate / 4 - 100):
        clip = audio_io.AudioClip(0.8 * np.sin(2 * np.pi * freq * t), rate)
        back = audio_io.resample(audio_io.resample(clip, 2 * rate), rate)
        n = min(len(back.samples), len(clip.samples))
        rms = np.sqrt(np.mean((back.samples[:n] - clip.samples[:n]) ** 2))
        assert rms < 1e-3


WINDOW_S = 20.0
ENCODINGS = {"pcm8": (1, 8), "pcm16": (1, 16), "pcm24": (1, 24), "pcm32": (1, 32),
             "float32": (3, 32)}


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
@pytest.mark.parametrize("rate", [4000, 7919, 11025, 44100, 48000])
def test_window_decode_is_a_prefix_of_the_whole_file(tmp_path, rng, rate, encoding, channels):
    fmt, bits = ENCODINGS[encoding]
    window = int(WINDOW_S) * rate + 2  # the frames a 20 s window decodes
    # below and exactly at 20 s, and one frame past the window
    for n in (window - 9, window - 2, window + 1):
        frames = rng.uniform(-1, 1, (n, channels))
        path = write(tmp_path, make_wav(encode(frames, fmt, bits), fmt, channels, rate, bits))
        whole, head = audio_io.load_wav(path), audio_io.load_wav(path, WINDOW_S)
        assert head.sample_rate == whole.sample_rate == rate
        assert head.samples.tobytes() == whole.samples[:window].tobytes()
        # every sample of the 441,000 the 20 s MFCC grid reads resamples the same
        whole, head = audio_io.resample(whole, 22050), audio_io.resample(head, 22050)
        assert head.samples[:441000].tobytes() == whole.samples[:441000].tobytes()


def test_window_decode_still_refuses_truncated_chunks(tmp_path):
    rate = 4000
    good = make_wav(encode(np.zeros((25 * rate, 1))), rate=rate)
    # the data chunk loses its tail, far past the 20 s the window reads
    with pytest.raises(MalformedHeader, match="truncated"):
        audio_io.load_wav(write(tmp_path, good[:-rate]), WINDOW_S)
    # a chunk after the data claims more bytes than the file holds
    after = good + b"LIST" + struct.pack("<I", 64) + b"\x00" * 10
    with pytest.raises(MalformedHeader, match="truncated"):
        audio_io.load_wav(write(tmp_path, after), WINDOW_S)
    assert len(audio_io.load_wav(write(tmp_path, good), WINDOW_S).samples) == 20 * rate + 2
