import numpy as np
import pytest

from seqshot import dsp
from seqshot.errors import (
    EmptyInputError,
    FormatError,
    ShapeError,
    UnsupportedFormatError,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def tone(freq, dur_s, sr=16000, amp=0.5):
    t = np.arange(int(dur_s * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


def dominant_freq(x, sr):
    spec = np.abs(np.fft.rfft(x))
    return np.argmax(spec) * sr / len(x)


# -- WAV I/O -------------------------------------------------------------------

def test_load_silence_identity(tmp_path):
    p = tmp_path / "z.wav"
    dsp.write_wav(p, dsp.Waveform(np.zeros(16000)))
    w = dsp.load_wav(p)
    assert w.sample_rate == 16000
    assert len(w.samples) == 16000
    np.testing.assert_array_equal(w.samples, 0.0)


def test_load_32k_halves_length(tmp_path):
    p = tmp_path / "x.wav"
    dsp.write_wav(p, dsp.Waveform(np.zeros(32000), sample_rate=32000))
    w = dsp.load_wav(p)
    assert len(w.samples) == 16000


def test_load_48k_tone_keeps_frequency(tmp_path):
    p = tmp_path / "t.wav"
    dsp.write_wav(p, dsp.Waveform(tone(440.0, 1.0, sr=48000), sample_rate=48000))
    w = dsp.load_wav(p)
    bin_hz = 16000 / len(w.samples)
    assert abs(dominant_freq(w.samples, 16000) - 440.0) <= bin_hz


def test_load_stereo_mixes_to_mono(tmp_path):
    import wave
    p = tmp_path / "s.wav"
    left = (np.full(100, 8000)).astype("<i2")
    right = (np.full(100, -8000)).astype("<i2")
    inter = np.empty(200, dtype="<i2")
    inter[0::2], inter[1::2] = left, right
    with wave.open(str(p), "wb") as f:
        f.setnchannels(2)
        f.setsampwidth(2)
        f.setframerate(16000)
        f.writeframes(inter.tobytes())
    w = dsp.load_wav(p)
    np.testing.assert_allclose(w.samples, 0.0, atol=1e-9)


def test_load_bad_magic(tmp_path):
    p = tmp_path / "bad.wav"
    p.write_bytes(b"JUNKJUNKJUNKJUNK")
    with pytest.raises(FormatError):
        dsp.load_wav(p)


def test_load_unsupported_width(tmp_path):
    import wave
    p = tmp_path / "w8.wav"
    with wave.open(str(p), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(1)
        f.setframerate(16000)
        f.writeframes(bytes(100))
    with pytest.raises(UnsupportedFormatError):
        dsp.load_wav(p)


# -- resampling -------------------------------------------------------------------

def test_resample_identity():
    w = dsp.Waveform(tone(300.0, 0.5))
    out = dsp.augment_resample(w, 1.0)
    np.testing.assert_array_equal(out.samples, w.samples)


def test_resample_length():
    w = dsp.Waveform(np.zeros(16000))
    out = dsp.augment_resample(w, 1.1)
    assert len(out.samples) == round(16000 / 1.1) == 14545


def test_resample_shifts_pitch():
    w = dsp.Waveform(tone(440.0, 1.0))
    out = dsp.augment_resample(w, 1.1)
    bin_hz = 16000 / len(out.samples)
    assert abs(dominant_freq(out.samples, 16000) - 484.0) <= bin_hz


def test_resample_range_enforced():
    with pytest.raises(ValueError):
        dsp.augment_resample(dsp.Waveform(np.zeros(100)), 1.5)


@pytest.mark.parametrize("rate", [0.9, 0.97, 1.0, 1.1])
def test_resample_output_range_equals_slice(rng, rate):
    w = dsp.Waveform(0.3 * rng.standard_normal(9000))
    whole = dsp.augment_resample(w, rate).samples
    assert len(whole) == dsp.resampled_length(9000, rate)
    for start, stop in [(0, 1), (0, 400), (1234, 5678),
                        (len(whole) - 3, len(whole))]:
        part = dsp.augment_resample(w, rate, start, stop).samples
        np.testing.assert_array_equal(part, whole[start:stop])


def test_resample_output_range_checked():
    w = dsp.Waveform(np.zeros(1000))
    for rate in (1.0, 1.05):
        n = dsp.resampled_length(1000, rate)
        for start, stop in [(-1, 10), (10, 10), (0, n + 1)]:
            with pytest.raises(ShapeError):
                dsp.augment_resample(w, rate, start, stop)


def test_resample_blocks_equal_one_pass(rng, monkeypatch):
    # 44.1 kHz -> 16 kHz, the load_wav path, over several output blocks
    x = 0.3 * rng.standard_normal(44100)
    step = 44100 / 16000
    monkeypatch.setattr(dsp, "_RESAMPLE_BLOCK", 1 << 20)
    one_pass = dsp._resample(x, step)
    monkeypatch.setattr(dsp, "_RESAMPLE_BLOCK", 1000)
    assert len(one_pass) > 10 * dsp._RESAMPLE_BLOCK
    np.testing.assert_array_equal(dsp._resample(x, step), one_pass)
    np.testing.assert_array_equal(dsp._resample(x, step, 999, 12001),
                                  one_pass[999:12001])


# -- logmel ----------------------------------------------------------------------

def test_logmel_silence_floor():
    m = dsp.logmel(dsp.Waveform(np.zeros(16000)))
    np.testing.assert_allclose(m, np.log(1e-6))


def test_logmel_frame_count():
    m = dsp.logmel(dsp.Waveform(np.zeros(16000)))
    assert m.shape == (98, 64)


def test_logmel_too_short():
    with pytest.raises(EmptyInputError):
        dsp.logmel(dsp.Waveform(np.zeros(399)))


def test_logmel_tone_hits_band_32():
    f32 = dsp.mel_band_center_hz(32)
    m = dsp.logmel(dsp.Waveform(tone(f32, 1.0)))
    assert int(np.argmax(m.mean(axis=0))) == 32


def test_logmel_time_shift_equivariance(rng):
    x = rng.normal(size=16000) * 0.1
    k = 3
    shifted = np.concatenate([np.zeros(k * 160), x])
    m0 = dsp.logmel(dsp.Waveform(x))
    m1 = dsp.logmel(dsp.Waveform(shifted))
    np.testing.assert_allclose(m1[k: k + m0.shape[0]], m0, atol=1e-9)


def test_logmel_monotone_in_power(rng):
    x = rng.normal(size=8000) * 0.05
    m1 = dsp.logmel(dsp.Waveform(x))
    m2 = dsp.logmel(dsp.Waveform(2.0 * x))
    assert np.all(m2 >= m1 - 1e-12)


# -- gain -------------------------------------------------------------------------

def test_gain_identity():
    w = dsp.Waveform(tone(200.0, 0.1))
    np.testing.assert_array_equal(dsp.augment_gain(w, 0.0).samples, w.samples)


def test_gain_20db_scales_10x():
    w = dsp.Waveform(np.full(100, 0.1))
    np.testing.assert_allclose(dsp.augment_gain(w, 20.0).samples, 1.0)


def test_gain_clips():
    w = dsp.Waveform(np.full(100, 0.5))
    np.testing.assert_array_equal(dsp.augment_gain(w, 20.0).samples, 1.0)


def test_gain_inverse_without_clipping(rng):
    w = dsp.Waveform(rng.uniform(-0.05, 0.05, size=500))
    back = dsp.augment_gain(dsp.augment_gain(w, 12.0), -12.0)
    np.testing.assert_allclose(back.samples, w.samples, atol=1e-12)


# -- SpecAugment / mixup ------------------------------------------------------------

def test_spec_augment_zero_masks_identity(rng):
    m = rng.normal(size=(50, 64))
    out = dsp.spec_augment(m, rng, time_masks=0, freq_masks=0)
    np.testing.assert_array_equal(out, m)


def test_spec_augment_mask_extent(rng):
    m = np.arange(50 * 64, dtype=float).reshape(50, 64)
    out = dsp.spec_augment(m, np.random.default_rng(3), time_masks=0,
                           freq_masks=1, max_f=8)
    # recover mask width from the draw the function makes
    r = np.random.default_rng(3)
    width = int(r.integers(0, 9))
    assert width > 0
    assert int((out != m).sum()) == width * 50


def test_spec_augment_deterministic(rng):
    m = rng.normal(size=(40, 64))
    a = dsp.spec_augment(m, np.random.default_rng(5))
    b = dsp.spec_augment(m, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(m, m)  # input untouched


def test_mixup_lambda_one(rng):
    a, b = rng.normal(size=(10, 64)), rng.normal(size=(10, 64))
    la, lb = np.array([0, 1.0]), np.array([1.0, 0])
    out, lab = dsp.mixup(a, b, la, lb, 1.0)
    np.testing.assert_array_equal(out, a)
    np.testing.assert_array_equal(lab, la)


def test_mixup_half():
    a = np.array([[2.0, 0.0], [0.0, 2.0]])
    b = np.array([[0.0, 2.0], [2.0, 0.0]])
    out, lab = dsp.mixup(a, b, np.array([0, 1.0, 0]), np.array([0, 0, 1.0]), 0.5)
    np.testing.assert_allclose(out, 0.5 * a + 0.5 * b)
    np.testing.assert_allclose(lab, [0, 0.5, 0.5])


def test_mixup_shape_mismatch():
    with pytest.raises(ShapeError):
        dsp.mixup(np.zeros((3, 64)), np.zeros((4, 64)), [1], [1], 0.5)


# -- RIR convolution -----------------------------------------------------------------

def brute_convolve(x, h):
    n = len(x)
    out = np.zeros(n)
    for j, hj in enumerate(h):
        out[j:] += hj * x[: n - j]
    return out


def test_rir_unit_impulse_identity():
    w = dsp.Waveform(tone(350.0, 0.2))
    rir = dsp.Waveform(np.array([1.0]))
    out = dsp.convolve_rir(w, rir)
    np.testing.assert_allclose(out.samples, w.samples, atol=1e-12)


def test_rir_delay_shifts():
    w = dsp.Waveform(tone(350.0, 0.2))
    h = np.zeros(161)
    h[160] = 1.0
    out = dsp.convolve_rir(w, dsp.Waveform(h))
    peak = np.abs(w.samples).max()
    got = out.samples * (np.abs(w.samples[:-160]).max() / peak)
    np.testing.assert_allclose(out.samples[:160], 0.0, atol=1e-9)
    # shifted content matches up to the common renormalization
    ratio = out.samples[160:] / np.where(
        np.abs(w.samples[:-160]) > 1e-6, w.samples[:-160], np.nan
    )
    finite = ratio[np.isfinite(ratio)]
    np.testing.assert_allclose(finite, finite[0], rtol=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_rir_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(500, 4096))
    m = int(rng.integers(10, n))
    x = rng.uniform(-1, 1, size=n)
    h = rng.uniform(-0.2, 0.2, size=m)
    out = dsp.convolve_rir(dsp.Waveform(x), dsp.Waveform(h))
    ref = brute_convolve(x, h)
    ref *= np.abs(x).max() / np.abs(ref).max()
    np.testing.assert_allclose(out.samples, ref, atol=1e-9)


def test_rir_longer_than_signal_rejected():
    with pytest.raises(ShapeError):
        dsp.convolve_rir(dsp.Waveform(np.zeros(10) + 0.1),
                         dsp.Waveform(np.zeros(20) + 0.1))


# -- logmel serialization ---------------------------------------------------------------

def test_logmel_roundtrip(tmp_path, rng):
    m = rng.normal(size=(30, 64)).astype(np.float32).astype(np.float64)
    p = tmp_path / "m.sqlm"
    dsp.write_logmel(p, m)
    out = dsp.read_logmel(p)
    np.testing.assert_array_equal(out, m)
    assert p.read_bytes()[:4] == b"SQLM"
