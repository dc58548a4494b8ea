import gc
import os
import re
import struct
import tracemalloc
import warnings
import wave

import numpy as np
import pytest

from seqshot import dsp
from seqshot.errors import (
    EmptyInputError,
    FormatError,
    ShapeError,
    TruncatedFileError,
    UnsupportedFormatError,
)

from reference_ops import logmel_one_pass


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def tone(freq, dur_s, sr=16000, amp=0.5):
    t = np.arange(int(dur_s * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


def dominant_freq(x, sr):
    spec = np.abs(np.fft.rfft(x))
    return np.argmax(spec) * sr / len(x)


# -- blocks --------------------------------------------------------------------

@pytest.mark.parametrize("n, min_last, want", [
    (5, 3, [(0, 5)]),                                   # under one block
    (24, 8, [(0, 8), (8, 16), (16, 24)]),               # whole blocks
    (26, 3, [(0, 8), (8, 16), (16, 26)]),               # tail of 2 joins
    (27, 3, [(0, 8), (8, 16), (16, 24), (24, 27)]),     # tail of 3 stays
    (0, 1, []),
])
def test_spans(n, min_last, want):
    assert dsp.spans(n, 8, min_last) == want


def test_regroup_gathers_rising_spans_across_uneven_blocks():
    x = np.arange(150.0)
    cuts = [0, 3, 4, 40, 41, 97, 150]
    spans = [(0, 10), (5, 40), (38, 41), (41, 90), (95, 100), (99, 150)]
    parts = list(dsp.regroup((x[a:b] for a, b in zip(cuts, cuts[1:])),
                             spans))
    assert len(parts) == len(spans)
    for part, (a, b) in zip(parts, spans):
        np.testing.assert_array_equal(part, x[a:b])


def test_regroup_span_in_one_block_is_a_view():
    x = np.arange(150.0)
    blocks = [x[:50], x[50:100], x[100:]]
    parts = list(dsp.regroup(blocks, [(10, 40), (30, 60), (100, 120)]))
    assert np.shares_memory(parts[0], blocks[0])
    assert not np.shares_memory(parts[1], x)     # it spans two blocks
    assert np.shares_memory(parts[2], blocks[2])


def test_regroup_reads_the_blocks_to_their_end():
    # a reader's check on the end of its file runs after the last span;
    # zip stops at its first exhausted argument, so the generator goes
    # first
    def blocks():
        yield np.zeros(50)
        yield np.zeros(50)
        raise TruncatedFileError("the data ends early")
    spans = [(0, 30), (20, 60)]
    with pytest.raises(TruncatedFileError):
        for _ in zip(dsp.regroup(blocks(), spans), spans):
            pass


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


def write_pcm16_header(path, rate, samples):
    """A mono PCM16 WAV whose header declares ``rate``, written by hand
    (``wave`` refuses to write a rate of 0)."""
    data = np.asarray(samples, dtype="<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, rate, 2 * rate, 2, 16)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


@pytest.mark.parametrize("rate, ok", [
    (0, False), (1, False), (7999, False), (8000, True),
    (192000, True), (192001, False), (384000, False),
])
def test_load_refuses_rate_outside_range(tmp_path, rate, ok):
    p = tmp_path / "r.wav"
    write_pcm16_header(p, rate, np.full(4000, 1000))
    if ok:
        w = dsp.load_wav(p)
        assert len(w.samples) == dsp.resampled_length(4000, rate / 16000)
    else:
        with pytest.raises(UnsupportedFormatError, match=re.escape(str(p))):
            dsp.load_wav(p)


@pytest.mark.parametrize("rate, n", [(16000, 0), (192000, 5)])
def test_load_without_samples_at_16k_names_file(tmp_path, rate, n):
    p = tmp_path / "short.wav"
    write_pcm16_header(p, rate, np.full(n, 1000))
    with pytest.raises(EmptyInputError, match=re.escape(str(p))):
        dsp.load_wav(p)


@pytest.mark.parametrize("rate", [22050, 44100, 48000])
def test_load_wav_agrees_with_float_step_resampler(tmp_path, rng, rate):
    # load_wav resamples by exact phase; the float-step path rounds
    # n * step, which moves its outputs by ~1e-10
    x = 0.3 * rng.standard_normal(2 * rate)
    p = tmp_path / "x.wav"
    dsp.write_wav(p, dsp.Waveform(x, sample_rate=rate))
    pcm = np.clip(np.round(x * 32767.0), -32768, 32767) / 32768.0
    want = np.clip(dsp._resample(pcm, rate / 16000), -1.0, 1.0)
    got = dsp.load_wav(p).samples
    assert len(got) == len(want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def write_pcm16(path, rate, pcm):
    """``pcm``, int16 of shape (frames, channels), as a PCM16 WAV file."""
    with wave.open(str(path), "wb") as f:
        f.setnchannels(pcm.shape[1])
        f.setsampwidth(2)
        f.setframerate(rate)
        f.writeframes(np.ascontiguousarray(pcm, dtype="<i2").tobytes())


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("rate", [16000, 44100])
def test_wav_reader_blocks_equal_load_wav(tmp_path, rng, monkeypatch, rate,
                                          channels):
    # the blocks, far smaller than the defaults here, gather into what
    # one block of the whole file gives, bit for bit
    p = tmp_path / "x.wav"
    pcm = rng.integers(-32768, 32768, (int(2.3 * rate), channels))
    write_pcm16(p, rate, pcm)
    monkeypatch.setattr(dsp, "_WAV_BLOCK", 1 << 30)
    monkeypatch.setattr(dsp, "_RESAMPLE_BLOCK", 1 << 30)
    whole = dsp.load_wav(p).samples
    mono = pcm.astype(np.float64) / 32768.0
    if rate == 16000:       # read as is, mixed down by the channel mean
        np.testing.assert_array_equal(whole, mono.mean(axis=1))
    monkeypatch.setattr(dsp, "_WAV_BLOCK", 1001)
    monkeypatch.setattr(dsp, "_RESAMPLE_BLOCK", 777)
    reader = dsp.WavReader(p)
    blocks = list(reader.blocks())
    assert len(blocks) > 10 and max(len(b) for b in blocks) <= 1001
    assert reader.n_samples == len(whole)
    np.testing.assert_array_equal(np.concatenate(blocks), whole)
    np.testing.assert_array_equal(dsp.load_wav(p).samples, whole)


def test_write_wav_in_blocks_equals_one_pass(tmp_path, rng, monkeypatch):
    # some samples beyond full scale, so the clip is exercised too
    x = 1.2 * rng.standard_normal(10_007)
    monkeypatch.setattr(dsp, "_WAV_BLOCK", 1000)
    dsp.write_wav(tmp_path / "blocks.wav", dsp.Waveform(x, 22050))
    pcm = np.clip(np.round(x * 32767.0), -32768, 32767).astype("<i2")
    write_pcm16(tmp_path / "one.wav", 22050, pcm[:, None])
    assert (tmp_path / "blocks.wav").read_bytes() \
        == (tmp_path / "one.wav").read_bytes()


@pytest.mark.parametrize("cut", [1, 3, 4, 400, "header_claims_double"])
def test_load_truncated_data_names_file(tmp_path, rng, monkeypatch, cut):
    # the header declares more data than the file holds: it ends mid-sample
    # (1 or 3 bytes cut from a stereo file), whole frames short, or at half
    # the frames declared.  Small blocks, so the short read is not the first
    monkeypatch.setattr(dsp, "_WAV_BLOCK", 256)
    p = tmp_path / "t.wav"
    write_pcm16(p, 16000, rng.integers(-32768, 32768, (1000, 2)))
    data = p.read_bytes()
    if cut == "header_claims_double":
        assert data[36:40] == b"data"
        data = data[:40] + struct.pack("<I", 8000) + data[44:]
    else:
        data = data[:-cut]
    p.write_bytes(data)
    with pytest.raises(TruncatedFileError, match=re.escape(f"{p}: truncated")):
        dsp.load_wav(p)
    assert issubclass(TruncatedFileError, FormatError)


def _fds_open_on(path):
    fd_dir = "/proc/self/fd"
    return sum(os.path.realpath(os.path.join(fd_dir, fd)) == str(path)
               for fd in os.listdir(fd_dir) if os.path.exists(
                   os.path.join(fd_dir, fd)))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count open files")
def test_dropping_the_block_reader_part_way_closes_its_file(tmp_path, rng):
    p = (tmp_path / "x.wav").resolve()
    write_pcm16(p, 44100, rng.integers(-32768, 32768, (3 * 44100, 1)))
    blocks = dsp.WavReader(p).blocks()
    next(blocks)
    assert _fds_open_on(p) == 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del blocks
        gc.collect()
    assert _fds_open_on(p) == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# -- resampling -------------------------------------------------------------------

def test_resample_identity():
    w = dsp.Waveform(tone(300.0, 0.5))
    out = dsp.augment_resample(w, 1.0)
    np.testing.assert_allclose(out.samples, w.samples, rtol=0, atol=1e-15)


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


@pytest.mark.parametrize("rate", [0.9, 0.97])
def test_resample_shares_one_table_at_cutoff_one(rng, monkeypatch, rate):
    # every rate of 1 or less low-passes at cutoff 1: one table serves them
    # all, and gives what a table built for the call gives, bit for bit
    assert dsp._sinc_table(rate) is dsp._sinc_table(0.95)
    w = dsp.Waveform(0.3 * rng.standard_normal(5000))
    shared = dsp.augment_resample(w, rate).samples
    monkeypatch.setattr(dsp, "_sinc_table",
                        lambda step: dsp._build_sinc_table(1.0))
    np.testing.assert_array_equal(shared, dsp.augment_resample(w, rate).samples)


@pytest.mark.parametrize("rate", [0.93, 1.07])
def test_resample_range_memory_does_not_grow_with_signal(rng, rate):
    # a 0.5 s range of 60 s of audio copies none of the input: its peak
    # allocation is that of the same range of 2 s of audio, and well
    # under the 60 s input
    x = 0.3 * rng.standard_normal(60 * 16000)

    def peak(samples):
        w = dsp.Waveform(samples)
        tracemalloc.start()
        try:
            dsp.augment_resample(w, rate, 8000, 16000)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    short = peak(x[:32000])
    assert peak(x) <= short + 64 * 1024
    assert peak(x) < x.nbytes / 1.5


def test_resample_output_range_checked():
    w = dsp.Waveform(np.zeros(1000))
    for rate in (1.0, 1.05):
        n = dsp.resampled_length(1000, rate)
        for start, stop in [(-1, 10), (10, 10), (0, n + 1)]:
            with pytest.raises(ShapeError):
                dsp.augment_resample(w, rate, start, stop)


def test_resample_blocks_equal_one_pass(rng, monkeypatch):
    # 44.1 kHz -> 16 kHz by the float-step path of augment_resample, over
    # several output blocks
    x = 0.3 * rng.standard_normal(44100)
    step = 44100 / 16000
    monkeypatch.setattr(dsp, "_RESAMPLE_BLOCK", 1 << 20)
    one_pass = dsp._resample(x, step)
    monkeypatch.setattr(dsp, "_RESAMPLE_BLOCK", 1000)
    assert len(one_pass) > 10 * dsp._RESAMPLE_BLOCK
    np.testing.assert_array_equal(dsp._resample(x, step), one_pass)
    np.testing.assert_array_equal(dsp._resample(x, step, 999, 12001),
                                  one_pass[999:12001])


def _resample_rate(blocks, rate):
    return np.concatenate(list(dsp._resample_rate_blocks(
        blocks, rate, sum(len(b) for b in blocks))))


@pytest.mark.parametrize("rate", [8000, 22050, 44100, 48000])
def test_file_rate_blocks_equal_one_pass(rng, monkeypatch, rate):
    # the exact-phase path load_wav takes, over several output blocks and
    # over input blocks of any size, down to fewer samples than the taps
    x = 0.3 * rng.standard_normal(rate)
    monkeypatch.setattr(dsp, "_RESAMPLE_BLOCK", 1 << 20)
    one_pass = _resample_rate([x], rate)
    assert len(one_pass) == dsp.resampled_length(rate, rate / 16000)
    monkeypatch.setattr(dsp, "_RESAMPLE_BLOCK", 999)
    assert len(one_pass) > 10 * dsp._RESAMPLE_BLOCK
    np.testing.assert_array_equal(_resample_rate([x], rate), one_pass)
    cuts = [0, 5, 17, 3000, 3001, 7777, rate - 3, rate]
    np.testing.assert_array_equal(
        _resample_rate([x[a:b] for a, b in zip(cuts, cuts[1:])], rate),
        one_pass)


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
    # band k's triangle peaks at mel edge k + 1
    edges = dsp.mel_to_hz(np.linspace(dsp.hz_to_mel(0.0),
                                      dsp.hz_to_mel(8000.0), dsp.N_MELS + 2))
    f32 = float(edges[33])
    m = dsp.logmel(dsp.Waveform(tone(f32, 1.0)))
    assert int(np.argmax(m.mean(axis=0))) == 32


def test_logmel_time_shift_equivariance(rng):
    x = rng.normal(size=16000) * 0.1
    k = 3
    shifted = np.concatenate([np.zeros(k * 160), x])
    m0 = dsp.logmel(dsp.Waveform(x))
    m1 = dsp.logmel(dsp.Waveform(shifted))
    np.testing.assert_allclose(m1[k: k + m0.shape[0]], m0, atol=1e-9)


@pytest.mark.parametrize("source", ["16k", "44.1k"])
def test_logmel_of_hop_aligned_slice_is_rows_of_whole(tmp_path, source):
    # pretraining slices a stored whole-clip log-mel instead of taking the
    # log-mel of each crop, so the two must agree bit for bit
    if source == "16k":
        x = np.random.default_rng(3).normal(size=3 * 16000) * 0.1
    else:
        p = tmp_path / "x.wav"
        dsp.write_wav(p, dsp.Waveform(
            0.3 * np.random.default_rng(3).standard_normal(3 * 44100),
            sample_rate=44100))
        x = dsp.load_wav(p).samples
    whole = dsp.logmel(dsp.Waveform(x))
    t = whole.shape[0]
    # (first frame, samples) for 48-frame crops, the shortest training
    # crop, ending on a frame or mid-frame, and for tails to the end.
    # Under 19 frames the mel projection's GEMM rounds differently with
    # OpenBLAS 0.3.31 (last bit); no training crop is that short.
    crop = 47 * 160 + 400
    for k, n in [(0, crop), (1, crop + 159), (7, crop + 80),
                 (13, 100 * 160 + 300), (100, len(x) - 16000),
                 (200, len(x) - 32000), (t - 48, len(x) - 160 * (t - 48))]:
        part = dsp.logmel(dsp.Waveform(x[160 * k: 160 * k + n]))
        assert part.shape[0] == dsp.frame_count(n) >= 48
        np.testing.assert_array_equal(part, whole[k: k + part.shape[0]])


@pytest.mark.parametrize("n_frames", [1, 47, 100, 256, 303, 512, 8998])
def test_logmel_blocks_equal_one_pass(rng, n_frames):
    # below one block, whole blocks, a tail of 47 frames (303) and a tail
    # of 38 (8998), both shorter than 48 and so joined to the block before
    x = 0.1 * rng.standard_normal(400 + 160 * (n_frames - 1) + 77)
    w = dsp.Waveform(x)
    assert dsp.frame_count(len(x)) == n_frames
    np.testing.assert_array_equal(dsp.logmel(w), logmel_one_pass(w))


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

def test_spec_augment_zero_masks_identity(rng, monkeypatch):
    monkeypatch.setattr(dsp, "SPEC_TIME_MASKS", 0)
    monkeypatch.setattr(dsp, "SPEC_FREQ_MASKS", 0)
    m = rng.normal(size=(50, 64))
    out = dsp.spec_augment(m, rng)
    np.testing.assert_array_equal(out, m)


def test_spec_augment_mask_extent(rng, monkeypatch):
    monkeypatch.setattr(dsp, "SPEC_TIME_MASKS", 0)
    monkeypatch.setattr(dsp, "SPEC_FREQ_MASKS", 1)
    m = np.arange(50 * 64, dtype=float).reshape(50, 64)
    out = dsp.spec_augment(m, np.random.default_rng(3))
    # recover mask width from the draw the function makes
    r = np.random.default_rng(3)
    width = int(r.integers(0, dsp.SPEC_MAX_F + 1))
    assert width > 0
    assert int((out != m).sum()) == width * 50


def test_spec_augment_deterministic(rng):
    m = rng.normal(size=(40, 64))
    a = dsp.spec_augment(m, np.random.default_rng(5))
    b = dsp.spec_augment(m, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(m, m)  # input untouched


def test_spec_augment_refuses_crop_not_longer_than_time_mask(rng):
    # train.crop_frames comes from the run configuration
    dsp.spec_augment(rng.normal(size=(dsp.SPEC_MAX_T + 1, 64)), rng)
    with pytest.raises(ShapeError, match="widest time mask"):
        dsp.spec_augment(rng.normal(size=(dsp.SPEC_MAX_T, 64)), rng)


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
