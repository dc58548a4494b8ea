"""Audio I/O, logmel extraction, and signal-domain augmentations.

Audio is mono float64 in [-1, 1] at 16 kHz after loading.  Logmel
features are (T, 64) float64 arrays: 25 ms Hann windows at 10 ms hops,
FFT size 512, 64 HTK-mel triangular filters spanning 0-8000 Hz with
unit peak, natural log with a 1e-6 floor.

Both resamplers are the same 16-tap Kaiser-windowed sinc, its kernel rows
interpolated from one table.  A file's integer sample rate is resampled by
exact phase: the step sr / 16000 is a fraction p / q, so only q kernel
rows occur, and they are made once per file.  Playback-speed changes take
float rates and interpolate a kernel row per output sample.  Log-mels are
computed in blocks of frames, so their temporaries stay small.  WAV
files are read (``WavReader``) and written in blocks of samples too, so a
recording can be streamed into log-mel and embedding without being held
whole.  Blocked loops take their blocks from ``spans``, and ``regroup``
cuts a stream of blocks into the spans a computation reads.
"""

import math
import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.signal import fftconvolve

from .errors import (
    EmptyInputError,
    FormatError,
    ShapeError,
    TruncatedFileError,
    UnsupportedFormatError,
)

SAMPLE_RATE = 16000
FRAME_LEN = 400     # 25 ms
FRAME_HOP = 160     # 10 ms
FFT_SIZE = 512
N_MELS = 64
MEL_MAX_HZ = 8000.0   # the filters span 0 Hz to here
FRAME_HOP_S = FRAME_HOP / SAMPLE_RATE
FRAME_LEN_S = FRAME_LEN / SAMPLE_RATE
LOG_FLOOR = 1e-6
MIN_FILE_RATE = 8000      # Hz; load_wav refuses header rates outside
MAX_FILE_RATE = 192000    # [MIN_FILE_RATE, MAX_FILE_RATE]

_SINC_HALF_TAPS = 8   # 16-tap windowed-sinc resampler
_SINC_GRID = 4096     # fractional positions tabulated per kernel row
_RESAMPLE_BLOCK = 1 << 13   # output samples per block (1 MiB temporaries)
_WAV_BLOCK = 1 << 15   # file frames read, or samples written, per block
_KAISER_BETA = 8.0
_LOGMEL_BLOCK = 256   # frames per log-mel block
_LOGMEL_EXACT_FRAMES = 48   # see logmel: slices this long are bit-exact


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or len(self.samples) < 1:
            raise ShapeError("waveform must be a non-empty 1-d array")

    @property
    def duration_s(self):
        return len(self.samples) / self.sample_rate


# -- Blocks ------------------------------------------------------------------

def spans(n, size, min_last=1):
    """The blocks ``[a, b)`` of ``size`` that cover ``range(n)`` in order;
    a last block shorter than ``min_last`` joins the one before.

    A blocked result that must equal the one-pass formula bit for bit
    passes as ``min_last`` the shortest block that rounds as that formula
    does (a GEMM of a few rows may not).
    """
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] < min_last:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def regroup(blocks, spans):
    """For each span ``[a, b)``, samples ``a:b`` of the signal that
    ``blocks`` yield in order; the spans' ``a`` and ``b`` both rise.

    A span that lies in one block is a view of it.  The blocks that a
    span needs are held until the next span starts past them, so what is
    held is one span and the blocks it touches.  After the last span the
    blocks are read to their end, so a reader's checks on the end of its
    file still run; zip this generator before the spans, as ``zip`` stops
    at its first exhausted argument.
    """
    blocks = iter(blocks)
    held, h0, end = [], 0, 0    # held blocks: samples h0 to end
    for a, b in spans:
        while end < b:
            held.append(next(blocks))
            end += len(held[-1])
        while h0 + len(held[0]) <= a:
            h0 += len(held.pop(0))
        if len(held) > 1:
            held, h0 = [np.concatenate([held[0][a - h0:], *held[1:]])], a
        yield held[0][a - h0: b - h0]
    for _ in blocks:
        pass


# -- WAV I/O -----------------------------------------------------------------

def _open_wav(path):
    """``path`` opened with ``wave``, refused unless it is PCM16 at a header
    rate within ``MIN_FILE_RATE``-``MAX_FILE_RATE`` Hz."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(4)
        if head != b"RIFF":
            raise FormatError(f"{path}: not a RIFF file")
        f = wave.open(str(path), "rb")
    except wave.Error as e:
        msg = str(e)
        if "unknown format" in msg or "compression" in msg.lower():
            raise UnsupportedFormatError(f"{path}: {msg}") from e
        raise FormatError(f"{path}: {msg}") from e
    except EOFError as e:
        raise FormatError(f"{path}: truncated header") from e
    sampwidth, sr = f.getsampwidth(), f.getframerate()
    if sampwidth != 2:
        refusal = f"only PCM16 supported, got {8 * sampwidth}-bit"
    elif not MIN_FILE_RATE <= sr <= MAX_FILE_RATE:
        refusal = (f"sample rate {sr} Hz outside "
                   f"{MIN_FILE_RATE}-{MAX_FILE_RATE} Hz")
    else:
        return f
    f.close()
    raise UnsupportedFormatError(f"{path}: {refusal}")


class WavReader:
    """A PCM16 RIFF/WAVE file read in blocks: mono-mixed and resampled to
    16 kHz.

    The header is read and checked on construction, so a refused file
    fails before any sample is read; ``n_samples`` is the signal's length
    at 16 kHz.  ``blocks()`` opens the file again and yields the 16 kHz
    signal in order, in blocks of at most ``_RESAMPLE_BLOCK`` samples
    (``_WAV_BLOCK`` at 16 kHz).  It reads the file in the ``spans`` of
    ``_WAV_BLOCK`` frames and resamples them as they arrive
    (``_resample_rate_blocks``), so its memory does not grow with the
    file.  A file whose data ends before the frames its header declares
    is a TruncatedFileError.
    """

    def __init__(self, path):
        self.path = path
        with _open_wav(path) as f:
            self.n_channels = f.getnchannels()
            self.rate = f.getframerate()
            self.n_frames = f.getnframes()
        self.n_samples = resampled_length(self.n_frames,
                                          self.rate / SAMPLE_RATE)
        if self.n_samples < 1:          # none at 16 kHz
            raise EmptyInputError(f"{path}: no samples")

    def _file_blocks(self):
        """The file's samples at its own rate, mono, in blocks."""
        frame_bytes = 2 * self.n_channels
        with _open_wav(self.path) as f:
            for a, b in spans(self.n_frames, _WAV_BLOCK):
                raw = f.readframes(b - a)
                if len(raw) != (b - a) * frame_bytes:
                    raise TruncatedFileError(
                        f"{self.path}: truncated: the data ends "
                        f"{(self.n_frames - a) * frame_bytes - len(raw)}"
                        f" bytes before the {self.n_frames} frames its "
                        f"header declares")
                x = np.frombuffer(raw, dtype="<i2").astype(np.float64)
                x /= 32768.0
                if self.n_channels > 1:
                    x = x.reshape(-1, self.n_channels).mean(axis=1)
                yield x

    def blocks(self):
        """The 16 kHz signal, clipped to [-1, 1], in blocks."""
        blocks = self._file_blocks()
        if self.rate != SAMPLE_RATE:
            blocks = _resample_rate_blocks(blocks, self.rate, self.n_frames)
        for x in blocks:
            yield np.clip(x, -1.0, 1.0, out=x)


def load_wav(path):
    """Load a PCM16 RIFF/WAVE file: mono-mixed, resampled to 16 kHz.

    A header rate outside ``MIN_FILE_RATE``-``MAX_FILE_RATE`` Hz is an
    UnsupportedFormatError, raised before the samples are read.  The
    samples are ``WavReader``'s blocks, gathered into one array.
    """
    reader = WavReader(path)
    x = np.empty(reader.n_samples)
    n = 0
    for block in reader.blocks():
        x[n: n + len(block)] = block
        n += len(block)
    return Waveform(x, SAMPLE_RATE)


def write_wav(path, w: Waveform):
    """Write mono PCM16 little-endian, converting ``_WAV_BLOCK`` samples
    at a time."""
    x = w.samples
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(w.sample_rate)
        f.setnframes(len(x))
        for b0 in range(0, len(x), _WAV_BLOCK):
            pcm = np.round(x[b0: b0 + _WAV_BLOCK] * 32767.0)
            np.clip(pcm, -32768, 32767, out=pcm)
            f.writeframes(pcm.astype("<i2").tobytes())


# -- Resampling --------------------------------------------------------------

_KAISER_TABLE_N = 1 << 16
_kaiser_table = None


def _kaiser(u, half):
    """Kaiser window on tap offsets u in [-half, half].

    Evaluated by linear interpolation of a dense precomputed table.  It
    runs only inside ``_build_sinc_table``, on the 4097 x 16 grid of
    kernel rows, where calling ``np.i0`` directly would cost no more; but
    the two differ by up to 9e-10, so dropping the table would change
    every resampled output.
    """
    global _kaiser_table
    if _kaiser_table is None:
        grid = np.linspace(-half, half, _KAISER_TABLE_N)
        arg = np.maximum(1.0 - (grid / half) ** 2, 0.0)
        _kaiser_table = np.i0(_KAISER_BETA * np.sqrt(arg)) / np.i0(_KAISER_BETA)
    scaled = (np.clip(u, -half, half) + half) \
        * ((_KAISER_TABLE_N - 1) / (2.0 * half))
    lo = np.minimum(scaled.astype(np.int64), _KAISER_TABLE_N - 2)
    frac = scaled - lo
    return _kaiser_table[lo] * (1.0 - frac) + _kaiser_table[lo + 1] * frac


def resampled_length(n_samples, step):
    """Output length of ``_resample`` on ``n_samples`` inputs."""
    return int(round(n_samples / step))


def _build_sinc_table(cutoff):
    """Kernel rows on a fine grid of fractional positions, (grid + 1, 16),
    for a low-pass ``cutoff`` (1 = Nyquist).

    The kernel row depends on the output position only through its
    fractional part, so rows are tabulated here and interpolated
    (direct evaluation per sample is orders slower).
    """
    half = _SINC_HALF_TAPS
    taps = np.arange(-half + 1, half + 1)
    fgrid = np.arange(_SINC_GRID + 1) / _SINC_GRID
    ug = fgrid[:, None] - taps[None, :]             # offsets in (-8, 8]
    return cutoff * np.sinc(cutoff * ug) * _kaiser(ug, half)


_unit_sinc_table = None


def _sinc_table(step):
    """The kernel table for resampling by ``step`` input samples per
    output.  Its cutoff is 1 for every step of 1 or less; that table is
    built once and shared, read-only."""
    global _unit_sinc_table
    cutoff = min(1.0, 1.0 / step)
    if cutoff < 1.0:
        return _build_sinc_table(cutoff)
    if _unit_sinc_table is None:
        _unit_sinc_table = _build_sinc_table(1.0)
        _unit_sinc_table.flags.writeable = False
    return _unit_sinc_table


def _kernel_rows(table, frac):
    """Kernel rows at fractional positions ``frac`` in [0, 1): linear
    interpolation between ``table`` rows, renormalized to sum to 1 so
    constant signals are preserved exactly."""
    scaled = frac * _SINC_GRID
    lo = scaled.astype(np.int64)
    blend = (scaled - lo)[:, None]
    kern = table[lo] * (1.0 - blend) + table[lo + 1] * blend
    kern /= kern.sum(axis=1, keepdims=True)
    return kern


def _taps_dot(x, base, kern):
    """The outputs centred on input samples ``base`` (rising) with kernel
    rows ``kern``: the dot of ``x[b - 7 : b + 9]`` with its row for each b.
    The taps are read from a view of the input span the outputs read,
    copied with zeros only where that span runs past an end of ``x``."""
    half = _SINC_HALF_TAPS
    lo, hi = base[0] - half + 1, base[-1] + half + 1
    span = x[max(lo, 0): hi]
    if lo < 0 or hi > len(x):      # zeros beyond either end
        span = np.pad(span, (max(-lo, 0), max(hi - len(x), 0)))
    # windows[b - base[0]] holds x[b - 7 : b + 9], the taps around b
    windows = as_strided(span, (len(span) - 2 * half + 1, 2 * half),
                         span.strides * 2)
    return (windows[base - base[0]] * kern).sum(axis=1)


def _resample(x, step, start=0, stop=None):
    """Outputs ``start`` to ``stop`` (default: the end) of the windowed-sinc
    resample output[n] = x(n * step), ``step`` in input samples.

    Output n is the dot of ``x[base - 7 : base + 9]``, base = floor(n *
    step), with the kernel row interpolated from the table at the
    fractional part of n * step.  So each output depends on its own
    position alone, and a range equals the same slice of the whole
    output.  Outputs are filled in the ``spans`` of ``_RESAMPLE_BLOCK``
    (``_taps_dot``), so memory does not grow with the signal's length
    beyond the input and output, and a short range of a long signal
    copies none of it.
    """
    n_out = resampled_length(len(x), step)
    if n_out < 1:
        raise EmptyInputError("resampled signal would be empty")
    stop = n_out if stop is None else stop
    if not 0 <= start < stop <= n_out:
        raise ShapeError(
            f"output range [{start}, {stop}) outside [0, {n_out})")
    table = _sinc_table(step)
    out = np.empty(stop - start)
    for a, b in spans(stop - start, _RESAMPLE_BLOCK):
        pos = np.arange(start + a, start + b) * step
        base = np.floor(pos).astype(np.int64)
        out[a:b] = _taps_dot(x, base, _kernel_rows(table, pos - base))
    return out


def _resample_rate_blocks(blocks, sr, n_in):
    """``_resample(x, sr / 16000)`` of the signal ``x`` that ``blocks``
    yield in order, ``n_in`` samples in all, for an integer rate ``sr``,
    by exact phase; yielded in blocks as the input arrives.

    With sr / 16000 = p / q in lowest terms, output n sits at input
    sample (n p) // q plus the phase ((n p) % q) / q.  Only q kernel rows
    occur (160 at 44.1 kHz, 1 at 48 kHz), so they are interpolated from
    the same table once per call.  Outputs differ from ``_resample``'s
    only where its float position n * step rounds: by under 1e-9.

    Outputs come in the ``spans`` of ``_RESAMPLE_BLOCK``; outputs a to b
    read the input span from a p // q - 7 to (b - 1) p // q + 9, cut to
    the signal, which ``regroup`` gathers from the blocks.  So the input
    held is a block and a span, and each output equals that of the whole
    signal at once, bit for bit.
    """
    g = math.gcd(sr, SAMPLE_RATE)
    p, q = sr // g, SAMPLE_RATE // g
    rows = _kernel_rows(_sinc_table(sr / SAMPLE_RATE), np.arange(q) / q)
    half = _SINC_HALF_TAPS
    outs = spans(resampled_length(n_in, sr / SAMPLE_RATE), _RESAMPLE_BLOCK)
    ins = [(max(0, a * p // q - half + 1),
            min(n_in, (b - 1) * p // q + half + 1)) for a, b in outs]
    for x, (a, b), (x0, _) in zip(regroup(blocks, ins), outs, ins):
        base, phase = np.divmod(np.arange(a, b) * p, q)
        yield _taps_dot(x, base - x0, rows[phase])


def augment_resample(w: Waveform, rate_factor, start=0, stop=None):
    """Playback-speed change; length scales by 1/rate_factor.

    The declared sample rate is unchanged, so pitch shifts with speed.
    ``start``/``stop`` select output samples of the changed signal
    (``resampled_length(len(w.samples), rate_factor)`` of them in all);
    only those are computed, and they equal the same slice of the whole
    output bit for bit.
    """
    if not 0.9 <= rate_factor <= 1.1:
        raise ValueError(f"rate_factor {rate_factor} outside [0.9, 1.1]")
    return Waveform(_resample(w.samples, rate_factor, start, stop),
                    w.sample_rate)


# -- Logmel ------------------------------------------------------------------

def _hann(n):
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank():
    """Triangular unit-peak filters on the HTK mel scale from 0 Hz to
    ``MEL_MAX_HZ``; (N_MELS, FFT_SIZE // 2 + 1)."""
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(MEL_MAX_HZ),
                                     N_MELS + 2))
    bin_hz = np.arange(FFT_SIZE // 2 + 1) * (SAMPLE_RATE / FFT_SIZE)
    fb = np.zeros((N_MELS, len(bin_hz)))
    for k in range(N_MELS):
        lo, center, hi = edges_hz[k], edges_hz[k + 1], edges_hz[k + 2]
        up = (bin_hz - lo) / (center - lo)
        down = (hi - bin_hz) / (hi - center)
        fb[k] = np.maximum(0.0, np.minimum(up, down))
    return fb


_FILTERBANK = mel_filterbank()
_WINDOW = _hann(FRAME_LEN)


def frame_count(n_samples):
    """Log-mel frames of ``n_samples`` samples: 1 + floor((N - 400) / 160)."""
    if n_samples < FRAME_LEN:
        raise EmptyInputError(
            f"need >= {FRAME_LEN} samples for one window, got {n_samples}"
        )
    return 1 + (n_samples - FRAME_LEN) // FRAME_HOP


def logmel(w: Waveform):
    """(T, 64) log mel powers; T = ``frame_count(N)``.

    Frame t covers samples [160 t, 160 t + 400), so the log-mel of a
    slice starting at sample 160 k equals rows k onward of the whole, bit
    for bit for slices as long as a training crop (48 frames or more).
    Frames are taken in the ``spans`` of ``_LOGMEL_BLOCK`` with
    ``min_last`` 48: each block is such a slice, so the result equals the
    one-pass formula bit for bit, and the spectra held at once stay a few
    hundred frames long.
    """
    x = w.samples
    n_frames = frame_count(len(x))
    frames = np.lib.stride_tricks.as_strided(
        x, shape=(n_frames, FRAME_LEN),
        strides=(x.strides[0] * FRAME_HOP, x.strides[0]),
    )
    out = np.empty((n_frames, N_MELS))
    for t0, t1 in spans(n_frames, _LOGMEL_BLOCK, _LOGMEL_EXACT_FRAMES):
        spec = np.fft.rfft(frames[t0:t1] * _WINDOW, n=FFT_SIZE, axis=1)
        power = spec.real ** 2 + spec.imag ** 2
        np.log(power @ _FILTERBANK.T + LOG_FLOOR, out=out[t0:t1])
    return out


# -- Signal-domain augmentations ----------------------------------------------

def augment_gain(w: Waveform, gain_db):
    """Scale by 10^(gain_db/20), hard-clipped to [-1, 1]."""
    if not -20.0 <= gain_db <= 20.0:
        raise ValueError(f"gain_db {gain_db} outside [-20, 20]")
    y = w.samples * 10.0 ** (gain_db / 20.0)
    return Waveform(np.clip(y, -1.0, 1.0), w.sample_rate)


SPEC_TIME_MASKS = 2     # SpecAugment masks per crop along time ...
SPEC_FREQ_MASKS = 2     # ... and along mel bands
SPEC_MAX_T = 20         # widest time mask, in frames
SPEC_MAX_F = 8          # widest frequency mask, in mel bands


def spec_augment(m, rng):
    """SpecAugment-style masking; mask zones are set to the matrix mean.

    Draw order per mask: width ~ U{0..max}, then position.  Time masks
    are drawn before frequency masks.  A crop of no more than SPEC_MAX_T
    frames is a ShapeError.
    """
    t, bands = m.shape
    if SPEC_MAX_T >= t:
        raise ShapeError(f"a {t}-frame crop is not longer than the widest "
                         f"time mask, {SPEC_MAX_T} frames")
    out = m.copy()
    fill = m.mean()
    for _ in range(SPEC_TIME_MASKS):
        width = int(rng.integers(0, SPEC_MAX_T + 1))
        start = int(rng.integers(0, t - width + 1))
        out[start:start + width, :] = fill
    for _ in range(SPEC_FREQ_MASKS):
        width = int(rng.integers(0, SPEC_MAX_F + 1))
        start = int(rng.integers(0, bands - width + 1))
        out[:, start:start + width] = fill
    return out


MIXUP_ALPHA = 0.3


def draw_mixup_lambda(rng):
    return float(rng.beta(MIXUP_ALPHA, MIXUP_ALPHA))


def mixup(a, b, labels_a, labels_b, lam):
    """Convex combination of two logmels and their multi-hot labels."""
    if a.shape != b.shape:
        raise ShapeError(f"mixup shape mismatch: {a.shape} vs {b.shape}")
    labels_a = np.asarray(labels_a, dtype=np.float64)
    labels_b = np.asarray(labels_b, dtype=np.float64)
    if labels_a.shape != labels_b.shape:
        raise ShapeError(
            f"mixup label mismatch: {labels_a.shape} vs {labels_b.shape}"
        )
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda {lam} outside [0, 1]")
    return lam * a + (1.0 - lam) * b, lam * labels_a + (1.0 - lam) * labels_b


def convolve_rir(w: Waveform, rir: Waveform):
    """Full linear convolution, truncated to len(w), renormalized so the
    output peak equals the original peak of w."""
    if len(rir.samples) >= len(w.samples):
        raise ShapeError("rir must be shorter than the signal")
    y = fftconvolve(w.samples, rir.samples)[: len(w.samples)]
    peak = np.abs(w.samples).max()
    cur = np.abs(y).max()
    if cur > 0:
        y = y * (peak / cur)
    return Waveform(y, w.sample_rate)
