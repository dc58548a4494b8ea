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
computed in blocks of frames, so their temporaries stay small.
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


# -- WAV I/O -----------------------------------------------------------------

def load_wav(path):
    """Load a PCM16 RIFF/WAVE file: mono-mixed, resampled to 16 kHz.

    A header rate outside ``MIN_FILE_RATE``-``MAX_FILE_RATE`` Hz is an
    UnsupportedFormatError, raised before the samples are read.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(4)
        if head != b"RIFF":
            raise FormatError(f"{path}: not a RIFF file")
        with wave.open(str(path), "rb") as f:
            sampwidth = f.getsampwidth()
            if sampwidth != 2:
                raise UnsupportedFormatError(
                    f"{path}: only PCM16 supported, got {8 * sampwidth}-bit"
                )
            n_ch = f.getnchannels()
            sr = f.getframerate()
            if not MIN_FILE_RATE <= sr <= MAX_FILE_RATE:
                raise UnsupportedFormatError(
                    f"{path}: sample rate {sr} Hz outside "
                    f"{MIN_FILE_RATE}-{MAX_FILE_RATE} Hz"
                )
            raw = f.readframes(f.getnframes())
    except wave.Error as e:
        msg = str(e)
        if "unknown format" in msg or "compression" in msg.lower():
            raise UnsupportedFormatError(f"{path}: {msg}") from e
        raise FormatError(f"{path}: {msg}") from e
    except EOFError as e:
        raise FormatError(f"{path}: truncated header") from e
    x = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    del raw
    x /= 32768.0
    if n_ch > 1:
        x = x[: len(x) - len(x) % n_ch].reshape(-1, n_ch).mean(axis=1)
    if resampled_length(len(x), sr / SAMPLE_RATE) < 1:   # none at 16 kHz
        raise EmptyInputError(f"{path}: no samples")
    if sr != SAMPLE_RATE:
        x = _resample_rate(x, sr)
    return Waveform(np.clip(x, -1.0, 1.0, out=x), SAMPLE_RATE)


def write_wav(path, w: Waveform):
    """Write mono PCM16 little-endian."""
    pcm = np.clip(np.round(w.samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(w.sample_rate)
        f.writeframes(pcm.tobytes())


# -- Resampling --------------------------------------------------------------

_KAISER_TABLE_N = 1 << 16
_kaiser_table = None


def _kaiser(u, half):
    """Kaiser window on tap offsets u in [-half, half].

    Evaluated by linear interpolation of a dense precomputed table
    (the Bessel function is far too slow to call per audio sample);
    interpolation error is ~1e-8, well under the resampler tolerances.
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


def _output_range(start, stop, n):
    stop = n if stop is None else stop
    if not 0 <= start < stop <= n:
        raise ShapeError(f"output range [{start}, {stop}) outside [0, {n})")
    return stop


def _filter(x, step, start, stop, taps_at):
    """Outputs ``start`` to ``stop`` (default: the end) of resampling ``x``
    by ``step`` input samples per output.

    ``taps_at(n)`` gives, for the output indices ``n``, the input sample
    each is centred on (``base``) and its kernel rows; output n is the
    dot of ``x[base - 7 : base + 9]`` with its row, so each output depends
    on its own position alone and a range equals the same slice of the
    whole output.  Outputs are filled in blocks of ``_RESAMPLE_BLOCK``
    samples.  A block reads its taps from a view of the input span its
    outputs read (``base`` rises with n), copied with zeros only where
    that span runs past an end of ``x``, so memory does not grow with the
    signal's length beyond the input and output, and a short range of a
    long signal copies none of it.
    """
    n_out = resampled_length(len(x), step)
    if n_out < 1:
        raise EmptyInputError("resampled signal would be empty")
    stop = _output_range(start, stop, n_out)
    half = _SINC_HALF_TAPS
    out = np.empty(stop - start)
    for b0 in range(start, stop, _RESAMPLE_BLOCK):
        b1 = min(b0 + _RESAMPLE_BLOCK, stop)
        base, kern = taps_at(np.arange(b0, b1))
        lo, hi = base[0] - half + 1, base[-1] + half + 1
        span = x[max(lo, 0): hi]
        if lo < 0 or hi > len(x):      # zeros beyond either end
            span = np.pad(span, (max(-lo, 0), max(hi - len(x), 0)))
        # windows[b - base[0]] holds x[b - 7 : b + 9], the taps around b
        windows = as_strided(span, (len(span) - 2 * half + 1, 2 * half),
                             span.strides * 2)
        out[b0 - start: b1 - start] = \
            (windows[base - base[0]] * kern).sum(axis=1)
    return out


def _resample(x, step, start=0, stop=None):
    """Windowed-sinc resample: output[n] = x(n * step), step in input samples.

    16-tap Kaiser-windowed sinc; each output's kernel row is interpolated
    from the table at the fractional part of its float position.
    """
    table = _sinc_table(step)

    def taps_at(n):
        pos = n * step
        base = np.floor(pos).astype(np.int64)
        return base, _kernel_rows(table, pos - base)
    return _filter(x, step, start, stop, taps_at)


def _resample_rate(x, sr):
    """``_resample(x, sr / 16000)`` for an integer rate ``sr``, by exact
    phase.

    With sr / 16000 = p / q in lowest terms, output n sits at input
    sample (n p) // q plus the phase ((n p) % q) / q.  Only q kernel rows
    occur (160 at 44.1 kHz, 1 at 48 kHz), so they are interpolated from
    the same table once per call.  Outputs differ from ``_resample``'s
    only where its float position n * step rounds: by under 1e-9.
    """
    g = math.gcd(sr, SAMPLE_RATE)
    p, q = sr // g, SAMPLE_RATE // g
    step = sr / SAMPLE_RATE
    rows = _kernel_rows(_sinc_table(step), np.arange(q) / q)

    def taps_at(n):
        base, phase = np.divmod(n * p, q)
        return base, rows[phase]
    return _filter(x, step, 0, None, taps_at)


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
    Frames are taken in blocks of ``_LOGMEL_BLOCK``, a tail shorter than
    48 joining the block before it: each block is such a slice, so the
    result equals the one-pass formula bit for bit, and the spectra held
    at once stay a few hundred frames long.
    """
    x = w.samples
    n_frames = frame_count(len(x))
    frames = np.lib.stride_tricks.as_strided(
        x, shape=(n_frames, FRAME_LEN),
        strides=(x.strides[0] * FRAME_HOP, x.strides[0]),
    )
    starts = list(range(0, n_frames, _LOGMEL_BLOCK))
    if len(starts) > 1 and n_frames - starts[-1] < _LOGMEL_EXACT_FRAMES:
        starts.pop()
    out = np.empty((n_frames, N_MELS))
    for t0, t1 in zip(starts, starts[1:] + [n_frames]):
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
