"""Signal and spectrum types plus the transforms everything else builds on.

Conventions
-----------
The forward DFT carries the 1/N factor::

    X[k] = (1/N) * sum_n x[n] * exp(-j*2*pi*k*n/N)
    x[n] =         sum_k X[k] * exp(+j*2*pi*k*n/N)

so ``X[0]`` is the signal mean and synthesis needs no extra scaling.
Analytic band signals fold in the factor 2 from the real-signal
reconstruction identity

    x[n] = X[0] + sum_i Re{2*z_i[n]} + X[N/2]*(-1)^n   (last term even N only)

which makes envelope magnitudes read directly as physical amplitudes.
All arithmetic is float64/complex128.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BandRangeError, ParameterError

# Most float64 values one request may ask for: a record's samples, a
# binned product's cells or a filter bank's outputs. 2^27 take 1 GiB.
MAX_VALUES = 1 << 27


def is_integer(v) -> bool:
    """True for any integer but a bool: a True count or seed is a typo."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    """True for any real number but a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def check_type(value, types, name: str):
    """Refuse ``value`` unless it is an instance of ``types`` (a class or
    a tuple of them), naming the type it has."""
    if not isinstance(value, types):
        types = types if isinstance(types, tuple) else (types,)
        wanted = " or ".join(t.__name__ for t in types)
        raise ParameterError(
            f"{name} must be a {wanted}, got {type(value).__name__}")


def check_sample_rate(fs, n: int) -> float:
    """``fs`` as a float; refused unless it is a real number, positive
    and finite, and the times m/fs of an n-sample record are finite, its
    period 1/fs included."""
    if not is_real(fs):
        raise ParameterError(f"sample rate must be a real number, got {fs!r}")
    if not (fs > 0):
        raise ParameterError(f"sample rate must be > 0, got {fs}")
    fs = float(fs)
    if not math.isfinite(fs):
        raise ParameterError(f"sample rate must be finite, got {fs}")
    if not math.isfinite(max(n - 1, 1) / fs):
        raise ParameterError(
            f"sample rate {fs!r} Hz is too small: the times of {n} samples "
            "overflow float64"
        )
    return fs


def sample_times(n: int, fs: float, t0: float) -> np.ndarray:
    """Times in seconds of the n samples of a record taken at ``fs`` Hz
    from ``t0``: every time axis of a record reads these bits."""
    return t0 + np.arange(n) / fs


@dataclass
class Signal:
    """A uniformly sampled real time series.

    Parameters
    ----------
    samples : array_like of float
        The sample values. Stored as a read-only float64 array.
    sample_rate_hz : float
        Sampling rate: positive and finite, with finite sample times.
    start_time_s : float, optional
        Time of the first sample, finite like the last one's. Only
        affects time axes on output products, never the mathematics.
    """

    samples: np.ndarray
    sample_rate_hz: float
    start_time_s: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.samples, dtype=np.float64)
        if x.ndim != 1:
            raise ParameterError(f"signal must be 1-D, got shape {x.shape}")
        if x.size < 2:
            raise ParameterError(f"signal needs at least 2 samples, got {x.size}")
        if not np.all(np.isfinite(x)):
            raise ParameterError("signal contains NaN or infinite samples")
        fs = check_sample_rate(self.sample_rate_hz, x.size)
        if not is_real(self.start_time_s):
            raise ParameterError(f"start time must be a real number, "
                                 f"got {self.start_time_s!r}")
        t0 = float(self.start_time_s)
        if not math.isfinite(t0 + (x.size - 1) / fs):
            raise ParameterError(f"start time must be finite, and so must "
                                 f"the last sample's time, got {t0!r}")
        x = x.copy()
        x.flags.writeable = False
        self.samples = x
        self.sample_rate_hz = fs
        self.start_time_s = t0

    @property
    def n(self) -> int:
        return self.samples.size

    def times(self) -> np.ndarray:
        """Sample times in seconds."""
        return sample_times(self.n, self.sample_rate_hz, self.start_time_s)


@dataclass
class MultichannelSignal:
    """Channels sampled on a shared clock.

    All channels must agree on length, sample rate, and start time.
    """

    channels: tuple[Signal, ...]

    def __post_init__(self):
        self.channels = tuple(self.channels)
        if not self.channels:
            raise ParameterError("need at least one channel")
        first = self.channels[0]
        for i, ch in enumerate(self.channels):
            check_type(ch, Signal, f"channel {i}")
            if ch.n != first.n:
                raise ParameterError(
                    f"channel {i} has {ch.n} samples, channel 0 has {first.n}"
                )
            if ch.sample_rate_hz != first.sample_rate_hz:
                raise ParameterError(
                    f"channel {i} sample rate {ch.sample_rate_hz} differs from "
                    f"channel 0 rate {first.sample_rate_hz}"
                )
            if ch.start_time_s != first.start_time_s:
                raise ParameterError(
                    f"channel {i} start time {ch.start_time_s} differs from "
                    f"channel 0 start {first.start_time_s}"
                )

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def n(self) -> int:
        return self.channels[0].n

    @property
    def sample_rate_hz(self) -> float:
        return self.channels[0].sample_rate_hz

    @property
    def start_time_s(self) -> float:
        return self.channels[0].start_time_s


@dataclass
class Spectrum:
    """DFT coefficients of a real signal, forward-normalized by 1/N, held
    as a read-only 1-D complex128 copy; their count is the length N."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.complex128)
        if c.ndim != 1:
            raise ParameterError(f"coefficients must be 1-D, got shape {c.shape}")
        c = c.copy()
        c.flags.writeable = False
        self.coefficients = c

    @property
    def n(self) -> int:
        return self.coefficients.size

    @property
    def k_max(self) -> int:
        """Highest positive-frequency bin below Nyquist: ceil(N/2) - 1."""
        return (self.n + 1) // 2 - 1

    @property
    def nyquist_bin(self) -> int | None:
        """Index N/2 when N is even, else None."""
        return self.n // 2 if self.n % 2 == 0 else None


def dft_coefficients(x: np.ndarray) -> np.ndarray:
    """Forward DFT of the samples ``x`` with 1/N normalization.

    Finite samples near the top of the float64 range can still sum past
    it; such samples raise :class:`ParameterError` rather than handing
    NaN or infinite coefficients on.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.fft.fft(x, norm="forward")
    if not np.isfinite(coeffs).all():
        raise ParameterError(
            "the signal's DFT overflows float64; scale the samples down"
        )
    return coeffs


def dft(signal: Signal) -> Spectrum:
    """Forward DFT with 1/N normalization (X[0] equals the mean); see
    :func:`dft_coefficients`."""
    return Spectrum(dft_coefficients(signal.samples))


def analytic_band(spectrum: Spectrum, k_lo: int, k_hi: int) -> np.ndarray:
    """Analytic signal 2 * sum_{k=k_lo}^{k_hi} X[k] e^{j 2 pi k n / N}: a
    read-only complex128 array whose real part is the zero-phase share
    of the positive-frequency bins [k_lo, k_hi] in the signal.

    DC and Nyquist are deliberately outside the admissible range; they
    are real standalone terms in the reconstruction identity and never
    belong to a band.
    """
    n = spectrum.n
    if not (is_integer(k_lo) and is_integer(k_hi)):
        raise ParameterError(
            f"bin range must be integers, got ({k_lo!r}, {k_hi!r})")
    if not (1 <= k_lo <= k_hi <= spectrum.k_max):
        raise BandRangeError(
            f"bin range ({k_lo}, {k_hi}) must satisfy "
            f"1 <= k_lo <= k_hi <= {spectrum.k_max} (N={n})"
        )
    masked = np.zeros(n, dtype=np.complex128)
    masked[k_lo:k_hi + 1] = spectrum.coefficients[k_lo:k_hi + 1]
    z = 2.0 * np.fft.ifft(masked, norm="forward")
    z.flags.writeable = False
    return z


def signal_energy(signal: Signal) -> float:
    """Mean power (1/N) * sum x[n]^2."""
    x = signal.samples
    return float(np.mean(x * x))


def analytic_energy(z: np.ndarray) -> float:
    """Mean power (1/N) * sum |z[n]|^2 of an analytic signal."""
    return float(np.mean(z.real * z.real + z.imag * z.imag))
