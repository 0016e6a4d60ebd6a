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
from dataclasses import dataclass, field

import numpy as np

from .errors import BandRangeError, ParameterError, SymmetryError

# Inverse transforms of conjugate-symmetric spectra should be real to
# roundoff; anything above this (relative to the real part's peak) means
# the caller handed us a spectrum that does not describe a real signal.
IMAG_RESIDUE_RTOL = 1e-10


def check_sample_rate(fs, n: int) -> float:
    """``fs`` as a float; refused unless it is a real number, positive
    and finite, and the times m/fs of an n-sample record are finite, its
    period 1/fs included."""
    if isinstance(fs, bool) or not isinstance(fs, numbers.Real):
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
        return self.start_time_s + np.arange(self.n) / self.sample_rate_hz


@dataclass
class Spectrum:
    """DFT coefficients of a real signal, forward-normalized by 1/N."""

    coefficients: np.ndarray
    source_length: int
    sample_rate_hz: float

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.complex128)
        if c.ndim != 1 or c.size != self.source_length:
            raise ParameterError(
                f"coefficient array shape {c.shape} does not match "
                f"source_length {self.source_length}"
            )
        c = c.copy()
        c.flags.writeable = False
        self.coefficients = c
        self.sample_rate_hz = float(self.sample_rate_hz)

    @property
    def n(self) -> int:
        return self.source_length

    @property
    def bin_hz(self) -> float:
        """Frequency spacing between adjacent bins."""
        return self.sample_rate_hz / self.source_length

    @property
    def k_max(self) -> int:
        """Highest positive-frequency bin below Nyquist: ceil(N/2) - 1."""
        return (self.source_length + 1) // 2 - 1

    @property
    def nyquist_bin(self) -> int | None:
        """Index N/2 when N is even, else None."""
        return self.source_length // 2 if self.source_length % 2 == 0 else None


@dataclass
class AnalyticSignal:
    """Complex band signal 2 * sum_{k=k_lo}^{k_hi} X[k] e^{j 2 pi k n / N}.

    ``Re{values}`` is the zero-phase band-passed contribution of bins
    [k_lo, k_hi] (plus their mirrored negative twins) to the original
    signal.
    """

    values: np.ndarray
    bin_range: tuple[int, int]
    sample_rate_hz: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 1:
            raise ParameterError(f"analytic values must be 1-D, got shape {v.shape}")
        lo, hi = self.bin_range
        k_top = (v.size + 1) // 2 - 1
        if not (1 <= lo <= hi <= k_top):
            raise BandRangeError(
                f"bin range ({lo}, {hi}) outside positive-frequency bins "
                f"[1, {k_top}] for length {v.size}"
            )
        v = v.copy()
        v.flags.writeable = False
        self.values = v
        self.bin_range = (int(lo), int(hi))
        self.sample_rate_hz = float(self.sample_rate_hz)

    @property
    def n(self) -> int:
        return self.values.size


def dft(signal: Signal) -> Spectrum:
    """Forward DFT with 1/N normalization (X[0] equals the mean).

    Finite samples near the top of the float64 range can still sum past
    it; such a signal raises :class:`ParameterError` rather than
    handing NaN or infinite coefficients on.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.fft.fft(signal.samples, norm="forward")
    if not np.isfinite(coeffs).all():
        raise ParameterError(
            "the signal's DFT overflows float64; scale the samples down"
        )
    return Spectrum(coeffs, signal.n, signal.sample_rate_hz)


def idft(spectrum: Spectrum) -> Signal:
    """Synthesize the time series a spectrum describes.

    The spectrum must be (numerically) conjugate symmetric, i.e. come
    from a real signal; a residual imaginary part above
    ``IMAG_RESIDUE_RTOL`` relative to the real peak raises
    :class:`SymmetryError` rather than being silently discarded.
    """
    z = np.fft.ifft(spectrum.coefficients, norm="forward")
    scale = np.max(np.abs(z.real))
    worst = np.max(np.abs(z.imag))
    if worst > IMAG_RESIDUE_RTOL * max(scale, 1e-300):
        raise SymmetryError(
            f"imaginary residue {worst:.3e} exceeds {IMAG_RESIDUE_RTOL:g} "
            f"of peak {scale:.3e}; spectrum is not conjugate symmetric"
        )
    return Signal(z.real, spectrum.sample_rate_hz)


def analytic_band(spectrum: Spectrum, k_lo: int, k_hi: int) -> AnalyticSignal:
    """Analytic signal of the positive-frequency bins [k_lo, k_hi].

    DC and Nyquist are deliberately outside the admissible range; they
    are real standalone terms in the reconstruction identity and never
    belong to a band.
    """
    n = spectrum.n
    if not (1 <= k_lo <= k_hi <= spectrum.k_max):
        raise BandRangeError(
            f"bin range ({k_lo}, {k_hi}) must satisfy "
            f"1 <= k_lo <= k_hi <= {spectrum.k_max} (N={n})"
        )
    masked = np.zeros(n, dtype=np.complex128)
    masked[k_lo:k_hi + 1] = spectrum.coefficients[k_lo:k_hi + 1]
    values = 2.0 * np.fft.ifft(masked, norm="forward")
    return AnalyticSignal(values, (k_lo, k_hi), spectrum.sample_rate_hz)


def signal_energy(signal: Signal) -> float:
    """Mean power (1/N) * sum x[n]^2."""
    x = signal.samples
    return float(np.mean(x * x))


def analytic_energy(a: AnalyticSignal) -> float:
    """Mean power (1/N) * sum |z[n]|^2 of an analytic signal."""
    v = a.values
    return float(np.mean(v.real * v.real + v.imag * v.imag))
