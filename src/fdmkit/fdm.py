"""Greedy frequency-scan decomposition into analytic intrinsic bands.

A decomposition partitions the positive-frequency DFT bins
[1, ceil(N/2)-1] into contiguous cells. Each cell's analytic signal
must have a non-decreasing unwrapped phase (within a configurable
tolerance) at every interior sample, which is what makes its
instantaneous frequency physically meaningful. Scanning low-to-high
grows each band upward as far as admissibility allows; high-to-low
mirrors this from the top bin downward. DC and the Nyquist bin never
join a band: they are real standalone terms in the reconstruction

    x[n] = dc + sum_i y_i[n] + nyquist * (-1)^n
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .errors import ParameterError
from .spectral import (MAX_VALUES, Signal, Spectrum, analytic_band,
                       check_sample_rate, check_type, dft, is_integer,
                       is_real)

# Edge bins whose coefficient magnitude falls at or below this fraction
# of the largest positive-bin magnitude are considered empty and do not
# count toward a band's reported bin range. The scan partition itself
# is kept separately so bin bookkeeping stays exact.
ZERO_BIN_RTOL = 1e-12


class ScanDirection(Enum):
    LOW_TO_HIGH = "lth"
    HIGH_TO_LOW = "htl"


class SearchMode(Enum):
    """How far a band scan looks before settling on a boundary.

    MAXIMAL_EXHAUSTIVE tries every candidate extension up to the last
    positive bin and keeps the largest admissible one; admissibility is
    not monotone in the band edge, so this is the faithful reading of
    "maximum value". FIRST_VIOLATION stops at the first inadmissible
    extension after at least one admissible candidate has been seen,
    so its bands can be smaller and more numerous. Neither is faster on
    every record. FIRST_VIOLATION makes 123 bands of white noise
    (n=4096, lth) to MAXIMAL_EXHAUSTIVE's 32, and 603 bands of a linear
    chirp (n=16384, htl) to MAXIMAL_EXHAUSTIVE's one.
    """

    MAXIMAL_EXHAUSTIVE = "max"
    FIRST_VIOLATION = "first"


@dataclass
class FdmConfig:
    scan: ScanDirection = ScanDirection.LOW_TO_HIGH
    search: SearchMode = SearchMode.MAXIMAL_EXHAUSTIVE
    monotonicity_tolerance: float = 0.0
    max_fibfs: int | None = None

    def __post_init__(self):
        # a member, or its value as a string
        for name, enum in (("scan", ScanDirection), ("search", SearchMode)):
            try:
                setattr(self, name, enum(getattr(self, name)))
            except ValueError:
                raise ParameterError(
                    f"{name} must be one of {[m.value for m in enum]}, "
                    f"got {getattr(self, name)!r}") from None
        if not is_real(self.monotonicity_tolerance):
            raise ParameterError("monotonicity_tolerance must be a real number, "
                                 f"got {self.monotonicity_tolerance!r}")
        if not (self.monotonicity_tolerance >= 0.0):
            raise ParameterError(
                f"monotonicity_tolerance must be >= 0, got {self.monotonicity_tolerance}"
            )
        if self.max_fibfs is not None:
            # a float cap would never be hit
            if not is_integer(self.max_fibfs):
                raise ParameterError(
                    f"max_fibfs must be an integer, got {self.max_fibfs!r}"
                )
            if self.max_fibfs < 1:
                raise ParameterError(f"max_fibfs must be >= 1, got {self.max_fibfs}")


@dataclass
class Afibf:
    """One analytic intrinsic band function.

    Attributes
    ----------
    bin_range : (int, int)
        Inclusive DFT bin span actually carrying energy, after empty
        edge bins are trimmed off.
    partition_range : (int, int)
        The cell this band occupies in the exact bin partition; the
        cells of a decomposition tile [1, ceil(N/2)-1] with no gaps.
    amplitude, phase, inst_freq_hz, fibf : ndarray
        Per-sample envelope |z|, unwrapped phase, instantaneous
        frequency in Hz, and the real band signal Re{z}.
    """

    bin_range: tuple[int, int]
    partition_range: tuple[int, int]
    amplitude: np.ndarray
    phase: np.ndarray
    inst_freq_hz: np.ndarray
    fibf: np.ndarray

    def energy(self) -> float:
        """Total energy sum(y^2) of the band signal."""
        return _sum_squares(self.fibf)


@dataclass
class DecompositionResult:
    dc: float
    nyquist: float | None
    fibfs: tuple[Afibf, ...]
    scan: ScanDirection
    reconstruction_error: float
    sample_rate_hz: float
    n: int
    start_time_s: float = 0.0
    # indices into fibfs whose phase failed the monotonicity test and
    # were emitted anyway to keep reconstruction exact
    non_monotone: tuple[int, ...] = ()
    # True when a max_fibfs cap forced leftover bins into the last band
    merged_tail: bool = False

    @property
    def n_fibfs(self) -> int:
        return len(self.fibfs)


def unwrap_phase(z: np.ndarray) -> np.ndarray:
    """Unwrapped atan2 phase of an analytic signal, as ``decompose``
    emits it for every band.

    The first sample is anchored in (-pi, pi]; later samples differ
    from their predecessor by at most pi in magnitude. A sample with
    exactly zero magnitude gets phase 0.
    """
    return np.unwrap(np.angle(z))


_unwrap_permissive = unwrap_phase  # named only by perfbench's HOOKS; goes with it


def inst_freq(phase: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """Instantaneous frequency in Hz from an unwrapped phase sequence.

    Interior samples use the central difference
    (phase[n+1] - phase[n-1]) / 2; the endpoints fall back to one-sided
    differences. ``phase`` must be 1-D.
    """
    phase = np.asarray(phase, dtype=np.float64)
    if phase.ndim != 1:
        raise ParameterError(f"phase must be 1-D, got shape {phase.shape}")
    if phase.size < 3:
        raise ParameterError("instantaneous frequency needs at least 3 samples")
    fs = check_sample_rate(sample_rate_hz, phase.size)
    omega = np.empty_like(phase)
    omega[1:-1] = 0.5 * (phase[2:] - phase[:-2])
    omega[0] = phase[1] - phase[0]
    omega[-1] = phase[-1] - phase[-2]
    return omega * (fs / (2.0 * np.pi))


def _trim_bin_range(coeffs: np.ndarray, lo: int, hi: int, k_max: int) -> tuple[int, int]:
    thr = ZERO_BIN_RTOL * np.abs(coeffs[1:k_max + 1]).max()
    t_lo, t_hi = lo, hi
    while t_lo < t_hi and abs(coeffs[t_lo]) <= thr:
        t_lo += 1
    while t_hi > t_lo and abs(coeffs[t_hi]) <= thr:
        t_hi -= 1
    if abs(coeffs[t_lo]) <= thr and t_lo == t_hi:
        # nothing in this cell rises above the floor; keep it whole
        return lo, hi
    return t_lo, t_hi


def _scan_partition(spectrum: Spectrum, config: FdmConfig):
    """Partition positive bins into cells: list of (lo, hi, monotone)."""
    coeffs = spectrum.coefficients
    # one context for every band of the record
    scan = _kernels.ScanContext(np.ascontiguousarray(coeffs.real),
                                np.ascontiguousarray(coeffs.imag),
                                *_kernels.twiddle_tables(spectrum.n))
    eps = config.monotonicity_tolerance
    exhaustive = config.search is SearchMode.MAXIMAL_EXHAUSTIVE
    upward = config.scan is ScanDirection.LOW_TO_HIGH
    cap = config.max_fibfs
    cells = []
    # bins [lo, hi] are still unassigned; each band grows from one end
    lo, hi = 1, spectrum.k_max
    while lo <= hi:
        bins = np.arange(lo, hi + 1) if upward else np.arange(hi, lo - 1, -1)
        edge = scan.boundary(bins, eps, exhaustive)
        merged_tail = (cap is not None and len(cells) == cap - 1
                       and edge != int(bins[-1]))
        if merged_tail or edge == -1:
            # a cap forces everything left into this band; with no
            # admissible extension at all the residual band is emitted
            # anyway, so the partition, and with it reconstruction,
            # stays exact. The one candidate [lo, hi] is judged with its
            # bins summed in ascending order, whichever way and with
            # whichever search the bands were scanned
            mono = merged_tail and _kernels.band_admissible(scan, lo, hi,
                                                            eps)
            cells.append((lo, hi, mono))
            return cells, merged_tail
        if upward:
            cells.append((lo, edge, True))
            lo = edge + 1
        else:
            cells.append((edge, hi, True))
            hi = edge - 1
    return cells, False


def decompose(signal: Signal, config: FdmConfig | None = None) -> DecompositionResult:
    """Decompose a signal into analytic intrinsic band functions.

    Parameters
    ----------
    signal : Signal
    config : FdmConfig, optional
        Scan direction, search mode, monotonicity tolerance, band cap.

    Returns
    -------
    DecompositionResult
        Bands ordered by extraction (ascending bins for low-to-high,
        descending for high-to-low), plus the DC and Nyquist terms and
        the relative L2 reconstruction error.
    """
    check_type(signal, Signal, "signal")
    if config is None:
        config = FdmConfig()
    x = signal.samples
    n = x.size
    if n < 4:
        raise ParameterError(f"signal too short to decompose: n={n} < 4")

    if not np.any(x):
        return DecompositionResult(
            dc=0.0,
            nyquist=0.0 if n % 2 == 0 else None,
            fibfs=(),
            scan=config.scan,
            reconstruction_error=0.0,
            sample_rate_hz=signal.sample_rate_hz,
            n=n,
            start_time_s=signal.start_time_s,
        )

    # the scan's tables grow with n: refuse before building any of them
    values = _kernels.context_values(
        n, config.search is SearchMode.MAXIMAL_EXHAUSTIVE,
        config.max_fibfs is not None)
    if values > MAX_VALUES:
        raise ParameterError(
            f"scanning {n} samples needs {values} float64 values of scan "
            f"tables, more than the budget of {MAX_VALUES}")

    spectrum = dft(signal)
    coeffs = spectrum.coefficients
    k_max = spectrum.k_max
    fs = signal.sample_rate_hz

    cells, merged_tail = _scan_partition(spectrum, config)

    fibfs = []
    non_monotone = []
    for i, (lo, hi, mono) in enumerate(cells):
        z = analytic_band(spectrum, lo, hi)
        phase = unwrap_phase(z)
        fibfs.append(Afibf(
            bin_range=_trim_bin_range(coeffs, lo, hi, k_max),
            partition_range=(lo, hi),
            amplitude=np.abs(z),
            phase=phase,
            inst_freq_hz=inst_freq(phase, fs),
            fibf=z.real.copy(),
        ))
        if not mono:
            non_monotone.append(i)

    dc = float(coeffs[0].real)
    nyq_bin = spectrum.nyquist_bin
    nyquist = float(coeffs[nyq_bin].real) if nyq_bin is not None else None

    recon = _synthesize(dc, nyquist, fibfs, n)
    # measured on x / max|x| so that neither norm overflows to inf or
    # underflows to 0 at extreme amplitude scales
    scale = np.max(np.abs(x))
    err = (math.sqrt(_sum_squares(recon / scale - x / scale))
           / math.sqrt(_sum_squares(x / scale)))

    return DecompositionResult(
        dc=dc,
        nyquist=nyquist,
        fibfs=tuple(fibfs),
        scan=config.scan,
        reconstruction_error=err,
        sample_rate_hz=fs,
        n=n,
        start_time_s=signal.start_time_s,
        non_monotone=tuple(non_monotone),
        merged_tail=merged_tail,
    )


def _sum_squares(v: np.ndarray) -> float:
    """sum(v^2) by numpy's pairwise sum, whose bits, unlike a BLAS dot's,
    do not depend on the BLAS thread count."""
    return float(np.add.reduce(v * v))


def _synthesize(dc, nyquist, fibfs, n):
    out = np.full(n, dc, dtype=np.float64)
    for band in fibfs:
        out += band.fibf
    if nyquist is not None and nyquist != 0.0:
        alt = np.ones(n)
        alt[1::2] = -1.0
        out += nyquist * alt
    return out


def reconstruct(result: DecompositionResult) -> np.ndarray:
    """Rebuild the time series a decomposition describes."""
    return _synthesize(result.dc, result.nyquist, result.fibfs, result.n)
