"""Time-frequency-energy products of a decomposition.

The point set pairs every sample of every band with its instantaneous
frequency and envelope, which is the native (scatter) representation.
Binned views are built from it: a marginal spectrum over frequency, an
instantaneous energy trace over time, and a rasterized grid for
plotting. Binning accumulates point mass into the nearest cell, so the
grid's total energy matches the point set's regardless of axis choice.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fdm import DecompositionResult
from .spectral import MAX_VALUES as MAX_CELLS  # most cells a binned product holds
from .spectral import check_type, is_real, sample_times


@dataclass
class TfePoints:
    """Flat (time, frequency, amplitude) triples, band-major.

    ``fibf_index[j]`` says which band point j came from; points of band
    i occupy one contiguous run of length n. Negative instantaneous
    frequencies (possible only on bands that failed the monotonicity
    test) are clamped to 0 Hz and counted in ``clamped_negative``.
    """

    times_s: np.ndarray
    freqs_hz: np.ndarray
    amplitudes: np.ndarray
    fibf_index: np.ndarray
    sample_rate_hz: float
    clamped_negative: int = 0

    @property
    def n_points(self) -> int:
        return self.times_s.size


def fhs(result: DecompositionResult) -> TfePoints:
    """Frequency-amplitude point set of a decomposition.

    Emits exactly n_fibfs * n points in band order, none when there are
    no bands; the DC and Nyquist terms carry no instantaneous frequency
    and are not represented.
    """
    check_type(result, DecompositionResult, "result")
    n, bands = result.n, result.fibfs
    t = sample_times(n, result.sample_rate_hz, result.start_time_s)
    freqs = np.array([b.inst_freq_hz for b in bands], dtype=np.float64).reshape(-1)
    neg = freqs < 0.0
    freqs[neg] = 0.0
    return TfePoints(
        times_s=np.tile(t, len(bands)),
        freqs_hz=freqs,
        amplitudes=np.array([b.amplitude for b in bands],
                            dtype=np.float64).reshape(-1),
        fibf_index=np.repeat(np.arange(len(bands), dtype=np.int64), n),
        sample_rate_hz=result.sample_rate_hz,
        clamped_negative=int(np.count_nonzero(neg)),
    )


def marginal_spectrum(points: TfePoints, freq_bin_hz: float):
    """Amplitude mass per frequency bin, integrated over time.

    Each point contributes amplitude * dt (dt = one sample period) to
    the bin its frequency rounds to. Returns (bin_centers_hz, h) with
    bins 0, df, 2*df, ... up to the highest occupied one.
    """
    if not (is_real(freq_bin_hz) and 0 < freq_bin_hz < np.inf):
        raise ParameterError(
            f"freq_bin_hz must be a finite number > 0, got {freq_bin_hz!r}")
    if points.n_points == 0:
        return np.zeros(0), np.zeros(0)
    # counted in float: past int64 the bin indices would wrap
    n_bins = np.rint(points.freqs_hz.max() / freq_bin_hz) + 1
    if not n_bins <= MAX_CELLS:
        raise ParameterError(
            f"freq_bin_hz {freq_bin_hz} asks for {n_bins:.4g} bins, "
            f"more than {MAX_CELLS}"
        )
    dt = 1.0 / points.sample_rate_hz
    k = np.rint(points.freqs_hz / freq_bin_hz).astype(np.int64)
    k = np.maximum(k, 0)
    h = np.zeros(int(k.max()) + 1)
    np.add.at(h, k, points.amplitudes * dt)
    freqs = np.arange(h.size) * freq_bin_hz
    return freqs, h


def instantaneous_energy(result: DecompositionResult) -> np.ndarray:
    """Squared-envelope sum across bands at each sample."""
    out = np.zeros(result.n)
    for band in result.fibfs:
        out += band.amplitude * band.amplitude
    return out


@dataclass
class TfeGrid:
    """Rasterized point set: cells[i, j] covers freq_axis[i] x time_axis[j]."""

    cells: np.ndarray


def _axis_ok(axis: np.ndarray, name: str) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    if axis.ndim != 1 or axis.size < 1:
        raise ParameterError(f"{name} must be a non-empty 1-D array")
    # one comparison per step; unlike np.diff it cannot overflow, and it
    # refuses the same axes: nan and every non-increasing step
    if not np.all(axis[1:] > axis[:-1]):
        raise ParameterError(f"{name} must be strictly increasing")
    return axis


def _nearest_index(centers: np.ndarray, values: np.ndarray) -> np.ndarray:
    # the sum halved in place: one rounding each, as in 0.5 * (a + b)
    edges = centers[1:] + centers[:-1]
    edges *= 0.5
    # value exactly on an edge goes to the higher cell
    return np.searchsorted(edges, values, side="right")


def rasterize(points: TfePoints, time_axis, freq_axis,
              mode: str = "energy") -> TfeGrid:
    """Bin the point set onto a grid of given cell centers.

    mode "energy" accumulates amplitude^2 per cell, so the grid total
    equals the point set's total energy; "amplitude" keeps the largest
    amplitude that landed in each cell. Points outside the axes clamp
    to the nearest edge cell rather than being dropped.
    """
    if mode not in ("energy", "amplitude"):
        raise ParameterError(f"unknown rasterize mode {mode!r}")
    time_axis = _axis_ok(time_axis, "time_axis")
    freq_axis = _axis_ok(freq_axis, "freq_axis")
    if freq_axis.size * time_axis.size > MAX_CELLS:
        raise ParameterError(
            f"a {freq_axis.size} x {time_axis.size} grid has more than "
            f"{MAX_CELLS} cells"
        )
    cells = np.zeros((freq_axis.size, time_axis.size))
    jt = _nearest_index(time_axis, points.times_s)
    jf = _nearest_index(freq_axis, points.freqs_hz)
    if mode == "energy":
        np.add.at(cells, (jf, jt), points.amplitudes ** 2)
    else:
        np.maximum.at(cells, (jf, jt), points.amplitudes)
    return TfeGrid(cells)
