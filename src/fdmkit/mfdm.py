"""Zero-phase filter-bank decomposition for multichannel records.

A geometric cutoff ladder splits every channel over the same frequency
cells, so band k of channel p and band k of channel q always cover
identical DFT bins. Filtering is done by masking whole conjugate bin
pairs of the forward DFT, which makes each stage exactly zero-phase
and makes band + residue telescoping hold to the last bit: the residue
is computed in the time domain as what the band left behind.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .spectral import (MAX_VALUES, MultichannelSignal, Signal,
                       check_sample_rate, check_type, dft_coefficients,
                       is_integer, is_real)


@dataclass
class CutoffSchedule:
    """Strictly decreasing highpass cutoffs, all inside (0, fs/2)."""

    cutoffs_hz: tuple[float, ...]
    sample_rate_hz: float

    def __post_init__(self):
        # checked as one array; a message names the first offender
        cutoffs = self.cutoffs_hz
        if isinstance(cutoffs, np.ndarray) and cutoffs.ndim == 1 \
                and cutoffs.dtype.kind in "fiu":
            values = cutoffs.astype(np.float64)
            cutoffs = values.tolist()
        else:
            cutoffs = tuple(cutoffs)
            # one value of each type stands for the rest
            if not all(map(is_real, dict(zip(map(type, cutoffs),
                                              cutoffs)).values())):
                raise ParameterError(
                    f"cutoffs must be real numbers, got {cutoffs!r}")
            try:
                values = np.array(cutoffs, dtype=np.float64)
            except OverflowError:
                # an integer past the float range lies outside any band
                values = np.array([_as_float(c) for c in cutoffs])
        if not values.size:
            raise ParameterError("cutoff schedule is empty")
        self.sample_rate_hz = check_sample_rate(self.sample_rate_hz, 2)
        half = self.sample_rate_hz / 2.0
        if (outside := ~((values > 0.0) & (values < half))).any():
            c = float(values[outside.argmax()])
            raise ParameterError(f"cutoff {c} Hz outside (0, {half}) Hz")
        if (rising := ~(values[1:] < values[:-1])).any():
            a, b = values[rising.argmax():][:2].tolist()
            raise ParameterError(
                f"cutoffs must be strictly decreasing, got {a} then {b}")
        self.cutoffs_hz = tuple(map(float, cutoffs))

    @property
    def levels(self) -> int:
        return len(self.cutoffs_hz)


def cutoff_schedule(sample_rate_hz: float, m: float, levels: int) -> CutoffSchedule:
    """Geometric cutoff ladder f_{i+1} = f_i * (2m - 1) / (2m + 1).

    The first cutoff is (fs/2) * (2m - 1) / (2m + 1); consecutive
    cutoffs therefore keep the constant ratio (2m + 1) / (2m - 1).
    ``m`` must exceed 1/2 so the ratio stays inside (0, 1), and must
    be small enough that the ratio does not round to 1 in float64; m =
    1.5 gives the dyadic ladder fs/4, fs/8, fs/16, ...

    A ladder that reaches 0.0, or stalls where f*r rounds back to f near
    the subnormal floor, is refused by the schedule; ``levels`` beyond a
    closed-form bound on that point, or beyond ``MAX_VALUES // 3`` (a
    bank's n is at least 3), are refused without building the ladder.
    """
    r = _ladder_ratio(m)
    if not is_integer(levels):
        raise ParameterError(f"levels must be an integer, got {levels!r}")
    if levels < 1:
        raise ParameterError(f"levels must be >= 1, got {levels}")
    f = check_sample_rate(sample_rate_hz, 2) / 2.0
    if levels > (bound := min(_ladder_bound(f, r), MAX_VALUES // 3)):
        raise ParameterError(
            f"levels must be <= {bound} with m={m}: deeper cutoffs fall to "
            f"0 Hz or past a bank of {MAX_VALUES} values, got {levels}")
    # accumulate multiplies in order: rung i + 1 is fl(rung i * r)
    rungs = np.multiply.accumulate(np.r_[f, np.full(levels, r)])[1:]
    return CutoffSchedule(rungs, sample_rate_hz)


def _as_float(v) -> float:
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _ladder_ratio(m) -> float:
    """The ladder ratio of shape parameter ``m``, refused unless in (0, 1)."""
    if not is_real(m) or m == math.inf:
        raise ParameterError(f"m must be a finite real number, got {m!r}")
    if not (m > 0.5):
        raise ParameterError(f"m must be > 1/2, got {m}")
    # from 1e300 on, 2m may overflow and the ratio rounds to 1 anyway;
    # so it does for an integer past the float range
    given, m = m, _as_float(m)
    r = (2.0 * m - 1.0) / (2.0 * m + 1.0) if m < 1e300 else 1.0
    if r == 1.0:
        raise ParameterError(
            f"m={given} is too large: the ladder ratio (2m - 1) / (2m + 1) "
            "rounds to 1")
    return r


def _record_schedule(data: MultichannelSignal, m, levels) -> CutoffSchedule:
    """The ladder for a bank over ``data``, refused before it is built."""
    # rung i is (fs/2) r**i: past log(n/2) / -log(r) rungs, plus two
    # for the built ladder's rounding, it is below fs/n
    deepest = math.floor(math.log(data.n / 2) / -math.log(_ladder_ratio(m)) + 2)
    if levels > deepest:
        raise ParameterError(
            f"levels must be <= {deepest} with m={m}: deeper cutoffs fall "
            f"below the resolution fs/n of an n={data.n} record, got {levels}")
    _check_budget(levels, data.n_channels, data.n)
    return cutoff_schedule(data.sample_rate_hz, m, levels)


def _check_budget(levels: int, channels: int, n: int):
    if levels * channels * n > MAX_VALUES:
        raise ParameterError(
            f"a bank of {levels} levels x {channels} channels x {n} "
            f"samples would hold more than {MAX_VALUES} values")


def _ladder_bound(f: float, r: float) -> int:
    """An upper bound on the positive, strictly falling rungs that
    f -> fl(f*r), 0 < r < 1, takes from f. A normal rung is at most
    (1 - shrink) times the one before: fl(f*r) <= f*r*(1 + 2**-53), and a
    strict fall is at least an ulp, over 2**-54 of f. A subnormal rung is
    k * 2**-1074, k < 2**52: round(k*r) < k needs k >= c = 1/(2*(1 - r)),
    and round(k*r) - c <= r*(k - c), so at most two rungs follow the
    log(2**52) / -log(r) that bring k - c below 1. Slack covers the logs.
    """
    shrink = max((1.0 - r) - r * 2.0**-53, 2.0**-54)
    normal = max(0.0, math.log(f) + 1022 * math.log(2.0)) / -math.log1p(-shrink)
    subnormal = 52 * math.log(2.0) / -math.log(r)
    return int((normal + subnormal) * (1.0 + 1e-9)) + 4


def _bin_freqs(n: int, sample_rate_hz: float) -> np.ndarray:
    # |frequency| of every DFT bin; bin k and bin n-k fold to the same
    # value so any threshold on this keeps conjugate pairs together
    k = np.arange(n)
    return np.minimum(k, n - k) * (sample_rate_hz / n)


def retained_bins(n: int, sample_rate_hz: float, cutoff_hz: float) -> np.ndarray:
    """Positive-half bin indices a highpass at cutoff_hz keeps.

    Indices k in [1, n // 2] with k * fs / n >= cutoff_hz. Useful for
    checking that the same schedule pins the same bins on every channel.
    ``n`` is a record length (>= 2), and the rate and cutoff are refused
    where :func:`zero_phase_highpass` would refuse them.
    """
    if not is_integer(n) or n < 2:
        raise ParameterError(f"n must be an integer >= 2, got {n!r}")
    fs = check_sample_rate(sample_rate_hz, n)
    _check_cutoff(cutoff_hz, fs)
    # bin 0 sits at 0 Hz, below every cutoff
    return np.flatnonzero(_bin_freqs(n, fs)[:n // 2 + 1] >= cutoff_hz)


def _check_cutoff(cutoff_hz, sample_rate_hz: float):
    """Refuse a cutoff that is not a real number inside (0, fs/2)."""
    if not is_real(cutoff_hz):
        raise ParameterError(f"cutoff must be a real number, got {cutoff_hz!r}")
    half = sample_rate_hz / 2.0
    if not (0.0 < cutoff_hz < half):
        raise ParameterError(f"cutoff {cutoff_hz} Hz outside (0, {half}) Hz")


def _highpass(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The samples ``x`` with only the DFT bins where the bool mask
    ``keep`` is true left in. The result is a contiguous float64 array,
    not a view that would hold on to the complex inverse."""
    return np.fft.ifft(dft_coefficients(x) * keep, norm="forward").real.copy()


def zero_phase_highpass(signal: Signal, cutoff_hz: float) -> Signal:
    """Keep only DFT bins at or above cutoff_hz; zero phase shift.

    DC always lands below any positive cutoff and is removed. The mask
    acts on whole conjugate pairs, so the output is real up to
    rounding and is returned as such. A record whose DFT overflows
    float64 raises ParameterError.
    """
    check_type(signal, Signal, "signal")
    fs = signal.sample_rate_hz
    _check_cutoff(cutoff_hz, fs)
    y = _highpass(signal.samples, _bin_freqs(signal.n, fs) >= cutoff_hz)
    return Signal(y, fs, signal.start_time_s)


@dataclass
class MfdmResult:
    """Per-level, per-channel band signals plus the final residue.

    ``bands[i][p]`` is level i of channel p (level 0 holds the highest
    frequencies). ``residue[p]`` is what remains of channel p below the
    last cutoff, DC included. For every channel

        x = sum_i bands[i] + residue

    holds exactly because each residue was formed by subtraction.
    """

    bands: tuple[tuple[np.ndarray, ...], ...]
    residue: tuple[np.ndarray, ...]

    @property
    def n_levels(self) -> int:
        return len(self.bands)

    @property
    def n_channels(self) -> int:
        return len(self.residue)


def mfdm_decompose(data, schedule: CutoffSchedule) -> MfdmResult:
    """Run the zero-phase filter bank over every channel.

    Each stage highpasses the running residue at its cutoff; the new
    residue is what that band left behind.

    Parameters
    ----------
    data : Signal or MultichannelSignal
    schedule : CutoffSchedule
        Must carry the same sample rate as the data, and every cutoff
        must sit at or above the DFT resolution fs / n; below that a
        highpass stage cannot distinguish the cutoff from DC. Levels x
        channels x n must not pass ``MAX_VALUES``, the float64 values
        the bands hold.

    Returns
    -------
    MfdmResult
    """
    check_type(data, (Signal, MultichannelSignal), "data")
    check_type(schedule, CutoffSchedule, "schedule")
    if isinstance(data, Signal):
        data = MultichannelSignal((data,))
    fs = data.sample_rate_hz
    if schedule.sample_rate_hz != fs:
        raise ParameterError(
            f"schedule sample rate {schedule.sample_rate_hz} does not match "
            f"data sample rate {fs}")
    # the schedule's cutoffs strictly decrease: the last is the lowest
    if (lowest := schedule.cutoffs_hz[-1]) < (resolution := fs / data.n):
        raise ParameterError(
            f"cutoff {lowest} Hz is below the frequency resolution "
            f"{resolution} Hz of an n={data.n} record")
    _check_budget(schedule.levels, data.n_channels, data.n)

    freqs = _bin_freqs(data.n, fs)
    # the residues are updated in place: past them, the bank allocates
    # its bands and one level's transforms
    residues = tuple(ch.samples.copy() for ch in data.channels)
    bands = []
    # A residue x that dft_coefficients accepts has a finite unnormalised
    # DFT X, since pocketfft scales after its passes (cfftp::pass_all and
    # fftblue::fft in numpy's pocketfft_hdronly.hpp), and by Parseval
    # ||x||_2 <= max |X_u|. A band sample is at most (1/n) sum_kept |X_k|
    # <= sqrt((n - 1) / n) ||x||_2, and so is a residue sample (the bins
    # the band leaves): at least max |X_u| / (2n) below max |X_u|, far
    # more than the transforms' rounding near 1e-13. So with max |X_u|
    # within the float64 max neither _highpass nor x -= band overflows.
    # Not covered: a finite bin's modulus may reach sqrt(2) times that
    # max, and pocketfft's radix-8 rotations add a value's two parts.
    for c in schedule.cutoffs_hz:
        keep = freqs >= c
        level = tuple(_highpass(x, keep) for x in residues)
        for x, band in zip(residues, level):
            x -= band
        bands.append(level)
    # a band that overflowed leaves a non-finite residue, which the
    # next level's transform refuses; this catches the last level's
    if not all(np.isfinite(x).all() for x in residues):
        raise ParameterError(
            "the filter bank's residue overflows float64; scale the "
            "samples down")
    return MfdmResult(bands=tuple(bands), residue=residues)
