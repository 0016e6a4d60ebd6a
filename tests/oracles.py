"""Slow independent references the fast paths are tested against.

Nothing here imports package internals: transforms are direct O(n^2)
sums, every candidate band is synthesized from scratch, and phase
admissibility goes through numpy's own unwrap. That keeps the oracle
failure modes disjoint from the library's (incremental accumulation,
fft, hand-rolled wrap handling), so agreement is meaningful.
"""

import numpy as np


def dft_direct(x: np.ndarray) -> np.ndarray:
    """O(n^2) forward transform with the 1/n factor."""
    n = x.size
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return (w @ x.astype(np.complex128)) / n


def band_direct(coeffs: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Analytic band by per-bin summation, factor 2 included."""
    n = coeffs.size
    t = np.arange(n)
    z = np.zeros(n, dtype=np.complex128)
    for k in range(lo, hi + 1):
        z += 2.0 * coeffs[k] * np.exp(2j * np.pi * k * t / n)
    return z


def admissible_direct(z: np.ndarray, eps: float) -> bool:
    """True when z never vanishes and its unwrapped phase never drops
    by more than eps per interior central difference."""
    if np.any(z == 0):
        return False
    phase = np.unwrap(np.angle(z))
    omega = 0.5 * (phase[2:] - phase[:-2])
    return not np.any(omega < -eps)


def admissible_steps(z: np.ndarray, eps: float) -> bool:
    """``admissible_direct`` with each central slope taken from the
    wrapped phase increments themselves, (d[m-1] + d[m]) / 2, with d
    wrapped the way np.unwrap wraps it, instead of from differences of
    the accumulated unwrapped phase. The accumulated phase rounds
    differently, and where a slope is exactly 0 its sign can flip: bins
    7, 14 and 21 of n=56 holding 0.5, 0.5-1j and -1+1j give a slope of
    0 one way and -7.1e-15 the other."""
    if np.any(z == 0):
        return False
    dd = np.diff(np.angle(z))
    d = np.mod(dd + np.pi, 2 * np.pi) - np.pi
    d[(d == -np.pi) & (dd > 0)] = np.pi
    omega = 0.5 * (d[:-1] + d[1:])
    return not np.any(omega < -eps)


def lth_partition_direct(coeffs: np.ndarray, eps: float = 0.0,
                         exhaustive: bool = True):
    """Greedy upward partition of bins [1, ceil(n/2)-1].

    Returns a list of (lo, hi, monotone) cells. Each band takes the
    largest admissible upper edge; with exhaustive=False the scan stops
    at the first inadmissible candidate found after an admissible one.
    """
    n = coeffs.size
    k_max = (n + 1) // 2 - 1
    cells = []
    lo = 1
    while lo <= k_max:
        best = -1
        for hi in range(lo, k_max + 1):
            if admissible_direct(band_direct(coeffs, lo, hi), eps):
                best = hi
            elif best != -1 and not exhaustive:
                break
        if best == -1:
            cells.append((lo, k_max, False))
            break
        cells.append((lo, best, True))
        lo = best + 1
    return cells


def htl_partition_direct(coeffs: np.ndarray, eps: float = 0.0,
                         exhaustive: bool = True):
    """Mirror of the upward scan: bands grow downward from the top bin
    and each takes the smallest admissible lower edge."""
    n = coeffs.size
    k_max = (n + 1) // 2 - 1
    cells = []
    hi = k_max
    while hi >= 1:
        best = -1
        for lo in range(hi, 0, -1):
            if admissible_direct(band_direct(coeffs, lo, hi), eps):
                best = lo
            elif best != -1 and not exhaustive:
                break
        if best == -1:
            cells.append((1, hi, False))
            break
        cells.append((best, hi, True))
        hi = best - 1
    return cells


def scan_direct(sr, si, cos_tab, sin_tab, bins, eps, exhaustive):
    """The band scan's answer with every candidate judged on its whole
    band signal: the last bin of ``bins`` that closes an admissible
    band (the largest one, or with exhaustive=False the last before
    the first inadmissible one after it), or -1.

    Each band signal is summed from zero in ``bins`` order, with every
    term spelled out from the lookup tables the scan uses,
    (cr wr - ci wi) + i (cr wi + ci wr), w = e^{i 2 pi k m / n}. Those
    are the scan's bits, so an exact zero sample stays exactly zero;
    ``band_direct``'s complex exponentials round differently and would
    turn it into a tiny sample of arbitrary phase. Admissibility is
    ``admissible_steps``, for the same reason.
    """
    n = sr.size
    m = np.arange(n)
    z = np.zeros(n, dtype=np.complex128)
    best = -1
    for k in bins:
        j = (k * m) % n
        wr, wi = cos_tab[j], sin_tab[j]
        # in place, so that no complex product touches a signed zero
        z.real += sr[k] * wr - si[k] * wi
        z.imag += sr[k] * wi + si[k] * wr
        if admissible_steps(z, eps):
            best = int(k)
        elif best != -1 and not exhaustive:
            break
    return best
