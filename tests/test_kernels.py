import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmkit import _kernels
from oracles import admissible_direct, band_direct


def spectrum_of(seed, n):
    x = np.random.default_rng(seed).standard_normal(n)
    c = np.fft.fft(x, norm="forward")
    return np.ascontiguousarray(c.real), np.ascontiguousarray(c.imag), c


# n=300 is longer than the probe window, so the scan has to catch the
# rest of the band signal up; one seed keeps the O(n^2) reference quick
def seeds_for(n):
    return range(8) if n <= _kernels.PROBE else range(1)


def admissible(zr, zi, eps):
    return bool(_kernels._admissible_rows(zr, zi, eps))


def run_partition(sr, si, ct, st_, k_max, eps, exhaustive):
    cells, lo = [], 1
    while lo <= k_max:
        hi = _kernels.scan_boundary(sr, si, ct, st_, np.arange(lo, k_max + 1),
                                    eps, exhaustive)
        if hi == -1:
            cells.append((lo, k_max))
            break
        cells.append((lo, hi))
        lo = hi + 1
    return cells


# -pi - 4.4e-16 is where d + pi < 0 but d + pi + 2pi rounds up to 2pi
_TINY = np.nextafter(0.0, 1.0)
_TWO_PI_DOWN = np.nextafter(2 * np.pi, 0.0)
WRAP_EDGES = [
    np.pi, -np.pi, 0.0, -0.0, 2 * np.pi, -2 * np.pi,
    _TWO_PI_DOWN, -_TWO_PI_DOWN, _TINY, -_TINY,
    np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0),
    np.nextafter(np.pi, 4.0), np.nextafter(-np.pi, -4.0),
    -np.pi - 4.4e-16, 1e-300, -1e-300, 3.0,
]


class TestAdmissibility:
    @given(st.integers(0, 2**32 - 1), st.integers(8, 40),
           st.sampled_from([0.0, 1e-9, 1e-3]))
    @settings(max_examples=60, deadline=None)
    def test_numpy_path_matches_unwrap_reference(self, seed, n, eps):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = admissible(z.real.copy(), z.imag.copy(), eps)
        assert got == admissible_direct(z, eps)

    def test_exact_zero_sample_rejected(self):
        z = np.exp(1j * np.linspace(0, 4, 16))
        zr, zi = z.real.copy(), z.imag.copy()
        assert admissible(zr, zi, 0.0)
        zr[7] = 0.0
        zi[7] = 0.0
        assert not admissible(zr, zi, 0.0)

    @given(st.one_of(
        st.floats(-2 * np.pi, 2 * np.pi),
        st.sampled_from(WRAP_EDGES),
    ))
    @settings(max_examples=300, deadline=None)
    def test_wrap_matches_mod_recipe_bit_for_bit(self, d):
        d = np.array([d, -d])
        want = np.mod(d + np.pi, 2 * np.pi) - np.pi
        got = _kernels._wrap(d)
        assert got.tobytes() == want.tobytes(), (d, got, want)

    def test_wrap_edges_in_one_array(self):
        d = np.array(WRAP_EDGES).reshape(-1, 3)
        want = np.mod(d + np.pi, 2 * np.pi) - np.pi
        assert _kernels._wrap(d).tobytes() == want.tobytes()

    def test_tolerance_admits_small_regressions(self):
        # one sample displaced so the central slope there is -5e-13 rad:
        # steps are 0.3 so a dip of 0.6 + 1e-12 flips the averaged slope
        # just below zero
        phase = np.cumsum(np.full(32, 0.3))
        phase[20] -= 0.6 + 1e-12
        z = np.exp(1j * phase)
        assert not admissible(z.real.copy(), z.imag.copy(), 0.0)
        assert admissible(z.real.copy(), z.imag.copy(), 1e-9)


class TestBoundaryKernels:
    # one kernel path; the "numpy" id keeps the test names stable
    @pytest.mark.parametrize("scan", [_kernels.scan_boundary], ids=["numpy"])
    @pytest.mark.parametrize("n", [16, 17, 64, 300])
    @pytest.mark.parametrize("exhaustive", [True, False])
    def test_lth_tracks_fresh_synthesis_reference(self, scan, n, exhaustive):
        ct, st_ = _kernels.twiddle_tables(n)
        k_max = (n + 1) // 2 - 1
        for seed in seeds_for(n):
            sr, si, c = spectrum_of(seed, n)
            lo = 1
            while lo <= k_max:
                hi = scan(sr, si, ct, st_, np.arange(lo, k_max + 1), 0.0,
                          exhaustive)
                # reference: evaluate every candidate from scratch
                best = -1
                for h in range(lo, k_max + 1):
                    if admissible_direct(band_direct(c, lo, h), 0.0):
                        best = h
                    elif best != -1 and not exhaustive:
                        break
                assert hi == best, (seed, lo)
                if hi == -1:
                    break
                lo = hi + 1

    @pytest.mark.parametrize("scan", [_kernels.scan_boundary], ids=["numpy"])
    @pytest.mark.parametrize("n", [16, 17, 64, 300])
    @pytest.mark.parametrize("exhaustive", [True, False])
    def test_htl_tracks_fresh_synthesis_reference(self, scan, n, exhaustive):
        ct, st_ = _kernels.twiddle_tables(n)
        k_max = (n + 1) // 2 - 1
        for seed in seeds_for(n):
            sr, si, c = spectrum_of(seed, n)
            hi = k_max
            while hi >= 1:
                lo = scan(sr, si, ct, st_, np.arange(hi, 0, -1), 0.0,
                          exhaustive)
                best = -1
                for l in range(hi, 0, -1):
                    if admissible_direct(band_direct(c, l, hi), 0.0):
                        best = l
                    elif best != -1 and not exhaustive:
                        break
                assert lo == best, (seed, hi)
                if lo == -1:
                    break
                hi = lo - 1

    def test_search_modes_really_differ(self):
        # seed 1 at n=16 splits differently under the two modes, so the
        # exhaustive flag is load-bearing, not decorative
        sr, si, c = spectrum_of(1, 16)
        ct, st_ = _kernels.twiddle_tables(16)
        ex = run_partition(sr, si, ct, st_, 7, 0.0, True)
        fv = run_partition(sr, si, ct, st_, 7, 0.0, False)
        assert ex == [(1, 4), (5, 7)]
        assert fv == [(1, 2), (3, 4), (5, 7)]

    def test_leading_zero_bin_is_skipped_not_fatal(self):
        # bin 1 empty: the (1,1) candidate is all zeros and inadmissible,
        # but the scan keeps looking and still covers bin 1
        n = 16
        c = np.zeros(n, dtype=complex)
        c[2] = 0.5
        c[n - 2] = 0.5
        sr = np.ascontiguousarray(c.real)
        si = np.ascontiguousarray(c.imag)
        ct, st_ = _kernels.twiddle_tables(n)
        for exhaustive in (True, False):
            hi = _kernels.scan_boundary(sr, si, ct, st_, np.arange(1, 8), 0.0,
                                        exhaustive)
            assert hi >= 2

    def test_all_zero_spectrum_returns_sentinel(self):
        n = 16
        sr = np.zeros(n)
        si = np.zeros(n)
        ct, st_ = _kernels.twiddle_tables(n)
        for bins in (np.arange(1, 8), np.arange(7, 0, -1)):
            assert _kernels.scan_boundary(sr, si, ct, st_, bins, 0.0, True) == -1

    @pytest.mark.parametrize("check", [_kernels.band_monotone], ids=["numpy"])
    def test_band_monotone_matches_reference(self, check):
        n = 32
        ct, st_ = _kernels.twiddle_tables(n)
        for seed in range(10):
            sr, si, c = spectrum_of(seed, n)
            for lo, hi in [(1, 3), (2, 9), (5, 15), (1, 15)]:
                want = admissible_direct(band_direct(c, lo, hi), 0.0)
                assert bool(check(sr, si, ct, st_, lo, hi, 0.0)) == want

