import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmkit import _kernels
from oracles import admissible_direct, band_direct, scan_direct


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


def band_admissible(sr, si, ct, st_, lo, hi, eps):
    """Is the band [lo, hi] admissible? The one-candidate call that
    gives ``fdm._scan_partition`` its merged-tail flag."""
    return _kernels.scan_boundary(sr, si, ct, st_, np.arange(lo, hi + 1),
                                  eps, True) == hi


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

    def test_exact_zero_slope_matches_oracle(self):
        # bins 7, 14 and 21 of n=56: a band that holds bins 14 and 21
        # but not 7 has a central slope of exactly 0, which differences
        # of the accumulated unwrapped phase read as -7.1e-15
        n = 56
        c = np.zeros(n, dtype=np.complex128)
        c[[7, 14, 21]] = [0.5, 0.5 - 1j, -1 + 1j]
        sr = np.ascontiguousarray(c.real)
        si = np.ascontiguousarray(c.imag)
        ct, st_ = _kernels.twiddle_tables(n)
        m = np.arange(n)
        for lo in (7, 14):
            z = np.zeros(n, dtype=np.complex128)
            for k in range(lo, 28):
                j = (k * m) % n
                z.real += sr[k] * ct[j] - si[k] * st_[j]
                z.imag += sr[k] * st_[j] + si[k] * ct[j]
                got = admissible(z.real.copy(), z.imag.copy(), 0.0)
                assert got == admissible_direct(z, 0.0), (lo, k)
        assert band_admissible(sr, si, ct, st_, 14, 21, 0.0)
        for bins in (np.arange(14, 28), np.arange(27, 7, -1)):
            for exhaustive in (True, False):
                assert (_kernels.scan_boundary(sr, si, ct, st_, bins, 0.0,
                                               exhaustive)
                        == scan_direct(sr, si, ct, st_, bins, 0.0, exhaustive))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_block_matches_each_row(self, data):
        """Blocks judged as one flat buffer give each row's own verdict,
        with hazards at the row edges, where the flat buffer's seam
        steps are computed and dropped."""
        rows = data.draw(st.integers(1, 6))
        length = data.draw(st.integers(3, 40))
        eps = data.draw(st.sampled_from([0.0, 1e-3]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        zr = np.empty((rows, length))
        zi = np.empty((rows, length))
        end = 0.0
        for r in range(rows):
            hazard = data.draw(st.sampled_from(
                ["none", "zero_first", "zero_last", "dip_first", "dip_last",
                 "pi_last", "minus_pi_last", "seam_drop"]))
            start = end - rng.uniform(0.5, 3.0) if hazard == "seam_drop" \
                else rng.uniform(-np.pi, np.pi)
            phase = start + np.cumsum(rng.uniform(0.0, 1.0, length))
            if hazard == "dip_first":
                phase[2] = phase[0] - 0.5
            elif hazard == "dip_last":
                phase[-1] = phase[-3] - 0.5
            amp = rng.uniform(0.5, 2.0, length)
            zr[r] = amp * np.cos(phase)
            zi[r] = amp * np.sin(phase)
            end = phase[-1]
            if hazard in ("zero_first", "zero_last"):
                col = 0 if hazard == "zero_first" else -1
                zr[r, col] = zi[r, col] = 0.0
            elif hazard in ("pi_last", "minus_pi_last"):
                # atan2 gives 0 then +pi (or -pi): a last step of exactly
                # +pi, kept as +pi, or of -pi
                zr[r, -2], zi[r, -2] = 1.0, 0.0
                zr[r, -1] = -1.0
                zi[r, -1] = 0.0 if hazard == "pi_last" else -0.0
        # set in place: 1j * zi would turn -0.0 into +0.0
        z = np.empty((rows, length), dtype=np.complex128)
        z.real = zr
        z.imag = zi
        got = _kernels._admissible_rows(zr, zi, eps)
        for r in range(rows):
            alone = admissible(zr[r].copy(), zi[r].copy(), eps)
            assert got[r] == alone, r
            assert alone == admissible_direct(z[r], eps), r


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

    @pytest.mark.parametrize("check", [band_admissible], ids=["numpy"])
    def test_band_monotone_matches_reference(self, check):
        n = 32
        ct, st_ = _kernels.twiddle_tables(n)
        for seed in range(10):
            sr, si, c = spectrum_of(seed, n)
            for lo, hi in [(1, 3), (2, 9), (5, 15), (1, 15)]:
                want = admissible_direct(band_direct(c, lo, hi), 0.0)
                assert check(sr, si, ct, st_, lo, hi, 0.0) == want


# (PROBE, BLOCK) small enough that records of n <= 64 cross every probe
# window and block seam
SMALL_CONSTANTS = [(16, 5), (4, 1), (8, 3), (32, 7)]
DYADIC = [-1.0, -0.5, -0.25, 0.25, 0.5, 1.0]


def zero_group(n, m0, k_max):
    """Bins k <= k_max with k*m0 = 0 mod n: at sample m0 their twiddle
    is exactly 1, so their terms there are their coefficients."""
    step = n // math.gcd(n, m0)
    return list(range(step, k_max + 1, step))


@st.composite
def seam_spectra(draw):
    """A spectrum (full length n, bins 1..k_max set) aimed at the scan's
    seams, with the small constants to scan it under.

    - sparse: random bins at a drawn density, exact zeros elsewhere
    - single: one nonzero bin
    - zero: bins whose twiddles are exactly 1 at a sample m0 next to the
      end of the probe window, with dyadic coefficients that sum to 0,
      so some candidates have an exact zero sample there
    - dip: two bins that nearly cancel at m0 (next to the window's end,
      or n-2, the last interior sample), so the phase swings through a
      near-pi step or slopes down there
    """
    probe, block = draw(st.sampled_from(SMALL_CONSTANTS))
    kind = draw(st.sampled_from(["sparse", "single", "zero", "dip"]))
    sites = [probe - 1, probe, probe + 1]
    if kind == "zero":
        m0 = draw(st.sampled_from(sites))
        n = draw(st.sampled_from([
            n for n in range(max(8, m0 + 2), 65)
            if len(zero_group(n, m0, (n + 1) // 2 - 1)) >= 2] or [64]))
    else:
        n = draw(st.integers(8, 64))
        m0 = draw(st.sampled_from(sites + [n - 2]))
    k_max = (n + 1) // 2 - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = np.zeros(n, dtype=np.complex128)
    keep = rng.random(k_max) < draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    c[1:k_max + 1] = keep * (rng.standard_normal(k_max)
                             + 1j * rng.standard_normal(k_max))
    if kind == "single":
        c[:] = 0.0
        c[draw(st.integers(1, k_max))] = complex(rng.standard_normal(),
                                                 rng.standard_normal())
    elif kind == "zero":
        group = zero_group(n, m0, k_max)
        if draw(st.booleans()):
            c[:] = 0.0
        vals = [complex(draw(st.sampled_from(DYADIC)),
                        draw(st.sampled_from(DYADIC + [0.0])))
                for _ in group[1:]]
        # every partial sum of these is exact, in either scan order
        c[group] = [-sum(vals)] + vals
    elif kind == "dip" and k_max >= 2:
        k1 = draw(st.integers(1, k_max - 1))
        k2 = draw(st.integers(k1 + 1, k_max))
        r = draw(st.sampled_from([1.0, 1.0 - 1e-9, 0.999, 0.9, 0.5, 1.1]))
        a = complex(rng.standard_normal(), rng.standard_normal())
        c[k1] += a
        c[k2] += -r * a * np.exp(2j * np.pi * (k1 - k2) * m0 / n)
    return (probe, block), c


class TestScanSeams:
    @given(seam_spectra(), st.sampled_from([0.0, 1e-3]), st.booleans(),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_scan_matches_fresh_synthesis_at_the_seams(self, case, eps,
                                                       upward, exhaustive):
        (probe, block), c = case
        n = c.size
        sr = np.ascontiguousarray(c.real)
        si = np.ascontiguousarray(c.imag)
        ct, st_ = _kernels.twiddle_tables(n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "PROBE", probe)
            mp.setattr(_kernels, "BLOCK", block)
            # walk a whole partition, so every range the scan meets is
            # compared, not only the first
            lo, hi = 1, (n + 1) // 2 - 1
            while lo <= hi:
                bins = (np.arange(lo, hi + 1) if upward
                        else np.arange(hi, lo - 1, -1))
                got = _kernels.scan_boundary(sr, si, ct, st_, bins, eps,
                                             exhaustive)
                want = scan_direct(sr, si, ct, st_, bins, eps, exhaustive)
                assert got == want, (lo, hi)
                if got == -1:
                    break
                if upward:
                    lo = got + 1
                else:
                    hi = got - 1
