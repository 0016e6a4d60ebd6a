import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
    return _kernels.band_admissible(_kernels.ScanContext(sr, si, ct, st_),
                                    lo, hi, eps)


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


# (PROBE, HEAD, BLOCK) small enough that records of n <= 64 cross every
# probe window, head and block seam; odd heads and probes give the tail
# panel odd widths
SMALL_CONSTANTS = [(16, 6, 5), (4, 3, 1), (8, 5, 3), (32, 10, 7)]
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
      end of the probe's head or of its window, with dyadic
      coefficients that sum to 0, so some candidates have an exact zero
      sample there
    - dip: two bins that nearly cancel at m0 (next to the head's or the
      window's end, or n-2, the last interior sample), so the phase
      swings through a near-pi step or slopes down there
    """
    probe, head, block = draw(st.sampled_from(SMALL_CONSTANTS))
    kind = draw(st.sampled_from(["sparse", "single", "zero", "dip"]))
    sites = [head - 2, head - 1, head, probe - 1, probe, probe + 1]
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
    return (probe, head, block), c


class TestScanSeams:
    @given(seam_spectra(), st.sampled_from([0.0, 1e-3]), st.booleans(),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_scan_matches_fresh_synthesis_at_the_seams(self, case, eps,
                                                       upward, exhaustive):
        self.walk(case, eps, upward, exhaustive)

    @staticmethod
    def walk(case, eps, upward, exhaustive):
        (probe, head, block), c = case
        n = c.size
        sr = np.ascontiguousarray(c.real)
        si = np.ascontiguousarray(c.imag)
        ct, st_ = _kernels.twiddle_tables(n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "PROBE", probe)
            mp.setattr(_kernels, "HEAD", head)
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


def panel_spectrum(n, step):
    """Coefficients with signed zeros, infinities and a nan, so that a
    panel's sums hold every kind of float64 value. A scan of bins 1..14
    in ``step`` order meets the same coefficients in the same order."""
    rng = np.random.default_rng(7)
    sr = rng.choice([0.0, -0.0], n)
    si = rng.choice([0.0, -0.0], n)
    sr[8:] += rng.standard_normal(n - 8)
    sr[[6, 10]] = np.inf, np.nan
    si[[7, 11]] = -np.inf, np.inf
    sr[1:15], si[1:15] = sr[1:15][::step].copy(), si[1:15][::step].copy()
    return sr, si, *_kernels.twiddle_tables(n)


def blocks_of(bins, size=4):
    return [bins[start:start + size] for start in range(0, bins.size, size)]


PANEL_CASES = [
    pytest.param(lo, hi, step, id=f"{lo}-{hi}" + ("-descending" if step < 0
                                                  else ""))
    for step in (1, -1) for lo, hi in [(0, 6), (4, 16), (0, 7), (3, 16)]]


class TestProbePanels:
    @pytest.mark.parametrize("lo, hi, step", PANEL_CASES)
    def test_pair_sums_match_per_part_cumsums(self, lo, hi, step,
                                              monkeypatch):
        # the complex128 view adds each part on its own, so a panel's
        # sums are the per-part cumsums bit for bit: signed zeros,
        # infinities and nans included, and odd widths, which pad a
        # sample, too. The head (lo = 0) copies its terms from the
        # record's table, a reversed slice of it for descending bins
        monkeypatch.setattr(_kernels, "BLOCK", 4)
        n = 32
        sr, si, ct, st_ = panel_spectrum(n, step)
        bins = np.arange(1, 15)[::step]
        m = np.arange(lo, hi)
        zr, zi = np.full(m.size, -0.0), np.full(m.size, -0.0)
        seen = []
        with np.errstate(invalid="ignore"):
            panel = _kernels.ScanContext(sr, si, ct, st_).panel(step, lo, hi)
            assert (panel.terms is None) == (lo > 0)
            # a carry of -0.0, so that sums of signed zeros keep either
            # sign
            panel.rows[:, 0] = -0.0
            # blocks of 4, 4, 4 and 2, each chained onto the last
            for ks in blocks_of(bins):
                panel.add(ks)
                idx = (ks[:, None] * m) % n
                re = sr[ks, None] * ct[idx] - si[ks, None] * st_[idx]
                im = sr[ks, None] * st_[idx] + si[ks, None] * ct[idx]
                want_r = np.cumsum(np.vstack([zr, re]), axis=0)[1:]
                want_i = np.cumsum(np.vstack([zi, im]), axis=0)[1:]
                got_r, got_i = panel.rows[:, 1:ks.size + 1, :m.size]
                assert got_r.tobytes() == want_r.tobytes()
                assert got_i.tobytes() == want_i.tobytes()
                zr, zi = want_r[-1], want_i[-1]
                seen += [want_r, want_i]
        sums = np.concatenate(seen, axis=None)
        zeros = sums[sums == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        assert np.isinf(sums).any() and np.isnan(sums).any()

    @pytest.mark.parametrize("lo, hi, step", PANEL_CASES)
    def test_reused_panel_sums_as_a_fresh_one(self, lo, hi, step,
                                              monkeypatch):
        # a record's bands share its panels: the next band's starts from
        # a +0.0 carry, not from the nan the last band left, and sums
        # what a panel of a fresh context sums, bit for bit
        monkeypatch.setattr(_kernels, "BLOCK", 4)
        sr, si, ct, st_ = panel_spectrum(32, step)
        first, second = ((np.arange(1, 15), np.arange(5, 15)) if step > 0
                         else (np.arange(14, 0, -1), np.arange(10, 0, -1)))
        scan = _kernels.ScanContext(sr, si, ct, st_)
        with np.errstate(invalid="ignore"):
            panel = scan.panel(step, lo, hi)
            for ks in blocks_of(first):
                panel.add(ks)
            assert np.isnan(panel.rows[:, 0]).any()
            assert scan.panel(step, lo, hi) is panel
            carry = panel.rows[:, 0]
            assert (carry == 0.0).all() and not np.signbit(carry).any()
            fresh = _kernels.ScanContext(sr, si, ct, st_).panel(step, lo, hi)
            for ks in blocks_of(second):
                panel.add(ks)
                fresh.add(ks)
                assert panel.rows.tobytes() == fresh.rows.tobytes()

    def test_noise_builds_fewer_tails_than_heads(self, monkeypatch):
        # most probe blocks of white noise have no candidate that passes
        # the head, and those after a band's last one never build a tail
        from fdmkit import FdmConfig, Signal, decompose
        adds = counting(monkeypatch, _kernels._Panel, "add")
        x = np.random.default_rng(0).standard_normal(4096)
        decompose(Signal(samples=x, sample_rate_hz=1.0),
                  FdmConfig(scan="lth", search="max"))
        heads = sum(panel.m[0] == 0 for panel, _ in adds)
        tails = len(adds) - heads
        assert 0 < tails < heads


def sequential_sums(sr, si, ct, st_, bins, count):
    """The scan's sums at every sample for the first ``count`` of
    ``bins``, yielded by ``_tail``: each bin's term added in order."""
    sums = _kernels._tail(sr, si, ct, st_, bins, np.arange(sr.shape[0]))
    for _ in range(count):
        zr, zi = next(sums)
    return zr, zi


def spread_spectrum(seed, n):
    """Noise coefficients with magnitudes spread over six decades, so
    that sum |c_k| and ||c||_2 part ways."""
    rng = np.random.default_rng(seed)
    c = np.fft.fft(rng.standard_normal(n), norm="forward")
    c *= 10.0 ** rng.uniform(-6.0, 0.0, n)
    return np.ascontiguousarray(c.real), np.ascontiguousarray(c.imag), c


class TestCertifiedChecks:
    """The bound behind the certified full checks, and the exact
    fallback that takes over where it settles nothing."""

    # a power of two, mixed radix, a length with pocketfft's generic
    # passes (23 and 29), and a prime that pocketfft sends to Bluestein
    @pytest.mark.parametrize("n", [4096, 4000, 4002, 4099])
    @pytest.mark.parametrize("make", [spectrum_of, spread_spectrum],
                             ids=["noise", "spread"])
    def test_delta_bounds_sequential_minus_transformed(self, n, make):
        sr, si, c = make(n, n)
        ct, st_ = _kernels.twiddle_tables(n)
        k_max = (n + 1) // 2 - 1
        for bins in (np.arange(n // 9, k_max + 1), np.arange(k_max, 0, -1)):
            scan = _kernels.ScanContext(sr, si, ct, st_)
            check = _kernels._Check(scan, bins, 0)
            for count in (1, 7, bins.size // 2, bins.size):
                zr, zi = sequential_sums(sr, si, ct, st_, bins, count)
                band = np.zeros(n, dtype=np.complex128)
                band[bins[:count]] = c[bins[:count]]
                zf = np.fft.ifft(band, norm="forward")
                gap = np.hypot(zr - zf.real, zi - zf.imag).max()
                delta = check.dseq[count - 1] + check.dfft[count - 1]
                assert gap <= delta, (count, gap, delta)

    def test_routes_of_the_named_lengths(self):
        # whether the transform may take a slow route: a generic pass
        # for a prime factor past 11, or Bluestein's algorithm
        slow = {n: _kernels._ifft_error(n)[1]
                for n in (64, 4000, 4096, 16384, 13, 169, 4002, 4097, 4099)}
        assert slow == {64: False, 4000: False, 4096: False, 16384: False,
                        13: True, 169: True, 4002: True, 4097: True,
                        4099: True}

    def test_no_length_is_left_uncovered(self):
        # every length has a bound, the generic passes and Bluestein's
        # route included, so no record falls back to exact sums at
        # every sample of every check
        for n in range(3, 4200):
            theta, _ = _kernels._ifft_error(n)
            assert 0.0 < theta < 1e-9, n

    @pytest.mark.parametrize("n", [1031, 1024])
    def test_window_drops_stay_within_their_bound(self, n, monkeypatch):
        # 1031 is prime: past the leading window it drops bins too
        monkeypatch.setattr(_kernels, "WINDOW", 300)
        sr, si, c = spread_spectrum(3, n)
        ct, st_ = _kernels.twiddle_tables(n)
        bins = np.arange((n + 1) // 2 - 1, 0, -1)
        check = _kernels._Check(_kernels.ScanContext(sr, si, ct, st_), bins,
                                254)
        pos = bins.size - 1
        check._transform(pos)
        ms = np.arange(n)
        for d in [1, 2, 3, 16, 1, 5] * 4:
            pos -= d
            for w in check.windows:
                if not w.reaches(pos):
                    continue
                w.drop(check, pos)
                zr, zi = _kernels._exact_sums(sr, si, ct, st_,
                                              bins[:pos + 1], ms[w.m])
                gap = np.hypot(zr - w.z.real, zi - w.z.imag).max()
                assert gap <= check.dseq[pos] + w.delta, (pos, w.lo)
        head, rest = check.windows
        assert head.count == pos + 1
        # past the window, only the prime length drops
        assert (rest.count == pos + 1) == (n == 1031)

    @pytest.mark.parametrize("n", [64, 300, 1031])
    def test_exact_sums_have_the_tail_bits(self, n):
        rng = np.random.default_rng(n)
        k_max = (n + 1) // 2 - 1
        c = np.zeros(n, dtype=np.complex128)
        c.real[1:k_max + 1] = rng.standard_normal(k_max)
        c.imag[1:k_max + 1] = rng.standard_normal(k_max)
        # signed zeros in the leading bins: a first term of -0.0 starts
        # the tail's sums at +0.0 + -0.0 = +0.0, not at -0.0
        lead = min(8, k_max)
        c.real[1:lead] = -0.0
        c.imag[1:lead] = rng.choice([0.0, -0.0], lead - 1)
        sr, si = np.ascontiguousarray(c.real), np.ascontiguousarray(c.imag)
        ct, st_ = _kernels.twiddle_tables(n)
        # every sample, the samples a probe leaves to a full check, and
        # a run from the middle of the record
        sample_sets = [np.arange(n), np.arange(_kernels.PROBE - 2, n),
                       np.arange(n // 3, 2 * n // 3)]
        for bins in (np.arange(1, k_max + 1), np.arange(k_max, 0, -1)):
            for count in (1, lead - 1, lead + 3, bins.size):
                want = sequential_sums(sr, si, ct, st_, bins, count)
                for ms in sample_sets:
                    got = _kernels._exact_sums(sr, si, ct, st_, bins[:count],
                                               ms)
                    for g, w in zip(got, want):
                        assert g.tobytes() == w[ms].tobytes(), (count, ms[:1])

    def test_all_signed_zero_band_has_zero_sums(self):
        # every term a signed zero: the tail's sums are +0.0 throughout
        n = 32
        sr = np.full(n, -0.0)
        si = np.zeros(n)
        ct, st_ = _kernels.twiddle_tables(n)
        bins = np.arange(1, 9)
        zr, zi = _kernels._exact_sums(sr, si, ct, st_, bins, np.arange(n))
        want = sequential_sums(sr, si, ct, st_, bins, bins.size)
        assert zr.tobytes() == want[0].tobytes()
        assert zi.tobytes() == want[1].tobytes()
        assert not np.signbit(zr).any()
        assert not band_admissible(sr, si, ct, st_, 1, 8, 0.0)

    def test_certain_fail_past_the_least_slope_goes_to_exact_sums(self):
        # the least slope sits at a sample of |z| = 1e-20, too small to
        # certify, so the window is left open, the certain fail at
        # sample 40 included, for the exact sums to settle
        steps = np.full(63, 0.1)
        steps[19] = -1.0
        steps[39] = -0.3
        mags = np.ones(64)
        mags[20] = 1e-20
        z = mags * np.exp(1j * np.concatenate(([0.0], np.cumsum(steps))))
        w = _kernels._Window(0, 64, 0)
        w.z[:] = z
        assert w.judge(0.0, 1e-16) is None

    @pytest.mark.parametrize("n", [53, 61, 97, 106, 64])
    def test_slow_routes_track_the_sequential_reference(self, n,
                                                        monkeypatch):
        # small constants, so that these short records take full checks
        # on every window and drop bins from both
        for name, value in (("PROBE", 8), ("HEAD", 5), ("BLOCK", 3),
                            ("WINDOW", 12), ("DROPS", 2)):
            monkeypatch.setattr(_kernels, name, value)
        ct, st_ = _kernels.twiddle_tables(n)
        k_max = (n + 1) // 2 - 1
        for seed in range(3):
            sr, si, c = spectrum_of(seed, n)
            for bins in (np.arange(1, k_max + 1), np.arange(k_max, 0, -1)):
                for eps in (0.0, 1e-3):
                    got = _kernels.scan_boundary(sr, si, ct, st_, bins, eps,
                                                 True)
                    assert got == scan_direct(sr, si, ct, st_, bins, eps,
                                              True)


def counting(monkeypatch, owner, name):
    """Count the calls of ``owner.name``; returns the list of calls."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


class TestCheckPaths:
    """Which path a scan takes, seen through spies."""

    def test_chirp_max_makes_one_full_check_and_builds_no_tail(
            self, monkeypatch):
        from fdmkit import FdmConfig, GeneratorSpec, decompose, generate
        checks = counting(monkeypatch, _kernels._Check, "__call__")
        tails = counting(monkeypatch, _kernels, "_tail")
        signal = generate(GeneratorSpec(kind="linear_chirp", n=16384,
                                        sample_rate_hz=100))
        result = decompose(signal, FdmConfig(scan="htl", search="max"))
        assert result.n_fibfs == 1
        assert len(checks) == 1
        assert tails == []

    def test_first_violation_keeps_the_tail(self, monkeypatch):
        checks = counting(monkeypatch, _kernels._Check, "__call__")
        tails = counting(monkeypatch, _kernels, "_tail")
        sr, si, _ = spectrum_of(0, 600)
        ct, st_ = _kernels.twiddle_tables(600)
        _kernels.scan_boundary(sr, si, ct, st_, np.arange(1, 300), 0.0, False)
        assert checks == []
        assert len(tails) == 1

    def test_first_violation_judges_every_sample_once_per_candidate(
            self, monkeypatch):
        # past PROBE samples, so a probe would judge shorter rows
        from fdmkit import GeneratorSpec, generate
        from fdmkit.spectral import dft_coefficients
        n = 1024
        assert n > _kernels.PROBE
        c = dft_coefficients(generate(GeneratorSpec(
            kind="unit_sample", n=n, sample_rate_hz=100)).samples)
        sr, si = np.ascontiguousarray(c.real), np.ascontiguousarray(c.imag)
        ct, st_ = _kernels.twiddle_tables(n)
        rows = counting(monkeypatch, _kernels, "_admissible_rows")
        lo, hi = 1, (n + 1) // 2 - 1
        while lo <= hi:
            bins = np.arange(lo, hi + 1)
            rows.clear()
            edge = _kernels.scan_boundary(sr, si, ct, st_, bins, 0.0, False)
            assert edge != -1
            # candidates up to the edge, and the one that failed after it
            tried = min(edge - lo + 2, bins.size)
            assert [args[0].shape for args in rows] == [(n,)] * tried
            lo = edge + 1

    def test_first_violation_leaves_zero_bins_unjudged(self, monkeypatch):
        # candidates of exactly zero coefficients sum to zero samples
        sr, si, _ = spectrum_of(0, 600)
        ct, st_ = _kernels.twiddle_tables(600)
        sr[1:200] = 0.0
        si[1:200] = -0.0
        bins = np.arange(1, 300)
        want = scan_direct(sr, si, ct, st_, bins, 0.0, False)
        rows = counting(monkeypatch, _kernels, "_admissible_rows")
        edge = _kernels.scan_boundary(sr, si, ct, st_, bins, 0.0, False)
        assert edge == want
        assert len(rows) == min(edge - 200 + 2, 100)
        rows.clear()
        assert _kernels.scan_boundary(sr, si, ct, st_, bins[:199], 0.0,
                                      False) == -1
        assert rows == []

    def test_per_sample_allowances_judge_whole_windows(self, monkeypatch):
        # a window the certificates leave open is summed exactly at
        # every one of its samples, failing checks included
        from fdmkit import FdmConfig, GeneratorSpec, decompose, generate
        calls = counting(monkeypatch, _kernels, "_exact_sums")
        n = 1000
        signal = generate(GeneratorSpec(kind="unit_sample", n=n,
                                        sample_rate_hz=100))
        decompose(signal, FdmConfig(scan="lth", search="max"))
        # one leading window, from the probe's last two samples on
        assert calls
        for *_, ms in calls:
            assert ms.tolist() == list(range(_kernels.PROBE - 2, n))

    @pytest.mark.parametrize("kind, n, scan", [
        ("linear_chirp", 16384, "htl"), ("fm_sinusoid", 4099, "lth")])
    def test_single_band_records_build_no_probe_block(self, kind, n, scan,
                                                      monkeypatch):
        # the top check passes on every sample, and that settles the band
        from fdmkit import FdmConfig, GeneratorSpec, decompose, generate
        rows = counting(monkeypatch, _kernels, "_admissible_rows")
        signal = generate(GeneratorSpec(kind=kind, n=n, sample_rate_hz=100))
        result = decompose(signal, FdmConfig(scan=scan, search="max"))
        assert result.n_fibfs == 1
        assert [args[0].shape for args in rows if args[0].ndim == 2] == []

    def test_top_check_caps_its_exact_sums(self, monkeypatch):
        # the whole-band |z_f| of a unit sample sits under 2 delta almost
        # everywhere: the top check leaves its verdict open rather than
        # rebuild the sums at thousands of samples
        from fdmkit import FdmConfig, GeneratorSpec, decompose, generate
        inside, verdicts, sums = [], [], []
        real_whole = _kernels._Check.whole
        real_sums = _kernels._exact_sums

        def whole(self, pos, *args):
            inside.append(pos)
            verdicts.append(real_whole(self, pos, *args))
            inside.pop()
            return verdicts[-1]

        def spy(sr, si, ct, st_, ks, ms):
            if inside:
                sums.append(ms.size)
            return real_sums(sr, si, ct, st_, ks, ms)

        monkeypatch.setattr(_kernels._Check, "whole", whole)
        monkeypatch.setattr(_kernels, "_exact_sums", spy)
        signal = generate(GeneratorSpec(kind="unit_sample", n=8192,
                                        sample_rate_hz=100))
        result = decompose(signal, FdmConfig(scan="lth", search="max"))
        assert [b.partition_range for b in result.fibfs] == [
            (1, 1), (2, 2), (3, 4095)]
        assert result.non_monotone == () and not result.merged_tail
        assert None in verdicts
        assert sums == []

    def test_capped_tail_sums_one_window(self, monkeypatch):
        # the merged tail of a capped unit sample: its leading window is
        # left open and fails on its exact sums, which settles the check
        from fdmkit import GeneratorSpec, generate
        from fdmkit.spectral import dft_coefficients
        n = 8192
        c = dft_coefficients(generate(GeneratorSpec(
            kind="unit_sample", n=n, sample_rate_hz=100)).samples)
        sr, si = np.ascontiguousarray(c.real), np.ascontiguousarray(c.imag)
        ct, st_ = _kernels.twiddle_tables(n)
        calls = counting(monkeypatch, _kernels, "_exact_sums")
        assert not band_admissible(sr, si, ct, st_, 1, 4095, 0.0)
        assert len(calls) == 1
        assert calls[0][-1].tolist() == list(range(_kernels.WINDOW))

    def test_exact_fallback_runs_on_exact_zero_slope(self, monkeypatch):
        calls = counting(monkeypatch, _kernels, "_exact_sums")
        TestAdmissibility().test_exact_zero_slope_matches_oracle()
        assert calls

    def test_exact_fallback_runs_on_seam_spectra(self, monkeypatch):
        calls = counting(monkeypatch, _kernels, "_exact_sums")

        @given(seam_spectra(), st.sampled_from([0.0, 1e-3]), st.booleans())
        @settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)
        def scan(case, eps, upward):
            TestScanSeams.walk(case, eps, upward, True)

        scan()
        assert calls


def walk_on_one_context(c, scan, eps, neighbours=False):
    """The maximal partition of the record of coefficients ``c``, its
    bands scanned through one shared context, as ``decompose`` scans
    them. Each band's edge must equal that of a fresh ``scan_boundary``
    on the band's bins. With ``neighbours``, so must the edge of the
    band one bin over, scanned next on the same context: it has as many
    candidates, so its checks judge the very positions the band's did.
    Returns the cells in extraction order."""
    n = c.size
    sr, si = np.ascontiguousarray(c.real), np.ascontiguousarray(c.imag)
    ct, st_ = _kernels.twiddle_tables(n)
    shared = _kernels.ScanContext(sr, si, ct, st_)
    cells = []
    k_max = (n + 1) // 2 - 1
    lo, hi = 1, k_max
    while lo <= hi:
        bins = (np.arange(lo, hi + 1) if scan == "lth"
                else np.arange(hi, lo - 1, -1))
        edge = shared.boundary(bins, eps, True)
        assert edge == _kernels.scan_boundary(sr, si, ct, st_, bins, eps,
                                              True), (lo, hi)
        other = bins - 1 if lo > 1 else bins + 1
        if neighbours and other.max() <= k_max:
            assert (shared.boundary(other, eps, True)
                    == _kernels.scan_boundary(sr, si, ct, st_, other, eps,
                                              True)), (lo, hi)
        if edge == -1:
            cells.append([lo, hi])
            break
        if scan == "lth":
            cells.append([lo, edge])
            lo = edge + 1
        else:
            cells.append([edge, hi])
            hi = edge - 1
    return cells


# a child process decomposes one record alone and prints its digest
DIGEST = """
import hashlib, sys
import numpy as np
from fdmkit import FdmConfig, Signal, decompose

def digest(seed, scan):
    x = np.random.default_rng(seed).standard_normal(4096)
    r = decompose(Signal(x, 100.0), FdmConfig(scan=scan, search="max"))
    h = hashlib.sha256(repr([b.partition_range for b in r.fibfs]).encode())
    for b in r.fibfs:
        h.update(b.phase.tobytes())
        h.update(b.fibf.tobytes())
    return h.hexdigest()

if __name__ == "__main__":
    print(digest(int(sys.argv[1]), sys.argv[2]))
"""


class TestScanContext:
    """A record's bands share one scan context; no band may see
    another's state, and no record another record's."""

    @pytest.mark.parametrize("scan", ["lth", "htl"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_noise_bands_match_fresh_scans(self, seed, scan):
        _, _, c = spectrum_of(seed, 4096)
        assert len(walk_on_one_context(c, scan, 0.0)) > 10

    def test_golden_rows_match_fresh_scans_at_small_constants(
            self, monkeypatch):
        # the probe's panels and the checks' windows, with drops, on
        # every short golden record, as in test_golden
        from make_golden import FIXTURE, SAMPLE_RATE_HZ
        from fdmkit import GeneratorSpec, generate
        from fdmkit.spectral import dft_coefficients
        for name, value in (("PROBE", 16), ("HEAD", 5), ("BLOCK", 5),
                            ("WINDOW", 40), ("DROPS", 3)):
            monkeypatch.setattr(_kernels, name, value)
        rows = [r for r in json.loads(FIXTURE.read_text())
                if r["search"] == "max" and r["n"] <= 256]
        assert len(rows) == 156
        for r in rows:
            c = dft_coefficients(generate(GeneratorSpec(
                kind=r["kind"], n=r["n"], sample_rate_hz=SAMPLE_RATE_HZ,
                seed=r["seed"])).samples)
            cells = walk_on_one_context(c, r["scan"], r["tol"],
                                        neighbours=r["tol"] == 0.0)
            assert cells == r["partition_ranges"], r

    def test_a_record_decomposes_as_it_does_alone(self):
        # record B after record A of the same length in one process,
        # against B in a process of its own
        here = {"__name__": "digest"}
        exec(DIGEST, here)
        here["digest"](0, "lth")
        after_a = here["digest"](1, "lth")
        src = Path(_kernels.__file__).parents[1]
        alone = subprocess.run(
            [sys.executable, "-c", DIGEST, "1", "lth"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, timeout=300)
        assert alone.returncode == 0, alone.stderr[-2000:]
        assert alone.stdout.strip() == after_a
