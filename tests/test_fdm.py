import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fdmkit import (
    FdmConfig,
    GeneratorSpec,
    ParameterError,
    ScanDirection,
    SearchMode,
    Signal,
    analytic_band,
    decompose,
    dft,
    generate,
    inst_freq,
    reconstruct,
    unwrap_phase,
)
from fdmkit import _kernels, fdm, siggen
from fdmkit.fdm import _trim_bin_range
from fdmkit.spectral import MAX_VALUES
from numpy._core._multiarray_umath import __cpu_features__
from oracles import (
    admissible_direct,
    band_direct,
    htl_partition_direct,
    lth_partition_direct,
)

TOL = 1e-9


def noise(seed, n, fs=100.0):
    return Signal(np.random.default_rng(seed).standard_normal(n), fs)


def tone(n, k, fs=100.0, amp=1.0, phi=0.0):
    return Signal(amp * np.cos(2 * np.pi * k * np.arange(n) / n + phi), fs)


class TestUnwrapPhase:
    def test_single_bin_band_has_linear_phase(self):
        n, k, phi = 128, 7, 0.3
        z = analytic_band(dft(tone(n, k, phi=phi)), k, k)
        phase = unwrap_phase(z)
        want = phi + 2 * np.pi * k * np.arange(n) / n
        assert np.max(np.abs(phase - want)) < 1e-10

    def test_anchor_stays_in_principal_interval(self):
        n, k = 64, 3
        z = analytic_band(dft(tone(n, k, phi=2.5)), k, k)
        phase = unwrap_phase(z)
        assert -np.pi < phase[0] <= np.pi

    def test_steps_never_exceed_pi(self):
        s = noise(3, 100)
        spec = dft(s)
        z = analytic_band(spec, 5, 20)
        steps = np.diff(unwrap_phase(z))
        assert np.max(np.abs(steps)) <= np.pi + 1e-12

    def test_zero_sample_gets_angle_phase(self):
        z = np.exp(1j * np.linspace(0.0, 3.0, 16))
        z[5] = 0.0
        assert np.array_equal(unwrap_phase(z), np.unwrap(np.angle(z)))

    @pytest.mark.parametrize("signal,config", [
        (noise(0, 1024), FdmConfig(scan="lth", search="max")),
        (noise(1, 1024), FdmConfig(scan="htl", search="first")),
        (generate(GeneratorSpec("linear_chirp", 1024, 100.0)),
         FdmConfig(scan="htl")),
        (noise(2, 1024), FdmConfig(max_fibfs=2)),
    ], ids=["noise_lth_max", "noise_htl_first", "chirp_htl", "merged_tail"])
    def test_decompose_emits_each_band_through_it(self, signal, config):
        res = decompose(signal, config)
        assert res.merged_tail == (config.max_fibfs is not None)
        spec = dft(signal)
        for band in res.fibfs:
            z = analytic_band(spec, *band.partition_range)
            assert np.array_equal(band.phase, unwrap_phase(z))
            assert np.array_equal(band.amplitude, np.abs(z))
            assert np.array_equal(band.fibf, z.real)


class TestInstFreq:
    def test_linear_phase_gives_exact_constant(self):
        fs = 200.0
        slope = 0.11
        phase = slope * np.arange(50)
        f = inst_freq(phase, fs)
        want = slope * fs / (2 * np.pi)
        assert np.max(np.abs(f - want)) < 1e-12

    def test_quadratic_phase_central_difference_is_exact_inside(self):
        c = 1e-3
        n = np.arange(40, dtype=float)
        f = inst_freq(c * n * n, 2 * np.pi)  # fs chosen so Hz == rad/sample
        assert np.max(np.abs(f[1:-1] - 2 * c * n[1:-1])) < 1e-12
        # endpoints fall back to one-sided differences
        assert f[0] == pytest.approx(c, abs=1e-15)
        assert f[-1] == pytest.approx(c * (2 * n[-1] - 1), rel=1e-12)

    def test_needs_three_samples(self):
        with pytest.raises(ParameterError):
            inst_freq(np.array([0.0, 1.0]), 10.0)

    @pytest.mark.parametrize("fs", ["a", True, None, float("nan"), np.inf,
                                    0.0, -5.0])
    def test_rate_is_checked(self, fs):
        with pytest.raises(ParameterError, match="sample rate"):
            inst_freq(np.arange(8.0), fs)

    def test_numpy_rate_gives_the_same_bits(self):
        phase = 0.3 * np.arange(8.0) ** 1.5
        assert np.array_equal(inst_freq(phase, np.float64(12.5)),
                              inst_freq(phase, 12.5))

    def test_two_dimensional_phase_rejected(self):
        with pytest.raises(ParameterError, match="1-D"):
            inst_freq(np.zeros((4, 4)), 10.0)


class TestDecomposeBasics:
    def test_short_signal_rejected(self):
        with pytest.raises(ParameterError, match="too short"):
            decompose(Signal(np.ones(3), 10.0))

    def test_all_zero_signal_yields_empty_result(self):
        for n in (8, 9):
            r = decompose(Signal(np.zeros(n), 10.0))
            assert r.fibfs == ()
            assert r.dc == 0.0
            assert r.reconstruction_error == 0.0
            assert r.n == n
            assert r.nyquist == (0.0 if n % 2 == 0 else None)
            assert np.array_equal(reconstruct(r), np.zeros(n))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            FdmConfig(monotonicity_tolerance=-1e-3)
        with pytest.raises(ParameterError):
            FdmConfig(max_fibfs=0)
        cfg = FdmConfig(scan="htl", search="first")
        assert cfg.scan is ScanDirection.HIGH_TO_LOW
        assert cfg.search is SearchMode.FIRST_VIOLATION

    @pytest.mark.parametrize("exponent", [530, -1000])
    def test_reconstruction_error_survives_extreme_scales(self, exponent):
        # the plain norms overflow to inf at 2^530 (a false 0.0) and
        # underflow to 0 at 2^-1000 (nan); the partition never moves
        x = noise(3, 256)
        base = decompose(x)
        r = decompose(Signal(x.samples * 2.0 ** exponent, x.sample_rate_hz))
        assert [b.partition_range for b in r.fibfs] == \
            [b.partition_range for b in base.fibfs]
        assert 0.0 < r.reconstruction_error < TOL
        assert r.reconstruction_error == pytest.approx(
            base.reconstruction_error, rel=1e-6)

    @given(st.sampled_from(sorted(siggen._GENERATORS)),
           st.sampled_from([64, 255, 300]), st.sampled_from(["lth", "htl"]),
           st.sampled_from(["max", "first"]), st.sampled_from([None, 3]),
           st.integers(-960, 990))
    @settings(max_examples=200, deadline=None)
    def test_scaling_by_a_power_of_two_keeps_the_partition(
            self, kind, n, scan, search, cap, exponent):
        # x * 2^k scales every coefficient, term and sum exactly, so the
        # scan judges the same phases. The range stops short of where
        # np.arctan2 may return other bits for scaled inputs (by 1
        # ulp(pi), from about 2^993 up and for a few below 2^-999) and
        # where twiddle products of the coefficients go subnormal
        x = generate(GeneratorSpec(kind=kind, n=n, sample_rate_hz=128.0,
                                   seed=0))
        config = FdmConfig(scan=scan, search=search, max_fibfs=cap)
        base = decompose(x, config)
        r = decompose(Signal(x.samples * 2.0 ** exponent, x.sample_rate_hz),
                      config)
        assert [b.partition_range for b in r.fibfs] == \
            [b.partition_range for b in base.fibfs]
        assert r.non_monotone == base.non_monotone
        assert r.merged_tail == base.merged_tail
        assert r.reconstruction_error <= TOL

    @pytest.mark.parametrize("cap", [2.5, 3.0, True, "3"])
    def test_max_fibfs_must_be_an_integer(self, cap):
        with pytest.raises(ParameterError, match="integer"):
            FdmConfig(max_fibfs=cap)

    @pytest.mark.parametrize("field,value,valid", [
        ("scan", "bogus", "'lth', 'htl'"),
        ("scan", None, "'lth', 'htl'"),
        ("search", "x", "'max', 'first'"),
    ])
    def test_unknown_scan_or_search_names_the_valid_values(
            self, field, value, valid):
        with pytest.raises(ParameterError, match=f"{field} must be one of "
                           rf"\[{valid}\], got {value!r}"):
            FdmConfig(**{field: value})

    @pytest.mark.parametrize("tol", ["0.1", True, None, 1j])
    def test_tolerance_must_be_a_real_number(self, tol):
        with pytest.raises(ParameterError, match="monotonicity_tolerance"):
            FdmConfig(monotonicity_tolerance=tol)

    @pytest.mark.parametrize("tol", [0, np.float64(1e-9), float("inf")])
    def test_tolerance_takes_any_real_number_at_or_above_zero(self, tol):
        assert FdmConfig(monotonicity_tolerance=tol).monotonicity_tolerance == tol

    def test_max_fibfs_accepts_numpy_integers(self):
        assert FdmConfig(max_fibfs=np.int64(3)).max_fibfs == 3

    def test_pure_tone_is_one_band(self):
        n, k = 256, 13
        r = decompose(tone(n, k))
        assert r.n_fibfs == 1
        band = r.fibfs[0]
        assert band.bin_range == (k, k)
        assert band.partition_range == (1, (n + 1) // 2 - 1)
        assert np.ptp(band.amplitude) < TOL
        f_true = k * 100.0 / n
        assert np.max(np.abs(band.inst_freq_hz[1:-1] - f_true)) < TOL * f_true
        assert r.reconstruction_error < TOL
        assert not r.non_monotone

    def test_two_separated_tones_trim_to_their_bins(self):
        n = 64
        x = tone(n, 4).samples + 0.5 * tone(n, 9).samples
        r = decompose(Signal(x, 64.0))
        assert [b.bin_range for b in r.fibfs] == [(4, 4), (9, 9)]
        ranges = [b.partition_range for b in r.fibfs]
        assert ranges[0][0] == 1 and ranges[-1][1] == 31
        assert ranges[0][1] + 1 == ranges[1][0]

    def test_start_time_and_metadata_carried(self):
        s = Signal(np.sin(np.arange(32)), 50.0, start_time_s=2.5)
        r = decompose(s)
        assert r.start_time_s == 2.5
        assert r.sample_rate_hz == 50.0
        assert r.scan is ScanDirection.LOW_TO_HIGH

    def test_deterministic_rerun(self):
        s = noise(5, 128)
        a = decompose(s)
        b = decompose(s)
        assert [f.partition_range for f in a.fibfs] == \
               [f.partition_range for f in b.fibfs]
        for fa, fb in zip(a.fibfs, b.fibfs):
            assert np.array_equal(fa.fibf, fb.fibf)
            assert np.array_equal(fa.inst_freq_hz, fb.inst_freq_hz)


class TestPartitionInvariants:
    @pytest.mark.parametrize("scan", ["lth", "htl"])
    @pytest.mark.parametrize("seed", range(6))
    def test_cells_tile_positive_bins(self, scan, seed):
        n = 96 + seed  # mix of even and odd lengths
        r = decompose(noise(seed, n), FdmConfig(scan=scan))
        cells = sorted(b.partition_range for b in r.fibfs)
        assert cells[0][0] == 1
        assert cells[-1][1] == (n + 1) // 2 - 1
        for (a_lo, a_hi), (b_lo, b_hi) in zip(cells, cells[1:]):
            assert b_lo == a_hi + 1

    def test_htl_emits_high_bands_first(self):
        r = decompose(noise(2, 128), FdmConfig(scan="htl"))
        ranges = [b.partition_range for b in r.fibfs]
        assert all(a[0] > b[1] for a, b in zip(ranges, ranges[1:]))

    @pytest.mark.parametrize("seed", range(6))
    def test_bands_are_mutually_orthogonal(self, seed):
        r = decompose(noise(seed, 128))
        for i in range(r.n_fibfs):
            for j in range(i + 1, r.n_fibfs):
                yi, yj = r.fibfs[i].fibf, r.fibfs[j].fibf
                bound = TOL * np.linalg.norm(yi) * np.linalg.norm(yj)
                assert abs(np.dot(yi, yj)) <= bound

    @pytest.mark.parametrize("seed", range(6))
    def test_band_energies_add_up(self, seed):
        n = 128
        s = noise(seed, n)
        r = decompose(s)
        total = n * r.dc ** 2 + sum(b.energy() for b in r.fibfs)
        if r.nyquist is not None:
            total += n * r.nyquist ** 2
        assert total == pytest.approx(float(np.dot(s.samples, s.samples)),
                                      rel=1e-11)

    @pytest.mark.parametrize("seed", range(6))
    def test_bands_have_zero_mean(self, seed):
        r = decompose(noise(seed, 128))
        for b in r.fibfs:
            assert abs(b.fibf.mean()) <= TOL * np.max(np.abs(b.fibf))

    @pytest.mark.parametrize("scan", ["lth", "htl"])
    def test_flags_agree_with_fresh_admissibility(self, scan):
        for seed in range(4):
            s = noise(seed + 20, 100)
            r = decompose(s, FdmConfig(scan=scan))
            coeffs = dft(s).coefficients
            flagged = set(r.non_monotone)
            for i, b in enumerate(r.fibfs):
                lo, hi = b.partition_range
                ok = admissible_direct(band_direct(coeffs, lo, hi), 0.0)
                assert ok == (i not in flagged), (seed, i, b.partition_range)


class TestSearchModes:
    def test_exhaustive_bands_are_maximal(self):
        # no admissible extension of any non-final band exists
        for seed in range(3):
            s = noise(seed, 64)
            coeffs = dft(s).coefficients
            k_max = 31
            r = decompose(s, FdmConfig(search="max"))
            for b in r.fibfs[:-1]:
                lo, hi = b.partition_range
                for h in range(hi + 1, k_max + 1):
                    assert not admissible_direct(band_direct(coeffs, lo, h), 0.0)

    def test_first_violation_stops_at_next_inadmissible(self):
        for seed in range(3):
            s = noise(seed, 64)
            coeffs = dft(s).coefficients
            r = decompose(s, FdmConfig(search="first"))
            for i, b in enumerate(r.fibfs[:-1]):
                lo, hi = b.partition_range
                assert not admissible_direct(band_direct(coeffs, lo, hi + 1), 0.0)

    def test_modes_can_disagree(self):
        s = noise(1, 16)
        a = decompose(s, FdmConfig(search="max"))
        b = decompose(s, FdmConfig(search="first"))
        pa = [f.partition_range for f in a.fibfs]
        pb = [f.partition_range for f in b.fibfs]
        assert pa == [(1, 4), (5, 7)]
        assert pb == [(1, 2), (3, 4), (5, 7)]
        assert a.reconstruction_error < TOL and b.reconstruction_error < TOL


def least_over_budget():
    """The shortest record whose maximal scan needs more than
    MAX_VALUES: the probe head's term table, 64 samples of each bin
    k <= n // 2 in real and imaginary parts (about 512 n bytes), 6 n
    for the complex twiddle table and the checks' two transform
    buffers, and the checks' windows: 6 values a sample over the n + 4
    samples they span, and the twiddle indices and terms of the 16 bins
    the leading window of 1,024 samples drops at a time (past 2**18
    samples the long window drops none)."""
    lo, hi = 4, MAX_VALUES
    while lo < hi:
        mid = (lo + hi) // 2
        if (2 * (mid // 2 + 1) * 64 + 6 * mid + 6 * (mid + 4)
                + 3 * 16 * 1024 > MAX_VALUES):
            hi = mid
        else:
            lo = mid + 1
    return lo


class TestScanBudget:
    def test_context_values_at_the_boundary(self):
        n = least_over_budget()
        assert 2**20 < n < 2**21
        assert (_kernels.context_values(n, True) > MAX_VALUES
                >= _kernels.context_values(n - 1, True))
        # the first-violation search builds no probe
        assert _kernels.context_values(n, False) == 6 * n

    @pytest.mark.parametrize("n", [300, 2000, 20011, 300000, 300007])
    def test_windows_are_counted(self, n):
        # every window a record's checks can open, those of a merged
        # tail too; exact where the transform is slow (20011 and 300007
        # have prime factors past 11) or the long window too long to drop
        scan = _kernels.ScanContext(np.ones(n), np.zeros(n),
                                    *_kernels.twiddle_tables(n))
        bins = np.arange(1, n // 2)
        check = _kernels._Check(scan, bins, _kernels.PROBE - 2)
        boundary = [scan.window(0, _kernels.PROBE, 0), *check.windows]
        tail = _kernels._Check(scan, bins, 0).windows

        def held(windows):
            return sum(a.nbytes for w in windows
                       for a in [w.m, w.z, w.idx, w.terms, *w.work]) // 8

        head = 2 * (n // 2 + 1) * 64
        counted = _kernels.context_values(n, True) - 6 * n - head
        merged = _kernels.context_values(n, False, True) - 6 * n
        assert _kernels.context_values(n, True, True) == 6 * n + head + counted + merged
        assert held(boundary) <= counted and held(tail) <= merged
        if scan.fft_error[1] or n > 2**18:
            assert (held(boundary), held(tail)) == (counted, merged)

    def test_over_budget_record_is_refused_before_its_dft(self,
                                                          monkeypatch):
        class Reached(Exception):
            pass

        def dft(signal):
            raise Reached

        monkeypatch.setattr(fdm, "dft", dft)
        n = least_over_budget()
        x = np.ones(n)
        with pytest.raises(Reached):
            decompose(Signal(x[:-1], 100.0))
        with pytest.raises(Reached):
            decompose(Signal(x, 100.0), FdmConfig(search="first"))
        values = _kernels.context_values(n, True)
        with pytest.raises(ParameterError, match=(
                f"scanning {n} samples needs {values} float64 values .*"
                f"budget of {MAX_VALUES}")):
            decompose(Signal(x, 100.0))


class TestMaxFibfs:
    def test_cap_merges_tail_and_flags(self):
        s = noise(7, 256)
        full = decompose(s)
        assert full.n_fibfs > 3
        capped = decompose(s, FdmConfig(max_fibfs=3))
        assert capped.n_fibfs == 3
        assert capped.merged_tail
        assert capped.fibfs[-1].partition_range[1] == 127
        assert capped.fibfs[0].partition_range == full.fibfs[0].partition_range
        assert capped.reconstruction_error < TOL

    def test_cap_of_one_takes_everything(self):
        s = noise(7, 64)
        r = decompose(s, FdmConfig(max_fibfs=1))
        assert r.n_fibfs == 1
        assert r.fibfs[0].partition_range == (1, 31)
        assert r.merged_tail
        assert r.reconstruction_error < TOL

    def test_loose_cap_changes_nothing(self):
        s = noise(7, 128)
        full = decompose(s)
        r = decompose(s, FdmConfig(max_fibfs=full.n_fibfs + 5))
        assert [b.partition_range for b in r.fibfs] == \
               [b.partition_range for b in full.fibfs]
        assert not r.merged_tail

    def test_exact_cap_is_not_a_merge(self):
        s = noise(7, 128)
        full = decompose(s)
        r = decompose(s, FdmConfig(max_fibfs=full.n_fibfs))
        assert [b.partition_range for b in r.fibfs] == \
               [b.partition_range for b in full.fibfs]
        assert not r.merged_tail

    def test_htl_cap_merges_low_end(self):
        s = noise(9, 256)
        r = decompose(s, FdmConfig(scan="htl", max_fibfs=2))
        assert r.n_fibfs == 2
        assert r.merged_tail
        assert r.fibfs[-1].partition_range[0] == 1
        assert r.reconstruction_error < TOL

    # first-violation search, because an exhaustive scan never leaves an
    # admissible tail behind, so only here can the merged flag be True
    # (htl at n=128 gives both values); unit_sample is left out since
    # its |z| ~ 1e-15 makes the kernel and the oracle round differently
    @pytest.mark.parametrize("scan", ["lth", "htl"])
    @pytest.mark.parametrize("n", [128, 300])
    def test_every_cap_matches_the_oracle_prefix(self, n, scan, monkeypatch):
        match_every_cap(n, scan, "first", monkeypatch)

    # the maximal search judges the merged tail the same way, upward
    # too, where the scan itself has just found [lo, hi] inadmissible
    @pytest.mark.parametrize("scan", ["lth", "htl"])
    @pytest.mark.parametrize("n", [128, 300])
    def test_every_max_cap_matches_the_oracle_prefix(self, n, scan,
                                                     monkeypatch):
        match_every_cap(n, scan, "max", monkeypatch)


def match_every_cap(n, scan, search, monkeypatch):
    """Every cap of an ``intermittent_tone`` decomposition keeps the
    oracle's leading cells and merges the rest into one band, judged
    once with its bins summed in ascending order."""
    from fdmkit import _kernels
    calls = []
    real = _kernels.band_admissible

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_kernels, "band_admissible", spy)
    s = generate(GeneratorSpec("intermittent_tone", n, 100.0))
    c = dft(s).coefficients
    oracle = lth_partition_direct if scan == "lth" else htl_partition_direct
    full = oracle(c, 0.0, exhaustive=search == "max")
    k_max = (n + 1) // 2 - 1
    for cap in range(1, len(full) + 1):
        calls.clear()
        r = decompose(s, FdmConfig(scan=scan, search=search, max_fibfs=cap))
        cells = [b.partition_range for b in r.fibfs]
        assert r.n_fibfs == cap
        assert cells[:-1] == [(lo, hi) for lo, hi, _ in full[:cap - 1]]
        assert len(calls) == int(r.merged_tail), cap
        if cap == len(full):
            assert not r.merged_tail
            assert cells[-1] == full[-1][:2]
            continue
        assert r.merged_tail
        lo, hi = full[cap - 1][:2]
        assert cells[-1] == ((lo, k_max) if scan == "lth" else (1, hi))
        mono = cap - 1 not in r.non_monotone
        assert mono == admissible_direct(band_direct(c, *cells[-1]), 0.0), cap


class TestImpulse:
    def test_tolerance_keeps_impulse_in_one_band(self):
        x = np.zeros(400)
        x[199] = 1.0
        r = decompose(Signal(x, 100.0), FdmConfig(monotonicity_tolerance=1e-9))
        assert [b.partition_range for b in r.fibfs] == [(1, 199)]
        assert r.reconstruction_error < TOL
        assert not r.non_monotone

    def test_zero_tolerance_still_tiles_and_reconstructs(self):
        x = np.zeros(400)
        x[199] = 1.0
        r = decompose(Signal(x, 100.0))
        cells = sorted(b.partition_range for b in r.fibfs)
        assert cells[0][0] == 1 and cells[-1][1] == 199
        assert r.reconstruction_error < TOL


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_partitions_match_fresh_synthesis_oracle(self, seed):
        from oracles import htl_partition_direct, lth_partition_direct
        s = noise(seed, 48)
        coeffs = dft(s).coefficients
        got = [b.partition_range for b in decompose(s).fibfs]
        want = [c[:2] for c in lth_partition_direct(coeffs)]
        assert got == want
        got = [b.partition_range
               for b in decompose(s, FdmConfig(scan="htl")).fibfs]
        want = [c[:2] for c in htl_partition_direct(coeffs)]
        assert got == want


class TestTrimming:
    def test_trim_drops_empty_edge_bins(self):
        c = np.zeros(32, dtype=complex)
        c[5] = 1.0
        c[27] = 1.0
        assert _trim_bin_range(c, 1, 15, 15) == (5, 5)

    def test_trim_keeps_cell_when_all_bins_empty(self):
        c = np.zeros(32, dtype=complex)
        c[5] = 1.0
        c[27] = 1.0
        assert _trim_bin_range(c, 7, 12, 15) == (7, 12)

    def test_trim_is_relative_to_peak(self):
        c = np.zeros(32, dtype=complex)
        c[5] = 1.0
        c[6] = 1e-15  # below 1e-12 of peak: trimmed
        c[8] = 1e-9   # above: kept
        assert _trim_bin_range(c, 4, 8, 15) == (5, 8)
        assert _trim_bin_range(c, 5, 7, 15) == (5, 5)
        c[6] = 1e-9
        assert _trim_bin_range(c, 5, 7, 15) == (5, 6)


@st.composite
def small_signals(draw):
    n = draw(st.integers(8, 40))
    arr = draw(hnp.arrays(np.float64, n,
                          elements=st.floats(-100, 100, allow_nan=False)))
    # keep the signal clearly nonzero so relative error is meaningful
    if np.max(np.abs(arr)) < 1e-3:
        arr = arr + np.sin(np.arange(n))
    return Signal(arr, 64.0)


class TestPropertyReconstruction:
    @given(small_signals(), st.sampled_from(["lth", "htl"]),
           st.sampled_from(["max", "first"]))
    @settings(max_examples=60, deadline=None)
    def test_any_signal_tiles_and_reconstructs(self, s, scan, search):
        r = decompose(s, FdmConfig(scan=scan, search=search))
        cells = sorted(b.partition_range for b in r.fibfs)
        assert cells[0][0] == 1
        assert cells[-1][1] == (s.n + 1) // 2 - 1
        for (a_lo, a_hi), (b_lo, b_hi) in zip(cells, cells[1:]):
            assert b_lo == a_hi + 1
        rec = reconstruct(r)
        assert np.max(np.abs(rec - s.samples)) <= TOL * max(
            1.0, np.max(np.abs(s.samples)))


SUMS_OF_SQUARES = """
import numpy as np
from fdmkit import FdmConfig, Signal, decompose
x = np.random.default_rng(0).standard_normal(16384)
r = decompose(Signal(x, 1.0), FdmConfig(max_fibfs=1))
print(r.reconstruction_error.hex(), *(b.energy().hex() for b in r.fibfs))
"""


def test_sums_of_squares_do_not_depend_on_blas_threads_or_simd():
    """The reconstruction error and band energies are numpy's pairwise
    sums: a threaded BLAS dot splits its sum by thread count, and on
    this record gives a merged band energy one ulp apart."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    envs = [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}]
    if __cpu_features__.get("X86_V4"):
        envs.append({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"})
    outputs = set()
    for extra in envs:
        env = dict(os.environ, PYTHONPATH=src, **extra)
        done = subprocess.run([sys.executable, "-c", SUMS_OF_SQUARES], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        outputs.add(done.stdout)
    assert len(outputs) == 1, outputs
