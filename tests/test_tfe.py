import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdmkit.tfe
from fdmkit import (
    Afibf,
    DecompositionResult,
    FdmConfig,
    ParameterError,
    ScanDirection,
    Signal,
    TfePoints,
    decompose,
    fhs,
    instantaneous_energy,
    marginal_spectrum,
    rasterize,
)


def two_tone_result(n=256, fs=128.0, k1=16, k2=40, a2=0.5):
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * k1 * fs / n * t) + a2 * np.sin(2 * np.pi * k2 * fs / n * t)
    return decompose(Signal(x, fs))


def synthetic_result(inst_freq_rows, amp_rows, fs=10.0):
    """Hand-built decomposition result for exercising edge handling."""
    n = len(inst_freq_rows[0])
    fibfs = []
    for f, a in zip(inst_freq_rows, amp_rows):
        f = np.asarray(f, dtype=float)
        a = np.asarray(a, dtype=float)
        fibfs.append(Afibf(
            bin_range=(1, 1), partition_range=(1, 1),
            amplitude=a, phase=np.zeros(n), inst_freq_hz=f,
            fibf=a.copy(),
        ))
    return DecompositionResult(
        dc=0.0, nyquist=None, fibfs=tuple(fibfs),
        scan=ScanDirection.LOW_TO_HIGH, reconstruction_error=0.0,
        sample_rate_hz=fs, n=n,
    )


class TestFhs:
    def test_point_count_and_band_major_order(self):
        r = two_tone_result()
        pts = fhs(r)
        assert pts.n_points == r.n_fibfs * r.n
        assert np.array_equal(pts.fibf_index[:r.n], np.zeros(r.n, dtype=int))
        assert np.array_equal(np.unique(pts.fibf_index), np.arange(r.n_fibfs))
        # times repeat per band
        assert np.array_equal(pts.times_s[:r.n], pts.times_s[r.n:2 * r.n])

    def test_times_are_the_signal_times_bit_for_bit(self):
        # cmd_tfe bins the points' times onto signal.times(), so the two
        # must agree to the last bit, here at an offset and a rate whose
        # times are inexact
        s = Signal(np.random.default_rng(0).standard_normal(300), 3.0,
                   start_time_s=0.1)
        r = decompose(s)
        assert r.n_fibfs > 1
        assert fhs(r).times_s[:r.n].tobytes() == s.times().tobytes()

    def test_values_copy_band_fields(self):
        r = two_tone_result()
        pts = fhs(r)
        assert np.array_equal(pts.amplitudes[:r.n], r.fibfs[0].amplitude)
        assert np.array_equal(pts.freqs_hz[:r.n], r.fibfs[0].inst_freq_hz)

    def test_negative_frequencies_clamped_and_counted(self):
        r = synthetic_result(
            inst_freq_rows=[[1.0, -0.5, 2.0, -0.1], [3.0, 3.0, 3.0, 3.0]],
            amp_rows=[[1.0] * 4, [2.0] * 4],
        )
        pts = fhs(r)
        assert pts.clamped_negative == 2
        assert np.min(pts.freqs_hz) == 0.0
        assert np.count_nonzero(pts.freqs_hz == 0.0) == 2

    def test_empty_result_gives_empty_points(self):
        r = decompose(Signal(np.zeros(16), 10.0))
        pts = fhs(r)
        assert pts.n_points == 0
        assert pts.clamped_negative == 0
        assert [a.dtype for a in (pts.times_s, pts.freqs_hz, pts.amplitudes,
                                  pts.fibf_index)] == [np.float64] * 3 + [np.int64]
        assert all(a.shape == (0,) for a in (pts.times_s, pts.freqs_hz,
                                             pts.amplitudes, pts.fibf_index))


class TestMarginalSpectrum:
    def test_tone_mass_concentrates_at_tone_frequency(self):
        n, fs, k = 256, 128.0, 16
        x = np.sin(2 * np.pi * k * np.arange(n) / n)
        r = decompose(Signal(x, fs))
        freqs, h = marginal_spectrum(fhs(r), 1.0)
        f_tone = k * fs / n  # 8 Hz
        peak = int(np.argmax(h))
        assert freqs[peak] == f_tone
        # unit envelope integrated over the record: n * dt = duration
        assert h[peak] == pytest.approx(n / fs, rel=1e-9)
        assert h.sum() == pytest.approx(n / fs, rel=1e-9)

    def test_total_mass_invariant_under_bin_refinement(self):
        r = two_tone_result()
        pts = fhs(r)
        _, h1 = marginal_spectrum(pts, 1.0)
        _, h2 = marginal_spectrum(pts, 0.25)
        assert h1.sum() == pytest.approx(h2.sum(), rel=1e-12)

    def test_bin_width_domain(self):
        pts = fhs(two_tone_result())
        with pytest.raises(ParameterError):
            marginal_spectrum(pts, 0.0)

    @pytest.mark.parametrize("df", [float("inf"), float("nan"), -1.0, "1",
                                    True, None])
    def test_bin_width_must_be_a_finite_real_above_zero(self, df):
        pts = fhs(two_tone_result())
        with pytest.raises(ParameterError, match="freq_bin_hz must be"):
            marginal_spectrum(pts, df)

    @pytest.mark.parametrize("df", [1e-12, 1e-300])
    def test_bin_width_too_fine_for_the_cell_limit(self, df):
        # 1e-300 would overflow the int64 bin index and pile every
        # point into bin 0
        pts = fhs(two_tone_result())
        with pytest.raises(ParameterError, match="freq_bin_hz"):
            marginal_spectrum(pts, df)

    def test_cell_limit_counts_bins_up_to_the_top_frequency(self, monkeypatch):
        # the top tone sits at 20 Hz: 81 bins of 0.25 Hz, 101 of 0.2 Hz
        pts = fhs(two_tone_result())
        monkeypatch.setattr(fdmkit.tfe, "MAX_CELLS", 81)
        assert marginal_spectrum(pts, 0.25)[1].size == 81
        with pytest.raises(ParameterError):
            marginal_spectrum(pts, 0.2)

    def test_empty_points(self):
        pts = TfePoints(np.zeros(0), np.zeros(0), np.zeros(0),
                        np.zeros(0, dtype=int), 10.0)
        freqs, h = marginal_spectrum(pts, 1.0)
        assert freqs.size == 0 and h.size == 0


class TestInstantaneousEnergy:
    def test_two_tone_energy_is_sum_of_squared_envelopes(self):
        r = two_tone_result(a2=0.5)
        e = instantaneous_energy(r)
        want = r.fibfs[0].amplitude ** 2
        for b in r.fibfs[1:]:
            want = want + b.amplitude ** 2
        assert np.array_equal(e, want)
        # both envelopes are constant: 1^2 + 0.5^2
        assert np.max(np.abs(e - 1.25)) < 1e-9

    def test_empty_result(self):
        r = decompose(Signal(np.zeros(16), 10.0))
        assert np.array_equal(instantaneous_energy(r), np.zeros(16))


class TestRasterize:
    def test_energy_mode_conserves_total(self):
        r = two_tone_result()
        pts = fhs(r)
        t_axis = np.arange(r.n) / r.sample_rate_hz
        f_axis = np.arange(0.0, 65.0, 1.0)
        grid = rasterize(pts, t_axis, f_axis, mode="energy")
        assert grid.cells.shape == (f_axis.size, t_axis.size)
        assert grid.cells.sum() == pytest.approx(
            float(np.sum(pts.amplitudes ** 2)), rel=1e-12)

    def test_time_marginal_matches_energy_trace(self):
        r = two_tone_result()
        pts = fhs(r)
        t_axis = np.arange(r.n) / r.sample_rate_hz
        f_axis = np.arange(0.0, 65.0, 1.0)
        grid = rasterize(pts, t_axis, f_axis, mode="energy")
        assert np.allclose(grid.cells.sum(axis=0), instantaneous_energy(r),
                           rtol=1e-12, atol=0)

    def test_amplitude_mode_keeps_cell_maximum(self):
        pts = TfePoints(
            times_s=np.array([0.0, 0.0, 1.0]),
            freqs_hz=np.array([5.0, 5.2, 9.0]),
            amplitudes=np.array([1.0, 3.0, 2.0]),
            fibf_index=np.zeros(3, dtype=int),
            sample_rate_hz=1.0,
        )
        grid = rasterize(pts, np.array([0.0, 1.0]), np.array([5.0, 9.0]),
                         mode="amplitude")
        assert grid.cells[0, 0] == 3.0  # max of the two 5 Hz points
        assert grid.cells[1, 1] == 2.0
        assert grid.cells[1, 0] == 0.0

    def test_out_of_range_points_clamp_to_edge_cells(self):
        pts = TfePoints(
            times_s=np.array([-5.0, 50.0]),
            freqs_hz=np.array([100.0, -3.0]),
            amplitudes=np.array([1.0, 1.0]),
            fibf_index=np.zeros(2, dtype=int),
            sample_rate_hz=1.0,
        )
        grid = rasterize(pts, np.array([0.0, 1.0]), np.array([0.0, 10.0]),
                         mode="energy")
        assert grid.cells[1, 0] == 1.0  # high freq, early time
        assert grid.cells[0, 1] == 1.0  # clamped low freq, late time
        assert grid.cells.sum() == 2.0

    def test_axis_validation(self):
        pts = fhs(two_tone_result())
        with pytest.raises(ParameterError):
            rasterize(pts, np.array([1.0, 0.5]), np.array([0.0, 1.0]))
        with pytest.raises(ParameterError):
            rasterize(pts, np.zeros(0), np.array([0.0, 1.0]))
        with pytest.raises(ParameterError):
            rasterize(pts, np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                      mode="phase")

    @pytest.mark.parametrize("axis", [
        [0.0, np.nan, 2.0], [np.nan], [np.nan, 1.0], [1.0, np.nan],
        [0.0, 1.0, 1.0, 2.0], [-0.0, 0.0], [0.0, -0.0],
        [np.inf, np.inf], [-np.inf, -np.inf], [1.0, np.inf, np.inf],
        [-np.inf, -np.inf, 0.0], [-np.inf, 0.0, np.inf], [-np.inf, np.inf],
        [-1e308, 1e308], [1e308, -1e308], [-1.7e308, 0.0, 1.7e308],
        [0.0, 5e-324, 1e-323], [5e-324, 5e-324], [-5e-324, 0.0, 5e-324],
        [2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 1)],
        [1.0], [2.0, 1.0],
    ])
    def test_axis_check_refuses_what_diff_refused(self, axis):
        self.assert_axis_verdict(np.array(axis))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, 1.7e308, -1.7e308])),
        min_size=1, max_size=6))
    def test_axis_check_matches_diff_everywhere(self, values):
        axis = np.array(values)
        self.assert_axis_verdict(axis)
        self.assert_axis_verdict(np.sort(axis))

    @staticmethod
    def assert_axis_verdict(axis):
        # the verdict ``np.all(np.diff(axis) > 0)`` gave, without its
        # overflow and inf - inf warnings
        with np.errstate(all="ignore"):
            increasing = bool(np.all(np.diff(axis) > 0))
        if increasing:
            assert fdmkit.tfe._axis_ok(axis, "t") is not None
        else:
            with pytest.raises(ParameterError, match="t must be strictly"):
                fdmkit.tfe._axis_ok(axis, "t")

    def test_cell_limit(self, monkeypatch):
        # read at call time: a grid of exactly the cap is built, one
        # cell more is refused before anything is allocated
        pts = fhs(two_tone_result())
        monkeypatch.setattr(fdmkit.tfe, "MAX_CELLS", 12)
        assert rasterize(pts, np.arange(4.0), np.arange(3.0)).cells.shape == (3, 4)
        with pytest.raises(ParameterError, match="more than 12 cells"):
            rasterize(pts, np.arange(13.0), np.arange(1.0))
        with pytest.raises(ParameterError, match="more than 12 cells"):
            rasterize(pts, np.arange(1.0), np.arange(13.0), mode="amplitude")

    def test_single_cell_axis_collects_everything(self):
        pts = fhs(two_tone_result())
        grid = rasterize(pts, np.array([0.0]), np.array([10.0]), mode="energy")
        assert grid.cells.shape == (1, 1)
        assert grid.cells[0, 0] == pytest.approx(
            float(np.sum(pts.amplitudes ** 2)), rel=1e-12)
