import time
import warnings

import numpy as np
import pytest

import fdmkit.mfdm
from fdmkit import (
    CutoffSchedule,
    GeneratorSpec,
    MultichannelSignal,
    ParameterError,
    Signal,
    aligned_tone_fixture,
    cutoff_schedule,
    generate,
    mfdm_decompose,
    retained_bins,
    zero_phase_highpass,
)


def tone(n, k, fs, amp=1.0):
    return amp * np.sin(2 * np.pi * k * np.arange(n) / n)


class TestCutoffSchedule:
    def test_dyadic_ladder_is_exact(self):
        sched = cutoff_schedule(100.0, 1.5, 4)
        assert sched.cutoffs_hz == (25.0, 12.5, 6.25, 3.125)
        assert sched.levels == 4

    @pytest.mark.parametrize("m", [0.75, 1.5, 5.0, 50.0])
    def test_consecutive_ratio(self, m):
        sched = cutoff_schedule(64.0, m, 6)
        want = (2 * m + 1) / (2 * m - 1)
        for a, b in zip(sched.cutoffs_hz, sched.cutoffs_hz[1:]):
            assert a / b == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m", [0.5, 0.49, 0.0, -2.0, float("nan"),
                                   float("inf"), "1.5", True, None])
    def test_shape_parameter_domain(self, m):
        with pytest.raises(ParameterError, match="m must be"):
            cutoff_schedule(100.0, m, 3)

    @pytest.mark.parametrize("m", [2, np.float64(1.5)])
    def test_shape_parameter_takes_any_real_number(self, m):
        assert cutoff_schedule(100.0, m, 2).cutoffs_hz == \
            cutoff_schedule(100.0, float(m), 2).cutoffs_hz

    def test_levels_domain(self):
        # 10**18 levels would run the ladder to 0.0 long before the end
        for levels in (0, 2.5, True, 10**18):
            with pytest.raises(ParameterError):
                cutoff_schedule(100.0, 1.5, levels)

    @pytest.mark.parametrize("fs", [0.0, -1.0, float("nan"), float("inf")])
    def test_sample_rate_domain(self, fs):
        with pytest.raises(ParameterError, match="sample rate must be"):
            cutoff_schedule(fs, 1.5, 3)

    def test_deep_ladder_refused_without_building_it(self):
        # m=1e5 keeps r within 1e-5 of 1: the ladder reaches 0 Hz only
        # after about 7e7 rungs, which take tens of seconds to build
        start = time.perf_counter()
        with pytest.raises(ParameterError, match="levels must be <="):
            cutoff_schedule(100.0, 1e5, 10**18)
        assert time.perf_counter() - start < 2.0

    def test_levels_past_any_bank_refused_without_building_them(self):
        # r is within 1e-12 of 1, so the closed-form depth bound is about
        # 7e14: only the bank budget, MAX_VALUES // 3 levels at n >= 3,
        # stops a ladder of 1e12 rungs from being built
        start = time.perf_counter()
        with pytest.raises(ParameterError, match="levels must be <= 44739242"):
            cutoff_schedule(64.0, 1e12, 10**12)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("m,longest", [(0.51, 162), (1.5, 1080), (10.0, 7460)])
    def test_longest_ladder_is_kept(self, m, longest):
        r = (2.0 * m - 1.0) / (2.0 * m + 1.0)
        want = [50.0 * r]
        while len(want) < longest:
            want.append(want[-1] * r)
        assert cutoff_schedule(100.0, m, longest).cutoffs_hz == tuple(want)
        with pytest.raises(ParameterError):
            cutoff_schedule(100.0, m, longest + 1)

    def test_first_cutoff_below_half_rate(self):
        sched = cutoff_schedule(100.0, 50.0, 1)
        assert 0 < sched.cutoffs_hz[0] < 50.0

    def test_explicit_schedule_validation(self):
        with pytest.raises(ParameterError):
            CutoffSchedule((), 100.0)
        with pytest.raises(ParameterError):
            CutoffSchedule((10.0, 10.0), 100.0)  # not strictly decreasing
        with pytest.raises(ParameterError):
            CutoffSchedule((5.0, 12.0), 100.0)
        with pytest.raises(ParameterError):
            CutoffSchedule((50.0, 10.0), 100.0)  # at half rate
        with pytest.raises(ParameterError):
            CutoffSchedule((10.0, 0.0), 100.0)
        with pytest.raises(ParameterError, match="finite, got inf"):
            CutoffSchedule((1.0,), np.inf)
        with pytest.raises(ParameterError, match="real number, got '100'"):
            CutoffSchedule((1.0,), "100")
        for cutoffs in (("a",), (True,), (20.0, None)):
            with pytest.raises(ParameterError, match="cutoffs must be real"):
                CutoffSchedule(cutoffs, 100.0)
        CutoffSchedule((20.0, 10.0), 100.0)
        sched = CutoffSchedule([20, np.float64(10.0)], 100.0)
        assert sched.cutoffs_hz == (20.0, 10.0)
        assert all(type(c) is float for c in sched.cutoffs_hz)


    @pytest.mark.parametrize("m", [1e17, 1e300])
    def test_m_whose_ratio_rounds_to_one_refused_by_name(self, m):
        with pytest.raises(ParameterError, match=r"m=.* too large.* rounds to 1"):
            cutoff_schedule(100.0, m, 3)

    # 2m overflows at the top of the float range, and an integer past it
    # has no float at all
    @pytest.mark.parametrize("m", [1e308, 10**400], ids=["1e308", "10**400"])
    def test_m_past_twice_the_float_range_refused_by_name(self, m):
        with pytest.raises(ParameterError, match=r"too large.* rounds to 1"):
            cutoff_schedule(64.0, m, 3)

    @pytest.mark.parametrize("as_array", [False, True])
    def test_long_schedule_names_its_first_offender(self, as_array):
        cutoffs = np.geomspace(40.0, 1.0, 100_000)

        def refusal(values):
            values = values if as_array else values.tolist()
            with pytest.raises(ParameterError) as info:
                CutoffSchedule(values, 100.0)
            return str(info.value)

        bad = cutoffs.copy()
        bad[[70_000, 80_000]] = [60.0, -1.0]
        assert refusal(bad) == "cutoff 60.0 Hz outside (0, 50.0) Hz"
        bad = cutoffs.copy()
        bad[[50_000, 60_000]] = bad[[49_999, 59_998]]
        a = float(cutoffs[49_999])
        assert refusal(bad) == (
            f"cutoffs must be strictly decreasing, got {a} then {a}")
        sched = CutoffSchedule(cutoffs if as_array else cutoffs.tolist(),
                               100.0)
        assert sched.cutoffs_hz == tuple(cutoffs.tolist())
        assert all(type(c) is float for c in sched.cutoffs_hz[:3])

    def test_integer_cutoff_past_the_float_range_is_outside(self):
        with pytest.raises(ParameterError, match="cutoff inf Hz outside"):
            CutoffSchedule((10**400, 1.0), 100.0)


class TestZeroPhaseFilters:
    fs = 64.0
    n = 128

    def sig(self, x):
        return Signal(x, self.fs)

    def test_tone_above_cutoff_passes_unchanged(self):
        x = tone(self.n, 40, self.fs)  # 20 Hz
        y = zero_phase_highpass(self.sig(x), 10.0)
        assert np.max(np.abs(y.samples - x)) < 1e-12

    def test_tone_below_cutoff_is_removed(self):
        x = tone(self.n, 8, self.fs)  # 4 Hz
        y = zero_phase_highpass(self.sig(x), 10.0)
        assert np.max(np.abs(y.samples)) < 1e-12

    def test_tone_exactly_at_cutoff_is_kept_by_highpass(self):
        k = 20
        f_tone = k * self.fs / self.n  # exactly 10 Hz
        x = tone(self.n, k, self.fs)
        hp = zero_phase_highpass(self.sig(x), f_tone)
        assert np.max(np.abs(hp.samples - x)) < 1e-12

    def test_dc_removed_by_highpass(self):
        s = self.sig(np.full(self.n, 3.0))
        assert np.max(np.abs(zero_phase_highpass(s, 5.0).samples)) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        s = self.sig(rng.standard_normal(self.n))
        once = zero_phase_highpass(s, 7.3)
        twice = zero_phase_highpass(once, 7.3)
        assert np.max(np.abs(twice.samples - once.samples)) < 1e-12

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, 32.0, 40.0])
    def test_cutoff_domain(self, cutoff):
        s = self.sig(np.ones(self.n))
        with pytest.raises(ParameterError):
            zero_phase_highpass(s, cutoff)

    @pytest.mark.parametrize("cutoff", ["1", True, None, 1j])
    def test_cutoff_must_be_real(self, cutoff):
        s = self.sig(np.ones(self.n))
        with pytest.raises(ParameterError, match="cutoff must be a real"):
            zero_phase_highpass(s, cutoff)

    @pytest.mark.parametrize("args,match", [
        ((0, 10.0, 1.0), "n must be"),
        ((8.5, 10.0, 1.0), "n must be"),
        ((True, 10.0, 1.0), "n must be"),
        ((8, -1.0, 1.0), "sample rate"),
        ((8, "10", 1.0), "sample rate"),
        ((8, 10.0, float("nan")), "outside"),
        ((8, 10.0, 5.0), "outside"),
        ((8, 10.0, 0.0), "outside"),
        ((8, 10.0, True), "real number"),
    ])
    def test_retained_bins_refusals(self, args, match):
        with pytest.raises(ParameterError, match=match):
            retained_bins(*args)

    def test_retained_bins_takes_numpy_scalars(self):
        assert retained_bins(np.int64(8), np.float64(10.0),
                             np.float32(2.5)).tolist() == [2, 3, 4]

    def test_overflowing_transform_rejected(self):
        # every sample is finite, but the bin sums pass the float64 range
        x = generate(GeneratorSpec("tone_mix", 1024, 128.0)).samples * 2.0**1015
        s = Signal(x, 128.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="overflows"):
                zero_phase_highpass(s, 16.0)
            with pytest.raises(ParameterError, match="overflows"):
                mfdm_decompose(s, cutoff_schedule(128.0, 1.5, 4))

    def test_retained_bins_match_filter_support(self):
        rng = np.random.default_rng(2)
        s = self.sig(rng.standard_normal(self.n))
        cutoff = 9.7
        y = zero_phase_highpass(s, cutoff)
        spec = np.fft.fft(y.samples, norm="forward")
        support = {k for k in range(1, self.n // 2 + 1)
                   if abs(spec[k]) > 1e-13}
        assert support == set(retained_bins(self.n, self.fs, cutoff).tolist())


class TestMultichannelSignal:
    def test_channel_agreement_enforced(self):
        a = Signal(np.zeros(8), 10.0)
        with pytest.raises(ParameterError):
            MultichannelSignal((a, Signal(np.zeros(9), 10.0)))
        with pytest.raises(ParameterError):
            MultichannelSignal((a, Signal(np.zeros(8), 20.0)))
        with pytest.raises(ParameterError):
            MultichannelSignal((a, Signal(np.zeros(8), 10.0, start_time_s=1.0)))
        with pytest.raises(ParameterError):
            MultichannelSignal(())

    def test_every_channel_must_be_a_signal(self):
        with pytest.raises(ParameterError, match="channel 0 must be a Signal"):
            MultichannelSignal([np.zeros(4)])
        with pytest.raises(ParameterError, match="channel 1 must be a Signal, "
                                                 "got ndarray"):
            MultichannelSignal((Signal(np.zeros(4), 1.0), np.zeros(4)))

    def test_properties(self):
        mc = MultichannelSignal((Signal(np.zeros(8), 10.0),
                                 Signal(np.ones(8), 10.0)))
        assert mc.n_channels == 2
        assert mc.n == 8
        assert mc.sample_rate_hz == 10.0


class TestMfdmDecompose:
    fs = 128.0
    n = 512

    def record(self):
        rng = np.random.default_rng(3)
        chans = tuple(Signal(rng.standard_normal(self.n), self.fs)
                      for _ in range(3))
        return MultichannelSignal(chans)

    def test_telescoping_is_exact(self):
        data = self.record()
        res = mfdm_decompose(data, cutoff_schedule(self.fs, 1.5, 4))
        for p in range(res.n_channels):
            acc = res.residue[p].copy()
            for i in range(res.n_levels):
                acc += res.bands[i][p]
            assert np.max(np.abs(acc - data.channels[p].samples)) < 1e-12

    def test_single_signal_becomes_one_channel(self):
        s = Signal(np.sin(np.arange(64)), 64.0)
        res = mfdm_decompose(s, cutoff_schedule(64.0, 1.5, 2))
        assert res.n_channels == 1
        assert res.n_levels == 2

    def test_bank_is_chained_public_highpass(self):
        data = aligned_tone_fixture(n=1024)
        sched = cutoff_schedule(data.sample_rate_hz, 1.5, 6)
        res = mfdm_decompose(data, sched)
        for p, ch in enumerate(data.channels):
            residue = ch
            for i, c in enumerate(sched.cutoffs_hz):
                band = zero_phase_highpass(residue, c).samples
                assert np.array_equal(res.bands[i][p], band), (p, i)
                residue = Signal(residue.samples - band, ch.sample_rate_hz)
            assert np.array_equal(res.residue[p], residue.samples), p

    def test_sample_rate_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="sample rate"):
            mfdm_decompose(self.record(), cutoff_schedule(64.0, 1.5, 2))

    def test_cutoff_below_resolution_rejected(self):
        # resolution is fs/n = 0.25 Hz; nine dyadic halvings go below it
        sched = cutoff_schedule(self.fs, 1.5, 9)
        assert sched.cutoffs_hz[-1] < self.fs / self.n
        with pytest.raises(ParameterError, match="resolution"):
            mfdm_decompose(self.record(), sched)

    def test_bank_over_the_value_budget_refused_before_filtering(
            self, monkeypatch):
        def no_filter(x):
            raise AssertionError("the bank ran a filter")
        monkeypatch.setattr(fdmkit.mfdm, "dft_coefficients", no_filter)
        sched = cutoff_schedule(128.0, 1000, 3000)
        data = Signal(np.ones(65536), 128.0)
        assert sched.cutoffs_hz[-1] >= 128.0 / 65536
        with pytest.raises(ParameterError, match="a bank of 3000 levels x 1 "
                           "channels x 65536 samples would hold more than "
                           "134217728 values"):
            mfdm_decompose(data, sched)

    def test_outputs_own_contiguous_float64_memory(self):
        # a band that were a view of the complex inverse would keep twice
        # its own size alive
        res = mfdm_decompose(self.record(), cutoff_schedule(self.fs, 1.5, 4))
        for x in [b for level in res.bands for b in level] + list(res.residue):
            assert x.dtype == np.float64
            assert x.flags.c_contiguous
            assert x.base is None

    def test_non_finite_final_residue_refused(self, monkeypatch):
        # finite coefficients whose inverse sums past float64 leave an
        # infinite band, and so an infinite residue, at the last level
        dft_coefficients = fdmkit.mfdm.dft_coefficients
        monkeypatch.setattr(fdmkit.mfdm, "dft_coefficients",
                            lambda x: dft_coefficients(x) * 1e308)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ParameterError, match="residue overflows"):
            mfdm_decompose(self.record(), cutoff_schedule(self.fs, 1.5, 1))

    @pytest.mark.parametrize("top", [0.5, 0.999, 1 - 1e-9, 1.0])
    def test_banks_at_the_top_of_the_range_never_overflow(self, top):
        # records scaled so that their largest |X_u| is ``top`` of the
        # float64 max: no band or residue sample can pass the bound in
        # mfdm_decompose, so a bank ends finite or refused, and never
        # with a RuntimeWarning
        big = np.finfo(np.float64).max
        clean = 0
        for n in range(4, 301):
            rng = np.random.default_rng(n)
            t = np.arange(n)
            impulse = np.zeros(n)
            impulse[n // 3] = 1.0
            schedule = CutoffSchedule(tuple(np.geomspace(0.45, 1.0 / n, 4)),
                                      1.0)
            for x in (rng.standard_normal(n), impulse,
                      np.cos(np.pi * t * t / (2 * n)),
                      rng.choice([-1.0, 1.0], n)):
                # |x_m| <= max |X_u|, so x / peak is at most 1
                x = x / np.abs(np.fft.fft(x)).max() * (top * big)
                try:
                    res = mfdm_decompose(Signal(x, 1.0), schedule)
                except ParameterError as e:
                    assert "overflows" in str(e)
                    continue
                for y in [b for level in res.bands for b in level] \
                        + list(res.residue):
                    assert np.isfinite(y).all(), (n, top)
                clean += 1
        assert clean > 200

    def test_tone_lands_in_its_designated_level(self):
        # cutoffs [32, 16, 8, 4]: an 8 Hz tone belongs to level 2
        x = tone(self.n, int(8 * self.n / self.fs), self.fs)
        res = mfdm_decompose(Signal(x, self.fs),
                             cutoff_schedule(self.fs, 1.5, 4))
        energies = [float(np.dot(res.bands[i][0], res.bands[i][0]))
                    for i in range(4)]
        assert np.argmax(energies) == 2
        assert energies[2] == pytest.approx(float(np.dot(x, x)), rel=1e-12)

    def test_tone_below_last_cutoff_stays_in_residue(self):
        x = tone(self.n, 4, self.fs)  # 1 Hz < 4 Hz
        res = mfdm_decompose(Signal(x, self.fs),
                             cutoff_schedule(self.fs, 1.5, 4))
        for i in range(4):
            assert np.max(np.abs(res.bands[i][0])) < 1e-12
        assert np.max(np.abs(res.residue[0] - x)) < 1e-12

    def test_levels_cover_disjoint_bins_across_channels(self):
        data = self.record()
        sched = cutoff_schedule(self.fs, 1.5, 4)
        res = mfdm_decompose(data, sched)
        half = self.n // 2
        expected = []
        kept_above = set()
        for c in sched.cutoffs_hz:
            kept = set(retained_bins(self.n, self.fs, c).tolist())
            expected.append(kept - kept_above)
            kept_above = kept
        for p in range(res.n_channels):
            for i in range(res.n_levels):
                spec = np.fft.fft(res.bands[i][p], norm="forward")
                support = {k for k in range(1, half + 1)
                           if abs(spec[k]) > 1e-13}
                assert support == expected[i], (p, i)
