from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmkit import (
    BandRangeError,
    GeneratorSpec,
    ParameterError,
    Signal,
    Spectrum,
    analytic_band,
    analytic_energy,
    decompose,
    dft,
    generate,
    signal_energy,
)
from fdmkit.spectral import is_integer, is_real
from oracles import band_direct, dft_direct


def random_signal(seed, n, fs=100.0):
    rng = np.random.default_rng(seed)
    return Signal(rng.standard_normal(n), fs)


class TestArgumentTypes:
    """The one rule for integer and real arguments: a bool is neither."""

    @pytest.mark.parametrize("v", [3, np.int64(3)])
    def test_is_integer_accepts(self, v):
        assert is_integer(v)

    @pytest.mark.parametrize("v", [True, np.bool_(True), 3.0, "3", None])
    def test_is_integer_refuses(self, v):
        assert not is_integer(v)

    @pytest.mark.parametrize("v", [3, 2.5, np.float32(1), Fraction(1, 3),
                                   float("inf")])
    def test_is_real_accepts(self, v):
        assert is_real(v)

    @pytest.mark.parametrize("v", [True, np.bool_(True), "1", 1j,
                                   Decimal("1"), None])
    def test_is_real_refuses(self, v):
        assert not is_real(v)


class TestSignal:
    def test_samples_are_read_only_copies(self):
        x = np.zeros(8)
        s = Signal(x, 10.0)
        x[0] = 5.0
        assert s.samples[0] == 0.0
        with pytest.raises(ValueError):
            s.samples[1] = 1.0

    def test_times(self):
        s = Signal(np.zeros(4), 2.0, start_time_s=1.0)
        assert np.array_equal(s.times(), [1.0, 1.5, 2.0, 2.5])

    @pytest.mark.parametrize("bad", [
        np.zeros((2, 2)),
        np.ones(1),
        np.array([1.0, np.nan]),
        np.array([1.0, np.inf]),
    ])
    def test_rejects_bad_samples(self, bad):
        with pytest.raises(ParameterError):
            Signal(bad, 10.0)

    @pytest.mark.parametrize("fs", [0.0, -1.0, "64", None, True, 1j])
    def test_rejects_bad_rate(self, fs):
        with pytest.raises(ParameterError):
            Signal(np.zeros(4), fs)

    @pytest.mark.parametrize("fs", [np.inf, 1e-320, 5e-324])
    def test_rejects_rate_without_finite_period(self, fs):
        # inf has a zero period and these subnormals an infinite one;
        # either would put 0.0 or inf on every time axis
        with pytest.raises(ParameterError, match=repr(fs)):
            Signal(np.zeros(4), fs)

    def test_rate_must_keep_every_time_finite(self):
        # 1/fs is finite, 3/fs is not
        fs = np.nextafter(1.0 / np.finfo(float).max, 1.0)
        assert np.isfinite(Signal(np.zeros(2), fs).times()).all()
        with pytest.raises(ParameterError, match="overflow"):
            Signal(np.zeros(4), fs)

    @pytest.mark.parametrize("t0", [np.inf, -np.inf, np.nan])
    def test_rejects_start_time_that_is_not_finite(self, t0):
        with pytest.raises(ParameterError, match="start time"):
            Signal(np.zeros(4), 1.0, start_time_s=t0)

    @pytest.mark.parametrize("t0", ["abc", True, None])
    def test_rejects_start_time_that_is_not_a_real_number(self, t0):
        with pytest.raises(ParameterError, match="start time must be a real"):
            Signal(np.zeros(4), 1.0, start_time_s=t0)

    @pytest.mark.parametrize("t0", [2, np.float64(0.5)])
    def test_start_time_takes_any_real_number(self, t0):
        s = Signal(np.zeros(4), 1.0, start_time_s=t0)
        assert s.start_time_s == float(t0)
        assert type(s.start_time_s) is float

    def test_start_time_must_keep_every_time_finite(self):
        # t0 and 1/fs are finite, t0 + 1/fs is not
        with pytest.raises(ParameterError, match="start time"):
            Signal(np.zeros(2), 1e-308, start_time_s=1.7e308)
        s = Signal(np.zeros(2), 1e-308, start_time_s=-1.7e308)
        assert np.isfinite(s.times()).all()


class TestSpectrumProperties:
    @pytest.mark.parametrize("n,k_max,nyq", [
        (4, 1, 2), (5, 2, None), (8, 3, 4), (9, 4, None), (400, 199, 200),
    ])
    def test_bin_bookkeeping(self, n, k_max, nyq):
        spec = dft(Signal(np.arange(n, dtype=float), float(n)))
        assert spec.k_max == k_max
        assert spec.nyquist_bin == nyq

    def test_length_is_the_coefficient_count(self):
        spec = Spectrum(np.zeros(5, dtype=complex))
        assert (spec.n, spec.k_max, spec.nyquist_bin) == (5, 2, None)

    def test_two_dimensional_coefficients_rejected(self):
        with pytest.raises(ParameterError, match="1-D"):
            Spectrum(np.zeros((2, 4), dtype=complex))


class TestDft:
    @pytest.mark.parametrize("n", [4, 5, 16, 33, 64])
    def test_matches_direct_transform(self, n):
        s = random_signal(seed=n, n=n)
        fast = dft(s).coefficients
        slow = dft_direct(s.samples)
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_dc_bin_is_mean(self):
        s = random_signal(seed=1, n=37)
        assert dft(s).coefficients[0] == pytest.approx(s.samples.mean(), abs=1e-15)

    def test_cosine_lands_on_half_amplitude_bins(self):
        n, k0, amp, phi = 64, 5, 3.0, 0.7
        x = amp * np.cos(2 * np.pi * k0 * np.arange(n) / n + phi)
        c = dft(Signal(x, 64.0)).coefficients
        assert c[k0] == pytest.approx((amp / 2) * np.exp(1j * phi), abs=1e-12)
        assert c[n - k0] == pytest.approx((amp / 2) * np.exp(-1j * phi), abs=1e-12)
        others = np.delete(np.abs(c), [k0, n - k0])
        assert others.max() < 1e-12

    def test_overflowing_transform_rejected(self):
        # every sample is finite, but the bin sums pass the float64 range
        x = generate(GeneratorSpec("tone_mix", 1024, 128.0)).samples * 2.0**1015
        s = Signal(x, 128.0)
        with pytest.raises(ParameterError, match="overflows"):
            dft(s)
        with pytest.raises(ParameterError, match="overflows"):
            decompose(s)


class TestAnalyticBand:
    @pytest.mark.parametrize("n,lo,hi", [(16, 1, 7), (16, 3, 3), (17, 2, 7), (64, 10, 31)])
    def test_matches_direct_summation(self, n, lo, hi):
        s = random_signal(seed=n + lo, n=n)
        spec = dft(s)
        fast = analytic_band(spec, lo, hi)
        slow = band_direct(spec.coefficients, lo, hi)
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_tone_has_unit_modulus_envelope(self):
        n, k0 = 128, 9
        x = np.cos(2 * np.pi * k0 * np.arange(n) / n)
        z = analytic_band(dft(Signal(x, 128.0)), k0, k0)
        assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-12

    def test_real_parts_tile_the_signal(self):
        s = random_signal(seed=3, n=20)
        spec = dft(s)
        acc = np.full(20, spec.coefficients[0].real)
        acc += analytic_band(spec, 1, 4).real
        acc += analytic_band(spec, 5, 9).real
        acc += spec.coefficients[10].real * np.array([1.0, -1.0] * 10)
        assert np.max(np.abs(acc - s.samples)) < 1e-12

    @pytest.mark.parametrize("lo,hi", [(0, 3), (1, 8), (5, 4), (-1, 2), (8, 8)])
    def test_rejects_out_of_range_bins(self, lo, hi):
        spec = dft(random_signal(seed=0, n=16))  # k_max = 7
        with pytest.raises(BandRangeError):
            analytic_band(spec, lo, hi)

    def test_band_is_a_read_only_array(self):
        z = analytic_band(dft(random_signal(seed=1, n=16)), 2, 5)
        assert z.dtype == np.complex128 and z.shape == (16,)
        with pytest.raises(ValueError):
            z[0] = 1.0


class TestAnalyticBandArguments:
    @pytest.mark.parametrize("lo,hi", [(1.5, 3), (True, 3), (1, "3"),
                                       (1, 3.0), (None, 3)])
    def test_bin_range_must_be_integers(self, lo, hi):
        spec = dft(random_signal(seed=3, n=16))
        with pytest.raises(ParameterError, match="bin range must be integers"):
            analytic_band(spec, lo, hi)

    def test_numpy_integers_accepted(self):
        spec = dft(random_signal(seed=3, n=16))
        assert np.array_equal(analytic_band(spec, np.int64(2), np.int32(5)),
                              analytic_band(spec, 2, 5))


class TestEnergy:
    def test_tone_energy_split(self):
        # unit cosine: mean power 1/2, analytic mean power 1
        n = 64
        x = np.cos(2 * np.pi * 4 * np.arange(n) / n)
        s = Signal(x, 64.0)
        spec = dft(s)
        assert signal_energy(s) == pytest.approx(0.5, abs=1e-12)
        assert analytic_energy(analytic_band(spec, 4, 4)) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(4, 50))
    @settings(max_examples=40, deadline=None)
    def test_energy_identity(self, seed, n):
        # mean power = dc^2 + (analytic mean power)/2 + nyquist^2
        s = random_signal(seed, n)
        spec = dft(s)
        z = analytic_band(spec, 1, spec.k_max)
        total = spec.coefficients[0].real ** 2 + analytic_energy(z) / 2
        if spec.nyquist_bin is not None:
            total += spec.coefficients[spec.nyquist_bin].real ** 2
        assert total == pytest.approx(signal_energy(s), rel=1e-11)
