import inspect
import pathlib
import re

import numpy as np
import pytest

from fdmkit import (
    GeneratorSpec,
    MultichannelSignal,
    ParameterError,
    Signal,
    aligned_tone_fixture,
    generate,
)
from fdmkit.siggen import _GENERATORS
from fdmkit.spectral import MAX_VALUES


def spec(kind, n=256, fs=128.0, seed=None, **params):
    return GeneratorSpec(kind=kind, n=n, sample_rate_hz=fs, seed=seed,
                         params=params)


class TestSpecValidation:
    def test_domains(self):
        with pytest.raises(ParameterError):
            GeneratorSpec("model_wave", 1, 10.0)
        with pytest.raises(ParameterError):
            GeneratorSpec("model_wave", 16, 0.0)
        with pytest.raises(ParameterError):
            GeneratorSpec("model_wave", 16, 10.0, params=[1, 2])
        for n in ("64", 64.0, True, None):
            with pytest.raises(ParameterError, match=f"n must be an integer, got {n!r}"):
                GeneratorSpec("model_wave", n, 10.0)
        with pytest.raises(ParameterError, match=r"kind must be a string, got \[1\]"):
            GeneratorSpec([1], 64, 10.0)

    @pytest.mark.parametrize("n", [MAX_VALUES + 1, 10**12, 10**20])
    def test_oversized_record_refused(self, n):
        with pytest.raises(ParameterError, match=f"n must be in .*got {n}"):
            GeneratorSpec("tone_mix", n, 100.0)
        # the cap itself is a valid spec (nothing is generated here)
        assert GeneratorSpec("tone_mix", MAX_VALUES, 100.0).n == MAX_VALUES

    def test_negative_noise_level_refused(self):
        with pytest.raises(ParameterError, match="sigma must be >= 0"):
            generate(spec("tone_mix", seed=1, sigma=-0.5))

    @pytest.mark.parametrize("fs", [np.inf, 1e-320])
    def test_rate_needs_finite_period(self, fs):
        with pytest.raises(ParameterError, match=repr(fs)):
            GeneratorSpec("linear_chirp", 64, fs)

    @pytest.mark.parametrize("seed", [-1, "x", True, 2.5])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ParameterError, match=f"seed .*got {seed!r}"):
            GeneratorSpec("white_gaussian", 64, 10.0, seed=seed)

    @pytest.mark.parametrize("kind,params", [
        ("tone_mix", {"freqs": "ab"}),
        ("tone_mix", {"channels": 3}),
        ("tone_mix", {"freqs": 5}),
        ("unit_sample", {"n0": "x"}),
        ("fm_sinusoid", {"rate_hz": [1, 2]}),
        ("unit_sample", {"n0": 2.7}),
        ("white_gaussian", {"sigma": True}),
        ("linear_chirp", {"f0": "2"}),
        ("tone_mix", {"channels": [[0, 1.5]]}),
        ("tone_mix", {"freqs": [True, 8]}),
    ])
    def test_unparsable_params_are_parameter_errors(self, kind, params):
        with pytest.raises(ParameterError, match=f"bad params for {kind}: "):
            generate(spec(kind, **params))

    def test_overflowing_recipe_rejected(self):
        # fs passes the rate check, but the chirp squares t = m/fs
        with pytest.raises(ParameterError,
                           match=r"linear_chirp at 1e-300 Hz overflows"):
            generate(GeneratorSpec("linear_chirp", 64, 1e-300))

    def test_unknown_kind(self):
        with pytest.raises(ParameterError, match="unknown generator kind"):
            generate(spec("brown_noise"))

    def test_unknown_param(self):
        with pytest.raises(ParameterError, match="unknown params"):
            generate(spec("model_wave", omega=1.0, omga=2.0))

    def test_seed_required_for_noise(self):
        with pytest.raises(ParameterError, match="seed"):
            generate(spec("white_gaussian"))
        with pytest.raises(ParameterError, match="seed"):
            generate(spec("tone_mix", sigma=0.1))
        # noiseless tone mix needs no seed
        generate(spec("tone_mix"))


def test_readme_table_lists_each_kinds_params():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| kind | params (defaults) |")[1].split("\n\n")[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M))
    assert sorted(rows) == sorted(_GENERATORS)
    for kind, func in _GENERATORS.items():
        declared = [p.name for p in inspect.signature(func).parameters.values()
                    if p.kind is p.KEYWORD_ONLY]
        assert re.findall(r"`(\w+)`", rows[kind]) == declared, kind


class TestDeterminism:
    @pytest.mark.parametrize("kind,params", [
        ("white_gaussian", {}),
        ("tone_mix", {"sigma": 0.3}),
    ])
    def test_same_seed_same_samples(self, kind, params):
        a = generate(spec(kind, seed=42, **params))
        b = generate(spec(kind, seed=42, **params))
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        a = generate(spec("white_gaussian", seed=1))
        b = generate(spec("white_gaussian", seed=2))
        assert not np.array_equal(a.samples, b.samples)


class TestKinds:
    def test_tone_mix_matches_sum_of_sines(self):
        s = generate(spec("tone_mix", freqs=[4.0, 10.0], amps=[1.0, 0.25]))
        t = np.arange(256) / 128.0
        want = np.sin(2 * np.pi * 4 * t) + 0.25 * np.sin(2 * np.pi * 10 * t)
        assert np.max(np.abs(s.samples - want)) < 1e-12

    def test_tone_mix_amps_length_checked(self):
        with pytest.raises(ParameterError, match="amps"):
            generate(spec("tone_mix", freqs=[1.0, 2.0], amps=[1.0]))

    def test_tone_mix_channel_index_checked(self):
        with pytest.raises(ParameterError, match="out of range"):
            generate(spec("tone_mix", freqs=[1.0], channels=((0, 1),)))

    def test_intermittent_gate_is_exact(self):
        n, fs = 500, 100.0
        s = generate(spec("intermittent_tone", n=n, fs=fs))
        t = np.arange(n) / fs
        low = np.sin(2 * np.pi * 4 * t)
        rest = s.samples - low
        dur = n / fs
        outside = (t < 0.4 * dur) | (t >= 0.6 * dur)
        assert np.max(np.abs(rest[outside])) == 0.0
        assert np.max(np.abs(rest[~outside])) > 0.1

    def test_intermittent_window_domain(self):
        with pytest.raises(ParameterError):
            generate(spec("intermittent_tone", burst_start=0.7, burst_stop=0.6))

    def test_chirp_is_bounded_cosine_from_one(self):
        s = generate(spec("linear_chirp", n=512))
        assert s.samples[0] == 1.0
        assert np.max(np.abs(s.samples)) <= 1.0

    def test_chirp_speeds_up(self):
        s = generate(spec("linear_chirp", n=4096, fs=256.0, f0=2.0, f1=30.0))
        x = s.samples
        crossings = np.flatnonzero(np.diff(np.signbit(x)))
        first_half = np.count_nonzero(crossings < 2048)
        assert first_half < crossings.size - first_half

    def test_fm_sinusoid_bounded(self):
        s = generate(spec("fm_sinusoid", n=1024, fs=256.0))
        assert s.samples[0] == 1.0
        assert np.max(np.abs(s.samples)) <= 1.0

    def test_fm_rate_domain(self):
        with pytest.raises(ParameterError):
            generate(spec("fm_sinusoid", rate_hz=0.0))

    def test_intrawave_mix_is_periodic_and_bounded(self):
        # both factors repeat every second; fs divides n so the sampled
        # record is periodic too
        s = generate(spec("intrawave_mix", n=1024, fs=256.0))
        x = s.samples
        assert np.max(np.abs(x[256:] - x[:-256])) < 1e-12
        assert np.max(np.abs(x)) < 7.0
        assert np.min(x) > -2.0

    def test_model_wave_matches_closed_form(self):
        s = generate(spec("model_wave", n=128, fs=16.0, omega=2.0, epsilon=0.4))
        t = np.arange(128) / 16.0
        want = np.cos(2.0 * t + 0.4 * np.sin(2.0 * t))
        assert np.array_equal(s.samples, want)
        assert np.max(np.abs(s.samples)) <= 1.0

    def test_unit_sample_default_center(self):
        s = generate(spec("unit_sample", n=64))
        want = np.zeros(64)
        want[32] = 1.0
        assert np.array_equal(s.samples, want)

    def test_unit_sample_position(self):
        s = generate(spec("unit_sample", n=64, n0=5))
        assert s.samples[5] == 1.0 and np.sum(s.samples != 0) == 1
        with pytest.raises(ParameterError):
            generate(spec("unit_sample", n=64, n0=64))

    def test_white_gaussian_statistics(self):
        n = 65536
        s = generate(spec("white_gaussian", n=n, seed=9, sigma=2.0))
        x = s.samples
        assert abs(x.mean()) < 5 * 2.0 / np.sqrt(n)
        assert x.std() == pytest.approx(2.0, rel=0.02)

    def test_white_gaussian_sigma_domain(self):
        with pytest.raises(ParameterError):
            generate(spec("white_gaussian", seed=1, sigma=0.0))


class TestMultichannel:
    def test_channels_param_yields_multichannel(self):
        out = generate(spec("tone_mix", freqs=[4.0, 8.0],
                            channels=((0,), (1,), (0, 1))))
        assert isinstance(out, MultichannelSignal)
        assert out.n_channels == 3
        t = np.arange(256) / 128.0
        assert np.max(np.abs(out.channels[0].samples
                             - np.sin(2 * np.pi * 4 * t))) < 1e-12
        assert np.max(np.abs(out.channels[2].samples
                             - out.channels[0].samples
                             - out.channels[1].samples)) < 1e-12

    def test_channel_noise_is_independent(self):
        out = generate(spec("tone_mix", freqs=[4.0], sigma=1.0, seed=3,
                            channels=((0,), (0,))))
        d = out.channels[0].samples - out.channels[1].samples
        assert np.max(np.abs(d)) > 0.1

    def test_fixture_shape_and_tone_content(self):
        mc = aligned_tone_fixture(seed=7)
        assert mc.n_channels == 4
        assert mc.n == 1024
        assert mc.sample_rate_hz == 128.0
        # which channel carries which tone, via the DFT bin amplitude
        n, fs = mc.n, mc.sample_rate_hz
        want = {
            0: {4.0, 8.0, 16.0, 32.0},
            1: {8.0, 16.0, 32.0},
            2: {4.0, 8.0, 16.0},
            3: {4.0, 8.0, 32.0},
        }
        for p, freqs in want.items():
            spec_p = np.fft.fft(mc.channels[p].samples, norm="forward")
            for f in (4.0, 8.0, 16.0, 32.0):
                k = int(f * n / fs)
                present = abs(spec_p[k]) > 0.25
                assert present == (f in freqs), (p, f)

    def test_fixture_reproducible(self):
        a = aligned_tone_fixture(seed=11)
        b = aligned_tone_fixture(seed=11)
        for p in range(4):
            assert np.array_equal(a.channels[p].samples, b.channels[p].samples)
