"""End-to-end checks of the package's load-bearing guarantees.

Each test carries one acceptance label; the conftest hook echoes one
PASS/FAIL line per label after the run. Tolerances are part of the
contract and must not be loosened.
"""

import json
import time

import numpy as np
import pytest

from fdmkit import (
    FdmConfig,
    GeneratorSpec,
    Signal,
    aligned_tone_fixture,
    analytic_band,
    analytic_energy,
    cutoff_schedule,
    decompose,
    dft,
    fhs,
    generate,
    mfdm_decompose,
    rasterize,
    reconstruct,
    retained_bins,
    signal_energy,
)
from fdmkit.cli import ingest_csv, main
from oracles import htl_partition_direct, lth_partition_direct

TOL = 1e-9


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # the first call pays one-time import and allocation costs that are
    # not what the timed criteria measure
    decompose(Signal(np.sin(np.arange(16)), 16.0))


def all_kind_specs(n):
    fs = 100.0
    return [
        GeneratorSpec("tone_mix", n, fs),
        GeneratorSpec("intermittent_tone", n, fs),
        GeneratorSpec("linear_chirp", n, fs),
        GeneratorSpec("fm_sinusoid", n, fs),
        GeneratorSpec("intrawave_mix", n, fs),
        GeneratorSpec("model_wave", n, fs),
        GeneratorSpec("unit_sample", n, fs),
        GeneratorSpec("white_gaussian", n, fs, seed=11),
    ]


@pytest.mark.acceptance("01 reconstruction within 1e-9 for all generators and lengths")
def test_reconstruction_everywhere():
    for n in (64, 400, 1024, 401):
        for spec in all_kind_specs(n):
            s = generate(spec)
            r = decompose(s)
            assert r.reconstruction_error < TOL, (spec.kind, n)
            dev = np.max(np.abs(reconstruct(r) - s.samples))
            assert dev <= TOL * max(1.0, np.max(np.abs(s.samples))), (spec.kind, n)
    # the filter bank telescopes exactly as well
    mc = aligned_tone_fixture(seed=7)
    res = mfdm_decompose(mc, cutoff_schedule(128.0, 1.5, 4))
    for p in range(mc.n_channels):
        acc = res.residue[p].copy()
        for i in range(res.n_levels):
            acc += res.bands[i][p]
        assert np.max(np.abs(acc - mc.channels[p].samples)) < TOL


@pytest.mark.acceptance("02 bands are orthogonal with zero mean, 100 seeds")
def test_orthogonality_and_zero_mean():
    n = 128
    for seed in range(100):
        x = np.random.default_rng(seed).standard_normal(n)
        r = decompose(Signal(x, 100.0))
        bands = [b.fibf for b in r.fibfs]
        norms = [np.linalg.norm(y) for y in bands]
        for i in range(len(bands)):
            assert abs(bands[i].mean()) <= TOL * np.max(np.abs(bands[i]))
            for j in range(i + 1, len(bands)):
                assert abs(np.dot(bands[i], bands[j])) <= TOL * norms[i] * norms[j]


@pytest.mark.acceptance("03 energy identities hold to 1e-9, 100 seeds")
def test_energy_identities():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(16, 200))
        s = Signal(rng.standard_normal(n), 100.0)
        spec = dft(s)
        z = analytic_band(spec, 1, spec.k_max)
        split = spec.coefficients[0].real ** 2 + analytic_energy(z) / 2
        if spec.nyquist_bin is not None:
            split += spec.coefficients[spec.nyquist_bin].real ** 2
        assert split == pytest.approx(signal_energy(s), rel=TOL)

        r = decompose(s)
        total = n * r.dc ** 2 + sum(b.energy() for b in r.fibfs)
        if r.nyquist is not None:
            total += n * r.nyquist ** 2
        assert total == pytest.approx(float(np.dot(s.samples, s.samples)),
                                      rel=TOL)


@pytest.mark.acceptance("04 impulse energy sits at quarter rate and impulse time")
def test_impulse_concentration():
    t0 = time.perf_counter()
    fs = 100.0
    sig = generate(GeneratorSpec("unit_sample", 400, fs, params={"n0": 199}))
    r = decompose(sig, FdmConfig(monotonicity_tolerance=1e-9))
    pts = fhs(r)

    # amplitude-weighted dominant frequency over the energetic samples
    keep = pts.amplitudes > 0.1 * pts.amplitudes.max()
    assert keep.any()
    width = 0.5
    bins = np.round(pts.freqs_hz[keep] / width).astype(int)
    hist = np.bincount(bins, weights=pts.amplitudes[keep])
    dominant = width * int(np.argmax(hist))
    assert abs(dominant - 25.0) <= 0.25

    t_axis = sig.times()
    f_axis = np.arange(0.0, fs / 2 + 0.25, 0.25)
    grid = rasterize(pts, t_axis, f_axis, mode="energy")
    kf, kt = np.unravel_index(int(np.argmax(grid.cells)), grid.cells.shape)
    assert abs(t_axis[kt] - 1.99) <= 0.01
    assert abs(f_axis[kf] - 25.0) <= 0.25
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.acceptance("05 pure tone isolates to its single bin")
def test_pure_tone_isolation():
    n, fs, k = 256, 100.0, 13
    f_tone = k * fs / n
    s = generate(GeneratorSpec("tone_mix", n, fs,
                               params={"freqs": [f_tone], "amps": [1.0]}))
    r = decompose(s)
    assert r.n_fibfs == 1
    band = r.fibfs[0]
    assert band.bin_range == (k, k)
    assert np.ptp(band.amplitude) <= TOL
    interior = band.inst_freq_hz[1:-1]
    assert np.max(np.abs(interior - f_tone)) <= TOL * f_tone


@pytest.mark.acceptance("06 boundaries equal fresh-synthesis reference, 50 seeds")
def test_exhaustive_scan_matches_reference():
    t0 = time.perf_counter()
    n, fs = 32, 32.0
    for seed in range(50):
        x = np.random.default_rng(seed).standard_normal(n)
        s = Signal(x, fs)
        coeffs = dft(s).coefficients
        got = [b.partition_range for b in decompose(s).fibfs]
        assert got == [c[:2] for c in lth_partition_direct(coeffs)], seed
        got = [b.partition_range
               for b in decompose(s, FdmConfig(scan="htl")).fibfs]
        assert got == [c[:2] for c in htl_partition_direct(coeffs)], seed
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.acceptance("07 geometric cutoff ladder is exact")
def test_cutoff_ladder():
    assert cutoff_schedule(100.0, 1.5, 4).cutoffs_hz == (25.0, 12.5, 6.25, 3.125)
    for m in (0.75, 1.5, 5.0, 50.0):
        sched = cutoff_schedule(100.0, m, 6)
        want = (2 * m + 1) / (2 * m - 1)
        for a, b in zip(sched.cutoffs_hz, sched.cutoffs_hz[1:]):
            assert abs(a / b - want) <= 1e-12 * want


@pytest.mark.acceptance("08 filter bank isolates shared tones on aligned bins")
def test_filter_bank_alignment():
    mc = aligned_tone_fixture(n=1024, sample_rate_hz=128.0, sigma=0.2, seed=7)
    n, fs = mc.n, mc.sample_rate_hz
    sched = cutoff_schedule(fs, 1.5, 4)
    assert sched.cutoffs_hz == (32.0, 16.0, 8.0, 4.0)
    res = mfdm_decompose(mc, sched)

    carried = {0: (4.0, 8.0, 16.0, 32.0), 1: (8.0, 16.0, 32.0),
               2: (4.0, 8.0, 16.0), 3: (4.0, 8.0, 32.0)}
    level_of = {32.0: 0, 16.0: 1, 8.0: 2, 4.0: 3}
    clean_energy = 0.5  # unit sine: two bins at squared magnitude 0.25

    for p, freqs in carried.items():
        for f in freqs:
            band = res.bands[level_of[f]][p]
            spec = np.fft.fft(band, norm="forward")
            k = int(f * n / fs)
            captured = abs(spec[k]) ** 2 + abs(spec[n - k]) ** 2
            assert captured / clean_energy >= 0.9, (p, f)

    # every level occupies exactly the same bin annulus on every channel
    kept_above = set()
    for i, c in enumerate(sched.cutoffs_hz):
        kept = set(retained_bins(n, fs, c).tolist())
        annulus = kept - kept_above
        kept_above = kept
        for p in range(res.n_channels):
            spec = np.fft.fft(res.bands[i][p], norm="forward")
            support = {k for k in range(1, n // 2 + 1) if abs(spec[k]) > 1e-12}
            assert support == annulus, (p, i)


@pytest.mark.acceptance("09 nonlinear waveform fixtures decompose compactly")
def test_nonlinear_waveforms():
    s = generate(GeneratorSpec("intrawave_mix", 1024, 256.0))
    for scan in ("lth", "htl"):
        r = decompose(s, FdmConfig(scan=scan))
        assert r.n_fibfs <= 10
        assert r.reconstruction_error < TOL

    omega = 1.0
    fs = 512.0 / (16.0 * np.pi)
    s = generate(GeneratorSpec("model_wave", 512, fs,
                               params={"omega": omega, "epsilon": 0.5}))
    r = decompose(s)
    assert r.n_fibfs == 1
    f = r.fibfs[0].inst_freq_hz
    peaks = 1 + np.flatnonzero((f[1:-1] > f[:-2]) & (f[1:-1] > f[2:]))
    gaps = np.diff(peaks)
    period_samples = 2.0 * np.pi / omega * fs
    assert gaps.size >= 5
    assert np.max(np.abs(gaps - period_samples)) <= 0.05 * period_samples


@pytest.mark.acceptance("10 noise partition tiles and periodograms add bin-wise")
def test_noise_partition_and_periodograms():
    n, fs = 1024, 100.0
    s = generate(GeneratorSpec("white_gaussian", n, fs, seed=21))
    p_x = np.abs(np.fft.fft(s.samples, norm="forward")) ** 2

    for scan in ("lth", "htl"):
        r = decompose(s, FdmConfig(scan=scan))
        cells = sorted(b.partition_range for b in r.fibfs)
        assert cells[0][0] == 1 and cells[-1][1] == 511
        for (_, a_hi), (b_lo, _) in zip(cells, cells[1:]):
            assert b_lo == a_hi + 1

        total = np.abs(np.fft.fft(np.full(n, r.dc), norm="forward")) ** 2
        for b in r.fibfs:
            total += np.abs(np.fft.fft(b.fibf, norm="forward")) ** 2
        alt = np.ones(n)
        alt[1::2] = -1.0
        total += np.abs(np.fft.fft(r.nyquist * alt, norm="forward")) ** 2
        assert np.max(np.abs(total - p_x)) <= TOL * p_x.max()


@pytest.mark.acceptance("11 CLI runs are deterministic and round-trip")
def test_cli_determinism_and_round_trip(tmp_path):
    recipe = 'gen:{"kind":"white_gaussian","n":256,"sample_rate_hz":100,"seed":8}'

    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["decompose", "--input", recipe,
                     "--out", str(out), "--no-timestamp"]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for fname in names:
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    gen_dir = tmp_path / "gen"
    assert main(["generate", "--input", recipe,
                 "--out", str(gen_dir), "--no-timestamp"]) == 0
    back = ingest_csv(str(gen_dir / "signal.csv"))
    want = generate(GeneratorSpec("white_gaussian", 256, 100.0, seed=8))
    assert np.max(np.abs(back.samples - want.samples)) <= TOL
    assert abs(back.sample_rate_hz - 100.0) <= 1e-6 * 100.0

    # the written decomposition reproduces the input record too
    header = (outs[0] / "decomposition.csv").read_text().splitlines()[0].split(",")
    table = np.loadtxt(outs[0] / "decomposition.csv", delimiter=",", skiprows=1)
    summary = json.loads((outs[0] / "summary.json").read_text())
    x = table[:, header.index("x")]
    recon = np.full(x.size, summary["dc"])
    for i in range(1, summary["n_fibfs"] + 1):
        recon += table[:, header.index(f"y{i}")]
    alt = np.ones(x.size)
    alt[1::2] = -1.0
    recon += summary["nyquist"] * alt
    assert np.max(np.abs(recon - x)) <= TOL
    assert np.max(np.abs(x - want.samples)) <= TOL
