import json
import os
import re

import numpy as np
import pytest

import fdmkit.cli as cli
from fdmkit import (
    GeneratorSpec,
    MultichannelSignal,
    SymmetryError,
    cutoff_schedule,
    generate,
    mfdm_decompose,
)
from fdmkit.cli import ingest_csv, main

TONE_RECIPE = ('gen:{"kind":"tone_mix","n":256,"sample_rate_hz":128,'
               '"params":{"freqs":[8,20],"amps":[1,0.5]}}')
NOISE_RECIPE = 'gen:{"kind":"white_gaussian","n":128,"sample_rate_hz":100,"seed":5}'


def read_table(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def col(header, data, name):
    return data[:, header.index(name)]


class TestIngestCsv:
    def write(self, tmp_path, text, name="in.csv"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_time_column_fixes_clock(self, tmp_path):
        p = self.write(tmp_path, "t,x\n0.0,1.0\n0.25,2.0\n0.5,3.0\n")
        s = ingest_csv(p)
        assert s.sample_rate_hz == pytest.approx(4.0)
        assert s.start_time_s == 0.0
        assert np.array_equal(s.samples, [1.0, 2.0, 3.0])

    def test_nonzero_start_time_kept(self, tmp_path):
        p = self.write(tmp_path, "t,x\n2.0,1.0\n2.5,2.0\n3.0,3.0\n")
        assert ingest_csv(p).start_time_s == 2.0

    def test_multiple_channels(self, tmp_path):
        p = self.write(tmp_path, "t,a,b\n0,1,4\n0.1,2,5\n0.2,3,6\n")
        mc = ingest_csv(p)
        assert isinstance(mc, MultichannelSignal)
        assert mc.n_channels == 2
        assert np.array_equal(mc.channels[1].samples, [4.0, 5.0, 6.0])

    def test_no_time_column_needs_rate(self, tmp_path):
        p = self.write(tmp_path, "x\n1\n2\n3\n")
        with pytest.raises(cli.ParameterError, match="--fs"):
            ingest_csv(p)
        s = ingest_csv(p, 50.0)
        assert s.sample_rate_hz == 50.0
        assert s.start_time_s == 0.0

    def test_rate_must_agree_with_time_column(self, tmp_path):
        p = self.write(tmp_path, "t,x\n0.0,1\n0.5,2\n1.0,3\n")
        assert ingest_csv(p, 2.0).n == 3
        with pytest.raises(cli.ParameterError, match="disagrees"):
            ingest_csv(p, 3.0)

    def test_numeric_header_rejected(self, tmp_path):
        p = self.write(tmp_path, "0.0,1.0\n0.1,2.0\n0.2,3.0\n")
        with pytest.raises(cli.IngestionError, match="row 1"):
            ingest_csv(p)

    def test_ragged_row_named(self, tmp_path):
        p = self.write(tmp_path, "t,x\n0,1\n0.1,2,9\n0.2,3\n")
        with pytest.raises(cli.IngestionError, match="row 3"):
            ingest_csv(p)

    def test_bad_cell_named_with_column(self, tmp_path):
        p = self.write(tmp_path, "t,x\n0,1\n0.1,two\n0.2,3\n")
        with pytest.raises(cli.IngestionError, match=r"row 3.*'x'"):
            ingest_csv(p)

    def test_non_finite_cell_named(self, tmp_path):
        p = self.write(tmp_path, "t,x\n0,1\n0.1,nan\n0.2,3\n")
        with pytest.raises(cli.IngestionError, match="row 3.*non-finite"):
            ingest_csv(p)

    def test_non_uniform_grid_named(self, tmp_path):
        p = self.write(tmp_path, "t,x\n0.0,1\n0.1,2\n0.2,3\n0.35,4\n")
        with pytest.raises(cli.IngestionError, match="row 5"):
            ingest_csv(p)

    def test_decreasing_time_rejected(self, tmp_path):
        p = self.write(tmp_path, "t,x\n0.2,1\n0.1,2\n0.0,3\n")
        with pytest.raises(cli.IngestionError, match="increase"):
            ingest_csv(p)

    def test_time_only_file_rejected(self, tmp_path):
        p = self.write(tmp_path, "t\n0\n0.1\n0.2\n")
        with pytest.raises(cli.IngestionError, match="no data columns"):
            ingest_csv(p)

    def test_too_few_rows(self, tmp_path):
        p = self.write(tmp_path, "t,x\n0,1\n")
        with pytest.raises(cli.IngestionError, match="at least 2"):
            ingest_csv(p)

    def test_blank_lines_ignored_but_numbering_kept(self, tmp_path):
        p = self.write(tmp_path, "t,x\n0,1\n\n0.1,2\n0.2,bad\n")
        with pytest.raises(cli.IngestionError, match="row 5"):
            ingest_csv(p)

    def refused(self, tmp_path, text, message):
        with pytest.raises(cli.IngestionError, match=f"^{re.escape(message)}$"):
            ingest_csv(self.write(tmp_path, text))

    def test_interleaved_blank_rows(self, tmp_path):
        text = "\n t , x \n\n0,1\n , \n0.5,2\n\n\n1.0,3\n  \n"
        s = ingest_csv(self.write(tmp_path, text))
        assert np.array_equal(s.samples, [1.0, 2.0, 3.0])
        assert s.sample_rate_hz == 2.0
        with pytest.raises(cli.IngestionError, match="^row 7: time step"):
            ingest_csv(self.write(tmp_path, "t,x\n\n0,1\n,\n0.5,2\n\n0.75,3\n"))
        self.refused(tmp_path, "t,x\n\n0,inf\n\n0.5,2\n",
                     "row 3, column 'x': non-finite value")

    def test_non_uniform_step_message(self, tmp_path):
        self.refused(tmp_path, "t,x\n\n0,1\n,\n0.5,2\n\n0.75,3\n",
                     f"row 7: time step 0.25 deviates from 0.5 by more "
                     f"than {cli._REL_TOL:g} relative")

    def test_short_last_row(self, tmp_path):
        self.refused(tmp_path, "t,x\n0,1\n0.1,2\n\n0.2\n",
                     "row 5: expected 2 columns, found 1")

    def test_bad_cell_in_last_row(self, tmp_path):
        self.refused(tmp_path, "t,a,b\n0,1,2\n0.1,2,3\n0.2,3, x \n",
                     "row 4, column 'b': could not parse 'x' as a number")

    def test_first_bad_row_wins(self, tmp_path):
        self.refused(tmp_path, "t,x\n0,one\n0.1\n0.2,3\n",
                     "row 2, column 'x': could not parse 'one' as a number")

    def test_too_few_rows_reported_before_a_bad_row(self, tmp_path):
        self.refused(tmp_path, "t,x\n0,one\n\n",
                     f"{tmp_path / 'in.csv'}: need at least 2 data rows")

    def test_mfdm_table_reingests_exactly(self, tmp_path):
        # tiny samples put cells on both sides of repr's switch to
        # exponent notation
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4096, 2)) * 10.0 ** rng.integers(-9, 3, (4096, 2))
        src = self.write(tmp_path, "t,a,b\n" + "".join(
            f"{i / 64!r},{a!r},{b!r}\n" for i, (a, b) in enumerate(x.tolist())))
        out = tmp_path / "m"
        assert main(["mfdm", "--input", src, "--levels", "5",
                     "--out", str(out), "--no-timestamp"]) == 0
        result = mfdm_decompose(ingest_csv(src), cutoff_schedule(64.0, 1.5, 5))
        for p in range(2):
            table = ingest_csv(str(out / f"mfdm_ch{p + 1}.csv"))
            want = [x[:, p]] + [band[p] for band in result.bands] + [result.residue[p]]
            assert table.n_channels == len(want)
            for got, w in zip(table.channels, want):
                assert np.array_equal(got.samples, w)


class TestGenerateCommand:
    def test_writes_signal_and_summary(self, tmp_path):
        out = tmp_path / "g"
        assert main(["generate", "--input", TONE_RECIPE,
                     "--out", str(out), "--no-timestamp"]) == 0
        header, data = read_table(out / "signal.csv")
        assert header == ["t", "x"]
        assert data.shape == (256, 2)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["command"] == "generate"
        assert summary["n"] == 256
        assert "timestamp" not in summary

    def test_timestamp_present_by_default(self, tmp_path):
        out = tmp_path / "g"
        assert main(["generate", "--input", NOISE_RECIPE,
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "timestamp" in summary

    def test_multichannel_recipe(self, tmp_path):
        recipe = ('gen:{"kind":"tone_mix","n":64,"sample_rate_hz":64,'
                  '"params":{"freqs":[4,8],"channels":[[0],[1]]}}')
        out = tmp_path / "g"
        assert main(["generate", "--input", recipe,
                     "--out", str(out), "--no-timestamp"]) == 0
        header, data = read_table(out / "signal.csv")
        assert header == ["t", "ch1", "ch2"]

    def test_round_trip_is_exact(self, tmp_path):
        out = tmp_path / "g"
        assert main(["generate", "--input", NOISE_RECIPE,
                     "--out", str(out), "--no-timestamp"]) == 0
        back = ingest_csv(str(out / "signal.csv"))
        want = generate(GeneratorSpec("white_gaussian", 128, 100.0, seed=5))
        assert np.array_equal(back.samples, want.samples)
        assert back.sample_rate_hz == pytest.approx(100.0, rel=1e-9)

    def test_seed_flag_fills_missing_recipe_seed(self, tmp_path):
        recipe = 'gen:{"kind":"white_gaussian","n":64,"sample_rate_hz":50}'
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["generate", "--input", recipe, "--seed", "3",
                     "--out", str(out1), "--no-timestamp"]) == 0
        assert main(["generate", "--input",
                     'gen:{"kind":"white_gaussian","n":64,"sample_rate_hz":50,"seed":3}',
                     "--out", str(out2), "--no-timestamp"]) == 0
        assert (out1 / "signal.csv").read_bytes() == \
               (out2 / "signal.csv").read_bytes()

    @pytest.mark.parametrize("recipe,why", [
        ("gen:not json", "bad generator JSON"),
        ("gen:[1,2]", "JSON object"),
        ('gen:{"kind":"model_wave"}', "'kind' and 'n'"),
        ('gen:{"kind":"model_wave","n":64,"foo":1}', "unknown generator recipe"),
        ('gen:{"kind":"model_wave","n":64}', "sample rate missing"),
    ])
    def test_bad_recipes(self, tmp_path, capsys, recipe, why):
        assert main(["generate", "--input", recipe,
                     "--out", str(tmp_path / "x")]) == 2
        assert why in capsys.readouterr().err

    def test_fs_flag_conflict(self, tmp_path, capsys):
        assert main(["generate", "--input", NOISE_RECIPE, "--fs", "60",
                     "--out", str(tmp_path / "x")]) == 2
        assert "disagrees" in capsys.readouterr().err


class TestDecomposeCommand:
    def test_happy_path_and_reconstruction(self, tmp_path):
        out = tmp_path / "d"
        assert main(["decompose", "--input", TONE_RECIPE,
                     "--out", str(out), "--no-timestamp"]) == 0
        header, data = read_table(out / "decomposition.csv")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "decompose"
        assert summary["n_fibfs"] == 2
        assert summary["bin_ranges"] == [[16, 16], [40, 40]]
        assert summary["reconstruction_error"] < 1e-9
        x = col(header, data, "x")
        recon = np.full(x.size, summary["dc"])
        for i in range(1, summary["n_fibfs"] + 1):
            recon = recon + col(header, data, f"y{i}")
        if summary["nyquist"] is not None:
            alt = np.ones(x.size)
            alt[1::2] = -1
            recon = recon + summary["nyquist"] * alt
        assert np.max(np.abs(recon - x)) < 1e-9

    def test_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["decompose", "--input", NOISE_RECIPE, "--scan", "htl",
                         "--out", str(out), "--no-timestamp"]) == 0
            outs.append(out)
        for fname in ("decomposition.csv", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_csv_input_round_trip(self, tmp_path):
        gen_dir = tmp_path / "g"
        assert main(["generate", "--input", TONE_RECIPE,
                     "--out", str(gen_dir), "--no-timestamp"]) == 0
        out = tmp_path / "d"
        assert main(["decompose", "--input", str(gen_dir / "signal.csv"),
                     "--out", str(out), "--no-timestamp"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sample_rate_hz"] == pytest.approx(128.0, rel=1e-9)
        assert summary["bin_ranges"] == [[16, 16], [40, 40]]

    def test_flags_reach_the_decomposition(self, tmp_path):
        out = tmp_path / "d"
        assert main(["decompose", "--input", NOISE_RECIPE, "--scan", "htl",
                     "--search", "first", "--max-fibfs", "2",
                     "--mono-tol", "1e-9",
                     "--out", str(out), "--no-timestamp"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scan"] == "htl"
        assert summary["n_fibfs"] == 2
        assert summary["merged_tail"] is True

    def test_multichannel_input_rejected(self, tmp_path, capsys):
        recipe = ('gen:{"kind":"tone_mix","n":64,"sample_rate_hz":64,'
                  '"params":{"channels":[[0],[1]]}}')
        assert main(["decompose", "--input", recipe,
                     "--out", str(tmp_path / "d")]) == 2
        assert "single channel" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        out = tmp_path / "d"
        assert main(["decompose", "--input", TONE_RECIPE, "--format", "json",
                     "--out", str(out), "--no-timestamp"]) == 0
        doc = json.loads((out / "decomposition.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["columns"][:2] == ["t", "x"]
        assert len(doc["rows"]) == 256
        assert not (out / "decomposition.csv").exists()


class TestMfdmCommand:
    def test_per_channel_files(self, tmp_path):
        recipe = ('gen:{"kind":"tone_mix","n":256,"sample_rate_hz":128,'
                  '"params":{"freqs":[8,24],"channels":[[0],[1],[0,1]]}}')
        out = tmp_path / "m"
        assert main(["mfdm", "--input", recipe, "--m", "1.5", "--levels", "3",
                     "--out", str(out), "--no-timestamp"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cutoffs_hz"] == [32.0, 16.0, 8.0]
        assert summary["n_channels"] == 3
        for p in (1, 2, 3):
            header, data = read_table(out / f"mfdm_ch{p}.csv")
            assert header == ["t", "x", "band1", "band2", "band3", "residue"]
            total = data[:, 2:].sum(axis=1)
            assert np.max(np.abs(total - data[:, 1])) < 1e-9

    def test_explicit_cutoffs(self, tmp_path):
        out = tmp_path / "m"
        assert main(["mfdm", "--input", NOISE_RECIPE, "--cutoffs", "30,10,5",
                     "--out", str(out), "--no-timestamp"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cutoffs_hz"] == [30.0, 10.0, 5.0]
        assert summary["m"] is None

    def test_cutoffs_exclusive_with_m(self, tmp_path, capsys):
        assert main(["mfdm", "--input", NOISE_RECIPE, "--cutoffs", "30,10",
                     "--m", "1.5", "--out", str(tmp_path / "m")]) == 2
        assert "excludes" in capsys.readouterr().err

    def test_malformed_cutoffs(self, tmp_path):
        assert main(["mfdm", "--input", NOISE_RECIPE, "--cutoffs", "a,b",
                     "--out", str(tmp_path / "m")]) == 2

    def test_bad_shape_parameter(self, tmp_path):
        assert main(["mfdm", "--input", NOISE_RECIPE, "--m", "0.5",
                     "--out", str(tmp_path / "m")]) == 2


class TestTfeCommand:
    def test_points_and_grid_agree_on_energy(self, tmp_path):
        out = tmp_path / "t"
        assert main(["tfe", "--input", TONE_RECIPE, "--freq-bin", "0.5",
                     "--mode", "energy", "--out", str(out),
                     "--no-timestamp"]) == 0
        ph, pdata = read_table(out / "tfe_points.csv")
        assert ph == ["t", "f", "a", "fibf"]
        gh, gdata = read_table(out / "tfe_grid.csv")
        assert gh[0] == "f_hz"
        cell_total = gdata[:, 1:].sum()
        point_total = np.sum(col(ph, pdata, "a") ** 2)
        assert cell_total == pytest.approx(point_total, rel=1e-9)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_points"] == 512
        assert summary["clamped_negative"] == 0
        assert summary["mode"] == "energy"

    def test_amplitude_mode(self, tmp_path):
        out = tmp_path / "t"
        assert main(["tfe", "--input", TONE_RECIPE, "--mode", "amplitude",
                     "--out", str(out), "--no-timestamp"]) == 0
        _, gdata = read_table(out / "tfe_grid.csv")
        assert gdata[:, 1:].max() == pytest.approx(1.0, abs=1e-6)

    def test_bad_freq_bin(self, tmp_path):
        assert main(["tfe", "--input", TONE_RECIPE, "--freq-bin", "0",
                     "--out", str(tmp_path / "t")]) == 2

    # a 64 Hz band at 1e-9 Hz per row is 6.4e10 rows by 256 samples
    @pytest.mark.parametrize("df", ["1e-9", "1e-300"])
    def test_grid_too_large_is_refused(self, tmp_path, capsys, df):
        assert main(["tfe", "--input", TONE_RECIPE, "--freq-bin", df,
                     "--out", str(tmp_path / "t")]) == 2
        assert "--freq-bin" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()


class TestMarginalAndEnergyCommands:
    def test_marginal_peaks_at_tones(self, tmp_path):
        out = tmp_path / "m"
        assert main(["marginal", "--input", TONE_RECIPE, "--freq-bin", "1",
                     "--out", str(out), "--no-timestamp"]) == 0
        header, data = read_table(out / "marginal.csv")
        f = col(header, data, "f_hz")
        h = col(header, data, "h")
        top = f[np.argsort(h)[-2:]]
        assert set(np.round(top).astype(int)) == {8, 20}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_bins"] == data.shape[0]

    @pytest.mark.parametrize("df", ["1e-12", "1e-300"])
    def test_marginal_too_fine_is_refused(self, tmp_path, capsys, df):
        assert main(["marginal", "--input", TONE_RECIPE, "--freq-bin", df,
                     "--out", str(tmp_path / "m")]) == 2
        assert "freq_bin_hz" in capsys.readouterr().err

    @pytest.mark.parametrize("df", ["0", "-1", "nan"])
    def test_marginal_bad_bin_refused_before_decomposing(
            self, tmp_path, monkeypatch, capsys, df):
        def no_decompose(*args):
            raise AssertionError("decomposed before checking --freq-bin")

        monkeypatch.setattr(cli, "decompose", no_decompose)
        assert main(["marginal", "--input", TONE_RECIPE, "--freq-bin", df,
                     "--out", str(tmp_path / "m")]) == 2
        assert "--freq-bin must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_energy_trace_of_two_tones(self, tmp_path):
        out = tmp_path / "e"
        assert main(["energy", "--input", TONE_RECIPE,
                     "--out", str(out), "--no-timestamp"]) == 0
        header, data = read_table(out / "energy.csv")
        e = col(header, data, "energy")
        assert np.max(np.abs(e - 1.25)) < 1e-9


class TestExitCodes:
    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        assert main(["decompose", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == 4
        assert "file error" in capsys.readouterr().err

    def test_output_collision_is_io_error(self, tmp_path):
        target = tmp_path / "taken"
        target.write_text("already a file")
        assert main(["decompose", "--input", TONE_RECIPE,
                     "--out", str(target)]) == 4

    def test_contract_violation_maps_to_three(self, tmp_path, monkeypatch, capsys):
        def boom(args):
            raise SymmetryError("synthetic")
        monkeypatch.setattr(cli, "cmd_decompose", boom)
        assert main(["decompose", "--input", TONE_RECIPE,
                     "--out", str(tmp_path / "o")]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_argparse_errors_return_two(self, capsys):
        assert main(["decompose", "--nonsense"]) == 2
        assert main(["frobnicate"]) == 2
        assert main([]) == 2

    def test_overflowing_dft_maps_to_two(self, tmp_path, capsys):
        # finite samples whose DFT passes the float64 range
        x = generate(GeneratorSpec("tone_mix", 1024, 128.0)).samples * 2.0**1015
        path = tmp_path / "huge.csv"
        path.write_text("x\n" + "".join(f"{v!r}\n" for v in x.tolist()))
        assert main(["decompose", "--input", str(path), "--fs", "128",
                     "--out", str(tmp_path / "o")]) == 2
        assert "overflows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_overflowing_mfdm_maps_to_two(self, tmp_path, capsys):
        x = generate(GeneratorSpec("tone_mix", 1024, 128.0)).samples * 2.0**1015
        path = tmp_path / "huge.csv"
        path.write_text("x\n" + "".join(f"{v!r}\n" for v in x.tolist()))
        assert main(["mfdm", "--input", str(path), "--fs", "128",
                     "--out", str(tmp_path / "o")]) == 2
        assert "overflows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_infinite_rate_maps_to_two(self, tmp_path, capsys):
        assert main(["decompose", "--input",
                     'gen:{"kind":"white_gaussian","n":64,"seed":0}',
                     "--fs", "inf", "--out", str(tmp_path / "o")]) == 2
        assert "sample rate must be finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rate_with_overflowing_period_maps_to_two(self, tmp_path, capsys):
        recipe = 'gen:{"kind":"linear_chirp","n":64,"sample_rate_hz":1e-320}'
        assert main(["decompose", "--input", recipe,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "sample rate 1e-320 Hz is too small" in err
        assert "NaN" not in err
        assert not (tmp_path / "o").exists()

    def test_signal_too_short_maps_to_two(self, tmp_path, capsys):
        assert main(["decompose",
                     "--input", 'gen:{"kind":"model_wave","n":3,"sample_rate_hz":10}',
                     "--out", str(tmp_path / "o")]) == 2


class TestLoggingEnv:
    def test_log_env_enables_stderr_logging(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FDMKIT_LOG", "debug")
        out = tmp_path / "g"
        assert main(["generate", "--input", NOISE_RECIPE,
                     "--out", str(out), "--no-timestamp"]) == 0
        assert (out / "signal.csv").exists()

    def test_bogus_level_falls_back(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FDMKIT_LOG", "chatty")
        assert main(["generate", "--input", NOISE_RECIPE,
                     "--out", str(tmp_path / "g"), "--no-timestamp"]) == 0


class TestAtomicWrites:
    def test_no_stale_tmp_files_left(self, tmp_path):
        out = tmp_path / "d"
        assert main(["decompose", "--input", TONE_RECIPE,
                     "--out", str(out), "--no-timestamp"]) == 0
        assert not [p for p in os.listdir(out) if p.endswith(".tmp")]

    def test_other_runs_temp_file_is_left_alone(self, tmp_path):
        # a second run writing into the same directory must not write
        # through, or rename away, the first run's in-flight temp file
        target = tmp_path / "summary.json"
        other = tmp_path / "summary.json.tmp"
        other.write_text("other run")
        cli._atomic_write(str(target), "mine\n")
        assert target.read_text() == "mine\n"
        assert other.read_text() == "other run"

    def test_mode_matches_plain_open(self, tmp_path):
        plain = tmp_path / "plain.csv"
        with open(plain, "w") as fh:
            fh.write("x\n")
        target = tmp_path / "atomic.csv"
        cli._atomic_write(str(target), "x\n")
        assert os.stat(target).st_mode == os.stat(plain).st_mode

    def test_temp_file_removed_on_failure(self, tmp_path, monkeypatch):
        def broken_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(cli.os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk gone"):
            cli._atomic_write(str(tmp_path / "t.csv"), "x\n")
        assert os.listdir(tmp_path) == []
