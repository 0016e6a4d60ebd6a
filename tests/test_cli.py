import array
import csv
import json
import os
import re
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdmkit.cli as cli
import fdmkit.mfdm
from fdmkit import (
    ContractError,
    GeneratorSpec,
    IngestionError,
    MultichannelSignal,
    ParameterError,
    Signal,
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


# ``reference_ingest`` and its helpers are the row loop every CSV was
# first read with, kept as it was: ingest_csv must give the same arrays,
# bit for bit, or the same error on every file.
_REL_TOL = 1e-6


def reference_ingest(path: str, sample_rate_hz: float | None = None):
    """Read a record from CSV, row by row with Python's float.

    The first row must be a header. A first column named ``t`` supplies
    sample times, which must be uniform to within a 1e-6 relative
    tolerance; the sample rate is then 1 / dt and a --fs flag, if also
    given, must agree to the same tolerance. Without a ``t`` column the
    sample rate must come from the caller. Every other column is one
    channel. Error messages cite 1-based file rows, header included.
    """
    with open(path, newline="") as fh:
        rows = enumerate(csv.reader(fh), start=1)
        for header_row, header in rows:
            if not _ref_blank(header):
                break
        else:
            raise IngestionError(f"{path}: file holds no rows")
        header = [c.strip() for c in header]
        if _ref_unparsable(header) is None:
            raise IngestionError(
                f"row {header_row}: looks like data; a header row is required"
            )
        ncol = len(header)

        # one pass: every data row goes straight into a flat float buffer,
        # and only its file row number is kept beside it
        flat = array.array("d")
        rownums = array.array("q")
        error = None
        for rownum, row in rows:
            if error is None and len(row) == ncol:
                try:
                    flat.extend(map(float, row))
                    rownums.append(rownum)
                    continue
                except ValueError:
                    del flat[len(rownums) * ncol:]
            if _ref_blank(row):
                continue
            # a bad row is reported only once a second data row exists;
            # a file with fewer is refused for that first
            if error is not None:
                raise error
            error = _ref_row_error(rownum, row, header)
            if rownums:
                raise error
    if len(rownums) < 2:
        raise IngestionError(f"{path}: need at least 2 data rows")
    values = np.frombuffer(flat, dtype=np.float64).reshape(-1, ncol)

    for k, name in enumerate(header):
        bad = np.flatnonzero(~np.isfinite(values[:, k]))
        if bad.size:
            rownum = rownums[bad[0]]
            raise IngestionError(
                f"row {rownum}, column {name!r}: non-finite value"
            )

    start_time = 0.0
    if header[0].lower() == "t":
        t = values[:, 0]
        dt = np.diff(t)
        if dt[0] <= 0:
            raise IngestionError(
                f"row {rownums[1]}: time must increase, step is {dt[0]}"
            )
        if not np.isfinite(dt[0]):
            raise IngestionError(f"row {rownums[1]}: time step overflows float64")
        off = np.flatnonzero(np.abs(dt - dt[0]) > _REL_TOL * abs(dt[0]))
        if off.size:
            rownum = rownums[off[0] + 1]
            raise IngestionError(
                f"row {rownum}: time step {float(dt[off[0]])!r} deviates "
                f"from {float(dt[0])!r} by more than {_REL_TOL:g} relative"
            )
        fs = _ref_agree(sample_rate_hz, 1.0 / dt[0], "the t column")
        start_time = float(t[0])
        channels = [values[:, k] for k in range(1, ncol)]
        if not channels:
            raise IngestionError(f"{path}: only a t column, no data columns")
    else:
        if sample_rate_hz is None:
            raise ParameterError(
                "--fs is required when the CSV has no t column"
            )
        fs = sample_rate_hz
        channels = [values[:, k] for k in range(ncol)]

    signals = tuple(Signal(c, fs, start_time) for c in channels)
    return signals[0] if len(signals) == 1 else MultichannelSignal(signals)


def _ref_blank(row) -> bool:
    return not any(cell.strip() for cell in row)


def _ref_unparsable(cells):
    """Index of the first cell that is not a number, or None."""
    for i, cell in enumerate(cells):
        try:
            float(cell)
        except ValueError:
            return i
    return None


def _ref_row_error(rownum: int, row: list, header: list) -> IngestionError:
    """Why a non-blank data row does not parse."""
    bad = _ref_unparsable(row) if len(row) == len(header) else None
    if bad is not None:
        return IngestionError(
            f"row {rownum}, column {header[bad]!r}: "
            f"could not parse {row[bad].strip()!r} as a number"
        )
    return IngestionError(
        f"row {rownum}: expected {len(header)} columns, found {len(row)}"
    )


def _ref_agree(flag_fs, fs: float, source: str) -> float:
    """The record's own rate ``fs``; --fs, if given, must agree with it."""
    if flag_fs is not None and not abs(flag_fs - fs) <= _REL_TOL * fs:
        raise ParameterError(
            f"--fs {flag_fs} disagrees with {source}, which gives {fs} Hz"
        )
    return fs


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

    @pytest.mark.parametrize("text", ["", "\n\n , \n"])
    def test_file_without_rows_refused(self, tmp_path, text):
        p = self.write(tmp_path, text)
        with pytest.raises(cli.IngestionError, match="file holds no rows"):
            ingest_csv(p)

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
        with pytest.raises(cli.ParameterError, match="^--fs 3.0 disagrees with "
                           "the t column, which gives 2.0 Hz$"):
            ingest_csv(p, 3.0)
        with pytest.raises(cli.ParameterError, match="disagrees"):
            ingest_csv(p, float("nan"))

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

    def test_overflowing_step_names_its_row(self, tmp_path):
        # the step from -1.7e308 to 1.7e308 is inf: refused as it is,
        # with no overflow warning from the sample rate's division
        self.refused(tmp_path, "t,x\n-1.7e308,1\n1.7e308,2\n",
                     "row 3: time step overflows float64")
        self.refused(tmp_path, "t,x\n\n1.7e308,1\n\n-1.7e308,2\n0,3\n",
                     "row 5: time must increase, step is -inf")

    def test_step_too_small_to_invert(self, tmp_path):
        p = self.write(tmp_path, "t,x\n0,1\n5e-324,2\n1e-323,3\n")
        with pytest.raises(cli.ParameterError,
                           match="^sample rate must be finite, got inf$"):
            ingest_csv(p)

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


def ingest_outcome(read, path, fs=None):
    """What ``read`` makes of a CSV: each channel's sample bytes, rate and
    start time, or the type and text of the error it raises."""
    try:
        data = read(path, fs)
    except (IngestionError, ParameterError) as e:
        return type(e).__name__, str(e)
    channels = data.channels if isinstance(data, MultichannelSignal) else (data,)
    return [(c.samples.tobytes(), repr(float(c.sample_rate_hz)),
             repr(float(c.start_time_s))) for c in channels]


# spellings Python's float accepts or refuses; JSON refuses some of
# them too (+1, .5, 5., 1_000, "2", the full-width digit), and orjson
# reads some otherwise than float does (-0 is the integer 0 to it) or
# by a path of their own (integers past 2**53 and 2**64, subnormals)
CELL_SPELLINGS = [
    " 1.5 ", "+1", ".5", "5.", "1E+05", "-Infinity", "NaN", "1e400",
    "1e-400", "4.9e-324", "1_000", '"2"', "１", "#3", " 7 ",
    "\t8\t", "0x10", "", "1e", "- 1", "1\x00",
    "-0", "-0.0", "0", "9007199254740993", "18446744073709551615",
    "18446744073709551616", "-9223372036854775809",
    "123456789012345678901234567890", "true", "null",
    "2.4703282292062328e-324", "1.7976931348623158e308",
]


def wide_rows(pad):
    """Cells of 60,000 characters: three make a line longer than the csv
    module's field limit, though no one field is."""
    pad *= 60000
    return "t,x,y\n" + "".join(
        f"{pad}{i / 2!r},{pad}{i},{pad}1.5\n" for i in range(3))


def at_field_limit(pad):
    """A cell of exactly the limit, which the csv module accepts."""
    return ("t,x\n0,1\n0.5," + pad * (csv.field_size_limit() - 1)
            + "2\n1.0,3\n")


# padded with zeros, which JSON refuses before a digit
WIDE_ROWS = wide_rows("0")
AT_FIELD_LIMIT = at_field_limit("0")

# the reader takes the data rows this many characters at a time
_READ = cli._READ_CHARS


def across_reads(at, newline="\n", late=None, blank=False):
    """A ``t,x`` CSV of three reads of 17-character rows, the first
    padded with leading blanks so that a row ends ``at`` characters into
    the data rows; ``late(row)`` replaces a row of the third read, and
    with ``blank`` a blank row follows the row that ends at ``at``."""
    rows = [f"{i / 4:12.2f},{i % 7:3d}" for i in range(3 * _READ // 17)]
    if late:
        rows[2 * _READ // 17] = late(rows[2 * _READ // 17])
    lines = [row + newline for row in rows]
    ends = np.cumsum([len(line) for line in lines])
    j = np.flatnonzero(ends <= at)[-1]
    lines[0] = " " * int(at - ends[j]) + lines[0]
    if blank:
        lines.insert(j + 1, newline)
    return "t,x" + newline + "".join(lines)


def step_off(row):
    """A row of ``across_reads`` whose time is 0.1 late."""
    return f"{float(row[:12]) + 0.1:12.2f}" + row[12:]


def quote_time(row):
    """A row of ``across_reads`` whose time cell is quoted and holds a
    newline, 9 characters into the row."""
    return f'"{row[4:12]}\n"' + row[12:]


def multi_read_file(seed):
    """A seeded ``t,x,y`` CSV of two to six reads, with random blank
    padding, which moves every read boundary, and one to three edits
    that either reader may have to take: blank and whitespace rows,
    ``-0``, ``+1``, quoted cells, quoted newlines, ragged rows, nan, a
    time step that is off, a row end of another kind."""
    rng = np.random.default_rng(seed)
    newline = str(rng.choice(["\n", "\r\n", "\r"]))
    pad = " " * int(rng.integers(0, 4))
    xy = rng.standard_normal((int(rng.integers(2000, 8000)), 2)).tolist()
    rows = [[f"{pad}{i / 4!r}", f"{pad}{x!r}", f"{pad}{y!r}"]
            for i, (x, y) in enumerate(xy)]
    rows[0][0] = " " * int(rng.integers(0, 200)) + rows[0][0]
    ends = [newline] * len(rows)
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(1, len(rows)))
        edit = rng.integers(10)
        if edit == 0:
            rows.insert(i, [])
            ends.insert(i, newline)
        elif edit == 1:
            rows.insert(i, [" \t "])
            ends.insert(i, newline)
        elif edit < 7:
            rows[i][1] = ["-0", "+1", '"3"', f'"3{newline}"', "nan"][edit - 2]
        elif edit == 7:
            rows[i].append("1")
        elif edit == 8:
            rows[i][0] = repr(i / 4 + 0.1)
        else:
            ends[i] = str(rng.choice(["\n", "\r\n", "\r"]))
    return "t,x,y" + newline + "".join(
        ",".join(row) + end for row, end in zip(rows, ends))


# (id, file text, --fs)
LAYOUTS = [
    ("wide-rows", WIDE_ROWS, None),
    ("field-at-limit", AT_FIELD_LIMIT, None),
    ("crlf", "t,x\r\n0,1\r\n0.5,2\r\n1.0,3\r\n", None),
    ("cr", "t,x\r0,1\r0.5,2\r1.0,3\r", None),
    ("blank", "t,x\n0,1\n\n0.5,2\n\n1.0,3\n\n", None),
    ("blank-crlf", "t,x\r\n0,1\r\n\r\n0.5,2\r\n1.0,3\r\n", None),
    ("whitespace-only", "t,x\n0,1\n   \n0.5,2\n\t\n1.0,3\n", None),
    ("comma-only", "t,x\n0,1\n,\n0.5,2\n , \n1.0,3\n", None),
    ("hash-row", "t,x\n0,1\n# note\n0.5,2\n1.0,3\n", None),
    ("hash-header", "# note\nt,x\n0,1\n0.5,2\n", None),
    ("blanks-before-header", "\n \n,\nt,x\n0,1\n0.5,2\n", None),
    ("header-only", "t,x\n", None),
    ("header-and-blanks", "t,x\n\n \n,\n", None),
    ("one-row", "t,x\n0,1\n", None),
    ("no-final-newline", "t,x\n0,1\n0.5,2", None),
    ("too-wide", "t,x\n0,1,2\n0.5,2,3\n", None),
    ("too-narrow", "t,x,y\n0,1\n0.5,2\n", None),
    ("trailing-comma", "t,x\n0,1,\n0.5,2,\n", None),
    ("ragged-late", "t,x\n0,1\n0.5,2\n1.0,3,4\n", None),
    ("quoted-header", '"t","x\ny"\n0,1\n0.5,2\n', None),
    ("quoted-cell-newline", 't,x\n0,"1\n"\n0.5,2\n', None),
    ("one-column", "x\n1\n2\n3\n", 10.0),
    ("no-clock", "a,b\n1,2\n3,4\n", None),
    ("time-only", "t\n0\n0.5\n", None),
    ("time-decreasing", "t,x\n0.5,1\n0,2\n", None),
    ("step-after-blanks", "t,x\n\n0,1\n,\n0.5,2\n\n0.75,3\n", None),
    ("non-finite-after-blanks", "t,x\n\n0,1\n\n0.5,inf\n", None),
    ("fs-disagrees", "t,x\n0,1\n0.5,2\n", 3.0),
    ("numeric-header", "0,1\n0.5,2\n", None),
    ("long-file-late-refusal",
     "t,x\n" + "".join(f"{i / 4!r},{i}\n" for i in range(300)) + "75.0,1_000\n",
     None),
    ("wide-rows-blank-padded", wide_rows(" "), None),
    ("field-at-limit-blank-padded", at_field_limit(" "), None),
    ("read-cuts-a-row", across_reads(_READ - 5), None),
    ("read-cuts-crlf", across_reads(_READ + 1, "\r\n"), None),
    ("read-ends-at-crlf", across_reads(_READ, "\r\n"), None),
    ("ragged-in-a-later-read",
     across_reads(_READ - 5, late=lambda row: row + ",1"), None),
    ("negative-zero-in-a-later-read",
     across_reads(_READ - 5, late=lambda row: row.split(",")[0] + ",-0"), None),
    ("row-longer-than-two-reads", "t,x,y\n" + "".join(
        f"{t},{' ' * _READ}{t},{' ' * _READ}2\n" for t in (0.5, 1.0, 1.5)),
     None),
    # the first row's CR is the last character of the second read
    ("crlf-cut-in-a-long-row", "t,x,y\r\n" + "".join(
        f"{t},{' ' * _READ}{t},{' ' * (_READ - 10)}2\r\n"
        for t in (0.5, 1.0, 1.5)), None),
    ("cr-across-reads", across_reads(_READ - 5, "\r"), None),
    # the first block ends 3 characters past the first read, and the
    # second starts with a blank row; a time step of the third read is off
    ("blank-at-a-read-boundary-then-bad-step",
     across_reads(_READ + 3, late=step_off, blank=True), None),
    # the second read ends inside the quoted cell, before its newline
    ("quoted-newline-across-reads", across_reads(_READ - 5, late=quote_time),
     None),
    ("refused-block-then-trailing-blanks",
     across_reads(_READ - 5, late=lambda row: row.split(",")[0] + ",-0")
     + "\n  \n,\n\n", None),
    # one column: the first read ends 2 characters into a row, so the
    # second block is one row of blanks alone, and a nan follows it
    ("blank-row-alone-in-a-block", "x\n" + "10\n" * (_READ // 3 + 1)
     + " " * (_READ + 10) + "\n20\nnan\n30\n", 10.0),
]


class TestIngestRoutes:
    """ingest_csv reads with orjson where it can and row by row where it
    must; the reference row loop settles what either route returns."""

    def write(self, tmp_path, text):
        p = tmp_path / "in.csv"
        p.write_bytes(text.encode())
        return str(p)

    def assert_as_reference(self, path, fs=None):
        got = ingest_outcome(ingest_csv, path, fs)
        # the reference's time check warns where steps near the largest
        # double overflow; the warning is no part of its outcome
        with np.errstate(over="ignore", invalid="ignore"):
            want = ingest_outcome(reference_ingest, path, fs)
        assert got == want

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("cell", CELL_SPELLINGS)
    def test_cell_spelling(self, tmp_path, cell, column):
        rows = [["0", "1"], ["0.5", "2"], ["1.0", "3"]]
        rows[1][column] = cell
        for header, fs in (("t,x", None), ("a,b", 2.0)):
            text = header + "\n" + "".join(",".join(r) + "\n" for r in rows)
            self.assert_as_reference(self.write(tmp_path, text), fs)

    @pytest.mark.parametrize("text, fs", [c[1:] for c in LAYOUTS],
                             ids=[c[0] for c in LAYOUTS])
    def test_file_layout(self, tmp_path, text, fs):
        self.assert_as_reference(self.write(tmp_path, text), fs)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=2, max_size=2), min_size=2, max_size=40),
           st.sampled_from(["{!r}", "{:.17g}", "{:.17e}", " {!r} ", "{:+.17g}"]),
           st.sampled_from(["\n", "\r\n"]),
           st.sets(st.integers(0, 40), max_size=4))
    def test_random_tables(self, rows, spelling, newline, blanks):
        lines = ["a,b"] + [",".join(spelling.format(v) for v in row)
                           for row in rows]
        for i in sorted(blanks, reverse=True):
            lines.insert(min(i, len(lines)), "")
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "in.csv")
            with open(path, "w", newline="") as fh:
                fh.write(newline.join(lines) + newline)
            self.assert_as_reference(path, 4.0)

    @pytest.mark.parametrize("text, min_blocks", [
        ("t,x\n0,1\n0.5,2\n1.0,3\n", 1),
        (wide_rows(" "), 1),
        (at_field_limit(" "), 1),
        ("t,x\n" + "".join(f"{i / 4!r},{i % 7}\n" for i in range(70000)), 2),
        ("t,x\n0,1\n0.5,2\n1.0,3\n\n\n", 1),
        ("t,x\r\n0,1\r\n0.5,2\r\n1.0,3\r\n\r\n\r\n", 1),
        ("t,x\r0,1\r0.5,2\r1.0,3\r", 1),
    ], ids=["plain", "wide-rows", "field-at-limit", "multi-block",
            "trailing-blanks", "trailing-blanks-crlf", "cr"])
    def test_plain_file_takes_the_numpy_route(self, tmp_path, monkeypatch, text,
                                              min_blocks):
        # the orjson route, so named before it replaced numpy's parser
        cells = []
        json_numbers = cli._json_numbers

        def spy(*args):
            numbers = json_numbers(*args)
            cells.append(len(numbers))
            return numbers

        def row_loop(*args):
            raise AssertionError("the row loop read a plain file")

        path = self.write(tmp_path, text)
        want = ingest_outcome(reference_ingest, path)
        monkeypatch.setattr(cli, "_json_numbers", spy)
        monkeypatch.setattr(cli, "_row_loop", row_loop)
        assert ingest_outcome(ingest_csv, path) == want
        # every cell of the file went through orjson
        header, *rows = text.strip().splitlines()
        assert sum(cells) == len(rows) * (header.count(",") + 1)
        assert len(cells) >= min_blocks

    @pytest.mark.parametrize("text", [
        "t,x\n0,1_000\n0.5,2\n",
        't,x\n0,"2"\n0.5,2\n',
        "t,x\n0,１\n0.5,2\n",
        "t,x\n0,1\n  \n0.5,2\n",
        "t,x\n0,1\n,\n0.5,2\n",
        "t,x\n0,-0\n0.5,2\n",
        "t,x\n0,+1\n0.5,2\n",
        "t,x\n0,5.\n0.5,2\n",
        "t,x\n0,1\n\n0.5,2\n",
    ], ids=["underscore", "quoted", "full-width", "whitespace-only", "comma-only",
            "negative-zero", "plus-sign", "trailing-point", "blank"])
    def test_numpy_refusals_take_the_row_loop(self, tmp_path, monkeypatch, text):
        # what the orjson route refuses, so named before it replaced numpy's
        calls = []
        row_loop = cli._row_loop

        def spy(rows, header, done):
            calls.append(done)
            return row_loop(rows, header, done)

        monkeypatch.setattr(cli, "_row_loop", spy)
        path = self.write(tmp_path, text)
        assert ingest_csv(path).n == 2
        # the row loop took over at the first block, after no data row
        assert calls == [0]
        self.assert_as_reference(path)

    @pytest.mark.parametrize("text, row_loop", [
        ("t,x\n0,1\n0.5,2\n1.0,3\n", False),
        ("t,x\n0,1_000\n0.5,2\n1.0,3\n", True),
    ], ids=["numpy", "row-loop"])
    def test_byte_order_mark_is_read_away(self, tmp_path, monkeypatch, text,
                                          row_loop):
        # spreadsheet programs' "CSV UTF-8" export starts with U+FEFF
        want = ingest_outcome(ingest_csv, self.write(tmp_path, text))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        calls = []
        loop = cli._row_loop

        def spy(*args):
            calls.append(args)
            return loop(*args)

        monkeypatch.setattr(cli, "_row_loop", spy)
        # one channel at 2 Hz: the t column is the time axis again
        assert ingest_outcome(ingest_csv, str(marked)) == want
        assert len(calls) == row_loop

    def spy_on_readers(self, monkeypatch):
        """The text of each block handed to orjson and the file row of
        each row the row loop reads, as ingest_csv goes."""
        blocks, rownums = [], []
        json_numbers, row_loop = cli._json_numbers, cli._row_loop

        def numbers_spy(text, *args):
            blocks.append(text)
            return json_numbers(text, *args)

        def row_loop_spy(rows, *args):
            rows = list(rows)
            rownums.extend(rownum for rownum, _ in rows)
            return row_loop(iter(rows), *args)

        monkeypatch.setattr(cli, "_json_numbers", numbers_spy)
        monkeypatch.setattr(cli, "_row_loop", row_loop_spy)
        return blocks, rownums

    def test_late_refusal_reads_each_block_once(self, tmp_path, monkeypatch):
        rows = [f"{i / 4!r},{i % 7}\n" for i in range(70000)]
        rows[-1] = f"{69999 / 4!r},-0\n"
        path = self.write(tmp_path, "t,x\n" + "".join(rows))
        want = ingest_outcome(reference_ingest, path)
        blocks, rownums = self.spy_on_readers(monkeypatch)
        assert ingest_outcome(ingest_csv, path) == want
        # the blocks cut the data rows apart: no row reached orjson twice
        assert len(blocks) >= 2 and "".join(blocks) == "".join(rows)
        # the row loop read the last block, the refused one, and no more;
        # the header is row 1, so the data rows are rows 2 to 70,001
        assert rownums == list(range(70002 - blocks[-1].count("\n"), 70002))

    def test_late_fault_is_numbered_without_the_row_loop(self, tmp_path,
                                                         monkeypatch):
        rows = [f"{i / 4!r},{i % 7}\n" for i in range(70000)]
        rows[-1] = f"{69999 / 4 + 0.1!r},1\n"
        path = self.write(tmp_path, "t,x\n" + "".join(rows))
        want = ingest_outcome(reference_ingest, path)
        assert want[1].startswith("row 70001: time step ")
        blocks, rownums = self.spy_on_readers(monkeypatch)
        assert ingest_outcome(ingest_csv, path) == want
        assert "".join(blocks) == "".join(rows) and rownums == []

    @pytest.mark.parametrize("seed", range(20))
    def test_random_multi_read_files(self, tmp_path, seed):
        self.assert_as_reference(self.write(tmp_path, multi_read_file(seed)))

    @pytest.mark.parametrize("text", ["t,x\n", "t,x\n\n\r\n\n", "t,x\n \n\t\n"])
    def test_header_without_data_raises_no_warning(self, tmp_path, text):
        path = self.write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IngestionError,
                               match=f"^{re.escape(path)}: need at least 2 data rows$"):
                ingest_csv(path)

    @pytest.mark.parametrize("data, row", [
        (b"t,x\n0,1\n0.5,\xff\n1.0,3\n", 3),
        (b"t,x\n0,1\n0.5,2\n1.0,3\n\xc3(,4\n", 5),
        (b"t,\xe9\n0,1\n0.5,2\n", 1),
    ], ids=["cell", "last-row", "header"])
    def test_invalid_utf8_refused_by_row(self, tmp_path, capsys, data, row):
        p = tmp_path / "in.csv"
        p.write_bytes(data)
        with pytest.raises(IngestionError, match=f"^row {row}: not valid UTF-8$"):
            ingest_csv(str(p))
        assert main(["generate", "--input", str(p), "--out",
                     str(tmp_path / "o"), "--no-timestamp"]) == 2
        assert f"row {row}: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [1, 2, 3])
    def test_oversized_field_refused_by_row(self, tmp_path, capsys, row):
        # numpy would parse the long field, as 2.0; the csv module refuses it
        long = "0" * csv.field_size_limit() + "2"
        rows = ["t,x", "0,1", "0.5,2", "1.0,3"]
        rows[row - 1] = f"t,{long}" if row == 1 else f"0.5,{long}"
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        message = (f"row {row}: field larger than field limit "
                   f"({csv.field_size_limit()})")
        with pytest.raises(IngestionError, match=f"^{re.escape(message)}$"):
            ingest_csv(path)
        assert main(["generate", "--input", path, "--out",
                     str(tmp_path / "o"), "--no-timestamp"]) == 2
        assert message in capsys.readouterr().err


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
        # the summary records the seed the record was drawn with
        for out in (out1, out2):
            assert json.loads((out / "summary.json").read_text())["seed"] == 3

    @pytest.mark.parametrize("recipe,why", [
        ("gen:not json", "bad generator JSON"),
        ("gen:[1,2]", "JSON object"),
        ('gen:{"kind":"model_wave"}', "'kind' and 'n'"),
        ('gen:{"kind":"model_wave","n":64,"foo":1}', "unknown generator recipe"),
        ('gen:{"kind":"model_wave","n":64}', "sample rate missing"),
        ('gen:{"kind":"tone_mix","n":64,"sample_rate_hz":64,'
         '"params":{"freqs":"ab"}}',
         "bad params for tone_mix: freqs must be list[float], got 'ab'"),
        ('gen:{"kind":"unit_sample","n":64,"sample_rate_hz":64,'
         '"params":{"n0":"x"}}', "bad params for unit_sample: "),
        ('gen:{"kind":"model_wave","n":"abc","sample_rate_hz":64}',
         "n must be an integer, got 'abc'"),
        ('gen:{"kind":"model_wave","n":[3],"sample_rate_hz":64}',
         "n must be an integer, got [3]"),
        ('gen:{"kind":"model_wave","n":64.9,"sample_rate_hz":64}',
         "n must be an integer, got 64.9"),
        ('gen:{"kind":[1],"n":64,"sample_rate_hz":64}',
         "kind must be a string, got [1]"),
        ('gen:{"kind":"model_wave","n":64,"sample_rate_hz":"x"}',
         "sample rate must be a real number, got 'x'"),
        ('gen:{"kind":"white_gaussian","n":64,"sample_rate_hz":64,"seed":"x"}',
         "seed must be a non-negative integer, got 'x'"),
        ('gen:{"kind":"unit_sample","n":64,"sample_rate_hz":64,'
         '"params":{"n0":2.7}}',
         "bad params for unit_sample: n0 must be int | None, got 2.7"),
        ('gen:{"kind":"white_gaussian","n":64,"sample_rate_hz":64,"seed":1,'
         '"params":{"sigma":true}}',
         "bad params for white_gaussian: sigma must be float, got True"),
        ('gen:{"kind":"linear_chirp","n":64,"sample_rate_hz":64,'
         '"params":{"f0":"2"}}',
         "bad params for linear_chirp: f0 must be float, got '2'"),
        ('gen:{"kind":"tone_mix","n":64,"sample_rate_hz":64,'
         '"params":{"channels":[[0,1.5]]}}',
         "bad params for tone_mix: channels must be list[list[int]] | None, "
         "got [[0, 1.5]]"),
        ('gen:{"kind":"tone_mix","n":64,"sample_rate_hz":64,'
         '"params":{"freqs":[true,8]}}',
         "bad params for tone_mix: freqs must be list[float], got [True, 8]"),
        ('gen:{"kind":"tone_mix","n":64,"sample_rate_hz":64,"seed":1,'
         '"params":{"sigma":NaN}}',
         "bad params for tone_mix: sigma must be float, got nan"),
        ('gen:{"kind":"linear_chirp","n":64,"sample_rate_hz":64,'
         '"params":{"f0":Infinity}}',
         "bad params for linear_chirp: f0 must be float, got inf"),
    ])
    def test_bad_recipes(self, tmp_path, capsys, recipe, why):
        assert main(["generate", "--input", recipe,
                     "--out", str(tmp_path / "x")]) == 2
        assert why in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["white_gaussian", "tone_mix"])
    def test_negative_seed_flag(self, tmp_path, capsys, kind):
        recipe = f'gen:{{"kind":"{kind}","n":64,"sample_rate_hz":64}}'
        assert main(["generate", "--input", recipe, "--seed", "-1",
                     "--out", str(tmp_path / "x")]) == 2
        assert "seed must be a non-negative integer, got -1" in \
            capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_fs_flag_conflict(self, tmp_path, capsys):
        for fs in ("60", "nan"):
            assert main(["generate", "--input", NOISE_RECIPE, "--fs", fs,
                         "--out", str(tmp_path / "x")]) == 2
            assert (f"--fs {float(fs)} disagrees with the recipe's "
                    "sample_rate_hz, which gives 100.0 Hz"
                    ) in capsys.readouterr().err


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

    def test_one_channel_recipe_reads_as_a_signal(self, tmp_path):
        # a one-entry channels list yields a one-channel record, which a
        # single-channel command unwraps to the same record as without it
        base = '"kind":"tone_mix","n":256,"sample_rate_hz":128'
        outs = []
        for name, params in (("plain", ""),
                             ("one", ',"params":{"channels":[[0,1,2,3]]}')):
            out = tmp_path / name
            assert main(["decompose", "--input", "gen:{" + base + params + "}",
                         "--out", str(out), "--no-timestamp"]) == 0
            outs.append(out)
        for fname in ("decomposition.csv", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

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
        for command in ("decompose", "tfe", "marginal", "energy"):
            assert main([command, "--input", recipe,
                         "--out", str(tmp_path / "d")]) == 2
            assert f"{command} expects a single channel, got 2" in \
                capsys.readouterr().err

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

    def test_m_too_large_for_the_ratio_is_named(self, tmp_path, capsys):
        assert main(["mfdm", "--input", NOISE_RECIPE, "--m", "1e300",
                     "--out", str(tmp_path / "m")]) == 2
        assert "m=1e+300 is too large" in capsys.readouterr().err

    def test_ladder_below_resolution_refused_before_building(self, tmp_path,
                                                             capsys):
        # building this ladder down to its floor takes about half a minute
        start = time.perf_counter()
        assert main(["mfdm", "--input", NOISE_RECIPE, "--m", "100000",
                     "--levels", str(10**18), "--out", str(tmp_path / "m")]) == 2
        assert time.perf_counter() - start < 1.0
        assert ("levels must be <= 415890 with m=100000.0: deeper cutoffs "
                "fall below the resolution fs/n of an n=128 record, got "
                "1000000000000000000") in capsys.readouterr().err
        # n=128 fits 6 dyadic levels; 7 and 8 sit inside the two-rung
        # guard, so mfdm_decompose refuses the built ladder
        assert main(["mfdm", "--input", NOISE_RECIPE, "--levels", "8",
                     "--out", str(tmp_path / "m")]) == 2
        assert "is below the frequency resolution" in capsys.readouterr().err
        assert main(["mfdm", "--input", NOISE_RECIPE, "--levels", "6",
                     "--out", str(tmp_path / "m")]) == 0

    def test_bank_over_the_value_budget_refused_before_filtering(
            self, tmp_path, capsys, monkeypatch):
        # the ladder fits the record's resolution, but 10,000 levels of
        # 4 x 65,536 samples would take about 21 GB of bands
        def no_filter(x):
            raise AssertionError("the bank ran a filter")
        monkeypatch.setattr(fdmkit.mfdm, "dft_coefficients", no_filter)
        recipe = ('gen:{"kind":"tone_mix","n":65536,"sample_rate_hz":128,'
                  '"params":{"channels":[[0],[1],[2],[3]]}}')
        assert main(["mfdm", "--input", recipe, "--m", "1000",
                     "--levels", "10000", "--out", str(tmp_path / "m")]) == 2
        assert ("a bank of 10000 levels x 4 channels x 65536 samples would "
                "hold more than 134217728 values") in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("levels", [40_000_000, 10**12])
    def test_bank_over_the_value_budget_refused_before_the_ladder(
            self, tmp_path, capsys, monkeypatch, levels):
        # m=1e12 keeps r within 1e-12 of 1, so the record resolves about
        # 4e12 levels; 4e7 rungs take minutes and GBs to build, and 1e12
        # cannot be held at all
        def no_ladder(*args):
            raise AssertionError("the ladder was built")
        monkeypatch.setattr(fdmkit.mfdm, "cutoff_schedule", no_ladder)
        recipe = ('gen:{"kind":"white_gaussian","n":128,"sample_rate_hz":64,'
                  '"seed":1}')
        start = time.perf_counter()
        assert main(["mfdm", "--input", recipe, "--m", "1e12", "--levels",
                     str(levels), "--out", str(tmp_path / "m")]) == 2
        assert time.perf_counter() - start < 1.0
        assert (f"a bank of {levels} levels x 1 channels x 128 samples would "
                "hold more than 134217728 values") in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


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

    def test_bad_freq_bin(self, tmp_path, capsys):
        for df in ("0", "inf", "x"):
            assert main(["tfe", "--input", TONE_RECIPE, "--freq-bin", df,
                         "--out", str(tmp_path / "t")]) == 2
            assert f"--freq-bin must be > 0 and finite, got {df}" in \
                capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_is_never_held_whole(self, tmp_path, fmt):
        # 201 x 16,384 float64 cells are 25.1 MiB; the writer takes a few
        # rows of them at a time, in either format
        chirp = 'gen:{"kind":"linear_chirp","n":16384,"sample_rate_hz":100}'
        tracemalloc.start()
        try:
            assert main(["tfe", "--input", chirp, "--scan", "htl",
                         "--freq-bin", "0.25", "--format", fmt,
                         "--out", str(tmp_path), "--no-timestamp"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 201 * 16384 * 8 / 2

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

    @pytest.mark.parametrize("df", ["0", "-1", "nan", "inf"])
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
            raise ContractError("synthetic")
        monkeypatch.setattr(cli, "cmd_decompose", boom)
        assert main(["decompose", "--input", TONE_RECIPE,
                     "--out", str(tmp_path / "o")]) == 3
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [10**12, 10**20])
    def test_oversized_recipe_maps_to_two(self, tmp_path, capsys, n):
        recipe = f'gen:{{"kind":"tone_mix","n":{n},"sample_rate_hz":100}}'
        assert main(["generate", "--input", recipe,
                     "--out", str(tmp_path / "g")]) == 2
        assert f"n must be in [2, 134217728], got {n}" in capsys.readouterr().err

    def test_over_budget_scan_maps_to_two(self, tmp_path, capsys):
        # the least n whose scan tables, the probe head's and the
        # checks' windows, pass MAX_VALUES (test_fdm.TestScanBudget),
        # refused before the DFT
        n = 1765375
        recipe = f'gen:{{"kind":"tone_mix","n":{n},"sample_rate_hz":100}}'
        assert main(["decompose", "--input", recipe,
                     "--out", str(tmp_path / "o")]) == 2
        assert (f"scanning {n} samples needs 134217740 float64 values"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

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

    def test_overflowing_recipe_maps_to_two(self, tmp_path, capsys):
        recipe = 'gen:{"kind":"linear_chirp","n":64,"sample_rate_hz":1e-300}'
        assert main(["decompose", "--input", recipe,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "linear_chirp at 1e-300 Hz overflows" in err
        assert "NaN" not in err
        assert not (tmp_path / "o").exists()

    def test_signal_too_short_maps_to_two(self, tmp_path, capsys):
        assert main(["decompose",
                     "--input", 'gen:{"kind":"model_wave","n":3,"sample_rate_hz":10}',
                     "--out", str(tmp_path / "o")]) == 2


class TestParserReuse:
    """main() parses with one parser per process; no call leaves in it
    anything that a later call reads."""

    CASES = {
        "format": (["decompose", "--input", TONE_RECIPE, "--format", "json"],
                   ["decompose", "--input", TONE_RECIPE]),
        "seed": (["generate", "--input", NOISE_RECIPE, "--seed", "3"],
                 ["generate", "--input", NOISE_RECIPE]),
        "cutoffs": (["mfdm", "--input", TONE_RECIPE, "--cutoffs", "30,10"],
                    ["mfdm", "--input", TONE_RECIPE, "--levels", "2"]),
        "bad-argument": (["decompose", "--input", TONE_RECIPE, "--levels", "2"],
                         ["decompose", "--input", TONE_RECIPE]),
    }

    @staticmethod
    def outputs(argv, out) -> dict:
        assert main([*argv, "--out", str(out), "--no-timestamp"]) == 0
        return {name: (out / name).read_bytes() for name in os.listdir(out)}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_consecutive_calls_are_independent(self, tmp_path, capsys, case):
        first, second = self.CASES[case]
        alone = self.outputs(second, tmp_path / "alone")
        rc = main([*first, "--out", str(tmp_path / "first"), "--no-timestamp"])
        assert rc == (2 if case == "bad-argument" else 0)
        assert self.outputs(second, tmp_path / "second") == alone
        # and the cached parser reads the second call as a new one would
        argv = [*second, "--out", "o"]
        assert (vars(cli._parser().parse_args(argv))
                == vars(cli.build_parser().parse_args(argv)))
        if case == "seed":
            summary = json.loads(alone["summary.json"])
            assert summary["seed"] == 5
        if case == "format":
            assert sorted(alone) == ["decomposition.csv", "summary.json"]

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()


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
        cli._atomic_write(str(target), [b"mine\n"])
        assert target.read_text() == "mine\n"
        assert other.read_text() == "other run"

    def test_mode_matches_plain_open(self, tmp_path):
        plain = tmp_path / "plain.csv"
        with open(plain, "w") as fh:
            fh.write("x\n")
        target = tmp_path / "atomic.csv"
        cli._atomic_write(str(target), [b"x\n"])
        assert os.stat(target).st_mode == os.stat(plain).st_mode

    def test_temp_file_removed_on_failure(self, tmp_path, monkeypatch):
        def broken_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(cli.os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk gone"):
            cli._atomic_write(str(tmp_path / "t.csv"), [b"x\n"])
        assert os.listdir(tmp_path) == []
