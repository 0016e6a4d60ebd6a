"""The table writer prints every float exactly as repr does.

``reference_csv``/``reference_json`` are the per-value writer the CSV
and JSON tables were first produced with; the fast writer must give the
same bytes on every table shape, including rows that straddle its
chunk boundaries and cells whose repr uses exponent notation.
"""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdmkit.cli as cli
from fdmkit import TfePoints, rasterize

# cells per formatting chunk in the writer; test_chunk_size_is_pinned
# keeps this in step with cli._CHUNK_CELLS
CHUNK_CELLS = 1 << 16
# the fewest +0.0 cells in one row that the writer copies as one run;
# test_zero_run_is_pinned keeps this in step with cli._ZERO_RUN
ZERO_RUN = 64
FORMATS = ("csv", "json")

TINY = np.nextafter(0.0, 1.0)
EDGES = [
    0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308,
    np.nextafter(2.2250738585072014e-308, 0.0),
    np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0),
    -np.nextafter(1e-4, 0.0), -1e-4, -np.nextafter(1e-4, 1.0),
    np.nextafter(1e16, 0.0), 1e16, np.nextafter(1e16, np.inf),
    -np.nextafter(1e16, 0.0), -1e16, -np.nextafter(1e16, np.inf),
    np.finfo(np.float64).max, np.inf, -np.inf, np.nan, 0.1, -2.5,
]
# cells whose repr orjson does not print: spliced in beside zero runs
ODD = [1e-7, np.nan, np.inf, -np.inf, 1e16, -1e-7]


def reference_csv(header, columns) -> str:
    ncols = len(columns)
    nrows = columns[0].size if ncols else 0
    lines = [",".join(header)]
    for i in range(nrows):
        lines.append(",".join(repr(float(columns[k][i])) for k in range(ncols)))
    return "\n".join(lines) + "\n"


def reference_json(header, columns) -> str:
    ncols = len(columns)
    nrows = columns[0].size if ncols else 0
    doc = {
        "schema_version": cli.SCHEMA_VERSION,
        "columns": header,
        "rows": [[float(columns[k][i]) for k in range(ncols)]
                 for i in range(nrows)],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def written_bytes(out_dir, header, columns, fmt="csv") -> bytes:
    name = cli._write_table(str(out_dir), "table", header, columns, fmt)
    with open(os.path.join(out_dir, name), "rb") as fh:
        return fh.read()


def reference_bytes(out_dir, text) -> bytes:
    # opened the way the writer's temp file is opened
    path = os.path.join(out_dir, "reference")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    with open(path, "rb") as fh:
        return fh.read()


def assert_same_as_reference(out_dir, header, columns, fmt):
    reference = reference_csv if fmt == "csv" else reference_json
    want = reference_bytes(out_dir, reference(header, columns))
    assert written_bytes(out_dir, header, columns, fmt) == want


def table(rng, nrows, ncols):
    return [rng.standard_normal(nrows) for _ in range(ncols)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 5))
@example(EDGES, 1)
@example(EDGES, 4)
@example([np.nan] * 3 + [1.5, 2.5, 3.5], 3)
def test_every_cell_is_repr(values, ncols):
    values = values + [0.0] * (-len(values) % ncols)
    block = np.array(values, dtype=np.float64).reshape(-1, ncols)
    columns = [block[:, k].copy() for k in range(ncols)]
    header = [f"c{k}" for k in range(ncols)]
    with tempfile.TemporaryDirectory() as out:
        lines = written_bytes(out, header, columns).decode().split("\n")
    assert lines[0] == ",".join(header)
    assert lines[-1] == ""
    cells = [line.split(",") for line in lines[1:-1]]
    assert cells == [[repr(float(v)) for v in row] for row in block.tolist()]


def test_tall_table_with_tiny_values(tmp_path):
    # 65,536 x 9 like an mfdm channel table; about 1% of the cells get
    # exponent notation in repr
    rng = np.random.default_rng(1)
    columns = table(rng, 65536, 9)
    for c in columns[1:]:
        c[rng.random(c.size) < 0.002] *= 1e-7
        c[rng.random(c.size) < 0.001] = 0.0
        c[rng.random(c.size) < 0.001] = -0.0
    columns[0] = np.arange(65536) / 128.0
    header = ["t", "x"] + [f"band{i}" for i in range(1, 7)] + ["residue"]
    for fmt in FORMATS:
        assert_same_as_reference(tmp_path, header, columns, fmt)


def test_wide_table(tmp_path):
    # 51 x 16,385 like the tfe grid: a frequency column, then one mostly
    # empty column of cell energies per sample
    rng = np.random.default_rng(2)
    t = np.arange(16384) / 100.0
    f = np.arange(51) * 1.0
    cells = np.where(rng.random((51, 16384)) < 0.05,
                     rng.exponential(size=(51, 16384)), 0.0)
    header = ["f_hz"] + [repr(float(v)) for v in t]
    columns = [f] + [cells[:, j] for j in range(t.size)]
    for fmt in FORMATS:
        assert_same_as_reference(tmp_path, header, columns, fmt)


def test_one_row(tmp_path):
    rng = np.random.default_rng(3)
    for fmt in FORMATS:
        assert_same_as_reference(tmp_path, list("abcdefg"),
                                 [c[:1] for c in table(rng, 1, 7)], fmt)


def test_one_column(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(1000) * 10.0 ** rng.integers(-8, 20, 1000)
    for fmt in FORMATS:
        assert_same_as_reference(tmp_path, ["x"], [x], fmt)


@pytest.mark.parametrize("ncols", [1, 3, 7])
@pytest.mark.parametrize("shift", [-1, 0, 1])
@pytest.mark.parametrize("chunks", [1, 2])
def test_rows_around_a_chunk_boundary(tmp_path, ncols, shift, chunks):
    rows_per_chunk = CHUNK_CELLS // ncols
    nrows = chunks * rows_per_chunk + shift
    rng = np.random.default_rng(ncols * 10 + shift + chunks)
    columns = table(rng, nrows, ncols)
    columns[-1][::97] *= 1e-9  # exponent rows on both sides of the boundary
    for fmt in FORMATS:
        assert_same_as_reference(tmp_path, [f"c{k}" for k in range(ncols)],
                                 columns, fmt)


def test_chunk_size_is_pinned():
    assert cli._CHUNK_CELLS == CHUNK_CELLS


def test_zero_run_is_pinned():
    assert cli._ZERO_RUN == ZERO_RUN


def zero_run_rows(ncols, length):
    """Eight rows of ``ncols`` columns holding runs of ``length`` +0.0
    cells: one opening a row, one ending a row, one inside a row, one
    across a row seam and one cut by a -0.0, each between odd cells
    where it has a neighbour; then a row of zeros only."""
    rng = np.random.default_rng(ncols * 1000 + length)
    flat = rng.standard_normal(8 * ncols)
    starts = [0, 2 * ncols - length, 2 * ncols + (ncols - length) // 2,
              4 * ncols - length // 2, 5 * ncols + 1]
    odd = iter(ODD * len(starts))
    for start in starts:
        for k in (start - 1, start + length):
            if 0 <= k < flat.size:
                flat[k] = next(odd)
    for start in starts:
        flat[start:start + length] = 0.0
    flat[5 * ncols + 1 + length // 2] = -0.0
    flat[6 * ncols:7 * ncols] = 0.0
    return flat.reshape(8, ncols)


@pytest.mark.parametrize("ncols", [ZERO_RUN - 1, ZERO_RUN, ZERO_RUN + 1, 300])
@pytest.mark.parametrize("length", [ZERO_RUN - 1, ZERO_RUN, ZERO_RUN + 1])
def test_zero_runs(tmp_path, ncols, length):
    block = zero_run_rows(ncols, length)
    header = [f"c{k}" for k in range(ncols)]
    for fmt in FORMATS:
        assert_same_as_reference(tmp_path, header, list(block.T), fmt)


def test_zero_run_wider_than_a_chunk(tmp_path):
    # one row a chunk, holding a run of more than CHUNK_CELLS zeros
    row = np.zeros(CHUNK_CELLS + 2 * ZERO_RUN)
    row[[0, 100]] = [1e-7, 2.5]
    header = [f"c{k}" for k in range(row.size)]
    for fmt in FORMATS:
        assert_same_as_reference(tmp_path, header, list(row[:, None]), fmt)


@settings(max_examples=100, deadline=None)
@given(st.integers(ZERO_RUN, 3 * ZERO_RUN), st.integers(1, 6),
       st.lists(st.tuples(st.one_of(st.just(0.0), st.just(-0.0), st.floats()),
                          st.integers(1, 4 * ZERO_RUN)), min_size=1))
def test_sparse_blocks(ncols, nrows, runs):
    # runs of repeated values, many of them +0.0, laid over the rows
    values = np.repeat([v for v, _ in runs], [n for _, n in runs])
    block = np.zeros(nrows * ncols)
    block[:values.size] = values[:block.size]
    block = block.reshape(nrows, ncols)
    header = [f"c{k}" for k in range(ncols)]
    with tempfile.TemporaryDirectory() as out:
        for fmt in FORMATS:
            assert_same_as_reference(out, header, list(block.T), fmt)


def cells_to_orjson(monkeypatch) -> list:
    """The number of cells of each orjson.dumps call made from here on."""
    counts = []
    dumps = cli.orjson.dumps

    def spy(obj, *args, **kwargs):
        counts.append(len(obj))
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(cli.orjson, "dumps", spy)
    return counts


def test_zero_runs_skip_orjson(tmp_path, monkeypatch):
    # a 3 x 16,385 grid with one 300-cell span of energies per row: only
    # the label, the span and one cell per zero run reach orjson
    rng = np.random.default_rng(9)
    cells = np.zeros((3, 16384))
    for r, lo in enumerate([0, 7000, 16084]):
        cells[r, lo:lo + 300] = rng.exponential(size=300)
    f = np.arange(3) * 0.5 + 0.5
    header = ["f_hz"] + [f"t{j}" for j in range(16384)]
    sent = cells_to_orjson(monkeypatch)
    for fmt in FORMATS:
        sent.clear()
        assert_same_as_reference(tmp_path, header, [f, *cells.T], fmt)
        # each row's label and span, and one cell for each of the four
        # zero runs, where formatting every cell sends 49,155
        assert sum(sent) <= 3 * 301 + 4


@pytest.mark.parametrize("length, sent", [(ZERO_RUN - 1, ZERO_RUN + 1),
                                          (ZERO_RUN, 3)])
def test_shortest_zero_run_skips_orjson(monkeypatch, length, sent):
    row = np.r_[1.5, np.zeros(length), 2.5][None, :]
    counts = cells_to_orjson(monkeypatch)
    assert bytes(cli._csv_rows(row)) == b"1.5," + b"0.0," * length + b"2.5\n"
    assert counts == [sent]


def test_non_ascii_header(tmp_path):
    header = ["t", "Δx", "größe", "通道"]
    columns = table(np.random.default_rng(5), 10, 4)
    for fmt in FORMATS:
        assert_same_as_reference(tmp_path, header, columns, fmt)


def test_empty_table(tmp_path):
    for fmt in FORMATS:
        assert_same_as_reference(tmp_path, ["t", "x"],
                                 [np.zeros(0), np.zeros(0)], fmt)


def test_block_of_columns_matches_separate_columns(tmp_path):
    # a 2-D array passed as one entry stands for its columns, in order
    rng = np.random.default_rng(6)
    f = np.arange(51) * 0.5
    cells = rng.standard_normal((51, 300))
    cells[::5, ::7] = 1e-300
    header = ["f_hz"] + [f"t{j}" for j in range(300)]
    split = [f] + [cells[:, j] for j in range(300)]
    for fmt in ("csv", "json"):
        assert (written_bytes(tmp_path, header, [f, cells], fmt)
                == written_bytes(tmp_path, header, split, fmt))


def grid_case():
    """A 29 x 8,191 grid, 8 rows to a writer chunk, and points that
    land many to a cell, past both ends of both axes, and on no row of
    the second chunk; the amplitudes span 16 decades, so a cell's sum
    depends on the order its points are added in."""
    rng = np.random.default_rng(8)
    t_axis = np.arange(8191) / 2.0
    f_axis = np.arange(29) * 0.75
    n = 40_000
    times = t_axis[rng.integers(0, 64, n)] + rng.uniform(-0.2, 0.2, n)
    times[::101] = -3.0
    times[1::101] = t_axis[-1] + 5.0
    rows = rng.choice(np.r_[0:8, 16:29], n)
    freqs = f_axis[rows] + rng.uniform(-0.3, 0.3, n)
    freqs[2::101] = -5.0
    freqs[3::101] = 1e3
    points = TfePoints(
        times_s=times, freqs_hz=freqs,
        amplitudes=rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n),
        fibf_index=np.zeros(n, dtype=np.int64), sample_rate_hz=2.0)
    return points, t_axis, f_axis


@pytest.mark.parametrize("mode", ["energy", "amplitude"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_grid_matches_the_whole_grid(tmp_path, monkeypatch, mode, fmt):
    points, t_axis, f_axis = grid_case()
    header = ["f_hz"] + [f"t{j}" for j in range(t_axis.size)]
    whole = rasterize(points, t_axis, f_axis, mode).cells
    blocks = []

    def spy(points, time_axis, freq_axis, mode):
        blocks.append((freq_axis.size, points.n_points))
        return rasterize(points, time_axis, freq_axis, mode)

    monkeypatch.setattr(cli, "rasterize", spy)
    streamed = cli._GridRows(points, t_axis, f_axis, mode)
    assert (written_bytes(tmp_path, header, [f_axis, streamed], fmt)
            == written_bytes(tmp_path, header, [f_axis, whole], fmt))
    assert [size for size, _ in blocks] == [8, 8, 8, 5]
    assert blocks[1][1] == 0
    assert sum(count for _, count in blocks) == points.n_points


def test_json_format_unchanged(tmp_path):
    rng = np.random.default_rng(7)
    columns = table(rng, 200, 4)
    columns[1][::3] = [np.nan, np.inf, -0.0, 1e-300, 1e300, 5e-324, 1e16] * 9 + [0.0] * 4
    header = ["t", "x", "y", "z"]
    want = reference_bytes(tmp_path, reference_json(header, columns))
    assert written_bytes(tmp_path, header, columns, "json") == want


@pytest.mark.parametrize("values", [
    np.array(EDGES),
    np.arange(16384) / 100.0,
    3.0 + np.arange(500) / 7e5,  # a clock whose labels need many digits
    np.arange(64) * 1e-6,  # repr's exponent notation on every label but 0
    np.array([]),
], ids=["edges", "grid-axis", "offset-clock", "tiny-steps", "empty"])
def test_grid_labels_are_repr(values):
    # the tfe grid's header row, written as bytes with no label a str
    want = "f_hz," + ",".join(map(repr, values.tolist()))
    assert cli._grid_header(values) == want.encode()
