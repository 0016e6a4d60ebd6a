"""CSV and JSON tables: CSV ingest and the table writer.

``ingest_csv`` reads a record from a CSV file with a header row, and
``_write_table`` writes a table of float columns as CSV or JSON, each
cell printed as repr would print it. The command-line front end
(``fdmkit.cli``) reads and writes every record through here.
"""

import array
import contextlib
import csv
import itertools
import json
import logging
import os
import re
from io import StringIO

import numpy as np
import orjson

from .errors import IngestionError, ParameterError
from .spectral import MultichannelSignal, Signal

# the commands' logger, which names every file they write
log = logging.getLogger("fdmkit.cli")

SCHEMA_VERSION = 1
_REL_TOL = 1e-6


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def ingest_csv(path: str, sample_rate_hz: float | None = None):
    """Read a record from CSV.

    The file is read as UTF-8. The first row must be a header. A first
    column named ``t`` supplies sample times, which must be uniform to
    within a 1e-6 relative tolerance; the sample rate is then 1 / dt
    and a --fs flag, if also given, must agree to the same tolerance.
    Without a ``t`` column the sample rate must come from the caller.
    Every other column is one channel. Error messages cite 1-based file
    rows, header included.

    The file is read once. orjson reads the data rows, one block of
    whole lines per call, as JSON arrays. From the first block it might
    read otherwise than Python's float (a cell such as ``+1``, ``.5``,
    ``-0``, ``1_000`` or ``"2"``, a blank row between data rows, a row
    of the wrong width, a field longer than the csv module's limit), the
    row loop reads the rest with float, which accepts every spelling.
    Each reader numbers the rows it reads, and both parse each cell to
    the same double.
    """
    header, values, rownums = _read_table(path)
    _check_table(path, header, values, rownums)

    if header[0].lower() == "t":
        t, *channels = values.T
        # a Python float: a step too small to invert gives inf, no warning
        fs = _agree(sample_rate_hz, 1.0 / float(t[1] - t[0]), "the t column")
        start_time = float(t[0])
        if not channels:
            raise IngestionError(f"{path}: only a t column, no data columns")
    elif sample_rate_hz is None:
        raise ParameterError("--fs is required when the CSV has no t column")
    else:
        fs, start_time, channels = sample_rate_hz, 0.0, list(values.T)

    signals = tuple(Signal(c, fs, start_time) for c in channels)
    return signals[0] if len(signals) == 1 else MultichannelSignal(signals)


# data rows are read this many characters at a time, about 4,096 cells
# of full-precision doubles, each read completed to a line end; reads of
# _CHUNK_CELLS cells left peak RSS about 2 MB higher
_READ_CHARS = 20 * 4096
# what the data rows orjson reads may hold: digits, number signs,
# separators and the blanks both readers skip
_NUMBER_BYTES = b"0123456789.eE+-, \t\n"
# the JSON integer -0, which orjson reads as 0, where float gives -0.0
_JSON_NEG_ZERO = re.compile(rb"-0(?![0-9.eE])")


def _read_table(path: str):
    """The header, the (rows, columns) values and the 1-based file row
    of each data row of a CSV table, read in one pass."""
    # a leading byte-order mark is read away; bytes that are not UTF-8
    # are read as lone surrogates, so that the row holding them can be
    # named
    with open(path, newline="", encoding="utf-8-sig",
              errors="surrogateescape") as fh:
        header_row, header = _header(path, _rows(fh))
        ncol = len(header)
        refused = ""

        def blocks():
            # under newline="" a CR, an LF and a CRLF each end a line, so
            # every block is whole lines
            nonlocal refused
            while text := fh.read(_READ_CHARS):
                last = len(text) < _READ_CHARS
                text += fh.readline()
                try:
                    numbers = _json_numbers(text, ncol, last)
                except ValueError:
                    refused = text
                    return
                yield numbers

        values = np.fromiter(itertools.chain.from_iterable(blocks()),
                             np.float64).reshape(-1, ncol)
        # orjson's blocks hold no blank row, so its rows are consecutive
        rownums = range(header_row + 1, header_row + 1 + len(values))
        if refused:
            rows = _rows(itertools.chain(StringIO(refused, newline=""), fh),
                         rownums.stop)
            more, more_rows = _row_loop(rows, header, len(values))
            values = np.concatenate([values, more])
            rownums = array.array("q", itertools.chain(rownums, more_rows))
    return header, values, rownums


def _json_numbers(text: str, ncol: int, last: bool) -> list:
    """The cells of whole CSV lines of ``ncol`` cells, read as one JSON
    array; ValueError where that reading might not be the row loop's."""
    data = text.encode("ascii")
    if b"\r" in data:
        # CRLF and lone CR row ends, as the csv module reads them
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    # blank rows at the end of the file, the ``last`` block's, are no
    # data on either route; any other blank row is the row loop's
    data = data.rstrip(b"\n") if last else data.removesuffix(b"\n")
    if not data:
        return []
    a = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((a == 44) | (a == 10))
    ends = np.append(a[seps] == 10, True)  # whether a field ends its row
    # the row loop's alone: quotes, words, -0, a row of the wrong width
    # (a blank row among them) and a field over the csv module's limit
    if (data.translate(None, _NUMBER_BYTES) or _JSON_NEG_ZERO.search(data)
            or ends.size % ncol
            or (ends.reshape(-1, ncol) != (np.arange(ncol) == ncol - 1)).any()
            or np.diff(seps, prepend=-1, append=a.size).max()
            > csv.field_size_limit() + 1):
        raise ValueError("left to the row loop")
    numbers = orjson.loads(b"[" + data.replace(b"\n", b",") + b"]")
    if len(numbers) != ends.size:  # one blank row alone reads as []
        raise ValueError("left to the row loop")
    return numbers


def _row_loop(rows, header: list, done: int):
    """The values and file rows of the data rows of ``rows``, parsed one
    by one with Python's float, after ``done`` data rows."""
    ncol = len(header)
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
        if _blank(row):
            continue
        # a bad row is reported only once a second data row exists;
        # a file with fewer is refused for that first
        if error is not None:
            raise error
        error = _row_error(rownum, row, header)
        if done or rownums:
            raise error
    return np.frombuffer(flat, dtype=np.float64).reshape(-1, ncol), rownums


def _rows(lines, start: int = 1):
    """Each CSV row of ``lines`` with its file row, counted from
    ``start``; a row the csv module cannot read is refused by number."""
    reader = csv.reader(lines)
    for rownum in itertools.count(start):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as e:
            raise IngestionError(f"row {rownum}: {e}") from None
        yield rownum, row


def _header(path: str, rows):
    """The file row and stripped cells of the first non-blank row."""
    for header_row, header in rows:
        if not _blank(header):
            break
    else:
        raise IngestionError(f"{path}: file holds no rows")
    if not _utf8(header):
        raise IngestionError(f"row {header_row}: not valid UTF-8")
    header = [c.strip() for c in header]
    if _unparsable(header) is None:
        raise IngestionError(
            f"row {header_row}: looks like data; a header row is required"
        )
    return header_row, header


def _check_table(path: str, header: list, values: np.ndarray, rownums):
    """Refuse a parsed table at the first check it fails, naming the
    file row (``rownums`` holds each data row's) that fails it."""
    if len(values) < 2:
        raise IngestionError(f"{path}: need at least 2 data rows")
    for k, name in enumerate(header):
        bad = np.flatnonzero(~np.isfinite(values[:, k]))
        if bad.size:
            raise IngestionError(f"row {rownums[bad[0]]}, column {name!r}: "
                                 "non-finite value")
    if header[0].lower() == "t":
        # times near the largest double make steps that overflow; these
        # checks judge them without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            dt = np.diff(values[:, 0])
            off = np.flatnonzero(np.abs(dt - dt[0]) > _REL_TOL * abs(dt[0]))
        if dt[0] <= 0:
            raise IngestionError(
                f"row {rownums[1]}: time must increase, step is {dt[0]}")
        if not np.isfinite(dt[0]):
            raise IngestionError(
                f"row {rownums[1]}: time step overflows float64")
        if off.size:
            raise IngestionError(
                f"row {rownums[off[0] + 1]}: time step {float(dt[off[0]])!r} "
                f"deviates from {float(dt[0])!r} by more than {_REL_TOL:g} "
                "relative")


def _blank(row) -> bool:
    return not any(cell.strip() for cell in row)


def _utf8(cells) -> bool:
    """Whether ``cells`` were decoded from valid UTF-8."""
    try:
        "".join(cells).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _unparsable(cells):
    """Index of the first cell that is not a number, or None."""
    for i, cell in enumerate(cells):
        try:
            float(cell)
        except ValueError:
            return i
    return None


def _row_error(rownum: int, row: list, header: list) -> IngestionError:
    """Why a non-blank data row does not parse."""
    if not _utf8(row):
        return IngestionError(f"row {rownum}: not valid UTF-8")
    bad = _unparsable(row) if len(row) == len(header) else None
    if bad is not None:
        return IngestionError(
            f"row {rownum}, column {header[bad]!r}: "
            f"could not parse {row[bad].strip()!r} as a number"
        )
    return IngestionError(
        f"row {rownum}: expected {len(header)} columns, found {len(row)}"
    )


def _agree(flag_fs, fs: float, source: str) -> float:
    """The record's own rate ``fs``; --fs, if given, must agree with it."""
    if flag_fs is not None and not abs(flag_fs - fs) <= _REL_TOL * fs:
        raise ParameterError(
            f"--fs {flag_fs} disagrees with {source}, which gives {fs} Hz"
        )
    return fs


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

# cells per chunk, in CSV and JSON alike: each chunk is one orjson call,
# one comma scan and one write, so the per-chunk calls are lost in the
# formatting, while the chunk's text (about 18 bytes a cell for
# full-precision doubles, 25 in JSON: 1.2-1.6 MB) and its scratch arrays
# stay small beside the table
_CHUNK_CELLS = 1 << 16

# a run of at least this many +0.0 cells in one row is written as
# repeated text, not formatted: on the sparse tfe grid nearly every cell
# lies in such a run, while a table narrower than this takes no mask
_ZERO_RUN = 64

# how each format separates the cells of a row and ends a row, and how
# it spells the repr of a non-finite cell
_LAYOUT = {
    "csv": (b",", b"\n", {}),
    "json": (b",\n      ", b"\n    ],\n    [\n      ",
             {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}),
}


def _csv_rows(block: np.ndarray, fmt: str = "csv"):
    """CSV lines of a C-contiguous float64 block, each cell repr(v), as
    bytes-like ASCII text; with ``fmt`` "json", the rows of a JSON table
    laid out as ``_write_json`` lays them out, each ended as if another
    row followed (``_json_rows`` frames them), with nan and inf spelled
    NaN and Infinity.

    One orjson call prints the flattened block as ``[v,v,...,v]``; in
    that buffer every ncol-th comma then marks a row end, and so does
    the closing bracket. orjson prints the shortest round-trip digits,
    as repr does, and in the same fixed notation for 1e-4 <= |v| < 1e16
    and zero. Outside that range its notation differs (``1e16``,
    ``0.00001``) and it prints nan and inf as null, so such a cell is
    spliced in from repr instead.

    In a block of at least _ZERO_RUN columns, each run of at least
    _ZERO_RUN +0.0 cells within one row (-0.0 cuts a run) goes to
    orjson as its last cell only, and that cell's text is spliced over
    with the run's ``0.0,...,0.0``, built by repeating ``0.0`` and the
    format's cell separator.
    """
    comma, newline, names = _LAYOUT[fmt]
    flat = block.reshape(-1)
    ncol = block.shape[1]
    cells, width = flat, None
    if ncol >= _ZERO_RUN:
        keep, width = _zero_runs(flat, ncol)
        cells = flat[keep]
    mag = np.abs(cells)
    spliced = ((mag < 1e-4) & (mag != 0)) | ~(mag < 1e16)
    if width is not None:
        spliced |= width > 1
    spliced = np.flatnonzero(spliced)
    buf = bytearray(orjson.dumps(cells, option=orjson.OPT_SERIALIZE_NUMPY))
    buf[-1] = ord(",")  # so that every cell, the last too, ends at a comma
    chars = np.frombuffer(buf, dtype=np.uint8)
    ends = np.flatnonzero(chars == ord(","))
    # the kept cells that end a row: every row's last cell is kept, the
    # last of a run that ends it too
    row_ends = np.arange(ncol - 1, flat.size, ncol)
    if width is not None:
        row_ends = np.searchsorted(keep, row_ends)
    # JSON's separators hold commas and newlines, so its row ends wait
    # as ";", a byte no cell holds, while the commas expand
    chars[ends[row_ends]] = ord("\n" if fmt == "csv" else ";")
    starts = np.where(spliced > 0, ends[spliced - 1] + 1, 1)
    stops = ends[spliced]
    if fmt != "csv":
        buf = buf.replace(b",", comma).replace(b";", newline)
        # before cell i lie i separators, r of them row ends
        r = np.searchsorted(row_ends, spliced)
        shift = spliced * (len(comma) - 1) + r * (len(newline) - len(comma))
        starts += shift
        stops += shift
    text = memoryview(buf)
    if not spliced.size:
        return text[1:]
    widths = itertools.repeat(1) if width is None else width[spliced].tolist()
    zero = b"0.0" + comma
    pieces, prev = [], 1
    for start, stop, v, w in zip(starts.tolist(), stops.tolist(),
                                 cells[spliced].tolist(), widths):
        if w == 1:
            cell = repr(v)
            cell = names.get(cell, cell).encode()
        else:  # the last cell of a run of w zeros
            cell = memoryview(zero * w)[:-len(comma)]
        pieces += [text[prev:start], cell]
        prev = stop
    pieces.append(text[prev:])
    return b"".join(pieces)


def _zero_runs(flat: np.ndarray, ncol: int):
    """The flat indices of the cells of a block of ``ncol`` columns
    that ``_csv_rows`` formats, and how many cells each stands for.

    Each run of at least _ZERO_RUN +0.0 cells within one row is kept as
    its last cell, which stands for the whole run; every other cell
    stands for itself.
    """
    # +0.0 is the one double whose bits are all zero; a False cell
    # before and after each row cuts every run at the row's ends
    z = np.zeros((flat.size // ncol, ncol + 2), dtype=bool)
    z[:, 1:-1] = (flat.view(np.int64) == 0).reshape(-1, ncol)
    z = z.reshape(-1)
    edges = np.flatnonzero(z[1:] != z[:-1])
    edges -= edges // (ncol + 2) * 2  # to flat indices of the block
    first, stop = edges[0::2], edges[1::2]
    long = stop - first >= _ZERO_RUN
    first, stop = first[long], stop[long]
    # the kept cells are [0, first[0]), [stop[0] - 1, first[1]), ...,
    # [stop[-1] - 1, flat.size): each run's last cell opens a segment
    lo = np.append(0, stop - 1)
    size = np.append(first, flat.size) - lo
    at = np.cumsum(size)
    keep = np.arange(at[-1]) + np.repeat(lo - at + size, size)
    width = np.ones(keep.size, dtype=np.int64)
    width[at[:-1]] = stop - first
    return keep, width


def _atomic_write(path: str, chunks):
    """Write the bytes-like ``chunks``, in order, to ``path`` atomically."""
    # a temp file of this call's own next to the target, so concurrent
    # runs into one --out directory never share a temp file; os.open
    # with 0o666 gives it the same umask-derived mode as open()
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    log.info("wrote %s", path)


def _grid_header(t_axis: np.ndarray) -> bytes:
    """The CSV header row of the tfe grid: ``f_hz``, then repr(t) of
    each time, formatted by ``_csv_rows``."""
    if not t_axis.size:
        return b"f_hz,"
    line = _csv_rows(np.ascontiguousarray(t_axis, dtype=np.float64)[None, :])
    return b"f_hz," + line[:-1]


def _write_table(out_dir: str, stem: str, header: list, columns: list,
                 fmt: str) -> str:
    """Write a table with one name per column; returns the file name.

    ``header`` is the list of names, of which none may hold a comma
    (ValueError), or the CSV bytes of the header row. Each entry of
    ``columns`` is a 1-D array (one column) or a 2-D array (its
    columns, in order); all have the same number of rows. Both formats
    are written one chunk of rows at a time, formatted by
    ``_csv_rows``; JSON frames them to the bytes ``_write_json`` gives
    the whole document (nan and inf spelled NaN and Infinity).
    """
    nrows = len(columns[0])
    line = header if isinstance(header, bytes) else ",".join(header).encode()
    ncol = line.count(b",") + 1
    if not isinstance(header, bytes) and ncol != len(header):
        raise ValueError(f"a column name holds a comma: {header}")
    step = max(1, _CHUNK_CELLS // ncol)
    blocks = (_csv_rows(np.ascontiguousarray(
        np.column_stack([c[i:i + step] for c in columns]), dtype=np.float64),
        fmt) for i in range(0, nrows, step))
    if fmt == "csv":
        chunks = itertools.chain([line + b"\n"], blocks)
    else:
        # the rows take the place of the null line of a one-row
        # document; a quoted header name never prints as that line
        doc = {"schema_version": SCHEMA_VERSION,
               "columns": line.decode().split(","),
               "rows": [None] if nrows else []}
        head, _, tail = (json.dumps(doc, sort_keys=True, indent=2)
                         + "\n").encode().partition(b"\n    null")
        chunks = itertools.chain([head], _json_rows(blocks), [tail])
    name = f"{stem}.{fmt}"
    _atomic_write(os.path.join(out_dir, name), chunks)
    return name


def _json_rows(blocks):
    """The rows of a JSON table, indented as in ``_write_json``'s
    document, from the JSON text of each block of rows."""
    # a block ends its last row as if another row followed; that row's
    # opening, ``sep``, is cut from it and written before the next block
    sep = b"\n    [\n      "
    for text in blocks:
        yield sep
        sep = b",\n    [\n      "
        yield memoryview(text)[:-len(sep)]


def _write_json(path: str, doc: dict):
    """Write ``doc``, stamped with SCHEMA_VERSION, as a JSON document."""
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    _atomic_write(path, [(json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()])
