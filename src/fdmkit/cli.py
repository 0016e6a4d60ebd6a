"""Command-line front end.

Subcommands map one-to-one onto the library operations: ``decompose``,
``mfdm``, ``tfe``, ``marginal``, ``energy``, and ``generate``. Input is
either a CSV file (header row mandatory; a leading ``t`` column fixes
the clock, otherwise --fs must be given) or an inline generator recipe
``gen:{...json...}``. Every run writes its tables plus a
``summary.json`` into --out. Floats are printed with repr, the
shortest string that round-trips, so a rerun with --no-timestamp is
byte-identical and re-ingesting an output CSV reproduces the samples
exactly.

Exit codes: 0 success, 2 bad input or parameters, 3 internal contract
violation, 4 filesystem trouble.
"""

import argparse
import array
import contextlib
import csv
import dataclasses
import functools
import itertools
import json
import logging
import math
import os
import re
import sys
from datetime import datetime, timezone
from io import StringIO

import numpy as np
import orjson

from .errors import ContractError, IngestionError, InputError, ParameterError
from .fdm import FdmConfig, decompose
from .mfdm import CutoffSchedule, _record_schedule, mfdm_decompose
from .siggen import GeneratorSpec, generate
from .spectral import MAX_VALUES, MultichannelSignal, Signal
from .tfe import (_nearest_index, fhs, instantaneous_energy,
                  marginal_spectrum, rasterize)

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
    fault = _fault(path, header, values)
    if fault:
        i, message = fault
        raise IngestionError(
            message if i is None else f"row {rownums[i]}{message}")

    start_time = 0.0
    ncol = len(header)
    if header[0].lower() == "t":
        t = values[:, 0]
        # a Python float: a step too small to invert gives inf, no warning
        fs = _agree(sample_rate_hz, 1.0 / float(t[1] - t[0]), "the t column")
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


def _fault(path: str, header: list, values: np.ndarray):
    """The first check a parsed table fails, as (the index of the data
    row to name, or None for the whole file; the message), or None if
    the table passes them all."""
    if len(values) < 2:
        return None, f"{path}: need at least 2 data rows"
    for k, name in enumerate(header):
        bad = np.flatnonzero(~np.isfinite(values[:, k]))
        if bad.size:
            return int(bad[0]), f", column {name!r}: non-finite value"
    if header[0].lower() == "t":
        # times near the largest double make steps that overflow; these
        # checks judge them without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            dt = np.diff(values[:, 0])
            off = np.flatnonzero(np.abs(dt - dt[0]) > _REL_TOL * abs(dt[0]))
        if dt[0] <= 0:
            return 1, f": time must increase, step is {dt[0]}"
        if not np.isfinite(dt[0]):
            return 1, ": time step overflows float64"
        if off.size:
            return int(off[0]) + 1, (
                f": time step {float(dt[off[0]])!r} deviates "
                f"from {float(dt[0])!r} by more than {_REL_TOL:g} relative")
    return None


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


def _load_input(args):
    """The record --input names, a CSV path or an inline gen:{...}
    recipe, and the seed it was drawn with (None for CSV)."""
    raw = args.input
    if not raw.startswith("gen:"):
        return ingest_csv(raw, args.fs), None
    try:
        recipe = json.loads(raw[4:])
    except json.JSONDecodeError as e:
        raise ParameterError(f"bad generator JSON: {e}") from None
    if not isinstance(recipe, dict):
        raise ParameterError("generator recipe must be a JSON object")
    extra = set(recipe) - {f.name for f in dataclasses.fields(GeneratorSpec)}
    if extra:
        raise ParameterError(
            f"unknown generator recipe keys: {', '.join(sorted(extra))}"
        )
    if recipe.get("kind") is None or recipe.get("n") is None:
        raise ParameterError("generator recipe needs 'kind' and 'n'")
    if recipe.get("sample_rate_hz") is None:
        if args.fs is None:
            raise ParameterError(
                "sample rate missing: set --fs or recipe key 'sample_rate_hz'"
            )
        recipe["sample_rate_hz"] = args.fs
    if args.seed is not None:
        recipe["seed"] = args.seed
    spec = GeneratorSpec(**recipe)
    _agree(args.fs, spec.sample_rate_hz, "the recipe's sample_rate_hz")
    return generate(spec), spec.seed


def _load_signal(args) -> Signal:
    """The input of a command that takes one channel."""
    data, _ = _load_input(args)
    if isinstance(data, MultichannelSignal):
        if data.n_channels == 1:
            return data.channels[0]
        raise ParameterError(
            f"{args.command} expects a single channel, got {data.n_channels}"
        )
    return data


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


def _write_table(out_dir: str, stem: str, header: list, columns: list,
                 fmt: str) -> str:
    """Write a table with one name per column; returns the file name.

    ``header`` is the list of names, or the CSV bytes of the header row
    when no name holds a comma or needs escaping in JSON. Each entry of
    ``columns`` is a 1-D array (one column) or a 2-D array (its
    columns, in order); all have the same number of rows. Both formats
    are written one chunk of rows at a time, formatted by
    ``_csv_rows``; JSON frames them to the bytes ``_write_json`` gives
    the whole document (nan and inf spelled NaN and Infinity).
    """
    nrows = len(columns[0])
    if isinstance(header, bytes):
        line, ncol = header, header.count(b",") + 1
    else:
        line, ncol = ",".join(header).encode(), len(header)
    step = max(1, _CHUNK_CELLS // ncol)
    blocks = (_csv_rows(np.ascontiguousarray(
        np.column_stack([c[i:i + step] for c in columns]), dtype=np.float64),
        fmt) for i in range(0, nrows, step))
    if fmt == "csv":
        chunks = itertools.chain([line + b"\n"], blocks)
    else:
        # the rows take the place of the null line of a one-row
        # document; a quoted header name never prints as that line
        names = line.decode().split(",") if isinstance(header, bytes) else header
        doc = {"schema_version": SCHEMA_VERSION, "columns": names,
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
    _atomic_write(path, [(json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()])


def _emit(args, tables, summary: dict, message: str) -> int:
    """Write each (stem, header, columns) of ``tables``, in order, then
    summary.json, into --out; print ``message`` and where it went."""
    os.makedirs(args.out, exist_ok=True)
    for stem, header, columns in tables:
        _write_table(args.out, stem, header, columns, args.format)
    summary = {"schema_version": SCHEMA_VERSION, **summary}
    if not args.no_timestamp:
        summary["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    _write_json(os.path.join(args.out, "summary.json"), summary)
    print(f"{message}, output in {args.out}")
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _fdm_config(args) -> FdmConfig:
    return FdmConfig(scan=args.scan, search=args.search,
                     monotonicity_tolerance=args.mono_tol,
                     max_fibfs=args.max_fibfs)


def _run_decomposition(args):
    signal = _load_signal(args)
    return signal, decompose(signal, _fdm_config(args))


def _decomposition_summary(result, command: str) -> dict:
    return {
        "command": command,
        "n": result.n,
        "sample_rate_hz": result.sample_rate_hz,
        "start_time_s": result.start_time_s,
        "scan": result.scan.value,
        "dc": result.dc,
        "nyquist": result.nyquist,
        "n_fibfs": result.n_fibfs,
        "bin_ranges": [list(b.bin_range) for b in result.fibfs],
        "partition_ranges": [list(b.partition_range) for b in result.fibfs],
        "reconstruction_error": result.reconstruction_error,
        "non_monotone": list(result.non_monotone),
        "merged_tail": result.merged_tail,
    }


def cmd_decompose(args) -> int:
    signal, result = _run_decomposition(args)
    header = ["t", "x"]
    columns = [signal.times(), signal.samples]
    for i, band in enumerate(result.fibfs, start=1):
        header += [f"y{i}", f"a{i}", f"f{i}"]
        columns += [band.fibf, band.amplitude, band.inst_freq_hz]
    return _emit(args, [("decomposition", header, columns)],
                 _decomposition_summary(result, "decompose"),
                 f"decompose: {result.n_fibfs} bands, reconstruction error "
                 f"{result.reconstruction_error:.3e}")


def cmd_mfdm(args) -> int:
    data, _ = _load_input(args)
    if isinstance(data, Signal):
        data = MultichannelSignal((data,))
    if args.cutoffs is not None:
        if args.m is not None or args.levels is not None:
            raise ParameterError("--cutoffs excludes --m and --levels")
        try:
            cutoffs = tuple(float(c) for c in args.cutoffs.split(","))
        except ValueError:
            raise ParameterError(
                f"--cutoffs must be comma-separated numbers, got {args.cutoffs!r}"
            ) from None
        m = None
        schedule = CutoffSchedule(cutoffs, data.sample_rate_hz)
    else:
        m = 1.5 if args.m is None else args.m
        levels = 4 if args.levels is None else args.levels
        schedule = _record_schedule(data, m, levels)

    result = mfdm_decompose(data, schedule)
    t = data.channels[0].times()
    bands = [f"band{i + 1}" for i in range(result.n_levels)]
    tables = [(f"mfdm_ch{p + 1}", ["t", "x"] + bands + ["residue"],
               [t, ch.samples] + [band[p] for band in result.bands]
               + [result.residue[p]])
              for p, ch in enumerate(data.channels)]
    return _emit(args, tables, {
        "command": "mfdm",
        "n": data.n,
        "n_channels": result.n_channels,
        "sample_rate_hz": data.sample_rate_hz,
        "start_time_s": data.start_time_s,
        "cutoffs_hz": list(schedule.cutoffs_hz),
        "m": m,
        "levels": schedule.levels,
    }, f"mfdm: {result.n_levels} levels x {result.n_channels} channels")


class _GridRows:
    """The rows of ``rasterize(points, t_axis, f_axis, mode).cells``,
    rasterized one slice of frequency rows at a time.

    The points are stably sorted once by nearest frequency row, so a
    slice rasterizes only its own points, and each cell still adds them
    in their original order: every slice has the bits of the same rows
    of the whole grid. A table writer that takes a chunk of rows at a
    time thus never holds the whole grid.
    """

    def __init__(self, points, t_axis, f_axis, mode: str):
        rows = _nearest_index(f_axis, points.freqs_hz)
        self._order = np.argsort(rows, kind="stable")
        # the points of rows lo..hi-1 are order[starts[lo]:starts[hi]]
        counts = np.bincount(rows, minlength=f_axis.size)
        self._starts = np.append(0, np.cumsum(counts))
        self._args = points, t_axis, f_axis, mode

    def __len__(self) -> int:
        return self._starts.size - 1

    def __getitem__(self, rows: slice) -> np.ndarray:
        points, t_axis, f_axis, mode = self._args
        lo, hi, _ = rows.indices(len(self))
        take = self._order[self._starts[lo]:self._starts[hi]]
        block = dataclasses.replace(
            points, times_s=points.times_s[take], freqs_hz=points.freqs_hz[take],
            amplitudes=points.amplitudes[take], fibf_index=points.fibf_index[take])
        return rasterize(block, t_axis, f_axis[lo:hi], mode=mode).cells


def _grid_header(t_axis: np.ndarray) -> bytes:
    """The CSV header row of the tfe grid: ``f_hz``, then repr(t) of
    each time, formatted by the table writer."""
    if not t_axis.size:
        return b"f_hz,"
    line = _csv_rows(np.ascontiguousarray(t_axis, dtype=np.float64)[None, :])
    return b"f_hz," + line[:-1]


def cmd_tfe(args) -> int:
    df = args.freq_bin
    signal = _load_signal(args)
    # counted in float and checked before anything is decomposed or
    # allocated
    n_f = np.floor(signal.sample_rate_hz / 2.0 / df) + 1
    if n_f * signal.n > MAX_VALUES:
        raise ParameterError(
            f"--freq-bin {df} asks for a {n_f:.4g} x {signal.n} grid, "
            f"more than {MAX_VALUES} cells"
        )
    result = decompose(signal, _fdm_config(args))
    points = fhs(result)
    t_axis = signal.times()
    f_axis = np.arange(int(n_f)) * df

    tables = [
        ("tfe_points", ["t", "f", "a", "fibf"],
         [points.times_s, points.freqs_hz, points.amplitudes,
          points.fibf_index.astype(np.float64)]),
        ("tfe_grid", _grid_header(t_axis),
         [f_axis, _GridRows(points, t_axis, f_axis, args.mode)]),
    ]

    summary = _decomposition_summary(result, "tfe")
    summary.update({
        "freq_bin_hz": df,
        "mode": args.mode,
        "n_points": points.n_points,
        "clamped_negative": points.clamped_negative,
    })
    return _emit(args, tables, summary,
                 f"tfe: {points.n_points} points on a "
                 f"{f_axis.size}x{t_axis.size} grid")


def cmd_marginal(args) -> int:
    _, result = _run_decomposition(args)
    freqs, h = marginal_spectrum(fhs(result), args.freq_bin)
    summary = _decomposition_summary(result, "marginal")
    summary.update({"freq_bin_hz": args.freq_bin, "n_bins": int(freqs.size)})
    return _emit(args, [("marginal", ["f_hz", "h"], [freqs, h])], summary,
                 f"marginal: {freqs.size} bins")


def cmd_energy(args) -> int:
    signal, result = _run_decomposition(args)
    e = instantaneous_energy(result)
    return _emit(args, [("energy", ["t", "energy"], [signal.times(), e])],
                 _decomposition_summary(result, "energy"),
                 f"energy: {e.size} samples")


def cmd_generate(args) -> int:
    data, seed = _load_input(args)
    if isinstance(data, Signal):
        channels, names = [data], ["x"]
    else:
        channels = data.channels
        names = [f"ch{p + 1}" for p in range(data.n_channels)]
    t = channels[0].times()
    return _emit(args, [("signal", ["t"] + names,
                         [t] + [ch.samples for ch in channels])], {
        "command": "generate",
        "n": data.n,
        "n_channels": len(channels),
        "sample_rate_hz": data.sample_rate_hz,
        "start_time_s": data.start_time_s,
        "seed": seed,
    }, f"generate: {t.size} samples x {len(channels)} channels")


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _freq_bin(text: str) -> float:
    """--freq-bin: a finite number > 0, refused before any input is read."""
    with contextlib.suppress(ValueError):
        if 0 < float(text) < math.inf:
            return float(text)
    raise argparse.ArgumentTypeError(
        f"--freq-bin must be > 0 and finite, got {text}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdmkit",
        description="Fourier intrinsic band decomposition of sampled records",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--input", required=True,
                    help="CSV path, or gen:{json} generator recipe")
    io.add_argument("--fs", type=float, default=None,
                    help="sample rate in Hz (required if the input has no clock)")
    io.add_argument("--out", default=".", help="output directory")
    io.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="table file format")
    io.add_argument("--seed", type=int, default=None,
                    help="RNG seed for generator inputs")
    io.add_argument("--no-timestamp", action="store_true",
                    help="omit the timestamp from summary.json")

    fdm = argparse.ArgumentParser(add_help=False)
    fdm.add_argument("--scan", choices=("lth", "htl"), default="lth",
                     help="band scan direction")
    fdm.add_argument("--search", choices=("max", "first"), default="max",
                     help="boundary search mode")
    fdm.add_argument("--mono-tol", type=float, default=0.0,
                     help="phase-increment tolerance in radians")
    fdm.add_argument("--max-fibfs", type=int, default=None,
                     help="cap on emitted bands; the tail is merged")

    binned = argparse.ArgumentParser(add_help=False)
    binned.add_argument("--freq-bin", type=_freq_bin, default=1.0,
                        help="frequency bin width in Hz")

    sub.add_parser("decompose", parents=[io, fdm],
                   help="split a record into intrinsic bands")

    p = sub.add_parser("mfdm", parents=[io],
                       help="zero-phase filter bank over all channels")
    p.add_argument("--m", type=float, default=None,
                   help="cutoff ladder shape parameter (> 1/2)")
    p.add_argument("--levels", type=int, default=None,
                   help="number of ladder levels")
    p.add_argument("--cutoffs", default=None,
                   help="explicit comma-separated cutoffs in Hz, high to low")

    p = sub.add_parser("tfe", parents=[io, fdm, binned],
                       help="time-frequency point set and grid")
    p.add_argument("--mode", choices=("amplitude", "energy"), default="energy",
                   help="grid cell statistic")

    sub.add_parser("marginal", parents=[io, fdm, binned],
                   help="frequency marginal of the point set")
    sub.add_parser("energy", parents=[io, fdm],
                   help="instantaneous energy trace")
    sub.add_parser("generate", parents=[io],
                   help="write a generated or re-read record as a table")

    return parser


def _setup_logging():
    level_name = os.environ.get("FDMKIT_LOG", "").strip()
    if not level_name:
        return
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        # looked up per call, so that a replaced cmd_* is the one run
        return globals()[f"cmd_{args.command}"](args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ContractError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"file error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
