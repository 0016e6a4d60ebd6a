"""Command-line front end.

Subcommands map one-to-one onto the library operations: ``decompose``,
``mfdm``, ``tfe``, ``marginal``, ``energy``, and ``generate``. Input is
either a CSV file (header row mandatory; a leading ``t`` column fixes
the clock, otherwise --fs must be given) or an inline generator recipe
``gen:{...json...}``. Every run writes its tables plus a
``summary.json`` into --out. Floats are printed with repr, the
shortest string that round-trips, so a rerun with --no-timestamp is
byte-identical and re-ingesting an output CSV reproduces the samples
exactly. Tables are read and written by ``fdmkit._tables``; the
commands call ``ingest_csv`` and ``rasterize`` through this module's
names, which perfbench's tracer patches.

Exit codes: 0 success, 2 bad input or parameters, 3 internal contract
violation, 4 filesystem trouble.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from ._tables import (_agree, _grid_header, _write_json, _write_table,
                      ingest_csv)
from .errors import ContractError, InputError, ParameterError
from .fdm import FdmConfig, decompose
from .mfdm import CutoffSchedule, _record_schedule, mfdm_decompose
from .siggen import GeneratorSpec, generate
from .spectral import MAX_VALUES, MultichannelSignal, Signal
from .tfe import (_nearest_index, fhs, instantaneous_energy,
                  marginal_spectrum, rasterize)


# ---------------------------------------------------------------------------
# input
# ---------------------------------------------------------------------------

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

def _emit(args, tables, summary: dict, message: str) -> int:
    """Write each (stem, header, columns) of ``tables``, in order, then
    summary.json, into --out; print ``message`` and where it went."""
    os.makedirs(args.out, exist_ok=True)
    for stem, header, columns in tables:
        _write_table(args.out, stem, header, columns, args.format)
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
