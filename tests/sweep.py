"""A bit-identity sweep of ``decompose``: one sha256 over 1,024 runs.

The golden corpus pins band partitions. This sweep pins more per run,
over a grid that also reaches band caps: every generator kind at seed
0, lengths on both sides of the probe and of the certified checks'
windows, both scan directions, both searches (the first-violation one
up to n=1500 only), two tolerances and two caps. For each run, in grid
order, the hash takes a JSON line of the configuration with the
partition ranges, the non-monotone indices and the merged-tail flag,
then every band's phase bytes and fibf bytes.

A second hash, the probe's, takes the sums of every block of the
maximal search's probe (``_kernels._Panel.add``), head and tail, in the
order the scan adds them: a header of the panel's first sample, its
width, the block's first bin and its size, then the block's real and
imaginary rows at the panel's samples. Verdicts alone miss a change of
those sums that flips no verdict in the grid, such as a carried row
added after the block's own cumulative sum in place of before it.

Phases come from numpy's arctan2, whose AVX-512 kernel and AVX2 one
differ in the last bits, so the pins are kept per dispatch: ``x86_v4``
with numpy's X86_V4 features on, ``no_x86_v4`` with them off or
missing. Each dispatch pins the whole sweep and its n <= 300 slice,
each by both hashes.

Run it from the repository root:

    PYTHONPATH=src python tests/sweep.py --check   # compare with the pins
    PYTHONPATH=src python tests/sweep.py --record  # rewrite the pins

Like the golden corpus, the pins record the kernels as they stood.
Never re-record them to make a kernel change pass: a changed hash is a
behaviour change and has to be explained.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from numpy._core._multiarray_umath import __cpu_features__

from fdmkit import FdmConfig, GeneratorSpec, _kernels, decompose, generate

PINS = Path(__file__).with_name("sweep_hashes.json")

SAMPLE_RATE_HZ = 128.0
KINDS = ("tone_mix", "intermittent_tone", "linear_chirp", "fm_sinusoid",
         "intrawave_mix", "model_wave", "unit_sample", "white_gaussian")
LENGTHS = (8, 64, 255, 256, 300, 1024, 1500, 4002, 4099)
SCANS = ("lth", "htl")
SEARCHES = ("max", "first")
# the longest record the first-violation search runs on
FIRST_UP_TO = 1500
# (monotonicity tolerance, band cap)
LIMITS = ((0.0, None), (1e-3, None), (0.0, 1), (0.0, 3))
# the slice a tier-1 test runs
SMALL_UP_TO = 300


def dispatch():
    """The pin key for numpy's arctan2 kernel in this process."""
    return "x86_v4" if __cpu_features__.get("X86_V4") else "no_x86_v4"


def cases(up_to=None):
    """Every (kind, n, scan, search, tol, cap) of the sweep, in order."""
    return [(kind, n, scan, search, tol, cap)
            for kind in KINDS
            for n in LENGTHS if up_to is None or n <= up_to
            for scan in SCANS
            for search in SEARCHES if search == "max" or n <= FIRST_UP_TO
            for tol, cap in LIMITS]


def runs(up_to=None):
    """Yield n, the bytes the hash takes and the bytes the probe's hash
    takes for each run of n <= ``up_to`` (every run if None), in grid
    order."""
    signals = {}
    blocks = []
    add = _kernels._Panel.add

    def spy(panel, ks):
        add(panel, ks)
        rows = panel.rows[:, 1:ks.size + 1, :panel.width]
        blocks.append(json.dumps([int(panel.m[0]), panel.width, int(ks[0]),
                                  int(ks.size)]).encode())
        blocks.append(rows.tobytes())

    _kernels._Panel.add = spy
    try:
        for kind, n, scan, search, tol, cap in cases(up_to):
            if (kind, n) not in signals:
                signals[kind, n] = generate(GeneratorSpec(
                    kind=kind, n=n, sample_rate_hz=SAMPLE_RATE_HZ, seed=0))
            blocks.clear()
            r = decompose(signals[kind, n], FdmConfig(
                scan=scan, search=search, monotonicity_tolerance=tol,
                max_fibfs=cap))
            line = json.dumps([kind, n, scan, search, tol, cap,
                               [list(b.partition_range) for b in r.fibfs],
                               list(r.non_monotone), r.merged_tail]).encode()
            yield (n, b"".join([line, b"\n"]
                               + [a.tobytes() for b in r.fibfs
                                  for a in (b.phase, b.fibf)]),
                   b"".join([line, b"\n"] + blocks))
    finally:
        _kernels._Panel.add = add


def digest(up_to=None):
    """sha256 over the sweep's runs of n <= ``up_to`` (all if None): the
    hash of the outputs and the probe's."""
    out, probe = hashlib.sha256(), hashlib.sha256()
    for _, data, sums in runs(up_to):
        out.update(data)
        probe.update(sums)
    return out.hexdigest(), probe.hexdigest()


def hashes():
    """This dispatch's hashes of the whole sweep and of its small slice,
    from one pass."""
    got = {name: hashlib.sha256()
           for name in ("full", f"n<={SMALL_UP_TO}", "probe full",
                        f"probe n<={SMALL_UP_TO}")}
    for n, data, sums in runs():
        got["full"].update(data)
        got["probe full"].update(sums)
        if n <= SMALL_UP_TO:
            got[f"n<={SMALL_UP_TO}"].update(data)
            got[f"probe n<={SMALL_UP_TO}"].update(sums)
    return {name: h.hexdigest() for name, h in got.items()}


def pinned():
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare with this dispatch's pinned hashes")
    mode.add_argument("--record", action="store_true",
                      help="rewrite this dispatch's pinned hashes")
    args = parser.parse_args(argv)
    key = dispatch()
    pins = pinned()
    old = pins.get(key, {})
    got = hashes()
    for name, value in got.items():
        print(f"{key} {name}: {old.get(name)} -> {value}")
    if args.record:
        pins[key] = got
        PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
        return 0
    if got != old:
        print(f"sweep hashes differ from {PINS.name} [{key}]",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
