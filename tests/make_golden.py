"""Write the golden band-partition corpus, ``golden_partitions.json``.

The corpus freezes what ``decompose`` returns for a fixed grid of
inputs: every generator kind (white noise under several seeds), lengths
on both sides of the scan's probe length, both scan directions, both
search modes and two monotonicity tolerances. A few kinds also run at
longer lengths, which reach the certified checks' rest window (1500),
pocketfft's generic pass (4002 = 2 3 23 29) and Bluestein's route
(4099, a prime); there the first-violation search runs at 1500 only.
For each configuration it records the partition cells, the indices of
non-monotone bands and the merged-tail flag. ``test_golden.py`` demands
the same values bit for bit, so any kernel change that moves a band
edge fails there.

Run it from the repository root:

    PYTHONPATH=src python tests/make_golden.py

The fixture is a record of the kernels as they stood when it was made.
Never regenerate it to make a kernel change pass: a changed partition
is a behaviour change and has to be explained, not re-recorded.
"""

import json
from pathlib import Path

from fdmkit import FdmConfig, GeneratorSpec, decompose, generate

FIXTURE = Path(__file__).with_name("golden_partitions.json")

SAMPLE_RATE_HZ = 128.0
LENGTHS = (64, 255, 256, 1024)
SCANS = ("lth", "htl")
SEARCHES = ("max", "first")
TOLERANCES = (0.0, 1e-3)
# (kind, seed); the deterministic kinds run without a seed
SIGNALS = (
    ("tone_mix", None),
    ("intermittent_tone", None),
    ("linear_chirp", None),
    ("fm_sinusoid", None),
    ("intrawave_mix", None),
    ("model_wave", None),
    ("unit_sample", None),
) + tuple(("white_gaussian", seed) for seed in range(6))
# (kind, seed, n) past the grid; a unit sample leaves certified windows
# open, for the exact sums to settle
LONG = tuple((kind, None, n)
             for kind in ("tone_mix", "intermittent_tone", "unit_sample")
             for n in (1500, 4002, 4099)) + (("white_gaussian", 0, 1500),)
# the longest record the first-violation search runs on
FIRST_UP_TO = 1500


def signal_cases():
    """Every (kind, seed, n) the corpus covers, in fixture order."""
    return [(kind, seed, n) for kind, seed in SIGNALS
            for n in LENGTHS] + list(LONG)


def partitions(kind, seed, n):
    """One fixture row per scan configuration of one signal."""
    signal = generate(GeneratorSpec(kind=kind, n=n,
                                    sample_rate_hz=SAMPLE_RATE_HZ, seed=seed))
    rows = []
    for scan in SCANS:
        for search in SEARCHES:
            if search == "first" and n > FIRST_UP_TO:
                continue
            for tol in TOLERANCES:
                r = decompose(signal, FdmConfig(scan=scan, search=search,
                                                monotonicity_tolerance=tol))
                rows.append({
                    "kind": kind,
                    "seed": seed,
                    "n": n,
                    "scan": scan,
                    "search": search,
                    "tol": tol,
                    "partition_ranges": [list(b.partition_range)
                                         for b in r.fibfs],
                    "non_monotone": list(r.non_monotone),
                    "merged_tail": r.merged_tail,
                })
    return rows


def main():
    rows = [row for case in signal_cases() for row in partitions(*case)]
    # one configuration per line keeps the fixture diffable
    lines = ",\n".join(json.dumps(row) for row in rows)
    FIXTURE.write_text("[\n" + lines + "\n]\n")
    print(f"wrote {len(rows)} configurations to {FIXTURE}")


if __name__ == "__main__":
    main()
