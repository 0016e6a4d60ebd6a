"""Bit-for-bit regression gate on band partitions.

The fixture was recorded by ``make_golden.py`` from the kernels before
the probe-first scan; every configuration must still produce the same
cells, the same non-monotone indices and the same merged-tail flag.
The rows past n=1024 came later, from kernels that rebuilt the exact
sums around each uncertified slope alone. The records up to n=256 are checked a second time with the scan's
probe window, its head and its block shrunk, so that their seams fall
inside short records too; only the maximal search probes, so that pass
moves the seams of the maximal rows only. A third pass shrinks the certified
checks' window and drops as well, so that those records run both
windows and drop bins from each. The maximal rows at n >= 512, which
reach the certified full checks, and every first-violation row are
checked once more in a child process with numpy's AVX-512 kernels
turned off.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

from fdmkit import _kernels
from make_golden import FIXTURE, partitions, signal_cases

GOLDEN = json.loads(FIXTURE.read_text())


def test_fixture_covers_the_grid():
    keys = [(r["kind"], r["seed"], r["n"]) for r in GOLDEN]
    assert list(dict.fromkeys(keys)) == signal_cases()
    assert len(GOLDEN) == 472


@pytest.mark.parametrize("kind,seed,n", signal_cases())
def test_partitions_match_golden(kind, seed, n):
    want = [r for r in GOLDEN
            if (r["kind"], r["seed"], r["n"]) == (kind, seed, n)]
    assert partitions(kind, seed, n) == want


def match_at(monkeypatch, kind, seed, n, **constants):
    for name, value in constants.items():
        monkeypatch.setattr(_kernels, name, value)
    want = [r for r in GOLDEN
            if (r["kind"], r["seed"], r["n"]) == (kind, seed, n)]
    assert partitions(kind, seed, n) == want


def test_a_long_row_settles_an_open_window_exactly(monkeypatch):
    # a unit sample leaves a survivor's window open to its certificates,
    # and the exact sums judge that window at every one of its samples
    sums = []
    real = _kernels._exact_sums

    def spy(sr, si, cos_tab, sin_tab, ks, ms):
        sums.append(ms)
        return real(sr, si, cos_tab, sin_tab, ks, ms)

    monkeypatch.setattr(_kernels, "_exact_sums", spy)
    match_at(monkeypatch, "unit_sample", None, 4002)
    assert sums
    for ms in sums:
        assert ms.tolist() == list(range(ms[0], ms[0] + ms.size))


SMALL = [case for case in signal_cases() if case[2] <= 256]


@pytest.mark.parametrize("kind,seed,n", SMALL)
def test_partitions_match_golden_at_small_constants(kind, seed, n,
                                                    monkeypatch):
    match_at(monkeypatch, kind, seed, n, PROBE=16, HEAD=6, BLOCK=5)


@pytest.mark.parametrize("kind,seed,n", SMALL)
def test_partitions_match_golden_at_small_windows(kind, seed, n,
                                                  monkeypatch):
    # full checks on both windows, with drops on each: n=255 (3 5 17)
    # has a slow route, so it drops bins past the leading window too;
    # an odd head makes both probe panels odd, so each pads a sample
    match_at(monkeypatch, kind, seed, n, PROBE=16, HEAD=5, BLOCK=5,
             WINDOW=40, DROPS=3)


def test_small_constants_reach_every_probe_tail_route(monkeypatch):
    # the lazy tail's routes, on a golden row: tails built past the
    # head seam, one catching up over two or more waiting blocks, odd
    # (padded) tail widths and a short last block
    seen = {"tails": 0, "catch_up": 0, "odd": 0, "short": 0}
    waiting = [0]
    add, judge = _kernels._Panel.add, _kernels._Panel.judge

    def spy_add(panel, ks):
        if panel.m[0] > 0:
            waiting[0] += 1
        return add(panel, ks)

    def spy_judge(panel, ks, eps):
        if panel.m[0] > 0:
            # judge adds the block itself, after those it catches up on
            seen["catch_up"] = max(seen["catch_up"], waiting[0])
            waiting[0] = -1
            seen["tails"] += 1
            seen["odd"] += panel.width % 2
            seen["short"] += ks.size < _kernels.BLOCK
        return judge(panel, ks, eps)

    monkeypatch.setattr(_kernels._Panel, "add", spy_add)
    monkeypatch.setattr(_kernels._Panel, "judge", spy_judge)
    match_at(monkeypatch, "white_gaussian", 0, 255, PROBE=16, HEAD=5,
             BLOCK=5)
    assert seen["tails"] and seen["odd"] and seen["short"]
    assert seen["catch_up"] >= 2


# The maximal rows at n >= 512, which reach the certified full checks,
# run again in a child process with numpy's AVX-512 kernels turned off;
# arguments "<search> <least n>" pick other rows.
WITHOUT_AVX512 = """
import json, sys
from fdmkit import FdmConfig, GeneratorSpec, decompose, generate
from make_golden import FIXTURE, SAMPLE_RATE_HZ
from numpy._core._multiarray_umath import __cpu_features__
assert not __cpu_features__["X86_V4"], "the AVX-512 kernels are still on"
search, least = sys.argv[1:] or ("max", "512")
signals, wrong = {}, []
for row in json.loads(FIXTURE.read_text()):
    if row["search"] != search or row["n"] < int(least):
        continue
    key = (row["kind"], row["seed"], row["n"])
    if key not in signals:
        signals[key] = generate(GeneratorSpec(kind=key[0], n=key[2],
                                              sample_rate_hz=SAMPLE_RATE_HZ,
                                              seed=key[1]))
    r = decompose(signals[key], FdmConfig(scan=row["scan"], search=search,
                                          monotonicity_tolerance=row["tol"]))
    got = ([list(b.partition_range) for b in r.fibfs],
           list(r.non_monotone), r.merged_tail)
    if got != (row["partition_ranges"], row["non_monotone"],
               row["merged_tail"]):
        wrong.append(key + (row["scan"], row["tol"]))
sys.exit(f"rows differ: {wrong}" if wrong else 0)
"""


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"),
                    reason="numpy has no AVX-512 kernels on this host")
def test_max_rows_do_not_depend_on_the_arctan2_kernel():
    """numpy's AVX-512 arctan2 and the AVX2 one (glibc's atan2) differ
    in the last bits; a certified verdict holds for either, so the
    maximal rows come out the same with the AVX-512 kernels off."""
    here = Path(__file__).parent
    env = dict(os.environ,
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"),
                                           str(here)]))
    done = subprocess.run([sys.executable, "-c", WITHOUT_AVX512], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"),
                    reason="numpy has no AVX-512 kernels on this host")
def test_first_rows_with_the_avx512_kernels_off():
    """The first-violation rows, every length, with numpy's AVX-512
    kernels turned off. Their verdicts are exact, not certified: each
    is judged on atan2 of the sequential sums, and a phase slope within
    the two kernels' last-bit difference of -eps would flip with the
    kernel. So this pins the corpus only, not every record."""
    here = Path(__file__).parent
    env = dict(os.environ,
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"),
                                           str(here)]))
    done = subprocess.run([sys.executable, "-c", WITHOUT_AVX512, "first", "0"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
