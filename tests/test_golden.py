"""Bit-for-bit regression gate on band partitions.

The fixture was recorded by ``make_golden.py`` from the kernels before
the probe-first scan; every configuration must still produce the same
cells, the same non-monotone indices and the same merged-tail flag.
The records up to n=256 are checked a second time with the scan's
probe window and block shrunk, so that their seams fall inside short
records too.
"""

import json

import pytest

from fdmkit import _kernels
from make_golden import FIXTURE, partitions, signal_cases

GOLDEN = json.loads(FIXTURE.read_text())


def test_fixture_covers_the_grid():
    keys = [(r["kind"], r["seed"], r["n"]) for r in GOLDEN]
    assert list(dict.fromkeys(keys)) == signal_cases()
    assert len(GOLDEN) == 416


@pytest.mark.parametrize("kind,seed,n", signal_cases())
def test_partitions_match_golden(kind, seed, n):
    want = [r for r in GOLDEN
            if (r["kind"], r["seed"], r["n"]) == (kind, seed, n)]
    assert partitions(kind, seed, n) == want


@pytest.mark.parametrize("kind,seed,n",
                         [case for case in signal_cases() if case[2] <= 256])
def test_partitions_match_golden_at_small_constants(kind, seed, n,
                                                    monkeypatch):
    monkeypatch.setattr(_kernels, "PROBE", 16)
    monkeypatch.setattr(_kernels, "BLOCK", 5)
    want = [r for r in GOLDEN
            if (r["kind"], r["seed"], r["n"]) == (kind, seed, n)]
    assert partitions(kind, seed, n) == want
