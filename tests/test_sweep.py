"""The bit-identity sweep's small slice against its pins, so that the
sweep tool and its pins stay in step with the kernels."""

import pytest

import sweep


@pytest.fixture(scope="module")
def small_slice():
    return sweep.digest(sweep.SMALL_UP_TO), sweep.pinned()[sweep.dispatch()]


def test_sweep_grid():
    assert len(sweep.cases()) == 1024
    assert len(sweep.cases(sweep.SMALL_UP_TO)) == 640


def test_small_slice_matches_its_pin(small_slice):
    (outputs, _), pins = small_slice
    assert outputs == pins[f"n<={sweep.SMALL_UP_TO}"]


def test_small_slice_probe_sums_match_their_pin(small_slice):
    (_, probe), pins = small_slice
    assert probe == pins[f"probe n<={sweep.SMALL_UP_TO}"]
