"""The bit-identity sweep's small slice against its pin, so that the
sweep tool and its pins stay in step with the kernels."""

import sweep


def test_sweep_grid():
    assert len(sweep.cases()) == 1024
    assert len(sweep.cases(sweep.SMALL_UP_TO)) == 640


def test_small_slice_matches_its_pin():
    pins = sweep.pinned()[sweep.dispatch()]
    assert sweep.digest(sweep.SMALL_UP_TO) == pins[f"n<={sweep.SMALL_UP_TO}"]
