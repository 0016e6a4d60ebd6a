"""A few of perfbench's recorded digests, recomputed through perfbench's
own workload code (``setup``, ``prepare``, ``run_op``, ``check``), so
that tier-1 sees the bits the benchmark gate compares: noise_max at
seeds 0-3 (white noise, n=4096, lth/max: rest windows and their
transforms) and chirp_tfe_cli (the whole tfe CLI at n=16384, htl)."""
import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RECORDED = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def recompute(workload, seed, workdir):
    """One op of ``workload`` at ``seed``: its gate's errors and its
    digest key and digest."""
    try:
        workload.setup(seed, str(workdir), RECORDED)
        prepared = workload.prepare(0)
        out = workload.run_op(prepared)
        return (workload.check(prepared, out), workload.digest_key(prepared),
                workload.digest(prepared, out))
    finally:
        workload.teardown()


@pytest.mark.parametrize("seed", range(4))
def test_noise_max_digest(workloads, tmp_path, seed):
    errors, key, digest = recompute(workloads.NoiseMax(), seed, tmp_path)
    assert errors == []
    assert key == str(seed)
    assert digest == RECORDED["noise_max"][key]


def test_chirp_tfe_cli_digest(workloads, tmp_path):
    errors, key, digest = recompute(workloads.ChirpTfeCli(), 0, tmp_path)
    assert errors == []
    assert digest == RECORDED["chirp_tfe_cli"][key]
