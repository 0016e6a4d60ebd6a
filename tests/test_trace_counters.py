"""perfbench's counters are read off the results of the calls it hooks
(``result.n_fibfs``, ``result.cells``, ``result.n_levels`` and so on).
Running each hooked layer once under its tracer makes a field the
benchmark reads that goes missing fail here, not only in the benchmark."""
import importlib
from pathlib import Path

import pytest

import fdmkit
import fdmkit.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

COUNTERS = {"fdm.bands", "fdm.scan_candidates", "cli.ingest_bytes",
            "tfe.points", "tfe.grid_cells", "mfdm.filter_passes"}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def run(*argv):
    assert fdmkit.cli.main([*argv, "--no-timestamp"]) == 0


def test_every_counter_is_produced(tracing, tmp_path):
    two = ('gen:{"kind":"tone_mix","n":64,"sample_rate_hz":64,'
           '"params":{"channels":[[0,1],[2,3]]}}')
    run("generate", "--input", two, "--out", str(tmp_path / "g"))
    csv = tmp_path / "g" / "signal.csv"
    chirp = 'gen:{"kind":"linear_chirp","n":64,"sample_rate_hz":64}'
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.begin_op(0)
        fdmkit.decompose(fdmkit.aligned_tone_fixture(n=64).channels[0],
                         fdmkit.FdmConfig())
        run("tfe", "--input", chirp, "--freq-bin", "4",
            "--out", str(tmp_path / "t"))
        run("mfdm", "--input", str(csv), "--levels", "2",
            "--out", str(tmp_path / "m"))
    counts = tracer.counts[0]
    assert set(counts) == COUNTERS
    assert all(v > 0 for v in counts.values())
    assert counts["cli.ingest_bytes"] == csv.stat().st_size
    assert counts["mfdm.filter_passes"] == 2 * 2
    # the grid is rasterized a block of rows at a time; its blocks add
    # up to the 9 x 64 grid
    assert counts["tfe.grid_cells"] == 9 * 64
