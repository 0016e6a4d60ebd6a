"""The package's public names: each one in ``__all__`` is bound, once,
and names removed from the API stay gone."""
import ast
import dataclasses
import pathlib
import re

import numpy as np
import pytest

import fdmkit

REMOVED = ["AnalyticSignal", "idft", "IMAG_RESIDUE_RTOL", "SymmetryError",
           "UndefinedPhaseError", "zero_phase_lowpass"]


def test_every_public_name_resolves_once():
    assert all(hasattr(fdmkit, name) for name in fdmkit.__all__)
    assert len(set(fdmkit.__all__)) == len(fdmkit.__all__)


def test_removed_names_are_not_bound():
    assert [name for name in REMOVED if hasattr(fdmkit, name)] == []


def test_argument_types_have_one_owner():
    # what counts as an integer or a real argument is decided by
    # spectral.is_integer and spectral.is_real; no other module repeats it
    src = pathlib.Path(fdmkit.__file__).parent
    offenders = [p.name for p in sorted(src.glob("*.py"))
                 if p.name != "spectral.py"
                 and re.search(r"^\s*(import numbers|from numbers import)"
                               r"|isinstance\([^)]*\bbool\b",
                               p.read_text(), re.M)]
    assert offenders == []


def test_ladder_geometry_has_one_owner():
    # the ratio (2m - 1) / (2m + 1) is computed once, in mfdm, and the
    # CLI bounds no ladder depth of its own
    src = pathlib.Path(fdmkit.__file__).parent
    ratio = re.compile(r"\(\s*2(\.0)?\s*\*\s*m\s*-\s*1(\.0)?\s*\)\s*/")
    assert {p.name: len(ratio.findall(p.read_text()))
            for p in sorted(src.glob("*.py"))
            if ratio.search(p.read_text())} == {"mfdm.py": 1}
    assert "math.log" not in (src / "cli.py").read_text()


def imported(module):
    """The modules a package module imports, the package's own under
    their full names; ``from m import x`` counts m and m.x."""
    found = set()
    src = pathlib.Path(fdmkit.__file__).parent / f"{module}.py"
    for node in ast.walk(ast.parse(src.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["fdmkit" * bool(node.level),
                                          node.module]))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_table_format_has_one_owner():
    # CSV ingest and the table writer live in _tables; the commands
    # reach the file format only through it, and it needs no command
    # or decomposition of its own
    top = {m.split(".")[0] for m in imported("cli")}
    assert top & {"orjson", "csv", "re"} == set()
    # the commands read and write through these alone, none of them a
    # piece of the format's layout
    assert {m for m in imported("cli") if m.startswith("fdmkit._tables.")} == {
        f"fdmkit._tables.{name}" for name in
        ("ingest_csv", "_agree", "_grid_header", "_write_table", "_write_json")}
    users = {f"fdmkit.{m}"
             for m in ("cli", "fdm", "tfe", "mfdm", "siggen", "_kernels")}
    assert imported("_tables") & users == set()


@pytest.mark.parametrize("cls,names", [
    (fdmkit.Spectrum, ["coefficients"]),
    (fdmkit.CutoffSchedule, ["cutoffs_hz", "sample_rate_hz"]),
    (fdmkit.MfdmResult, ["bands", "residue"]),
    (fdmkit.TfeGrid, ["cells"]),
])
def test_result_types_keep_only_their_own_fields(cls, names):
    # the rest is held by the caller: the record's clock, the rate a
    # spectrum came from, the schedule and m that built a bank result
    assert [f.name for f in dataclasses.fields(cls)] == names


SIGNAL = fdmkit.Signal(np.ones(64), 64.0)


@pytest.mark.parametrize("call,got", [
    (lambda: fdmkit.decompose(np.zeros(8)), "signal must be a Signal, got ndarray"),
    (lambda: fdmkit.mfdm_decompose(SIGNAL, (2.0,)),
     "schedule must be a CutoffSchedule, got tuple"),
    (lambda: fdmkit.mfdm_decompose(np.zeros(8),
                                   fdmkit.cutoff_schedule(64.0, 1.5, 2)),
     "data must be a Signal or MultichannelSignal, got ndarray"),
    (lambda: fdmkit.zero_phase_highpass(np.zeros(8), 1.0),
     "signal must be a Signal, got ndarray"),
    (lambda: fdmkit.fhs(None), "result must be a DecompositionResult, got NoneType"),
], ids=["decompose", "mfdm_schedule", "mfdm_data", "zero_phase_highpass", "fhs"])
def test_wrong_record_type_refused_by_name(call, got):
    with pytest.raises(fdmkit.ParameterError, match=got):
        call()


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_names_the_whole_api():
    text = README.read_text()
    assert [n for n in fdmkit.__all__ if f"`{n}`" not in text] == []
    table = text.split("## API at a glance", 1)[1].split("\n\n")[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    names = [n for row in rows for n in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert names
    assert [n for n in names if not hasattr(fdmkit, n)] == []
