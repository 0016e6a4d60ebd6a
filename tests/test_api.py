"""The package's public names: each one in ``__all__`` is bound, once,
and names removed from the API stay gone."""
import dataclasses
import pathlib
import re

import pytest

import fdmkit

REMOVED = ["AnalyticSignal", "idft", "IMAG_RESIDUE_RTOL", "SymmetryError",
           "UndefinedPhaseError"]


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


@pytest.mark.parametrize("cls,names", [
    (fdmkit.Spectrum, ["coefficients"]),
    (fdmkit.CutoffSchedule, ["cutoffs_hz", "sample_rate_hz"]),
    (fdmkit.MfdmResult, ["bands", "residue"]),
])
def test_result_types_keep_only_their_own_fields(cls, names):
    # the rest is held by the caller: the record's clock, the rate a
    # spectrum came from, the schedule and m that built a bank result
    assert [f.name for f in dataclasses.fields(cls)] == names
