"""The package's public names: each one in ``__all__`` is bound, once,
and names removed from the API stay gone."""
import fdmkit

REMOVED = ["AnalyticSignal", "idft", "IMAG_RESIDUE_RTOL", "SymmetryError",
           "UndefinedPhaseError"]


def test_every_public_name_resolves_once():
    assert all(hasattr(fdmkit, name) for name in fdmkit.__all__)
    assert len(set(fdmkit.__all__)) == len(fdmkit.__all__)


def test_removed_names_are_not_bound():
    assert [name for name in REMOVED if hasattr(fdmkit, name)] == []
