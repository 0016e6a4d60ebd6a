"""perfbench's tracer patches fdmkit names by (module, attribute) and
skips a name it cannot find without a word, so that the callee's time
silently moves into its caller's derived self time (renaming
``fdm._synthesize`` would bill synthesis to ``fdm.scan_s``). Every
hooked name must therefore resolve."""
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def hooks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing").HOOKS


def test_every_hook_resolves(hooks):
    assert hooks
    missing = [f"{module}.{attr}" for module, attr, _, _ in hooks
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing
