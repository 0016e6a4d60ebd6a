"""Spans around calls into fdmkit's public functions, from outside the package.

``Tracer.installed`` swaps the names the package looks up at call time
(``fdmkit.cli.decompose``, ``fdmkit.fdm.dft`` and so on) for timing
wrappers and puts the originals back on exit; no package source is
changed. Each span is (name, start, end, parent, op). A layer's self time
is its span's duration minus that of its child spans, so the time a
caller spends outside every traced callee -- the scan inside
``decompose``, the table writer inside ``cli.main`` -- is derived, not
measured directly.
"""

import contextlib
import importlib
import json
import os
import time

from workloads import scan_candidates


def _decompose_counts(args, result):
    config = args[1]
    return {"fdm.bands": result.n_fibfs,
            "fdm.scan_candidates": scan_candidates(
                result, config.scan.value, config.search.value)}


# (module, attribute, span name, counter hook). A hook maps
# (args, result) to counts added to the current op. Names absent from a
# module (a later refactor may rename a private helper) are skipped, and
# their time falls to the caller's self time.
HOOKS = [
    ("fdmkit", "decompose", "fdm.decompose", _decompose_counts),
    ("fdmkit", "generate", "siggen.generate", None),
    ("fdmkit.cli", "decompose", "fdm.decompose", _decompose_counts),
    ("fdmkit.cli", "generate", "siggen.generate", None),
    ("fdmkit.cli", "ingest_csv", "cli.ingest",
     lambda args, result: {"cli.ingest_bytes": os.path.getsize(args[0])}),
    ("fdmkit.cli", "fhs", "tfe.fhs",
     lambda args, result: {"tfe.points": result.n_points}),
    ("fdmkit.cli", "rasterize", "tfe.rasterize",
     lambda args, result: {"tfe.grid_cells": result.cells.size}),
    ("fdmkit.cli", "mfdm_decompose", "mfdm.decompose",
     lambda args, result: {"mfdm.filter_passes": result.n_levels * result.n_channels}),
    ("fdmkit.fdm", "dft", "spectral.dft", None),
    ("fdmkit.fdm", "analytic_band", "fdm.synth.analytic_band", None),
    ("fdmkit.fdm", "unwrap_phase", "fdm.synth.unwrap", None),
    ("fdmkit.fdm", "_unwrap_permissive", "fdm.synth.unwrap", None),
    ("fdmkit.fdm", "inst_freq", "fdm.synth.inst_freq", None),
    ("fdmkit.fdm", "_synthesize", "fdm.synth.reconstruct", None),
    ("fdmkit.fdm", "reconstruct", "fdm.synth.reconstruct", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = []
        self._stack = []
        self.op = None

    def begin_op(self, op: int):
        self.op = op
        self.counts.append({})

    def wrap(self, name, func, hook=None):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None and self.op is not None:
                for key, value in hook(args, result).items():
                    self.counts[-1][key] = self.counts[-1].get(key, 0) + value
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, hook in HOOKS:
                module = importlib.import_module(module_name)
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self, op: int) -> dict:
        """Self seconds per span name within one op."""
        own = {}
        for span in self.spans:
            if span[4] != op:
                continue
            own[span[0]] = own.get(span[0], 0.0) + span[2] - span[1]
            if span[3] is not None:
                parent = self.spans[span[3]][0]
                own[parent] = own.get(parent, 0.0) - (span[2] - span[1])
        return own

    def dump(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans}, fh)
