"""The three benchmark workloads: inputs, one operation, correctness gate.

Each workload is a closed loop with one caller. ``setup`` generates the
inputs from the run's seed and runs one untimed warm-up operation on a
reduced input, which pays every one-time cost (lazy imports, first-call
initialisation, compilation a later kernel might add) without spending
a full-size operation. ``run_op`` is the timed operation. ``check``
returns the reasons an operation failed its gate; an empty list passes.

fdmkit is imported inside ``setup`` so that a fresh process can time
the import as part of set-up.
"""

import hashlib
import json
import os
import shutil

import numpy as np

REL_TOL = 1e-9


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def partition_digest(ranges) -> str:
    return _sha256(json.dumps([list(r) for r in ranges]).encode())


def scan_candidates(result, scan: str, search: str) -> int:
    """Band-edge candidates the greedy scan tried, derived from the partition.

    Low-to-high tries every upper edge from ``lo`` to ``k_max``;
    high-to-low tries every lower edge from ``hi`` down to 1. First-violation
    search stops one bin past the band edge, clamped to the range, except
    for a residual band that had no admissible edge, which was scanned in
    full.
    """
    k_max = (result.n + 1) // 2 - 1
    residual = set(getattr(result, "non_monotone", ()))
    total = 0
    for i, band in enumerate(result.fibfs):
        lo, hi = band.partition_range
        full = search == "max" or i in residual
        if scan == "lth":
            total += (k_max if full else min(hi + 1, k_max)) - lo + 1
        else:
            total += hi - (1 if full else max(lo - 1, 1)) + 1
    return total


def tiling_errors(ranges, k_max: int) -> list:
    """Reasons the cells fail to tile [1, k_max] exactly."""
    expect = 1
    for lo, hi in sorted(ranges):
        if lo != expect or hi < lo:
            return [f"partition gap or overlap at bin {expect}: cell ({lo}, {hi})"]
        expect = hi + 1
    if expect != k_max + 1:
        return [f"partition ends at bin {expect - 1}, not k_max={k_max}"]
    return []


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), np.finfo(float).tiny)


class NoiseMax:
    """``decompose`` on white noise, n=4096, lth/max, through the library API.

    Op i decomposes the record drawn with seed + i. Noise is the scan's
    worst case: tens of thousands of candidates per record, nearly all
    rejected, so it drives the scan's reject path.
    """

    name = "noise_max"
    n = 4096
    warmup_n = 256
    sample_rate_hz = 100.0
    scan, search = "lth", "max"
    root_span = "op"

    def setup(self, seed: int, workdir: str, digests: dict):
        import fdmkit

        self.fdmkit = fdmkit
        self.config = fdmkit.FdmConfig(scan=self.scan, search=self.search)
        self.seed = seed
        self.digests = digests.get(self.name, {})
        fdmkit.decompose(self._record(seed, self.warmup_n), self.config)

    def _record(self, seed: int, n: int):
        return self.fdmkit.generate(self.fdmkit.GeneratorSpec(
            kind="white_gaussian", n=n, sample_rate_hz=self.sample_rate_hz,
            seed=seed))

    def prepare(self, i: int):
        """Untimed: op i's input seed and record."""
        return self.seed + i, self._record(self.seed + i, self.n)

    def run_op(self, prepared):
        return self.fdmkit.decompose(prepared[1], self.config)

    def samples_per_op(self) -> int:
        return self.n

    def check(self, prepared, result) -> list:
        input_seed, signal = prepared
        x = signal.samples
        k_max = (x.size + 1) // 2 - 1
        ranges = [b.partition_range for b in result.fibfs]
        errors = tiling_errors(ranges, k_max)
        recon = self.fdmkit.reconstruct(result)
        err = float(np.linalg.norm(recon - x) / np.linalg.norm(x))
        if not err <= REL_TOL:
            errors.append(f"reconstruction error {err!r} > {REL_TOL}")
        nyq = result.nyquist or 0.0
        energy = (x.size * result.dc ** 2 + sum(b.energy() for b in result.fibfs)
                  + x.size * nyq ** 2)
        gap = _rel_gap(energy, float(np.dot(x, x)))
        if not gap <= REL_TOL:
            errors.append(f"energy identity off by {gap!r} relative")
        want = self.digests.get(self.digest_key(prepared))
        if want is not None and partition_digest(ranges) != want:
            errors.append(f"partition for input seed {input_seed} differs "
                          "from the recorded digest")
        return errors

    def digest_key(self, prepared) -> str:
        return str(prepared[0])

    def digest(self, prepared, result) -> str:
        return partition_digest(b.partition_range for b in result.fibfs)

    def output_bytes(self) -> int:
        return 0

    def teardown(self):
        pass


class _CliWorkload:
    """One in-process ``fdmkit.cli.main`` invocation per op.

    Every op reruns the same command into an emptied output directory, so
    the CLI's promise that a --no-timestamp rerun is byte-identical is
    checked on every op against the first.
    """

    root_span = "cli.main"

    def setup(self, seed: int, workdir: str, digests: dict):
        import fdmkit
        import fdmkit.cli

        self.fdmkit = fdmkit
        self.seed = seed
        self.workdir = workdir
        self.digests = digests.get(self.name, {})
        self.out = os.path.join(workdir, "out")
        self.first_files = None
        self.make_inputs()
        warm_out = os.path.join(workdir, "warmup")
        rc = fdmkit.cli.main(self.argv(self.warmup_input(), warm_out))
        if rc != 0:
            raise RuntimeError(f"warm-up op exited with {rc}")
        shutil.rmtree(warm_out)

    def prepare(self, i: int):
        shutil.rmtree(self.out, ignore_errors=True)
        return self.argv(self.op_input(), self.out)

    def run_op(self, argv):
        return self.fdmkit.cli.main(argv)

    def output_files(self) -> dict:
        """sha256 of every output file, by name."""
        files = {}
        for name in sorted(os.listdir(self.out)):
            with open(os.path.join(self.out, name), "rb") as fh:
                files[name] = _sha256(fh.read())
        return files

    def output_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(self.out, f))
                   for f in os.listdir(self.out))

    def digest(self, argv, rc) -> str:
        """Digest of the data tables; summary.json is left out so that
        added diagnostics do not count as changed results."""
        files = self.output_files()
        del files["summary.json"]
        return _sha256(json.dumps(files, sort_keys=True).encode())

    def check(self, argv, rc) -> list:
        if rc != 0:
            return [f"exit code {rc}"]
        files = self.output_files()
        errors = []
        if self.first_files is None:
            self.first_files = files
            with open(os.path.join(self.out, "summary.json")) as fh:
                errors += self.check_content(json.load(fh))
            key = self.digest_key(argv)
            want = self.digests.get(key)
            if want is not None and self.digest(argv, rc) != want:
                errors.append(f"output tables for digest key {key} "
                              "differ from the recorded digest")
        elif files != self.first_files:
            errors.append("output files differ from the first op's")
        return errors

    def teardown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class ChirpTfeCli(_CliWorkload):
    """The whole ``tfe`` pipeline on a linear chirp, n=16384, htl/max.

    generator -> DFT -> scan -> synthesis -> fhs -> rasterize -> CSV writer.
    The chirp is one band in which every candidate is admissible, so it
    drives the scan's accept path, from the high-to-low side. The record
    does not depend on the seed, so its digest is checked on every run.
    """

    name = "chirp_tfe_cli"
    n = 16384
    warmup_n = 1024

    def make_inputs(self):
        pass

    def _recipe(self, n: int) -> str:
        return "gen:" + json.dumps({"kind": "linear_chirp", "n": n,
                                    "sample_rate_hz": 100})

    def warmup_input(self) -> str:
        return self._recipe(self.warmup_n)

    def op_input(self) -> str:
        return self._recipe(self.n)

    def argv(self, source: str, out: str) -> list:
        return ["tfe", "--input", source, "--scan", "htl", "--out", out,
                "--no-timestamp"]

    def samples_per_op(self) -> int:
        return self.n

    def digest_key(self, argv) -> str:
        return "any"

    def check_content(self, summary: dict) -> list:
        k_max = (self.n + 1) // 2 - 1
        errors = tiling_errors(summary["partition_ranges"], k_max)
        if not summary["reconstruction_error"] <= REL_TOL:
            errors.append(f"reconstruction error {summary['reconstruction_error']!r}")
        if summary["n_points"] != summary["n_fibfs"] * self.n:
            errors.append(f"{summary['n_points']} points for "
                          f"{summary['n_fibfs']} bands of {self.n} samples")
        return errors


class MfdmCsv(_CliWorkload):
    """``mfdm --levels 6`` on a 4-channel CSV record, n=65536.

    The record is ``aligned_tone_fixture`` drawn with the run's seed and
    written as CSV during set-up. The scan never runs, so this is the
    bypass workload for scan changes; CSV ingest and the table writer
    carry its load, and it writes tall tables where ``chirp_tfe_cli``
    writes wide ones.
    """

    name = "mfdm_csv"
    n = 65536
    warmup_n = 1024
    channels = 4
    sample_rate_hz = 128.0
    levels = 6

    def _write_csv(self, path: str, n: int):
        data = self.fdmkit.aligned_tone_fixture(
            n=n, sample_rate_hz=self.sample_rate_hz, seed=self.seed)
        t = np.arange(n) / self.sample_rate_hz
        cols = [t] + [ch.samples for ch in data.channels]
        lines = ["t," + ",".join(f"ch{p + 1}" for p in range(len(data.channels)))]
        lines += [",".join(repr(float(c[i])) for c in cols) for i in range(n)]
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        return data

    def make_inputs(self):
        self.warm_csv = os.path.join(self.workdir, "warmup.csv")
        self._write_csv(self.warm_csv, self.warmup_n)
        self.csv = os.path.join(self.workdir, "input.csv")
        self.record = self._write_csv(self.csv, self.n)

    def warmup_input(self) -> str:
        return self.warm_csv

    def op_input(self) -> str:
        return self.csv

    def argv(self, source: str, out: str) -> list:
        return ["mfdm", "--input", source, "--levels", str(self.levels),
                "--out", out, "--no-timestamp"]

    def samples_per_op(self) -> int:
        return self.n * self.channels

    def digest_key(self, argv) -> str:
        return str(self.seed)

    def check_content(self, summary: dict) -> list:
        errors = []
        if (summary["n"], summary["n_channels"]) != (self.n, self.channels):
            errors.append(f"summary reports n={summary['n']}, "
                          f"{summary['n_channels']} channels")
        # every channel table must add back up to its input: x = bands + residue
        for p, ch in enumerate(self.record.channels):
            table = np.loadtxt(os.path.join(self.out, f"mfdm_ch{p + 1}.csv"),
                               delimiter=",", skiprows=1)
            x = ch.samples
            if not np.array_equal(table[:, 1], x):
                errors.append(f"channel {p + 1}: x column differs from the input")
            gap = float(np.linalg.norm(table[:, 2:].sum(axis=1) - x) / np.linalg.norm(x))
            if not gap <= REL_TOL:
                errors.append(f"channel {p + 1}: bands + residue miss x by {gap!r}")
        return errors


WORKLOADS = {w.name: w for w in (NoiseMax, ChirpTfeCli, MfdmCsv)}
