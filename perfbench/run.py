"""fdmkit benchmark: three single-threaded workloads, timed end to end.

Run one workload the way the benchmark contract calls it::

    python3 perfbench/run.py --workload noise_max --seed 0 --seconds 25 --trace 0

or every workload in turn, with a readable report per workload::

    python3 perfbench/run.py --workload all --seconds 25

An untraced run (--trace 0) reports the end-to-end metrics: median op
time with its sample count, input samples per second, set-up time and
peak resident memory, with the error rate printed beside them. A
traced run (--trace 1) alternates untraced and traced ops on the same
input and reports per-layer self times and counts plus the tracing
overhead; its spans are written to .perfbench/traces/. Every op passes
through the workload's correctness gate, and the last line of standard
output is one JSON object with the result.

The package is imported from the src/ directory next to this one and
never from anywhere else, so a checkout without it fails.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# one thread, so that every figure belongs to the one caller
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, SRC)

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is repeated in this many fresh processes, each importing fdmkit
# anew, and the median is reported.
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


def check_package():
    """Fail unless fdmkit imports from this checkout's src/."""
    try:
        import fdmkit
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import fdmkit from {SRC}: {e}")
    where = os.path.dirname(os.path.abspath(fdmkit.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise SystemExit(f"perfbench: fdmkit imported from {where}, not {SRC}")
    return fdmkit


def context(fdmkit) -> dict:
    import numpy

    kernels = sys.modules.get("fdmkit._kernels")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "kernel_backend": getattr(kernels, "BACKEND", None),
        "claim": None,
    }


def workdir(name: str, tag: str) -> str:
    path = os.path.join(WORK, f"{name}-{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def setup_only(name: str, seed: int) -> float:
    """Set up once in this fresh process; seconds since it started."""
    wl = WORKLOADS[name]()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            wl.setup(seed, workdir(name, "setup"), load_digests())
        return time.perf_counter() - _T0
    finally:
        wl.teardown()


def setup_times(name: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Run:
    """Timed ops of one workload, each gated for correctness."""

    def __init__(self, wl):
        self.wl = wl
        self.durations = []
        self.attempted = 0
        self.failures = []

    def op(self, i: int, timed_call=None):
        """Prepare, run and check op i; returns its wall seconds."""
        prepared = self.wl.prepare(i)
        call = timed_call or self.wl.run_op
        self.attempted += 1
        elapsed = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                out = call(prepared)
            elapsed = time.perf_counter() - t0
            errors = self.wl.check(prepared, out)
        except Exception as e:  # an op or a check that raises counts as failed
            if elapsed is None:
                elapsed = time.perf_counter() - t0
            errors = [f"{type(e).__name__}: {e}"]
        if errors:
            self.failures.append(f"op {i}: " + "; ".join(errors))
        return elapsed


def percentile_note(durations: list) -> str:
    """The highest of p90/p99 with at least 10 samples beyond it."""
    n = len(durations)
    best = None
    for p in (90, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return f"{n} samples; no higher percentile has 10 samples beyond it"
    cuts = statistics.quantiles(durations, n=100)
    return f"{n} samples; p{best} = {cuts[best - 1]:.6g} s"


def measure(wl, seconds: float) -> tuple:
    run = Run(wl)
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        run.durations.append(run.op(i))
        i += 1
    return run, {
        "op_s_p50": statistics.median(run.durations),
        "samples_per_s": wl.samples_per_op() * len(run.durations) / sum(run.durations),
    }


def measure_traced(wl, seconds: float, trace_path: str) -> tuple:
    """Alternate an untraced and a traced op on the same input."""
    run = Run(wl)
    tracer = Tracer()
    overheads, layers = [], []
    write_bytes = None
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        plain = run.op(i)
        with tracer.installed():
            tracer.begin_op(i)
            traced = run.op(i, tracer.wrap(wl.root_span, wl.run_op))
            tracer.op = None
        overheads.append((traced - plain) / plain)
        own = tracer.self_times(i)
        counts = tracer.counts[-1]
        scan_s = own.get("fdm.decompose", 0.0)
        candidates = counts.get("fdm.scan_candidates", 0)
        layers.append({
            "fdm.scan_s": scan_s,
            "fdm.scan_us_per_candidate": 1e6 * scan_s / candidates if candidates else 0.0,
            "fdm.synth_s": sum((v for k, v in own.items() if k.startswith("fdm.synth.")), 0.0),
            "spectral.dft_s": own.get("spectral.dft", 0.0),
            "siggen.generate_s": own.get("siggen.generate", 0.0),
            "tfe.fhs_s": own.get("tfe.fhs", 0.0),
            "tfe.rasterize_s": own.get("tfe.rasterize", 0.0),
            "cli.ingest_s": own.get("cli.ingest", 0.0),
            "mfdm.decompose_s": own.get("mfdm.decompose", 0.0),
            "cli.write_s": own.get("cli.main", 0.0),
        })
        if write_bytes is None:
            write_bytes = wl.output_bytes()
        i += 1
    tracer.dump(trace_path)
    # counts come from op 0, whose input depends on the seed alone
    first = tracer.counts[0]
    metrics = {name: statistics.median([layer[name] for layer in layers])
               for name in layers[0]}
    for name in ("fdm.scan_candidates", "fdm.bands", "tfe.points", "tfe.grid_cells",
                 "cli.ingest_bytes", "mfdm.filter_passes"):
        metrics[name] = first.get(name, 0)
    metrics["cli.write_bytes"] = write_bytes
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    return run, metrics


def run_workload(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    fdmkit = check_package()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]

    setups = [] if args.trace else setup_times(args.workload, args.seed)
    wl = WORKLOADS[args.workload]()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            wl.setup(args.seed, workdir(args.workload, "run"), load_digests())
        if args.trace:
            trace_path = os.path.join(WORK, "traces",
                                      f"{args.workload}-seed{args.seed}.json")
            run, values = measure_traced(wl, args.seconds, trace_path)
        else:
            run, values = measure(wl, args.seconds)
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        wl.teardown()

    tag = f"[{args.workload}]"
    print(f"{tag} why: {why}")
    print(f"{tag} context: {json.dumps(context(fdmkit))}")
    for name in units:
        note = ""
        if name == "op_s_p50":
            note = f"  ({percentile_note(run.durations)})"
        elif name == "setup_s":
            note = f"  (median of {len(setups)} fresh-process set-ups)"
        elif name in ("fdm.scan_s", "cli.write_s"):
            note = "  (derived: caller self time)"
        print(f"{tag} {name} = {values[name]!r} {units[name]}{note}")
    failed = len(run.failures)
    print(f"{tag} error_rate = {failed / run.attempted!r} "
          f"({failed} failed of {run.attempted} attempted)")
    for reason in run.failures:
        print(f"{tag} FAILED {reason}")
    if args.trace:
        print(f"{tag} spans written to {os.path.relpath(trace_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; their reports, then a summary line."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited with {proc.returncode}")
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure ops until this much wall time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        check_package()
        print(json.dumps({"setup_s": setup_only(args.workload, args.seed)}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
