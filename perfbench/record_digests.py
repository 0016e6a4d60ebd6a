"""Record the result digests the correctness gate compares against.

    python3 perfbench/record_digests.py noise_max chirp_tfe_cli mfdm_csv

Writes perfbench/digests.json, keyed by workload and then by input seed
(``noise_max``: the record's own seed; ``mfdm_csv``: the --seed the CSV
was drawn from; ``chirp_tfe_cli``: "any", its record has no seed). The
digests pin the results of the commit they were recorded at: rerun this
only when a change is meant to alter results, never to make a
performance change pass the gate.
"""

import contextlib
import io
import json
import os
import sys

from run import HERE, check_package, load_digests, workdir
from workloads import WORKLOADS

SEEDS = {"noise_max": range(64), "chirp_tfe_cli": range(1), "mfdm_csv": range(32)}


def record(name: str) -> dict:
    digests = {}
    for seed in SEEDS[name]:
        wl = WORKLOADS[name]()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                wl.setup(seed, workdir(name, "record"), {})
                prepared = wl.prepare(0)
                out = wl.run_op(prepared)
            errors = wl.check(prepared, out)
            if errors:
                raise SystemExit(f"{name} seed {seed}: {'; '.join(errors)}")
            key = wl.digest_key(prepared)
            digests[key] = wl.digest(prepared, out)
        finally:
            wl.teardown()
        print(f"{name} {key} {digests[key]}", flush=True)
    return digests


def main(names: list) -> int:
    check_package()
    results = {name: record(name) for name in names}
    # merge under the latest file, so workloads can be recorded in parallel
    path = os.path.join(HERE, "digests.json")
    digests = load_digests()
    digests.update(results)
    with open(path, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(WORKLOADS)))
