"""Record the suite fingerprints that run.py compares against.

Usage, from the repository root:

    python3 perfbench/record_baseline.py

Runs the operation of every benchmarked workload for seeds 0..SEEDS-1,
checks its output, and stores its size and the sha256 of its output bytes
in perfbench/fingerprints.json: the ``write_suite`` file for a generate
workload, the ``vscit verify`` report for oracle-verify. Re-record only
with a change that declares a byte-identity break.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from workloads import BENCHMARKED, WORKLOADS, Runner

# Operation j of a run uses seed + j; a run on seeds up to ~30 with
# --seconds 20 makes at most ten or so operations, all of which this covers.
SEEDS = 48


def main() -> int:
    vscit = run.load_vscit()
    table = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name in BENCHMARKED:
            runner = Runner(vscit, WORKLOADS[name], Path(tmp))
            for seed in range(SEEDS):
                op = runner.run(seed)
                if op.problems:
                    print(f"{name} seed={seed}: {'; '.join(op.problems)}", file=sys.stderr)
                    return 1
                print(f"{name} seed={seed} size={op.size} seconds={op.seconds:.3f}", flush=True)
                table.setdefault(name, {})[str(seed)] = {"size": op.size, "sha256": op.digest}
    run.FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
