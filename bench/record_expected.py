"""Rewrite expected.json from the program's outputs at the default seed.

    python3 bench/record_expected.py

Run it only when a change to the outputs is intended, and say so where
the change is described.  Outputs are recorded only if every instance
passes the invariant checks.
"""

from __future__ import annotations

import json
import sys

from run import WORK, run_pass, setup
from workloads import DEFAULT_SEED, EXPECTED_PATH, WORKLOADS, comparable


def main() -> int:
    expected = {}
    for name, workload in WORKLOADS.items():
        directory = WORK / name
        files, _ = setup(workload, DEFAULT_SEED, directory)
        result = run_pass(workload, directory, files, None, traced=False)
        failures = [v for v in result["verdicts"] if v]
        if failures:
            print(f"error: {name}: {failures[0]}", file=sys.stderr)
            return 1
        outputs = [out["stdout"] for out in result["outputs"]]
        expected[name] = (outputs[0] if workload.corpus else
                          [comparable(json.loads(o)) for o in outputs])
        print(f"{name}: recorded {len(files)} instances")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
