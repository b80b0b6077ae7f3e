"""Record the reference outputs that the benchmark's per-op checks compare
against: the seed-independent I_lam values and the lab-cli CSV digests.

    python3 perfbench/record_reference.py

Run it only when a change to the program is meant to change these outputs,
and say so in the change.
"""

import json
import os
import sys

import run

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402

if __name__ == "__main__":
    ref = workloads.record_reference()
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(workloads.REFERENCE)}")
