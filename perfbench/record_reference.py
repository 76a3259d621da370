"""Record the values the benchmark checks outputs against.

    python3 perfbench/record_reference.py

Runs every workload at seed 0 and the reference run length, and writes
``perfbench/reference.json``. Record it only from a commit whose outputs
are trusted: later runs count every difference from it as a failure.
"""

from __future__ import annotations

import json
import sys

import workloads


def main() -> int:
    sys.path.insert(0, str(workloads.SRC))
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        ops = workload.make_ops(0, workloads.REFERENCE_SECONDS)
        outputs, _, wall = workloads.timed_pass(workload, ops)
        values = {}
        for op, (_, out, error) in zip(ops, outputs):
            if error:
                print(f"{name}: {error}", file=sys.stderr)
                return 1
            values[op.ref] = workload.values(out)
        if all(isinstance(key, int) for key in values):
            values = [values[i] for i in range(len(values))]
        reference[name] = values
        print(f"{name}: {len(ops)} operations in {wall:.2f} s", file=sys.stderr)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
