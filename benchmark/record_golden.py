"""Write golden.json: the output digest of every cell at seed 0.

    PYTHONPATH=src python3 benchmark/record_golden.py

Run it only on a commit whose outputs are trusted, and only when the cell
grid changes: at seed 0 the benchmark fails any cell whose output digest
differs from the one recorded here.  A cell whose verdict is false is not
recorded, and the script exits 1.
"""

from __future__ import annotations

import json
import sys

import workloads
from worker import GOLDEN


def main() -> int:
    golden, bad = {}, []
    for workload in workloads.WORKLOADS:
        golden[workload] = {}
        for cell in workloads.build(workload, 0):
            out = cell.run()
            if cell.verdict(out) == "fail":
                bad.append(cell.name)
                continue
            golden[workload][cell.name] = workloads.digest(out)
            print(f"{workload:15s} {cell.name}", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    for name in bad:
        print(f"verdict false, not recorded: {name}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
