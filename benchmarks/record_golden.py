"""Record golden.json: the digest of the printed result of every pool item.

    PYTHONPATH=src python3 benchmarks/record_golden.py

Every result must first pass the independent checks of checks.py; nothing
is written otherwise.  Re-record only when a change to the printed results
is intended, and say so in the change.
"""

import json
import sys

import checks
import gen
from worker import Engine


def main():
    engine = Engine()
    golden = {}
    bad = 0
    for workload in gen.WORKLOADS:
        if workload == "verify-all":
            continue
        items = gen.pool(workload)
        for op in items:
            op.setdefault("h0", "3/7")
        outs = [engine.run(op) for op in items]
        bad += checks.independent_failures(engine, items, outs)
        golden.update((op["id"], checks.digest(text)) for op, text in zip(items, outs))
    if bad:
        print(f"{bad} pool results fail the independent checks; not written",
              file=sys.stderr)
        return 1
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
