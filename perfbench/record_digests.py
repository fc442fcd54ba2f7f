"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record_digests.py [workload ...]

Runs each named campaign workload (default: all) once per seed slot, and the
gap workload once, straight through the library with no timing. It writes
the results.csv SHA-256 digests and the gap rows to perfbench/digests.json
and keeps the entries of workloads not named. Rerun it only when a change
is meant to alter the program's numerical output, and say so in the change.
"""

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from specsense import harness  # noqa: E402

from workloads import (DIGESTS_PATH, SEED_SLOTS, WORKLOADS,  # noqa: E402
                       GapWorkload, load_digests, sha256_of, write_gap_csv)


def record(workload, tmp):
    if isinstance(workload, GapWorkload):
        rows = workload.rows([k for k, _ in workload.instances])
        path = os.path.join(tmp, f"{workload.name}.csv")
        write_gap_csv(rows, path)
        print(workload.name, sha256_of(path), flush=True)
        return {"sha256": sha256_of(path), "rows": rows}
    by_slot = {}
    for slot in range(SEED_SLOTS):
        out = os.path.join(tmp, f"{workload.name}-{slot}")
        path, _ = harness.run_campaign(workload.make_campaign(slot), out)
        by_slot[str(slot)] = sha256_of(path)
        print(workload.name, slot, by_slot[str(slot)], flush=True)
    return {"sha256_by_seed_slot": by_slot}


def main(names):
    digests = load_digests() if os.path.exists(DIGESTS_PATH) else {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name in names or WORKLOADS:
            digests[name] = record(WORKLOADS[name], tmp)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
