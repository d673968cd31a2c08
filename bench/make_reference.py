"""Regenerate ``bench/reference.json`` from the code in this checkout.

    python3 bench/make_reference.py SEED [SEED ...]

Runs one untraced pass of every workload for each seed and stores every
checked value.  Run it only at a commit whose values are trusted: later
commits are checked against what it writes.  A pass with a failed bound is
refused.
"""

import json
import sys
import time

import run


def main(argv) -> int:
    seeds = [int(s) for s in argv] or [1]
    table: dict = {}
    for seed in seeds:
        for workload in [w["name"] for w in run.load_spec()["workloads"]]:
            result = run.spawn(workload, seed, "pass", time.monotonic() + run.RUN_LIMIT_S)
            if result["failures"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failures']}")
            table.setdefault(str(seed), {})[workload] = result["values"]
            print(f"seed {seed} {workload}: {len(result['cases'])} cases", flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
