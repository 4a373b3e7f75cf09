#!/usr/bin/env python3
"""Record every item's expected output into ``reference.json``.

    python3 perfbench/make_reference.py [--workload W]

Runs one untraced pass per workload for the default seed and the
held-out seed (once for ``analyze-frozen``, whose outputs do not
depend on the seed).  An item is recorded only if it raised nothing
and satisfies the workload's invariants; otherwise the script fails
and writes nothing.  Re-record only when the program's outputs are
meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads

#: The seed the program's own CLIs default to.
DEFAULT_SEED = 42
#: Recorded, but not used while the benchmark was being tuned.
HELD_OUT_SEED = 20071


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    args = parser.parse_args()
    try:
        reference = workloads.load_reference()
    except FileNotFoundError:
        reference = {}
    for name in args.workload or workloads.WORKLOADS:
        independent = workloads.REGISTRY[name].seed_independent
        seeds = [DEFAULT_SEED] if independent else [DEFAULT_SEED, HELD_OUT_SEED]
        recorded = {}
        for seed in seeds:
            record = run.spawn(name, seed, "plain", "reference")
            failed = workloads.check_items(
                name, record["ids"], record["outputs"], record["errors"], None)
            if failed:
                print(f"{name} seed {seed}: {failed}", file=sys.stderr)
                return 1
            recorded["any" if independent else str(seed)] = record["outputs"]
            print(f"{name} seed {seed}: {len(record['ids'])} items recorded")
        reference[name] = recorded
    workloads.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
