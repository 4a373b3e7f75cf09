#!/usr/bin/env python3
"""Show that the correctness check counts a wrong or raising item.

    python3 perfbench/selftest.py [--workload W]

For each workload, one real untraced pass runs with the default seed
and its outputs are checked three ways: against the recorded
reference (no item may fail), against a copy of the reference with
one entry perturbed (exactly that item must fail), and with one item
marked as having raised (exactly that item must fail).  Exits 0 when
every check counts as intended.
"""

from __future__ import annotations

import argparse
import copy
import sys

import run
import workloads
from make_reference import DEFAULT_SEED


def perturb(value):
    """A value that differs from ``value`` and has the same shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-perturbed"
    if isinstance(value, list):
        return value + ["perturbed"]
    if isinstance(value, dict):
        key = sorted(value)[0]
        return {**value, key: perturb(value[key])}
    raise TypeError(f"cannot perturb {type(value).__name__}")


def selftest(name: str, reference: dict) -> bool:
    record = run.spawn(name, DEFAULT_SEED, "plain", "selftest")
    ids, outputs, errors = record["ids"], record["outputs"], record["errors"]
    expected = workloads.expected_outputs(reference, name, DEFAULT_SEED)
    if expected is None:
        print(f"{name}: no reference recorded for seed {DEFAULT_SEED}")
        return False
    victim = ids[len(ids) // 2]
    perturbed = copy.deepcopy(expected)
    perturbed[victim] = perturb(perturbed[victim])
    cases = [
        ("recorded reference", {}, expected, set()),
        (f"reference entry {victim} perturbed", {}, perturbed, {victim}),
        (f"item {victim} raised", {victim: "RuntimeError: injected"}, expected, {victim}),
    ]
    ok = True
    for label, injected, reference_outputs, should_fail in cases:
        failed = workloads.check_items(
            name, ids, outputs, {**errors, **injected}, reference_outputs)
        verdict = "ok" if set(failed) == should_fail else "WRONG"
        ok &= verdict == "ok"
        print(f"{name}: {label}: {len(failed)}/{len(ids)} items failed "
              f"(expected {len(should_fail)}) {verdict}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    args = parser.parse_args()
    reference = workloads.load_reference()
    results = [selftest(name, reference) for name in args.workload or workloads.WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
