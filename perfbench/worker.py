"""Run one pass of one workload in a fresh process (started by run.py).

    python3 perfbench/worker.py --workload W --seed N --mode {setup,plain,traced} --out FILE

``setup`` stops where the first item would start; ``plain`` runs the
pass untraced; ``traced`` runs it with spans, counters and GC
callbacks installed and also writes the spans next to ``FILE``.  The
result is one JSON object in ``FILE``.  Timestamps are
``time.monotonic()``, which every process on the host shares, so the
parent can measure set-up from the moment it started this process.
Garbage collection is left to run on its own: forcing it between
items would hide the memory that dead machines hold in reference
cycles.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (perfbench/ is sys.path[0])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out = Path(args.out)
    workload = workloads.REGISTRY[args.workload]
    inputs, ids = workload.setup(args.seed, out.with_suffix(".frozen"))
    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    timer = workloads.ItemTimer(ids, tracer)
    first_item_at = time.monotonic()
    record = {"mode": args.mode, "first_item_at": first_item_at, "ids": ids}
    try:
        if args.mode != "setup":
            started = time.perf_counter_ns()
            try:
                result = workload.run(inputs, timer)
            except Exception:
                result = workloads.PassResult()
                failure = traceback.format_exc(limit=3).strip().splitlines()[-1]
                result.errors = {i: failure for i in ids}
            wall_ns = time.perf_counter_ns() - started
            if "repro.crypto.keycorpus" in sys.modules:
                from repro.crypto import keycorpus

                result.counters["crypto.keycorpus.misses"] = (
                    keycorpus.cache_stats()["misses"])
            if tracer is not None:
                tracer.uninstall()
                record["layers"] = {**tracer.metrics(wall_ns), **result.counters}
                tracer.dump(str(out.with_suffix(".spans.json")))
            record.update(
                wall_s=wall_ns / 1e9,
                items=timer.durations,
                outputs=result.outputs,
                errors=result.errors,
                simulated=result.simulated,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            )
    finally:
        if workload.cleanup is not None:
            workload.cleanup(inputs)
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(record), encoding="utf-8")
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
