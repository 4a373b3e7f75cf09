#!/usr/bin/env python3
"""Benchmark the parallel sweep engine and its three hot loops.

Two layers of measurement, one JSON at the repo root
(``BENCH_parallel_sweep.json``, where the trajectory tooling reads
every ``BENCH_*.json``; the old ``benchmarks/results/`` copy is
migrated away on the first write):

* **Sweep speedup.**  The quick-scale OpenSSH n_tty sweep runs twice —
  ``workers=1`` and ``workers=N`` — after the deterministic key corpus
  is prewarmed, so neither side pays Miller–Rabin keygen inside the
  timed region and the comparison is fair (forked workers inherit the
  warm corpus).  Cells are asserted byte-identical (the engine's core
  guarantee).  The speedup must reach ``MIN_EFFICIENCY`` × ``min(workers,
  cpu_count)`` (2.0× at CI's 4 workers on 4 cores) on any box with ≥ 2
  cores, and on any box under ``--require-speedup``, the flag CI's
  multi-core job passes so a slow parallel path **fails** the build (the
  0.55× regression of the original engine hid behind a hardware gate).

* **Hot-loop microbenchmarks.**  The three loops the sweep spends its
  time in — the 256 MB sparse memory scan, the KeySan shadow census,
  and per-run key-material acquisition (cold keygen vs warm corpus
  boot) — each timed on their own, so ``--check-regression`` can hold
  every loop to the same 20% budget ``BENCH_static_analysis.json``
  uses (``best > baseline * 1.2 + 0.15s floor`` fails).

Usage::

    PYTHONPATH=src python tools/bench_parallel_sweep.py
    PYTHONPATH=src python tools/bench_parallel_sweep.py \
        --require-speedup --check-regression   # the CI invocation
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

DEFAULT_OUT = REPO_ROOT / "BENCH_parallel_sweep.json"
LEGACY_OUT = REPO_ROOT / "benchmarks" / "results" / "BENCH_parallel_sweep.json"

#: A hot loop regresses when ``best > baseline * RATIO + FLOOR_SECONDS``
#: — the same budget the static-analysis bench gate enforces.
REGRESSION_RATIO = 1.2
FLOOR_SECONDS = 0.15

#: Least parallel efficiency (speedup per usable core) wherever the
#: speedup assertion is armed.
MIN_EFFICIENCY = 0.5


def _best_of(fn, repeat: int) -> float:
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


# ----------------------------------------------------------------------
# hot-loop microbenchmarks
# ----------------------------------------------------------------------
def _bench_scan_256mb(repeat: int) -> dict:
    """Hot loop: the full sparse memory scan of a 256 MB machine."""
    from repro.attacks.keysearch import KeyPatternSet
    from repro.attacks.scanner import MemoryScanner
    from repro.kernel.kernel import Kernel, KernelConfig

    kern = Kernel(KernelConfig(version=(2, 6, 10), memory_mb=256))
    proc = kern.create_process("holder")
    addr = proc.heap.malloc(256)
    proc.mm.write(addr, b"\x5a" * 256)
    patterns = KeyPatternSet(
        {
            "d": b"\x5a" * 64,
            "p": b"\x99" * 64,
            "q": b"\x77" * 64,
            "pem": b"NOT-PRESENT-PATTERN-0123456789abcdef",
        }
    )
    scanner = MemoryScanner(kern, patterns)
    matches = scanner.scan().total

    def scan_once():
        scanner.reset_cache()
        scanner.scan()

    return {
        "loop": "scan_256mb_full",
        "best_seconds": round(_best_of(scan_once, repeat), 4),
        "matches": matches,
    }


def _bench_shadow_census_256mb(repeat: int) -> dict:
    """Hot loop: the KeySan census over a 256 MB shadow map."""
    from repro.sanitizer.shadow import ShadowMap

    shadow = ShadowMap(256 * 1024 * 1024)
    for index in range(16):
        shadow.set_range(index * 13 * 1024 * 1024 + 5000, 2048,
                         (index % 7) + 1, index + 1)

    def census_once():
        total = 0
        for start, length in shadow.iter_tainted_chunks(4096):
            total += len(shadow.runs_in(start, length))
        return total

    runs = census_once()
    return {
        "loop": "shadow_census_256mb",
        "best_seconds": round(_best_of(census_once, repeat), 4),
        "taint_runs": runs,
    }


def _bench_key_material(repeat: int, key_bits: int) -> dict:
    """Hot loop: per-run key acquisition — cold keygen vs corpus hit."""
    from repro.crypto import keycorpus

    def cold_once():
        keycorpus.clear()
        keycorpus.key_material(key_bits, 424242)

    cold = _best_of(cold_once, repeat)
    keycorpus.key_material(key_bits, 424242)
    warm = _best_of(lambda: keycorpus.key_material(key_bits, 424242),
                    max(repeat, 3))
    return {
        "loop": f"keygen_cold_{key_bits}",
        "best_seconds": round(cold, 4),
        "warm_hit_seconds": round(warm, 6),
    }


def hot_loop_benchmarks(repeat: int, key_bits: int) -> list:
    results = []
    for entry in (
        _bench_scan_256mb(repeat),
        _bench_shadow_census_256mb(repeat),
        _bench_key_material(repeat, key_bits),
    ):
        results.append(entry)
        print(f"{entry['loop']:24s} best {entry['best_seconds']:7.3f}s",
              file=sys.stderr)
    return results


def check_regression(results: list, baseline_payload: dict) -> list:
    """Compare fresh hot-loop timings against the committed baseline;
    return human-readable failures (empty = within budget)."""
    committed = {
        entry["loop"]: entry
        for entry in baseline_payload.get("hot_loops", [])
    }
    failures = []
    for entry in results:
        base = committed.get(entry["loop"])
        if base is None:
            continue  # new loop: no baseline yet, nothing to regress
        budget = base["best_seconds"] * REGRESSION_RATIO + FLOOR_SECONDS
        if entry["best_seconds"] > budget:
            failures.append(
                f"{entry['loop']}: best {entry['best_seconds']:.3f}s exceeds "
                f"budget {budget:.3f}s "
                f"(baseline {base['best_seconds']:.3f}s × {REGRESSION_RATIO} "
                f"+ {FLOOR_SECONDS}s floor)"
            )
    return failures


# ----------------------------------------------------------------------
# sweep speedup
# ----------------------------------------------------------------------
def sweep_speedup(args) -> dict:
    from repro.analysis.experiments import (
        QUICK_NTTY_CONNECTIONS,
        QUICK_REPETITIONS,
    )
    from repro.analysis.parallel import (
        merge_ntty,
        ntty_sweep_specs,
        prewarm_corpus,
        run_specs,
    )
    from repro.core.protection import ProtectionLevel

    specs = ntty_sweep_specs(
        "openssh",
        QUICK_NTTY_CONNECTIONS,
        QUICK_REPETITIONS,
        ProtectionLevel.NONE,
        args.seed,
        args.memory_mb,
        args.key_bits,
    )

    started = time.monotonic()
    prewarmed = prewarm_corpus(specs)
    prewarm_s = time.monotonic() - started

    started = time.monotonic()
    serial_out, serial_fail = run_specs(specs, workers=1)
    serial_s = time.monotonic() - started

    started = time.monotonic()
    pooled_out, pooled_fail = run_specs(specs, workers=args.workers)
    pooled_s = time.monotonic() - started

    assert not serial_fail and not pooled_fail, (serial_fail, pooled_fail)
    serial = merge_ntty("openssh", ProtectionLevel.NONE.value,
                        serial_out, serial_fail)
    pooled = merge_ntty("openssh", ProtectionLevel.NONE.value,
                        pooled_out, pooled_fail)
    assert serial.cells == pooled.cells, (
        "parallel sweep diverged from serial — seed derivation broken"
    )

    speedup = serial_s / pooled_s if pooled_s else 0.0
    return {
        "grid": {
            "connections": list(QUICK_NTTY_CONNECTIONS),
            "repetitions": QUICK_REPETITIONS,
            "memory_mb": args.memory_mb,
            "key_bits": args.key_bits,
            "seed": args.seed,
        },
        "runs": len(specs),
        "prewarm": {"keys": prewarmed, "seconds": round(prewarm_s, 3)},
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(pooled_s, 3),
        "speedup": round(speedup, 3),
        "cells_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_parallel_sweep", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--memory-mb", type=int, default=32)
    parser.add_argument("--key-bits", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="repetitions per hot-loop microbench (default: 3)",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT.name} at repo root)",
    )
    parser.add_argument(
        "--require-speedup", action="store_true",
        help=f"fail (exit 1) below {MIN_EFFICIENCY} parallel efficiency "
             "regardless of core count — the multi-core CI job's mode",
    )
    parser.add_argument(
        "--check-regression", action="store_true",
        help="before writing, compare hot-loop timings against the "
             "committed baseline; exit 1 on a >20%% per-loop slowdown",
    )
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    assert_speedup = args.require_speedup or cores >= 2
    usable = min(args.workers, cores)
    bound = MIN_EFFICIENCY * usable

    # Load the committed baseline BEFORE the fresh write clobbers it.
    baseline_payload = None
    if args.check_regression:
        if not DEFAULT_OUT.exists():
            print(f"no committed baseline at {DEFAULT_OUT}", file=sys.stderr)
            return 2
        baseline_payload = json.loads(DEFAULT_OUT.read_text(encoding="utf-8"))

    hot_loops = hot_loop_benchmarks(args.repeat, args.key_bits)
    sweep = sweep_speedup(args)

    payload = {
        "benchmark": "parallel_sweep",
        "python": sys.version.split()[0],
        "cpu_count": cores,
        "workers": args.workers,
        **sweep,
        "efficiency": round(sweep["speedup"] / usable, 3),
        "speedup_asserted": assert_speedup,
        "min_speedup": bound,
        "hot_loops": hot_loops,
        "note": (
            f"speedup >= {MIN_EFFICIENCY} x min(workers, cpu_count) is "
            "enforced when cpu_count >= 2 or --require-speedup is passed "
            "(CI's multi-core job passes it, so a slow parallel path fails "
            "the build); cells are asserted byte-identical unconditionally"
        ),
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    if LEGACY_OUT.exists() and LEGACY_OUT.resolve() != args.out.resolve():
        LEGACY_OUT.unlink()
        print(f"migrated legacy {LEGACY_OUT} -> {args.out}", file=sys.stderr)
    print(json.dumps(payload, indent=2))
    print(f"-> {args.out}", file=sys.stderr)

    status = 0
    if baseline_payload is not None:
        failures = check_regression(hot_loops, baseline_payload)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print("hot-loop runtime gate: within budget", file=sys.stderr)
    if assert_speedup and sweep["speedup"] < bound:
        print(
            f"SPEEDUP FAILURE: {sweep['speedup']:.2f}x < {bound}x at "
            f"{args.workers} workers on {cores} cores",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
