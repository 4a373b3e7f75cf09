#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {sweep-mitigation,soak-taint,analyze-frozen} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each *pass* of the workload runs in
a fresh ``worker.py`` process, one at a time: on a small shared host
a process pool would measure the scheduler.  Passes repeat
while the next one still fits in ``--seconds``; at least one always
runs.

``--trace 0`` reports the end-to-end metrics, all measured untraced:

* ``setup_s`` — process start to first item (interpreter start,
  imports, input generation); the median over every pass plus extra
  set-up-only processes, at least ``SETUP_SAMPLES`` in all;
* ``wall_s`` — median wall time of one pass;
* ``item_ms_p50`` — median item time (machine run, soak schedule, or
  run of the static stack) over all passes;
* ``item_ms_tail`` — per pass, the highest percentile with at least 10
  items beyond it (the slowest item when a pass has 10 or fewer);
  the median over passes;
* ``peak_rss_mb`` — median over passes of the pass process's peak RSS.

``--trace 1`` alternates untraced and traced passes (at least one of
each) and reports per-layer self times and call counts (medians over
the traced passes) plus ``trace.overhead_s``, the median traced minus
the median untraced pass wall time.

Every item's output is checked: against ``reference.json`` for the
seeds recorded there, otherwise against the workload's invariants.
Every pass of one run must also produce identical outputs, so a traced
pass that changed the program's behaviour is caught.  Failed items
are counted in ``failed``; ``error_rate`` is ``failed / attempted``.

The last line of standard output is the JSON result; a full record
(provenance, simulated quantities, per-item times, failures) goes to
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

#: Set-up samples per run (pass processes plus set-up-only processes).
SETUP_SAMPLES = 7

#: Items beyond the tail percentile.
TAIL_BEYOND = 10

#: The whole run must end within this many seconds of its start.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A pass process failed to produce a result."""


def remaining_s() -> float:
    """Seconds left before this run's deadline."""
    return DEADLINE_S - (time.monotonic() - STARTED)


def spawn(workload: str, seed: int, mode: str, tag: str,
          timeout: float = DEADLINE_S) -> dict:
    """Run ``worker.py`` once; return its record with ``setup_s`` and
    ``process_s`` added."""
    if timeout <= 0:
        raise BenchError("out of time before starting a pass")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload}-seed{seed}-{tag}.json"
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--out", str(out)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass exceeded {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited with {proc.returncode}")
    record = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    if mode != "setup" and not record["items"]:
        raise BenchError(f"{mode} pass finished no item: {record['errors']}")
    record["setup_s"] = record["first_item_at"] - spawned
    record["process_s"] = time.monotonic() - spawned
    return record


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> List[dict]:
    """Untraced passes (or untraced and traced passes in turn) while the
    next pass is expected to fit in ``seconds``."""
    passes: List[dict] = []
    begun = time.monotonic()
    while True:
        # Alternating keeps a slow spell of the host from landing on one
        # mode only, which would skew the tracing overhead.
        mode = "traced" if trace and len(passes) % 2 else "plain"
        passes.append(spawn(workload, seed, mode, f"pass{len(passes)}",
                            timeout=remaining_s()))
        if trace and len(passes) < 2:
            continue
        longest = max(p["process_s"] for p in passes)
        if time.monotonic() - begun + longest > seconds:
            return passes


def tail(values: List[float]):
    """(value, percentile): the highest percentile with ``TAIL_BEYOND``
    samples beyond it, or the maximum of a short list."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n


def check(workload: str, seed: int, passes: List[dict],
          reference: dict) -> Dict[str, object]:
    """Count attempted and failed items over every pass."""
    expected = workloads.expected_outputs(reference, workload, seed)
    attempted = 0
    failures: List[str] = []
    first = passes[0]["outputs"]
    for index, record in enumerate(passes):
        ids = record["ids"]
        attempted += len(ids)
        failed = workloads.check_items(
            workload, ids, record["outputs"], record["errors"], expected)
        for item_id in ids:
            if item_id not in failed and record["outputs"].get(item_id) != first.get(item_id):
                failed[item_id] = "differs from the run's first pass"
        failures += [f"pass{index}/{item_id}: {why}" for item_id, why in failed.items()]
        if record["simulated"] != passes[0]["simulated"]:
            failures.append(f"pass{index}: simulated totals differ from the first pass")
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "reference": "recorded" if expected is not None else "invariants",
    }


def provenance() -> Dict[str, object]:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def end_to_end(passes: List[dict], setups: List[float]) -> Dict[str, object]:
    items = [ms for record in passes for _, ms in record["items"]]
    # The tail is taken per pass, so its percentile does not depend on
    # how many passes fitted in the run.
    tails = [tail([ms for _, ms in record["items"]]) for record in passes]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "item_ms_p50": statistics.median(items),
        "item_ms_tail": statistics.median(value for value, _ in tails),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }, {"tail_percentile": tails[0][1], "items_per_pass": len(passes[0]["items"]),
        "item_samples": len(items)}


def per_layer(plain: List[dict], traced: List[dict]) -> Dict[str, float]:
    # median_low reports a value one traced pass measured, so counts stay whole.
    names = traced[0]["layers"].keys()
    layers = {name: statistics.median_low(p["layers"][name] for p in traced)
              for name in names}
    layers["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain))
    return layers


def unit_of(layer_metric: str) -> str:
    return "s" if layer_metric.endswith((".s", "_s")) else "count"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "repro" / "__init__.py",
                           workloads.FROZEN_ARCHIVE, workloads.REFERENCE_PATH)
               if not p.is_file()]
    if missing:
        print(f"perfbench: not a checkout of the program, missing {missing[0]}",
              file=sys.stderr)
        return 2
    reference = workloads.load_reference()

    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            probe = spawn(args.workload, args.seed, "setup", f"setup{len(setups)}",
                          timeout=remaining_s())
            setups.append(probe["setup_s"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    verdict = check(args.workload, args.seed, passes, reference)
    plain = [p for p in passes if p["mode"] == "plain"]
    traced = [p for p in passes if p["mode"] == "traced"]
    e2e, tail_info = end_to_end(plain, setups)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(per_layer(plain, traced).items())}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = verdict["failed"] == 0
    error_rate = verdict["failed"] / verdict["attempted"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "passes": [{"mode": p["mode"], "wall_s": p["wall_s"], "setup_s": p["setup_s"],
                    "peak_rss_mb": p["peak_rss_mb"], "items": p["items"]}
                   for p in passes],
        "setup_samples_s": setups,
        "end_to_end": {**e2e, **tail_info, "error_rate": error_rate},
        "layers": [p["layers"] for p in traced],
        "simulated": passes[0]["simulated"],
        "correctness": verdict,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, {verdict['attempted']} items "
          f"({verdict['reference']} outputs checked)")
    print("  " + " ".join(f"{key}={value}" for key, value in record["provenance"].items()))
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"  {'item_ms_tail percentile':<40} p{tail_info['tail_percentile']:.4g} "
              f"of {tail_info['items_per_pass']} items per pass, "
              f"{tail_info['item_samples']} items in all")
    print(f"  {'error_rate':<40} {error_rate:.6g} "
          f"({verdict['failed']}/{verdict['attempted']} items failed)")
    for name, value in sorted(passes[0]["simulated"].items()):
        print(f"  [simulated] {name:<28} {value:.6g} "
              "(simulated time, identity-checked, not a speed)")
    for failure in verdict["failures"][:10]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
