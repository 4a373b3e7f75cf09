"""The benchmark's three workloads, their inputs and their correctness checks.

Each workload is one *pass* of work that a user-facing command does,
split into *items* (one machine run, one soak schedule, one run of the
static stack).  ``setup`` turns the workload seed into the inputs the
program receives; ``run`` executes one pass and returns every item's
output.  Nothing here imports ``repro`` at module level, so the
orchestrating process (``run.py``) stays light; the pass itself runs
in a child process started by ``worker.py``.

Why these three workloads (see NOTES.md for the predicted effects):

* ``sweep-mitigation`` — the paper's main experiment, the quick OpenSSH
  n_tty grid at NONE and INTEGRATED: keygen, kernel boot and aging,
  held connections, the n_tty dump.  No sanitizer, no faults.
* ``soak-taint`` — the same kernel used differently: 8 MB machines,
  fork/exit/unwind-heavy crash-restart generations with KeySan attached
  and fault storms firing.
* ``analyze-frozen`` — only the static analysis stack, over a frozen
  copy of the source tree so the input does not change when the
  program's own source does.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
import zipfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent

#: The quick n_tty grid of ``repro sweep --kind mitigation --scale quick``.
SWEEP_SERVER = "openssh"
SWEEP_MEMORY_MB = 32
SWEEP_KEY_BITS = 1024

#: ``repro soak`` at NONE and INTEGRATED.  24 schedules per level give
#: a pass of 48 items, enough for a p79 tail within one pass.
SOAK_SCHEDULES = 24
SOAK_GENERATIONS = 5
SOAK_MEMORY_MB = 8
SOAK_KEY_BITS = 256

#: ``src/repro`` as committed when the benchmark was defined
#: (``git archive --format=zip <commit> src/repro``).
FROZEN_ARCHIVE = HERE / "frozen_src.zip"

#: The INTEGRATED key lives in one aligned page: an n_tty dump can see
#: d, p and q at most once each.
INTEGRATED_MAX_COPIES = 3

REFERENCE_PATH = HERE / "reference.json"


class ItemTimer:
    """Times consecutive items of a pass and tells the tracer which
    item is running, so every span carries its item id."""

    def __init__(self, ids: Sequence[str], tracer=None) -> None:
        self.ids = list(ids)
        self.tracer = tracer
        self.durations: List[Tuple[str, float]] = []
        self._started = 0.0

    def start(self) -> None:
        self._started = time.perf_counter()
        self._set_item()

    def done(self) -> None:
        now = time.perf_counter()
        self.durations.append(
            (self.ids[len(self.durations)], (now - self._started) * 1e3)
        )
        self._started = now
        self._set_item()

    def _set_item(self) -> None:
        if self.tracer is not None:
            index = len(self.durations)
            self.tracer.item = self.ids[index] if index < len(self.ids) else None


#: Counts a pass reads from the program's own results; each workload
#: reports every one, 0 where it does not apply.
COUNTERS = ("crypto.keycorpus.misses", "faults.fired", "analysis.ir.functions")


class PassResult:
    """What one pass produced: per-item outputs and errors, simulated
    quantities and program counters."""

    def __init__(self) -> None:
        self.outputs: Dict[str, object] = {}
        self.errors: Dict[str, str] = {}
        self.simulated: Dict[str, object] = {}
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)


def digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# sweep-mitigation
# ----------------------------------------------------------------------
def _sweep_setup(seed: int, scratch: Path):
    from repro.analysis import parallel
    from repro.analysis.experiments import QUICK_NTTY_CONNECTIONS, QUICK_REPETITIONS
    from repro.core.protection import ProtectionLevel

    specs = []
    for level in (ProtectionLevel.NONE, ProtectionLevel.INTEGRATED):
        specs += parallel.ntty_sweep_specs(
            SWEEP_SERVER, QUICK_NTTY_CONNECTIONS, QUICK_REPETITIONS, level,
            seed, SWEEP_MEMORY_MB, SWEEP_KEY_BITS,
        )
    ids = [f"{spec.level}/c{spec.conns}/r{spec.rep}" for spec in specs]
    return specs, ids


def _sweep_run(specs, timer: ItemTimer) -> PassResult:
    from repro.analysis import parallel
    from repro.core.protection import ProtectionLevel

    timer.start()
    outcomes, failures = parallel.run_specs(
        specs, workers=1, progress=lambda *_: timer.done()
    )
    # What mitigation_comparison does with the flat outcome list.
    split = len(specs) // 2
    none = ProtectionLevel.NONE
    cells = {
        "none": parallel.merge_ntty(
            SWEEP_SERVER, none, outcomes[:split],
            [f for f in failures if f.spec.level == none.value]),
        "integrated": parallel.merge_ntty(
            SWEEP_SERVER, ProtectionLevel.INTEGRATED, outcomes[split:],
            [f for f in failures if f.spec.level != none.value]),
    }
    result = PassResult()
    for item_id, outcome in zip(timer.ids, outcomes):
        if outcome is not None:
            result.outputs[item_id] = {
                "copies": outcome.copies,
                "success": outcome.success,
                "disclosed_bytes": outcome.bytes_moved,
                "elapsed_s": outcome.elapsed_s,
            }
    for failure in failures:
        spec = failure.spec
        result.errors[f"{spec.level}/c{spec.conns}/r{spec.rep}"] = failure.error
    result.simulated = {
        f"attack_elapsed_s.{level}": sum(
            cell.avg_elapsed_s * cell.samples for cell in merged.cells.values()
        )
        for level, merged in cells.items()
    }
    return result


def _sweep_invariant(item_id: str, output: dict) -> Optional[str]:
    if output["success"] != (output["copies"] > 0):
        return "success disagrees with the copy count"
    if output["disclosed_bytes"] <= 0 or output["elapsed_s"] <= 0:
        return "the n_tty dump disclosed nothing"
    if item_id.startswith("integrated/") and output["copies"] > INTEGRATED_MAX_COPIES:
        return f"{output['copies']} copies at INTEGRATED"
    return None


# ----------------------------------------------------------------------
# soak-taint
# ----------------------------------------------------------------------
def _soak_setup(seed: int, scratch: Path):
    from repro.core.protection import ProtectionLevel

    levels = (ProtectionLevel.NONE, ProtectionLevel.INTEGRATED)
    ids = [f"{level.value}/s{index}"
           for level in levels for index in range(SOAK_SCHEDULES)]
    return (seed, levels), ids


def _soak_run(inputs, timer: ItemTimer) -> PassResult:
    from repro.faults.soak import run_soak

    seed, levels = inputs
    timer.start()
    report = run_soak(
        server="openssh", levels=levels, seed=seed,
        schedules=SOAK_SCHEDULES, generations=SOAK_GENERATIONS,
        memory_mb=SOAK_MEMORY_MB, key_bits=SOAK_KEY_BITS, workers=1,
        progress=lambda *_: timer.done(),
    )
    result = PassResult()
    fired = 0
    for level, data in report["levels"].items():
        for record in data["schedules"]:
            result.outputs[f"{level}/s{record['index']}"] = {
                "digest": digest(record),
                "clean": record["clean"],
                "fired": len(record["fired"]),
                "restarts": record["restarts"],
                "unhandled": len(record["unhandled"]),
                "invariant_violations": len(record["invariant_violations"]),
                "restart_latency_us": record["restart_latency_us"]["total"],
            }
            fired += len(record["fired"])
        result.simulated[f"restart_latency_us.{level}"] = (
            data["summary"]["restart_latency_us"]["total"])
    result.counters["faults.fired"] = fired
    return result


def _soak_invariant(item_id: str, output: dict) -> Optional[str]:
    if output["unhandled"] or output["invariant_violations"]:
        return "unhandled exception or steady-state invariant violated"
    if item_id.startswith("integrated/") and not output["clean"]:
        return "a dead incarnation's key survived at INTEGRATED"
    if item_id.startswith("none/") and output["clean"]:
        return "no cross-incarnation leak at NONE"
    return None


# ----------------------------------------------------------------------
# analyze-frozen
# ----------------------------------------------------------------------
def _analyze_setup(seed: int, scratch: Path):
    from repro.analysis.ir.project import discover_files

    scratch.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(FROZEN_ARCHIVE) as archive:
        archive.extractall(scratch)
    pairs = discover_files([scratch / "src" / "repro"])
    random.Random(seed).shuffle(pairs)
    return (scratch, pairs), ["stack"]


def _analyze_run(inputs, timer: ItemTimer) -> PassResult:
    from repro.analysis.runall import run_all

    scratch, pairs = inputs
    timer.start()
    analyzed = run_all(paths=[scratch / "src" / "repro"], files=pairs)
    timer.done()
    payload = analyzed.to_json_dict()
    output = {
        "files": len(analyzed.files),
        "functions": analyzed.function_count,
        "keylint": sorted(
            f"{v['rule']}:{v['path']}:{v['line']}"
            for v in payload["keylint"]["violations"]
        ),
    }
    for name in analyzed.ran_tools:
        output[name] = sorted(f["id"] for f in payload[name]["findings"])
    result = PassResult()
    result.outputs["stack"] = output
    result.counters["analysis.ir.functions"] = analyzed.function_count
    return result


def _analyze_cleanup(inputs) -> None:
    shutil.rmtree(inputs[0], ignore_errors=True)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class Workload:
    def __init__(self, setup: Callable, run: Callable,
                 invariant: Optional[Callable] = None,
                 cleanup: Optional[Callable] = None,
                 seed_independent: bool = False) -> None:
        self.setup = setup
        self.run = run
        self.invariant = invariant
        self.cleanup = cleanup
        #: The seed only reorders the input; outputs never depend on it.
        self.seed_independent = seed_independent


REGISTRY = {
    "sweep-mitigation": Workload(_sweep_setup, _sweep_run, _sweep_invariant),
    "soak-taint": Workload(_soak_setup, _soak_run, _soak_invariant),
    "analyze-frozen": Workload(_analyze_setup, _analyze_run,
                               cleanup=_analyze_cleanup, seed_independent=True),
}

WORKLOADS = tuple(REGISTRY)


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def expected_outputs(reference: dict, workload: str, seed: int) -> Optional[dict]:
    """The recorded outputs for this seed, or ``None`` if none were recorded."""
    by_seed = reference.get(workload, {})
    key = "any" if REGISTRY[workload].seed_independent else str(seed)
    return by_seed.get(key)


def check_items(workload: str, ids: Sequence[str], outputs: Dict[str, object],
                errors: Dict[str, str], expected: Optional[dict]) -> Dict[str, str]:
    """Why each failing item failed: it raised, it has no output, its
    output differs from the recorded reference, or (for a seed with no
    reference) it breaks the workload's invariants."""
    failed: Dict[str, str] = {}
    invariant = REGISTRY[workload].invariant
    for item_id in ids:
        if item_id in errors:
            failed[item_id] = f"raised: {errors[item_id]}"
        elif item_id not in outputs:
            failed[item_id] = "no output"
        elif expected is not None:
            if outputs[item_id] != expected.get(item_id):
                failed[item_id] = "differs from the reference"
        elif invariant is not None:
            reason = invariant(item_id, outputs[item_id])
            if reason:
                failed[item_id] = reason
    return failed
