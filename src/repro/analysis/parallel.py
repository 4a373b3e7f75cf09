"""Deterministic parallel sweep engine for the attack experiments.

The paper's evaluation is thousands of *independent* machine runs:
every cell of Figures 1-4, 7, 17-18 averages 15-20 attacks, each on a
freshly booted machine.  This module expresses those grids as flat
lists of :class:`RunSpec` — one spec per (server, level, cell,
repetition) — and fans them out over a process pool.

Three properties the serial drivers lacked:

* **Collision-free seeding.**  Each run's seed is a hash of the *full*
  spec tuple (:func:`derive_seed`), not arithmetic over the cell
  parameters.  The old ``seed + 1000*rep + conns + dirs`` derivation
  re-ran the *same* machine whenever the directory grid step equalled
  the 1000-per-rep stride (rep=0/dirs=2000 == rep=1/dirs=1000), and
  aliased across cells via ``conns + dirs``.
* **Order independence.**  The seed depends only on the spec, so a
  sweep is byte-identical at any worker count: ``--workers 8`` and
  ``--workers 1`` produce the same cells.
* **Crash/timeout containment.**  A worker that dies or exceeds the
  deadline records a :class:`FailedRun` for its specs; the sweep
  finishes and reports the holes instead of hanging.

The engine merges outcomes back into the existing
:class:`~repro.analysis.experiments.Ext2SweepResult` /
:class:`~repro.analysis.experiments.NttySweepResult` types, which is
what every benchmark and CSV exporter already consumes.
"""

from __future__ import annotations

import hashlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig
from repro.errors import WorkloadError

#: Spec kinds the engine knows how to execute.
RUN_KINDS = ("ext2", "ntty", "scp", "siege")

#: How the attack kinds analyze the disclosed bytes: ``exact`` is the
#: paper's verbatim pattern search; ``predict`` is the structural
#: attacker (:mod:`repro.attacks.predict`) that rebuilds the key from
#: derived fragments plus the public half.
ATTACKERS = ("exact", "predict")

#: Progress callback: (done, total, elapsed_s, eta_s).
ProgressFn = Callable[[int, int, float, float], None]


@dataclass(frozen=True)
class RunSpec:
    """One independent machine run — a single sample of one cell.

    ``conns``/``dirs`` carry the cell parameters (for the perf kinds
    they hold concurrency and transaction count); ``rep`` is the
    repetition index within the cell.  The spec is hashable and
    picklable, and :func:`derive_seed` maps it to the machine seed.
    """

    kind: str
    server: str
    level: str
    conns: int
    dirs: int
    rep: int
    base_seed: int
    memory_mb: int
    key_bits: int
    #: Dump analysis mode (``exact`` / ``predict``).  Deliberately NOT
    #: part of :func:`derive_seed`'s blob: the attacker choice changes
    #: how the disclosed bytes are read, not which machine is booted,
    #: so both attackers sample the *same* machines — and every
    #: pre-existing exact-mode seed stays byte-identical.
    attacker: str = "exact"

    def cell(self) -> Tuple[int, int]:
        return (self.conns, self.dirs)


@dataclass
class RunOutcome:
    """What one executed spec measured."""

    spec: RunSpec
    seed: int
    copies: int
    success: bool
    elapsed_s: float
    bytes_moved: int = 0


@dataclass
class FailedRun:
    """A spec that crashed, timed out, or was lost with its worker.

    ``attempts`` counts executions including retries; ``backoff_s`` is
    the total *simulated* backoff charged before giving up (recorded
    for the report, never slept — sleeping would make sweep wall-clock
    depend on the retry schedule).
    """

    spec: RunSpec
    error: str
    attempts: int = 1
    backoff_s: float = 0.0


#: First retry waits this long (simulated), doubling per attempt.
RETRY_BACKOFF_BASE_S = 0.05


def corpus_pairs(specs: Sequence[RunSpec]) -> List[Tuple[int, int]]:
    """Unique ``(key_bits, seed)`` pairs a spec list will boot with."""
    seen: Dict[Tuple[int, int], None] = {}
    for spec in specs:
        seen.setdefault((spec.key_bits, derive_seed(spec)), None)
    return list(seen)


def prewarm_corpus(specs: Sequence[RunSpec]) -> int:
    """Generate every key a spec list needs into the process-local
    key corpus (:mod:`repro.crypto.keycorpus`).

    Call this *before* :func:`run_specs` when the grid will be swept
    more than once in-process (regression benches, repeated CLI runs)
    or when timing serial against parallel: worker processes fork from
    this process and inherit the warm corpus, so neither side of the
    comparison pays Miller–Rabin keygen inside the timed region.
    Returns the number of keys actually generated.
    """
    from repro.crypto.keycorpus import prewarm

    return prewarm(corpus_pairs(specs))


def derive_seed(spec: RunSpec) -> int:
    """Collision-free 64-bit seed from the full spec tuple.

    The same derivation runs in the serial and the pooled path, so a
    sweep's cells are identical at any worker count; and no two specs
    of any grid share a seed (SHA-256, not parameter arithmetic).
    """
    blob = "|".join(
        str(part)
        for part in (
            "repro-sweep-v1", spec.kind, spec.server, spec.level,
            spec.conns, spec.dirs, spec.rep, spec.base_seed,
            spec.memory_mb, spec.key_bits,
        )
    )
    digest = hashlib.sha256(blob.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------------------
# spec builders
# ----------------------------------------------------------------------
def ext2_sweep_specs(
    server: str,
    connections: Sequence[int],
    directories: Sequence[int],
    repetitions: int,
    level: ProtectionLevel,
    seed: int,
    memory_mb: int,
    key_bits: int,
    attacker: str = "exact",
) -> List[RunSpec]:
    """Figure 1/2 grid: fresh machine per (N, D, repetition)."""
    return [
        RunSpec("ext2", server, level.value, conns, dirs, rep,
                seed, memory_mb, key_bits, attacker)
        for conns in connections
        for dirs in directories
        for rep in range(repetitions)
    ]


def ntty_sweep_specs(
    server: str,
    connections: Sequence[int],
    repetitions: int,
    level: ProtectionLevel,
    seed: int,
    memory_mb: int,
    key_bits: int,
    attacker: str = "exact",
) -> List[RunSpec]:
    """Figure 3/4/7/17/18 grid: fresh machine per (N, repetition)."""
    return [
        RunSpec("ntty", server, level.value, conns, 0, rep,
                seed, memory_mb, key_bits, attacker)
        for conns in connections
        for rep in range(repetitions)
    ]


def perf_spec(
    kind: str,
    level: ProtectionLevel,
    transactions: int,
    concurrent: int,
    seed: int,
    memory_mb: int,
    key_bits: int,
) -> RunSpec:
    """One scp-stress or Siege run as a spec (Figures 8, 19-20)."""
    if kind not in ("scp", "siege"):
        raise WorkloadError(f"unknown perf kind {kind!r}")
    server = "openssh" if kind == "scp" else "apache"
    return RunSpec(kind, server, level.value, concurrent, transactions, 0,
                   seed, memory_mb, key_bits)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def execute_spec(spec: RunSpec) -> RunOutcome:
    """Boot one machine, run one attack/bench, return the sample."""
    if spec.kind not in RUN_KINDS:
        raise WorkloadError(f"unknown spec kind {spec.kind!r}")
    if spec.attacker not in ATTACKERS:
        raise WorkloadError(f"unknown attacker {spec.attacker!r}")
    seed = derive_seed(spec)
    if spec.kind in ("scp", "siege"):
        from repro.analysis.perfbench import run_scp_stress, run_siege

        runner = run_scp_stress if spec.kind == "scp" else run_siege
        metrics = runner(
            level=ProtectionLevel(spec.level),
            seed=seed,
            memory_mb=spec.memory_mb,
            key_bits=spec.key_bits,
            **(
                {"transfers": spec.dirs}
                if spec.kind == "scp" else {"transactions": spec.dirs}
            ),
            concurrent=spec.conns,
        )
        return RunOutcome(
            spec=spec, seed=seed, copies=0, success=True,
            elapsed_s=metrics.elapsed_s, bytes_moved=metrics.bytes_moved,
        )

    with Simulation(
        SimulationConfig(
            server=spec.server,
            level=ProtectionLevel(spec.level),
            seed=seed,
            memory_mb=spec.memory_mb,
            key_bits=spec.key_bits,
        )
    ) as sim:
        sim.start_server()
        predict = spec.attacker == "predict"
        if spec.kind == "ext2":
            sim.cycle_connections(spec.conns)
            attack = (
                sim.run_ext2_predict(spec.dirs)
                if predict
                else sim.run_ext2_attack(spec.dirs)
            )
        else:
            if spec.conns:
                sim.hold_connections(spec.conns)
            attack = sim.run_ntty_predict() if predict else sim.run_ntty_attack()
        return RunOutcome(
            spec=spec,
            seed=seed,
            copies=attack.total_copies,
            success=attack.success,
            elapsed_s=attack.elapsed_s,
            bytes_moved=attack.disclosed_bytes,
        )


def _run_chunk(
    indexed: List[Tuple[int, RunSpec]],
    runner: Callable[[RunSpec], RunOutcome] = execute_spec,
) -> List[Tuple[int, object]]:
    """Worker entry point: run a chunk, never raise past one spec."""
    results: List[Tuple[int, object]] = []
    for index, spec in indexed:
        try:
            results.append((index, runner(spec)))
        except Exception as exc:  # recorded, not fatal to the chunk
            results.append((index, f"{type(exc).__name__}: {exc}"))
    return results


def stderr_progress(label: str) -> ProgressFn:
    """A progress callback that rewrites one status line on stderr."""

    def _report(done: int, total: int, elapsed_s: float, eta_s: float) -> None:
        sys.stderr.write(
            f"\r[{label}] {done}/{total} runs "
            f"({100.0 * done / total:.0f}%) "
            f"elapsed {elapsed_s:.1f}s eta {eta_s:.1f}s"
        )
        if done == total:
            sys.stderr.write("\n")
        sys.stderr.flush()

    return _report


def run_specs(
    specs: Sequence[RunSpec],
    workers: int = 1,
    timeout_s: Optional[float] = None,
    chunksize: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    retries: int = 0,
    runner: Callable[[RunSpec], RunOutcome] = execute_spec,
) -> Tuple[List[Optional[RunOutcome]], List[FailedRun]]:
    """Execute every spec; return (outcomes by spec index, failures).

    ``outcomes[i]`` is ``None`` exactly when ``specs[i]`` appears in
    the failure list.  ``timeout_s`` bounds the whole sweep's wall
    clock: when it expires, still-pending specs are recorded as failed
    (``"timeout"``) instead of blocking forever on a wedged worker.
    Results are merged by spec index, so the outcome (and any result
    built from it) is identical for every ``workers`` value.

    ``retries`` re-runs failed specs up to that many extra times with
    exponential backoff (:data:`RETRY_BACKOFF_BASE_S`, doubling per
    attempt — *simulated*: recorded in the FailedRun, never slept).
    A spec's seed depends only on the spec, so a retried run that
    succeeds is byte-identical to a first-try success.  Retries share
    the sweep's global deadline; specs still failing after the last
    retry are reported with their attempt count.  ``runner`` replaces
    :func:`execute_spec` (tests inject flaky runners with it).
    """
    total = len(specs)
    outcomes: List[Optional[RunOutcome]] = [None] * total
    if not total:
        return outcomes, []
    if retries < 0:
        raise ValueError("retries must be non-negative")
    started = time.monotonic()
    deadline = started + timeout_s if timeout_s is not None else None

    def _tick(done: int) -> None:
        if progress is None or not done:
            return
        elapsed = time.monotonic() - started
        eta = elapsed / done * (total - done)
        progress(done, total, elapsed, eta)

    def _one_pass(
        indexed: List[Tuple[int, RunSpec]], report_progress: bool
    ) -> Dict[int, str]:
        """Run one attempt over ``indexed``; fill ``outcomes``, return
        the error string for every index that did not produce one."""
        errors: Dict[int, str] = {}
        if workers <= 1:
            for done, (index, spec) in enumerate(indexed, start=1):
                if deadline is not None and time.monotonic() > deadline:
                    errors[index] = "timeout"
                    continue
                for slot, result in _run_chunk([(index, spec)], runner):
                    if isinstance(result, RunOutcome):
                        outcomes[slot] = result
                    else:
                        errors[slot] = str(result)
                if report_progress:
                    _tick(done)
            return errors

        size = chunksize
        if size is None:
            size = max(1, len(indexed) // (workers * 4))
        chunks = [
            indexed[start : start + size]
            for start in range(0, len(indexed), size)
        ]
        done = 0
        crashed = False
        pool = _get_pool()
        futures = [
            (pool.submit(_run_chunk, chunk, runner), chunk)
            for chunk in chunks
        ]
        for future, chunk in futures:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            try:
                for slot, result in future.result(timeout=remaining):
                    if isinstance(result, RunOutcome):
                        outcomes[slot] = result
                    else:
                        errors[slot] = str(result)
            except FutureTimeout:
                future.cancel()
                for index, _spec in chunk:
                    errors[index] = "timeout"
            except Exception as exc:  # worker died (BrokenProcessPool, ...)
                crashed = True
                for index, _spec in chunk:
                    errors[index] = f"worker crashed: {type(exc).__name__}"
            done += len(chunk)
            if report_progress:
                _tick(done)
        if crashed:
            _reset_pool()  # a broken executor cannot take new work
        return errors

    # One pool serves every pass: executor spawn (and the workers'
    # interpreter boot) is a per-sweep cost, not a per-attempt one.
    pool_box: List[Optional[ProcessPoolExecutor]] = [None]

    def _get_pool() -> ProcessPoolExecutor:
        if pool_box[0] is None:
            pool_box[0] = ProcessPoolExecutor(max_workers=workers)
        return pool_box[0]

    def _reset_pool() -> None:
        if pool_box[0] is not None:
            pool_box[0].shutdown(wait=False, cancel_futures=True)
            pool_box[0] = None

    try:
        errors = _one_pass(list(enumerate(specs)), report_progress=True)
        attempts = 1
        backoff_s = 0.0
        for attempt in range(1, retries + 1):
            if not errors:
                break
            backoff_s += RETRY_BACKOFF_BASE_S * (2 ** (attempt - 1))
            retry_indexed = [(index, specs[index]) for index in sorted(errors)]
            errors = _one_pass(retry_indexed, report_progress=False)
            attempts += 1
    finally:
        _reset_pool()
    failures = [
        FailedRun(specs[index], errors[index],
                  attempts=attempts, backoff_s=backoff_s)
        for index in sorted(errors)
    ]
    return outcomes, failures


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def _cells_from(outcomes: Sequence[Optional[RunOutcome]]) -> Dict[Tuple[int, int], object]:
    """Group outcomes by cell and average them into SweepCells."""
    from repro.analysis.experiments import SweepCell

    grouped: Dict[Tuple[int, int], List[RunOutcome]] = {}
    for outcome in outcomes:
        if outcome is None:
            continue
        grouped.setdefault(outcome.spec.cell(), []).append(outcome)
    cells = {}
    for cell, samples in grouped.items():
        count = len(samples)
        cells[cell] = SweepCell(
            avg_copies=sum(s.copies for s in samples) / count,
            success_rate=sum(s.success for s in samples) / count,
            avg_elapsed_s=sum(s.elapsed_s for s in samples) / count,
            samples=count,
        )
    return cells


def merge_ext2(server, level, outcomes, failures):
    """Fold outcomes into an Ext2SweepResult (cells keyed (N, D))."""
    from repro.analysis.experiments import Ext2SweepResult

    result = Ext2SweepResult(server=server, level=level)
    result.cells.update(_cells_from(outcomes))
    result.failures.extend(failures)
    return result


def merge_ntty(server, level, outcomes, failures):
    """Fold outcomes into an NttySweepResult (cells keyed N)."""
    from repro.analysis.experiments import NttySweepResult

    result = NttySweepResult(server=server, level=level)
    for (conns, _), cell in _cells_from(outcomes).items():
        result.cells[conns] = cell
    result.failures.extend(failures)
    return result


def merge_perf(outcome: RunOutcome):
    """Rebuild PerfMetrics from one scp/siege outcome."""
    from repro.analysis.perfbench import PerfMetrics

    return PerfMetrics(
        transactions=outcome.spec.dirs,
        concurrent=outcome.spec.conns,
        elapsed_s=outcome.elapsed_s,
        bytes_moved=outcome.bytes_moved,
    )
