"""Machine lifetime: every engine frees its machine when a run ends.

A finished machine sits in Kernel <-> Process <-> KeySan reference
cycles, so without an explicit end of life its frame-sized stores (RAM,
swap, page descriptors, KeySan's tag and origin shadows) live until the
next full collection.  These tests run each engine with the collector
off and require that what a run leaves behind stays below the size of
the machine's RAM alone; they also pin down what ``Kernel.shutdown``
promises: idempotence, and a :class:`MachineShutdownError` (never empty
or zero data) on any later access.
"""

import gc
import tracemalloc

import pytest

from repro.analysis import parallel
from repro.analysis.perfbench import run_scp_stress
from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig
from repro.errors import MachineShutdownError, ReproError
from repro.faults import FaultPlan
from repro.faults.campaign import run_schedule
from repro.faults.soak import run_soak_schedule

MEMORY_MB = 8
KEY_BITS = 256
LEVELS = (ProtectionLevel.NONE, ProtectionLevel.INTEGRATED)


def retained_mb(run):
    """MB still allocated after ``run()`` returns (or raises), with the
    cyclic collector off.  A first, untraced call warms the key corpus
    and every other process-wide cache."""
    try:
        run()
    except RuntimeError:
        pass
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        try:
            run()
        except RuntimeError:
            pass
        return (tracemalloc.get_traced_memory()[0] - before) / 2**20
    finally:
        tracemalloc.stop()
        gc.enable()
        gc.collect()


def ntty_spec(level):
    return parallel.ntty_sweep_specs(
        "openssh", [10], 1, level, 42, MEMORY_MB, KEY_BITS
    )[0]


class TestEnginesFreeTheirMachine:
    @pytest.mark.parametrize("level", LEVELS, ids=lambda level: level.value)
    def test_execute_spec(self, level):
        spec = ntty_spec(level)
        assert retained_mb(lambda: parallel.execute_spec(spec)) < MEMORY_MB

    @pytest.mark.parametrize("level", LEVELS, ids=lambda level: level.value)
    def test_soak_schedule(self, level):
        def run():
            record = run_soak_schedule(
                "openssh", level, 42, 0, generations=2,
                memory_mb=MEMORY_MB, key_bits=KEY_BITS,
            )
            assert record["fired"], "the storm must fire"
        assert retained_mb(run) < MEMORY_MB

    @pytest.mark.parametrize("level", LEVELS, ids=lambda level: level.value)
    def test_chaos_schedule(self, level):
        def run():
            record = run_schedule(
                "openssh", level, 42, 0, memory_mb=MEMORY_MB, key_bits=KEY_BITS
            )
            assert record["fired"], "the plan must fire"
        assert retained_mb(run) < MEMORY_MB

    def test_scp_stress_it_booted(self):
        def run():
            run_scp_stress(
                transfers=4, concurrent=2, memory_mb=MEMORY_MB, key_bits=KEY_BITS
            )
        assert retained_mb(run) < MEMORY_MB

    def test_run_whose_workload_raises(self, monkeypatch):
        def broken(self, concurrent):
            raise RuntimeError("workload died")

        monkeypatch.setattr(Simulation, "hold_connections", broken)
        spec = ntty_spec(ProtectionLevel.NONE)
        with pytest.raises(RuntimeError):
            parallel.execute_spec(spec)
        assert retained_mb(lambda: parallel.execute_spec(spec)) < MEMORY_MB

    def test_caller_owned_simulation_stays_open(self):
        sim = Simulation(
            SimulationConfig(memory_mb=4, key_bits=KEY_BITS, age_memory=False)
        )
        run_scp_stress(transfers=2, concurrent=1, simulation=sim)
        assert sim.kernel.physmem.snapshot()
        sim.close()


def tainted_sim(**overrides):
    return Simulation(
        SimulationConfig(
            memory_mb=4, key_bits=KEY_BITS, age_memory=False, taint=True,
            fault_plan=FaultPlan({}), **overrides,
        )
    )


class TestShutdown:
    def test_every_store_raises_after_shutdown(self):
        sim = tainted_sim()
        sim.start_server()
        kernel, keysan = sim.kernel, sim.keysan
        physmem, swap, shadow = kernel.physmem, kernel.swap, keysan.shadow
        sim.close()
        uses = [
            lambda: physmem.read(0, 16),
            lambda: physmem.write(0, b"x"),
            lambda: physmem.read_frame(3),
            lambda: physmem.clear_frame(3),
            lambda: physmem.snapshot(),
            lambda: physmem.raw_view(),
            lambda: physmem.find_all(b"KERNELTEXT"),
            lambda: physmem.nonzero_intervals(),
            lambda: physmem.frame_generations(),
            lambda: list(physmem.iter_frames()),
            lambda: swap.raw_dump(),
            lambda: swap.find_pattern(b"\x01"),
            lambda: swap.swap_out(bytes(swap.page_size)),
            lambda: kernel.page(0),
            lambda: kernel.buddy.alloc_pages(0),
            lambda: shadow.total_tainted(),
            lambda: shadow.count_in(0, 16),
            lambda: keysan.report(sim.patterns),
            lambda: sim.scan(),
        ]
        for use in uses:
            with pytest.raises(MachineShutdownError):
                use()

    def test_shutdown_unhooks_keysan_and_faults(self):
        sim = tainted_sim()
        kernel = sim.kernel
        sim.close()
        assert kernel.keysan is None and kernel.faults is None
        assert kernel.buddy.faults is None and kernel.swap.faults is None
        assert kernel.buddy.on_free is None

    def test_shutdown_is_idempotent(self):
        sim = tainted_sim()
        sim.close()
        sim.close()
        sim.kernel.shutdown()
        with pytest.raises(MachineShutdownError):
            sim.kernel.physmem.read(0, 1)

    def test_with_block_closes_on_error(self):
        with pytest.raises(RuntimeError):
            with tainted_sim() as sim:
                raise RuntimeError("boom")
        with pytest.raises(MachineShutdownError):
            sim.kernel.physmem.snapshot()

    def test_error_is_a_repro_error_and_other_attributes_still_miss(self):
        assert issubclass(MachineShutdownError, ReproError)
        sim = tainted_sim()
        sim.close()
        assert not hasattr(sim.kernel.physmem, "no_such_attribute")
        assert sim.kernel.physmem.size == 4 * 1024 * 1024
