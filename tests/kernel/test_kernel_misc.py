"""Kernel facade, clock, tty vulnerability and syscall-layer tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.randsrc import DeterministicRandom
from repro.errors import AttackError
from repro.kernel.clock import CostModel, SimClock
from repro.kernel.fs import SimFileSystem
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.syscalls import SyscallInterface
from repro.kernel.vfs import O_RDONLY
from repro.mem.page import PageFlag


class TestClock:
    def test_advance_and_accounting(self):
        clock = SimClock()
        clock.advance(100, "x")
        clock.advance(50, "x")
        clock.advance(25, "y")
        assert clock.now_us == 175
        assert clock.spent == {"x": 150, "y": 25}

    def test_negative_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_charges(self):
        clock = SimClock(CostModel(page_clear_us=3.0, rsa_private_op_us=1000.0))
        clock.charge_page_clear(2)
        clock.charge_rsa_private()
        assert clock.now_us == 6.0 + 1000.0

    def test_transfer_charge_scales(self):
        clock = SimClock()
        clock.charge_transfer(1024)
        one_kb = clock.now_us
        clock.charge_transfer(10 * 1024)
        assert abs(clock.now_us - 11 * one_kb) < 1e-6

    def test_now_s(self):
        clock = SimClock()
        clock.advance(2_500_000)
        assert clock.now_s == 2.5

    def test_elapsed_since(self):
        clock = SimClock()
        mark = clock.now_us
        clock.advance(10)
        assert clock.elapsed_since(mark) == 10


class TestKernelConfigPresets:
    def test_vulnerable(self):
        config = KernelConfig.vulnerable()
        assert config.version == (2, 6, 10)
        assert not config.zero_on_free

    def test_kernel_patched(self):
        config = KernelConfig.kernel_patched()
        assert config.zero_on_free and config.zero_on_unmap
        assert not config.o_nocache_supported

    def test_integrated(self):
        config = KernelConfig.integrated()
        assert config.zero_on_free and config.o_nocache_supported

    def test_modern(self):
        config = KernelConfig.modern()
        assert config.version == (2, 6, 16)

    def test_frame_math(self):
        config = KernelConfig(memory_mb=16)
        assert config.num_frames == 4096


class TestKernelFacade:
    def test_boot_state(self):
        kern = Kernel(KernelConfig.vulnerable(memory_mb=4))
        info = kern.meminfo()
        assert info["total_frames"] == 1024
        assert info["processes"] == 1  # init
        assert kern.init.pid == 1

    def test_kernel_image_written(self):
        kern = Kernel(KernelConfig.vulnerable(memory_mb=4))
        assert kern.physmem.find_all(b"KERNELTEXT:")

    def test_zero_on_free_wired(self):
        kern = Kernel(KernelConfig.kernel_patched(memory_mb=4))
        assert kern.buddy.clear_on_free

    def test_reclaim_pages(self):
        kern = Kernel(KernelConfig.vulnerable(memory_mb=4))
        proc = kern.create_process("fat")
        vma = proc.mm.mmap_anon(20 * 4096)
        proc.mm.write(vma.start, b"z" * (20 * 4096))
        evicted = kern.reclaim_pages(5)
        assert evicted == 5
        assert len(kern.swap.used_slots()) == 5
        # Content is still correct after swap-in on access.
        assert proc.mm.read(vma.start, 20 * 4096) == b"z" * (20 * 4096)


class TestAgeMemory:
    def test_aging_pins_and_spreads(self):
        kern = Kernel(KernelConfig.vulnerable(memory_mb=4))
        free_before = kern.buddy.free_frames()
        held = kern.age_memory(DeterministicRandom(5), hold_fraction=0.25)
        assert held > 0
        assert kern.buddy.free_frames() == free_before - held
        # Allocations should now be scattered, not contiguous-from-low.
        frames = [kern.buddy.alloc_pages(0) for _ in range(50)]
        spread = max(frames) - min(frames)
        assert spread > kern.physmem.num_frames // 4

    def test_bad_fractions(self):
        kern = Kernel(KernelConfig.vulnerable(memory_mb=4))
        for fractions in (
            {"hold_fraction": 1.5},
            {"hold_fraction": -0.1},
            {"churn_fraction": 0.0},
            {"churn_fraction": 1.2},
        ):
            with pytest.raises(ValueError):
                kern.age_memory(DeterministicRandom(5), **fractions)

    @settings(max_examples=30, deadline=None)
    @given(
        memory_mb=st.sampled_from([4, 8, 32]),
        clear_on_free=st.booleans(),
        hold_fraction=st.sampled_from([0.0, 0.1, 0.3, 0.75]),
        churn_fraction=st.sampled_from([0.05, 0.5, 0.95, 1.0]),
        prepopulate=st.lists(st.integers(0, 3), max_size=24),
        seed=st.integers(0, 2**16),
    )
    def test_bulk_aging_equals_per_frame_aging(
        self, memory_mb, clear_on_free, hold_fraction, churn_fraction, prepopulate, seed
    ):
        def boot():
            kern = Kernel(KernelConfig(memory_mb=memory_mb, zero_on_free=clear_on_free))
            buddy = kern.buddy
            events = []
            charge = buddy.on_page_clear
            buddy.on_page_clear = lambda n: (events.append(("clear", n)), charge(n))
            buddy.on_free = lambda head, order, cleared: events.append(
                ("free", head, order, cleared)
            )
            # Fragment the free lists and fill the hot list before aging:
            # allocate blocks of mixed orders with content, free every
            # other one (order-0 frees land on the hot list).
            heads = []
            for order in prepopulate:
                head = buddy.alloc_pages(order)
                kern.physmem.write_frame(head, b"stale")
                heads.append(head)
            for head in heads[::2]:
                buddy.free_pages(head)
            return kern, events

        def per_frame_age(kern, rng):
            buddy = kern.buddy
            budget = int(buddy.free_frames() * churn_fraction)
            frames = [buddy.alloc_pages(0, PageFlag.KERNEL_BUFFER) for _ in range(budget)]
            rng.shuffle(frames)
            hold_count = int(budget * hold_fraction)
            kern._aged_holders = frames[:hold_count]
            for frame in frames[hold_count:]:
                buddy.free_pages(frame)
            return hold_count

        def state(kern):
            buddy = kern.buddy
            assert all(type(heads) is list for heads in buddy._free_lists.values())
            return {
                "free_lists": dict(buddy._free_lists),
                "free_heads": dict(buddy._free_heads),
                "hot": list(buddy._hot),
                "hot_set": set(buddy._hot_set),
                "alloc_orders": list(buddy._alloc_orders.items()),
                "pages": [(p.count, p.flags, p.order) for p in buddy.pages],
                "placement_rng": buddy.placement_rng.getstate(),
                "generations": list(kern.physmem.frame_generations()),
                "clock": (kern.clock.now_us, dict(kern.clock.spent)),
                "counters": (buddy.alloc_count, buddy.free_count, buddy.cleared_frames),
                "holders": list(kern._aged_holders),
            }

        bulk, bulk_events = boot()
        reference, reference_events = boot()
        held = bulk.age_memory(DeterministicRandom(seed), hold_fraction, churn_fraction)
        assert held == per_frame_age(reference, DeterministicRandom(seed))
        assert bulk_events == reference_events
        assert state(bulk) == state(reference)
        bulk.buddy.check_invariants()
        following = min(200, reference.buddy.free_frames())
        assert [bulk.buddy.alloc_pages(0) for _ in range(following)] == [
            reference.buddy.alloc_pages(0) for _ in range(following)
        ]
        assert state(bulk) == state(reference)


class TestNtty:
    def _kern(self, version):
        return Kernel(KernelConfig(version=version, memory_mb=4))

    def test_vulnerable_versions(self):
        assert self._kern((2, 6, 10)).ntty.vulnerable
        assert not self._kern((2, 6, 11)).ntty.vulnerable
        assert not self._kern((2, 6, 16)).ntty.vulnerable

    def test_dump_window(self):
        kern = self._kern((2, 6, 10))
        kern.physmem.write(123456, b"FINDME")
        rng = DeterministicRandom(9)
        dump = kern.ntty.dump(rng)
        assert 0.25 <= dump.coverage <= 0.75
        assert len(dump.data) == dump.length
        assert dump.start + dump.length <= kern.physmem.size

    def test_dump_reads_real_memory(self):
        kern = self._kern((2, 6, 10))
        kern.physmem.write(0, b"\xaa" * kern.physmem.size)
        dump = kern.ntty.dump(DeterministicRandom(3))
        assert dump.data == b"\xaa" * dump.length

    def test_fixed_kernel_raises(self):
        kern = self._kern((2, 6, 11))
        with pytest.raises(AttackError):
            kern.ntty.dump(DeterministicRandom(1))

    def test_coverage_averages_half(self):
        kern = self._kern((2, 6, 10))
        rng = DeterministicRandom(7)
        coverages = [kern.ntty.dump(rng).coverage for _ in range(40)]
        mean = sum(coverages) / len(coverages)
        assert 0.42 <= mean <= 0.58


class TestSyscallInterface:
    def test_file_syscalls(self):
        kern = Kernel(KernelConfig.vulnerable(memory_mb=4))
        fs = SimFileSystem("ext2", label="root")
        fs.create_file("f.txt", b"syscall-data")
        kern.vfs.mount("/", fs)
        sys = SyscallInterface(kern, kern.create_process("app"))
        fd = sys.open("/f.txt", O_RDONLY)
        assert sys.read(fd, 7) == b"syscal"[:7] or sys.read_all(fd)
        sys.close(fd)
        sys.mkdir("/newdir")
        assert fs.exists("newdir")

    def test_memory_syscalls(self):
        kern = Kernel(KernelConfig.vulnerable(memory_mb=4))
        sys = SyscallInterface(kern, kern.create_process("app"))
        addr = sys.malloc(128)
        sys.mem_write(addr, b"via-syscalls")
        assert sys.mem_read(addr, 12) == b"via-syscalls"
        aligned = sys.posix_memalign(4096, 256)
        sys.mlock(aligned, 256)
        sys.free(addr, clear=True)
        assert sys.mem_read(addr, 12) == b"\x00" * 12

    def test_process_syscalls(self):
        kern = Kernel(KernelConfig.vulnerable(memory_mb=4))
        sys = SyscallInterface(kern, kern.create_process("app"))
        child_sys = sys.fork()
        assert child_sys.pid != sys.pid
        child_sys.execve("worker")
        assert child_sys.process.name == "worker"
        child_sys.exit()
        assert not child_sys.process.alive
