"""The kernel facade: boots the machine and owns every subsystem.

A :class:`Kernel` bundles physical memory, the buddy allocator, swap,
the page cache, the VFS and the process table, wired together exactly
once so the rest of the library talks to a single object.  The paper's
kernel-level countermeasures are plain configuration switches here:

* ``zero_on_free``   — the ``page_alloc.c`` patch (clear pages entering
  the free lists);
* ``zero_on_unmap``  — the ``memory.c`` patch (clear a last-reference
  page in ``zap_pte_range``);
* ``o_nocache_supported`` — the ``fcntl.h``/``filemap.c`` patch backing
  the integrated solution.

The default configuration models the paper's *vulnerable* testbed:
a 2.6.10 kernel, susceptible to both the ext2 directory leak and the
n_tty dump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ProcessError, ReproError, SwapError
from repro.kernel.clock import CostModel, SimClock
from repro.kernel.pagecache import PageCache
from repro.kernel.process import ExitRecord, Process
from repro.kernel.tty import NttyVulnerability
from repro.kernel.vfs import Vfs
from repro.kernel.vm import STACK_SIZE_PAGES, STACK_TOP, VmaFlag
from repro.mem.buddy import BuddyAllocator
from repro.mem.page import PageFlag
from repro.mem.physmem import PAGE_SIZE, PhysicalMemory
from repro.mem.rmap import ReverseMap
from repro.mem.swap import SwapDevice


@dataclass
class KernelConfig:
    """Boot-time configuration."""

    #: Kernel version; gates both vulnerabilities.
    version: Tuple[int, int, int] = (2, 6, 10)
    #: Physical memory size in MB (the paper's testbed had 256).
    memory_mb: int = 16
    #: Swap device size in MB.
    swap_mb: int = 8
    #: Frames reserved for kernel text/static data.
    reserved_frames: int = 16
    page_size: int = PAGE_SIZE
    #: Paper's page_alloc.c patch: clear pages on their way to free lists.
    zero_on_free: bool = False
    #: Paper's memory.c patch: clear last-reference pages at unmap.
    zero_on_unmap: bool = False
    #: Paper's fcntl.h/filemap.c patch: honour the O_NOCACHE flag.
    o_nocache_supported: bool = False
    #: Anonymous pages a process image touches at exec (data/bss/libs).
    #: sshd+OpenSSL had ~1.5 MB RSS on the testbed; 24 pages is the
    #: same footprint scaled to the default 16 MB machine.
    process_image_pages: int = 24
    #: Seed for the allocator's free-list placement randomness (models
    #: per-CPU list interleaving; see BuddyAllocator.placement_rng).
    placement_seed: int = 0x5EED
    #: Fit the machine with a hardware key vault (HSM/TPM analog) —
    #: the paper's "special hardware" endpoint.
    has_key_vault: bool = False
    #: System-wide clear-on-free in the *user* allocator, as in Chow
    #: et al.'s "secure deallocation" [7].  Together with zero_on_free
    #: this reproduces their policy for comparison benches: it wipes
    #: data at deallocation but has "no effect in countering attacks
    #: that may disclose portions of allocated memory" (paper §1.2).
    heap_clear_on_free: bool = False

    @classmethod
    def vulnerable(cls, memory_mb: int = 16) -> "KernelConfig":
        """The paper's attack testbed: stock 2.6.10."""
        return cls(version=(2, 6, 10), memory_mb=memory_mb)

    @classmethod
    def kernel_patched(cls, memory_mb: int = 16) -> "KernelConfig":
        """2.6.10 with the paper's kernel-level patches applied."""
        return cls(
            version=(2, 6, 10),
            memory_mb=memory_mb,
            zero_on_free=True,
            zero_on_unmap=True,
        )

    @classmethod
    def integrated(cls, memory_mb: int = 16) -> "KernelConfig":
        """Kernel side of the integrated library–kernel solution."""
        return cls(
            version=(2, 6, 10),
            memory_mb=memory_mb,
            zero_on_free=True,
            zero_on_unmap=True,
            o_nocache_supported=True,
        )

    @classmethod
    def modern(cls, memory_mb: int = 16) -> "KernelConfig":
        """The 2.6.16 kernel of the paper's §3.2 analysis runs —
        not subject to either disclosure bug, but still flooding
        memory with key copies."""
        return cls(version=(2, 6, 16), memory_mb=memory_mb)

    @property
    def num_frames(self) -> int:
        return self.memory_mb * 1024 * 1024 // self.page_size

    @property
    def swap_slots(self) -> int:
        return self.swap_mb * 1024 * 1024 // self.page_size


class Kernel:
    """One booted simulated machine."""

    def __init__(
        self, config: Optional[KernelConfig] = None, costs: Optional[CostModel] = None
    ) -> None:
        self.config = config if config is not None else KernelConfig()
        self.clock = SimClock(costs)
        self.physmem = PhysicalMemory(self.config.num_frames, self.config.page_size)
        import random as _random

        self.buddy = BuddyAllocator(
            self.physmem,
            reserved_frames=self.config.reserved_frames,
            on_page_clear=self.clock.charge_page_clear,
            placement_rng=_random.Random(self.config.placement_seed),
        )
        self.buddy.clear_on_free = self.config.zero_on_free
        # Direct reclaim under memory pressure: swap out eligible
        # pages (never mlock()ed ones) when an allocation would fail.
        self.buddy.oom_reclaim = lambda pages: self.reclaim_pages(
            max(pages, 32)
        )
        #: KeySan taint sanitizer, attached via ``KeySan.attach(kernel)``
        #: when the simulation runs in taint mode.
        self.keysan = None
        #: Fault injector, attached via ``FaultInjector.attach(kernel)``
        #: when a simulation carries a fault plan.
        self.faults = None
        self.swap = SwapDevice(self.config.swap_slots, self.config.page_size)
        self.pagecache = PageCache(self)
        self.vfs = Vfs(self)
        self.ntty = NttyVulnerability(self)
        if self.config.has_key_vault:
            from repro.hw.keyvault import KeyVault

            self.vault: Optional[KeyVault] = KeyVault(self)
        else:
            self.vault = None

        self._procs: Dict[int, Process] = {}
        self._next_pid = 1
        #: Post-mortem records appended by :meth:`exit_process`; the
        #: supervision layer drains them to audit what each dead
        #: process left in the free pool and on the swap device.
        self.exit_records: List[ExitRecord] = []
        self._aged_holders: List[int] = []
        self.rmap = ReverseMap(self.processes)

        self._write_kernel_image()
        self.init = self.create_process("init")
        self._mount_procfs()

    def _mount_procfs(self) -> None:
        """Mount /proc with the standard introspection entries."""
        from repro.kernel.procfs import ProcFs

        self.procfs = ProcFs()
        self.vfs.mount("/proc", self.procfs)
        self.procfs.register("meminfo", self._proc_meminfo)
        self.procfs.register("uptime", self._proc_uptime)

    def _proc_meminfo(self) -> bytes:
        page_kb = self.config.page_size // 1024
        info = self.meminfo()
        free_kb = info["free_frames"] * page_kb
        total_kb = info["total_frames"] * page_kb
        cached_kb = info["pagecache_pages"] * page_kb
        swap_total_kb = self.swap.num_slots * page_kb
        swap_free_kb = self.swap.free_slots() * page_kb
        return (
            f"MemTotal:     {total_kb:>10} kB\n"
            f"MemFree:      {free_kb:>10} kB\n"
            f"Cached:       {cached_kb:>10} kB\n"
            f"SwapTotal:    {swap_total_kb:>10} kB\n"
            f"SwapFree:     {swap_free_kb:>10} kB\n"
        ).encode("ascii")

    def _proc_uptime(self) -> bytes:
        return f"{self.clock.now_s:.2f}\n".encode("ascii")

    def register_proc_maps(self, process: Process) -> None:
        """Expose ``/proc/<pid>_maps`` for one process (flat names —
        our ProcFs has no subdirectories)."""
        def maps() -> bytes:
            if not process.alive:
                return b""
            lines = []
            for vma in sorted(process.mm.vmas, key=lambda v: v.start):
                perms = (
                    ("r" if vma.flags & VmaFlag.READ else "-")
                    + ("w" if vma.flags & VmaFlag.WRITE else "-")
                    + ("x" if vma.flags & VmaFlag.EXEC else "-")
                    + ("s" if vma.flags & VmaFlag.SHARED else "p")
                )
                lines.append(
                    f"{vma.start:08x}-{vma.end:08x} {perms} {vma.name or ''}"
                )
            return ("\n".join(lines) + "\n").encode("ascii")

        self.procfs.register(f"{process.pid}_maps", maps)

    def _write_kernel_image(self) -> None:
        """Fill the reserved frames with recognisable kernel "text" so
        scans over reserved memory see realistic non-zero content."""
        marker = b"KERNELTEXT:" + b"\x90" * 53
        blob = marker * (self.config.page_size // len(marker))
        for frame in range(self.config.reserved_frames):
            self.physmem.write_frame(frame, blob[: self.config.page_size])

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def processes(self) -> List[Process]:
        """Live processes, ascending pid (the tasklist walk)."""
        return [self._procs[pid] for pid in sorted(self._procs)]

    def find_process(self, pid: int) -> Process:
        try:
            return self._procs[pid]
        except KeyError:
            raise ProcessError(f"no such pid {pid}") from None

    def create_process(self, name: str, parent: Optional[Process] = None) -> Process:
        """Spawn a fresh process (fork+exec of a new image)."""
        process = Process(self, self._next_pid, name, parent)
        self._next_pid += 1
        self._procs[process.pid] = process
        if parent is not None:
            parent.children.append(process)
        try:
            self._setup_stack(process)
        except ReproError:
            # ENOMEM building the image: drop the half-built process
            # rather than leaving it in the table with a torn stack.
            self.exit_process(process)
            raise
        self.clock.charge_exec()
        return process

    def _setup_stack(self, process: Process) -> None:
        stack_len = STACK_SIZE_PAGES * self.config.page_size
        vma = process.mm.mmap_anon(
            stack_len,
            VmaFlag.READ | VmaFlag.WRITE | VmaFlag.GROWSDOWN,
            name="[stack]",
            addr=STACK_TOP - stack_len,
        )
        # Touch the top page: argv/envp live there.
        process.mm.write(vma.end - 64, b"\x00" * 64)
        self._setup_image(process)

    def _setup_image(self, process: Process) -> None:
        """Fault in the process image's writable data/bss/library pages.

        This is what gives an exec()ed process a realistic resident
        footprint; without it a dying child's freed pages would all fit
        in the per-CPU hot list and be handed verbatim to the next
        child, which never happens at real process sizes.
        """
        pages = self.config.process_image_pages
        if pages <= 0:
            return
        vma = process.mm.mmap_anon(
            pages * self.config.page_size,
            VmaFlag.READ | VmaFlag.WRITE,
            name="[image]",
        )
        page_size = self.config.page_size
        marker = f"img:{process.pid}:".encode("ascii")
        for index in range(pages):
            process.mm.write(vma.start + index * page_size, marker)

    def fork(self, parent: Process) -> Process:
        """``fork()``: duplicate ``parent`` with COW-shared memory."""
        parent.require_alive()
        child = Process(self, self._next_pid, parent.name, parent)
        self._next_pid += 1
        self._procs[child.pid] = child
        parent.children.append(child)
        try:
            parent.mm.fork_into(child.mm)
            parent.heap.clone_into(child.heap)
        except ReproError:
            # Mid-fork failure (e.g. injected ENOMEM while duplicating
            # page tables): unwind the half-built child completely.
            # teardown() handles a partially populated address space,
            # and the parent's COW-marked PTEs recover lazily through
            # the count==1 path on its next write fault.
            self.exit_process(child)
            raise
        child.fds = dict(parent.fds)  # shared file-table entries
        child._next_fd = parent._next_fd
        self.clock.charge_fork()
        return child

    def exec_replace(self, process: Process, name: Optional[str] = None) -> None:
        """``execve()``: throw away the address space, start fresh.

        This is what unpatched sshd does after *every* connection — and
        why its freed pages, key copies included, keep raining into the
        free-page pool.
        """
        process.require_alive()
        process.mm.teardown()
        from repro.kernel.vm import AddressSpace  # local import to avoid cycle
        from repro.kernel.process import UserHeap

        process.mm = AddressSpace(self)
        process.heap = UserHeap(process)
        if name is not None:
            process.name = name
        self._setup_stack(process)
        self.clock.charge_exec()

    def exit_process(self, process: Process, code: int = 0) -> None:
        """``exit()``: release memory (uncleared, absent patches).

        Reaping is observable: every frame the teardown drains into the
        free pool and every swap slot the dead process abandons is
        captured in an :class:`ExitRecord` (see :meth:`drain_exit_records`)
        so the supervision layer can audit the corpse for key bytes.

        The unwind is also *double-fault safe*: if the teardown path
        itself raises (e.g. a second injected fault while unwinding a
        failed ``fork``), the teardown is retried — ``munmap`` removes
        each VMA as it completes, so the retry releases only what the
        first pass left behind — and the process is unconditionally
        reaped from the table, conserving frames either way.
        """
        process.require_alive()
        # Swapped PTEs observed before teardown: _zap_vpn drops the
        # reference without releasing the slot, so these device slots
        # (and their bytes) outlive the process.
        dropped_slots = tuple(
            sorted(
                pte.swap_slot
                for pte in process.mm.page_table.values()
                if pte.swap_slot is not None
            )
        )
        freed: List[int] = []
        prev_on_free = self.buddy.on_free

        def _collect(head: int, order: int, cleared: bool) -> None:
            freed.extend(range(head, head + (1 << order)))
            if prev_on_free is not None:
                prev_on_free(head, order, cleared)

        self.buddy.on_free = _collect
        forced = False
        try:
            try:
                process.mm.teardown()
            except ReproError:
                # Double fault: the unwind itself failed part-way.  One
                # retry finishes the job against the VMAs the first pass
                # did not get to.
                forced = True
                process.mm.teardown()
        finally:
            self.buddy.on_free = prev_on_free
            process.fds.clear()
            process.state = "zombie"
            process.exit_code = code
            self._procs.pop(process.pid, None)
            if process.parent is not None and process in process.parent.children:
                process.parent.children.remove(process)
            self.exit_records.append(
                ExitRecord(
                    pid=process.pid,
                    name=process.name,
                    exit_code=code,
                    freed_frames=tuple(freed),
                    dropped_swap_slots=dropped_slots,
                    forced=forced,
                )
            )

    def shutdown(self) -> None:
        """End of life (idempotent): unhook KeySan and the fault injector;
        free RAM, swap, page descriptors and KeySan's shadow now, not at GC."""
        if self.keysan is not None:
            self.keysan.shadow.release()
            self.keysan.detach()
        if self.faults is not None:
            self.faults.detach(self)
        for part in (self.physmem, self.swap, self.buddy):
            part.release()

    def drain_exit_records(self) -> List[ExitRecord]:
        """Return and clear the accumulated post-mortem exit records."""
        records, self.exit_records = self.exit_records, []
        return records

    # ------------------------------------------------------------------
    # memory aging
    # ------------------------------------------------------------------
    def age_memory(
        self, rng, hold_fraction: float = 0.30, churn_fraction: float = 0.95
    ) -> int:
        """Make the machine look like it has uptime.

        A freshly booted buddy allocator hands out frames in address
        order, clustering all activity at the bottom of RAM — unlike
        the paper's testbed, where months of page-cache and process
        churn spread allocations across all 256 MB.  This routine
        allocates most of free memory, keeps a random ``hold_fraction``
        pinned (standing in for daemons, slab caches and unrelated page
        cache), and frees the rest in random order.  The held frames
        prevent coalescing, so the free lists stay permuted and every
        later allocation lands at an effectively random address.

        Returns the number of frames left pinned.
        """
        if not 0.0 <= hold_fraction < 1.0 or not 0.0 < churn_fraction <= 1.0:
            raise ValueError("fractions out of range")
        budget = int(self.buddy.free_frames() * churn_fraction)
        frames = self.buddy.alloc_many(budget, PageFlag.KERNEL_BUFFER)
        rng.shuffle(frames)
        hold_count = int(budget * hold_fraction)
        self._aged_holders = frames[:hold_count]
        self.buddy.free_many(frames[hold_count:])
        return hold_count

    # ------------------------------------------------------------------
    # memory pressure
    # ------------------------------------------------------------------
    def reclaim_pages(self, target: int) -> int:
        """Swap out up to ``target`` eligible pages across processes.

        Returns the number actually evicted.  mlock()ed pages are
        skipped — which is exactly why ``RSA_memory_align`` pins the
        key page.
        """
        evicted = 0
        for process in self.processes():
            if evicted >= target:
                break
            for vpn, _pte in list(process.mm.swap_out_candidates()):
                if evicted >= target:
                    break
                try:
                    process.mm.swap_out(vpn)
                except SwapError:
                    # Swap full (or an injected device fault): stop the
                    # scan and report the partial count, like kswapd
                    # giving up on a congested device.
                    return evicted
                evicted += 1
        return evicted

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def page(self, frame: int):
        return self.buddy.pages[frame]

    def meminfo(self) -> Dict[str, int]:
        return {
            "total_frames": self.physmem.num_frames,
            "free_frames": self.buddy.free_frames(),
            "pagecache_pages": self.pagecache.resident_pages(),
            "processes": len(self._procs),
            "swap_used": len(self.swap.used_slots()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        version = ".".join(map(str, self.config.version))
        return f"Kernel(version={version}, memory_mb={self.config.memory_mb})"
