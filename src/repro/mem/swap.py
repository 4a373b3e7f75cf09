"""Simulated swap device.

Swap matters to the paper for one reason: *a page swapped out is a
page disclosed twice*.  The swap area itself can be read offline (the
Provos attack the paper cites), and the RAM frame the page vacated is
freed **without being cleared**, so its key bytes linger in unallocated
memory.  The application-level countermeasure pins the key page with
``mlock()`` precisely to keep it off this path.

Free slots are kept in a min-heap so allocation is O(log n) while
preserving the original lowest-slot-first placement (the old
implementation scanned ``range(num_slots)`` linearly — same answer,
O(n) per write, painful under swap-full stress).
"""

from __future__ import annotations

import heapq
from typing import Dict, List

from repro.errors import SwapError
from repro.mem.bytesearch import find_all_sparse
from repro.mem.physmem import PAGE_SIZE, Releasable


class SwapDevice(Releasable):
    """Fixed-size array of page-sized swap slots on a "disk"."""
    RELEASED = ("_store",)

    def __init__(self, num_slots: int, page_size: int = PAGE_SIZE) -> None:
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        self.num_slots = num_slots
        self.page_size = page_size
        self._store = bytearray(num_slots * page_size)
        self._used: Dict[int, bool] = {}
        # ``range`` is already sorted, hence already a valid min-heap.
        # Invariant: a slot is on the heap iff it is not used; pushes
        # happen only on used -> free transitions, so no duplicates.
        self._free_heap: List[int] = list(range(num_slots))
        self.swap_outs = 0
        self.swap_ins = 0
        #: End of the highest byte ever written; the store past it has
        #: never been touched and is all zero.
        self._written_end = 0
        #: Fault injector (``repro.faults``); arms the swap-full,
        #: torn-write and read-error sites.
        self.faults = None

    # ------------------------------------------------------------------
    # slot management
    # ------------------------------------------------------------------
    def _find_free_slot(self) -> int:
        if not self._free_heap:
            raise SwapError("swap device full")
        return heapq.heappop(self._free_heap)

    def _release_slot(self, slot: int) -> None:
        """Mark a used slot free again (heap push on the transition)."""
        if self._used.get(slot, False):
            self._used[slot] = False
            heapq.heappush(self._free_heap, slot)

    def swap_out(self, content: bytes) -> int:
        """Store one page of ``content``; return its slot number."""
        if len(content) != self.page_size:
            raise SwapError(
                f"swap_out needs exactly {self.page_size} bytes, got {len(content)}"
            )
        if self.faults is not None and self.faults.tick("swap.out"):
            # Injected swap-full: fail before claiming a slot, exactly
            # like _find_free_slot on a genuinely exhausted device.
            raise SwapError("injected swap-full on swap_out")
        slot = self._find_free_slot()
        base = slot * self.page_size
        if self.faults is not None and self.faults.tick("swap.torn"):
            # Torn write: half the page lands, then the device errors.
            # The slot stays claimed (nothing reconciles it), holding a
            # partial stale copy — the worst case for disk forensics.
            half = self.page_size // 2
            self._store[base : base + half] = content[:half]
            self._written_end = max(self._written_end, base + half)
            self._used[slot] = True
            self.swap_outs += 1
            raise SwapError(f"injected torn write on swap slot {slot}")
        self._store[base : base + self.page_size] = content
        self._written_end = max(self._written_end, base + self.page_size)
        self._used[slot] = True
        self.swap_outs += 1
        return slot

    def swap_in(self, slot: int, free_slot: bool = True) -> bytes:
        """Read a page back.  The slot's bytes are *not* scrubbed unless
        :meth:`scrub_slot` is called — mirroring real swap behaviour,
        where stale key material survives on disk indefinitely."""
        self._check_slot(slot)
        if not self._used.get(slot, False):
            raise SwapError(f"swap_in from empty slot {slot}")
        if self.faults is not None and self.faults.tick("swap.read"):
            # Device read error: the slot keeps its content and stays
            # used; the faulting process never sees the page.
            raise SwapError(f"injected read error on swap slot {slot}")
        base = slot * self.page_size
        content = bytes(self._store[base : base + self.page_size])
        if free_slot:
            self._release_slot(slot)
        self.swap_ins += 1
        return content

    def scrub_slot(self, slot: int) -> None:
        """Zero one slot (what an encrypted/cleaning swap would ensure)."""
        self._check_slot(slot)
        base = slot * self.page_size
        self._store[base : base + self.page_size] = b"\x00" * self.page_size
        self._release_slot(slot)

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.num_slots:
            raise SwapError(f"slot {slot} out of range [0, {self.num_slots})")

    def check_consistency(self) -> None:
        """Assert the free-slot heap agrees with the occupancy bitmap.

        The invariant ("a slot is on the heap iff it is not used") is
        easy to break silently — a torn write must leave its slot
        claimed *and* off the heap, a release must push exactly once —
        so soak campaigns and the fault tests re-verify it after every
        aborted swap path.  Raises :class:`SwapError` on any drift.
        """
        heap_slots = list(self._free_heap)
        heap_set = set(heap_slots)
        if len(heap_set) != len(heap_slots):
            raise SwapError("free-slot heap holds duplicate slots")
        for slot in heap_set:
            if not 0 <= slot < self.num_slots:
                raise SwapError(f"free-slot heap holds out-of-range slot {slot}")
        used_set = {slot for slot, used in self._used.items() if used}
        overlap = heap_set & used_set
        if overlap:
            raise SwapError(
                f"slots {sorted(overlap)} are both used and on the free heap"
            )
        expected_free = self.num_slots - len(used_set)
        if len(heap_set) != expected_free:
            missing = sorted(
                slot for slot in range(self.num_slots)
                if slot not in used_set and slot not in heap_set
            )
            raise SwapError(
                f"free heap tracks {len(heap_set)} slots, expected "
                f"{expected_free}; leaked slots: {missing}"
            )

    # ------------------------------------------------------------------
    # disclosure surface
    # ------------------------------------------------------------------
    def raw_dump(self) -> bytes:
        """The whole swap area as an attacker with disk access sees it."""
        return bytes(self._store)

    def used_slots(self) -> List[int]:
        return sorted(slot for slot, used in self._used.items() if used)

    def free_slots(self) -> int:
        return self.num_slots - len(self.used_slots())

    def find_pattern(self, pattern: bytes) -> List[int]:
        """Overlapping byte offsets of ``pattern`` anywhere in the swap
        area (including slots already released but never scrubbed).

        Only the written extent is searched: every byte past it is zero,
        so no match can place a nonzero needle byte there, and an
        all-zero needle still gets a full pass from
        :func:`~repro.mem.bytesearch.find_all_sparse`."""
        return find_all_sparse(self._store, pattern, [(0, self._written_end)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SwapDevice(slots={self.num_slots}, used={len(self.used_slots())})"
