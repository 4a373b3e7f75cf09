"""Linux-style buddy page allocator with hot/cold per-CPU lists.

Two properties of this allocator carry the whole paper:

1. **Freed frames keep their content.**  Nothing in the stock free path
   touches the page's bytes, so a frame that held three quarters of an
   RSA private key still holds it while sitting on a free list.  The
   ext2 directory leak and the n_tty dump both read such frames.

2. **Reuse is LIFO.**  Order-0 frees land on a per-CPU *hot* list and
   the next allocation pops from it, so the stale content an attacker
   receives is biased toward *recently freed* data — exactly why
   flooding a server with connections right before the leak is such an
   effective attack strategy.

The kernel-level countermeasure is the :attr:`clear_on_free` switch,
which reproduces the paper's ``page_alloc.c`` patch (clear every page
before it reaches a free list).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional, Set

from repro.errors import AllocatorStateError, OutOfMemoryError
from repro.mem.page import Page, PageFlag
from repro.mem.physmem import PhysicalMemory, Releasable

#: Largest block order, as in the stock kernel (2**10 pages = 4 MB).
MAX_ORDER = 10

#: Capacity of the per-CPU hot list before overflow drains to the buddy.
#: Small, as the real pcp lists are relative to a whole machine's
#: memory: most frames freed by an exiting process overflow into the
#: buddy lists and are *not* immediately reused while memory is
#: plentiful — which is why stale key copies linger in free memory.
HOT_LIST_CAPACITY = 8

#: Target chunk length of :class:`ChunkedFreeList`.
FREE_LIST_CHUNK = 128


class ChunkedFreeList:
    """One free list as short chunks, with an index from frame to chunk.

    :meth:`BuddyAllocator.free_many` puts one in place of each free list
    for the batch: the same sequence under insert, remove and pop, but
    ``remove`` scans one chunk, not a list thousands of frames long.
    """

    __slots__ = ("_chunks", "_where")

    def __init__(self, items: List[int]) -> None:
        self._chunks = [
            items[i : i + FREE_LIST_CHUNK] for i in range(0, len(items), FREE_LIST_CHUNK)
        ]
        self._where = {item: chunk for chunk in self._chunks for item in chunk}

    def __len__(self) -> int:
        return len(self._where)

    def __iter__(self) -> Iterator[int]:
        for chunk in self._chunks:
            yield from chunk

    def insert(self, index: int, item: int) -> None:
        """Insert before position ``index`` (0 <= index <= len)."""
        chunks = self._chunks
        if not chunks:
            chunks.append([])
        for pos, chunk in enumerate(chunks):
            size = len(chunk)
            if index <= size:
                break
            index -= size
        chunk.insert(index, item)
        self._where[item] = chunk
        if len(chunk) > 2 * FREE_LIST_CHUNK:
            tail = chunk[FREE_LIST_CHUNK:]
            del chunk[FREE_LIST_CHUNK:]
            chunks.insert(pos + 1, tail)
            for moved in tail:
                self._where[moved] = tail

    def remove(self, item: int) -> None:
        chunk = self._where.pop(item)
        chunk.remove(item)
        if not chunk:
            self._chunks = [c for c in self._chunks if c is not chunk]

    def pop(self) -> int:
        chunk = self._chunks[-1]
        item = chunk.pop()
        if not chunk:
            self._chunks.pop()
        del self._where[item]
        return item


class BuddyAllocator(Releasable):
    """Power-of-two block allocator over a :class:`PhysicalMemory`."""
    RELEASED = ("pages",)

    def __init__(
        self,
        physmem: PhysicalMemory,
        reserved_frames: int = 0,
        max_order: int = MAX_ORDER,
        on_page_clear: Optional[Callable[[int], None]] = None,
        placement_rng: Optional[random.Random] = None,
    ) -> None:
        if not 0 <= reserved_frames <= physmem.num_frames:
            raise ValueError("reserved_frames out of range")
        self.physmem = physmem
        self.max_order = max_order
        #: The paper's kernel patch: zero pages on their way to a free list.
        self.clear_on_free = False
        #: Hook invoked with the number of frames cleared (cost accounting).
        self.on_page_clear = on_page_clear
        #: When set, cold frees land at a *random* position in their
        #: free list instead of the front.  On a real multi-CPU 2.6
        #: machine the position of a freed page relative to future
        #: allocations is effectively random (per-CPU pcp lists, zone
        #: rotation, interleaved allocators); a seeded RNG reproduces
        #: that statistically without modelling every CPU.
        self.placement_rng = placement_rng
        #: Called when an allocation is about to fail (the direct-
        #: reclaim path).  Should free pages (e.g. by swapping) and
        #: return how many it reclaimed; the allocation then retries
        #: once.  Wired up by the kernel.
        self.oom_reclaim: Optional[Callable[[int], int]] = None
        #: KeySan hook: called as ``on_free(head, order, cleared)`` after
        #: every successful :meth:`free_pages`, so the sanitizer can
        #: catch tainted frames entering a free list uncleared.
        self.on_free: Optional[Callable[[int, int, bool], None]] = None
        #: Fault injector (``repro.faults``); when armed, scheduled
        #: invocations of alloc_pages fail with ENOMEM as if direct
        #: reclaim had already run and found nothing.
        self.faults = None

        self.pages: List[Page] = [Page(frame) for frame in range(physmem.num_frames)]
        self._free_lists: Dict[int, List[int]] = {o: [] for o in range(max_order + 1)}
        self._free_heads: Dict[int, int] = {}  # free head frame -> order
        self._alloc_orders: Dict[int, int] = {}  # allocated head frame -> order
        self._hot: Deque[int] = deque()  # free order-0 frames, LIFO reuse
        self._hot_set: Set[int] = set()

        self.alloc_count = 0
        self.free_count = 0
        self.cleared_frames = 0

        for frame in range(reserved_frames):
            page = self.pages[frame]
            page.set_flag(PageFlag.RESERVED)
        self._seed_free_lists(reserved_frames, physmem.num_frames)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _seed_free_lists(self, start: int, end: int) -> None:
        """Carve ``[start, end)`` into maximal aligned free blocks."""
        frame = start
        while frame < end:
            order = self.max_order
            while order > 0 and (frame % (1 << order) or frame + (1 << order) > end):
                order -= 1
            self._insert_free(frame, order)
            frame += 1 << order

    # ------------------------------------------------------------------
    # free-list plumbing
    # ------------------------------------------------------------------
    def _insert_free(self, frame: int, order: int) -> None:
        """Append a block to its free list (boot carving and splits)."""
        self._free_lists[order].append(frame)
        self._free_heads[frame] = order

    def _pop_free(self, order: int) -> int:
        frame = self._free_lists[order].pop()
        del self._free_heads[frame]
        return frame

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc_pages(self, order: int = 0, flags: PageFlag = PageFlag.NONE) -> int:
        """Allocate a block of ``2**order`` frames; return the head frame.

        Like ``__get_free_pages`` *without* ``__GFP_ZERO``: the block's
        content is whatever the previous owner left there.  Callers that
        need zeroed memory (user anonymous pages) must clear explicitly.
        """
        if not 0 <= order <= self.max_order:
            raise AllocatorStateError(f"invalid order {order}")
        if self.faults is not None and self.faults.tick("buddy.alloc"):
            raise OutOfMemoryError(f"injected allocation failure (order {order})")
        if order == 0 and self._hot:
            frame = self._hot.pop()
            self._hot_set.discard(frame)
            self._commit_alloc(frame, 0, flags)
            return frame
        try:
            head = self._alloc_from_buddy(order)
        except OutOfMemoryError:
            # Direct reclaim: ask the kernel to evict, then retry once.
            if self.oom_reclaim is None or self.oom_reclaim(1 << order) <= 0:
                raise
            head = self._alloc_from_buddy(order)
        self._commit_alloc(head, order, flags)
        return head

    def _alloc_from_buddy(self, order: int) -> int:
        current = order
        while current <= self.max_order and not self._free_lists[current]:
            current += 1
        if current > self.max_order:
            # Last resort: drain the hot list back into the buddy and retry.
            if order == 0 and self._hot:
                frame = self._hot.pop()
                self._hot_set.discard(frame)
                return frame
            self._drain_hot()
            current = order
            while current <= self.max_order and not self._free_lists[current]:
                current += 1
            if current > self.max_order:
                raise OutOfMemoryError(f"no free block of order {order}")
        head = self._pop_free(current)
        while current > order:
            current -= 1
            upper = head + (1 << current)
            self._insert_free(upper, current)
        return head

    def _commit_alloc(self, head: int, order: int, flags: PageFlag) -> None:
        size = 1 << order
        for frame in range(head, head + size):
            page = self.pages[frame]
            if page.count != 0:
                raise AllocatorStateError(f"allocating in-use frame {frame}")
            page.count = 1
            page.flags = flags
        self.pages[head].order = order
        self._alloc_orders[head] = order
        self.alloc_count += 1

    def alloc_many(self, count: int, flags: PageFlag = PageFlag.NONE) -> List[int]:
        """Allocate ``count`` order-0 frames, exactly as ``count`` calls
        to ``alloc_pages(0, flags)`` would: same frames, same state.

        With the hot list empty, those calls split the last block of the
        smallest non-empty order and hand it out front to back, so a
        whole block goes out here in one step; a partly used one leaves
        the aligned blocks covering its rest, as the splits would.  The
        hot list, an armed fault injector and exhaustion still go
        through :meth:`alloc_pages` one frame at a time.
        """
        frames: List[int] = []
        lists = self._free_lists
        pages = self.pages
        alloc_orders = self._alloc_orders
        while len(frames) < count:
            order = next((o for o, heads in lists.items() if heads), None)
            if self._hot or self.faults is not None or order is None:
                frames.append(self.alloc_pages(0, flags))
                continue
            head = self._pop_free(order)
            end = head + min(1 << order, count - len(frames))
            for frame in range(head, end):
                page = pages[frame]
                if page.count != 0:
                    raise AllocatorStateError(f"allocating in-use frame {frame}")
                page.count = 1
                page.flags = flags
                alloc_orders[frame] = 0
            self.alloc_count += end - head
            frames.extend(range(head, end))
            block_end = head + (1 << order)
            while end < block_end:
                rest = (end & -end).bit_length() - 1
                self._insert_free(end, rest)
                end += 1 << rest
        return frames

    # ------------------------------------------------------------------
    # freeing
    # ------------------------------------------------------------------
    def free_pages(self, head: int, order: Optional[int] = None) -> None:
        """Free a block previously returned by :meth:`alloc_pages`.

        Order-0 frames go to the hot list (the ``free_hot_cold_page``
        path the paper patches); larger blocks go straight to the buddy
        lists with coalescing.
        """
        recorded = self._alloc_orders.get(head)
        if recorded is None:
            raise AllocatorStateError(f"free of unallocated head frame {head}")
        if order is not None and order != recorded:
            raise AllocatorStateError(
                f"free order {order} does not match allocation order {recorded}"
            )
        self._free_blocks((head,), recorded)

    def free_many(self, frames: Iterable[int]) -> None:
        """Free order-0 frames in turn, exactly as :meth:`free_pages`
        would: same hook calls, ``placement_rng`` draws and free lists.

        During the batch the free lists are :class:`ChunkedFreeList`
        objects, so coalescing does not scan whole lists; they are plain
        lists again when it returns or raises.
        """
        self._free_lists = {o: ChunkedFreeList(h) for o, h in self._free_lists.items()}
        try:
            self._free_blocks(frames, 0)
        finally:
            self._free_lists = {o: list(h) for o, h in self._free_lists.items()}

    def _free_blocks(self, heads: Iterable[int], order: int) -> None:
        """Free allocated blocks of one order, one after another."""
        pages = self.pages
        alloc_orders = self._alloc_orders
        physmem = self.physmem
        hot = self._hot
        hot_set = self._hot_set
        size = 1 << order
        for head in heads:
            if alloc_orders.get(head) != order:
                raise AllocatorStateError(f"frame {head} is not an order-{order} block")
            for frame in range(head, head + size):
                page = pages[frame]
                if page.count != 1:
                    raise AllocatorStateError(
                        f"freeing frame {frame} with refcount {page.count}"
                    )
                page.count = 0
                page.reset_state()
            del alloc_orders[head]
            self.free_count += 1

            cleared = self.clear_on_free
            if cleared:
                for frame in range(head, head + size):
                    physmem.clear_frame(frame)
                    self.cleared_frames += 1
                    if self.on_page_clear is not None:
                        self.on_page_clear(1)

            # The hook is observational (KeySan scrub check, exit
            # reaping); the block must reach the free lists even if it
            # raises, or a second fault during an exit unwind would
            # orphan the frames — neither allocated nor free, lost
            # until reboot.
            try:
                if self.on_free is not None:
                    self.on_free(head, order, cleared)
            finally:
                if order:
                    self._merge_and_insert(head, order)
                else:
                    hot.append(head)
                    hot_set.add(head)
                    while len(hot) > HOT_LIST_CAPACITY:
                        cold = hot.popleft()
                        hot_set.discard(cold)
                        self._merge_and_insert(cold, 0)

    def _drain_hot(self) -> None:
        while self._hot:
            frame = self._hot.popleft()
            self._hot_set.discard(frame)
            self._merge_and_insert(frame, 0)

    def _merge_and_insert(self, head: int, order: int) -> None:
        """Coalesce a freed block with free buddies, then put it on its list.

        Allocation pops from the *end* of a list, so a freed block goes
        in at the front (or, with ``placement_rng``, anywhere) and is
        reused late: the plenty-of-memory behaviour that lets stale data
        survive in the free pool.
        """
        free_lists = self._free_lists
        free_heads = self._free_heads
        hot_set = self._hot_set
        while order < self.max_order:
            buddy = head ^ (1 << order)
            if free_heads.get(buddy) != order or buddy in hot_set:
                break
            free_lists[order].remove(buddy)
            del free_heads[buddy]
            head = min(head, buddy)
            order += 1
        free_list = free_lists[order]
        length = len(free_list)
        if self.placement_rng is not None and length:
            free_list.insert(self.placement_rng.randrange(length + 1), head)
        else:
            free_list.insert(0, head)
        free_heads[head] = order

    # ------------------------------------------------------------------
    # refcount interface used by COW / page cache
    # ------------------------------------------------------------------
    def get_page(self, frame: int) -> None:
        """Take an extra reference on an allocated order-0 frame."""
        page = self.pages[frame]
        if page.count == 0:
            raise AllocatorStateError(f"get_page on free frame {frame}")
        page.get()

    def put_page(self, frame: int) -> None:
        """Drop a reference; frees the frame when the count reaches zero."""
        page = self.pages[frame]
        remaining = page.put()
        if remaining == 0:
            # Re-arm the bookkeeping so free_pages sees a 1-count block.
            page.count = 1
            if frame not in self._alloc_orders:
                raise AllocatorStateError(f"put_page on untracked frame {frame}")
            self.free_pages(frame)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_allocated(self, frame: int) -> bool:
        """True if ``frame`` currently belongs to somebody."""
        return self.pages[frame].allocated

    def free_frames(self) -> int:
        """Number of frames currently free (buddy lists + hot list)."""
        total = len(self._hot)
        for order, heads in self._free_lists.items():
            total += len(heads) << order
        return total

    def allocated_frames(self) -> Iterator[int]:
        """Iterate over every allocated (or reserved) frame number."""
        for page in self.pages:
            if page.allocated:
                yield page.frame

    def check_invariants(self) -> None:
        """Assert internal consistency; used heavily by property tests."""
        seen: Set[int] = set()
        for order, heads in self._free_lists.items():
            for head in heads:
                if head % (1 << order):
                    raise AllocatorStateError(
                        f"free block {head} misaligned for order {order}"
                    )
                for frame in range(head, head + (1 << order)):
                    if frame in seen:
                        raise AllocatorStateError(f"frame {frame} on two free lists")
                    seen.add(frame)
                    if self.pages[frame].count != 0:
                        raise AllocatorStateError(
                            f"free frame {frame} has nonzero refcount"
                        )
        for frame in self._hot:
            if frame in seen:
                raise AllocatorStateError(f"hot frame {frame} also on buddy list")
            seen.add(frame)
        for head, order in self._alloc_orders.items():
            for frame in range(head, head + (1 << order)):
                if frame in seen:
                    raise AllocatorStateError(f"allocated frame {frame} marked free")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BuddyAllocator(frames={self.physmem.num_frames}, "
            f"free={self.free_frames()}, clear_on_free={self.clear_on_free})"
        )
