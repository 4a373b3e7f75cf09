"""Swap device tests, including the disclosure surface."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SwapError
from repro.faults import FaultInjector, FaultPlan
from repro.mem.physmem import PAGE_SIZE
from repro.mem.swap import SwapDevice


def page_of(byte):
    return bytes([byte]) * PAGE_SIZE


class TestSwapInOut:
    def test_roundtrip(self):
        swap = SwapDevice(num_slots=4)
        slot = swap.swap_out(page_of(0x41))
        assert swap.swap_in(slot) == page_of(0x41)

    def test_wrong_size_rejected(self):
        swap = SwapDevice(num_slots=4)
        with pytest.raises(SwapError):
            swap.swap_out(b"short")

    def test_full_device(self):
        swap = SwapDevice(num_slots=2)
        swap.swap_out(page_of(1))
        swap.swap_out(page_of(2))
        with pytest.raises(SwapError):
            swap.swap_out(page_of(3))

    def test_slot_freed_after_swap_in(self):
        swap = SwapDevice(num_slots=1)
        slot = swap.swap_out(page_of(1))
        swap.swap_in(slot)
        swap.swap_out(page_of(2))  # slot is reusable

    def test_swap_in_empty_slot(self):
        swap = SwapDevice(num_slots=2)
        with pytest.raises(SwapError):
            swap.swap_in(0)

    def test_swap_in_keep_slot(self):
        swap = SwapDevice(num_slots=1)
        slot = swap.swap_out(page_of(7))
        swap.swap_in(slot, free_slot=False)
        with pytest.raises(SwapError):
            swap.swap_out(page_of(8))

    def test_invalid_slot(self):
        swap = SwapDevice(num_slots=2)
        with pytest.raises(SwapError):
            swap.swap_in(99)

    def test_counters(self):
        swap = SwapDevice(num_slots=4)
        slot = swap.swap_out(page_of(1))
        swap.swap_in(slot)
        assert swap.swap_outs == 1
        assert swap.swap_ins == 1

    def test_used_and_free_slots(self):
        swap = SwapDevice(num_slots=4)
        swap.swap_out(page_of(1))
        swap.swap_out(page_of(2))
        assert swap.used_slots() == [0, 1]
        assert swap.free_slots() == 2


class TestDisclosureSurface:
    """Swapped secrets persist on the device — the Provos problem."""

    def test_released_slot_still_holds_secret(self):
        swap = SwapDevice(num_slots=2)
        secret_page = b"TOPSECRET".ljust(PAGE_SIZE, b"\x00")
        slot = swap.swap_out(secret_page)
        swap.swap_in(slot)  # releases the slot
        assert swap.find_pattern(b"TOPSECRET") == [slot * PAGE_SIZE]

    def test_raw_dump_exposes_everything(self):
        swap = SwapDevice(num_slots=2)
        swap.swap_out(b"AAA".ljust(PAGE_SIZE, b"\x00"))
        swap.swap_out(b"BBB".ljust(PAGE_SIZE, b"\x00"))
        dump = swap.raw_dump()
        assert b"AAA" in dump and b"BBB" in dump

    def test_scrub_slot_removes_secret(self):
        swap = SwapDevice(num_slots=1)
        slot = swap.swap_out(b"TOPSECRET".ljust(PAGE_SIZE, b"\x00"))
        swap.scrub_slot(slot)
        assert swap.find_pattern(b"TOPSECRET") == []
        swap.swap_out(page_of(1))  # scrubbed slot is free again

    def test_find_pattern_empty_rejected(self):
        swap = SwapDevice(num_slots=1)
        with pytest.raises(ValueError):
            swap.find_pattern(b"")

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            SwapDevice(num_slots=0)


class TestFreeSlotHeap:
    """The free-slot min-heap: same lowest-slot-first behaviour as the
    old O(n) scan, without the scan."""

    def test_lowest_free_slot_first(self):
        swap = SwapDevice(num_slots=8)
        slots = [swap.swap_out(page_of(i)) for i in range(6)]
        assert slots == [0, 1, 2, 3, 4, 5]
        swap.swap_in(4)
        swap.swap_in(1)
        # Freed slots come back lowest-first, exactly like the scan did.
        assert swap.swap_out(page_of(7)) == 1
        assert swap.swap_out(page_of(8)) == 4
        assert swap.swap_out(page_of(9)) == 6

    def test_fill_drain_refill(self):
        swap = SwapDevice(num_slots=64)
        for round_num in range(3):
            slots = [swap.swap_out(page_of(round_num)) for _ in range(64)]
            assert slots == list(range(64))
            with pytest.raises(SwapError):
                swap.swap_out(page_of(0xFF))
            assert swap.free_slots() == 0
            for slot in slots:
                assert swap.swap_in(slot) == page_of(round_num)
            assert swap.free_slots() == 64

    def test_matches_linear_scan_model(self):
        """Differential stress: drive the device and a sorted-set model
        of the old linear scan with the same deterministic op stream;
        every slot choice must be identical."""
        import random

        swap = SwapDevice(num_slots=32)
        model_free = set(range(32))
        model_used = set()
        rng = random.Random(1234)
        for step in range(2000):
            if model_used and (not model_free or rng.random() < 0.5):
                slot = rng.choice(sorted(model_used))
                keep = rng.random() < 0.2
                swap.swap_in(slot, free_slot=not keep)
                if not keep:
                    model_used.discard(slot)
                    model_free.add(slot)
            elif model_free:
                expected = min(model_free)  # what the old scan returned
                assert swap.swap_out(page_of(step % 251)) == expected
                model_free.discard(expected)
                model_used.add(expected)
        assert swap.free_slots() == len(model_free)
        assert set(swap.used_slots()) == model_used

    def test_scrub_makes_slot_reusable_once(self):
        swap = SwapDevice(num_slots=2)
        slot = swap.swap_out(page_of(1))
        swap.scrub_slot(slot)
        swap.scrub_slot(slot)  # idempotent: no duplicate heap entry
        assert swap.swap_out(page_of(2)) == slot
        assert swap.swap_out(page_of(3)) == 1
        with pytest.raises(SwapError):
            swap.swap_out(page_of(4))

    def test_double_release_via_keep_then_free(self):
        swap = SwapDevice(num_slots=2)
        slot = swap.swap_out(page_of(1))
        swap.swap_in(slot, free_slot=False)  # still used
        swap.swap_in(slot)                   # now freed
        with pytest.raises(SwapError):
            swap.swap_in(slot)               # already free: no double push
        assert swap.free_slots() == 2


def _page(fill: int) -> bytes:
    return bytes([fill % 256]) * PAGE_SIZE


class _TornOnce:
    """Minimal injector stub: fire ``swap.torn`` on the first write."""

    def __init__(self):
        self.fired = False

    def tick(self, site):
        if site == "swap.torn" and not self.fired:
            self.fired = True
            return True
        return False


class TestCheckConsistency:
    def test_fresh_device_is_consistent(self):
        SwapDevice(8).check_consistency()

    def test_consistent_through_out_in_cycles(self):
        swap = SwapDevice(4)
        slots = [swap.swap_out(_page(i)) for i in range(3)]
        swap.check_consistency()
        swap.swap_in(slots[1])
        swap.swap_in(slots[0], free_slot=False)
        swap.check_consistency()

    def test_torn_write_claims_slot_but_stays_consistent(self):
        # The aborted path must leave the slot used AND off the heap —
        # claimed forever, but with the accounting exact.
        swap = SwapDevice(4)
        swap.faults = _TornOnce()
        with pytest.raises(SwapError):
            swap.swap_out(_page(7))
        assert swap.used_slots() == [0]
        swap.check_consistency()
        # the device still works afterwards, on the next slot
        assert swap.swap_out(_page(8)) == 1
        swap.check_consistency()

    def test_duplicate_heap_slot_detected(self):
        swap = SwapDevice(4)
        swap._free_heap.append(2)
        with pytest.raises(SwapError, match="duplicate"):
            swap.check_consistency()

    def test_out_of_range_heap_slot_detected(self):
        swap = SwapDevice(4)
        swap._free_heap[0] = 99
        with pytest.raises(SwapError, match="out-of-range"):
            swap.check_consistency()

    def test_used_slot_on_heap_detected(self):
        swap = SwapDevice(4)
        slot = swap.swap_out(_page(1))
        swap._free_heap.append(slot)
        with pytest.raises(SwapError, match="both used and on the free heap"):
            swap.check_consistency()

    def test_leaked_slot_detected(self):
        swap = SwapDevice(4)
        swap._free_heap.remove(3)
        with pytest.raises(SwapError, match="leaked slots: \\[3\\]"):
            swap.check_consistency()


# ----------------------------------------------------------------------
# find_pattern searches only the written extent; it must stay exact
# ----------------------------------------------------------------------
_SMALL_PAGE = 64
_SLOTS = 8
#: A three-letter alphabet with zero in it, so needles hit often and
#: straddle clean/dirty boundaries.
_BYTES = st.sampled_from(b"\x00\x01\x02")

_SWAP_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("out"), st.lists(_BYTES, min_size=_SMALL_PAGE,
                                           max_size=_SMALL_PAGE)),
        st.tuples(st.just("in"), st.integers(0, _SLOTS - 1), st.booleans()),
        st.tuples(st.just("scrub"), st.integers(0, _SLOTS - 1)),
    ),
    max_size=20,
)


def _brute_force(dump, needle):
    hits = []
    pos = dump.find(needle)
    while pos != -1:
        hits.append(pos)
        pos = dump.find(needle, pos + 1)
    return hits


def _drive(ops, torn):
    """Replay ``ops``; ``swap.torn`` fires on the swap-outs in ``torn``."""
    swap = SwapDevice(num_slots=_SLOTS, page_size=_SMALL_PAGE)
    swap.faults = FaultInjector(FaultPlan({"swap.torn": sorted(torn)}))
    for op in ops:
        try:
            if op[0] == "out":
                swap.swap_out(bytes(op[1]))
            elif op[0] == "in":
                used = swap.used_slots()
                if used:
                    swap.swap_in(used[op[1] % len(used)], free_slot=op[2])
            else:
                swap.scrub_slot(op[1])
        except SwapError:
            pass  # device full or an injected torn write
    return swap


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    ops=_SWAP_OPS,
    torn=st.sets(st.integers(0, 20), max_size=4),
    needles=st.lists(st.lists(_BYTES, min_size=1, max_size=8), max_size=4),
    straddle=st.tuples(st.integers(1, 6), st.integers(1, 6)),
)
def test_find_pattern_matches_brute_force(ops, torn, needles, straddle):
    swap = _drive(ops, torn)
    dump = swap.raw_dump()
    before, after = straddle
    end = swap._written_end
    candidates = [bytes(needle) for needle in needles]
    candidates.append(dump[max(0, end - before) : end + after])  # straddles
    candidates.append(b"\x00" * after)                          # all zero
    for needle in candidates:
        if needle:
            assert swap.find_pattern(needle) == _brute_force(dump, needle)


def test_find_pattern_on_never_written_device():
    swap = SwapDevice(num_slots=_SLOTS, page_size=_SMALL_PAGE)
    assert swap.find_pattern(b"\x01") == []
    assert swap.find_pattern(b"\x00\x01") == []
    zeros = b"\x00" * 3
    assert swap.find_pattern(zeros) == _brute_force(swap.raw_dump(), zeros)


def test_torn_write_extends_the_searched_extent():
    swap = SwapDevice(num_slots=_SLOTS, page_size=_SMALL_PAGE)
    swap.faults = FaultInjector(FaultPlan({"swap.torn": [1]}))
    swap.swap_out(b"\x01" * _SMALL_PAGE)
    with pytest.raises(SwapError):
        swap.swap_out(b"\x02" * _SMALL_PAGE)
    # Only the torn half of slot 1 landed; its last byte is found.
    half = _SMALL_PAGE // 2
    assert swap.find_pattern(b"\x02\x00") == [_SMALL_PAGE + half - 1]
