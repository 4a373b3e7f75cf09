"""Sparse (zero-skipping) byte search: identity, bounds, and no-copy.

The scan path's contract has two halves:

* ``find_all_sparse(h, n, nonzero_intervals(h))`` is byte-identical to
  ``find_all_occurrences(h, n)`` for every haystack/needle pair — the
  optimized scanner may *never* change a report;
* partial ``memoryview`` windows are searched zero-copy (the old
  ``_searchable`` materialised ``bytes(haystack)`` per probe, turning
  every incremental re-scan into a window-sized allocation).
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.bytesearch import (
    ZERO_GAP,
    find_all_occurrences,
    find_all_sparse,
    first_nonzero,
    nonzero_intervals,
)


def _reference_intervals_cover(buf, intervals):
    """Every byte outside the intervals must be zero."""
    pos = 0
    for lo, hi in intervals:
        assert pos <= lo < hi <= len(buf)
        assert not any(buf[pos:lo])
        pos = hi
    assert not any(buf[pos:])


@st.composite
def _haystacks(draw):
    """Mostly-zero buffers with a few data spans — RAM-shaped."""
    size = draw(st.integers(1, 20_000))
    buf = bytearray(size)
    for _ in range(draw(st.integers(0, 5))):
        offset = draw(st.integers(0, size - 1))
        span = draw(st.binary(min_size=1, max_size=300))
        buf[offset : offset + len(span)] = span[: size - offset]
    return bytes(buf)


class TestNonzeroIntervals:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(haystack=_haystacks(), gap=st.sampled_from([1, 7, 64, ZERO_GAP]))
    def test_complement_is_verified_zero(self, haystack, gap):
        _reference_intervals_cover(haystack, nonzero_intervals(haystack, gap=gap))

    def test_all_zero_buffer_has_no_intervals(self):
        assert nonzero_intervals(bytes(100_000)) == []

    def test_all_data_buffer_is_one_interval(self):
        assert nonzero_intervals(b"\x01" * 5000) == [(0, 5000)]

    def test_gap_must_be_positive(self):
        with pytest.raises(ValueError):
            nonzero_intervals(b"\x01", gap=0)

    def test_first_nonzero_gallops_to_the_byte(self):
        buf = bytearray(1_000_000)
        buf[777_777] = 1
        assert first_nonzero(buf) == 777_777
        assert first_nonzero(buf, 777_778) == len(buf)
        assert first_nonzero(bytes(64)) == 64


class TestSparseEqualsFull:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(haystack=_haystacks(), data=st.data())
    def test_identity_on_random_buffers(self, haystack, data):
        if len(haystack) > 4 and data.draw(st.booleans()):
            # Bias toward needles that actually occur.
            offset = data.draw(st.integers(0, len(haystack) - 4))
            needle = haystack[offset : offset + 4]
        else:
            needle = data.draw(st.binary(min_size=1, max_size=8))
        if not needle:
            needle = b"\x00"
        intervals = nonzero_intervals(haystack)
        assert find_all_sparse(haystack, needle, intervals) == \
            find_all_occurrences(haystack, needle)

    def test_all_zero_needle_still_matches_the_gaps(self):
        buf = bytes(10_000)
        needle = bytes(16)
        intervals = nonzero_intervals(buf)
        assert intervals == []
        assert find_all_sparse(buf, needle, intervals) == \
            find_all_occurrences(buf, needle)

    def test_match_straddling_interval_edges(self):
        buf = bytearray(64 * 1024)
        buf[8192:8256] = b"\x5a" * 64
        needle = bytes(8) + b"\x5a" * 8  # zero prefix hangs off the interval
        intervals = nonzero_intervals(buf)
        assert find_all_sparse(buf, needle, intervals) == \
            find_all_occurrences(buf, needle)

    def test_overlapping_occurrences_are_kept(self):
        buf = bytes(4096) + b"\xab" * 40 + bytes(4096)
        hits = find_all_sparse(buf, b"\xab" * 8, nonzero_intervals(buf))
        assert hits == find_all_occurrences(buf, b"\xab" * 8)
        assert len(hits) == 33  # 40 - 8 + 1 overlapping offsets


class TestNoCopyRegression:
    def test_partial_view_search_allocates_no_window_copy(self):
        """Searching a partial memoryview must not materialise it.

        The regression: ``_searchable`` used to fall back to
        ``bytes(haystack)`` for any non-whole-buffer view, so probing a
        4 MB window allocated 4 MB.  The zero-copy path's peak
        allocation must stay orders of magnitude below the window.
        """
        backing = bytearray(4 * 1024 * 1024)
        backing[2_000_000 : 2_000_064] = b"\x77" * 64
        window = memoryview(backing)[1_000_000:3_000_000]

        find_all_occurrences(window, b"\x77" * 16)  # warm code paths
        tracemalloc.start()
        hits = find_all_occurrences(window, b"\x77" * 16)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert hits == [1_000_000 + i for i in range(49)]
        assert peak < 64 * 1024, f"window copy detected: peak {peak} bytes"

    def test_partial_view_results_match_bytes_results(self):
        backing = bytes(4096) + b"\x11\x22\x33" * 100 + bytes(4096)
        view = memoryview(backing)[4000:8500]
        assert find_all_occurrences(view, b"\x22\x33\x11") == \
            find_all_occurrences(bytes(view), b"\x22\x33\x11")

    def test_non_contiguous_view_still_correct(self):
        backing = bytes(range(256)) * 4
        strided = memoryview(backing)[::2]
        expected = find_all_occurrences(bytes(strided), b"\x04\x06")
        assert find_all_occurrences(strided, b"\x04\x06") == expected


# ----------------------------------------------------------------------
# page-edge offsets against brute force
# ----------------------------------------------------------------------
EDGE_SIZES = (3 * ZERO_GAP + 5, 4 * ZERO_GAP, 70_000)


def _edge_offsets(size):
    return (0, ZERO_GAP - 1, ZERO_GAP, ZERO_GAP + 1, size - 1)


def _edge_buffers(size):
    """Every subset of the edge offsets set nonzero."""
    offsets = _edge_offsets(size)
    for mask in range(1 << len(offsets)):
        buf = bytearray(size)
        for bit, offset in enumerate(offsets):
            if mask >> bit & 1:
                buf[offset] = 0x80 >> bit
        yield bytes(buf)


def _as_kinds(data):
    """The same bytes as bytes, bytearray and a partial memoryview."""
    padded = bytearray(7) + bytearray(data) + bytearray(9)
    return {
        "bytes": data,
        "bytearray": bytearray(data),
        "view": memoryview(padded)[7 : 7 + len(data)],
    }


def _brute_first_nonzero(data, start):
    return next((i for i in range(start, len(data)) if data[i]), len(data))


def _brute_intervals(data, gap):
    """Split on every zero run of at least ``gap`` bytes."""
    intervals, lo, i, n = [], 0, 0, len(data)
    while i < n:
        if data[i]:
            i += 1
            continue
        j = i
        while j < n and not data[j]:
            j += 1
        if j - i >= gap:
            if i > lo:
                intervals.append((lo, i))
            lo = j
        i = j
    if lo < n:
        intervals.append((lo, n))
    return intervals


class TestEdgeOffsetsAgainstBruteForce:
    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_first_nonzero(self, size):
        starts = sorted({0, 1, ZERO_GAP - 1, ZERO_GAP, ZERO_GAP + 1, size - 1, size})
        for data in _edge_buffers(size):
            expected = {start: _brute_first_nonzero(data, start) for start in starts}
            for kind, haystack in _as_kinds(data).items():
                for start in starts:
                    assert first_nonzero(haystack, start) == expected[start], (kind, start)

    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_nonzero_intervals(self, size):
        for data in _edge_buffers(size):
            for gap in (1, ZERO_GAP):
                expected = _brute_intervals(data, gap)
                for kind, haystack in _as_kinds(data).items():
                    assert nonzero_intervals(haystack, gap=gap) == expected, (kind, gap)

    def test_bounded_search_stops_at_end(self):
        data = bytearray(3 * ZERO_GAP)
        data[ZERO_GAP + 1] = 1
        for haystack in _as_kinds(bytes(data)).values():
            assert first_nonzero(haystack, 0, ZERO_GAP + 1) == ZERO_GAP + 1
            assert first_nonzero(haystack, 0, ZERO_GAP + 2) == ZERO_GAP + 1
