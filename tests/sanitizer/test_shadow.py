"""Unit tests for the byte-granular shadow map."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sanitizer.shadow import MAX_TAG_ID, ShadowMap, TaintRun


def test_fresh_map_is_clean():
    shadow = ShadowMap(1024)
    assert shadow.total_tainted() == 0
    assert not shadow.any_in(0, 1024)
    assert shadow.runs_in(0, 1024) == []
    assert list(shadow.iter_tainted_chunks(256)) == []


def test_set_count_clear_roundtrip():
    shadow = ShadowMap(1024)
    shadow.set_range(100, 50, tag_id=3, origin_id=7)
    assert shadow.total_tainted() == 50
    assert shadow.count_in(0, 1024) == 50
    assert shadow.count_in(100, 50) == 50
    assert shadow.count_in(90, 20) == 10
    assert shadow.any_in(149, 1)
    assert not shadow.any_in(150, 100)
    assert shadow.covered(100, 50)
    assert not shadow.covered(99, 51)
    assert shadow.tag_at(100) == 3
    shadow.clear_range(100, 25)
    assert shadow.total_tainted() == 25
    assert shadow.tag_at(100) == 0


def test_copy_range_carries_tag_and_origin():
    shadow = ShadowMap(1024)
    shadow.set_range(0, 16, tag_id=2, origin_id=9)
    shadow.copy_range(0, 512, 64)
    runs = shadow.runs_in(512, 64)
    assert runs == [TaintRun(512, 16, 2, 9)]


def test_runs_split_on_tag_and_origin_boundaries():
    shadow = ShadowMap(256)
    shadow.set_range(10, 10, tag_id=1, origin_id=1)
    shadow.set_range(20, 10, tag_id=1, origin_id=2)   # same tag, new origin
    shadow.set_range(30, 10, tag_id=2, origin_id=2)   # new tag
    shadow.set_range(50, 5, tag_id=1, origin_id=1)    # detached run
    runs = shadow.runs_in(0, 256)
    assert runs == [
        TaintRun(10, 10, 1, 1),
        TaintRun(20, 10, 1, 2),
        TaintRun(30, 10, 2, 2),
        TaintRun(50, 5, 1, 1),
    ]
    assert runs[0].end == 20


def test_iter_tainted_chunks_skips_clean_pages():
    shadow = ShadowMap(4096 * 8)
    shadow.set_range(4096 * 2 + 7, 3, tag_id=1, origin_id=1)
    shadow.set_range(4096 * 6 + 4000, 200, tag_id=1, origin_id=1)
    chunks = list(shadow.iter_tainted_chunks(4096))
    assert chunks == [(4096 * 2, 4096), (4096 * 6, 4096), (4096 * 7, 4096)]


def test_bounds_and_id_validation():
    shadow = ShadowMap(64)
    with pytest.raises(ValueError):
        shadow.set_range(60, 10, tag_id=1, origin_id=1)
    with pytest.raises(ValueError):
        shadow.set_range(0, 4, tag_id=0, origin_id=1)     # tag 0 = clean
    with pytest.raises(ValueError):
        shadow.set_range(0, 4, tag_id=256, origin_id=1)
    with pytest.raises(ValueError):
        shadow.count_in(-1, 4)
    with pytest.raises(ValueError):
        ShadowMap(0)
    with pytest.raises(ValueError):
        list(shadow.iter_tainted_chunks(0))


# ----------------------------------------------------------------------
# tag_counts: the run-free census primitive
# ----------------------------------------------------------------------
#: Four 256-byte pages, so ranges cross page boundaries.
_PAGE = 256
_SIZE = 4 * _PAGE

_addr = st.integers(0, _SIZE - 1)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), _addr, st.integers(0, 600),
                  st.integers(1, MAX_TAG_ID), st.integers(0, 3)),
        st.tuples(st.just("clear"), _addr, st.integers(0, 600)),
        st.tuples(st.just("copy"), _addr, _addr, st.integers(0, 600)),
    ),
    max_size=25,
)


def _apply(shadow, op):
    if op[0] == "set":
        _, addr, length, tag, origin = op
        shadow.set_range(addr, min(length, _SIZE - addr), tag, origin)
    elif op[0] == "clear":
        _, addr, length = op
        shadow.clear_range(addr, min(length, _SIZE - addr))
    else:
        _, src, dst, length = op
        shadow.copy_range(src, dst, min(length, _SIZE - max(src, dst)))


def _counts_from_runs(shadow, addr, length):
    counts = {}
    for run in shadow.runs_in(addr, length):
        counts[run.tag_id] = counts.get(run.tag_id, 0) + run.length
    return counts


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ops=_OPS, addr=_addr, length=st.integers(0, _SIZE))
def test_tag_counts_equals_run_lengths_per_tag(ops, addr, length):
    shadow = ShadowMap(_SIZE)
    for op in ops:
        _apply(shadow, op)
    length = min(length, _SIZE - addr)
    expected = _counts_from_runs(shadow, addr, length)
    counts = shadow.tag_counts(addr, length)
    assert counts == expected
    # Keyed in first-appearance order, the order runs_in meets the tags.
    assert list(counts) == list(expected)
    assert sum(counts.values()) == shadow.count_in(addr, length)


def test_tag_counts_edges():
    shadow = ShadowMap(_SIZE)
    assert shadow.tag_counts(0, _SIZE) == {}
    shadow.set_range(_PAGE - 3, 6, tag_id=MAX_TAG_ID, origin_id=1)
    shadow.set_range(_PAGE + 3, 2, tag_id=1, origin_id=2)
    assert shadow.tag_counts(10, 0) == {}          # empty range
    assert shadow.tag_counts(_PAGE - 3, 0) == {}   # empty, on taint
    assert shadow.tag_counts(0, _PAGE) == {MAX_TAG_ID: 3}
    assert shadow.tag_counts(0, _SIZE) == {MAX_TAG_ID: 6, 1: 2}
    with pytest.raises(ValueError):
        shadow.tag_counts(_SIZE - 1, 2)


@pytest.mark.parametrize("size", (3 * 4096 + 5, 4 * 4096))
def test_total_tainted_at_page_edges_matches_brute_force(size):
    offsets = (0, 4095, 4096, 4097, size - 1)
    for mask in range(1 << len(offsets)):
        shadow = ShadowMap(size)
        for bit, offset in enumerate(offsets):
            if mask >> bit & 1:
                shadow.set_range(offset, 1, tag_id=bit + 1, origin_id=bit)
        brute = sum(1 for addr in range(size) if shadow.tag_at(addr))
        assert shadow.total_tainted() == brute == bin(mask).count("1")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    spans=st.lists(
        st.tuples(st.integers(0, 5 * 4096 - 1), st.integers(1, 9000)), max_size=6
    )
)
def test_total_tainted_matches_brute_force(spans):
    size = 5 * 4096
    shadow = ShadowMap(size)
    for index, (addr, length) in enumerate(spans):
        length = min(length, size - addr)
        if index % 3 == 2:
            shadow.clear_range(addr, length)
        else:
            shadow.set_range(addr, length, tag_id=index + 1, origin_id=index)
    assert shadow.total_tainted() == size - bytes(shadow._tags).count(0)
