"""Unit tests for the physical memory substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BadAddressError
from repro.mem.physmem import PAGE_SIZE, PhysicalMemory


@pytest.fixture
def mem():
    return PhysicalMemory(num_frames=16)


class TestConstruction:
    def test_size(self, mem):
        assert mem.size == 16 * PAGE_SIZE
        assert len(mem) == mem.size

    def test_initially_zeroed(self, mem):
        assert mem.read(0, mem.size) == b"\x00" * mem.size

    def test_rejects_zero_frames(self):
        with pytest.raises(ValueError):
            PhysicalMemory(num_frames=0)

    def test_rejects_negative_frames(self):
        with pytest.raises(ValueError):
            PhysicalMemory(num_frames=-3)

    def test_rejects_non_power_of_two_page_size(self):
        with pytest.raises(ValueError):
            PhysicalMemory(num_frames=4, page_size=1000)

    def test_custom_page_size(self):
        mem = PhysicalMemory(num_frames=4, page_size=256)
        assert mem.size == 1024


class TestByteAccess:
    def test_write_read_roundtrip(self, mem):
        mem.write(100, b"hello world")
        assert mem.read(100, 11) == b"hello world"

    def test_write_across_frame_boundary(self, mem):
        data = b"Z" * 100
        mem.write(PAGE_SIZE - 50, data)
        assert mem.read(PAGE_SIZE - 50, 100) == data

    def test_read_out_of_range(self, mem):
        with pytest.raises(BadAddressError):
            mem.read(mem.size - 1, 2)

    def test_write_out_of_range(self, mem):
        with pytest.raises(BadAddressError):
            mem.write(mem.size - 1, b"ab")

    def test_negative_address(self, mem):
        with pytest.raises(BadAddressError):
            mem.read(-1, 1)

    def test_negative_length(self, mem):
        with pytest.raises(BadAddressError):
            mem.read(0, -4)

    def test_fill(self, mem):
        mem.fill(10, 20, 0xAB)
        assert mem.read(10, 20) == b"\xab" * 20
        assert mem.read(30, 1) == b"\x00"


class TestFrameAccess:
    def test_frame_of(self, mem):
        assert mem.frame_of(0) == 0
        assert mem.frame_of(PAGE_SIZE) == 1
        assert mem.frame_of(PAGE_SIZE - 1) == 0

    def test_frame_base(self, mem):
        assert mem.frame_base(3) == 3 * PAGE_SIZE

    def test_frame_base_out_of_range(self, mem):
        with pytest.raises(BadAddressError):
            mem.frame_base(16)

    def test_write_read_frame(self, mem):
        payload = bytes(range(256)) * 16
        mem.write_frame(2, payload)
        assert mem.read_frame(2) == payload

    def test_write_frame_partial(self, mem):
        mem.write_frame(2, b"abc")
        content = mem.read_frame(2)
        assert content.startswith(b"abc")
        assert content[3:] == b"\x00" * (PAGE_SIZE - 3)

    def test_write_frame_too_large(self, mem):
        with pytest.raises(BadAddressError):
            mem.write_frame(0, b"x" * (PAGE_SIZE + 1))

    def test_clear_frame(self, mem):
        mem.write_frame(5, b"secret" * 100)
        mem.clear_frame(5)
        assert mem.frame_is_zero(5)

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["write", "fill", "write_frame", "copy_frame", "clear_frame"]),
                st.integers(0, 7),
                st.integers(0, 7),
                st.integers(0, 3 * PAGE_SIZE),
            ),
            max_size=30,
        )
    )
    def test_clear_frame_zeroes_whatever_came_before(self, steps):
        # clear_frame skips the write on a frame whose generation is
        # still 0; that is exact only while every mutator bumps it.
        mem = PhysicalMemory(num_frames=8)
        for action, frame, other, length in steps:
            offset = frame * PAGE_SIZE + other
            if action == "write":
                mem.write(offset, b"\x5a" * min(length, mem.size - offset))
            elif action == "fill":
                mem.fill(offset, min(length, mem.size - offset), 0xA5)
            elif action == "write_frame":
                mem.write_frame(frame, b"key" * (length % 1000))
            elif action == "copy_frame":
                mem.copy_frame(other, frame)
            else:
                mem.clear_frame(frame)
                assert mem.frame_is_zero(frame)
            for untouched in range(8):
                if mem.frame_generation(untouched) == 0:
                    assert mem.frame_is_zero(untouched)
        for frame in range(8):
            mem.clear_frame(frame)
        assert mem.read(0, mem.size) == bytes(mem.size)

    def test_copy_frame(self, mem):
        mem.write_frame(1, b"the quick brown fox")
        mem.copy_frame(1, 7)
        assert mem.read_frame(7) == mem.read_frame(1)

    def test_frame_is_zero(self, mem):
        assert mem.frame_is_zero(0)
        mem.write(5, b"\x01")
        assert not mem.frame_is_zero(0)


class TestSearch:
    def test_find_all_basic(self, mem):
        mem.write(123, b"NEEDLE")
        mem.write(5000, b"NEEDLE")
        assert mem.find_all(b"NEEDLE") == [123, 5000]

    def test_find_all_none(self, mem):
        assert mem.find_all(b"NEEDLE") == []

    def test_find_all_overlapping(self, mem):
        mem.write(0, b"aaaa")
        # 'aa' occurs at 0,1,2 within the written region.
        hits = [h for h in mem.find_all(b"aa") if h < 4]
        assert hits == [0, 1, 2]

    def test_find_all_respects_bounds(self, mem):
        mem.write(10, b"KEY")
        assert mem.find_all(b"KEY", start=11) == []
        assert mem.find_all(b"KEY", end=12) == []
        assert mem.find_all(b"KEY", start=0, end=13) == [10]

    def test_find_all_across_frames(self, mem):
        mem.write(PAGE_SIZE - 2, b"SPAN")
        assert mem.find_all(b"SPAN") == [PAGE_SIZE - 2]

    def test_empty_pattern_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.find_all(b"")

    def test_snapshot_is_immutable_copy(self, mem):
        mem.write(0, b"before")
        snap = mem.snapshot()
        mem.write(0, b"after!")
        assert snap[:6] == b"before"

    def test_raw_view_readonly(self, mem):
        view = mem.raw_view()
        assert view.readonly
        assert len(view) == mem.size

    def test_iter_frames(self, mem):
        mem.write_frame(3, b"three")
        frames = dict(mem.iter_frames())
        assert len(frames) == 16
        assert frames[3].startswith(b"three")
