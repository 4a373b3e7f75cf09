"""Overlapping byte-pattern search shared by every memory consumer.

Both the dump analyser (:mod:`repro.attacks.keysearch`) and simulated
RAM itself (:meth:`repro.mem.physmem.PhysicalMemory.find_all`) need
"every offset where ``needle`` occurs, overlapping matches included" —
the behaviour of the paper's kernel module, whose linear scan re-tests
at every byte offset.  This module is the single implementation; the
incremental scanner and the n_tty window search are further consumers
and search bounded windows through the same code path.

Two properties make a 256 MB configuration scan in seconds, matching
the paper's timing:

* **No copies.**  ``bytes``/``bytearray`` haystacks search in place
  through C-speed ``find``; *partial* ``memoryview`` windows — which
  have no ``find`` and used to be materialised with ``bytes(view)``,
  copying the whole window per probe — now search zero-copy through a
  compiled literal pattern (:mod:`re` operates directly on any
  contiguous buffer).  Only a non-contiguous view (which cannot be
  searched through the buffer protocol at all) still falls back to a
  copy.

* **Sparse scanning.**  Most of a machine's RAM is zero.
  :func:`nonzero_intervals` locates the all-zero stretches with
  galloping C-speed compares, and :func:`find_all_sparse` then probes
  each pattern only inside windows that can actually contain a match —
  one cheap pass shared by every pattern instead of one full
  ``find`` pass per pattern.
"""

from __future__ import annotations

import re
from typing import List, Sequence, Tuple, Union

Buffer = Union[bytes, bytearray, memoryview]

#: Zero-run granularity for :func:`nonzero_intervals`: gaps shorter
#: than this stay inside a "nonzero" interval (conservative, cheap).
ZERO_GAP = 4096

#: Largest block the zero-run galloping compare grows to (bytes).
_MAX_GALLOP = 1 << 20

#: All-zero reference blocks by size, for the galloping compares.
#: ``bytes.__eq__`` is memcmp; ``memoryview.__eq__`` unpacks per item
#: and runs ~8x slower, so the compares below always go through bytes.
_ZERO_CACHE: dict = {}


def _zero_block(n: int) -> bytes:
    blk = _ZERO_CACHE.get(n)
    if blk is None:
        if len(_ZERO_CACHE) > 64:
            _ZERO_CACHE.clear()
        blk = _ZERO_CACHE[n] = bytes(n)
    return blk


def _find_in_view(view: memoryview, needle: bytes, start: int, end: int) -> List[int]:
    """Zero-copy overlapping search inside a contiguous memoryview.

    ``memoryview`` has no ``find``; a compiled literal pattern searches
    any object exposing a contiguous byte buffer without copying it.
    """
    pattern = re.compile(re.escape(needle))
    hits: List[int] = []
    pos = start
    while True:
        match = pattern.search(view, pos, end)
        if match is None:
            return hits
        hits.append(match.start())
        pos = match.start() + 1


def _searchable(haystack: Buffer):
    """Return ``(buffer, via_regex)`` for ``haystack``.

    ``bytes``/``bytearray`` (and whole-buffer views over them) search
    through their own C-speed ``find``; any other *contiguous* view
    searches zero-copy through :func:`_find_in_view`.  Only a
    non-contiguous view — unsearchable through the buffer protocol —
    is materialised.
    """
    if isinstance(haystack, memoryview):
        base = haystack.obj
        if (
            haystack.contiguous
            and haystack.nbytes == len(base)
            and isinstance(base, (bytes, bytearray))
        ):
            return base, False
        if haystack.contiguous:
            return haystack, True
        return bytes(haystack), False
    return haystack, False


def find_all_occurrences(
    haystack: Buffer,
    needle: bytes,
    start: int = 0,
    end: int | None = None,
) -> List[int]:
    """Every (possibly overlapping) offset of ``needle`` in ``haystack``.

    ``start``/``end`` bound the search the way ``bytes.find`` does: a
    reported match lies entirely inside ``[start, end)``.
    """
    if not needle:
        raise ValueError("empty search pattern")
    data, via_regex = _searchable(haystack)
    if end is None:
        end = len(data)
    if via_regex:
        # re's endpos semantics match find's end bound: the match must
        # lie entirely inside [pos, endpos).
        return _find_in_view(data, needle, start, end)
    hits: List[int] = []
    pos = data.find(needle, start, end)
    while pos != -1:
        hits.append(pos)
        pos = data.find(needle, pos + 1, end)
    return hits


# ----------------------------------------------------------------------
# sparse (zero-skipping) scanning
# ----------------------------------------------------------------------
def _zero_run_end(data: Buffer, pos: int, end: int, is_view: bool) -> int:
    """First offset ``>= pos`` whose byte is nonzero (``end`` if none),
    assuming nothing: verified with galloping C-speed block compares.

    Each probe memcmps a cached zero block against the buffer in place
    (``startswith``; a view is copied to bytes first).  A nonzero block of
    at most ``ZERO_GAP`` bytes gives its first nonzero byte by its lowest set bit.
    """
    step = ZERO_GAP
    while pos < end:
        n = min(step, end - pos)
        if is_view:  # memoryview has no startswith and compares ~8x slower
            zero = bytes(data[pos : pos + n]) == _zero_block(n)
        else:  # compares in place, no slice copy
            zero = data.startswith(_zero_block(n), pos)
        if zero:
            pos += n
            if step < _MAX_GALLOP:
                step <<= 1
            continue
        if n <= ZERO_GAP:
            value = int.from_bytes(data[pos : pos + n], "little")
            return pos + ((value & -value).bit_length() - 1) // 8
        step = n // 2
    return end


def first_nonzero(haystack: Buffer, start: int = 0, end: int | None = None) -> int:
    """First offset ``>= start`` holding a nonzero byte (``end`` if none).

    The zero-skipping primitive behind :func:`nonzero_intervals`, also
    used by the taint shadow map to gallop over clean shadow bytes.
    """
    data, via_regex = _searchable(haystack)
    if end is None:
        end = len(data)
    return _zero_run_end(data, start, end, via_regex)


def nonzero_intervals(
    haystack: Buffer, start: int = 0, end: int | None = None, gap: int = ZERO_GAP
) -> List[Tuple[int, int]]:
    """Maximal ``[lo, hi)`` intervals of ``haystack`` containing data.

    Every byte outside the returned intervals is verified zero; zero
    runs shorter than ``gap`` are conservatively kept *inside* an
    interval (detecting them would cost more than scanning them).  The
    complement is found with ``find`` of a ``gap``-byte zero block plus
    galloping block compares — a fraction of a full search pass, shared
    by every pattern that later probes the intervals.
    """
    if gap <= 0:
        raise ValueError("gap must be positive")
    gap = min(gap, _MAX_GALLOP)
    data, via_regex = _searchable(haystack)
    if end is None:
        end = len(data)
    zero_probe = _zero_block(gap)
    zero_pattern = re.compile(re.escape(zero_probe)) if via_regex else None
    intervals: List[Tuple[int, int]] = []
    pos = start
    while pos < end:
        if zero_pattern is not None:
            match = zero_pattern.search(data, pos, end)
            z = match.start() if match else -1
        else:
            z = data.find(zero_probe, pos, end)
        if z == -1:
            intervals.append((pos, end))
            return intervals
        if z > pos:
            intervals.append((pos, z))
        pos = _zero_run_end(data, z + gap, end, via_regex)
    return intervals


def find_all_sparse(
    haystack: Buffer,
    needle: bytes,
    intervals: Sequence[Tuple[int, int]],
    end: int | None = None,
) -> List[int]:
    """:func:`find_all_occurrences`, probing only around ``intervals``.

    ``intervals`` must cover every nonzero byte of ``haystack`` (the
    output of :func:`nonzero_intervals`); all bytes outside them are
    taken to be zero.  The result is byte-identical to a full
    :func:`find_all_occurrences` pass: a match must place some nonzero
    needle byte on a nonzero haystack byte, so candidate windows are
    the intervals shifted by the needle's first nonzero index and
    widened by the needle length.  An all-zero needle (which only ever
    matches inside the zero gaps) falls back to the full pass.
    """
    if not needle:
        raise ValueError("empty search pattern")
    if end is None:
        end = len(haystack)
    j = next((k for k, b in enumerate(needle) if b), None)
    if j is None:
        return find_all_occurrences(haystack, needle, 0, end)
    length = len(needle)
    # needle[j] != 0 must land inside an interval: occurrence offsets
    # o satisfy o + j in [lo, hi)  =>  o in [lo - j, hi - j), and the
    # match must fit, so the find window is [lo - j, hi - j - 1 + L).
    windows: List[Tuple[int, int]] = []
    for lo, hi in intervals:
        w_lo = max(0, lo - j)
        w_hi = min(end, hi - j - 1 + length)
        if w_hi <= w_lo:
            continue
        if windows and w_lo <= windows[-1][1]:
            windows[-1] = (windows[-1][0], max(windows[-1][1], w_hi))
        else:
            windows.append((w_lo, w_hi))
    hits: List[int] = []
    for w_lo, w_hi in windows:
        hits.extend(find_all_occurrences(haystack, needle, w_lo, w_hi))
    return hits
