"""The exposure clock: tick-stamped birth/scrub windows per tag.

KeySan's monotone event clock is KeySpan's dynamic twin: each hook
advances it once, each tainted page's tag population opens a window at
first appearance and closes it when the bytes leave.  These tests pin
the clock's monotonicity and the open/close bookkeeping on a bare
machine, independent of the full workload (the containment suite
drives that end to end).
"""

import random

from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.vm import VmaFlag
from repro.sanitizer import KeySan

SECRET = bytes(random.Random(0xBEEF).randrange(1, 256) for _ in range(64))


def make_machine():
    kernel = Kernel(KernelConfig(memory_mb=2))
    sanitizer = KeySan.attach(kernel)
    sanitizer.register_secret("k", SECRET)
    process = kernel.create_process("victim")
    vma = process.mm.mmap_anon(
        16 * 4096, VmaFlag.READ | VmaFlag.WRITE, name="heap"
    )
    return kernel, sanitizer, process, vma


class TestClock:
    def test_clock_starts_at_zero_and_counts_setup(self):
        kernel = Kernel(KernelConfig(memory_mb=2))
        sanitizer = KeySan.attach(kernel)
        assert sanitizer.clock == 0
        kernel.create_process("victim")
        # Process setup is memory traffic too: the clock counts it.
        assert sanitizer.clock > 0

    def test_every_write_advances_the_clock(self):
        _, sanitizer, process, vma = make_machine()
        previous = sanitizer.clock
        for i in range(5):
            process.mm.write(vma.start + 4096 * i, b"x" * 16)
            assert sanitizer.clock > previous
            previous = sanitizer.clock

    def test_clock_is_monotone_across_mixed_events(self):
        kernel, sanitizer, process, vma = make_machine()
        seen = [sanitizer.clock]
        process.mm.write(vma.start, SECRET)
        seen.append(sanitizer.clock)
        process.mm.write(vma.start, b"\x00" * len(SECRET))
        seen.append(sanitizer.clock)
        kernel.exit_process(process)
        seen.append(sanitizer.clock)
        assert seen == sorted(seen)
        assert seen[-1] > seen[0]


class TestWindows:
    def test_secret_write_opens_a_window(self):
        _, sanitizer, process, vma = make_machine()
        process.mm.write(vma.start, SECRET)
        report = sanitizer.report()
        assert len(report.open_exposures) == 1
        (window,) = report.open_exposures
        assert window.close is None
        assert not window.closed
        assert window.duration(report.clock) == report.clock - window.birth

    def test_zero_overwrite_closes_the_window(self):
        _, sanitizer, process, vma = make_machine()
        process.mm.write(vma.start, SECRET)
        process.mm.write(vma.start, b"\x00" * len(SECRET))
        report = sanitizer.report()
        assert report.open_exposures == []
        (window,) = report.exposure_windows
        assert window.closed
        assert window.birth < window.close
        assert report.worst_closed_exposure() == window.duration()

    def test_plain_process_exit_leaves_the_window_open(self):
        # The paper's core observation: exit without zero-on-free
        # leaves the secret bytes in freed frames — the exposure
        # window survives the process that created it.
        kernel, sanitizer, process, vma = make_machine()
        process.mm.write(vma.start, SECRET)
        kernel.exit_process(process)
        report = sanitizer.report()
        assert len(report.open_exposures) == 1
        assert report.exposure_windows == []

    def test_two_pages_two_windows(self):
        _, sanitizer, process, vma = make_machine()
        process.mm.write(vma.start, SECRET)
        process.mm.write(vma.start + 8 * 4096, SECRET)
        report = sanitizer.report()
        assert len(report.open_exposures) == 2
        assert len({w.page for w in report.open_exposures}) == 2

    def test_two_secrets_on_one_page_close_independently(self):
        _, sanitizer, process, vma = make_machine()
        other = bytes(random.Random(0xCAFE).randrange(1, 256) for _ in range(64))
        sanitizer.register_secret("j", other)
        process.mm.write(vma.start, SECRET)
        process.mm.write(vma.start + 1024, other)
        report = sanitizer.report()
        assert sorted(w.tag for w in report.open_exposures) == ["j", "k"]
        assert len({w.page for w in report.open_exposures}) == 1
        # Overwrite only "k": its window closes, "j"'s stays open.
        process.mm.write(vma.start, b"\x00" * len(SECRET))
        report = sanitizer.report()
        (closed,) = report.exposure_windows
        assert closed.tag == "k" and closed.closed
        (still_open,) = report.open_exposures
        assert still_open.tag == "j" and not still_open.closed
        assert still_open.page == closed.page

    def test_histogram_groups_by_tag(self):
        _, sanitizer, process, vma = make_machine()
        process.mm.write(vma.start, SECRET)
        process.mm.write(vma.start, b"\x00" * len(SECRET))
        process.mm.write(vma.start + 4096, SECRET)
        process.mm.write(vma.start + 4096, b"\x00" * len(SECRET))
        report = sanitizer.report()
        histogram = report.exposure_histogram()
        assert list(histogram) == ["k"]
        assert len(histogram["k"]) == 2
        assert histogram["k"] == sorted(histogram["k"])

    def test_report_render_mentions_the_clock(self):
        _, sanitizer, process, vma = make_machine()
        process.mm.write(vma.start, SECRET)
        report = sanitizer.report()
        text = report.render()
        assert "exposure windows" in text
        assert f"tick {report.clock}" in text
