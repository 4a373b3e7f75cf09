"""Span and counter tracing wrapped around the program's public functions.

Nothing in ``src/`` knows about this module.  :class:`Tracer` replaces
a function or method with a wrapper that records one span per call
(name, item id, parent span, start, end) or, for functions called
hundreds of thousands of times, only a call count.  Spans stay in
memory until :meth:`Tracer.dump` writes them out at the end of a pass.

Self time is a span's duration minus the time its child spans cover;
the wall time no span covers is reported as ``other.s``.

KeySan attributes every tainted byte to the first stack frame outside
``repro.mem``/``repro.sanitizer`` (``KeySan._call_site``).  A wrapper
frame must not become that frame, or tracing would change the
program's output, so every wrapper is compiled with the wrapped
function's ``__module__`` as its globals' ``__name__``: the stack walk
treats it exactly like the function it wraps.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

_SPAN_SOURCE = """
def traced(*args, **kwargs):
    frame = _enter(_name)
    try:
        return _fn(*args, **kwargs)
    finally:
        _exit(frame)
"""

_COUNT_SOURCE = """
def counted(*args, **kwargs):
    _counts[_name] += 1
    return _fn(*args, **kwargs)
"""

#: Metric name -> (module, attribute path) of the function timed as a span.
SPAN_TARGETS: Dict[str, Tuple[str, str]] = {
    "crypto.keycorpus.key_material": ("repro.crypto.keycorpus", "key_material"),
    "kernel.boot": ("repro.kernel.kernel", "Kernel.__init__"),
    "kernel.age_memory": ("repro.kernel.kernel", "Kernel.age_memory"),
    "apps.sshd.set_concurrency": ("repro.apps.sshd", "OpenSSHServer.set_concurrency"),
    "apps.sshd.run_connection_cycle": (
        "repro.apps.sshd", "OpenSSHServer.run_connection_cycle"),
    "attacks.ntty_dump.run": ("repro.attacks.ntty_dump", "NttyDumpAttack.run"),
    "attacks.scanner.scan": ("repro.attacks.scanner", "MemoryScanner.scan"),
    "sanitizer.keysan.on_write": ("repro.sanitizer.keysan", "KeySan.on_write"),
    "sanitizer.keysan.census": ("repro.sanitizer.keysan", "KeySan.census_by_prefix"),
    "faults.supervisor.audit_corpse": ("repro.faults.supervisor", "Supervisor.audit_corpse"),
    "faults.supervisor.restart_service": (
        "repro.faults.supervisor", "Supervisor.restart_service"),
    "analysis.ir.load": ("repro.analysis.ir.project", "Project.load"),
    "analysis.lint": ("repro.analysis.lint", "lint_file"),
    "analysis.keyflow": ("repro.analysis.keyflow", "analyze"),
    "analysis.keystate": ("repro.analysis.keystate", "analyze"),
    "analysis.keycount": ("repro.analysis.keycount", "analyze"),
    "analysis.keyrecon": ("repro.analysis.keyrecon", "analyze"),
    "analysis.keyspan": ("repro.analysis.keyspan", "analyze"),
}

#: Metric name -> target whose calls are only counted: a span per call
#: would cost more than the call (``free_pages`` runs ~270k times a
#: sweep) and the time stays in the caller's self time.
COUNT_TARGETS: Dict[str, Tuple[str, str]] = {
    "mem.buddy.free_pages": ("repro.mem.buddy", "BuddyAllocator.free_pages"),
    "sanitizer.keysan.on_frames_freed": (
        "repro.sanitizer.keysan", "KeySan.on_frames_freed"),
}


class Tracer:
    """Spans, call counts and garbage-collector pauses for one pass."""

    def __init__(self) -> None:
        self.item: Optional[str] = None
        #: Finished spans: (span id, parent id, name, item, start ns, end ns).
        self.spans: List[Tuple[int, int, str, Optional[str], int, int]] = []
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {name: 0 for name in COUNT_TARGETS}
        self.gc_pause_ns = 0
        self.gc_collections = 0
        self._gc_started: Optional[int] = None
        # Open spans: [span id, name, start ns, ns covered by children].
        self._stack: List[list] = []
        self._next_id = 1
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, name, start, child_ns = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        self.calls[name] = self.calls.get(name, 0) + 1
        self.spans.append(
            (span_id, parent[0] if parent else 0, name, self.item, start, end)
        )

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        elif self._gc_started is not None:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    # ------------------------------------------------------------------
    # installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        for name, target in SPAN_TARGETS.items():
            self._wrap(target, _SPAN_SOURCE, "traced",
                       {"_name": name, "_enter": self._enter, "_exit": self._exit})
        for name, target in COUNT_TARGETS.items():
            self._wrap(target, _COUNT_SOURCE, "counted",
                       {"_name": name, "_counts": self.counts})
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, target: Tuple[str, str], source: str, func_name: str,
              bindings: dict) -> None:
        module_name, path = target
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        function = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        namespace = {"__name__": function.__module__, "_fn": function, **bindings}
        exec(source, namespace)
        wrapper = namespace[func_name]
        wrapper.__wrapped__ = function
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(wrapper)
        if outer:
            self._replace(owner, attr, wrapper)
            return
        # A module-level function is also bound by name in every module
        # that did ``from module import name``: replace each binding.
        for module in list(sys.modules.values()):
            namespace_dict = getattr(module, "__dict__", None)
            if not namespace_dict:
                continue
            for key, value in list(namespace_dict.items()):
                if value is raw:
                    self._replace(module, key, wrapper)

    def _replace(self, owner: object, attr: str, wrapper: object) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def metrics(self, wall_ns: int) -> Dict[str, float]:
        """Per-layer self time (``.s``) and call count (``.calls``) for
        every target, the call counts, GC pauses, and ``other.s``."""
        out: Dict[str, float] = {}
        for name in SPAN_TARGETS:
            out[f"{name}.s"] = self.self_ns.get(name, 0) / 1e9
            out[f"{name}.calls"] = self.calls.get(name, 0)
        for name, count in self.counts.items():
            out[f"{name}.calls"] = count
        out["python.gc.pause_s"] = self.gc_pause_ns / 1e9
        out["python.gc.collections"] = self.gc_collections
        out["other.s"] = (wall_ns - sum(self.self_ns.values())) / 1e9
        return out

    def dump(self, path: str) -> None:
        """Write the spans out (one JSON list per span)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["id", "parent", "name", "item", "start_ns", "end_ns"],
                 "spans": self.spans},
                handle,
                separators=(",", ":"),
            )
