"""The one fixpoint solver of KeyFlow and KeyRecon.

:func:`solve_forward` solves one function: a forward may-analysis over
its :class:`~repro.analysis.ir.cfg.CFG`, with the state, transfer and
join passed in (KeyFlow's scrub check uses it too).  The worklist is a
priority queue keyed by reverse-postorder rank and seeded with every
node, so a node runs after its forward predecessors and a loop settles
before the code after it reruns.  A changed OUT is joined into each
successor's IN.  For a monotone transfer OUTs only grow, so any
visiting order settles on the same least fixpoint; a FIFO reference in
``tests/analysis/test_solver.py`` checks that.

:class:`SummaryFixpoint` iterates per-function runs over monotone
global facts, then collects every function once in sorted order.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence

from repro.analysis.ir.cfg import CFG, build_cfg
from repro.analysis.ir.project import Project


def solve_forward(cfg: CFG, entry_state, transfer, join, copy) -> List:
    """Return the settled IN state of every node.

    ``transfer(node, state)`` may mutate its copy of ``state`` and
    returns the node's OUT value; when it changes, ``join(into, out,
    edge_kind)`` merges it into each successor's IN in place and the
    successor reruns.  ``copy(state)`` copies; ``copy()`` is bottom.
    """
    nodes = cfg.nodes
    order, rank = cfg.rpo()
    ins = [copy() for _ in nodes]
    ins[cfg.entry] = copy(entry_state)
    outs: List[Optional[object]] = [None] * len(nodes)
    queued = [True] * len(nodes)
    heap = list(range(len(nodes)))  # ranks; ascending is a valid heap
    while heap:
        index = order[heappop(heap)]
        queued[index] = False
        out = transfer(nodes[index], copy(ins[index]))
        if out != outs[index]:
            outs[index] = out
            for dst, kind in nodes[index].succs:
                join(ins[dst], out, kind)
                if not queued[dst]:
                    queued[dst] = True
                    heappush(heap, rank[dst])
    return ins


class SummaryFixpoint:
    """Whole-program chaotic iteration over per-function summaries.

    Subclasses provide ``_analyze_one(name, collect)`` and
    ``_absorb(name, result)``, which grows the global facts from one
    run and yields the functions that must rerun.
    """

    def __init__(self, project: Project) -> None:
        self.project = project
        self._cfgs: Dict[str, CFG] = {}
        self.results: Dict[str, object] = {}

    def _cfg_for(self, name: str) -> CFG:
        if name not in self._cfgs:
            self._cfgs[name] = build_cfg(self.project.functions[name].node)
        return self._cfgs[name]

    def run(self, initial_order: Optional[Sequence[str]] = None) -> None:
        """Iterate to the least fixpoint, then collect final results.

        ``initial_order`` permutes the starting worklist (default:
        callee-first); because the global facts are monotone the
        fixpoint — and therefore every reported result — is identical
        for any order.
        """
        names = (
            list(initial_order)
            if initial_order is not None
            else self.project.callee_first_names()
        )
        worklist = deque(names)
        pending = set(names)
        while worklist:
            name = worklist.popleft()
            pending.discard(name)
            for other in self._absorb(name, self._analyze_one(name)):
                if other in self.project.functions and other not in pending:
                    pending.add(other)
                    worklist.append(other)

        # Deterministic final pass: every function once, sorted, the
        # only pass that collects.
        self.results = {
            name: self._analyze_one(name, collect=True)
            for name in self.project.sorted_names()
        }
