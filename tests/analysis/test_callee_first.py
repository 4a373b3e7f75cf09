"""The callee-first worklist seed of KeyFlow and KeyRecon.

``Project.callee_first_names`` is a DFS postorder over the resolved
call graph, rooted at each sorted name in turn.  It must be a
permutation of the project's functions that file discovery cannot
change, it must put callees first where the graph has no cycle, and,
since it is only a seed, it must never cost more fixpoint runs than
the sorted seed it replaced.
"""

import random

import pytest

from repro.analysis.ir.project import Project, discover_files
from repro.analysis.keyflow.config import DEFAULT_CONFIG as FLOW_CONFIG
from repro.analysis.keyflow.dataflow import TaintAnalysis
from repro.analysis.keyflow.engine import REPRO_ROOT
from repro.analysis.keyrecon.config import DEFAULT_CONFIG as RECON_CONFIG
from repro.analysis.keyrecon.dataflow import ReconAnalysis

ACYCLIC = {
    "a.py": (
        "from c import leaf\n"
        "def top(x):\n"
        "    return mid(x) + leaf(x)\n"
        "def mid(x):\n"
        "    return Box(x).get()\n"
    ),
    "b.py": (
        "class Box:\n"
        "    def __init__(self, x):\n"
        "        self.x = leaf(x)\n"
        "    def get(self):\n"
        "        return self.x\n"
    ),
    "c.py": (
        "def leaf(x):\n"
        "    return x\n"
        "def alone():\n"
        "    pass\n"
    ),
}


@pytest.fixture
def acyclic(tmp_path):
    for name, source in ACYCLIC.items():
        (tmp_path / name).write_text(source, encoding="utf-8")
    return tmp_path


@pytest.fixture(scope="module")
def tree():
    return Project.load([REPRO_ROOT])


class TestOrder:
    def test_permutation_of_functions(self, tree):
        order = tree.callee_first_names()
        assert len(order) == len(set(order))
        assert sorted(order) == tree.sorted_names()

    def test_independent_of_discovery_order(self, tree):
        pairs = discover_files([REPRO_ROOT])
        random.Random(7).shuffle(pairs)
        shuffled = Project.load([REPRO_ROOT], files=pairs)
        assert shuffled.callee_first_names() == tree.callee_first_names()
        reversed_ = Project.load([REPRO_ROOT], files=list(reversed(pairs)))
        assert reversed_.callee_first_names() == tree.callee_first_names()

    def test_callees_precede_callers_when_acyclic(self, acyclic):
        project = Project.load([acyclic])
        order = project.callee_first_names()
        position = {name: index for index, name in enumerate(order)}
        edges = [
            (caller, callee)
            for caller, info in project.functions.items()
            for callees in info.call_targets.values()
            for callee in callees
        ]
        assert ("a.top", "c.leaf") in edges
        assert ("a.mid", "b.Box.__init__") in edges
        for caller, callee in edges:
            assert position[callee] < position[caller], (caller, callee)
        assert order == [
            "c.leaf", "b.Box.__init__", "b.Box.get", "a.mid", "a.top", "c.alone",
        ]

    def test_computed_once(self, acyclic):
        project = Project.load([acyclic])
        first = project.callee_first_names()
        first.clear()  # callers get a copy
        assert project.callee_first_names() == [
            "c.leaf", "b.Box.__init__", "b.Box.get", "a.mid", "a.top", "c.alone",
        ]


class TestFixpointRuns:
    """A non-timing guard: callee-first never needs more fixpoint runs
    than the sorted seed on the real tree."""

    @pytest.mark.parametrize(
        "engine, config",
        [(ReconAnalysis, RECON_CONFIG), (TaintAnalysis, FLOW_CONFIG)],
    )
    def test_default_seed_runs_at_most_sorted(self, tree, engine, config):
        def runs(initial_order):
            calls = []

            class Counting(engine):
                def _analyze_one(self, name, collect=False):
                    calls.append(collect)
                    return super()._analyze_one(name, collect)

            Counting(tree, config).run(initial_order=initial_order)
            return calls.count(False), calls.count(True)

        default_runs, default_final = runs(None)
        sorted_runs, sorted_final = runs(tree.sorted_names())
        assert default_final == sorted_final == len(tree.functions)
        assert default_runs <= sorted_runs
