"""The shared RPO solver against the FIFO loop it replaced.

KeyFlow's taint pass, its scrub check and KeyRecon's fragment pass
used to solve each function with a FIFO worklist in node-index order.
They now share :func:`repro.analysis.ir.solver.solve_forward`, a
reverse-postorder priority worklist, and fixpoint runs no longer
collect.  Both changes must be invisible in every result:

* per function, the settled IN states and the accumulated return,
  field-write and parameter contributions equal the FIFO reference
  kept below — on generated functions and on every function of
  ``src/repro``;
* per function, the final ``results`` equal those of a reference run
  in which every fixpoint run collects, as the engines used to.
"""

import ast
import tempfile
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ir.cfg import build_cfg
from repro.analysis.ir.project import Project
from repro.analysis.ir.solver import solve_forward
from repro.analysis.keyflow.config import DEFAULT_CONFIG as FLOW_CONFIG
from repro.analysis.keyflow.dataflow import TaintAnalysis, _FunctionTaint, _union
from repro.analysis.keyflow.engine import REPRO_ROOT
from repro.analysis.keyflow.scrub import _join_edge, _ScrubCheck
from repro.analysis.keyrecon.config import DEFAULT_CONFIG as RECON_CONFIG
from repro.analysis.keyrecon.dataflow import ReconAnalysis, _FunctionRecon, _join


def fifo_reference(cfg, entry_state, transfer, join, copy):
    """The engines' former loop: FIFO worklist seeded in index order,
    predecessors rebuilt from the successor lists.  ``join`` is the
    engine's former inline join, not the one handed to the solver."""
    n = len(cfg.nodes)
    preds = [[] for _ in range(n)]
    for node in cfg.nodes:
        for dst, kind in node.succs:
            preds[dst].append((node.index, kind))
    outs = [None] * n
    ins = [None] * n
    worklist = deque(range(n))
    pending = set(worklist)
    while worklist:
        index = worklist.popleft()
        pending.discard(index)
        in_state = copy(entry_state) if index == cfg.entry else copy()
        for pred, kind in preds[index]:
            if outs[pred] is not None:
                join(in_state, outs[pred], kind)
        ins[index] = in_state
        out = transfer(cfg.nodes[index], copy(in_state))
        if outs[index] is None or out != outs[index]:
            outs[index] = out
            for dst, _ in cfg.nodes[index].succs:
                if dst not in pending:
                    pending.add(dst)
                    worklist.append(dst)
    return ins


# ----------------------------------------------------------------------
# per-engine adapters: a fresh run object, its entry state, its facts
# ----------------------------------------------------------------------
def _flow_case(analysis, name):
    def make():
        return _FunctionTaint(
            info=analysis.project.functions[name],
            cfg=analysis._cfg_for(name),
            config=analysis.config,
            project=analysis.project,
            summaries=analysis.summaries,
            tainted_fields=analysis.tainted_fields,
        )

    entry = set(analysis.summaries[name].tainted_params)

    def facts(run):
        result = run.result
        return (result.returns_tainted, result.field_writes, result.param_contribs)

    return make, entry, (_union, set.update), set, facts


def _recon_case(analysis, name):
    def make():
        return _FunctionRecon(
            info=analysis.project.functions[name],
            cfg=analysis._cfg_for(name),
            config=analysis.config,
            project=analysis.project,
            summaries=analysis.summaries,
            fragment_fields=analysis.fragment_fields,
            edges_by_call=analysis._edges_by_call,
        )

    entry = {
        param: frozenset(frags)
        for param, frags in analysis.summaries[name].param_fragments.items()
        if frags
    }

    def facts(run):
        result = run.result
        return (result.return_fragments, result.field_writes, result.param_contribs)

    def reference_join(into, other):
        for var, frags in other.items():
            current = into.get(var)
            into[var] = frags if current is None else current | frags

    return make, entry, (_join, reference_join), dict, facts


def assert_solver_matches_fifo(case):
    make, entry, (join, reference_join), copy, facts = case
    rpo_run, fifo_run = make(), make()
    cfg = rpo_run.cfg
    rpo_ins = solve_forward(cfg, entry, rpo_run._transfer, join, copy)
    fifo_ins = fifo_reference(
        cfg, entry, fifo_run._transfer,
        lambda into, out, _kind: reference_join(into, out), copy,
    )
    assert rpo_ins == fifo_ins
    assert facts(rpo_run) == facts(fifo_run)


def assert_scrub_matches_fifo(analysis, name):
    info = analysis.project.functions[name]
    rpo_check, fifo_check = (
        _ScrubCheck(info, analysis._cfg_for(name), FLOW_CONFIG) for _ in range(2)
    )
    rpo_check._find_materializers()
    if not rpo_check.owned:
        return False
    fifo_check._find_materializers()
    cfg = rpo_check.cfg
    def reference_join(into, out, kind):
        into |= out[1] if kind == "exception" else out[0]

    assert solve_forward(
        cfg, set(), rpo_check._transfer, _join_edge, set
    ) == fifo_reference(cfg, set(), fifo_check._transfer, reference_join, set)
    return True


def solved(project):
    flow = TaintAnalysis(project, FLOW_CONFIG)
    flow.run()
    recon = ReconAnalysis(project, RECON_CONFIG)
    recon.run()
    return flow, recon


# ----------------------------------------------------------------------
# generated functions
# ----------------------------------------------------------------------
EXPRS = (
    "a", "b", "key", "0", "(a, b)", "[x for x in b]", "(c := key.d)",
    "pem_decode(a)", "generate_rsa_key(a, 512)", "d2i_privatekey(a)",
    "key.p", "key.q", "self.blob", "b.q_bytes()", "p_bytes(key)",
    "MontgomeryContext(key.p)", "RsaKey(a, b, key)", "read(a)",
    "zeroize(b)", "helper(a, b)", "helper(y=key, x=0)", "pem_encode(*b)",
    "lambda: key", "a if b else key",
)
TARGETS = ("a", "b", "c", "key", "(a, b)", "self.blob", "b[0]", "self.blob[a]")
SIMPLE = (
    "{t} = {e}", "{t} = {e}", "a += {e}", "del {v}", "return {e}",
    "yield {e}", "helper({e}, key)", "mm.write(0, {e})", "bn_clear_free({v})",
    "raise ValueError({e})", "assert {e}", "pass", "print({e}, {e2})",
    "{v} = bn_bin2bn(a, {e})",
)
VARS = ("a", "b", "c", "key")


@st.composite
def statements(draw, depth, in_loop):
    lines = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        e, e2 = draw(st.sampled_from(EXPRS)), draw(st.sampled_from(EXPRS))
        v, t = draw(st.sampled_from(VARS)), draw(st.sampled_from(TARGETS))
        kinds = ["simple"] * 3
        if in_loop:
            kinds += ["break", "continue"]
        if depth > 0:
            kinds += ["if", "while", "for", "try", "with"]
        kind = draw(st.sampled_from(kinds))
        if kind == "simple":
            lines.append(draw(st.sampled_from(SIMPLE)).format(t=t, e=e, e2=e2, v=v))
            continue
        if kind in ("break", "continue"):
            lines.append(f"if {v}:")
            lines.append(f"    {kind}")
            continue

        def block(loop=in_loop):
            body = draw(statements(depth - 1, loop))
            return ["    " + line for line in body]

        if kind == "if":
            lines += [f"if {e}:"] + block()
            if draw(st.booleans()):
                lines += ["else:"] + block()
        elif kind == "while":
            lines += [f"while {e}:"] + block(True)
            if draw(st.booleans()):
                lines += ["else:"] + block()
        elif kind == "for":
            lines += [f"for {v} in {e}:"] + block(True)
        elif kind == "with":
            lines += [f"with {e} as {v}:"] + block()
        else:
            lines += ["try:"] + block()
            handler, final = draw(st.booleans()), draw(st.booleans())
            if handler or not final:
                lines += [f"except ValueError as {v}:"] + block()
            if handler and draw(st.booleans()):
                lines += ["else:"] + block()
            if final:
                lines += ["finally:"] + block()
    return lines


@st.composite
def modules(draw):
    body = draw(statements(3, False))
    source = (
        "def helper(x, y):\n"
        "    return x\n\n"
        "def target(self, a, b, key, *rest, **kw):\n"
        + "".join("    " + line + "\n" for line in body)
        + "\n"
        "def caller(mm):\n"
        "    target(None, pem_decode(mm), read(mm), generate_rsa_key(1, 2))\n"
    )
    ast.parse(source)
    return source


class TestGeneratedFunctions:
    @settings(max_examples=120, deadline=None)
    @given(source=modules())
    def test_rpo_solver_matches_fifo_reference(self, source):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "mod.py").write_text(source, encoding="utf-8")
            project = Project.load([Path(tmp)])
        flow, recon = solved(project)
        for name in project.sorted_names():
            assert_solver_matches_fifo(_flow_case(flow, name))
            assert_solver_matches_fifo(_recon_case(recon, name))
            assert_scrub_matches_fifo(flow, name)


class TestCachedGraph:
    SOURCE = (
        "def f(x):\n"
        "    try:\n"
        "        while x:\n"
        "            if x.p:\n"
        "                break\n"
        "            x = g(x)\n"
        "    except ValueError:\n"
        "        return 1\n"
        "    finally:\n"
        "        h(x)\n"
    )

    def _cfg(self):
        return build_cfg(ast.parse(self.SOURCE).body[0])

    def test_cached_preds_match_a_successor_scan(self):
        cfg = self._cfg()
        for index in range(len(cfg.nodes)):
            expected = [
                (node.index, kind)
                for node in cfg.nodes
                for dst, kind in node.succs
                if dst == index
            ]
            assert cfg.preds_of(index) == expected
            assert cfg.preds()[index] == expected

    def test_rpo_is_a_topological_order_of_forward_edges(self):
        cfg = self._cfg()
        order, rank = cfg.rpo()
        assert sorted(order) == list(range(len(cfg.nodes)))
        assert order[0] == cfg.entry
        assert all(rank[index] == pos for pos, index in enumerate(order))
        # every edge goes forward in RPO unless it closes the loop
        for node in cfg.nodes:
            for dst, _ in node.succs:
                if rank[dst] <= rank[node.index]:
                    assert isinstance(cfg.nodes[dst].stmt, ast.While)


# ----------------------------------------------------------------------
# the whole source tree
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tree():
    project = Project.load([REPRO_ROOT])
    flow, recon = solved(project)
    return project, flow, recon


class TestWholeTree:
    def test_every_function_matches_fifo_reference(self, tree):
        project, flow, recon = tree
        scrubbed = 0
        for name in project.sorted_names():
            assert_solver_matches_fifo(_flow_case(flow, name))
            assert_solver_matches_fifo(_recon_case(recon, name))
            scrubbed += assert_scrub_matches_fifo(flow, name)
        assert scrubbed > 0

    @pytest.mark.parametrize("engine", [TaintAnalysis, ReconAnalysis])
    def test_results_match_collect_every_run_reference(self, tree, engine):
        project, flow, recon = tree
        ours = flow if engine is TaintAnalysis else recon

        class CollectEveryRun(engine):
            def _analyze_one(self, name, collect=False):
                return super()._analyze_one(name, collect=True)

        config = FLOW_CONFIG if engine is TaintAnalysis else RECON_CONFIG
        reference = CollectEveryRun(project, config)
        reference.run(initial_order=project.sorted_names())
        assert ours.summaries == reference.summaries
        assert ours.results == reference.results
