"""Forward interprocedural taint propagation.

Per function, a forward may-analysis over its CFG with state = the set
of tainted local names; across functions, three monotone global facts
drive a chaotic-iteration fixpoint:

* ``Summary.tainted_params`` — parameters that receive secret data at
  some call site (grows only);
* ``Summary.returns_tainted`` — the function may return secret data
  (flips only ``False -> True``);
* ``tainted_fields`` — a field-based heap abstraction: attribute names
  that are *ever* assigned a tainted value anywhere in the program.
  Any load of such an attribute is tainted.  This is what carries
  taint through data at rest — the PEM bytes stored in
  ``SimFile.data`` resurface in ``PageCache._load_page`` without any
  call-graph path connecting the two.

Because all global facts grow monotonically and per-function transfer
is monotone in them, chaotic iteration converges to the unique least
fixpoint regardless of worklist order; findings are then collected in
one deterministic final pass.  That is the basis of the byte-identical
output guarantee tested by ``test_determinism.py``.  Fixpoint runs
only solve (``ir.solver``) and grow the global facts; that final pass
is the only one that collects.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.ir.cfg import CFG
from repro.analysis.ir.project import FunctionInfo, Project, call_terminal
from repro.analysis.ir.solver import SummaryFixpoint, solve_forward
from repro.analysis.keyflow.config import KeyFlowConfig


@dataclass
class Summary:
    """Monotone interprocedural facts about one function."""

    tainted_params: Set[str] = field(default_factory=set)
    returns_tainted: bool = False


@dataclass(frozen=True)
class TaintEvent:
    """One source use or sink hit inside a function."""

    kind: str  # "source" | "sink"
    name: str  # terminal call name
    category: str
    line: int


@dataclass
class FunctionResult:
    """Output of analyzing one function (final collection pass)."""

    returns_tainted: bool = False
    field_writes: Set[str] = field(default_factory=set)
    param_contribs: Dict[str, Set[str]] = field(default_factory=dict)
    events: List[TaintEvent] = field(default_factory=list)
    #: Secret data is live somewhere in this function.
    touches_secret: bool = False


class _FunctionTaint:
    """One intraprocedural run of the taint transfer over a CFG."""

    def __init__(
        self,
        info: FunctionInfo,
        cfg: CFG,
        config: KeyFlowConfig,
        project: Project,
        summaries: Dict[str, Summary],
        tainted_fields: Set[str],
    ) -> None:
        self.info = info
        self.cfg = cfg
        self.config = config
        self.project = project
        self.summaries = summaries
        self.tainted_fields = tainted_fields
        self.result = FunctionResult()
        self.collecting = False

    # ------------------------------------------------------------------
    def run(self, collect: bool) -> FunctionResult:
        """Solve; with ``collect``, then record events over the IN states."""
        entry_state = set(self.summaries[self.info.full_name].tainted_params)
        ins = solve_forward(self.cfg, entry_state, self._transfer, _union, set)
        if collect:
            self.collecting = True
            for node in self.cfg.nodes:
                self._transfer(node, ins[node.index])
            if entry_state:
                self.result.touches_secret = True
        return self.result

    # ------------------------------------------------------------------
    # statement transfer
    # ------------------------------------------------------------------
    def _transfer(self, node, state: Set[str]) -> Set[str]:
        stmt = node.stmt
        if node.kind in ("entry", "exit", "raise-exit", "join", "dispatch"):
            return state

        if isinstance(stmt, ast.ExceptHandler):
            if stmt.name:
                state.discard(stmt.name)
            return state
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return state

        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._eval(stmt.iter, state), state)
            return state
        if isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test, state)
            return state
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tainted = self._eval(item.context_expr, state)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, tainted, state)
            return state

        if isinstance(stmt, ast.Assign):
            tainted = self._eval(stmt.value, state)
            for target in stmt.targets:
                self._bind(target, tainted, state)
            return state
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value, state), state)
            return state
        if isinstance(stmt, ast.AugAssign):
            tainted = self._eval(stmt.value, state)
            if isinstance(stmt.target, ast.Name):
                tainted = tainted or stmt.target.id in state
            self._bind(stmt.target, tainted, state)
            return state

        if isinstance(stmt, ast.Return):
            if stmt.value is not None and self._eval(stmt.value, state):
                self.result.returns_tainted = True
            return state
        if isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, (ast.Yield, ast.YieldFrom)):
                inner = getattr(value, "value", None)
                if inner is not None and self._eval(inner, state):
                    self.result.returns_tainted = True
            else:
                self._eval(value, state)
            return state
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, state)
            return state
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    state.discard(target.id)
            return state
        if isinstance(stmt, ast.Assert):
            self._eval(stmt.test, state)
            return state

        # anything else: evaluate child expressions for their effects
        if stmt is not None:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child, state)
        return state

    # ------------------------------------------------------------------
    def _bind(self, target: ast.expr, tainted: bool, state: Set[str]) -> None:
        if isinstance(target, ast.Name):
            if tainted:
                state.add(target.id)
            else:
                state.discard(target.id)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, tainted, state)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, tainted, state)
        elif isinstance(target, ast.Attribute):
            self._eval(target.value, state)
            if tainted:
                self.result.field_writes.add(target.attr)
                if isinstance(target.value, ast.Name):
                    state.add(target.value.id)  # the object now carries secret
        elif isinstance(target, ast.Subscript):
            self._eval(target.value, state)
            if tainted:
                if isinstance(target.value, ast.Name):
                    state.add(target.value.id)
                elif isinstance(target.value, ast.Attribute):
                    # self.cache[k] = secret taints the field
                    self.result.field_writes.add(target.value.attr)

    # ------------------------------------------------------------------
    # expression taint
    # ------------------------------------------------------------------
    def _eval(self, expr: Optional[ast.expr], state: Set[str]) -> bool:
        tainted = self._eval_raw(expr, state)
        if tainted and self.collecting:
            self.result.touches_secret = True
        return tainted

    def _eval_raw(self, expr: Optional[ast.expr], state: Set[str]) -> bool:
        if expr is None:
            return False
        if isinstance(expr, ast.Name):
            return expr.id in state
        if isinstance(expr, ast.Constant):
            return False
        if isinstance(expr, ast.Attribute):
            base = self._eval(expr.value, state)
            return (
                base
                or expr.attr in self.config.source_attrs
                or expr.attr in self.tainted_fields
            )
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state)
        if isinstance(expr, ast.Lambda):
            # the lambda body shares this scope's names
            return self._eval(expr.body, state)
        if isinstance(expr, ast.NamedExpr):
            value = self._eval(expr.value, state)
            if isinstance(expr.target, ast.Name):
                self._bind(expr.target, value, state)
            return value
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            tainted = False
            for gen in expr.generators:
                if self._eval(gen.iter, state):
                    tainted = True
                    self._bind(gen.target, True, state)
                for cond in gen.ifs:
                    self._eval(cond, state)
            if isinstance(expr, ast.DictComp):
                if self._eval(expr.key, state):
                    tainted = True
                if self._eval(expr.value, state):
                    tainted = True
            else:
                if self._eval(expr.elt, state):
                    tainted = True
            return tainted
        # generic: tainted if any child expression is (no short-circuit:
        # every child must be visited for sink/source collection)
        tainted = False
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr) and self._eval(child, state):
                tainted = True
        return tainted

    def _eval_call(self, node: ast.Call, state: Set[str]) -> bool:
        terminal = call_terminal(node)
        receiver = (
            self._eval(node.func, state)
            if isinstance(node.func, ast.Attribute)
            else False
        )

        positional: List[bool] = []
        spread_tainted = False
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                if self._eval(arg.value, state):
                    spread_tainted = True
            else:
                positional.append(self._eval(arg, state))
        keywords: List[Tuple[Optional[str], bool]] = []
        for kw in node.keywords:
            kw_tainted = self._eval(kw.value, state)
            if kw.arg is None:
                spread_tainted = spread_tainted or kw_tainted
            else:
                keywords.append((kw.arg, kw_tainted))
        any_arg = spread_tainted or any(positional) or any(t for _, t in keywords)

        targets = self.info.call_targets.get(id(node), ())
        self._record_contribs(targets, positional, keywords, spread_tainted)

        if terminal is not None and self.collecting:
            if terminal in self.config.source_calls:
                self.result.events.append(
                    TaintEvent(
                        kind="source",
                        name=terminal,
                        category=self.config.source_calls[terminal],
                        line=node.lineno,
                    )
                )
            if terminal in self.config.sink_calls and (any_arg or receiver):
                self.result.events.append(
                    TaintEvent(
                        kind="sink",
                        name=terminal,
                        category=self.config.sink_calls[terminal],
                        line=node.lineno,
                    )
                )

        if terminal is not None and terminal in self.config.source_calls:
            return True
        if terminal is not None and terminal in self.config.scrubbers:
            return False
        tainted = receiver
        for target in targets:
            summary = self.summaries.get(target)
            if summary is not None and summary.returns_tainted:
                tainted = True
            if target.endswith(".__init__") and any_arg:
                tainted = True  # the constructed object holds the secret
        if not targets and any_arg:
            tainted = True  # unknown callable: assume it derives its input
        return tainted

    def _record_contribs(
        self,
        targets: Tuple[str, ...],
        positional: List[bool],
        keywords: List[Tuple[Optional[str], bool]],
        spread_tainted: bool,
    ) -> None:
        if not targets:
            return
        for target in targets:
            info = self.project.functions.get(target)
            if info is None:
                continue
            contrib: Set[str] = set()
            if spread_tainted:
                contrib.update(info.params)
            for index, tainted in enumerate(positional):
                if tainted and index < len(info.params):
                    contrib.add(info.params[index])
            for name, tainted in keywords:
                if tainted and name in info.params:
                    contrib.add(name)
            if contrib:
                self.result.param_contribs.setdefault(target, set()).update(contrib)


def _union(into: Set[str], other: Set[str], _kind: str) -> None:
    into |= other


class TaintAnalysis(SummaryFixpoint):
    """Whole-program fixpoint over all function summaries."""

    def __init__(self, project: Project, config: KeyFlowConfig) -> None:
        super().__init__(project)
        self.config = config
        self.summaries: Dict[str, Summary] = {
            name: Summary() for name in project.functions
        }
        self.tainted_fields: Set[str] = set()

    def _analyze_one(self, name: str, collect: bool = False) -> FunctionResult:
        return _FunctionTaint(
            info=self.project.functions[name],
            cfg=self._cfg_for(name),
            config=self.config,
            project=self.project,
            summaries=self.summaries,
            tainted_fields=self.tainted_fields,
        ).run(collect)

    def _absorb(self, name: str, result: FunctionResult) -> Iterator[str]:
        if result.returns_tainted and not self.summaries[name].returns_tainted:
            self.summaries[name].returns_tainted = True
            yield from sorted(self.project.callers_of(name))
        for attr in sorted(result.field_writes - self.tainted_fields):
            self.tainted_fields.add(attr)
            yield from sorted(self.project.readers_of(attr))
        for callee in sorted(result.param_contribs):
            fresh = result.param_contribs[callee] - self.summaries[callee].tainted_params
            if fresh:
                self.summaries[callee].tainted_params |= fresh
                yield callee

    # ------------------------------------------------------------------
    def leak_set(self) -> List[str]:
        """Sorted full names of functions where secret data is live —
        the static superset checked against KeySan's dynamic sites."""
        return sorted(
            name
            for name, result in self.results.items()
            if result.touches_secret or result.events
        )
