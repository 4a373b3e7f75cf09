"""Forward interprocedural fragment-set propagation.

Structurally this is KeyFlow's taint engine lifted from the boolean
may-taint lattice to the *derivability lattice*: per function, a
forward may-analysis over its CFG with state = a map from local names
to the **fragment set** the value may carry ({p}, {dmp1, mont_p}, …);
across functions, three monotone global facts drive a
chaotic-iteration fixpoint:

* ``Summary.param_fragments`` — fragments each parameter receives at
  some call site (grows only);
* ``Summary.return_fragments`` — fragments the function may return
  (grows only);
* ``fragment_fields`` — the field-based heap: attribute name ->
  fragments ever stored there anywhere in the program.  This is what
  carries the PEM blob through data at rest (``SimFile.data`` ->
  page-cache loads) with its ``{der, pem}`` fragments intact.

Fragments are minted and transformed exclusively by the config's
*derivation edges* (keygen, CRT precompute, Montgomery conversion,
serialization, part projections, raw-memory reads) and fragment
attributes — so ablating one edge family visibly starves everything
derived through it, which is what the containment teeth test checks.

All global facts grow monotonically and the per-function transfer is
monotone in them (projections included: a projection's result is the
union of the ``adds`` of its *satisfied* edges, and satisfaction never
un-happens), so chaotic iteration converges to the unique least
fixpoint regardless of worklist order; results are then collected in
one deterministic final pass — the basis of the byte-identical output
guarantee.  Fixpoint runs only solve (``ir.solver``) and grow the
global facts, seeded callee-first; that final pass is the only one
that collects.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.ir.cfg import CFG
from repro.analysis.ir.project import FunctionInfo, Project, call_terminal
from repro.analysis.ir.solver import SummaryFixpoint, solve_forward
from repro.analysis.keyrecon.config import KeyReconConfig

EMPTY: FrozenSet[str] = frozenset()

#: One abstract state: local name -> fragment set (absent = empty).
State = Dict[str, FrozenSet[str]]


@dataclass
class Summary:
    """Monotone interprocedural facts about one function."""

    param_fragments: Dict[str, Set[str]] = field(default_factory=dict)
    return_fragments: Set[str] = field(default_factory=set)


@dataclass(frozen=True)
class ConcentrationEvent:
    """Private fragments flowed into a concentrating call."""

    call: str
    fragments: Tuple[str, ...]
    line: int


@dataclass(frozen=True)
class DerivationEvent:
    """One derivation edge fired at a call site (collection pass)."""

    family: str
    call: str
    adds: Tuple[str, ...]  # sorted fragments the edge minted here
    line: int


@dataclass
class FunctionResult:
    """Output of analyzing one function (final collection pass)."""

    return_fragments: Set[str] = field(default_factory=set)
    field_writes: Dict[str, Set[str]] = field(default_factory=dict)
    param_contribs: Dict[str, Dict[str, Set[str]]] = field(default_factory=dict)
    events: List[ConcentrationEvent] = field(default_factory=list)
    derivations: List[DerivationEvent] = field(default_factory=list)
    #: Union of every fragment live anywhere in this function.
    resident: Set[str] = field(default_factory=set)


class _FunctionRecon:
    """One intraprocedural run of the fragment transfer over a CFG."""

    def __init__(
        self,
        info: FunctionInfo,
        cfg: CFG,
        config: KeyReconConfig,
        project: Project,
        summaries: Dict[str, Summary],
        fragment_fields: Dict[str, Set[str]],
        edges_by_call: Dict[str, List],
    ) -> None:
        self.info = info
        self.cfg = cfg
        self.config = config
        self.project = project
        self.summaries = summaries
        self.fragment_fields = fragment_fields
        self.result = FunctionResult()
        self.collecting = False
        self._edges_by_call = edges_by_call

    # ------------------------------------------------------------------
    def run(self, collect: bool) -> FunctionResult:
        """Solve; with ``collect``, then record events over the IN states."""
        summary = self.summaries[self.info.full_name]
        entry_state: State = {
            param: frozenset(frags)
            for param, frags in summary.param_fragments.items()
            if frags
        }
        ins = solve_forward(self.cfg, entry_state, self._transfer, _join, dict)
        if collect:
            self.collecting = True
            for node in self.cfg.nodes:
                self._transfer(node, ins[node.index])
            for frags in entry_state.values():
                self.result.resident |= frags
        return self.result

    # ------------------------------------------------------------------
    # statement transfer
    # ------------------------------------------------------------------
    def _transfer(self, node, state: State) -> State:
        stmt = node.stmt
        if node.kind in ("entry", "exit", "raise-exit", "join", "dispatch"):
            return state

        if isinstance(stmt, ast.ExceptHandler):
            if stmt.name:
                state.pop(stmt.name, None)
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
                frags = self._eval(item.context_expr, state)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, frags, state)
            return state

        if isinstance(stmt, ast.Assign):
            frags = self._eval(stmt.value, state)
            for target in stmt.targets:
                self._bind(target, frags, state)
            return state
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value, state), state)
            return state
        if isinstance(stmt, ast.AugAssign):
            frags = self._eval(stmt.value, state)
            if isinstance(stmt.target, ast.Name):
                frags = frags | state.get(stmt.target.id, EMPTY)
            self._bind(stmt.target, frags, state)
            return state

        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                frags = self._eval(stmt.value, state)
                if frags:
                    self.result.return_fragments |= frags
            return state
        if isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, (ast.Yield, ast.YieldFrom)):
                inner = getattr(value, "value", None)
                if inner is not None:
                    frags = self._eval(inner, state)
                    if frags:
                        self.result.return_fragments |= frags
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
                    state.pop(target.id, None)
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
    def _bind(self, target: ast.expr, frags: FrozenSet[str], state: State) -> None:
        if isinstance(target, ast.Name):
            if frags:
                state[target.id] = frags
            else:
                state.pop(target.id, None)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, frags, state)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, frags, state)
        elif isinstance(target, ast.Attribute):
            self._eval(target.value, state)
            if frags:
                self.result.field_writes.setdefault(
                    target.attr, set()
                ).update(frags)
                if isinstance(target.value, ast.Name):
                    # the object now carries the fragments
                    base = target.value.id
                    state[base] = state.get(base, EMPTY) | frags
        elif isinstance(target, ast.Subscript):
            self._eval(target.value, state)
            if frags:
                if isinstance(target.value, ast.Name):
                    base = target.value.id
                    state[base] = state.get(base, EMPTY) | frags
                elif isinstance(target.value, ast.Attribute):
                    # self.bn["d"] = secret taints the field
                    self.result.field_writes.setdefault(
                        target.value.attr, set()
                    ).update(frags)

    # ------------------------------------------------------------------
    # expression fragments
    # ------------------------------------------------------------------
    def _eval(self, expr: Optional[ast.expr], state: State) -> FrozenSet[str]:
        frags = self._eval_raw(expr, state)
        if frags and self.collecting:
            self.result.resident |= frags
        return frags

    def _eval_raw(self, expr: Optional[ast.expr], state: State) -> FrozenSet[str]:
        if expr is None:
            return EMPTY
        if isinstance(expr, ast.Name):
            return state.get(expr.id, EMPTY)
        if isinstance(expr, ast.Constant):
            return EMPTY
        if isinstance(expr, ast.Attribute):
            frags = self._eval(expr.value, state)
            attr_frags = self.config.fragment_attrs.get(expr.attr)
            if attr_frags:
                frags = frags | frozenset(attr_frags)
            heap_frags = self.fragment_fields.get(expr.attr)
            if heap_frags:
                frags = frags | frozenset(heap_frags)
            return frags
        if isinstance(expr, ast.Subscript):
            frags = self._eval(expr.value, state)
            self._eval(expr.slice, state)
            # rsa.bn["p"]-style loads: the constant key names the part.
            key = expr.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                attr_frags = self.config.fragment_attrs.get(key.value)
                if attr_frags:
                    frags = frags | frozenset(attr_frags)
            return frags
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state)
        if isinstance(expr, ast.Lambda):
            # the lambda body shares this scope's names
            return self._eval(expr.body, state)
        if isinstance(expr, ast.NamedExpr):
            frags = self._eval(expr.value, state)
            if isinstance(expr.target, ast.Name):
                self._bind(expr.target, frags, state)
            return frags
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            frags: Set[str] = set()
            for gen in expr.generators:
                iter_frags = self._eval(gen.iter, state)
                if iter_frags:
                    frags |= iter_frags
                    self._bind(gen.target, frozenset(iter_frags), state)
                for cond in gen.ifs:
                    self._eval(cond, state)
            if isinstance(expr, ast.DictComp):
                frags |= self._eval(expr.key, state)
                frags |= self._eval(expr.value, state)
            else:
                frags |= self._eval(expr.elt, state)
            return frozenset(frags)
        # generic: the union of child fragments (no short-circuit: every
        # child must be visited for derivation/concentration collection)
        frags = set()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                frags |= self._eval(child, state)
        return frozenset(frags)

    def _eval_call(self, node: ast.Call, state: State) -> FrozenSet[str]:
        terminal = call_terminal(node)
        receiver = (
            self._eval(node.func, state)
            if isinstance(node.func, ast.Attribute)
            else EMPTY
        )

        positional: List[FrozenSet[str]] = []
        spread_frags: FrozenSet[str] = EMPTY
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                spread_frags = spread_frags | self._eval(arg.value, state)
            else:
                positional.append(self._eval(arg, state))
        keywords: List[Tuple[Optional[str], FrozenSet[str]]] = []
        for kw in node.keywords:
            kw_frags = self._eval(kw.value, state)
            if kw.arg is None:
                spread_frags = spread_frags | kw_frags
            else:
                keywords.append((kw.arg, kw_frags))
        incoming: FrozenSet[str] = receiver | spread_frags
        for frags in positional:
            incoming = incoming | frags
        for _, frags in keywords:
            incoming = incoming | frags

        targets = self.info.call_targets.get(id(node), ())
        self._record_contribs(targets, positional, keywords, spread_frags)

        if (
            self.collecting
            and terminal is not None
            and terminal in self.config.concentrators
        ):
            private = incoming - self.config.public_fragments
            if len(private) >= 2:
                self.result.events.append(
                    ConcentrationEvent(
                        call=terminal,
                        fragments=tuple(sorted(private)),
                        line=node.lineno,
                    )
                )

        if terminal is not None and terminal in self.config.scrubbers:
            return EMPTY

        edges = self._edges_by_call.get(terminal, ()) if terminal else ()
        matched = [
            edge for edge in edges
            if not edge.requires or frozenset(edge.requires) & incoming
        ]
        if self.collecting:
            for edge in matched:
                self.result.derivations.append(
                    DerivationEvent(
                        family=edge.family,
                        call=edge.call,
                        adds=tuple(sorted(edge.adds)),
                        line=node.lineno,
                    )
                )
        if any(edge.project for edge in edges):
            # Projection call: the result is exactly what the satisfied
            # projection edges extract — nothing else propagates.
            out: Set[str] = set()
            for edge in matched:
                out.update(edge.adds)
            return frozenset(out)

        frags: Set[str] = set(receiver)
        for edge in matched:
            frags.update(edge.adds)
            frags.update(incoming)  # a derivation propagates its inputs
        for target in targets:
            summary = self.summaries.get(target)
            if summary is not None and summary.return_fragments:
                frags |= summary.return_fragments
            if target.endswith(".__init__") and incoming:
                frags |= incoming  # the constructed object holds the inputs
        if not targets and incoming:
            frags |= incoming  # unknown callable: assume it derives its input
        return frozenset(frags)

    def _record_contribs(
        self,
        targets: Tuple[str, ...],
        positional: List[FrozenSet[str]],
        keywords: List[Tuple[Optional[str], FrozenSet[str]]],
        spread_frags: FrozenSet[str],
    ) -> None:
        if not targets:
            return
        for target in targets:
            info = self.project.functions.get(target)
            if info is None:
                continue
            contrib: Dict[str, Set[str]] = {}
            if spread_frags:
                for param in info.params:
                    contrib.setdefault(param, set()).update(spread_frags)
            for index, frags in enumerate(positional):
                if frags and index < len(info.params):
                    contrib.setdefault(
                        info.params[index], set()
                    ).update(frags)
            for name, frags in keywords:
                if frags and name in info.params:
                    contrib.setdefault(name, set()).update(frags)
            if contrib:
                sink = self.result.param_contribs.setdefault(target, {})
                for param, frags in contrib.items():
                    sink.setdefault(param, set()).update(frags)


def _join(into: State, other: State, _kind: str) -> None:
    for name, frags in other.items():
        current = into.get(name)
        into[name] = frags if current is None else current | frags


class ReconAnalysis(SummaryFixpoint):
    """Whole-program fixpoint over all function summaries."""

    def __init__(self, project: Project, config: KeyReconConfig) -> None:
        super().__init__(project)
        self.config = config
        self.summaries: Dict[str, Summary] = {
            name: Summary() for name in project.functions
        }
        self.fragment_fields: Dict[str, Set[str]] = {}
        # Derivation edges indexed by terminal call name, once.
        self._edges_by_call: Dict[str, List] = {}
        for edge in config.derivations:
            self._edges_by_call.setdefault(edge.call, []).append(edge)

    def _analyze_one(self, name: str, collect: bool = False) -> FunctionResult:
        return _FunctionRecon(
            info=self.project.functions[name],
            cfg=self._cfg_for(name),
            config=self.config,
            project=self.project,
            summaries=self.summaries,
            fragment_fields=self.fragment_fields,
            edges_by_call=self._edges_by_call,
        ).run(collect)

    def _absorb(self, name: str, result: FunctionResult) -> Iterator[str]:
        summary = self.summaries[name]
        fresh_ret = result.return_fragments - summary.return_fragments
        if fresh_ret:
            summary.return_fragments |= fresh_ret
            yield from sorted(self.project.callers_of(name))
        for attr in sorted(result.field_writes):
            known = self.fragment_fields.setdefault(attr, set())
            fresh = result.field_writes[attr] - known
            if fresh:
                known |= fresh
                yield from sorted(self.project.readers_of(attr))
        for callee in sorted(result.param_contribs):
            callee_summary = self.summaries[callee]
            grew = False
            for param, frags in result.param_contribs[callee].items():
                known = callee_summary.param_fragments.setdefault(param, set())
                fresh = frags - known
                if fresh:
                    known |= fresh
                    grew = True
            if grew:
                yield callee

    # ------------------------------------------------------------------
    def resident_fragments(self) -> Dict[str, FrozenSet[str]]:
        """function -> every fragment live anywhere in it (non-empty
        entries only)."""
        return {
            name: frozenset(result.resident)
            for name, result in self.results.items()
            if result.resident
        }
