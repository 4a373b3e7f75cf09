"""Interprocedural typestate engine.

Runs each protocol :class:`~repro.analysis.keystate.automata.Automaton`
over the shared :class:`~repro.analysis.ir.project.Project` + per-
function CFGs (the same representation KeyFlow analyzes), tracking
per-object typestate flow-sensitively:

* **objects** are abstract tokens: a creator call site (``local``),
  a bound call result (``ret``), a parameter (``param``), or a field
  name (``field`` — class-blind, like KeyFlow's heap);
* **must-alias** through locals: the environment maps variable names
  to tokens and a join keeps a binding only when *all* predecessors
  agree — so stepping ``rsa`` steps exactly the object it must be;
* **joins** union each token's state *set*; when an error transition
  fires for only a subset of the states, the finding is prefixed
  ``possibly`` ("possibly-unaligned at serve");
* **interprocedurally**, each function gets a summary: the states its
  parameters were observed in (monotone, from call sites), a state
  transformer per parameter (in-state -> out-states at exit,
  including the exceptional exit), and the state set of returned
  tracked objects.  The engine iterates full rounds over the sorted
  function list until nothing changes — results are independent of
  file-discovery and worklist order by construction.

Exception edges matter: an event call's out-state on the exception
edge is the *merge* of "event happened" and "event did not happen"
(may-analysis), except that a creation cannot have happened if its
call raised.  Obligations (``secret-temp`` zeroize-on-all-paths,
``key-file`` close-on-all-paths) are checked at both the normal and
the exceptional exit.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.ir.cfg import CFG, build_cfg
from repro.analysis.ir.project import FunctionInfo, Project, call_terminal
from repro.analysis.keystate.automata import (
    AUTOMATA,
    Automaton,
    automata_by_name,
)
from repro.analysis.keystate.findings import (
    Finding,
    KeyStateReport,
    WitnessStep,
    sort_findings,
)

#: Default analysis root: the simulator package itself.
REPRO_ROOT = Path(__file__).resolve().parents[2]

#: Origin marker for objects that do not enter through a parameter.
_LOCAL_ORIGIN = "·"

# A token identifies one abstract object within a function (or, for
# fields, globally): ("param", name) | ("local", node_idx) |
# ("ret", node_idx) | ("field", attr).
Token = Tuple[str, object]
# Each token carries a set of (origin_state, current_state) pairs; the
# origin is the parameter's entry state (for summary transformers) or
# _LOCAL_ORIGIN.
Pairs = FrozenSet[Tuple[str, str]]


@dataclass(frozen=True)
class KeyStateConfig:
    """Engine configuration (recorded in the report for provenance)."""

    #: Report INTEGRATED-level rules (O_NOCACHE discipline).
    integrated: bool = True
    #: Automata to run; ``None`` means all shipped automata.
    automata: Optional[Tuple[str, ...]] = None
    #: Interprocedural round cap (a safety net, not a tuning knob).
    max_rounds: int = 32

    def without_automaton(self, name: str) -> "KeyStateConfig":
        """Ablation hook for the containment teeth tests."""
        names = tuple(
            a.name for a in automata_by_name(self.automata) if a.name != name
        )
        return replace(self, automata=names)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "integrated": self.integrated,
            "automata": sorted(
                a.name for a in automata_by_name(self.automata)
            ),
            "max_rounds": self.max_rounds,
        }


# ----------------------------------------------------------------------
# per-function summaries
# ----------------------------------------------------------------------
@dataclass
class _Summary:
    #: param name -> states observed at call sites (monotone).
    param_states: Dict[str, Set[str]] = field(default_factory=dict)
    #: (param, state) -> {(caller_full_name, call_line)} for witnesses.
    param_sources: Dict[Tuple[str, str], Set[Tuple[str, int]]] = field(
        default_factory=dict
    )
    #: param -> {in_state -> out-state set at (any) exit}.
    param_effect: Dict[str, Dict[str, FrozenSet[str]]] = field(
        default_factory=dict
    )
    #: States of tracked objects this function returns.
    creations: Set[str] = field(default_factory=set)


def _iter_calls(expr_or_stmt: ast.AST) -> List[ast.Call]:
    """Calls inside one node, innermost first (so a creator call used
    as an argument produces its token before the outer call consumes
    it), ties broken in stable source order."""
    depths: Dict[int, int] = {}

    def _visit(node: ast.AST, depth: int) -> None:
        if isinstance(node, ast.Call):
            depths[id(node)] = depth
            depth += 1
        for child in ast.iter_child_nodes(node):
            _visit(child, depth)

    _visit(expr_or_stmt, 0)
    calls = [n for n in ast.walk(expr_or_stmt) if isinstance(n, ast.Call)]
    calls.sort(key=lambda c: (-depths[id(c)], c.lineno, c.col_offset))
    return calls


def _flags_states(call: ast.Call, flags_idx: int) -> Tuple[Set[str], Optional[bool]]:
    """Decide the key-file initial state from the flags expression.

    Returns ``(states, cached_report)`` where ``cached_report`` is
    ``True`` for a definite no-O_NOCACHE open, ``False`` for a
    *possible* one (flags not statically decidable), and ``None`` when
    O_NOCACHE is definitely present.
    """
    expr: Optional[ast.expr] = None
    if len(call.args) > flags_idx:
        expr = call.args[flags_idx]
    else:
        for kw in call.keywords:
            if kw.arg == "flags":
                expr = kw.value
    if expr is None:
        return {"opened-cached"}, True  # no flags at all: cached open

    names = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(expr)
        if isinstance(node, (ast.Name, ast.Attribute))
    }

    def _decidable(node: ast.expr) -> bool:
        # a plain constant / O_* flag name / bitwise-or chain of them;
        # anything else (a variable, a call) is opaque
        if isinstance(node, ast.Constant):
            return True
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            return name.startswith("O_")
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return _decidable(node.left) and _decidable(node.right)
        return False

    if "O_NOCACHE" in names:
        if _decidable(expr):
            return {"opened-nocache"}, None
        # O_NOCACHE appears but conditionally (e.g. an IfExp)
        return {"opened-nocache", "opened-cached"}, False
    if _decidable(expr):
        return {"opened-cached"}, True
    # an opaque flags value (variable, call): may or may not be nocache
    return {"opened-nocache", "opened-cached"}, False


@dataclass
class _PendingReport:
    """A rule firing observed during the collect pass."""

    rule: str
    token_desc: str
    event: str  # event name, or "exit"/"raise-exit" for obligations
    trigger_states: Set[str]
    all_states: Set[str]
    line: int
    witness: Tuple[WitnessStep, ...]


class _FunctionRun:
    """One intraprocedural fixpoint of one automaton over one function."""

    def __init__(
        self,
        engine: "_AutomatonEngine",
        info: FunctionInfo,
        collect: bool,
    ) -> None:
        self.engine = engine
        self.automaton = engine.automaton
        self.info = info
        self.collect = collect
        self.cfg: CFG = engine.cfg_for(info)
        self.reports: List[_PendingReport] = []
        #: observed (param, state) flows into callees this run.
        self.callee_flows: List[Tuple[str, str, str, int]] = []
        self.creations: Set[str] = set()
        #: token -> creator terminal (for stable, line-free descriptors).
        self.token_origin: Dict[Token, str] = {}
        #: collect-pass witness traces: token -> {state: steps}.
        self.traces: Dict[Token, Dict[str, Tuple[WitnessStep, ...]]] = {}

    # ------------------------------------------------------------------
    def run(self) -> None:
        summary = self.engine.summaries[self.info.full_name]
        entry_env: Dict[str, Token] = {}
        entry_obj: Dict[Token, Pairs] = {}
        for param in self.info.params:
            states = summary.param_states.get(param)
            if states:
                token: Token = ("param", param)
                entry_env[param] = token
                entry_obj[token] = frozenset((s, s) for s in states)
                self.token_origin[token] = f"param:{param}"
                if self.collect:
                    self.traces[token] = {
                        s: (
                            WitnessStep(
                                function=self.info.full_name,
                                rel_path=self.info.rel_path,
                                line=self.info.node.lineno,
                                action=f"param {param} enters",
                                state=s,
                            ),
                        )
                        for s in states
                    }

        n = len(self.cfg.nodes)
        # per-node out-states on the normal and exception edges
        outs: List[Optional[Tuple[Dict[str, Token], Dict[Token, Pairs]]]] = [
            None
        ] * n
        outs_exc: List[Optional[Tuple[Dict[str, Token], Dict[Token, Pairs]]]] = [
            None
        ] * n
        outs[self.cfg.entry] = (entry_env, entry_obj)
        outs_exc[self.cfg.entry] = (entry_env, entry_obj)

        preds = self.cfg.preds()

        work = sorted(
            {dst for node in self.cfg.nodes for (dst, _) in node.succs}
        )
        pending = set(work)
        rounds = 0
        while work:
            rounds += 1
            if rounds > 40 * max(n, 1):
                break  # defensive: the lattice is finite, but cap anyway
            idx = work.pop(0)
            pending.discard(idx)
            state = self._in_state(idx, preds, outs, outs_exc)
            if state is None:
                continue
            out_n, out_e = self._transfer(idx, state)
            if outs[idx] != out_n or outs_exc[idx] != out_e:
                outs[idx] = out_n
                outs_exc[idx] = out_e
                for dst, _ in self.cfg.nodes[idx].succs:
                    if dst not in pending:
                        pending.add(dst)
                        work.append(dst)
                work.sort()

        if self.collect:
            for exit_idx, exit_kind, exc_ok in (
                (self.cfg.exit, "exit", True),
                (self.cfg.raise_exit, "raise-exit", False),
            ):
                state = self._in_state(exit_idx, preds, outs, outs_exc)
                if state is not None:
                    self._check_obligations(state, exit_kind)
        # summary outputs: param effects at both exits
        effects: Dict[str, Dict[str, Set[str]]] = {}
        for exit_idx in (self.cfg.exit, self.cfg.raise_exit):
            state = self._in_state(exit_idx, preds, outs, outs_exc)
            if state is None:
                continue
            _, obj = state
            for token, pairs in obj.items():
                if token[0] != "param":
                    continue
                per = effects.setdefault(str(token[1]), {})
                for origin, cur in pairs:
                    if origin == _LOCAL_ORIGIN:
                        continue
                    per.setdefault(origin, set()).add(cur)
        self.param_effect = {
            p: {s: frozenset(outs_) for s, outs_ in per.items()}
            for p, per in effects.items()
        }

    # ------------------------------------------------------------------
    def _in_state(
        self,
        idx: int,
        preds: List[List[Tuple[int, str]]],
        outs: List[Optional[Tuple[Dict[str, Token], Dict[Token, Pairs]]]],
        outs_exc: List[Optional[Tuple[Dict[str, Token], Dict[Token, Pairs]]]],
    ) -> Optional[Tuple[Dict[str, Token], Dict[Token, Pairs]]]:
        contributions = []
        for p_idx, kind in preds[idx]:
            out = outs_exc[p_idx] if kind == "exception" else outs[p_idx]
            if out is not None:
                contributions.append(out)
        if idx == self.cfg.entry:
            return outs[idx]
        if not contributions:
            return None
        obj: Dict[Token, Pairs] = dict(contributions[0][1])
        for _, other_obj in contributions[1:]:
            for token, pairs in other_obj.items():
                obj[token] = obj.get(token, frozenset()) | pairs
        # must-alias: a variable stays bound only when it is bound on
        # every path; when paths bind *different* objects, rebind it to
        # a merge token carrying the union of their states (sound weak
        # update — reports from it say "possibly")
        common = set(contributions[0][0])
        for other_env, _ in contributions[1:]:
            common &= set(other_env)
        env: Dict[str, Token] = {}
        merged_away: Set[Token] = set()
        for var in sorted(common):
            tokens = {c_env[var] for c_env, _ in contributions}
            if len(tokens) == 1:
                env[var] = next(iter(tokens))
            else:
                env[var] = self._merged_token(tokens, obj)
                merged_away |= tokens
        live = set(env.values())
        for token in merged_away:
            if token not in live:
                obj.pop(token, None)  # the merge token owns it now
        return env, obj

    def _merged_token(
        self, tokens: Set[Token], obj: Dict[Token, Pairs]
    ) -> Token:
        base: Set[Token] = set()
        for token in tokens:
            if token[0] == "merge":
                base.update(token[1])  # type: ignore[arg-type]
            else:
                base.add(token)
        key: Token = ("merge", tuple(sorted(base, key=str)))
        pairs = obj.get(key, frozenset())
        for token in tokens:
            pairs |= obj.get(token, frozenset())
        obj[key] = pairs
        if key not in self.token_origin:
            self.token_origin[key] = "|".join(
                sorted({self._desc(t) for t in base})
            )
        if self.collect:
            traces = self.traces.setdefault(key, {})
            for token in tokens:
                for state, steps in self.traces.get(token, {}).items():
                    traces.setdefault(state, steps)
        return key

    @staticmethod
    def _owned(token: Token) -> bool:
        """Does this function hold the exit obligations for the token?"""
        if token[0] in ("local", "ret"):
            return True
        if token[0] == "merge":
            return any(t[0] in ("local", "ret") for t in token[1])  # type: ignore[union-attr]
        return False

    # ------------------------------------------------------------------
    # transfer
    # ------------------------------------------------------------------
    def _transfer(
        self, idx: int, state: Tuple[Dict[str, Token], Dict[Token, Pairs]]
    ) -> Tuple[
        Tuple[Dict[str, Token], Dict[Token, Pairs]],
        Tuple[Dict[str, Token], Dict[Token, Pairs]],
    ]:
        in_env, in_obj = state
        env = dict(in_env)
        obj = dict(in_obj)
        node = self.cfg.nodes[idx]
        created: Set[Token] = set()
        call_tokens: Dict[int, Token] = {}  # id(call) -> produced token

        stmt = node.stmt
        scan: Optional[ast.AST] = None
        header_only = node.kind == "branch" or isinstance(
            stmt, (ast.With, ast.AsyncWith)
        )
        if header_only:
            scan = node.expr
        elif node.kind == "stmt" and stmt is not None:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                env.pop(stmt.name, None)
                scan = None
            elif isinstance(stmt, ast.ExceptHandler):
                if stmt.name:
                    env.pop(stmt.name, None)
                scan = None
            else:
                scan = stmt

        if scan is not None:
            for call in _iter_calls(scan):
                self._apply_call(idx, node.line, call, env, obj, created, call_tokens)

        if stmt is not None and not header_only:
            self._apply_bindings(idx, stmt, env, obj, call_tokens, created)
        if header_only and isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                var = item.optional_vars
                if isinstance(var, ast.Name):
                    token = (
                        call_tokens.get(id(item.context_expr))
                        if isinstance(item.context_expr, ast.Call)
                        else None
                    )
                    if token is not None:
                        env[var.id] = token
                    else:
                        env.pop(var.id, None)
        if header_only and isinstance(stmt, (ast.For, ast.AsyncFor)):
            for target in ast.walk(stmt.target):
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)

        if self.automaton.obligations:
            # a creation never bound to a name (comprehension element,
            # argument expression) has no owner here to hold its exit
            # obligation — tracking it would only report blind
            bound = set(env.values())
            for token in created:
                if token not in bound:
                    obj.pop(token, None)

        out_normal = (env, obj)
        # on the exception edge the events may or may not have run, but
        # a creation cannot have completed if its call raised
        exc_env = {
            v: t for v, t in in_env.items() if env.get(v) == t and t not in created
        }
        exc_obj = dict(in_obj)
        for token, pairs in obj.items():
            if token in created:
                continue
            exc_obj[token] = exc_obj.get(token, frozenset()) | pairs
        return out_normal, (exc_env, exc_obj)

    # ------------------------------------------------------------------
    def _token_of(
        self, env: Dict[str, Token], obj: Dict[Token, Pairs], expr: ast.expr
    ) -> Optional[Token]:
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            token: Token = ("field", expr.attr)
            if token not in obj:
                states = self.engine.field_states.get(expr.attr)
                if not states:
                    return None
                obj[token] = frozenset((_LOCAL_ORIGIN, s) for s in states)
                self.token_origin[token] = f"field:{expr.attr}"
                if self.collect and token not in self.traces:
                    self.traces[token] = {
                        s: (
                            WitnessStep(
                                function=self.info.full_name,
                                rel_path=self.info.rel_path,
                                line=expr.lineno,
                                action=f"field {expr.attr} read",
                                state=s,
                            ),
                        )
                        for s in states
                    }
            return token
        return None

    def _desc(self, token: Token) -> str:
        return self.token_origin.get(token, f"{token[0]}:{token[1]}")

    def _trace_create(self, token: Token, states: Set[str], line: int, action: str) -> None:
        if not self.collect:
            return
        self.traces.setdefault(token, {})
        for s in states:
            self.traces[token].setdefault(
                s,
                (
                    WitnessStep(
                        function=self.info.full_name,
                        rel_path=self.info.rel_path,
                        line=line,
                        action=action,
                        state=s,
                    ),
                ),
            )

    def _trace_step(
        self, token: Token, old: str, new: str, line: int, action: str
    ) -> None:
        if not self.collect:
            return
        traces = self.traces.setdefault(token, {})
        if new in traces:
            return  # set-once: state sets only grow within a run
        prefix = traces.get(old, ())
        traces[new] = prefix + (
            WitnessStep(
                function=self.info.full_name,
                rel_path=self.info.rel_path,
                line=line,
                action=action,
                state=new,
            ),
        )

    # ------------------------------------------------------------------
    def _apply_call(
        self,
        idx: int,
        line: int,
        call: ast.Call,
        env: Dict[str, Token],
        obj: Dict[Token, Pairs],
        created: Set[Token],
        call_tokens: Dict[int, Token],
    ) -> None:
        automaton = self.automaton
        terminal = call_terminal(call)
        if terminal is None:
            return
        line = call.lineno

        creator_spec = automaton.creator_state(terminal)
        if creator_spec is not None:
            token: Token = ("local", idx)
            states: Set[str] = set()
            if creator_spec == "@receiver":
                if isinstance(call.func, ast.Attribute):
                    recv = self._token_of(env, obj, call.func.value)
                    if recv is not None and recv in obj:
                        states = {cur for _, cur in obj[recv]}
                if not states:
                    states = set(automaton.initial)
            elif creator_spec.startswith("@flags:"):
                flags_idx = int(creator_spec.split(":", 1)[1])
                states, cached = _flags_states(call, flags_idx)
                if cached is not None and self.collect:
                    self._report_rule(
                        "keyfile-no-nocache",
                        token_desc=f"open:{terminal}",
                        event="open",
                        trigger={"opened-cached"},
                        all_states=states,
                        line=line,
                        witness=(),
                    )
            else:
                states = {creator_spec}
            obj[token] = frozenset((_LOCAL_ORIGIN, s) for s in states)
            self.token_origin[token] = f"new:{terminal}"
            created.add(token)
            call_tokens[id(call)] = token
            self._trace_create(token, states, line, f"{terminal}() creates")
            if self.automaton.obligations:
                # the constructed object takes ownership of tracked
                # arguments (RsaStruct owns the bignums handed to it)
                for arg in list(call.args) + [kw.value for kw in call.keywords]:
                    if isinstance(arg, (ast.Name, ast.Attribute)):
                        arg_token = self._token_of(env, obj, arg)
                    elif isinstance(arg, ast.Call):
                        arg_token = call_tokens.get(id(arg))
                    else:
                        arg_token = None
                    if arg_token is not None and self._owned(arg_token):
                        obj.pop(arg_token, None)
            return  # primitive creators are not also summary calls

        pattern = automaton.event_for_terminal(terminal, call)
        if pattern is not None:
            from repro.analysis.keystate.automata import RECEIVER

            target_expr: Optional[ast.expr] = None
            if pattern.arg == RECEIVER:
                if isinstance(call.func, ast.Attribute):
                    target_expr = call.func.value
            elif pattern.arg < len(call.args):
                target_expr = call.args[pattern.arg]
            if target_expr is None:
                return
            if isinstance(target_expr, ast.Call):
                token = call_tokens.get(id(target_expr))
            else:
                token = self._token_of(env, obj, target_expr)
            if token is None or token not in obj:
                return
            pairs = obj[token]
            all_states = {cur for _, cur in pairs}
            stepped: Set[Tuple[str, str]] = set()
            fired: Dict[str, Set[str]] = {}
            for origin, cur in sorted(pairs):
                new_state, rule = automaton.step(cur, pattern.event)
                stepped.add((origin, new_state))
                if rule is not None:
                    fired.setdefault(rule, set()).add(cur)
                self._trace_step(
                    token, cur, new_state, line, f"{terminal}() -> {pattern.event}"
                )
            obj[token] = frozenset(stepped)
            if token[0] == "field":
                self.engine.note_field(str(token[1]), {s for _, s in stepped})
            if self.collect:
                for rule, trigger in sorted(fired.items()):
                    self._report_rule(
                        rule,
                        token_desc=self._desc(token),
                        event=pattern.event,
                        trigger=trigger,
                        all_states=all_states,
                        line=line,
                        witness=self._witness_for(token, trigger),
                    )
            return  # primitive events are not also summary calls

        self._apply_summary_call(idx, line, call, env, obj, call_tokens)

    # ------------------------------------------------------------------
    def _apply_summary_call(
        self,
        idx: int,
        line: int,
        call: ast.Call,
        env: Dict[str, Token],
        obj: Dict[Token, Pairs],
        call_tokens: Dict[int, Token],
    ) -> None:
        targets = self.info.call_targets.get(id(call), ())
        known = [t for t in targets if t in self.engine.project.functions]
        # map argument expressions to tracked tokens
        arg_tokens: List[Tuple[int, Optional[str], Token]] = []

        def _resolve_arg(expr: ast.expr) -> Optional[Token]:
            if isinstance(expr, (ast.Name, ast.Attribute)):
                return self._token_of(env, obj, expr)
            if isinstance(expr, ast.Call):
                return call_tokens.get(id(expr))  # innermost ran first
            return None

        for pos, arg in enumerate(call.args):
            token = _resolve_arg(arg)
            if token is not None and token in obj:
                arg_tokens.append((pos, None, token))
        for kw in call.keywords:
            if kw.arg is None:
                continue
            token = _resolve_arg(kw.value)
            if token is not None and token in obj:
                arg_tokens.append((-1, kw.arg, token))

        if not known:
            # the object escapes into code we cannot see; drop exit
            # obligations for it rather than report blind
            if self.automaton.obligations:
                for _, _, token in arg_tokens:
                    if self._owned(token):
                        obj.pop(token, None)
            return

        creations: Set[str] = set()
        for callee_name in known:
            callee = self.engine.project.functions[callee_name]
            callee_summary = self.engine.summaries[callee_name]
            creations |= callee_summary.creations
            for pos, kw_name, token in arg_tokens:
                if kw_name is not None:
                    param = kw_name if kw_name in callee.params else None
                else:
                    param = (
                        callee.params[pos] if pos < len(callee.params) else None
                    )
                if param is None:
                    continue
                states = {cur for _, cur in obj[token]}
                self.engine.note_param(
                    callee_name, param, states, self.info.full_name, line
                )
                # apply the callee's transformer (identity when unknown)
                effect = callee_summary.param_effect.get(param, {})
                new_pairs: Set[Tuple[str, str]] = set()
                for origin, cur in obj[token]:
                    for out_state in effect.get(cur, frozenset((cur,))):
                        new_pairs.add((origin, out_state))
                        self._trace_step(
                            token,
                            cur,
                            out_state,
                            line,
                            f"{callee.qualname}() summary",
                        )
                obj[token] = frozenset(new_pairs)
                if token[0] == "field":
                    self.engine.note_field(
                        str(token[1]), {s for _, s in new_pairs}
                    )
        if creations:
            token = ("ret", idx)
            obj[token] = frozenset((_LOCAL_ORIGIN, s) for s in creations)
            terminal = call_terminal(call) or "call"
            self.token_origin[token] = f"ret:{terminal}"
            call_tokens[id(call)] = token
            self._trace_create(
                token, set(creations), line, f"{terminal}() returns"
            )

    # ------------------------------------------------------------------
    def _apply_bindings(
        self,
        idx: int,
        stmt: ast.stmt,
        env: Dict[str, Token],
        obj: Dict[Token, Pairs],
        call_tokens: Dict[int, Token],
        created: Set[Token],
    ) -> None:
        if isinstance(stmt, (ast.Return, ast.Expr)) and stmt.value is not None:
            value = stmt.value
            token = None
            if isinstance(value, ast.Call):
                token = call_tokens.get(id(value))
            elif isinstance(value, (ast.Name, ast.Attribute)) and isinstance(
                stmt, ast.Return
            ):
                token = self._token_of(env, obj, value)
            if isinstance(stmt, ast.Return) and token is not None and token in obj:
                self.creations |= {cur for _, cur in obj[token]}
                if self._owned(token):
                    obj.pop(token, None)  # ownership moves to the caller
            return

        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                env.pop(stmt.target.id, None)
            return
        else:
            return

        token: Optional[Token] = None
        if isinstance(value, ast.Call):
            token = call_tokens.get(id(value))
        elif isinstance(value, (ast.Name, ast.Attribute)):
            token = self._token_of(env, obj, value)

        for target in targets:
            if isinstance(target, ast.Name):
                if token is not None and token in obj:
                    env[target.id] = token
                else:
                    env.pop(target.id, None)
            elif isinstance(target, ast.Attribute):
                if token is not None and token in obj:
                    states = {cur for _, cur in obj[token]}
                    self.engine.note_field(target.attr, states)
                    field_token: Token = ("field", target.attr)
                    obj[field_token] = obj.get(field_token, frozenset()) | frozenset(
                        (_LOCAL_ORIGIN, s) for s in states
                    )
                    self.token_origin.setdefault(
                        field_token, f"field:{target.attr}"
                    )
                    if self.collect:
                        for s in states:
                            self.traces.setdefault(field_token, {}).setdefault(
                                s, self.traces.get(token, {}).get(s, ())
                            )
                    if self.automaton.obligations and self._owned(token):
                        obj.pop(token, None)  # the field owns it now
            else:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        env.pop(name.id, None)

    # ------------------------------------------------------------------
    def _check_obligations(
        self,
        state: Tuple[Dict[str, Token], Dict[Token, Pairs]],
        exit_kind: str,
    ) -> None:
        _, obj = state
        for token in sorted(obj, key=str):
            if not self._owned(token):
                continue
            pairs = obj[token]
            all_states = {cur for _, cur in pairs}
            for ob in self.automaton.obligations:
                if exit_kind == "raise-exit" and not ob.on_exception:
                    continue
                if ob.state in all_states:
                    self._report_rule(
                        ob.report,
                        token_desc=self._desc(token),
                        event=exit_kind,
                        trigger={ob.state},
                        all_states=all_states,
                        line=self._token_line(token),
                        witness=self._witness_for(token, {ob.state}),
                    )

    def _token_line(self, token: Token) -> int:
        traces = self.traces.get(token, {})
        for steps in traces.values():
            if steps:
                return steps[0].line
        return self.info.node.lineno

    def _witness_for(
        self, token: Token, trigger: Set[str]
    ) -> Tuple[WitnessStep, ...]:
        traces = self.traces.get(token, {})
        for state in sorted(trigger):
            if state in traces:
                return traces[state]
        return ()

    def _report_rule(
        self,
        rule: str,
        token_desc: str,
        event: str,
        trigger: Set[str],
        all_states: Set[str],
        line: int,
        witness: Tuple[WitnessStep, ...],
    ) -> None:
        self.reports.append(
            _PendingReport(
                rule=rule,
                token_desc=token_desc,
                event=event,
                trigger_states=set(trigger),
                all_states=set(all_states),
                line=line,
                witness=witness,
            )
        )


# ----------------------------------------------------------------------
# interprocedural driver, one automaton at a time
# ----------------------------------------------------------------------
def _call_index(project: Project) -> Tuple[Dict[str, Set[str]], ...]:
    """function -> terminals of every call in its AST (nested defs
    included), and function -> resolved callees; built once per
    :func:`analyze` and shared by every automaton."""
    functions = project.functions.items()
    terminals = {
        name: {call_terminal(n) for n in ast.walk(info.node)
               if isinstance(n, ast.Call)} - {None}
        for name, info in functions
    }
    callees = {
        name: {t for targets in info.call_targets.values() for t in targets}
        for name, info in functions
    }
    return terminals, callees


class _AutomatonEngine:
    def __init__(
        self, project: Project, automaton: Automaton, config: KeyStateConfig,
        call_index: Tuple[Dict[str, Set[str]], ...],
    ) -> None:
        self.project = project
        self.automaton = automaton
        self.config = config
        self.summaries: Dict[str, _Summary] = {
            name: _Summary() for name in project.functions
        }
        self.field_states: Dict[str, Set[str]] = {}
        self._changed = False
        self._cfgs: Dict[str, CFG] = {}
        interesting = {t for t, _ in automaton.creators}
        interesting.update(p.terminal for p in automaton.events)
        self._interesting = interesting
        #: function -> terminals it calls / callees (relevance filter).
        self._terminals, self._callees = call_index

    def cfg_for(self, info: FunctionInfo) -> CFG:
        cfg = self._cfgs.get(info.full_name)
        if cfg is None:
            cfg = build_cfg(info.node)
            self._cfgs[info.full_name] = cfg
        return cfg

    # monotone global facts -------------------------------------------
    def note_param(
        self,
        callee: str,
        param: str,
        states: Set[str],
        caller: str,
        line: int,
    ) -> None:
        summary = self.summaries[callee]
        known = summary.param_states.setdefault(param, set())
        if not states <= known:
            known |= states
            self._changed = True
        for state in states:
            sources = summary.param_sources.setdefault((param, state), set())
            if (caller, line) not in sources:
                sources.add((caller, line))
                self._changed = True

    def note_field(self, attr: str, states: Set[str]) -> None:
        known = self.field_states.setdefault(attr, set())
        if not states <= known:
            known |= states
            self._changed = True

    # ------------------------------------------------------------------
    def _relevant(self, name: str) -> bool:
        if self._terminals[name] & self._interesting:
            return True
        if any(self.summaries[name].param_states.values()):
            return True
        info = self.project.functions[name]
        if info.attrs_read & set(self.field_states):
            return True
        return any(
            self.summaries.get(c) is not None and self.summaries[c].creations
            for c in self._callees[name]
            if c in self.summaries
        )

    def run(self) -> List[Finding]:
        names = self.project.sorted_names()
        for _round in range(self.config.max_rounds):
            self._changed = False
            for name in names:
                if not self._relevant(name):
                    continue
                run = _FunctionRun(self, self.project.functions[name], collect=False)
                run.run()
                summary = self.summaries[name]
                if run.creations - summary.creations:
                    summary.creations |= run.creations
                    self._changed = True
                if run.param_effect != summary.param_effect:
                    summary.param_effect = run.param_effect
                    self._changed = True
            if not self._changed:
                break

        findings: List[Finding] = []
        for name in names:
            if not self._relevant(name):
                continue
            run = _FunctionRun(self, self.project.functions[name], collect=True)
            run.run()
            findings.extend(self._findings_of(run))
        return findings

    # ------------------------------------------------------------------
    def _findings_of(self, run: _FunctionRun) -> List[Finding]:
        info = run.info
        merged: Dict[Tuple[str, str, str], _PendingReport] = {}
        for report in run.reports:
            if (
                report.rule in self.automaton.integrated_rules
                and not self.config.integrated
            ):
                continue
            key = (report.rule, report.token_desc, report.event)
            prior = merged.get(key)
            if prior is None:
                merged[key] = report
            else:
                prior.trigger_states |= report.trigger_states
                prior.all_states |= report.all_states
                if report.line < prior.line:
                    prior.line = report.line
                    prior.witness = report.witness

        findings = []
        for (rule, token_desc, event), report in sorted(merged.items()):
            possibly = bool(report.all_states - report.trigger_states)
            trigger = ", ".join(sorted(report.trigger_states))
            message = (
                f"{'possibly ' if possibly else ''}{rule}: "
                f"{event} on {token_desc} in state {{{trigger}}}"
            )
            witness = self._caller_prefix(info, token_desc, report) + report.witness
            findings.append(
                Finding(
                    protocol=self.automaton.name,
                    rule=rule,
                    function=info.full_name,
                    rel_path=info.rel_path,
                    line=report.line,
                    detail=f"{token_desc}:{event}",
                    message=message,
                    witness=witness,
                )
            )
        return findings

    def _caller_prefix(
        self, info: FunctionInfo, token_desc: str, report: _PendingReport
    ) -> Tuple[WitnessStep, ...]:
        if not token_desc.startswith("param:"):
            return ()
        param = token_desc.split(":", 1)[1]
        summary = self.summaries[info.full_name]
        sources: Set[Tuple[str, int]] = set()
        for state in report.trigger_states:
            sources |= summary.param_sources.get((param, state), set())
        steps = []
        for caller, line in sorted(sources)[:3]:
            caller_info = self.project.functions.get(caller)
            steps.append(
                WitnessStep(
                    function=caller,
                    rel_path=caller_info.rel_path if caller_info else "",
                    line=line,
                    action=f"calls {info.qualname}()",
                )
            )
        return tuple(steps)


# ----------------------------------------------------------------------
# public entry point
# ----------------------------------------------------------------------
def analyze(
    paths: Optional[Sequence[Path]] = None,
    files: Optional[Sequence[Tuple[Path, Path]]] = None,
    config: Optional[KeyStateConfig] = None,
    initial_order: Optional[Sequence[str]] = None,
    project: Optional[Project] = None,
) -> KeyStateReport:
    """Run every configured automaton over the project.

    ``files`` and ``initial_order`` exist for the determinism tests:
    the interprocedural engine iterates full rounds over the *sorted*
    function list, so results are independent of both.  ``project``
    reuses an already-loaded IR build (the ``repro analyze``
    meta-command parses the tree once for all layers).
    """
    del initial_order  # accepted for API symmetry; never affects results
    config = config or KeyStateConfig()
    if project is None:
        roots = [Path(p) for p in paths] if paths is not None else [REPRO_ROOT]
        project = Project.load(roots, files=files)
    automata = automata_by_name(config.automata)

    findings: List[Finding] = []
    rule_descriptions: Dict[str, str] = {}
    call_index = _call_index(project)
    for automaton in automata:
        rule_descriptions.update(automaton.rules)
        findings.extend(
            _AutomatonEngine(project, automaton, config, call_index).run()
        )

    return KeyStateReport(
        findings=sort_findings(findings),
        files=list(project.files),
        function_count=len(project.functions),
        protocols=sorted(a.name for a in automata),
        rule_descriptions=rule_descriptions,
        config=config.to_json_dict(),
    )
