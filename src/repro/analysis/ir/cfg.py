"""Per-function control-flow graphs with exception edges.

Every function gets a CFG whose nodes are simple statements or the
header expressions of control constructs, plus three synthetic nodes:
``entry``, ``exit`` (normal return / fall-off-the-end) and
``raise-exit`` (an exception escaping the function).  Edges are
``normal`` or ``exception``:

* every statement that can raise gets an ``exception`` edge to the
  innermost enclosing handler target — the dispatch node of a
  ``try`` with handlers, the entry of a ``finally``, or
  ``raise-exit``;
* a ``try``'s dispatch node fans out to each handler body *and* keeps
  an ``exception`` edge outward (no handler may match);
* ``finally`` bodies are walked once; normal completion continues
  after the ``try``, abrupt transfers (``return``/``break``/
  ``continue``) are chained through every open ``finally`` to their
  target, and the exceptional route leaves the last ``finally`` node
  via an ``exception`` edge.  Because one body serves all routes, the
  graph merges paths that are distinct at runtime — a *may*-analysis
  over it can over-report but never under-report, the sound direction
  for the taint pass, the scrub-on-all-paths check, and KeyState's
  typestate engine alike.

Shared infrastructure: KeyFlow, KeyState, KeyRecon and KeySpan all
build their per-function graphs here.  Each graph caches its
predecessor lists and reverse postorder on first use.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Callable, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar,
)

T = TypeVar("T")

#: Statement types that cannot raise (no exception edge emitted).
_NO_RAISE = (ast.Pass, ast.Break, ast.Continue, ast.Global, ast.Nonlocal)


@dataclass
class CFGNode:
    """One CFG node: a statement, a header expression, or synthetic."""

    index: int
    #: "entry" | "exit" | "raise-exit" | "stmt" | "branch" | "dispatch"
    #: | "join"
    kind: str
    stmt: Optional[ast.stmt] = None
    #: Header expression for branch/for/with nodes.
    expr: Optional[ast.expr] = None
    #: ``(target_index, edge_kind)``; edge_kind: "normal" | "exception".
    succs: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def line(self) -> int:
        node = self.stmt if self.stmt is not None else self.expr
        return getattr(node, "lineno", 0)


class CFG:
    """Control-flow graph of one function body."""

    def __init__(self) -> None:
        self.nodes: List[CFGNode] = []
        self._preds: Optional[List[List[Tuple[int, str]]]] = None
        self._rpo: Optional[Tuple[List[int], List[int]]] = None
        self.entry = self._new("entry")
        self.exit = self._new("exit")
        self.raise_exit = self._new("raise-exit")

    def _new(self, kind: str, stmt: Optional[ast.stmt] = None,
             expr: Optional[ast.expr] = None) -> int:
        node = CFGNode(index=len(self.nodes), kind=kind, stmt=stmt, expr=expr)
        self.nodes.append(node)
        self._preds = self._rpo = None
        return node.index

    def _edge(self, src: int, dst: int, kind: str = "normal") -> None:
        if (dst, kind) not in self.nodes[src].succs:
            self.nodes[src].succs.append((dst, kind))
            self._preds = self._rpo = None

    def preds(self) -> List[List[Tuple[int, str]]]:
        """node index -> its ``(pred_index, edge_kind)`` list."""
        if self._preds is None:
            self._preds = [[] for _ in self.nodes]
            for node in self.nodes:
                for dst, kind in node.succs:
                    self._preds[dst].append((node.index, kind))
        return self._preds

    def preds_of(self, index: int) -> List[Tuple[int, str]]:
        return list(self.preds()[index])

    def rpo(self) -> Tuple[List[int], List[int]]:
        """``(order, rank)``: node indices in reverse postorder from
        ``entry`` (unreachable nodes last), and each node's position."""
        if self._rpo is None:
            post = dfs_postorder(
                [self.entry], lambda i: [dst for dst, _ in self.nodes[i].succs]
            )
            reached = set(post)
            order = post[::-1] + [
                i for i in range(len(self.nodes)) if i not in reached
            ]
            rank = [0] * len(order)
            for position, index in enumerate(order):
                rank[index] = position
            self._rpo = (order, rank)
        return self._rpo


def dfs_postorder(roots: Iterable[T], succs: Callable[[T], Iterable[T]]) -> List[T]:
    """Every node reachable from ``roots`` (taken in turn) in depth-first
    postorder, without recursion."""
    order: List[T] = []
    seen: Set[T] = set()
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succs(root)))]
        while stack:
            node, rest = stack[-1]
            for succ in rest:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(succs(succ))))
                    break
            else:
                stack.pop()
                order.append(node)
    return order


class _Builder:
    """Recursive structured CFG construction."""

    def __init__(self) -> None:
        self.cfg = CFG()
        #: Innermost-last exception targets (dispatch/finally nodes).
        self.exc_targets: List[int] = [self.cfg.raise_exit]
        #: (break_target, continue_target, finally_depth_at_loop_entry)
        self.loops: List[Tuple[int, int, int]] = []
        #: Open ``finally`` bodies, innermost last: (entry, body_outs).
        self.finals: List[Tuple[int, List[int]]] = []

    # ------------------------------------------------------------------
    def build(self, func_node) -> CFG:
        frontier = self._walk(func_node.body, [self.cfg.entry])
        for node in frontier:
            self.cfg._edge(node, self.cfg.exit)
        return self.cfg

    # ------------------------------------------------------------------
    def _stmt_node(self, stmt: ast.stmt, kind: str = "stmt",
                   expr: Optional[ast.expr] = None) -> int:
        index = self.cfg._new(kind, stmt=stmt, expr=expr)
        if not isinstance(stmt, _NO_RAISE):
            self.cfg._edge(index, self.exc_targets[-1], "exception")
        return index

    def _connect(self, frontier: Sequence[int], target: int) -> None:
        for node in frontier:
            self.cfg._edge(node, target)

    def _route_abrupt(self, from_depth: int, ultimate: int) -> int:
        """Wire an abrupt transfer (return/break/continue) through every
        ``finally`` open above ``from_depth``; returns its first hop."""
        pending = self.finals[from_depth:]
        if not pending:
            return ultimate
        chain = list(reversed(pending))  # innermost first
        for (_, outs), (next_entry, _) in zip(chain, chain[1:]):
            for out in outs:
                self.cfg._edge(out, next_entry)
        for out in chain[-1][1]:
            self.cfg._edge(out, ultimate)
        return chain[0][0]

    # ------------------------------------------------------------------
    def _walk(self, stmts: Sequence[ast.stmt], frontier: List[int]) -> List[int]:
        for stmt in stmts:
            if not frontier:
                break  # unreachable code after return/raise
            frontier = self._walk_stmt(stmt, frontier)
        return frontier

    def _walk_stmt(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        if isinstance(stmt, ast.If):
            header = self._stmt_node(stmt, kind="branch", expr=stmt.test)
            self._connect(frontier, header)
            then_out = self._walk(stmt.body, [header])
            else_out = self._walk(stmt.orelse, [header]) if stmt.orelse else [header]
            return then_out + else_out

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            expr = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            header = self._stmt_node(stmt, kind="branch", expr=expr)
            self._connect(frontier, header)
            break_join = self.cfg._new("join")
            self.loops.append((break_join, header, len(self.finals)))
            body_out = self._walk(stmt.body, [header])
            self.loops.pop()
            self._connect(body_out, header)  # back edge
            else_out = (
                self._walk(stmt.orelse, [header]) if stmt.orelse else [header]
            )
            self._connect(else_out, break_join)
            return [break_join]

        if isinstance(stmt, ast.Try):
            return self._walk_try(stmt, frontier)

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            header = self._stmt_node(
                stmt, kind="stmt",
                expr=stmt.items[0].context_expr if stmt.items else None,
            )
            self._connect(frontier, header)
            return self._walk(stmt.body, [header])

        if isinstance(stmt, ast.Return):
            node = self._stmt_node(stmt)
            self._connect(frontier, node)
            self.cfg._edge(node, self._route_abrupt(0, self.cfg.exit))
            return []

        if isinstance(stmt, ast.Raise):
            node = self._stmt_node(stmt)
            self._connect(frontier, node)
            return []

        if isinstance(stmt, ast.Break):
            node = self._stmt_node(stmt)
            self._connect(frontier, node)
            if self.loops:
                target, _, depth = self.loops[-1]
                self.cfg._edge(node, self._route_abrupt(depth, target))
            return []

        if isinstance(stmt, ast.Continue):
            node = self._stmt_node(stmt)
            self._connect(frontier, node)
            if self.loops:
                _, target, depth = self.loops[-1]
                self.cfg._edge(node, self._route_abrupt(depth, target))
            return []

        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Nested defs are their own CFGs; the def statement itself
            # is just a binding here.
            node = self.cfg._new("stmt", stmt=stmt)
            self._connect(frontier, node)
            return [node]

        node = self._stmt_node(stmt)
        self._connect(frontier, node)
        return [node]

    # ------------------------------------------------------------------
    def _walk_try(self, stmt: ast.Try, frontier: List[int]) -> List[int]:
        has_finally = bool(stmt.finalbody)
        finally_entry: Optional[int] = None
        finally_out: List[int] = []
        if has_finally:
            # Walk the finally body once, detached; routes attach below.
            finally_entry = self.cfg._new("join")
            finally_out = self._walk(stmt.finalbody, [finally_entry])
            self.finals.append((finally_entry, finally_out))

        dispatch: Optional[int] = None
        if stmt.handlers:
            dispatch = self.cfg._new("dispatch", stmt=stmt)
            self.exc_targets.append(dispatch)
        elif has_finally:
            self.exc_targets.append(finally_entry)  # type: ignore[arg-type]

        body_out = self._walk(stmt.body, list(frontier))
        if stmt.handlers or has_finally:
            self.exc_targets.pop()

        outer_exc = self.exc_targets[-1]
        after: List[int] = []

        # else runs only after a clean try body
        if stmt.orelse:
            body_out = self._walk(stmt.orelse, body_out)
        after.extend(body_out)

        # handler bodies (exceptions raised inside them go outward)
        if dispatch is not None:
            for handler in stmt.handlers:
                entry = self.cfg._new("stmt", stmt=handler)
                self.cfg._edge(dispatch, entry)
                after.extend(self._walk(handler.body, [entry]))
            # no handler matched: propagate outward (through finally)
            unmatched_target = finally_entry if has_finally else outer_exc
            self.cfg._edge(dispatch, unmatched_target, "exception")  # type: ignore[arg-type]

        if has_finally:
            self.finals.pop()
            self._connect(after, finally_entry)  # type: ignore[arg-type]
            # The exceptional route leaves the finally outward; the
            # normal route continues after the try.
            for node in finally_out:
                self.cfg._edge(node, outer_exc, "exception")
            return list(finally_out)
        return after


def build_cfg(func_node) -> CFG:
    """Build the CFG for one ``FunctionDef``/``AsyncFunctionDef``."""
    return _Builder().build(func_node)
