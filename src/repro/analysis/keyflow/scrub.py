"""CFG-based scrub-on-all-paths check.

A function that *materializes* an owned key container (``bn =
bn_bin2bn(...)``, ``key = d2i_privatekey(...)``, ``ctx =
MontgomeryContext(...)``) must, on **every** path to every exit —
normal return, fall-off-the-end, and exception escape — either

* pass it to a scrubber (``rsa_free``/``bn_clear_free``/``drop_mont``/
  ``zeroize``/``free(..., clear=True)``), or
* give up ownership: return/yield it, store it on an object or into a
  container, or hand it to a constructor.

Forward may-analysis with state = the set of live unscrubbed owned
variables, tracked separately along normal and exception edges:

* the materializing assignment *gens* its variable on the normal
  out-edge only — if the call raises, the binding never happened, so
  the canonical ``try: ... finally: bn_clear_free(bn)`` shape is not
  blamed for the pre-binding failure window;
* scrubber calls *kill* on both edges (the scrub is modeled atomic);
* escapes kill on both edges too — losing ownership means this
  function no longer owes the scrub.

Aliasing (``other = bn``) is treated as an ownership transfer, which
under-reports; this check is a proof obligation on the common shapes,
not a replacement for KeySan's runtime verdict.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.analysis.ir.cfg import CFG
from repro.analysis.ir.project import FunctionInfo, call_terminal
from repro.analysis.ir.solver import solve_forward
from repro.analysis.keyflow.config import KeyFlowConfig


@dataclass(frozen=True)
class ScrubViolation:
    """One owned key container that can leave the function unscrubbed."""

    variable: str
    materializer: str
    line: int  # line of the materializing assignment
    exit_kind: str  # "return" | "raise"


def _is_clearing_free(node: ast.Call, config: KeyFlowConfig) -> bool:
    terminal = call_terminal(node)
    if terminal not in config.clearing_frees:
        return False
    for kw in node.keywords:
        if kw.arg == "clear" and isinstance(kw.value, ast.Constant):
            return bool(kw.value.value)
    return False


class _ScrubCheck:
    def __init__(self, info: FunctionInfo, cfg: CFG, config: KeyFlowConfig) -> None:
        self.info = info
        self.cfg = cfg
        self.config = config
        #: variable -> (materializer terminal, line) for gens in this fn
        self.owned: Dict[str, Tuple[str, int]] = {}

    # ------------------------------------------------------------------
    def run(self) -> List[ScrubViolation]:
        self._find_materializers()
        if not self.owned:
            return []

        # OUT is a (normal-edge, exception-edge) pair per node.
        ins = solve_forward(self.cfg, set(), self._transfer, _join_edge, set)

        violations: List[ScrubViolation] = []
        for exit_index, exit_kind in (
            (self.cfg.exit, "return"),
            (self.cfg.raise_exit, "raise"),
        ):
            for variable in sorted(ins[exit_index]):
                materializer, line = self.owned[variable]
                violations.append(
                    ScrubViolation(
                        variable=variable,
                        materializer=materializer,
                        line=line,
                        exit_kind=exit_kind,
                    )
                )
        return violations

    # ------------------------------------------------------------------
    def _find_materializers(self) -> None:
        for node in self.cfg.nodes:
            stmt = node.stmt
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                terminal = call_terminal(stmt.value)
                if terminal in self.config.materializers:
                    self.owned[stmt.targets[0].id] = (terminal, stmt.lineno)

    # ------------------------------------------------------------------
    def _transfer(self, node, in_state: Set[str]) -> Tuple[Set[str], Set[str]]:
        stmt = node.stmt
        normal = set(in_state)
        exc = set(in_state)

        if stmt is None or not isinstance(stmt, ast.stmt):
            return normal, exc

        # gen: materializing assignment (normal edge only — on the
        # exception edge the binding never happened)
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id in self.owned
            and isinstance(stmt.value, ast.Call)
            and call_terminal(stmt.value) in self.config.materializers
        ):
            normal.add(stmt.targets[0].id)
            return normal, exc

        killed = self._kills(stmt)
        normal -= killed
        exc -= killed
        return normal, exc

    def _kills(self, stmt: ast.stmt) -> Set[str]:
        killed: Set[str] = set()

        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                terminal = call_terminal(node)
                scrubbing = terminal in self.config.scrubbers or _is_clearing_free(
                    node, self.config
                )
                for arg in node.args:
                    if isinstance(arg, ast.Name) and arg.id in self.owned:
                        if scrubbing:
                            killed.add(arg.id)
                        elif self._is_constructor(node):
                            killed.add(arg.id)  # ownership moved into the object

        if isinstance(stmt, ast.Return) and stmt.value is not None:
            killed |= self._names_in(stmt.value)
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, (ast.Yield, ast.YieldFrom)
        ):
            inner = getattr(stmt.value, "value", None)
            if inner is not None:
                killed |= self._names_in(inner)
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    killed |= self._names_in(stmt.value)  # stored away: escapes
            # aliasing to another name: treat as ownership transfer
            if (
                isinstance(stmt.value, ast.Name)
                and stmt.value.id in self.owned
                and any(isinstance(t, ast.Name) for t in stmt.targets)
            ):
                killed.add(stmt.value.id)
        return killed

    def _is_constructor(self, node: ast.Call) -> bool:
        targets = self.info.call_targets.get(id(node), ())
        if any(target.endswith(".__init__") for target in targets):
            return True
        terminal = call_terminal(node)
        return terminal in self.config.materializers

    def _names_in(self, expr: ast.expr) -> Set[str]:
        return {
            node.id
            for node in ast.walk(expr)
            if isinstance(node, ast.Name) and node.id in self.owned
        }


def _join_edge(
    into: Set[str], out: Tuple[Set[str], Set[str]], kind: str
) -> None:
    into |= out[1] if kind == "exception" else out[0]


def check_function(
    info: FunctionInfo, cfg: CFG, config: KeyFlowConfig
) -> List[ScrubViolation]:
    """Run the scrub-on-all-paths check on one function."""
    return _ScrubCheck(info, cfg, config).run()
