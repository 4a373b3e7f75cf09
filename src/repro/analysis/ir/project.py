"""Whole-program model: modules, functions, and the call graph.

A :class:`Project` parses every ``*.py`` file under the analysis
roots, assigns each function a name identical to the runtime's
``f"{module}.{co_qualname}"`` (so static results are directly
comparable with KeySan's dynamic call-site attribution), and builds
the indexes the dataflow engine needs:

* ``functions`` — fully-qualified name -> :class:`FunctionInfo`;
* ``by_terminal`` — terminal name -> every function so named
  (the sound over-approximation used to resolve attribute calls like
  ``sys.read_all(...)`` without type inference);
* ``class_inits`` — class terminal name -> its ``__init__``
  (constructor calls transfer taint into the new object);
* ``attr_readers`` — attribute name -> functions that load it
  (re-analysis targets when the field becomes tainted).

Call resolution is *name-based and deliberately coarse*: a call may
resolve to several candidate functions, and analysis facts flow into
all of them.  Coarseness costs precision, never soundness — the
dynamic ⊆ static containment tests only work because resolution
over-approximates.

This module is shared infrastructure: KeyFlow's taint pass and
KeyState's typestate checker both analyze the Project it builds.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.ir.cfg import dfs_postorder


@dataclass
class FunctionInfo:
    """One function/method definition and its precomputed facts."""

    #: ``module.qualname`` — matches the runtime's call-site strings.
    full_name: str
    module: str
    qualname: str
    #: POSIX path relative to the analysis root (stable across hosts).
    rel_path: str
    node: ast.AST
    #: Parameter names in call order, ``self``/``cls`` excluded.
    params: Tuple[str, ...]
    #: Attribute names this function loads (syntactic).
    attrs_read: frozenset = frozenset()
    #: id(ast.Call) -> candidate callee full names.
    call_targets: Dict[int, Tuple[str, ...]] = field(default_factory=dict)


def _param_names(node) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    names.extend(a.arg for a in args.kwonlyargs)
    return tuple(names)


def call_terminal(node: ast.Call) -> Optional[str]:
    """Terminal name of the called function (``a.b.f()`` -> ``f``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _FunctionCollector(ast.NodeVisitor):
    """Collect every def (sync/async, nested, methods) with qualnames
    matching ``co_qualname`` (``Cls.meth``, ``outer.<locals>.inner``)."""

    def __init__(self, module: str, rel_path: str) -> None:
        self.module = module
        self.rel_path = rel_path
        self.stack: List[str] = []
        self.found: List[FunctionInfo] = []

    def _qual(self, name: str) -> str:
        return ".".join(self.stack + [name]) if self.stack else name

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def _visit_def(self, node) -> None:
        qual = self._qual(node.name)
        self.found.append(
            FunctionInfo(
                full_name=f"{self.module}.{qual}",
                module=self.module,
                qualname=qual,
                rel_path=self.rel_path,
                node=node,
                params=_param_names(node),
            )
        )
        self.stack.extend([node.name, "<locals>"])
        for child in node.body:
            self.visit(child)
        self.stack.pop()
        self.stack.pop()

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def


def _own_statements(func_node) -> List[ast.stmt]:
    """The function's body with nested def/class bodies excluded (they
    are analyzed as their own functions)."""
    return list(func_node.body)


def iter_own_nodes(func_node) -> Iterable[ast.AST]:
    """Walk a function's AST without descending into nested defs or
    classes (lambdas *are* descended into: they share the scope)."""
    stack: List[ast.AST] = list(_own_statements(func_node))
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.append(child)


def discover_files(paths: Sequence[Path]) -> List[Tuple[Path, Path]]:
    """Expand files/directories into sorted ``(root, file)`` pairs."""
    pairs: List[Tuple[Path, Path]] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for file_path in sorted(entry.rglob("*.py")):
                pairs.append((entry, file_path))
        elif entry.is_file():
            pairs.append((entry.parent, entry))
        else:
            raise FileNotFoundError(f"analysis: no such file or directory: {entry}")
    return pairs


def module_name_for(root: Path, file_path: Path) -> str:
    """Runtime import name of ``file_path`` under analysis root
    ``root``.  When the root is itself a package directory (has an
    ``__init__.py``), its name prefixes the dotted path — analyzing
    ``src/repro`` yields ``repro.kernel.vm`` etc., exactly the module
    strings KeySan reports."""
    rel = file_path.relative_to(root)
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if (root / "__init__.py").exists():
        parts = [root.name] + parts
    return ".".join(parts) if parts else root.name


class Project:
    """Parsed modules + function indexes + resolved call graph."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.by_terminal: Dict[str, Tuple[str, ...]] = {}
        self.class_inits: Dict[str, Tuple[str, ...]] = {}
        self.attr_readers: Dict[str, Set[str]] = {}
        self.callers: Dict[str, Set[str]] = {}
        #: module name -> {imported local name -> imported terminal}.
        self._imports: Dict[str, Dict[str, str]] = {}
        #: module name -> {module-level def name -> full name}.
        self._module_defs: Dict[str, Dict[str, str]] = {}
        self.files: List[str] = []
        self._callee_first: Optional[List[str]] = None

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        paths: Sequence[Path],
        files: Optional[Sequence[Tuple[Path, Path]]] = None,
    ) -> "Project":
        """Parse all sources.  ``files`` (root, file) pairs override
        path discovery — the determinism test feeds shuffled orders
        through it; results must not depend on the order."""
        project = cls()
        pairs = list(files) if files is not None else discover_files(paths)
        for root, file_path in pairs:
            project._add_file(root, file_path)
        project._index()
        return project

    def _add_file(self, root: Path, file_path: Path) -> None:
        module = module_name_for(root, file_path)
        rel_path = file_path.relative_to(root).as_posix()
        source = file_path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=rel_path)
        collector = _FunctionCollector(module, rel_path)
        collector.visit(tree)
        for info in collector.found:
            self.functions[info.full_name] = info
        self.files.append(rel_path)
        # module-level imports and defs, for Name-call resolution
        imports: Dict[str, str] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    imports[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    imports[local] = alias.name
        self._imports[module] = imports
        self._module_defs[module] = {
            node.name: f"{module}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    # ------------------------------------------------------------------
    # indexes + call resolution
    # ------------------------------------------------------------------
    def _index(self) -> None:
        self.files.sort()
        by_terminal: Dict[str, Set[str]] = {}
        class_inits: Dict[str, Set[str]] = {}
        for full_name, info in self.functions.items():
            terminal = info.qualname.rsplit(".", 1)[-1]
            by_terminal.setdefault(terminal, set()).add(full_name)
            if terminal == "__init__" and "." in info.qualname:
                owner = info.qualname.rsplit(".", 2)[-2]
                class_inits.setdefault(owner, set()).add(full_name)
        self.by_terminal = {
            name: tuple(sorted(targets)) for name, targets in by_terminal.items()
        }
        self.class_inits = {
            name: tuple(sorted(targets)) for name, targets in class_inits.items()
        }
        for info in self.functions.values():
            self._resolve_function(info)
        for caller, info in self.functions.items():
            for targets in info.call_targets.values():
                for callee in targets:
                    self.callers.setdefault(callee, set()).add(caller)

    def _resolve_function(self, info: FunctionInfo) -> None:
        attrs: Set[str] = set()
        for node in iter_own_nodes(info.node):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            if isinstance(node, ast.Call):
                info.call_targets[id(node)] = self._resolve_call(info, node)
        info.attrs_read = frozenset(attrs)
        for attr in attrs:
            self.attr_readers.setdefault(attr, set()).add(info.full_name)

    def _resolve_call(
        self, info: FunctionInfo, node: ast.Call
    ) -> Tuple[str, ...]:
        terminal = call_terminal(node)
        if terminal is None:
            return ()
        targets: Set[str] = set()
        if isinstance(node.func, ast.Name):
            # precise first: module-level def, then explicit import
            local = self._module_defs.get(info.module, {}).get(terminal)
            if local is not None:
                return (local,)
            imported = self._imports.get(info.module, {}).get(terminal)
            if imported is not None:
                terminal = imported.rsplit(".", 1)[-1]
            targets.update(self.class_inits.get(terminal, ()))
            if not targets:
                targets.update(self.by_terminal.get(terminal, ()))
        else:
            # attribute call: every function/ctor with this terminal name
            targets.update(self.by_terminal.get(terminal, ()))
            targets.update(self.class_inits.get(terminal, ()))
        return tuple(sorted(targets))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def sorted_names(self) -> List[str]:
        return sorted(self.functions)

    def callee_first_names(self) -> List[str]:
        """Every function, callees before callers where the call graph
        has no cycle: a DFS postorder over sorted resolved callees, rooted
        at each of :meth:`sorted_names` in turn.  Computed once."""
        if self._callee_first is None:
            def callees(name: str) -> List[str]:
                targets = self.functions[name].call_targets.values()
                return sorted({callee for group in targets for callee in group})

            self._callee_first = dfs_postorder(self.sorted_names(), callees)
        return list(self._callee_first)

    def callers_of(self, full_name: str) -> Set[str]:
        return self.callers.get(full_name, set())

    def readers_of(self, attr: str) -> Set[str]:
        return self.attr_readers.get(attr, set())
