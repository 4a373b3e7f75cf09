"""Shared static-analysis infrastructure: project model, CFGs, solver.

Every IR layer runs over the *same* program representation, so their
results are directly comparable and a fix to call resolution or
exception-edge routing benefits all of them:

* :mod:`repro.analysis.ir.project` — the :class:`Project` loader:
  modules, functions named exactly like the runtime's
  ``f"{module}.{co_qualname}"``, and the name-based call graph;
* :mod:`repro.analysis.ir.cfg` — per-function control-flow graphs
  with exception edges and finally-aware abrupt-exit routing;
* :mod:`repro.analysis.ir.solver` — the forward fixpoint solver and
  summary fixpoint loop KeyFlow and KeyRecon share.

Analysis semantics (taint configs, protocol automata) stay with their
analyzers.
"""

from repro.analysis.ir.cfg import CFG, CFGNode, build_cfg
from repro.analysis.ir.project import (
    FunctionInfo,
    Project,
    call_terminal,
    discover_files,
    iter_own_nodes,
    module_name_for,
)

__all__ = [
    "CFG",
    "CFGNode",
    "FunctionInfo",
    "Project",
    "build_cfg",
    "call_terminal",
    "discover_files",
    "iter_own_nodes",
    "module_name_for",
]
