"""``flow-transport`` — the worker boundary only carries JSON-safe data.

PR 5's parallel executor ships work as *data, not objects*: work units,
the config, and the instance set cross the process boundary as
``json.dumps`` output, and worker results come back the same way.  The
runtime guard is a try/except around one dump site; everything else —
a numpy scalar in a kwargs dict, a ``Tracer`` handle in ``initargs``, a
``set`` in a worker's return payload — surfaces only when a sweep
actually exercises that path.

This rule finds the transport surface from the call graph and proves
what it can statically:

* **submission sites** — ``pool.submit(worker, *args)``,
  ``pool.map(worker, *iterables)`` and
  ``Executor(initializer=..., initargs=(...))``: the extra ``submit``/
  ``map`` arguments and every ``initargs`` element are classified with
  the JSON-safety lattice (:mod:`repro.analysis.flow.jsonsafe`);
* **worker entries** — the functions named at those sites: every
  ``return`` expression is classified (that value is the boundary
  crossing back);
* **dump sites** — every ``json.dumps(x)`` argument in the submitting
  module and in all functions reachable from a worker entry;
* **boundary producers** — returns of ``*.as_dict`` methods and
  ``*_to_json`` functions referenced from a transport module.

Only *provably unsafe* values are reported (see the lattice docs);
``Dict[str, Any]`` kwargs channels stay UNKNOWN and silent — the rule
catches the class of bug, not the absence of proof.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, Project
from repro.analysis.flow.callgraph import (
    CallGraph,
    FunctionInfo,
    Resolver,
    target_name,
)
from repro.analysis.flow.jsonsafe import (
    UNSAFE,
    JsonClassifier,
    JsonVerdict,
    render_hops,
)


class _Surface:
    """The discovered transport surface of one project."""

    def __init__(self) -> None:
        #: worker-entry / initializer functions, keyed by qname
        self.entries: Dict[str, FunctionInfo] = {}
        #: (owning function, description, expr) values crossing at a site
        self.shipped: List[Tuple[FunctionInfo, str, ast.expr]] = []
        #: modules (by rel path) containing a submission site
        self.transport_modules: Set[str] = set()


def _discover(graph: CallGraph) -> _Surface:
    """Scan every repro function for submission sites."""
    surface = _Surface()
    for info in sorted(graph.repro_functions(), key=lambda f: f.qname):
        env = graph.env_for(info.module)
        if env is None:
            continue
        resolver = Resolver(graph, env, info)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in ("submit", "map") and node.args:
                entry = _entry_function(resolver, node.args[0])
                if entry is not None:
                    surface.entries[entry.qname] = entry
                    surface.transport_modules.add(info.module.rel)
                    for arg in node.args[1:]:
                        surface.shipped.append(
                            (info, f"argument submitted to "
                                   f"{entry.short}()", arg))
            for kw in node.keywords:
                if kw.arg == "initializer":
                    entry = _entry_function(resolver, kw.value)
                    if entry is not None:
                        surface.entries[entry.qname] = entry
                        surface.transport_modules.add(info.module.rel)
                elif kw.arg == "initargs" and isinstance(
                        kw.value, (ast.Tuple, ast.List)):
                    surface.transport_modules.add(info.module.rel)
                    for i, elt in enumerate(kw.value.elts):
                        surface.shipped.append(
                            (info, f"initargs[{i}]", elt))
    return surface


def _entry_function(resolver: Resolver,
                    expr: ast.expr) -> Optional[FunctionInfo]:
    """Resolve a callable reference passed to submit/initializer."""
    if isinstance(expr, ast.Name):
        target = resolver.resolve_name(expr.id)
        if isinstance(target, FunctionInfo):
            return target
    return None


class FlowTransportRule:
    """Prove JSON-safety violations on the worker transport surface."""

    rule_id = "flow-transport"
    description = ("values crossing the parallel worker boundary (submit "
                   "args, initargs, worker returns, json.dumps payloads) "
                   "must be provably JSON-safe")

    def check(self, project: Project) -> Iterator[Finding]:
        from repro.analysis.flow import FlowContext
        ctx = FlowContext.for_project(project)
        graph = ctx.graph
        surface = _discover(graph)
        ret_memo: Dict[str, JsonVerdict] = {}
        seen: Set[Tuple[str, int, str]] = set()

        def emit(info: FunctionInfo, line: int, what: str,
                 verdict: JsonVerdict) -> Optional[Finding]:
            message = (f"non-JSON-safe value crosses the worker boundary "
                       f"via {what}: {verdict.reason}")
            key = (info.module.rel, line, message)
            if key in seen:
                return None
            seen.add(key)
            return Finding(
                rule=self.rule_id, path=info.module.rel, line=line,
                message=message,
                hint=f"evidence: {render_hops(verdict)}; coerce to "
                     "plain str/int/float/bool/list/dict (e.g. float(x), "
                     "x.tolist()) before shipping, or add "
                     "'# repro: allow[flow-transport]' with a reason")

        # Values shipped at the submission sites.
        for info, what, expr in surface.shipped:
            clf = JsonClassifier(graph, info, ret_memo=ret_memo)
            clf.learn()
            verdict = clf.classify(expr)
            if verdict.level == UNSAFE:
                finding = emit(info, expr.lineno, what, verdict)
                if finding is not None:
                    yield finding

        # Worker-entry returns: the value travelling back to the parent.
        for qname in sorted(surface.entries):
            info = surface.entries[qname]
            clf = JsonClassifier(graph, info, ret_memo=ret_memo)
            clf.learn()
            for stmt in ast.walk(info.node):
                if isinstance(stmt, ast.Return) and stmt.value is not None:
                    verdict = clf.classify(stmt.value)
                    if verdict.level == UNSAFE:
                        finding = emit(
                            info, stmt.lineno,
                            f"the return value of worker entry "
                            f"{info.short}()", verdict)
                        if finding is not None:
                            yield finding

        # json.dumps payloads in transport modules and worker-reachable
        # code, plus returns of boundary producers referenced there.
        reachable = graph.reachable_from(sorted(surface.entries))
        for info in sorted(graph.repro_functions(), key=lambda f: f.qname):
            in_scope = (info.qname in reachable
                        or info.module.rel in surface.transport_modules)
            if not in_scope:
                continue
            clf = JsonClassifier(graph, info, ret_memo=ret_memo)
            clf.learn()
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call) and node.args:
                    name = target_name(clf.resolver.resolve(node))
                    if name == "json.dumps" or name.endswith(".json.dumps"):
                        verdict = clf.classify(node.args[0])
                        if verdict.level == UNSAFE:
                            finding = emit(
                                info, node.lineno,
                                f"a json.dumps payload in {info.short}()",
                                verdict)
                            if finding is not None:
                                yield finding
            if self._is_boundary_producer(info, surface):
                for stmt in ast.walk(info.node):
                    if isinstance(stmt, ast.Return) \
                            and stmt.value is not None:
                        verdict = clf.classify(stmt.value)
                        if verdict.level == UNSAFE:
                            finding = emit(
                                info, stmt.lineno,
                                f"the transport payload built by "
                                f"{info.short}()", verdict)
                            if finding is not None:
                                yield finding

    @staticmethod
    def _is_boundary_producer(info: FunctionInfo,
                              surface: _Surface) -> bool:
        """as_dict / *_to_json helpers referenced from transport code."""
        if not surface.transport_modules:
            return False
        return info.name == "as_dict" or info.name.endswith("_to_json")


__all__ = ["FlowTransportRule"]
