"""Lock discipline: guarded attributes, lock ordering, blocking calls.

The concurrency added by the batch/ahead-of-time planes (the
``TiptoeClient`` token prefetcher, ``BatchScheduler``, the NTT context
registry, ``SocketTransport``, the obs metrics) all follows one idiom:
a ``threading.Lock`` (or a ``Condition`` wrapping one) acquired via
``with``, guarding a small set of attributes.  This checker makes that idiom mechanical:

* ``# guarded-by: <lockname>`` on an attribute, module global, or
  function local declares its guard.  Every read or write must then
  occur while the guard is held (**lock-guarded-attr**).  ``__init__``
  / ``__post_init__`` / ``__del__`` are exempt -- the object is not
  yet (or no longer) shared.
* Acquisition *order* is collected across the whole program: acquiring
  B while holding A -- directly or through any resolved call chain --
  adds the edge A -> B.  A cycle in that graph, including re-acquiring
  a held non-reentrant lock, is a potential deadlock
  (**lock-order-cycle**).
* Blocking operations while holding a lock -- socket send/recv/
  connect, ``future.result()``, ``queue.get``/``put``, ``sleep``,
  ``event.wait()``, or any call that transitively reaches one --
  stall every other thread contending for the lock
  (**lock-blocking-call**).  ``cond.wait()`` on a condition whose
  underlying lock *is* the held lock is the one sanctioned idiom and
  is exempt.
* ``# requires-lock: <lockname>`` on a function both seeds its entry
  held-set and obliges callers to hold the lock (**lock-requires**).
* Annotations that name an unknown lock, or that attach to nothing,
  are themselves errors (**lock-bad-annotation**) so typos cannot
  silently disable checking.
"""

from __future__ import annotations

import ast

from repro.analysis.base import ProgramChecker, call_name, dotted_name
from repro.analysis.findings import Finding, RuleSpec
from repro.analysis.ir.callgraph import CallGraph
from repro.analysis.ir.cfg import shallow_exprs
from repro.analysis.ir.program import FunctionInfo, Program

#: Methods where guarded attributes may be touched without the lock:
#: construction and teardown happen before/after the object is shared.
EXEMPT_METHODS = {"__init__", "__post_init__", "__del__"}

#: Calls that block the calling thread outright.
BLOCKING_CALL_NAMES = {
    "sendall",
    "recv",
    "recv_into",
    "accept",
    "connect",
    "create_connection",
    "sleep",
    "result",
    "acquire",
    "select",
}

#: Block only when the receiver looks like a queue (``q.get()``), so
#: ``dict.get`` stays quiet.
QUEUE_CALL_NAMES = {"get", "put"}

#: ``cond.wait()`` is exempt iff ``cond`` aliases a held lock.
WAITER_NAMES = {"wait", "wait_for"}


def _is_blocking_name(call: ast.Call) -> str | None:
    """Classify a call as directly blocking (reason string) or not."""
    name = call_name(call)
    if name in BLOCKING_CALL_NAMES:
        return f"{name}() blocks"
    if name in QUEUE_CALL_NAMES and isinstance(call.func, ast.Attribute):
        receiver = dotted_name(call.func.value) or ""
        if "queue" in receiver.lower() or receiver.lower().endswith("_q"):
            return f"queue {name}() blocks"
    return None


def _acquire_summaries(
    program: Program, graph: CallGraph
) -> dict[int, frozenset]:
    """id(func) -> every lock token the function may acquire,
    transitively through resolved calls (fixpoint)."""
    funcs = graph.all_functions()
    acquired: dict[int, set] = {id(f): set() for f in funcs}
    direct: dict[int, set] = {}
    callee_map: dict[int, list[FunctionInfo]] = {}
    for func in funcs:
        tokens: set = set()
        cfg = program.cfg_of(func)
        for block in cfg.blocks:
            for stmt in block.stmts:
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        tok = program.resolve_lock_expr(
                            item.context_expr, func
                        )
                        if tok is not None:
                            tokens.add(tok)
        direct[id(func)] = tokens
        acquired[id(func)] |= tokens
        callee_map[id(func)] = graph.callees(func)
    changed = True
    while changed:
        changed = False
        for func in funcs:
            mine = acquired[id(func)]
            before = len(mine)
            for callee in callee_map[id(func)]:
                mine |= acquired.get(id(callee), set())
            if len(mine) != before:
                changed = True
    return {k: frozenset(v) for k, v in acquired.items()}


def _may_block_summaries(
    program: Program, graph: CallGraph
) -> dict[int, bool]:
    """id(func) -> the function may block (directly or transitively).

    Condition waits count here even though they are exempt at their
    own site: *calling* a waiting function while holding an unrelated
    lock still stalls that lock's other contenders.
    """
    funcs = graph.all_functions()
    may_block: dict[int, bool] = {}
    callee_map: dict[int, list[FunctionInfo]] = {}
    for func in funcs:
        blocking = False
        cfg = program.cfg_of(func)
        for block in cfg.blocks:
            for stmt in block.stmts:
                for expr in shallow_exprs(stmt):
                    for node in ast.walk(expr):
                        if isinstance(node, ast.Call) and (
                            _is_blocking_name(node)
                            or call_name(node) in WAITER_NAMES
                        ):
                            blocking = True
        may_block[id(func)] = blocking
        callee_map[id(func)] = graph.callees(func)
    changed = True
    while changed:
        changed = False
        for func in funcs:
            if may_block[id(func)]:
                continue
            if any(
                may_block.get(id(c), False) for c in callee_map[id(func)]
            ):
                may_block[id(func)] = True
                changed = True
    return may_block


def lock_order_edges(
    program: Program,
    graph: CallGraph | None = None,
    acquired: dict[int, frozenset] | None = None,
) -> dict[tuple[str, str], tuple[str, int]]:
    """The whole-program lock-order graph.

    Returns ``{(held_token, acquired_token): (path, line)}`` -- one
    representative acquisition site per edge.  The dynamic concurrency
    harness asserts its *observed* nesting edges are a subset of this.
    """
    graph = graph or CallGraph(program)
    if acquired is None:
        acquired = _acquire_summaries(program, graph)
    edges: dict[tuple[str, str], tuple[str, int]] = {}

    def add(src: str, dst: str, path: str, line: int) -> None:
        edges.setdefault((src, dst), (path, line))

    for func in graph.all_functions():
        path = func.module.path
        cfg = program.cfg_of(func)
        for block in cfg.blocks:
            for stmt in block.stmts:
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    toks = [
                        program.resolve_lock_expr(item.context_expr, func)
                        for item in stmt.items
                    ]
                    toks = [t for t in toks if t is not None]
                    for tok in toks:
                        for held in block.held:
                            add(held, tok, path, stmt.lineno)
                    for i, first in enumerate(toks):
                        for second in toks[i + 1 :]:
                            add(first, second, path, stmt.lineno)
                for expr in shallow_exprs(stmt):
                    for node in ast.walk(expr):
                        if not isinstance(node, ast.Call):
                            continue
                        if not block.held:
                            continue
                        targets, _ = graph.resolve_call(node, func)
                        for target in targets:
                            for tok in acquired.get(id(target), ()):
                                for held in block.held:
                                    add(held, tok, path, node.lineno)
    return edges


def find_cycles(
    edges: dict[tuple[str, str], tuple[str, int]]
) -> list[list[str]]:
    """Every elementary cycle reachable in the lock-order graph,
    deduplicated by node set (self-loops included)."""
    succ: dict[str, list[str]] = {}
    for src, dst in edges:
        succ.setdefault(src, []).append(dst)
    cycles: list[list[str]] = []
    seen_sets: set[frozenset] = set()

    def dfs(node: str, path: list[str], on_path: set[str]) -> None:
        for nxt in succ.get(node, ()):
            if nxt in on_path:
                cycle = path[path.index(nxt) :] + [nxt]
                key = frozenset(cycle)
                if key not in seen_sets:
                    seen_sets.add(key)
                    cycles.append(cycle)
                continue
            dfs(nxt, path + [nxt], on_path | {nxt})

    for start in list(succ):
        dfs(start, [start], {start})
    return cycles


class LockDisciplineChecker(ProgramChecker):
    name = "locks"
    rules = (
        RuleSpec(
            rule="lock-guarded-attr",
            summary="guarded attribute accessed without its declared lock",
            invariant=(
                "every read/write of a `# guarded-by:` attribute is "
                "dominated by `with <lock>:`"
            ),
            paper="SS4 (server shared state)",
        ),
        RuleSpec(
            rule="lock-order-cycle",
            summary="lock-acquisition-order cycle (potential deadlock)",
            invariant="the whole-program lock-order graph is acyclic",
        ),
        RuleSpec(
            rule="lock-blocking-call",
            summary="blocking operation while holding a lock",
            invariant=(
                "no socket/future/queue/sleep blocking while a lock is "
                "held (condition.wait on the held lock excepted)"
            ),
        ),
        RuleSpec(
            rule="lock-requires",
            summary="`# requires-lock:` function called without the lock",
            invariant="callers of requires-lock functions hold the lock",
        ),
        RuleSpec(
            rule="lock-bad-annotation",
            summary="guarded-by/requires-lock names no known lock",
            invariant="lock annotations bind to real locks (no typos)",
        ),
    )

    def check_program(
        self, program: Program, graph: CallGraph
    ) -> list[Finding]:
        findings: list[Finding] = []
        self._check_annotations(program, findings)
        acquired = _acquire_summaries(program, graph)
        may_block = _may_block_summaries(program, graph)
        for func in graph.all_functions():
            self._check_function(
                program, graph, func, may_block, findings
            )
        edges = lock_order_edges(program, graph, acquired)
        for cycle in find_cycles(edges):
            first_edge = (cycle[0], cycle[1]) if len(cycle) > 1 else (
                cycle[0],
                cycle[0],
            )
            path, line = edges.get(
                first_edge, next(iter(edges.values()))
            )
            if len(set(cycle)) == 1:
                message = (
                    f"lock {cycle[0]} re-acquired while already held "
                    "(self-deadlock on a non-reentrant lock)"
                )
            else:
                message = (
                    "lock-order cycle: " + " -> ".join(cycle)
                )
            mod = program.by_path.get(path)
            snippet = mod.ctx.snippet(line) if mod else ""
            findings.append(
                Finding(
                    rule="lock-order-cycle",
                    path=path,
                    line=line,
                    col=0,
                    message=message,
                    snippet=snippet,
                )
            )
        return findings

    # -- annotations --------------------------------------------------------

    def _check_annotations(
        self, program: Program, findings: list[Finding]
    ) -> None:
        for mod in program.modules:
            snippet = mod.ctx.snippet
            for cls in mod.classes.values():
                for attr, lockname in cls.guarded.items():
                    if self._class_lock_token(program, cls, lockname):
                        continue
                    line = cls.guard_lines.get(attr, cls.node.lineno)
                    findings.append(
                        Finding(
                            rule="lock-bad-annotation",
                            path=mod.path,
                            line=line,
                            col=0,
                            message=(
                                f"guarded-by names '{lockname}' but "
                                f"{cls.name} declares no such lock"
                            ),
                            snippet=snippet(line),
                        )
                    )
            for name, lockname in mod.guarded_globals.items():
                if mod.lock_token(lockname) is None:
                    line = mod.guard_lines.get(name, 1)
                    findings.append(
                        Finding(
                            rule="lock-bad-annotation",
                            path=mod.path,
                            line=line,
                            col=0,
                            message=(
                                f"guarded-by names '{lockname}' but the "
                                "module declares no such lock"
                            ),
                            snippet=snippet(line),
                        )
                    )
            for func in mod.all_functions:
                for lockname in func.requires:
                    if program.entry_held(func):
                        continue
                    findings.append(
                        Finding(
                            rule="lock-bad-annotation",
                            path=mod.path,
                            line=func.node.lineno,
                            col=0,
                            message=(
                                f"requires-lock names '{lockname}' but "
                                "it resolves to no known lock"
                            ),
                            snippet=snippet(func.node.lineno),
                        )
                    )
                for var, lockname in func.guarded_locals.items():
                    if lockname in func.local_locks:
                        continue
                    findings.append(
                        Finding(
                            rule="lock-bad-annotation",
                            path=mod.path,
                            line=func.node.lineno,
                            col=0,
                            message=(
                                f"guarded-by on local '{var}' names "
                                f"'{lockname}' but {func.name}() declares "
                                "no such local lock"
                            ),
                            snippet=snippet(func.node.lineno),
                        )
                    )
            for ann in mod.guard_annotations:
                if not ann.used:
                    findings.append(
                        Finding(
                            rule="lock-bad-annotation",
                            path=mod.path,
                            line=ann.line,
                            col=0,
                            message=(
                                "guarded-by annotation attaches to no "
                                "attribute/global/local declaration"
                            ),
                            snippet=snippet(ann.line),
                        )
                    )
            for ann in mod.require_annotations:
                if not ann.used:
                    findings.append(
                        Finding(
                            rule="lock-bad-annotation",
                            path=mod.path,
                            line=ann.line,
                            col=0,
                            message=(
                                "requires-lock annotation attaches to no "
                                "function definition"
                            ),
                            snippet=snippet(ann.line),
                        )
                    )

    @staticmethod
    def _class_lock_token(program: Program, cls, lockname: str) -> str | None:
        token = cls.lock_token(lockname)
        if token is not None:
            return token
        for base in cls.base_names:
            for base_cls in program.resolve_class_name(base, cls.module):
                token = base_cls.lock_token(lockname)
                if token is not None:
                    return token
        return None

    # -- per-function checks ------------------------------------------------

    def _check_function(
        self,
        program: Program,
        graph: CallGraph,
        func: FunctionInfo,
        may_block: dict[int, bool],
        findings: list[Finding],
    ) -> None:
        mod = func.module
        snippet = mod.ctx.snippet
        guard_exempt = (
            func.class_info is not None and func.name in EXEMPT_METHODS
        )
        cfg = program.cfg_of(func)
        for block in cfg.blocks:
            held = block.held
            for stmt in block.stmts:
                for expr in shallow_exprs(stmt):
                    for node in ast.walk(expr):
                        if isinstance(node, ast.Attribute):
                            if not guard_exempt:
                                self._check_attr_access(
                                    program, func, node, held, findings
                                )
                        elif isinstance(node, ast.Name):
                            if not guard_exempt:
                                self._check_name_access(
                                    func, node, held, findings
                                )
                        elif isinstance(node, ast.Call):
                            self._check_call(
                                program,
                                graph,
                                func,
                                node,
                                held,
                                may_block,
                                findings,
                            )

    def _check_attr_access(
        self,
        program: Program,
        func: FunctionInfo,
        node: ast.Attribute,
        held: frozenset,
        findings: list[Finding],
    ) -> None:
        if not (
            isinstance(node.value, ast.Name) and node.value.id == "self"
        ):
            return
        cls = func.class_info
        if cls is None:
            return
        lockname = cls.guarded.get(node.attr)
        source_cls = cls
        if lockname is None:
            for base in cls.base_names:
                for base_cls in program.resolve_class_name(
                    base, cls.module
                ):
                    if node.attr in base_cls.guarded:
                        lockname = base_cls.guarded[node.attr]
                        source_cls = base_cls
                        break
                if lockname is not None:
                    break
        if lockname is None:
            return
        token = self._class_lock_token(program, source_cls, lockname)
        if token is None or token in held:
            return
        findings.append(
            Finding(
                rule="lock-guarded-attr",
                path=func.module.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"self.{node.attr} is guarded-by {lockname} but "
                    f"{token} is not held here"
                ),
                snippet=func.module.ctx.snippet(node.lineno),
            )
        )

    def _check_name_access(
        self,
        func: FunctionInfo,
        node: ast.Name,
        held: frozenset,
        findings: list[Finding],
    ) -> None:
        mod = func.module
        # Module global guarded at module scope.
        lockname = mod.guarded_globals.get(node.id)
        if lockname is not None and node.id not in func.param_names():
            token = mod.lock_token(lockname)
            if token is not None and token not in held:
                findings.append(
                    Finding(
                        rule="lock-guarded-attr",
                        path=mod.path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"module global {node.id} is guarded-by "
                            f"{lockname} but {token} is not held here"
                        ),
                        snippet=mod.ctx.snippet(node.lineno),
                    )
                )
            return
        # Function local of an ancestor scope (closure capture): the
        # declaring body is exempt, nested functions are checked.
        scope = func.parent
        while scope is not None:
            if node.id in scope.guarded_locals:
                guard = scope.guarded_locals[node.id]
                canon = scope.local_locks.get(guard, guard)
                token = f"{scope.name}.{canon}"
                if token not in held:
                    findings.append(
                        Finding(
                            rule="lock-guarded-attr",
                            path=mod.path,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                f"captured local {node.id} is guarded-by "
                                f"{guard} but {token} is not held here"
                            ),
                            snippet=mod.ctx.snippet(node.lineno),
                        )
                    )
                return
            scope = scope.parent

    def _check_call(
        self,
        program: Program,
        graph: CallGraph,
        func: FunctionInfo,
        node: ast.Call,
        held: frozenset,
        may_block: dict[int, bool],
        findings: list[Finding],
    ) -> None:
        mod = func.module
        targets, _ = graph.resolve_call(node, func)
        # requires-lock obligations hold regardless of our own held set.
        for target in targets:
            needed = program.entry_held(target)
            missing = needed - held
            if needed and missing:
                findings.append(
                    Finding(
                        rule="lock-requires",
                        path=mod.path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"{target.name}() requires "
                            f"{', '.join(sorted(missing))} but it is not "
                            "held at this call site"
                        ),
                        snippet=mod.ctx.snippet(node.lineno),
                    )
                )
        if not held:
            return
        name = call_name(node)
        if name in WAITER_NAMES and isinstance(node.func, ast.Attribute):
            tok = program.resolve_lock_expr(node.func.value, func)
            if tok is not None and tok in held:
                return  # cond.wait() on the held lock: the idiom itself
        reason = _is_blocking_name(node)
        if reason is None and name in WAITER_NAMES:
            reason = f"{name}() blocks (receiver is not the held lock)"
        if reason is None:
            for target in targets:
                if may_block.get(id(target), False):
                    reason = f"{target.name}() may block"
                    break
        if reason is not None:
            held_list = ", ".join(sorted(held))
            findings.append(
                Finding(
                    rule="lock-blocking-call",
                    path=mod.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"{reason} while holding {held_list}"
                    ),
                    snippet=mod.ctx.snippet(node.lineno),
                )
            )
