"""Whole-program model: modules, classes, functions, lock annotations.

:class:`Program` parses a set of files once and indexes what the
whole-program checkers need:

* every class with its methods, its lock attributes (``threading.Lock``
  / ``RLock`` / ``Condition``, including dataclass
  ``field(default_factory=threading.Lock)`` declarations), and the
  *canonical alias map* -- ``self._need = threading.Condition(self._lock)``
  makes ``_need`` an alias of ``_lock``, so ``with self._need:`` counts
  as holding ``_lock``;
* ``# guarded-by: <lockname>`` annotations binding shared attributes
  (class attrs, module globals, or function locals captured by nested
  functions) to the lock that must be held around every access;
* ``# requires-lock: <lockname>`` annotations on functions whose
  callers must already hold the lock (the lock is in the held set at
  entry, and call sites are checked);
* best-effort static types for ``self.<attr>`` fields, locals, module
  globals, parameters, and function returns (from assignments of
  ``ClassName(...)`` and from annotations), which the call graph uses
  to resolve method calls across classes and modules.

Annotation comments attach exactly like lint suppressions: on the
declaring line, or standing alone on the line directly above it.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.base import FileContext
from repro.analysis.ir.cfg import CFG, build_cfg

_GUARDED = re.compile(r"#\s*guarded-by:\s*(?P<lock>[A-Za-z_][A-Za-z0-9_]*)")
_REQUIRES = re.compile(r"#\s*requires-lock:\s*(?P<lock>[A-Za-z_][A-Za-z0-9_]*)")

_LOCK_CTORS = {"Lock", "RLock"}
_CONDITION_CTORS = {"Condition"}


@dataclass
class Annotation:
    """One parsed ``guarded-by`` / ``requires-lock`` comment."""

    line: int
    lock: str
    standalone: bool
    used: bool = False

    def covers(self, line: int) -> bool:
        return line == self.line or (self.standalone and line == self.line + 1)


def _parse_annotations(
    source: str,
) -> tuple[list[Annotation], list[Annotation]]:
    guarded: list[Annotation] = []
    requires: list[Annotation] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            standalone = tok.line.strip().startswith("#")
            match = _GUARDED.search(tok.string)
            if match:
                guarded.append(
                    Annotation(tok.start[0], match.group("lock"), standalone)
                )
            match = _REQUIRES.search(tok.string)
            if match:
                requires.append(
                    Annotation(tok.start[0], match.group("lock"), standalone)
                )
    except (tokenize.TokenError, SyntaxError, IndentationError):
        pass
    return guarded, requires


def _find_annotation(
    annotations: list[Annotation], line: int
) -> Annotation | None:
    for ann in annotations:
        if ann.covers(line):
            ann.used = True
            return ann
    return None


def _annotation_names(node: ast.expr | None) -> list[str]:
    """Every plain identifier inside a type annotation.

    ``MetricsRegistry | None`` -> ["MetricsRegistry"], ``list[Span]``
    -> ["list", "Span"], ``"BatchScheduler"`` -> ["BatchScheduler"].
    """
    if node is None:
        return []
    names: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # A quoted forward reference; take the head identifier.
            head = sub.value.split("[")[0].strip()
            if head.isidentifier():
                names.append(head)
    return names


def _lock_ctor_kind(value: ast.expr) -> tuple[str, ast.expr | None] | None:
    """Classify a lock-ish constructor expression.

    Returns ``("lock", None)`` for ``threading.Lock()`` / ``RLock()``,
    ``("condition", base_expr)`` for ``threading.Condition(base)``
    (``base_expr`` None when default), and recognizes the dataclass
    spelling ``field(default_factory=threading.Lock)``.
    """
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else ""
    )
    if name in _LOCK_CTORS:
        return ("lock", None)
    if name in _CONDITION_CTORS:
        base = value.args[0] if value.args else None
        return ("condition", base)
    if name == "field":
        for kw in value.keywords:
            if kw.arg == "default_factory":
                factory = kw.value
                fname = (
                    factory.attr
                    if isinstance(factory, ast.Attribute)
                    else factory.id if isinstance(factory, ast.Name) else ""
                )
                if fname in _LOCK_CTORS:
                    return ("lock", None)
                if fname in _CONDITION_CTORS:
                    return ("condition", None)
    return None


@dataclass
class FunctionInfo:
    """One function or method (nested functions included)."""

    module: "ModuleInfo"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_info: "ClassInfo | None" = None
    parent: "FunctionInfo | None" = None
    requires: tuple[str, ...] = ()
    local_locks: dict[str, str] = field(default_factory=dict)  # name -> canonical
    guarded_locals: dict[str, str] = field(default_factory=dict)  # var -> lock

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def qualname(self) -> str:
        parts = [self.module.name]
        if self.class_info is not None:
            parts.append(self.class_info.name)
        elif self.parent is not None:
            parts.append(self.parent.name)
        parts.append(self.name)
        return ".".join(parts)

    @property
    def is_method(self) -> bool:
        return self.class_info is not None

    def param_names(self) -> list[str]:
        args = self.node.args
        return [
            a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
        ]


@dataclass
class ClassInfo:
    """One class: methods, lock attributes, guard bindings, attr types."""

    module: "ModuleInfo"
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    lock_attrs: dict[str, str] = field(default_factory=dict)  # attr -> canonical
    guarded: dict[str, str] = field(default_factory=dict)  # attr -> lock name
    guard_lines: dict[str, int] = field(default_factory=dict)  # attr -> decl line
    attr_types: dict[str, list[str]] = field(default_factory=dict)
    base_names: list[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.node.name

    def canonical_lock(self, attr: str) -> str | None:
        """Alias-resolve an attribute to its canonical lock, if a lock."""
        seen = set()
        cur = attr
        while cur in self.lock_attrs and cur not in seen:
            seen.add(cur)
            nxt = self.lock_attrs[cur]
            if nxt == cur:
                return cur
            cur = nxt
        return cur if cur in self.lock_attrs or cur in seen else None

    def lock_token(self, attr: str) -> str | None:
        canon = self.canonical_lock(attr)
        if canon is None:
            return None
        return f"{self.name}.{canon}"


@dataclass
class ModuleInfo:
    """One parsed source file and its indexes."""

    ctx: FileContext
    name: str  # dotted module name, best effort
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    all_functions: list[FunctionInfo] = field(default_factory=list)
    module_locks: dict[str, str] = field(default_factory=dict)
    guarded_globals: dict[str, str] = field(default_factory=dict)
    guard_lines: dict[str, int] = field(default_factory=dict)
    global_types: dict[str, list[str]] = field(default_factory=dict)
    module_aliases: dict[str, str] = field(default_factory=dict)
    imported_names: dict[str, tuple[str, str]] = field(default_factory=dict)
    guard_annotations: list[Annotation] = field(default_factory=list)
    require_annotations: list[Annotation] = field(default_factory=list)

    @property
    def path(self) -> str:
        return self.ctx.path

    @property
    def basename(self) -> str:
        return self.name.rsplit(".", 1)[-1]

    def lock_token(self, name: str) -> str | None:
        if name in self.module_locks:
            return f"{self.basename}.{name}"
        return None


def module_name_for(path: str) -> str:
    """Dotted module name from a path, rooted at ``src`` when present."""
    parts = Path(str(path).replace("\\", "/")).with_suffix("").parts
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    return ".".join(parts) if parts else str(path)


class Program:
    """All parsed modules plus lazy CFGs and lock resolution."""

    def __init__(self, modules: list[ModuleInfo]):
        self.modules = modules
        self.by_module_name = {m.name: m for m in modules}
        self.by_path = {m.path: m for m in modules}
        # Class name -> every ClassInfo with that name (cross-module
        # lookups tolerate duplicates by returning all candidates).
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        for mod in modules:
            for cls in mod.classes.values():
                self.classes_by_name.setdefault(cls.name, []).append(cls)
        self._cfgs: dict[int, CFG] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def load(cls, paths: list) -> "Program":
        modules = []
        for path in paths:
            path = Path(path)
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (OSError, SyntaxError):
                continue  # the per-file runner reports these
            ctx = FileContext(path=str(path), source=source, tree=tree)
            modules.append(cls.module_from_context(ctx))
        return cls(modules)

    @classmethod
    def from_contexts(cls, contexts: list[FileContext]) -> "Program":
        return cls([cls.module_from_context(ctx) for ctx in contexts])

    @staticmethod
    def module_from_context(ctx: FileContext) -> ModuleInfo:
        mod = ModuleInfo(ctx=ctx, name=module_name_for(ctx.path))
        mod.guard_annotations, mod.require_annotations = _parse_annotations(
            ctx.source
        )
        _index_module(mod)
        return mod

    # -- lookups ------------------------------------------------------------

    def resolve_class_name(
        self, name: str, mod: ModuleInfo
    ) -> list[ClassInfo]:
        """A class name as visible from ``mod`` (local, imported, global)."""
        if name in mod.classes:
            return [mod.classes[name]]
        if name in mod.imported_names:
            target_mod, orig = mod.imported_names[name]
            target = self.by_module_name.get(target_mod)
            if target is not None and orig in target.classes:
                return [target.classes[orig]]
        return self.classes_by_name.get(name, [])

    def method_of(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        """Method lookup through the (program-visible) base chain."""
        seen: set[int] = set()
        stack = [cls]
        while stack:
            cur = stack.pop()
            if id(cur) in seen:
                continue
            seen.add(id(cur))
            if name in cur.methods:
                return cur.methods[name]
            for base in cur.base_names:
                stack.extend(self.resolve_class_name(base, cur.module))
        return None

    # -- lock resolution ----------------------------------------------------

    def resolve_lock_expr(
        self, expr: ast.expr, func: FunctionInfo
    ) -> str | None:
        """Map a ``with`` item (or lock-ish expression) to a lock token."""
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            if expr.value.id == "self" and func.class_info is not None:
                token = func.class_info.lock_token(expr.attr)
                if token is not None:
                    return token
                # inherited lock attribute
                for base in func.class_info.base_names:
                    for base_cls in self.resolve_class_name(
                        base, func.module
                    ):
                        token = base_cls.lock_token(expr.attr)
                        if token is not None:
                            return token
                return None
        if isinstance(expr, ast.Name):
            scope: FunctionInfo | None = func
            while scope is not None:
                if expr.id in scope.local_locks:
                    return f"{scope.name}.{scope.local_locks[expr.id]}"
                scope = scope.parent
            return func.module.lock_token(expr.id)
        return None

    def entry_held(self, func: FunctionInfo) -> frozenset:
        held = set()
        for name in func.requires:
            token = self._requires_token(name, func)
            if token is not None:
                held.add(token)
        return frozenset(held)

    def _requires_token(self, name: str, func: FunctionInfo) -> str | None:
        if func.class_info is not None:
            token = func.class_info.lock_token(name)
            if token is not None:
                return token
        return func.module.lock_token(name)

    def cfg_of(self, func: FunctionInfo) -> CFG:
        key = id(func.node)
        cfg = self._cfgs.get(key)
        if cfg is None:
            cfg = build_cfg(
                func.node,
                resolve_lock=lambda e: self.resolve_lock_expr(e, func),
                entry_held=self.entry_held(func),
            )
            self._cfgs[key] = cfg
        return cfg


# -- module indexing ----------------------------------------------------------


def _index_module(mod: ModuleInfo) -> None:
    for stmt in mod.ctx.tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                mod.module_aliases[alias.asname or alias.name] = alias.name
        elif isinstance(stmt, ast.ImportFrom) and stmt.module:
            for alias in stmt.names:
                mod.imported_names[alias.asname or alias.name] = (
                    stmt.module,
                    alias.name,
                )
        elif isinstance(stmt, ast.ClassDef):
            _index_class(mod, stmt)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(module=mod, node=stmt)
            mod.functions[stmt.name] = info
            _index_function(mod, info)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            _index_module_assign(mod, stmt)


def _index_module_assign(
    mod: ModuleInfo, stmt: ast.Assign | ast.AnnAssign
) -> None:
    targets = (
        stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    )
    names = [t.id for t in targets if isinstance(t, ast.Name)]
    if not names:
        return
    value = stmt.value
    if value is not None:
        kind = _lock_ctor_kind(value)
        if kind is not None:
            for name in names:
                base = kind[1]
                if (
                    kind[0] == "condition"
                    and isinstance(base, ast.Name)
                    and base.id in mod.module_locks
                ):
                    mod.module_locks[name] = mod.module_locks[base.id]
                else:
                    mod.module_locks[name] = name
    if isinstance(stmt, ast.AnnAssign):
        types = _annotation_names(stmt.annotation)
        if types:
            mod.global_types[names[0]] = types
    ann = _find_annotation(mod.guard_annotations, stmt.lineno)
    if ann is not None:
        for name in names:
            mod.guarded_globals[name] = ann.lock
            mod.guard_lines[name] = stmt.lineno


def _index_class(mod: ModuleInfo, node: ast.ClassDef) -> None:
    cls = ClassInfo(module=mod, node=node)
    cls.base_names = [
        b.id if isinstance(b, ast.Name) else b.attr
        for b in node.bases
        if isinstance(b, (ast.Name, ast.Attribute))
    ]
    mod.classes[node.name] = cls
    # Class-body declarations (dataclass fields, class attrs).
    for stmt in node.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names:
                continue
            if stmt.value is not None:
                kind = _lock_ctor_kind(stmt.value)
                if kind is not None:
                    for name in names:
                        cls.lock_attrs[name] = name
            if isinstance(stmt, ast.AnnAssign):
                # ``_lock: threading.Lock`` annotation alone marks a lock.
                ann_names = _annotation_names(stmt.annotation)
                if any(n in _LOCK_CTORS for n in ann_names):
                    for name in names:
                        cls.lock_attrs.setdefault(name, name)
                else:
                    # Dataclass fields: the annotation types the attr.
                    for name in names:
                        for t in ann_names:
                            cls.attr_types.setdefault(name, []).append(t)
            ann = _find_annotation(mod.guard_annotations, stmt.lineno)
            if ann is not None:
                for name in names:
                    cls.guarded[name] = ann.lock
                    cls.guard_lines[name] = stmt.lineno
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(module=mod, node=stmt, class_info=cls)
            cls.methods[stmt.name] = info
            _index_function(mod, info)
            _scan_self_assigns(mod, cls, stmt)


def _scan_self_assigns(
    mod: ModuleInfo,
    cls: ClassInfo,
    method: ast.FunctionDef | ast.AsyncFunctionDef,
) -> None:
    """Find ``self.X = ...`` lock declarations, guard annotations, and
    attribute types anywhere in a method (usually ``__init__``)."""
    for stmt in ast.walk(method):
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        attrs = [
            t.attr
            for t in targets
            if isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name)
            and t.value.id == "self"
        ]
        if not attrs:
            continue
        value = stmt.value
        if value is not None:
            kind = _lock_ctor_kind(value)
            if kind is not None:
                base = kind[1]
                for attr in attrs:
                    if (
                        kind[0] == "condition"
                        and isinstance(base, ast.Attribute)
                        and isinstance(base.value, ast.Name)
                        and base.value.id == "self"
                    ):
                        cls.lock_attrs[attr] = base.attr
                    else:
                        cls.lock_attrs[attr] = attr
            elif isinstance(value, ast.Call) and isinstance(
                value.func, ast.Name
            ):
                for attr in attrs:
                    cls.attr_types.setdefault(attr, []).append(value.func.id)
        if isinstance(stmt, ast.AnnAssign):
            types = _annotation_names(stmt.annotation)
            for attr in attrs:
                for t in types:
                    cls.attr_types.setdefault(attr, []).append(t)
        ann = _find_annotation(mod.guard_annotations, stmt.lineno)
        if ann is not None:
            for attr in attrs:
                cls.guarded[attr] = ann.lock
                cls.guard_lines.setdefault(attr, stmt.lineno)


def _index_function(mod: ModuleInfo, info: FunctionInfo) -> None:
    """Requires-lock annotation, local locks/guards, nested functions."""
    mod.all_functions.append(info)
    node = info.node
    ann = _find_annotation(mod.require_annotations, node.lineno)
    if ann is None and node.decorator_list:
        ann = _find_annotation(
            mod.require_annotations, node.decorator_list[0].lineno
        )
    if ann is not None:
        info.requires = (ann.lock,)
    for stmt in node.body:
        _scan_function_stmt(mod, info, stmt)


def _scan_function_stmt(
    mod: ModuleInfo, info: FunctionInfo, stmt: ast.stmt
) -> None:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        nested = FunctionInfo(
            module=mod,
            node=stmt,
            class_info=None,
            parent=info,
        )
        _index_function(mod, nested)
        return
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if names and stmt.value is not None:
            kind = _lock_ctor_kind(stmt.value)
            if kind is not None:
                for name in names:
                    base = kind[1]
                    if (
                        kind[0] == "condition"
                        and isinstance(base, ast.Name)
                        and base.id in info.local_locks
                    ):
                        info.local_locks[name] = info.local_locks[base.id]
                    else:
                        info.local_locks[name] = name
        if names:
            ann = _find_annotation(mod.guard_annotations, stmt.lineno)
            if ann is not None:
                for name in names:
                    info.guarded_locals[name] = ann.lock
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.stmt):
            _scan_function_stmt(mod, info, child)
    for fld in ("body", "orelse", "finalbody"):
        pass  # handled by iter_child_nodes above
