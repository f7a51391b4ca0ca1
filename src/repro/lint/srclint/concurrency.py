"""C700 — concurrency sanitizer over the loop-plus-task-threads runtime.

The live runtime (``live/transport.py``, ``live/node.py``) runs the
paper's entity web on one ``selectors`` loop thread per endpoint plus
one worker thread per task, with one lock per class between them and
their callers.  Every shared instance attribute those threads touch is
a race unless that lock covers it — and every blocking call made
*while holding* it stalls the loop behind real I/O.  This pass rebuilds
that threading model statically and checks it; ``docs/live.md``
("Threading model") is the prose twin.

========  ========  =====================================================
code      severity  finding
========  ========  =====================================================
C701      error     shared attribute written in one thread context and
                    accessed from another with no common lock — or a
                    public attribute written lock-free in a
                    thread-spawning class (implied external reader),
                    unless it is a counter only one context increments
C702      error     blocking call (socket I/O, ``time.sleep``,
                    ``join()``, subprocess) while holding a lock
C705      warning   mutable module-level state in a thread-spawning
                    module, mutated from function bodies
========  ========  =====================================================

The model: a class is *threaded* when it spawns
``threading.Thread(target=self.method)`` anywhere; each such target's
transitive self-call closure is one thread context, and every method
outside all closures — the public surface, and what an endpoint's loop
calls back — is the implied "caller" context.
``__init__`` runs before any thread exists, so its accesses are exempt.
Attributes holding ``Lock``/``RLock`` are the lock vocabulary;
``Event``/``Condition``/``queue.Queue``/``deque`` and friends
synchronise internally and are exempt.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..diagnostics import Diagnostic, Severity
from .model import PyModule, dotted_name

#: Factories whose result is a mutual-exclusion lock.
_LOCK_FACTORIES = frozenset({"threading.Lock", "threading.RLock"})

#: Factories whose result synchronises internally — attributes holding
#: these never need an external lock.
_SYNC_EXEMPT_FACTORIES = frozenset({
    "threading.Event", "threading.Condition", "threading.Semaphore",
    "threading.BoundedSemaphore", "threading.Barrier",
    "queue.Queue", "queue.LifoQueue", "queue.PriorityQueue",
    "queue.SimpleQueue", "collections.deque",
})

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "discard", "remove", "pop",
    "popleft", "popitem", "clear", "update", "setdefault",
    "appendleft", "put", "put_nowait",
})

#: Dotted call targets that block the calling thread.
_BLOCKING_DOTTED = frozenset({
    "time.sleep", "select.select", "socket.create_connection",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
})

#: Method names that block regardless of receiver (socket/transport
#: verbs plus ``wait``; ``join`` only with no positional argument, so
#: ``",".join(parts)`` stays exempt).
_BLOCKING_METHODS = frozenset({
    "accept", "recv", "recv_into", "recvfrom", "sendall", "sendto",
    "connect", "send_message", "send_state", "wait",
})

#: Module-level factories producing mutable containers (C705).
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "collections.defaultdict",
    "collections.deque", "collections.Counter",
    "collections.OrderedDict",
})

#: The context of methods no thread entry reaches: external callers.
_EXTERNAL = "<caller>"


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` → ``"X"``; anything else → None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


@dataclass
class _Access:
    attr: str
    method: str
    kind: str  # "read" | "write" | "bump" (an augmented assignment)
    line: int
    held: FrozenSet[str]


@dataclass
class _ClassModel:
    """Everything the checks need about one threaded class."""

    node: ast.ClassDef
    methods: Dict[str, ast.FunctionDef]
    entries: Set[str] = field(default_factory=set)
    locks: Set[str] = field(default_factory=set)
    sync_exempt: Set[str] = field(default_factory=set)
    accesses: List[_Access] = field(default_factory=list)
    #: (line, label, held, method) for every blocking call site.
    blocking: List[Tuple[int, str, FrozenSet[str], str]] = (
        field(default_factory=list))
    #: (line, target method, held, method) for every self-call site.
    self_calls: List[Tuple[int, str, FrozenSet[str], str]] = (
        field(default_factory=list))

    def contexts_of(self, method: str) -> FrozenSet[str]:
        owning = frozenset(
            entry for entry, members in self._closures.items()
            if method in members
        )
        return owning or frozenset({_EXTERNAL})

    def finalize(self) -> None:
        call_graph: Dict[str, Set[str]] = {}
        for _, target, _, method in self.self_calls:
            call_graph.setdefault(method, set()).add(target)
        self._closures: Dict[str, Set[str]] = {}
        for entry in self.entries:
            seen: Set[str] = set()
            stack = [entry]
            while stack:
                name = stack.pop()
                if name in seen:
                    continue
                seen.add(name)
                stack.extend(sorted(call_graph.get(name, ())))
            self._closures[entry] = seen


def _collect_class(module: PyModule, node: ast.ClassDef) -> _ClassModel:
    methods = {
        n.name: n for n in node.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    model = _ClassModel(node=node, methods=methods)

    # Thread entries: threading.Thread(target=self.method) anywhere in
    # the class (constructor, workers spawning sub-workers, ...).
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        if dotted_name(module, call.func) != "threading.Thread":
            continue
        for kw in call.keywords:
            if kw.arg == "target":
                target = _self_attr(kw.value)
                if target is not None and target in methods:
                    model.entries.add(target)

    # Lock and sync-exempt vocabulary: self.X = threading.Lock() etc.
    for stmt in ast.walk(node):
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not isinstance(value, ast.Call):
            continue
        factory = dotted_name(module, value.func)
        for target in targets:
            attr = _self_attr(target)
            if attr is None:
                continue
            if factory in _LOCK_FACTORIES:
                model.locks.add(attr)
            elif factory in _SYNC_EXEMPT_FACTORIES:
                model.sync_exempt.add(attr)

    for name, fn in methods.items():
        _scan_method(module, model, name, fn)
    model.finalize()
    return model


def _scan_method(
    module: PyModule,
    model: _ClassModel,
    method: str,
    fn: ast.FunctionDef,
) -> None:
    """One pass over a method body tracking the locks ``with`` holds (a
    manual ``acquire()`` holds nothing here: what it guards is C701)."""

    def lock_in(expr: ast.AST) -> Optional[str]:
        attr = _self_attr(expr)
        return attr if attr in model.locks else None

    def record_write(attr: Optional[str], line: int,
                     held: FrozenSet[str], kind: str = "write") -> None:
        if attr is not None:
            model.accesses.append(_Access(attr, method, kind, line, held))

    def visit(node: ast.AST, held: FrozenSet[str]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                visit(item.context_expr, held)
                lock = lock_in(item.context_expr)
                if lock is not None:
                    inner = inner | {lock}
            for stmt in node.body:
                visit(stmt, inner)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            kind = "bump" if isinstance(node, ast.AugAssign) else "write"
            for target in targets:
                for sub in ast.walk(target):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)):
                        record_write(_self_attr(sub), node.lineno, held,
                                     kind)
                    elif isinstance(sub, ast.Subscript):
                        record_write(_self_attr(sub.value),
                                     node.lineno, held)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                record_write(_self_attr(target), node.lineno, held)
                if isinstance(target, ast.Subscript):
                    record_write(_self_attr(target.value),
                                 node.lineno, held)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                receiver = _self_attr(func.value)
                if func.attr in _MUTATOR_METHODS and receiver is not None:
                    record_write(receiver, node.lineno, held)
                target = _self_attr(func)
                if target is not None and target in model.methods:
                    model.self_calls.append(
                        (node.lineno, target, held, method))
            label = None
            dotted = dotted_name(module, func)
            if dotted in _BLOCKING_DOTTED:
                label = dotted
            elif isinstance(func, ast.Attribute):
                if func.attr in _BLOCKING_METHODS:
                    label = f".{func.attr}()"
                elif func.attr == "join" and not node.args:
                    label = ".join()"
            if label is not None:
                model.blocking.append((node.lineno, label, held, method))
        elif (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)):
            attr = _self_attr(node)
            if attr is not None and attr not in model.methods:
                model.accesses.append(
                    _Access(attr, method, "read", node.lineno, held))

        for child in ast.iter_child_nodes(node):
            visit(child, held)

    for stmt in fn.body:
        visit(stmt, frozenset())


def _check_class(module: PyModule, model: _ClassModel) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    cls = model.node.name

    relevant = [
        a for a in model.accesses
        if a.method != "__init__"
        and a.attr not in model.locks
        and a.attr not in model.sync_exempt
    ]
    by_attr: Dict[str, List[_Access]] = {}
    for access in relevant:
        by_attr.setdefault(access.attr, []).append(access)

    # C701 — unshielded shared attributes.
    for attr in sorted(by_attr):
        accesses = by_attr[attr]
        writes = [a for a in accesses if a.kind != "read"]
        if not writes:
            continue
        contexts: Set[str] = set()
        for access in accesses:
            contexts |= model.contexts_of(access.method)
        common = frozenset.intersection(*(a.held for a in accesses))
        first = min(writes, key=lambda a: a.line)
        if len(contexts) >= 2 and not common:
            names = ", ".join(sorted(contexts))
            diags.append(Diagnostic(
                code="C701", severity=Severity.ERROR,
                message=(
                    f"attribute '{attr}' of '{cls}' is shared between "
                    f"thread contexts ({names}) with no common lock "
                    "held across its accesses"
                ),
                file=module.path, line=first.line, obj=cls,
            ))
            continue
        # A public attribute written lock-free in a threaded class has
        # an implied reader: the code that made it public.  A counter
        # that one context alone increments cannot tear under it.
        if not attr.startswith("_"):
            bare = [w for w in writes if not w.held]
            writers = {c for w in writes
                       for c in model.contexts_of(w.method)}
            if bare and not (len(writers) == 1
                             and all(w.kind == "bump" for w in writes)):
                diags.append(Diagnostic(
                    code="C701", severity=Severity.ERROR,
                    message=(
                        f"public attribute '{attr}' of threaded class "
                        f"'{cls}' is written without holding any lock; "
                        "external readers can observe torn state"
                    ),
                    file=module.path, line=bare[0].line, obj=cls,
                ))

    # C702 — blocking while holding a lock.  A self-method is blocking
    # transitively when its body (or a callee's) blocks.
    blocking_methods: Set[str] = {m for _, _, _, m in model.blocking}
    changed = True
    while changed:
        changed = False
        for _, target, _, caller in model.self_calls:
            if target in blocking_methods and caller not in blocking_methods:
                blocking_methods.add(caller)
                changed = True
    sites = [
        (line, label, held) for line, label, held, _ in model.blocking
        if held
    ] + [
        (line, f"self.{target}() [blocking]", held)
        for line, target, held, _ in model.self_calls
        if held and target in blocking_methods
    ]
    for line, label, held in sorted(sites):
        locks = ", ".join(sorted(held))
        diags.append(Diagnostic(
            code="C702", severity=Severity.ERROR,
            message=(
                f"blocking call {label} while holding lock(s) "
                f"[{locks}]; every other thread needing them stalls "
                "behind real I/O"
            ),
            file=module.path, line=line, obj=cls,
        ))
    return diags


def _module_spawns_threads(module: PyModule) -> bool:
    for node in ast.walk(module.tree):
        if (isinstance(node, ast.Call)
                and dotted_name(module, node.func) == "threading.Thread"):
            return True
    return False


def _check_module_state(module: PyModule) -> List[Diagnostic]:
    """C705 — mutable module-level state in a threaded module."""
    if not _module_spawns_threads(module):
        return []
    mutable: Dict[str, int] = {}
    for node in module.tree.body:
        if not (isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        name = node.targets[0].id
        if name.startswith("__") or name.upper() == name:
            continue
        value = node.value
        is_container = isinstance(value, (
            ast.List, ast.Dict, ast.Set,
            ast.ListComp, ast.DictComp, ast.SetComp,
        ))
        if isinstance(value, ast.Call):
            is_container = (
                dotted_name(module, value.func) in _MUTABLE_FACTORIES)
        if is_container:
            mutable[name] = node.lineno

    if not mutable:
        return []
    diags: List[Diagnostic] = []
    mutated: Dict[str, int] = {}
    for fn in ast.walk(module.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared_global = {
            name for node in ast.walk(fn)
            if isinstance(node, ast.Global) for name in node.names
        }
        for node in ast.walk(fn):
            name: Optional[str] = None
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATOR_METHODS
                    and isinstance(node.func.value, ast.Name)):
                name = node.func.value.id
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)):
                        name = target.value.id
                    elif (isinstance(target, ast.Name)
                            and target.id in declared_global):
                        name = target.id
            if name in mutable and name not in mutated:
                mutated[name] = node.lineno
    for name in sorted(mutated):
        diags.append(Diagnostic(
            code="C705", severity=Severity.WARNING,
            message=(
                f"module-level mutable '{name}' is mutated from "
                "function bodies in a thread-spawning module; every "
                "thread entry shares it unsynchronised"
            ),
            file=module.path, line=mutable[name], obj=name,
        ))
    return diags


def lint_concurrency(
    modules: Sequence[PyModule], project=None,
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for module in modules:
        diags.extend(_check_module_state(module))
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            model = _collect_class(module, node)
            if not model.entries:
                continue  # no thread ever enters this class
            diags.extend(_check_class(module, model))
    return diags
