"""T500 — trace discipline against the stable event catalogue.

PR 2's tracing contract: every emitted record names an ``EVENTS``
catalogue entry, and the ``kind`` declared in the catalogue matches
how the site emits it (``.event()`` for instants, ``.begin()``/
``.span()`` for spans).  That every ``EV_*`` constant is catalogued
and emitted somewhere is held by ``tests/trace/test_docs_catalogue.py``;
this pass checks the emit sites themselves and adds span open/close
pairing (T505), which no test covers.

========  ========  =====================================================
code      severity  finding
========  ========  =====================================================
T501      error     emit site names an event missing from the catalogue
T504      error     kind mismatch: ``.event()`` on a span, or
                    ``.begin()``/``.span()`` on an instant event
T505      error     span leak: ``tracer.begin(...)`` bound to a local
                    that is never ``.end()``-ed and never escapes
========  ========  =====================================================

The catalogue module is discovered by shape (an ``EVENTS`` dict
comprehension over spec constructor calls plus ``EV_*`` string
constants); T501/T504 stay silent when no catalogue is in the linted
file set.  T505 is purely local and always runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..diagnostics import Diagnostic, Severity
from .model import (
    PyModule,
    imports_from,
    module_basename,
    str_const,
)

_EMIT_ATTRS = frozenset({"event", "begin", "span"})
_SPAN_EMITS = frozenset({"begin", "span"})
_KINDS = frozenset({"event", "span"})


@dataclass
class EventCatalogue:
    """The discovered catalogue: names, kinds and their EV_ constants."""

    module: PyModule
    #: event name → declared kind.
    kinds: Dict[str, str]
    #: EV_ constant → event name (top-level string assignments).
    constants: Dict[str, str]


def find_event_catalogue(module: PyModule) -> Optional[EventCatalogue]:
    constants: Dict[str, str] = {}
    events_value: Optional[ast.AST] = None
    for node in module.tree.body:
        if not (isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        target = node.targets[0].id
        value = str_const(node.value)
        if target.startswith("EV_") and value is not None:
            constants[target] = value
        elif target == "EVENTS":
            events_value = node.value
    if events_value is None or not constants:
        return None

    kinds: Dict[str, str] = {}
    for node in ast.walk(events_value):
        if not (isinstance(node, ast.Call) and len(node.args) >= 2):
            continue
        kind = str_const(node.args[1])
        if kind not in _KINDS:
            continue
        first = node.args[0]
        if isinstance(first, ast.Name):
            name = constants.get(first.id)
        else:
            name = str_const(first)
        if name is not None:
            kinds[name] = kind
    if not kinds:
        return None
    return EventCatalogue(module=module, kinds=kinds, constants=constants)


@dataclass
class EmitSite:
    lineno: int
    attr: str  # event | begin | span
    name: str


def _is_tracerish(node: ast.AST) -> bool:
    """Does this receiver look like a tracer?  Names/attributes
    containing 'tracer' and calls to *_tracer() factories qualify;
    ``self.span(...)`` inside the tracer implementation does not."""
    if isinstance(node, ast.Name):
        return "tracer" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "tracer" in node.attr.lower() or _is_tracerish(node.value)
    if isinstance(node, ast.Call):
        return _is_tracerish(node.func)
    return False


def _collect_emit_sites(
    module: PyModule, ev_imports: Dict[str, str],
    constants: Dict[str, str],
) -> List[EmitSite]:
    """Tracer emit sites whose event name resolves statically: a string
    literal, or an imported ``EV_*`` constant."""
    sites: List[EmitSite] = []
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _EMIT_ATTRS
                and node.args):
            continue
        if not _is_tracerish(node.func.value):
            continue
        first = node.args[0]
        name: Optional[str] = str_const(first)
        if name is None and isinstance(first, ast.Name):
            constant = ev_imports.get(first.id)
            name = constants.get(constant) if constant else None
        if name is None:
            continue  # a local variable; not statically resolvable
        sites.append(EmitSite(
            lineno=node.lineno, attr=node.func.attr, name=name,
        ))
    return sites


def _begin_call(node: ast.AST) -> Optional[ast.Call]:
    """The ``tracer.begin(...)`` call inside ``node``, unwrapping the
    ``x if tracer.enabled else None`` idiom."""
    if isinstance(node, ast.IfExp):
        for branch in (node.body, node.orelse):
            call = _begin_call(branch)
            if call is not None:
                return call
        return None
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "begin"
            and _is_tracerish(node.func.value)):
        return node
    return None


def _span_escapes(func: ast.AST, name: str, assign: ast.Assign) -> bool:
    """Is the span bound to ``name`` closed or handed off somewhere in
    ``func``?  Ownership transfers we accept: ``.end()`` on the name,
    returning/yielding it, passing it as a call argument, storing it
    into an attribute/subscript/another variable, using it in a
    ``with`` block."""
    for node in ast.walk(func):
        if node is assign:
            continue
        if (isinstance(node, ast.Attribute)
                and node.attr == "end"
                and isinstance(node.value, ast.Name)
                and node.value.id == name):
            return True
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            if node.value is not None and _names_in(node.value, name):
                return True
        if isinstance(node, ast.Call):
            if any(_names_in(a, name) for a in node.args):
                return True
            if any(_names_in(kw.value, name) for kw in node.keywords):
                return True
        if isinstance(node, ast.withitem) and _names_in(
                node.context_expr, name):
            return True
        if isinstance(node, ast.Assign) and node is not assign:
            if _names_in(node.value, name):
                return True
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    if _names_in(target, name, include_store=False):
                        return True
    return False


def _names_in(node: ast.AST, name: str, include_store: bool = True) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == name:
            if include_store or not isinstance(sub.ctx, ast.Store):
                return True
    return False


def _lint_span_leaks(module: PyModule) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for func in ast.walk(module.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            if _begin_call(node.value) is None:
                continue
            name = node.targets[0].id
            if not _span_escapes(func, name, node):
                diags.append(Diagnostic(
                    code="T505", severity=Severity.ERROR,
                    message=(
                        f"span '{name}' opened with tracer.begin() is "
                        "never .end()-ed and never escapes this "
                        "function; the span would stay open forever"
                    ),
                    file=module.path, line=node.lineno, obj=name,
                ))
    return diags


def lint_trace_discipline(
    modules: Sequence[PyModule],
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []

    catalogues = [
        c for c in (find_event_catalogue(m) for m in modules)
        if c is not None
    ]

    # T505 is local: check every module, catalogue or not — but skip
    # per-function duplicates when a function is nested (the outer
    # walk already visited the assignment).
    seen_leaks: Set[Tuple[str, int]] = set()
    for module in modules:
        for diag in _lint_span_leaks(module):
            key = (diag.file or "", diag.line or 0)
            if key not in seen_leaks:
                seen_leaks.add(key)
                diags.append(diag)

    if not catalogues:
        return diags

    # Merge the catalogues (one in the real tree; fixtures may carry
    # their own).  Kinds from the first catalogue defining a name win.
    kinds: Dict[str, str] = {}
    constants: Dict[str, str] = {}
    for cat in catalogues:
        for name, kind in cat.kinds.items():
            kinds.setdefault(name, kind)
        for const, name in cat.constants.items():
            constants.setdefault(const, name)

    cat_basenames = {module_basename(c.module) for c in catalogues}
    for module in modules:
        ev_imports: Dict[str, str] = {}
        for basename in cat_basenames:
            for local, orig in imports_from(module, basename).items():
                if orig.startswith("EV_"):
                    ev_imports[local] = orig
        for site in _collect_emit_sites(module, ev_imports, constants):
            if site.name not in kinds:
                diags.append(Diagnostic(
                    code="T501", severity=Severity.ERROR,
                    message=(
                        f"emit site names unknown event "
                        f"'{site.name}'; add it to the EVENTS "
                        "catalogue first"
                    ),
                    file=module.path, line=site.lineno, obj=site.name,
                ))
                continue
            kind = kinds[site.name]
            if site.attr == "event" and kind == "span":
                diags.append(Diagnostic(
                    code="T504", severity=Severity.ERROR,
                    message=(
                        f"'{site.name}' is catalogued as a span "
                        "but emitted with .event(); use "
                        ".begin()/.span()"
                    ),
                    file=module.path, line=site.lineno,
                    obj=site.name,
                ))
            elif site.attr in _SPAN_EMITS and kind == "event":
                diags.append(Diagnostic(
                    code="T504", severity=Severity.ERROR,
                    message=(
                        f"'{site.name}' is catalogued as an "
                        "instant event but opened with "
                        f".{site.attr}(); use .event()"
                    ),
                    file=module.path, line=site.lineno,
                    obj=site.name,
                ))
    return diags
