"""Shared AST plumbing for the source-level passes.

Each linted Python file becomes a :class:`PyModule`: its parsed tree,
an import-alias map (``np`` → ``numpy``, ``monotonic`` →
``time.monotonic``), and its inline suppressions.  The passes never
import or execute the code under analysis — everything here is pure
:mod:`ast` inspection, so fixtures with deliberately broken contracts
are safe to lint.

Contract modules (the effect outbox, the event catalogue, the wire
messages) are discovered by *shape*, not by path, so the passes work
unchanged on the real tree and on test fixtures.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..diagnostics import Diagnostic, Severity

#: ``# repro-lint: skip`` silences every source finding on its line;
#: ``skip[D301]`` / ``skip[D301,T505]`` silence only those codes.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*skip(?:\[(?P<codes>[^\]]*)\])?"
)


@dataclass
class Suppression:
    """One inline ``# repro-lint: skip[...]`` marker."""

    line: int
    #: ``None`` means every code is silenced on this line.
    codes: Optional[FrozenSet[str]]


@dataclass
class PyModule:
    """One parsed source file, ready for the passes."""

    path: str
    text: str
    tree: ast.Module
    #: local name → dotted origin (``np`` → ``numpy``,
    #: ``Send`` → ``entity.outbox.Send``).
    aliases: Dict[str, str] = field(default_factory=dict)
    suppressions: List[Suppression] = field(default_factory=list)

    def suppressed(self, code: str, line: Optional[int]) -> bool:
        if line is None:
            return False
        for sup in self.suppressions:
            if sup.line == line and (
                sup.codes is None or code in sup.codes
            ):
                return True
        return False


def _collect_aliases(tree: ast.Module) -> Dict[str, str]:
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    root = name.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            # Relative imports lose their dots: passes match on the
            # module *basename* anyway (``..entity.outbox`` and
            # ``outbox`` both end in ``outbox``).
            module = (node.module or "").lstrip(".")
            for name in node.names:
                local = name.asname or name.name
                origin = f"{module}.{name.name}" if module else name.name
                aliases[local] = origin
    return aliases


def _collect_suppressions(text: str) -> List[Suppression]:
    """Markers from real ``#`` comments only — a docstring *describing*
    the syntax must not silence anything."""
    found: List[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return found
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        lineno = tok.start[0]
        raw = match.group("codes")
        if raw is None:
            found.append(Suppression(line=lineno, codes=None))
            continue
        codes = frozenset(
            c.strip().upper() for c in raw.split(",") if c.strip()
        )
        found.append(Suppression(line=lineno, codes=codes or None))
    return found


def _parse_one(
    path: str, text: str,
) -> Tuple[Optional[PyModule], Optional[Diagnostic]]:
    """Parse one source file; a syntax error becomes L004."""
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        return None, Diagnostic(
            code="L004", severity=Severity.ERROR,
            message=f"cannot parse Python source: {exc.msg}",
            file=path, line=exc.lineno,
        )
    return PyModule(
        path=path, text=text, tree=tree,
        aliases=_collect_aliases(tree),
        suppressions=_collect_suppressions(text),
    ), None


def parse_sources(
    files: Sequence[Tuple[str, str]],
) -> Tuple[List[PyModule], List[Diagnostic]]:
    """Parse ``(path, text)`` pairs; syntax errors become L004."""
    parsed = [_parse_one(path, text) for path, text in files]
    modules = [m for m, _ in parsed if m is not None]
    diags = [d for _, d in parsed if d is not None]
    return modules, diags


def suppression_warnings(
    modules: Sequence[PyModule], known_codes: FrozenSet[str]
) -> List[Diagnostic]:
    """L005: a suppression naming a code no pass can ever emit is a
    typo that silences nothing — surface it instead of honouring it."""
    diags: List[Diagnostic] = []
    for module in modules:
        for sup in module.suppressions:
            for code in sorted(sup.codes or ()):
                if code not in known_codes:
                    diags.append(Diagnostic(
                        code="L005", severity=Severity.WARNING,
                        message=(
                            f"suppression names unknown code "
                            f"{code!r} (nothing emits it)"
                        ),
                        file=module.path, line=sup.line,
                    ))
    return diags


def dotted_name(module: PyModule, node: ast.AST) -> Optional[str]:
    """Resolve a Name/Attribute chain to its dotted import origin.

    ``np.random.default_rng`` → ``numpy.random.default_rng`` when the
    file did ``import numpy as np``; ``monotonic`` →
    ``time.monotonic`` after ``from time import monotonic``.  Local
    variables (``self.rng.random``) resolve to nothing useful and the
    caller skips them.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = module.aliases.get(node.id, node.id)
    return ".".join([root] + list(reversed(parts)))


def imports_from(module: PyModule, basename: str) -> Dict[str, str]:
    """Names imported from any module whose basename is ``basename``.

    Returns local name → original name, so ``from ..entity.outbox
    import Send as S`` yields ``{"S": "Send"}``.
    """
    imported: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        mod = (node.module or "").lstrip(".")
        if not mod or mod.split(".")[-1] != basename:
            continue
        for name in node.names:
            imported[name.asname or name.name] = name.name
    return imported


def str_const(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def is_dataclass_def(node: ast.ClassDef) -> bool:
    """True when the class carries a ``@dataclass`` decorator (bare,
    called, or ``dataclasses.dataclass`` attribute form)."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def module_basename(module: PyModule) -> str:
    name = module.path.replace("\\", "/").rsplit("/", 1)[-1]
    return name[:-3] if name.endswith(".py") else name


def isinstance_targets(
    body: ast.AST, local_names: Dict[str, str]
) -> Set[str]:
    """Origin names of ``local_names`` entries that ``body``
    isinstance-dispatches on (second argument, tuples included).

    The one definition of "this module handles that class" shared by
    the effect (E402) and message-flow (M80x) passes.
    """
    found: Set[str] = set()
    for node in ast.walk(body):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2):
            continue
        second = node.args[1]
        candidates = (
            [second] if isinstance(second, ast.Name)
            else list(second.elts) if isinstance(second, ast.Tuple)
            else []
        )
        for name in candidates:
            if isinstance(name, ast.Name) and name.id in local_names:
                found.add(local_names[name.id])
    return found


# --------------------------------------------------------------------------
# Whole-project semantic model
# --------------------------------------------------------------------------

def _path_parts(path: str) -> Tuple[str, ...]:
    """``src/repro/live/node.py`` → ``('src', 'repro', 'live', 'node')``;
    an ``__init__.py`` identifies its package directory."""
    norm = os.path.normpath(path).replace("\\", "/")
    parts = [p for p in norm.split("/") if p and p != "."]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    return tuple(parts)


@dataclass
class ProjectModel:
    """The linted file set as one program: which module imports which.

    Imports are resolved *by path* — relative imports walk up from the
    importing file, absolute imports suffix-match the dotted name
    against the file set — so three different ``core.py`` modules
    never collide the way basename matching would collide them.
    Cross-module passes (C700, M800) lean on this to tell the live
    runtime's import closure apart from the simulation's.
    """

    modules: List[PyModule]
    #: importing module path → paths of project modules it imports.
    imports: Dict[str, Set[str]]

    def module_at(self, path: str) -> Optional[PyModule]:
        for module in self.modules:
            if module.path == path:
                return module
        return None

    def import_closure(self, roots: Sequence[PyModule]) -> Set[str]:
        """Paths of every module transitively imported by ``roots``
        (the roots themselves included)."""
        seen: Set[str] = set()
        stack = [m.path for m in roots]
        while stack:
            path = stack.pop()
            if path in seen:
                continue
            seen.add(path)
            stack.extend(sorted(self.imports.get(path, ())))
        return seen


def _resolve_import_from(
    parts: Tuple[str, ...],
    node: ast.ImportFrom,
    by_parts: Dict[Tuple[str, ...], str],
    suffixes: Dict[str, List[Tuple[str, ...]]],
) -> Set[str]:
    """Project-module paths one ``from X import Y`` statement names."""
    found: Set[str] = set()
    mod_parts = tuple(node.module.split(".")) if node.module else ()
    if node.level:
        # Relative: anchor at the importing file's package, one level
        # up per extra dot.
        package = parts[:-1]
        if node.level - 1 > len(package):
            return found
        anchor = package[:len(package) - (node.level - 1)]
        bases = [anchor + mod_parts]
    else:
        # Absolute: suffix-match the dotted name against the file set.
        bases = [
            candidate for candidate in suffixes.get(
                mod_parts[-1] if mod_parts else "", []
            )
            if candidate[-len(mod_parts):] == mod_parts
        ] if mod_parts else []
    for base in bases:
        target = by_parts.get(base)
        if target is not None:
            found.add(target)
        for name in node.names:
            sub = by_parts.get(base + (name.name,))
            if sub is not None:
                found.add(sub)
    return found


def build_project(modules: Sequence[PyModule]) -> ProjectModel:
    """Resolve every import edge between modules of the linted set."""
    by_parts: Dict[Tuple[str, ...], str] = {}
    suffixes: Dict[str, List[Tuple[str, ...]]] = {}
    parts_of: Dict[str, Tuple[str, ...]] = {}
    for module in modules:
        parts = _path_parts(module.path)
        parts_of[module.path] = parts
        by_parts[parts] = module.path
        if parts:
            suffixes.setdefault(parts[-1], []).append(parts)
    imports: Dict[str, Set[str]] = {}
    for module in modules:
        edges: Set[str] = set()
        parts = parts_of[module.path]
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                edges |= _resolve_import_from(
                    parts, node, by_parts, suffixes
                )
            elif isinstance(node, ast.Import):
                for name in node.names:
                    dotted = tuple(name.name.split("."))
                    for candidate in suffixes.get(dotted[-1], []):
                        if candidate[-len(dotted):] == dotted:
                            edges.add(by_parts[candidate])
        edges.discard(module.path)
        imports[module.path] = edges
    return ProjectModel(modules=list(modules), imports=imports)
