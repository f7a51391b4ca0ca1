"""Shared AST plumbing for the source-level passes.

Each linted Python file becomes a :class:`PyModule`: its parsed tree,
an import-alias map (``np`` → ``numpy``, ``monotonic`` →
``time.monotonic``), and its inline suppressions.  The passes never
import or execute the code under analysis — everything here is pure
:mod:`ast` inspection, so fixtures with deliberately broken contracts
are safe to lint.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.findings import Diagnostic, Severity

#: ``# repro-lint: skip`` silences every source finding on its line;
#: ``skip[D301]`` / ``skip[D301,C702]`` silence only those codes.
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
            # Relative imports lose their dots: the passes resolve
            # only stdlib and numpy names, never imported relatively.
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
