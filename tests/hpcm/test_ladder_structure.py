"""What keeps the hand-written terminal exits from growing back.

Under ``src/repro/hpcm`` the terminal state of a reconfiguration
(``succeeded`` / ``completed_at``) is assigned in one function, every
trace span is written by one function, and the runtime and the world
catch no rung's error type themselves — the executor does.
"""

import ast
import os

import repro.hpcm
from repro.hpcm.runtime import MIGRATION
from repro.hpcm.world import ASSEMBLE, RESHAPE

ROOT = os.path.dirname(repro.hpcm.__file__)
TERMINAL_FIELDS = {"succeeded", "completed_at"}
RUNG_ERRORS = {"SpawnError", "RepartitionError", "HostDownError"}


def _parse(filename):
    with open(os.path.join(ROOT, filename), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _owners(matches):
    """``file::function`` of the innermost def around each node that
    ``matches``, over the whole package."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "<lambda>")
        if matches(node):
            found.add(f"{filename}::{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for filename in sorted(os.listdir(ROOT)):
        if filename.endswith(".py"):
            visit(_parse(filename), "<module>")
    return found


def _assigns_terminal_field(node):
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target]
               if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
    return any(isinstance(t, ast.Attribute) and t.attr in TERMINAL_FIELDS
               for target in targets for t in ast.walk(target))


def _opens_or_closes_a_span(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("begin", "end"))


def test_the_terminal_state_is_written_in_one_function():
    assert _owners(_assigns_terminal_field) == {"ladder.py::_settle"}
    rungs = (ASSEMBLE, *MIGRATION, *RESHAPE["expand"], *RESHAPE["shrink"])
    assert not TERMINAL_FIELDS & {rung.stamp for rung in rungs}


def test_every_span_is_opened_and_closed_in_one_function():
    assert _owners(_opens_or_closes_a_span) == {"ladder.py::_write"}


def test_runtime_and_world_catch_no_rung_error_themselves():
    offenders = []
    for filename in ("runtime.py", "world.py"):
        for node in ast.walk(_parse(filename)):
            if isinstance(node, ast.ExceptHandler) and node.type:
                caught = {getattr(n, "id", getattr(n, "attr", None))
                          for n in ast.walk(node.type)}
                if caught & RUNG_ERRORS:
                    offenders.append(f"{filename}:{node.lineno}")
    assert offenders == []
