"""The option audit: defaulted parameters no program sets.

::

    PYTHONPATH=src python -m tests.options

Runs the programs of ``python -m tests.reachability`` (its
:func:`~tests.reachability.run_programs`) under a profile hook that,
on every call into a ``src/repro`` function, compares each defaulted
argument with its default.  A value counts as the default when it
``is`` the default, or is of the same type and ``==`` to it.  Each
field of a ``repro`` dataclass is audited the same way, through the
dataclass's ``__init__``.

It prints every defaulted parameter (and field) of an entered function
that no call gave another value, with that function's call count: each
is a candidate to become a module constant.  The audit sees only what
the programs pass.  A CLI flag the programs leave at its default (such
as ``repro live --threshold``) reads as never set, and a function
defined inside another function is not audited.
"""

from __future__ import annotations

import dis
import inspect
import os
import sys
import types
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .reachability import SRC, run_programs

#: A generator's frame is entered again on every resume; its arguments
#: are read on the first entry only, before the body can rebind them.
_RESUMABLE = (inspect.CO_GENERATOR | inspect.CO_COROUTINE
              | inspect.CO_ASYNC_GENERATOR)


def is_default(value: Any, default: Any) -> bool:
    """Is ``value`` the parameter's default: the same object, or an
    equal one of the same type?  ``1.0`` is not the default ``1``."""
    if value is default:
        return True
    if type(value) is not type(default):
        return False
    try:
        return bool(value == default)
    except Exception:  # an array's ``==``, say, has no one truth value
        return False


class _Audited:
    """One function's defaulted parameters and what its calls passed."""

    __slots__ = ("name", "params", "first_offset", "calls", "set")

    def __init__(self, name: str, fn: types.FunctionType):
        code = fn.__code__
        self.name = name
        positional = code.co_varnames[:code.co_argcount]
        defaults = fn.__defaults__ or ()
        params = list(zip(positional[len(positional) - len(defaults):],
                          defaults))
        params += sorted((fn.__kwdefaults__ or {}).items())
        self.params: List[Tuple[str, Any]] = params
        # The first entry's ``f_lasti``: the RESUME instruction's
        # offset (Python 3.11+), or -1 before any instruction (3.10).
        self.first_offset: Optional[int] = (
            next((i.offset for i in dis.get_instructions(code)
                  if i.opname == "RESUME"), -1)
            if code.co_flags & _RESUMABLE else None
        )
        self.calls = 0
        self.set: set = set()


def _functions(module: types.ModuleType) -> Iterator[Tuple[str, Any]]:
    """``(name, function)`` of every function a module defines at its
    top level or in its classes (a dataclass's generated ``__init__``
    included)."""
    modname = module.__name__

    def visit(namespace: Any, prefix: str) -> Iterator[Tuple[str, Any]]:
        for value in list(vars(namespace).values()):
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            fns = ((value.fget, value.fset) if isinstance(value, property)
                   else (inspect.unwrap(value),)
                   if isinstance(value, types.FunctionType) else ())
            for fn in fns:
                if (isinstance(fn, types.FunctionType)
                        and fn.__module__ == modname):
                    yield f"{modname}:{fn.__qualname__}", fn
            # Classes defined here, each once (not an alias of another).
            if (isinstance(value, type) and value.__module__ == modname
                    and value.__qualname__.startswith(prefix)):
                yield from visit(value, value.__qualname__ + ".")

    yield from visit(module, "")


class OptionAudit:
    """The profile hook and its tally.

    ``functions`` maps a code object to ``(name, function)`` up front;
    any other code object is looked up in the loaded ``repro`` modules
    the first time a ``src/repro`` frame (or a generated dataclass
    ``__init__``) runs it.
    """

    def __init__(self, functions: Optional[Dict[Any, Tuple[str, Any]]]
                 = None):
        self._table: Dict[Any, Optional[_Audited]] = {}
        for code, (name, fn) in (functions or {}).items():
            self._table[code] = _Audited(name, fn)

    def _index(self) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or modname != "repro" \
                    and not modname.startswith("repro."):
                continue
            for name, fn in _functions(module):
                code = fn.__code__
                if self._table.get(code) is None:
                    self._table[code] = (
                        _Audited(name, fn)
                        if fn.__defaults__ or fn.__kwdefaults__ else None)

    def hook(self, frame, event: str, _arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        try:
            audited = self._table[code]
        except KeyError:
            audited = None
            if (f"{os.sep}repro{os.sep}" in code.co_filename
                    or code.co_name == "__init__"
                    and code.co_filename == "<string>"):
                self._index()
                audited = self._table.get(code)
            self._table[code] = audited
        if audited is None:
            return
        if (audited.first_offset is not None
                and frame.f_lasti != audited.first_offset):
            return
        audited.calls += 1
        args = frame.f_locals
        for param, default in audited.params:
            if param not in audited.set and not is_default(args[param],
                                                           default):
                audited.set.add(param)

    def tally(self) -> Tuple[int, List[Tuple[str, str, int]]]:
        """The number of defaulted parameters on entered functions, and
        each one never given another value as ``(function, parameter,
        calls)``, sorted."""
        defaulted = 0
        never: List[Tuple[str, str, int]] = []
        for audited in self._table.values():
            if audited is None or not audited.calls:
                continue
            defaulted += len(audited.params)
            never += [(audited.name, param, audited.calls)
                      for param, _ in audited.params
                      if param not in audited.set]
        return defaulted, sorted(never)


def main() -> int:
    sys.path.insert(0, str(SRC))
    audit = OptionAudit()
    run_programs(audit.hook)
    defaulted, never = audit.tally()
    print(f"{defaulted} defaulted parameters on entered functions; "
          f"{len(never)} never given another value:")
    for function, param, calls in never:
        print(f"  {function}({param})  {calls} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
