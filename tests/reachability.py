"""The reachability gate: every ``src/repro`` function some program enters.

::

    PYTHONPATH=src python -m tests.reachability

Runs the programs a user runs, in this process, under a profile hook
(``sys.setprofile`` and ``threading.setprofile``, ``call`` events
only) that records every code object entered:

* every ``EXPERIMENTS.json`` entry through ``run_cell``, and the
  ``overhead`` cell at 4096 hosts;
* every ``examples/*.py`` script;
* the CLI: ``repro run`` (``all``, and ``--trace`` to a ``.jsonl`` and
  a ``.json`` file), ``repro sweep`` (``--replicas``, ``--set``,
  ``--list-axes``, ``--dry-run``, and two it refuses), ``repro lint``
  (the shipped configs and the known-broken fixtures; text and json,
  ``--strict``), ``repro list`` and ``repro live``
  (flat and ``--hierarchy``);
* one iteration of each ``ledger/worker.py`` driver, the same
  iteration under the program's tracer, and the ledger's probe pass
  (``ledger/tracing.py``), which reads counters such as
  ``Monitor.cycles``.

Every function definition under ``src/repro`` (found by AST; lambdas
and comprehensions are not functions here) that none of them enters
is *unreached*.  The script prints the unreached list and exits 1 when

* an unreached function has no entry in :data:`tests.unreached.ALLOWED`
  (delete it, give it a program path, or name why it stays), or
* an allowlisted function is reached, or no longer exists (take its
  entry out: the list only shrinks).

It takes about three minutes on two CPUs, so it is a CI step rather
than a tier-1 test; ``tests/perf/test_unreached.py`` checks the
allowlist's names statically.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
LEDGER = ROOT / "ledger"

#: The ledger's workloads, each driven once (``ledger/workloads.py``).
LEDGER_WORKLOADS = ("table2", "fig5_2", "fig5_4096", "storm",
                    "live_ingest", "live_decide")


def _name(path: Path, qualname: str) -> str:
    module = ".".join(path.relative_to(SRC).with_suffix("").parts)
    return f"{module.removesuffix('.__init__')}:{qualname}"


def definitions() -> Dict[Tuple[str, int], str]:
    """``(file, first line) -> "module:qualname"`` of every ``def``
    under ``src/repro``; the first line is the code object's
    ``co_firstlineno`` (the first decorator's, if any)."""
    found: Dict[Tuple[str, int], str] = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = _name(path, prefix + child.name)
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.resolve(),
              "")
    return found


def entering(entered: Dict[int, object]) -> Callable:
    """A profile hook that records every code object entered.  Entries
    keep their code objects alive, so no id is reused for another."""

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            entered[id(code)] = code

    return hook


@contextlib.contextmanager
def recording(hook: Callable) -> Iterator[None]:
    """Profile with ``hook`` on this thread and on every thread started
    meanwhile."""
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


# -- the programs -------------------------------------------------------------

def _cells(_tmp: Path) -> None:
    from repro.perf.experiments import run_cell

    pinned = json.loads((ROOT / "EXPERIMENTS.json").read_text("utf-8"))
    for entry in pinned:
        run_cell(entry["experiment"], entry["config"], entry["seed"])
    run_cell("overhead", {"hosts": 4096, "duration": 120.0,
                          "settle": 40.0}, 0)


def _examples(tmp: Path) -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        argv = [str(path)]
        if path.name == "migration_trace.py":
            argv.append(str(tmp / "migration_trace.jsonl"))
        saved, sys.argv = sys.argv, argv
        try:
            runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = saved


def _cli(tmp: Path) -> None:
    from repro.cli import main

    configs = str(ROOT / "examples")
    fixtures = str(ROOT / "tests" / "lint" / "fixtures")
    commands = [
        (["list"], 0),
        (["run", "all", "--out", str(tmp / "run-all")], 0),
        (["run", "table2", "--trace", str(tmp / "table2.jsonl")], 0),
        (["run", "fig7", "--trace", str(tmp / "fig7.json")], 0),
        (["sweep", "--list-axes"], 0),
        (["sweep", "all", "--dry-run"], 0),
        (["sweep", "fig5", "--replicas", "2", "--set", "hosts=64",
          "--set", "duration=120", "--set", "settle=40",
          "--out", str(tmp / "sweep.json")], 0),
        (["sweep", "malleability", "--set", "min_efficiency=1.5"], 2),
        (["run", "fig5", "--duration", "300"], 2),
        (["lint", configs, "--strict"], 0),
        (["lint", configs, fixtures, "--format", "json"], 1),
        (["lint", fixtures], 1),
        (["live", "--n", "4000000", "--interval", "0.1",
          "--timeout", "60"], 0),
        (["live", "--hierarchy", "--n", "4000000", "--interval", "0.1",
          "--timeout", "60"], 0),
    ]
    for argv, expected in commands:
        status = main(argv)
        if status != expected:
            raise RuntimeError(f"repro {' '.join(argv)} exited {status}, "
                               f"expected {expected}")


def _ledger(tmp: Path) -> None:
    # The worker imports its sibling modules as it goes.
    sys.path.insert(0, str(LEDGER))
    try:
        import worker
        from tracing import ITERATION_SPAN, Probe

        for workload in LEDGER_WORKLOADS:
            driver = worker.make_driver(workload, 0)
            try:
                driver.iteration(0)
                worker.traced_iteration(driver, 0, str(tmp / "ledger.jsonl"))
                probe = Probe(iteration=0)
                driver.track(probe)
                probe.install()
                try:
                    frame = probe.open(ITERATION_SPAN)
                    driver.iteration(0, probe)
                    probe.close(frame)
                finally:
                    probe.uninstall()
                probe.layer_metrics()
                probe.dump()
            finally:
                driver.close()
    finally:
        sys.path.remove(str(LEDGER))


#: Each program group, in the order they run.
PROGRAMS: List[Tuple[str, Callable[[Path], None]]] = [
    ("cells", _cells),
    ("examples", _examples),
    ("cli", _cli),
    ("ledger", _ledger),
]


def run_programs(hook: Callable) -> None:
    """Run :data:`PROGRAMS` in a scratch directory under the profile
    ``hook``, their output held back unless one fails."""
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for label, program in PROGRAMS:
                t0 = time.perf_counter()
                output = io.StringIO()
                try:
                    with contextlib.redirect_stdout(output), \
                            contextlib.redirect_stderr(output), \
                            recording(hook):
                        program(Path(tmp))
                except BaseException:
                    sys.stderr.write(output.getvalue())
                    raise
                print(f"ran {label} in {time.perf_counter() - t0:.1f} s",
                      file=sys.stderr)
        finally:
            os.chdir(cwd)


def reached_names(entered: Dict[int, object],
                  defs: Dict[Tuple[str, int], str], cwd: str) -> set:
    """The names of the entered code objects; a relative file name is
    taken against ``cwd``, the directory the modules were imported
    from."""
    reached = set()
    for code in entered.values():
        path = os.path.realpath(os.path.join(cwd, code.co_filename))
        key = (path, code.co_firstlineno)
        name = defs.get(key)
        if name is not None:
            reached.add(name)
    return reached


def verdict(defs: Dict[Tuple[str, int], str], reached: set,
            allowed: Dict[str, str]) -> List[str]:
    """What fails the gate, one line each."""
    names = set(defs.values())
    unreached = names - reached
    problems = [f"unreached and not allowlisted: {name}"
                for name in sorted(unreached - set(allowed))]
    problems += [f"allowlisted but reached (take it off): {name}"
                 for name in sorted(set(allowed) & reached)]
    problems += [f"allowlisted but not defined (take it off): {name}"
                 for name in sorted(set(allowed) - names)]
    return problems


def main() -> int:
    sys.path.insert(0, str(SRC))
    defs = definitions()
    cwd = os.getcwd()
    entered: Dict[int, object] = {}
    run_programs(entering(entered))

    from .unreached import ALLOWED

    reached = reached_names(entered, defs, cwd)
    unreached = sorted(set(defs.values()) - reached)
    print(f"{len(reached)} of {len(set(defs.values()))} functions reached; "
          f"{len(unreached)} unreached:")
    for name in unreached:
        reason = ALLOWED.get(name)
        print(f"  {name}" + (f"  — {reason}" if reason else ""))
    problems = verdict(defs, reached, ALLOWED)
    for line in problems:
        print(f"reachability: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
