"""M800 message-flow analyzer: the protocol's send→handler graph.

Fixture-driven checks for M801–M804, the silence guards, and the
acceptance claim that matters most: deleting any single message
handler from either runtime's drivers makes the self-lint fail.
"""

import os

import pytest

from repro.lint import collect_files, lint_paths
from repro.lint.srclint import lint_sources
from repro.lint.srclint.model import parse_sources
from repro.lint.srclint.msgflow import find_wire_contract, lint_message_flow


def _fixture(name):
    return os.path.join(os.path.dirname(__file__), "fixtures",
                        "srclint", name)


def _repo_root():
    return os.path.dirname(
        os.path.dirname(os.path.dirname(__file__)))


def _codes(diags):
    return [d.code for d in diags]


# ------------------------------------------------------------ fixtures
def test_firing_fixture_raises_every_code():
    diags = lint_paths([_fixture("m800_firing")], select=["M8"])
    by_code = {d.code: d for d in diags}
    assert set(by_code) == {"M801", "M802", "M803", "M804"}
    assert by_code["M801"].obj == "Lost"
    assert by_code["M802"].obj == "AskThing"
    assert by_code["M803"].obj == "ReplyThing"
    assert by_code["M804"].obj == "Beat"


def test_m804_names_the_lagging_side():
    diag = next(d for d in lint_paths([_fixture("m800_firing")],
                                      select=["M804"]))
    assert "handled by the sim runtime but not the live" in diag.message


def test_m801_reports_at_the_emit_site():
    diag = next(d for d in lint_paths([_fixture("m800_firing")],
                                      select=["M801"]))
    assert diag.file.endswith(os.path.join("registry", "driver.py"))


def test_clean_fixture_is_clean():
    assert lint_paths([_fixture("m800_clean")]) == []


# ------------------------------------------------------ silence guards
def test_contract_alone_carries_no_flow_information():
    path = os.path.join(_fixture("m800_firing"), "protocol",
                        "messages.py")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    modules, _ = parse_sources([(path, text)])
    assert lint_message_flow(modules) == []


def test_m804_silent_without_a_live_side():
    # Sim modules only: handler sets cannot diverge between runtimes.
    diags = lint_paths(
        [os.path.join(_fixture("m800_firing"), "protocol"),
         os.path.join(_fixture("m800_firing"), "registry")],
        select=["M804"],
    )
    assert diags == []


def test_request_kwarg_marks_a_request_class():
    # A req_id class built as Query(request=...) needs a reply path
    # even when its TYPE lacks the -request suffix.
    files = [
        ("protocol/messages.py",
         "class Want:\n"
         "    req_id: str = ''\n"
         "    TYPE = 'want'\n"
         "    def body(self):\n"
         "        return ''\n"
         "    @classmethod\n"
         "    def from_body(cls, host, elem):\n"
         "        return cls()\n\n\n"
         "class Offer:\n"
         "    req_id: str = ''\n"
         "    TYPE = 'offer'\n"
         "    def body(self):\n"
         "        return ''\n"
         "    @classmethod\n"
         "    def from_body(cls, host, elem):\n"
         "        return cls()\n\n\n"
         "MESSAGE_TYPES = {c.TYPE: c for c in (Want, Offer)}\n"),
        ("registry/driver.py",
         "from protocol.messages import Offer, Want\n\n\n"
         "class D:\n"
         "    def handle(self, msg, query):\n"
         "        if isinstance(msg, Offer):\n"
         "            return query(request=Want(req_id='1'))\n"
         "        if isinstance(msg, Want):\n"
         "            return None\n"  # receives it, never replies
         "        return None\n\n"
         "    def nudge(self, send):\n"
         "        send(Offer())\n"),
    ]
    modules, _ = parse_sources(files)
    diags = lint_message_flow(modules)
    assert [d.code for d in diags] == ["M802"]
    assert diags[0].obj == "Want"


# ----------------------------------------------------------- real tree
def _src_files():
    src = os.path.join(_repo_root(), "src")
    files = []
    for path in collect_files([src]):
        if not path.endswith(".py"):
            continue
        with open(path, encoding="utf-8") as fh:
            files.append((path, fh.read()))
    return files


def test_src_tree_message_flow_is_clean():
    modules, _ = parse_sources(_src_files())
    contracts = [c for c in map(find_wire_contract, modules) if c]
    assert len(contracts) == 1
    names = {mc.name for mc in contracts[0].classes}
    assert "Ack" in names and "MigrateCommand" in names
    assert lint_message_flow(modules) == []


#: Every driver-side handler of the real protocol.  Deleting any one
#: of them must fail the self-lint (the M804 "proven live" criterion).
_DRIVER_HANDLERS = [
    (os.path.join("live", "node.py"),
     "isinstance(msg, (ExpandCommand, MigrateCommand, ShrinkCommand))"),
    (os.path.join("live", "node.py"),
     "isinstance(msg, StatusQuery)"),
    (os.path.join("monitor", "monitor.py"),
     "isinstance(msg, StatusQuery)"),
    (os.path.join("commander", "commander.py"),
     "isinstance(msg, (MigrateCommand, ExpandCommand, ShrinkCommand))"),
]


@pytest.mark.parametrize("rel_path,handler", _DRIVER_HANDLERS)
def test_deleting_any_driver_handler_fails_self_lint(rel_path, handler):
    target = os.path.join(_repo_root(), "src", "repro", rel_path)
    mutated = []
    found = False
    for path, text in _src_files():
        if os.path.realpath(path) == os.path.realpath(target):
            assert handler in text, f"{handler} not found in {rel_path}"
            text = text.replace(handler, "isinstance(msg, dict)")
            found = True
        mutated.append((path, text))
    assert found, f"driver file {rel_path} not collected"
    diags = [d for d in lint_sources(mutated)
             if d.code in ("M801", "M803", "M804")]
    assert any(d.code == "M804" for d in diags), (
        f"removing {handler} from {rel_path} went unnoticed"
    )
