"""E400 effect exhaustiveness: contract discovery, pumps, yields."""

import os

from repro.lint import lint_paths
from repro.lint.srclint import lint_effects
from repro.lint.srclint.model import parse_sources


def _fixture(name):
    return os.path.join(os.path.dirname(__file__), "fixtures",
                        "srclint", name)


def _codes(diags):
    return [d.code for d in diags]


def test_firing_fixture_raises_every_code():
    diags = lint_paths([_fixture("e400_firing")])
    assert set(_codes(diags)) == {"E401", "E402", "E403", "E404"}
    by_code = {d.code: d for d in diags}
    assert by_code["E401"].obj == "Cancel"
    assert by_code["E402"].obj == "pump"
    assert "Deliver" in by_code["E402"].message
    assert "Query" in by_code["E402"].message


def test_clean_fixture_is_clean():
    assert lint_paths([_fixture("e400_clean")]) == []


def test_union_naming_undefined_class_is_e401():
    outbox = (
        "from dataclasses import dataclass\n"
        "from typing import Union\n\n"
        "@dataclass\nclass A:\n    x: int\n\n"
        "@dataclass\nclass B:\n    x: int\n\n"
        "Effect = Union[A, B, Ghost]\n"
    )
    modules, _ = parse_sources([("outbox.py", outbox)])
    diags = lint_effects(modules)
    assert _codes(diags) == ["E401"]
    assert diags[0].obj == "Ghost"


def test_driver_modules_may_yield_bare_delays():
    outbox = (
        "from dataclasses import dataclass\n"
        "from typing import Union\n\n"
        "@dataclass\nclass A:\n    x: int\n\n"
        "@dataclass\nclass B:\n    x: int\n\n"
        "Effect = Union[A, B]\n"
    )
    driver = (
        "import threading\n"
        "from outbox import A, B\n\n"
        "def loop(env):\n"
        "    yield A(x=1)\n"
        "    yield env.timeout(2.5)\n"
    )
    modules, _ = parse_sources([
        ("outbox.py", outbox), ("driver.py", driver),
    ])
    assert lint_effects(modules) == []
    # The identical generator in a non-driver module is E404.
    core = driver.replace("import threading\n", "")
    modules, _ = parse_sources([
        ("outbox.py", outbox), ("core.py", core),
    ])
    assert _codes(lint_effects(modules)) == ["E404"]


def test_no_contract_module_means_silence():
    user = (
        "from outbox import Send\n\n"
        "def f(effects):\n"
        "    for e in effects:\n"
        "        if isinstance(e, Send):\n"
        "            pass\n"
    )
    modules, _ = parse_sources([("user.py", user)])
    assert lint_effects(modules) == []


def _real_tree_files():
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        "src", "repro",
    )
    files = []
    for sub in ("entity", "registry", "live"):
        base = os.path.join(src, sub)
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                with open(path, encoding="utf-8") as fh:
                    files.append((path, fh.read()))
    return files


def test_dropping_the_live_deliver_dispatch_is_e402():
    # The live registry stops performing Deliver effects: E402 names
    # the live driver (this is the mutation the retired V905 chased).
    target = os.path.join("live", "registry.py")
    files = []
    for path, text in _real_tree_files():
        if path.endswith(target):
            assert "(effect, Deliver)" in text
            text = text.replace("(effect, Deliver)", "(effect, ())")
        files.append((path, text))
    modules, _ = parse_sources(files)
    diags = lint_effects(modules)
    assert _codes(diags) == ["E402"]
    assert diags[0].file.endswith(target)
    assert "Deliver" in diags[0].message


def test_real_tree_contract_is_discovered():
    modules, _ = parse_sources(_real_tree_files())
    from repro.lint.srclint.effects import find_effect_contract

    contracts = [
        c for c in (find_effect_contract(m) for m in modules) if c
    ]
    assert len(contracts) == 1
    assert contracts[0].effects == {
        "Send", "Spend", "Query", "Deliver", "Task",
    }
    # Both real pumps cover the full vocabulary.
    assert lint_effects(modules) == []
