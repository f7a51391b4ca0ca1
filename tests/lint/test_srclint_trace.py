"""T500 trace discipline: catalogue sync, kinds, span pairing."""

import os

from repro.lint import lint_paths
from repro.lint.srclint import lint_trace_discipline
from repro.lint.srclint.model import parse_sources


def _fixture(name):
    return os.path.join(os.path.dirname(__file__), "fixtures",
                        "srclint", name)


def _codes(diags):
    return [d.code for d in diags]


def test_firing_fixture_raises_every_code():
    diags = lint_paths([_fixture("t500_firing")])
    codes = _codes(diags)
    assert set(codes) == {"T501", "T504", "T505"}
    assert codes.count("T504") == 2  # both kind-mismatch directions
    by_code = {}
    for d in diags:
        by_code.setdefault(d.code, d)
    assert by_code["T501"].obj == "demo.unknown"
    assert by_code["T505"].obj == "span"


def test_clean_fixture_is_clean():
    assert lint_paths([_fixture("t500_clean")]) == []


def test_span_leak_is_local_no_catalogue_needed():
    text = (
        "def f(tracer):\n"
        "    span = tracer.begin('x.y')\n"
        "    return 1\n"
    )
    diags = lint_trace_discipline(
        parse_sources([("m.py", text)])[0]
    )
    assert _codes(diags) == ["T505"]


def test_span_escape_routes_are_accepted():
    text = (
        "def ends(tracer):\n"
        "    span = tracer.begin('x.y')\n"
        "    span.end()\n\n"
        "def returns(tracer):\n"
        "    span = tracer.begin('x.y')\n"
        "    return span\n\n"
        "def hands_off(tracer, sink):\n"
        "    span = tracer.begin('x.y')\n"
        "    sink(1, span)\n\n"
        "def stores(tracer, rec):\n"
        "    span = tracer.begin('x.y')\n"
        "    rec.span = span\n\n"
        "def conditional(tracer):\n"
        "    span = tracer.begin('x.y') if tracer.enabled else None\n"
        "    if span is not None:\n"
        "        span.end()\n"
    )
    diags = lint_trace_discipline(
        parse_sources([("m.py", text)])[0]
    )
    assert diags == []


def test_non_tracer_receivers_are_ignored():
    # `self.span(...)` inside the tracer implementation and unrelated
    # .begin() methods must not register as emit sites or leaks.
    text = (
        "def f(self, transaction):\n"
        "    handle = transaction.begin('tx')\n"
        "    return None\n"
    )
    diags = lint_trace_discipline(
        parse_sources([("m.py", text)])[0]
    )
    assert diags == []


def test_real_tree_trace_discipline_is_clean():
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        "src", "repro",
    )
    files = []
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    files.append((path, fh.read()))
    modules, _ = parse_sources(files)
    from repro.lint.srclint.tracedisc import find_event_catalogue

    catalogues = [
        c for c in (find_event_catalogue(m) for m in modules) if c
    ]
    assert len(catalogues) == 1
    assert len(catalogues[0].kinds) == 27
    assert lint_trace_discipline(modules) == []
