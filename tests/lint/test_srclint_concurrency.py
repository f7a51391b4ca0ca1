"""C700 concurrency sanitizer: thread contexts, locks, blocking calls.

Fixture-driven checks for every code, exemption behaviour (``__init__``,
``Event``/``Queue`` attributes, ``join`` with arguments), and the
real-tree claim: the live drivers are C700-clean.
"""

import os

from repro.lint import lint_paths
from repro.lint.srclint import lint_concurrency
from repro.lint.srclint.model import parse_sources


def _fixture(name):
    return os.path.join(os.path.dirname(__file__), "fixtures",
                        "srclint", name)


def _repo_root():
    return os.path.dirname(
        os.path.dirname(os.path.dirname(__file__)))


def _codes(diags):
    return [d.code for d in diags]


def _lint_text(text, path="live/worker.py"):
    modules, parse_diags = parse_sources([(path, text)])
    assert not parse_diags
    return lint_concurrency(modules)


# ------------------------------------------------------------ fixtures
def test_firing_fixture_raises_every_code():
    diags = lint_paths([_fixture("c700_firing")], select=["C7"])
    assert set(_codes(diags)) == {"C701", "C702", "C705"}


def test_c701_covers_both_shapes():
    # One cross-context race on a private attribute, one lock-free
    # write to a public attribute (implied external reader), one
    # counter that two contexts increment.  The clean fixture holds the
    # exemption: a counter only its loop increments.
    diags = lint_paths([_fixture("c700_firing")], select=["C701"])
    messages = [d.message for d in diags]
    assert len(diags) == 3
    assert any("'beats'" in m for m in messages)
    assert any("'_shared'" in m and "thread contexts" in m
               for m in messages)
    assert any("'results'" in m and "without holding any lock" in m
               for m in messages)


def test_c702_names_the_blocking_call_and_lock():
    diag = next(d for d in lint_paths([_fixture("c700_firing")],
                                      select=["C702"]))
    assert "time.sleep" in diag.message
    assert "_lock" in diag.message


def test_clean_fixture_is_clean():
    assert lint_paths([_fixture("c700_clean")]) == []


# ---------------------------------------------------------- exemptions
def test_init_writes_are_exempt():
    diags = _lint_text(
        "import threading\n\n\n"
        "class W:\n"
        "    def __init__(self):\n"
        "        self.count = 0\n"
        "        threading.Thread(target=self._go).start()\n\n"
        "    def _go(self):\n"
        "        return self.count\n"
    )
    assert diags == []


def test_queue_and_event_attributes_are_exempt():
    diags = _lint_text(
        "import queue\n"
        "import threading\n\n\n"
        "class W:\n"
        "    def __init__(self):\n"
        "        self.inbox = queue.Queue()\n"
        "        self._stop = threading.Event()\n"
        "        threading.Thread(target=self._go).start()\n\n"
        "    def _go(self):\n"
        "        self.inbox.put(1)\n"
        "        self._stop.set()\n"
    )
    assert diags == []


def test_str_join_is_not_blocking_but_thread_join_is():
    base = (
        "import threading\n\n\n"
        "class W:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._t = threading.Thread(target=self._go)\n\n"
        "    def _go(self):\n"
        "        with self._lock:\n"
        "            {call}\n"
    )
    ok = _lint_text(base.format(call="return ','.join(['a'])"))
    assert "C702" not in _codes(ok)
    bad = _lint_text(base.format(call="self._t.join()"))
    assert _codes(bad) == ["C702"]


def test_blocking_through_self_call_is_transitive():
    diags = _lint_text(
        "import threading\n"
        "import time\n\n\n"
        "class W:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        threading.Thread(target=self._go).start()\n\n"
        "    def _go(self):\n"
        "        with self._lock:\n"
        "            self._slow()\n\n"
        "    def _slow(self):\n"
        "        time.sleep(1.0)\n"
    )
    assert "C702" in _codes(diags)


def test_unthreaded_class_is_ignored():
    # No Thread entry -> no contexts -> nothing to race.
    diags = _lint_text(
        "class Plain:\n"
        "    def set(self, v):\n"
        "        self.value = v\n"
    )
    assert diags == []


def test_suppression_silences_c701(tmp_path):
    mod = tmp_path / "w.py"
    mod.write_text(
        "import threading\n\n\n"
        "class W:\n"
        "    def __init__(self):\n"
        "        threading.Thread(target=self._go).start()\n\n"
        "    def _go(self):\n"
        "        self.seen = 1  # repro-lint: skip[C701]\n"
    )
    assert lint_paths([str(tmp_path)]) == []


# ----------------------------------------------------------- real tree
def test_live_drivers_are_concurrency_clean():
    live = os.path.join(_repo_root(), "src", "repro", "live")
    assert lint_paths([live], select=["C7"]) == []
