"""The paper's wire bytes, pinned by a file.

``fixtures/wire_golden.jsonl`` was written by the ElementTree codec of
the commit before the direct writer (see ``wire_cases.py``).  Whatever
encodes and decodes today has to reproduce it, whichever
``ElementTree`` the interpreter ships.
"""

import inspect
import json

import pytest

from repro.protocol import MESSAGE_TYPES, decode, encode, messages

from .wire_cases import CASES, FIXTURE

with open(FIXTURE, encoding="ascii") as _fh:
    GOLDEN = [json.loads(line) for line in _fh]


def test_fixture_and_cases_are_the_same_list():
    assert [line["msg"] for line in GOLDEN] == [repr(c[0]) for c in CASES]
    assert {type(c[0]) for c in CASES} == set(MESSAGE_TYPES.values())


def test_every_message_class_is_registered_once():
    """Read from the module, not from ``CASES``: a class left out of
    ``MESSAGE_TYPES`` (and out of the golden cases) encodes fine and
    fails only at the peer's decode; a duplicate ``TYPE`` silently
    shadows the earlier class."""
    classes = [
        cls for cls in vars(messages).values()
        if inspect.isclass(cls) and cls.__module__ == messages.__name__
        and hasattr(cls, "TYPE")
    ]
    assert set(classes) <= set(MESSAGE_TYPES.values())
    assert len(MESSAGE_TYPES) == len(classes)


@pytest.mark.parametrize(
    "case, golden", list(zip(CASES, GOLDEN)),
    ids=[f"{i}-{c[0].TYPE}" for i, c in enumerate(CASES)])
def test_codec_reproduces_the_golden_wire_bytes(case, golden):
    msg, sender, ts = case
    assert (golden["sender"], golden["ts"]) == (sender, ts)
    data = bytes.fromhex(golden["hex"])
    assert encode(msg, sender, ts) == data
    # repr, so a nan metric compares equal to itself.
    assert repr(decode(data)) == golden["decoded"]
