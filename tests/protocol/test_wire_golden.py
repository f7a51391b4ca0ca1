"""The paper's wire bytes, pinned by a file.

``fixtures/wire_golden.jsonl`` was written by the ElementTree codec of
the commit before the direct writer (see ``wire_cases.py``).  Whatever
encodes and decodes today has to reproduce it, whichever
``ElementTree`` the interpreter ships.
"""

import json

import pytest

from repro.protocol import MESSAGE_TYPES, decode, encode

from .wire_cases import CASES, FIXTURE

with open(FIXTURE, encoding="ascii") as _fh:
    GOLDEN = [json.loads(line) for line in _fh]


def test_fixture_and_cases_are_the_same_list():
    assert [line["msg"] for line in GOLDEN] == [repr(c[0]) for c in CASES]
    assert {type(c[0]) for c in CASES} == set(MESSAGE_TYPES.values())


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
