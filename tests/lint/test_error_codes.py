"""Every error code: the loader refuses it, and ``repro lint`` reports it.

One firing case per error code of the three configuration inputs —
§4 rule files, §5.3 policies, the §3.3 application schema.  The
loader the runtime uses (``parse_rule_file``, ``policy_from_dict``,
``ApplicationSchema.from_xml``) must raise a ``ConfigError`` naming
the code, and linting the same file must report the same errors.
S201 is missing by design: it needs the cluster's host classes, so
only lint can see it (``test_schemalint.py``).
"""

import json

import pytest

from repro.cli import main
from repro.core import policy_from_dict
from repro.findings import ConfigError, Severity
from repro.lint import lint_paths
from repro.rules import RuleEvaluator, RuleSet, parse_rule_file, parse_rules
from repro.schema import ApplicationSchema
from repro.sim.kernel import Environment

from .conftest import FIXTURES

_R008 = (
    "rl_number: 1\nrl_name: load\nrl_type: simple\nrl_script: loadAvg.sh\n"
    "rl_operator: >\nrl_busy: 1\nrl_overLd: 2\n\n"
    "rl_number: 2\nrl_name: procs\nrl_type: simple\n"
    "rl_script: procCount.sh\nrl_operator: >\nrl_busy: 100\n"
    "rl_overLd: 150\n\n"
    "rl_number: 3\nrl_name: combo\nrl_type: complex\nrl_ruleNo: 1\n"
    "rl_script: r1 & r2\n"
)


def _schema(**elements):
    body = "".join(f"<{tag}>{text}</{tag}>" for tag, text in elements.items())
    return (f"<applicationSchema><name>app</name><pollPoints>4</pollPoints>"
            f"<estCommBytes>1024</estCommBytes>{body}</applicationSchema>")


def _malleable(**knobs):
    return json.dumps({"policy": dict({
        "name": "knobs",
        "triggers": [{"metric": "loadavg1", "op": ">", "value": 2.0}],
        "dest_conditions": [{"metric": "loadavg1", "op": "<", "value": 1.0}],
        "grow_triggers": [{"metric": "loadavg1", "op": ">", "value": 2.0}],
        "shrink_triggers": [{"metric": "loadavg1", "op": ">", "value": 4.0}],
    }, **knobs)})


#: code → (file name, its text); text ``None`` reads the lint fixture.
CASES = {
    "R001": ("r001_undefined_ref.rules", None),
    "R002": ("r002_cycle.rules", None),
    "R003": ("r003_duplicate.rules", None),
    "R004": ("r004_weight_sum.rules", None),
    "R005": ("r005_dead_rule.rules", None),
    "R006": ("r006_threshold.rules", None),
    "R008": ("r008.rules", _R008),
    "R010": ("r010_malformed.rules", None),
    "R011": ("r011_bad_expr.rules", None),
    "P101": ("p101_pingpong.policy.json", None),
    "P102": ("p102_unsat_dest.policy.json", None),
    "P103": ("p103_bad_strategy.policy.json", None),
    "P104": ("p104_unsat_guard.policy.json", None),
    "P107": ("p107.policy.json", _malleable(min_world=4, max_world=2)),
    "P108": ("p108.policy.json", _malleable(shrink_triggers=[
        {"metric": "loadavg1", "op": ">", "value": 1.0}])),
    "P109": ("p109.policy.json", _malleable(min_efficiency=1.5)),
    "S202": ("s202_zero_pollpoints.schema.xml", None),
    "S205": ("s205.schema.xml", _schema(
        maxWorld=4, efficiencyCurve="1.0,0.0,1.2")),
    "S206": ("s206.schema.xml", _schema(minWorld=4, maxWorld=2)),
}


def _case(code, tmp_path):
    name, text = CASES[code]
    if text is None:
        with open(f"{FIXTURES}/{name}", encoding="utf-8") as fh:
            text = fh.read()
    path = tmp_path / name
    path.write_text(text)
    return path, text


def _load(name, text):
    if name.endswith(".rules"):
        return parse_rule_file(text)
    if name.endswith(".json"):
        return policy_from_dict(json.loads(text))
    return ApplicationSchema.from_xml(text)


def _errors(diags):
    return sorted((d.code, d.line, d.message) for d in diags
                  if d.severity is Severity.ERROR)


@pytest.mark.parametrize("code", sorted(CASES))
def test_the_loader_refuses_what_lint_reports(code, tmp_path):
    path, text = _case(code, tmp_path)
    with pytest.raises(ConfigError, match=code) as refused:
        _load(path.name, text)
    assert code in {d.code for d in refused.value.errors}
    assert _errors(lint_paths([str(path)])) == _errors(
        refused.value.findings)


@pytest.mark.parametrize("code", ["R001", "R002", "R004", "R005", "R008"])
def test_the_evaluator_refuses_a_set_with_bad_references(code, tmp_path):
    """The rules load one by one; put in a set by hand, the set is
    refused when its evaluator is built — not at the first evaluation
    (R001 was a ``KeyError`` there, R002 and R004 evaluated FREE)."""
    _, text = _case(code, tmp_path)
    rules = RuleSet()
    for rule in parse_rules(text):
        rules.add(rule)
    with pytest.raises(ConfigError, match=code):
        RuleEvaluator(rules, lambda script, param="": 0.0)


@pytest.mark.parametrize("experiment, knobs, code", [
    ("malleability", ["min_efficiency=1.5"], "P109"),
    ("malleability", ["grow_at=5", "shrink_at=4"], "P108"),
    ("overload", ["strategy=bogus"], "P103"),
])
def test_a_refused_sweep_is_one_line_per_error(
        experiment, knobs, code, capsys, monkeypatch):
    def no_time(*args, **kwargs):
        raise AssertionError("simulated time passed")

    monkeypatch.setattr(Environment, "run", no_time)
    argv = ["sweep", experiment]
    for knob in knobs:
        argv += ["--set", knob]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro: {code}: ")
    assert err.count("\n") == 1
