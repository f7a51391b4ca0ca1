"""Policy checks: ping-pong, unsatisfiable regions, strategies.

A policy checks itself when it is built (``MigrationPolicy.findings``);
``_findings`` is what refused a policy document, or the warnings it
loaded with.
"""

import dataclasses
import json

from repro.core import policy_2, policy_3, policy_from_dict
from repro.findings import Severity, try_build


def _findings(doc):
    return try_build(lambda: policy_from_dict(doc))[1]


def _load(fixture_path, name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        return _findings(json.load(fh))


def _codes(diags):
    return {d.code for d in diags}


def test_paper_policies_are_clean():
    assert policy_2().findings() == []
    assert policy_3().findings() == []


def test_clean_fixture(fixture_path):
    assert _load(fixture_path, "clean.policy.json") == []


def test_p101_pingpong_overlap(fixture_path):
    diags = _load(fixture_path, "p101_pingpong.policy.json")
    assert _codes(diags) == {"P101"}
    (d,) = diags
    assert "ping-pong" in d.message
    assert "loadavg1" in d.message
    assert d.obj == "pingpong"


def test_p101_unbounded_trigger_metric():
    diags = _findings({
        "name": "unbounded",
        "triggers": [{"metric": "comm_mbs", "op": ">", "value": 8.0}],
        "dest_conditions": [
            {"metric": "loadavg1", "op": "<", "value": 1.0}
        ],
    })
    assert _codes(diags) == {"P101"}
    assert "no destination condition bounds comm_mbs" in diags[0].message


def test_p102_unsatisfiable_destination(fixture_path):
    diags = _load(fixture_path, "p102_unsat_dest.policy.json")
    assert _codes(diags) == {"P102"}
    assert "loadavg1" in diags[0].message


def test_p102_domain_contradiction():
    diags = _findings({
        "name": "over-percent",
        "triggers": [{"metric": "loadavg1", "op": ">", "value": 2.0}],
        "dest_conditions": [
            {"metric": "loadavg1", "op": "<", "value": 1.0},
            {"metric": "cpu_idle_pct", "op": ">", "value": 100.0},
        ],
    })
    assert _codes(diags) == {"P102"}
    assert "cpu_idle_pct" in diags[0].message


def test_p103_unknown_strategy(fixture_path):
    diags = _load(fixture_path, "p103_bad_strategy.policy.json")
    assert _codes(diags) == {"P103"}
    assert "quantum_fit" in diags[0].message
    assert "first_fit" in diags[0].message  # suggests the available ones


def test_p104_unsatisfiable_guard(fixture_path):
    diags = _load(fixture_path, "p104_unsat_guard.policy.json")
    assert _codes(diags) == {"P104"}
    assert "comm_mbs" in diags[0].message


def test_p106_dead_trigger_is_warning(fixture_path):
    diags = _load(fixture_path, "p106_dead_trigger.policy.json")
    assert _codes(diags) == {"P106"}
    (d,) = diags
    assert d.severity is Severity.WARNING


def test_p106_cpu_util_is_a_fraction_not_a_percentage():
    # Every producer emits cpu_util in [0, 1]: a trigger above 1 can
    # never fire (P106); it is not a ping-pong over (1.5, 100] (P101).
    diags = _findings({
        "name": "util",
        "triggers": [{"metric": "cpu_util", "op": ">", "value": 1.5}],
        "dest_conditions": [
            {"metric": "loadavg1", "op": "<", "value": 1.0}
        ],
    })
    assert _codes(diags) == {"P106"}
    assert "[0, 1]" in diags[0].message


def test_lint_domains_are_the_vocabulary_domains():
    from repro.rules import vocabulary
    from repro.rules.vocabulary import METRIC_DOMAINS, SCRIPT_DOMAINS

    assert SCRIPT_DOMAINS == {
        script: METRIC_DOMAINS[metric]
        for script, params in vocabulary.SCRIPT_PARAMS.items()
        for metric in params.values()
    }


def test_disabled_policy_skips_region_checks():
    assert _findings({
        "name": "off",
        "enabled": False,
        "triggers": [{"metric": "loadavg1", "op": ">", "value": 2.0}],
    }) == []


def test_disabled_policy_still_checks_strategy():
    assert _codes(_findings({
        "name": "off", "enabled": False, "strategy": "nope",
    })) == {"P103"}


def test_malleable_paper_policy_is_clean():
    from repro.core import malleable_policy

    assert malleable_policy().findings() == []


def test_p107_inverted_world_bounds():
    diags = _findings({
        "name": "inverted",
        "triggers": [{"metric": "loadavg1", "op": ">", "value": 2.0}],
        "dest_conditions": [
            {"metric": "loadavg1", "op": "<", "value": 1.0}
        ],
        "min_world": 4,
        "max_world": 2,
    })
    assert _codes(diags) == {"P107"}
    assert "min_world=4 > max_world=2" in diags[0].message


def test_p108_crossed_reshape_bands():
    # Shrink fires *below* grow: every load above 2.0 argues for both
    # reshapes without forming the shrink-inside-grow ladder.
    diags = _findings({
        "name": "crossed",
        "triggers": [{"metric": "loadavg1", "op": ">", "value": 2.0}],
        "dest_conditions": [
            {"metric": "loadavg1", "op": "<", "value": 1.0}
        ],
        "grow_triggers": [{"metric": "loadavg1", "op": ">", "value": 2.0}],
        "shrink_triggers": [
            {"metric": "loadavg1", "op": ">", "value": 1.0}
        ],
    })
    assert _codes(diags) == {"P108"}
    assert "ladder" in diags[0].message


def test_p108_identical_bands_are_ambiguous():
    diags = _findings({
        "name": "same-band",
        "triggers": [{"metric": "loadavg1", "op": ">", "value": 2.0}],
        "dest_conditions": [
            {"metric": "loadavg1", "op": "<", "value": 1.0}
        ],
        "grow_triggers": [{"metric": "loadavg1", "op": ">", "value": 2.0}],
        "shrink_triggers": [
            {"metric": "loadavg1", "op": ">", "value": 2.0}
        ],
    })
    assert _codes(diags) == {"P108"}


def test_p108_ladder_and_disjoint_bands_are_clean():
    ladder = policy_from_dict({
        "name": "ladder",
        "triggers": [{"metric": "loadavg1", "op": ">", "value": 2.0}],
        "dest_conditions": [
            {"metric": "loadavg1", "op": "<", "value": 1.0}
        ],
        "grow_triggers": [{"metric": "loadavg1", "op": ">", "value": 2.0}],
        "shrink_triggers": [
            {"metric": "loadavg1", "op": ">", "value": 4.0}
        ],
    })
    assert ladder.findings() == []
    disjoint = policy_from_dict({
        "name": "disjoint",
        "triggers": [{"metric": "loadavg1", "op": ">", "value": 2.0}],
        "dest_conditions": [
            {"metric": "loadavg1", "op": "<", "value": 1.0}
        ],
        "grow_triggers": [
            {"metric": "cpu_idle_pct", "op": "<", "value": 20.0}
        ],
        "shrink_triggers": [
            {"metric": "loadavg1", "op": ">", "value": 4.0}
        ],
    })
    assert disjoint.findings() == []


def test_p109_bad_malleability_knobs():
    diags = _findings({
        "name": "knobs",
        "triggers": [{"metric": "loadavg1", "op": ">", "value": 2.0}],
        "dest_conditions": [
            {"metric": "loadavg1", "op": "<", "value": 1.0}
        ],
        "grow_triggers": [{"metric": "loadavg1", "op": ">", "value": 2.0}],
        "shrink_triggers": [
            {"metric": "loadavg1", "op": ">", "value": 4.0}
        ],
        "grow_step": 0,
        "min_efficiency": 1.5,
    })
    assert _codes(diags) == {"P109"}
    assert len(diags) == 2  # one per bad knob


def test_p109_skipped_for_rigid_policies():
    # grow_step is inert without reshape triggers; don't nag about it.
    assert _findings({
        "name": "rigid",
        "triggers": [{"metric": "loadavg1", "op": ">", "value": 2.0}],
        "dest_conditions": [
            {"metric": "loadavg1", "op": "<", "value": 1.0}
        ],
        "grow_step": 0,
    }) == []


def test_malleable_policy_round_trip():
    from repro.core import malleable_policy

    policy = malleable_policy(grow_at=1.5, shrink_at=3.5, grow_step=2,
                              min_efficiency=0.6, max_world=8)
    d = dataclasses.asdict(policy)
    assert d["grow_step"] == 2 and d["max_world"] == 8
    assert policy_from_dict(d) == policy


def test_policy_round_trip():
    for make in (policy_2, policy_3):
        policy = make()
        assert policy_from_dict(dataclasses.asdict(policy)) == policy


def test_policy_from_dict_rejects_unknown_keys():
    import pytest

    with pytest.raises(ValueError, match="unknown policy keys"):
        policy_from_dict({"name": "x", "trigers": []})
    with pytest.raises(ValueError, match="missing key"):
        policy_from_dict({"name": "x", "triggers": [{"metric": "loadavg1"}]})
