"""Property-based tests: codec round-trips for the malleability surface.

The codecs are inverse of each other — for every generated
policy/schema/process report, including all the malleability
fields (grow/shrink triggers, grow_step, world bounds, min_efficiency,
efficiency_curve), encode→decode is the identity.  Identity is
stronger than "every field appears in the codec": a field dropped from
either direction decodes to its default and breaks the equality — as
long as the strategy draws that field at all, which
``test_round_trips_draw_every_field`` holds for every dataclass field.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policy import (
    KNOWN_METRICS,
    MetricPredicate,
    MigrationPolicy,
    policy_from_dict,
    policy_to_dict,
)
from repro.monitor.selector import ProcessInfo
from repro.schema.appschema import (
    ApplicationSchema,
    Characteristics,
    ResourceRequirements,
)

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_",
    min_size=1, max_size=12,
)
_predicates = st.builds(
    MetricPredicate,
    metric=st.sampled_from(sorted(KNOWN_METRICS)),
    op=st.sampled_from(["<", "<=", ">", ">="]),
    value=st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
)
_pred_tuples = st.lists(_predicates, max_size=3).map(tuple)

_POLICY_FIELDS = dict(
    name=_names,
    enabled=st.booleans(),
    triggers=_pred_tuples,
    source_guards=_pred_tuples,
    dest_conditions=_pred_tuples,
    strategy=_names,
    grow_triggers=_pred_tuples,
    shrink_triggers=_pred_tuples,
    grow_step=st.integers(min_value=1, max_value=8),
    min_world=st.integers(min_value=1, max_value=16),
    max_world=st.integers(min_value=0, max_value=64),
    min_efficiency=st.floats(
        min_value=0.0, max_value=1.0, allow_nan=False
    ),
)
_policies = st.builds(MigrationPolicy, **_POLICY_FIELDS)


# ----------------------------------------------------- policy ↔ JSON
@given(_policies)
@settings(max_examples=80, deadline=None)
def test_policy_json_round_trip(policy):
    """Through real JSON text, not just dicts: what a policy file
    holds is exactly what the decision plane reads back."""
    doc = json.loads(json.dumps(policy_to_dict(policy)))
    assert policy_from_dict(doc) == policy


@given(_policies)
@settings(max_examples=40, deadline=None)
def test_policy_wrapper_form_round_trips(policy):
    assert policy_from_dict({"policy": policy_to_dict(policy)}) == policy


@given(_policies)
@settings(max_examples=40, deadline=None)
def test_malleability_keys_ride_only_when_used(policy):
    """Rigid policies keep their historical byte-for-byte JSON form."""
    d = policy_to_dict(policy)
    assert ("grow_triggers" in d) == bool(policy.grow_triggers)
    assert ("shrink_triggers" in d) == bool(policy.shrink_triggers)
    assert ("grow_step" in d) == (policy.grow_step != 1)
    assert ("min_world" in d) == (policy.min_world != 1)
    assert ("max_world" in d) == (policy.max_world != 0)
    assert ("min_efficiency" in d) == (policy.min_efficiency != 0.0)


# ------------------------------------------------------ schema ↔ XML
_requirements = st.builds(
    ResourceRequirements,
    min_memory_bytes=st.integers(min_value=0, max_value=2**40),
    min_disk_bytes=st.integers(min_value=0, max_value=2**40),
    min_cpu_speed=st.floats(
        min_value=0.0, max_value=1e4, allow_nan=False
    ),
    features=st.lists(
        st.sampled_from(["fpu", "large-pages", "sse", "rdma"]),
        max_size=3, unique=True,
    ).map(tuple),
)

_SCHEMA_FIELDS = dict(
    name=_names,
    characteristics=st.sampled_from(list(Characteristics)),
    est_comm_bytes=st.integers(min_value=0, max_value=2**40),
    est_exec_time=st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False
    ),
    reference_speed=st.floats(
        min_value=0.01, max_value=1e4, allow_nan=False
    ),
    requirements=_requirements,
    data_locality=st.floats(
        min_value=0.0, max_value=1.0, allow_nan=False
    ),
    run_count=st.integers(min_value=0, max_value=1000),
    poll_points=st.none() | st.integers(min_value=0, max_value=100),
    min_world=st.integers(min_value=1, max_value=16),
    max_world=st.integers(min_value=1, max_value=64),
    efficiency_curve=st.lists(
        st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
        max_size=6,
    ).map(tuple),
)
_schemas = st.builds(ApplicationSchema, **_SCHEMA_FIELDS)


@given(_schemas)
@settings(max_examples=80, deadline=None)
def test_schema_xml_round_trip(schema):
    """Every field — floats via repr(), the efficiency curve via its
    CSV element, requirements via the nested codec — survives the
    wire format exactly."""
    assert ApplicationSchema.from_xml(schema.to_xml()) == schema


@given(_schemas)
@settings(max_examples=40, deadline=None)
def test_malleability_elements_ride_only_when_declared(schema):
    """Rigid schemas keep the paper's exact XML element set."""
    xml = schema.to_xml()
    assert ("<minWorld>" in xml) == (schema.min_world != 1)
    assert ("<maxWorld>" in xml) == (schema.max_world != 1)
    assert ("<efficiencyCurve>" in xml) == bool(schema.efficiency_curve)


# ---------------------------------------------- process report ↔ dict
#: Every field away from its default, so a field the decoder drops
#: (and so reads back as its default) can never compare equal.
_PROCESS_FIELDS = dict(
    pid=st.integers(min_value=1, max_value=2**31),
    name=_names,
    start_time=st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
    est_completion=st.floats(
        min_value=0.001, max_value=1e6, allow_nan=False
    ),
    data_locality=st.floats(min_value=0.01, max_value=1.0),
    min_memory_bytes=st.integers(min_value=1, max_value=2**40),
    min_disk_bytes=st.integers(min_value=1, max_value=2**40),
    min_cpu_speed=st.floats(min_value=0.01, max_value=1e4),
    features=st.lists(
        st.sampled_from(["fpu", "large-pages", "sse", "rdma"]),
        min_size=1, max_size=3, unique=True,
    ).map(tuple),
    world_size=st.integers(min_value=2, max_value=64),
    min_world=st.integers(min_value=2, max_value=16),
    max_world=st.integers(min_value=2, max_value=64),
    efficiency_curve=st.lists(
        st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=6,
    ).map(tuple),
)
_process_infos = st.builds(ProcessInfo, **_PROCESS_FIELDS)


@given(_process_infos)
@settings(max_examples=80, deadline=None)
def test_process_info_dict_round_trip(info):
    """What a monitor reports is what the registry reads back."""
    assert ProcessInfo.from_dict(info.as_dict()) == info


@pytest.mark.parametrize("cls, drawn", [
    (MigrationPolicy, _POLICY_FIELDS),
    (ApplicationSchema, _SCHEMA_FIELDS),
    (ProcessInfo, _PROCESS_FIELDS),
], ids=["policy", "schema", "process_info"])
def test_round_trips_draw_every_field(cls, drawn):
    """A field the strategy leaves at its default is a field the
    round trip cannot see the codec drop: a new dataclass field must
    be drawn here too."""
    assert set(drawn) == {f.name for f in dataclasses.fields(cls)}
