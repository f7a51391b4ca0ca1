"""Schema checks: host-class fit, poll-points, transfer data.

A schema checks itself when it is built (``ApplicationSchema.findings``):
``_findings`` is what refused one, or the warnings it was built with;
``lint_schema`` adds the host-class fit (S201).
"""

from repro.findings import try_build
from repro.lint import HostClass, Severity, lint_schema
from repro.schema import ApplicationSchema, ResourceRequirements

GIB = 1024 ** 3

CLASSES = (
    HostClass(name="small", count=2, cpu_speed=0.5, mem_bytes=GIB,
              disk_bytes=10 * GIB, features=()),
    HostClass(name="big", count=1, cpu_speed=2.0, mem_bytes=8 * GIB,
              disk_bytes=100 * GIB, features=("fpu", "large-pages")),
)


def _schema(**kw):
    defaults = dict(name="app", est_comm_bytes=1 << 20, poll_points=16)
    defaults.update(kw)
    return ApplicationSchema(**defaults)


def _findings(**kw):
    return try_build(lambda: _schema(**kw))[1]


def _codes(diags):
    return {d.code for d in diags}


def test_clean_schema():
    schema = _schema(requirements=ResourceRequirements(
        min_memory_bytes=GIB, min_cpu_speed=1.0, features=("fpu",),
    ))
    assert lint_schema(schema, CLASSES) == []


def test_s201_unmeetable_requirements():
    schema = _schema(requirements=ResourceRequirements(
        min_memory_bytes=64 * GIB,
    ))
    diags = lint_schema(schema, CLASSES, filename="app.xml")
    assert _codes(diags) == {"S201"}
    (d,) = diags
    assert "small" in d.message and "big" in d.message
    assert d.file == "app.xml"
    assert d.obj == "app"


def test_s201_feature_mismatch():
    schema = _schema(requirements=ResourceRequirements(
        features=("quantum-coprocessor",),
    ))
    assert _codes(lint_schema(schema, CLASSES)) == {"S201"}


def test_s201_skipped_without_host_classes():
    schema = _schema(requirements=ResourceRequirements(
        min_memory_bytes=64 * GIB,
    ))
    assert lint_schema(schema, ()) == []


def test_s202_zero_poll_points_is_error():
    diags = _findings(poll_points=0)
    assert _codes(diags) == {"S202"}
    (d,) = diags
    assert d.severity is Severity.ERROR
    assert "never migrate" in d.message


def test_s202_undeclared_poll_points_is_warning():
    diags = lint_schema(_schema(poll_points=None), CLASSES)
    assert _codes(diags) == {"S202"}
    (d,) = diags
    assert d.severity is Severity.WARNING


def test_s203_undeclared_transfer_data():
    diags = lint_schema(_schema(est_comm_bytes=0), CLASSES)
    assert _codes(diags) == {"S203"}
    (d,) = diags
    assert d.severity is Severity.WARNING


def test_s203_not_raised_for_non_migratable():
    # Zero poll-points already makes the app non-migratable; the missing
    # transfer estimate is then moot.
    diags = _findings(poll_points=0, est_comm_bytes=0)
    assert _codes(diags) == {"S202"}


def test_s204_rising_efficiency_curve_is_warning():
    diags = lint_schema(
        _schema(min_world=1, max_world=4,
                efficiency_curve=(1.0, 0.8, 0.9)),
        CLASSES,
    )
    assert _codes(diags) == {"S204"}
    (d,) = diags
    assert d.severity is Severity.WARNING
    assert "non-increasing" in d.message


def test_s205_efficiency_values_out_of_range():
    diags = _findings(min_world=1, max_world=4,
                      efficiency_curve=(1.0, 0.0, 1.2))
    assert _codes(diags) == {"S205"}
    assert "'0'" in diags[0].message and "'1.2'" in diags[0].message


def test_s205_shadows_s204():
    # An out-of-range value makes monotonicity analysis meaningless.
    diags = _findings(min_world=1, max_world=4,
                      efficiency_curve=(0.5, 1.2))
    assert _codes(diags) == {"S205"}


def test_s206_inverted_world_bounds():
    diags = _findings(min_world=4, max_world=2)
    assert _codes(diags) == {"S206"}
    assert "minWorld=4 > maxWorld=2" in diags[0].message


def test_clean_malleable_schema():
    schema = _schema(min_world=1, max_world=8,
                     efficiency_curve=(1.0, 0.9, 0.8, 0.7))
    assert lint_schema(schema, CLASSES) == []


def test_malleability_xml_round_trip():
    schema = _schema(min_world=2, max_world=8,
                     efficiency_curve=(1.0, 0.9, 0.75))
    again = ApplicationSchema.from_xml(schema.to_xml())
    assert again.min_world == 2
    assert again.max_world == 8
    assert again.efficiency_curve == (1.0, 0.9, 0.75)
    assert again.malleable
    rigid = ApplicationSchema.from_xml(_schema().to_xml())
    assert not rigid.malleable


def test_poll_points_xml_round_trip():
    schema = _schema()
    again = ApplicationSchema.from_xml(schema.to_xml())
    assert again.poll_points == 16
    undeclared = ApplicationSchema(name="x")
    assert ApplicationSchema.from_xml(undeclared.to_xml()).poll_points is None


def test_host_class_from_dict_rejects_unknown_keys():
    import pytest

    with pytest.raises(ValueError, match="unknown host-class keys"):
        HostClass.from_dict({"name": "x", "ram": 5})
