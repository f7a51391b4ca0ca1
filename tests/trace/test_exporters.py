"""The JSONL and Chrome/Perfetto exporters."""

import io
import json

from repro.trace import (
    Tracer,
    export_chrome,
    export_jsonl,
    load_jsonl,
    to_chrome,
    to_jsonl_lines,
)


def _sample_tracer():
    tracer = Tracer()
    tracer.event("registry.decide", t=500.0, host="ws1", pid=4)
    tracer.begin("hpcm.spawn", t=500.1, host="ws2").end(t=500.4, warm=True)
    tracer.event("app.finish", t=900.0)  # host-less → "cluster" track
    return tracer


# -------------------------------------------------------------- JSONL
def test_jsonl_lines_have_stable_key_order():
    lines = to_jsonl_lines(_sample_tracer().records)
    event_keys = list(json.loads(lines[0]))
    span_keys = list(json.loads(lines[1]))
    assert event_keys == ["name", "t", "host", "attrs"]
    assert span_keys == ["name", "t", "dur", "host", "attrs"]


def test_jsonl_round_trip_via_path(tmp_path):
    tracer = _sample_tracer()
    path = str(tmp_path / "trace.jsonl")
    assert export_jsonl(tracer.records, path) == 3
    loaded = load_jsonl(path)
    assert loaded == tracer.records


def test_jsonl_round_trip_via_file_object():
    tracer = _sample_tracer()
    buf = io.StringIO()
    export_jsonl(tracer.records, buf)
    loaded = load_jsonl(io.StringIO(buf.getvalue()))
    assert loaded == tracer.records


def test_jsonl_empty_trace(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    assert export_jsonl([], path) == 0
    assert load_jsonl(path) == []


def test_jsonl_coerces_non_json_attr_values():
    tracer = Tracer()
    tracer.event("x", t=0.0, dest=object())
    (line,) = to_jsonl_lines(tracer.records)
    obj = json.loads(line)  # must not raise
    assert isinstance(obj["attrs"]["dest"], str)


# ----------------------------------------------- Chrome / Perfetto
def test_chrome_document_shape():
    doc = to_chrome(_sample_tracer().records)
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert doc["otherData"]["producer"] == "repro"
    json.dumps(doc)  # the whole document must be valid JSON

    events = doc["traceEvents"]
    for entry in events:
        assert {"name", "ph", "pid", "tid"} <= set(entry)
        assert entry["ph"] in {"X", "i", "M"}
        if entry["ph"] != "M":
            assert isinstance(entry["ts"], float)

    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == 1
    assert spans[0]["ts"] == 500.1 * 1e6
    assert spans[0]["dur"] > 0

    instants = [e for e in events if e["ph"] == "i"]
    assert all(e["s"] == "t" for e in instants)


def test_chrome_one_pid_per_host_plus_metadata():
    doc = to_chrome(_sample_tracer().records)
    events = doc["traceEvents"]
    meta = {e["args"]["name"]: e["pid"]
            for e in events if e["ph"] == "M"}
    assert set(meta) == {"ws1", "ws2", "cluster"}
    assert len(set(meta.values())) == 3  # distinct pid per track
    for entry in events:
        if entry["ph"] == "M":
            assert entry["name"] == "process_name"


def test_chrome_category_is_layer_prefix():
    doc = to_chrome(_sample_tracer().records)
    cats = {e["name"]: e["cat"]
            for e in doc["traceEvents"] if e["ph"] != "M"}
    assert cats == {"registry.decide": "registry",
                    "hpcm.spawn": "hpcm",
                    "app.finish": "app"}


def test_export_chrome_writes_loadable_file(tmp_path):
    path = str(tmp_path / "trace.json")
    count = export_chrome(_sample_tracer().records, path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert count == len(doc["traceEvents"])
    assert count == 3 + 3  # records + per-track metadata
