"""Trace exporters: JSONL and Chrome/Perfetto trace-event format.

JSONL is the pipeline-friendly form (one JSON object per line, stable
keys, streamable with ``jq``); the Chrome form is the *JSON Trace
Event Format* that ``chrome://tracing`` and https://ui.perfetto.dev
load directly, with one Perfetto "process" track per host so a
migration reads as work hopping between host tracks.

Times: trace records carry simulated seconds; the Chrome format wants
microseconds (``ts``/``dur``), so seconds are scaled by 1e6.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, List, Optional, Union

from .tracer import TraceRecord

#: Chrome trace-event timestamps are in microseconds.
_US = 1e6


def to_jsonl_lines(records: Iterable[TraceRecord]) -> List[str]:
    """One stable-keyed JSON object per record.

    Keys appear in exactly this order: ``name``, ``t``, ``dur``
    (spans only), ``host`` (when set), then the event attributes under
    ``attrs``.  Consumers may rely on the order.
    """
    lines = []
    for rec in records:
        obj = {"name": rec.name, "t": rec.t}
        if rec.dur is not None:
            obj["dur"] = rec.dur
        if rec.host is not None:
            obj["host"] = rec.host
        obj["attrs"] = _jsonable(rec.attrs)
        lines.append(json.dumps(obj, sort_keys=False))
    return lines


def export_jsonl(records: Iterable[TraceRecord],
                 path_or_file: Union[str, IO]) -> int:
    """Write records as JSONL; returns the number of lines written."""
    lines = to_jsonl_lines(records)
    text = "\n".join(lines) + ("\n" if lines else "")
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(text)
    return len(lines)


def load_jsonl(path_or_file: Union[str, IO]) -> List[TraceRecord]:
    """Read a JSONL trace back into :class:`TraceRecord` objects."""
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
    else:
        with open(path_or_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        records.append(TraceRecord(
            name=obj["name"], t=obj["t"], dur=obj.get("dur"),
            host=obj.get("host"), attrs=obj.get("attrs", {}),
        ))
    return records


def to_chrome(records: Iterable[TraceRecord]) -> dict:
    """The JSON Trace Event Format object Perfetto loads.

    Spans become complete ``"X"`` events, instants become ``"i"``
    events with thread scope; each distinct host gets a ``pid`` plus a
    ``process_name`` metadata event, and records without a host land
    on a shared "cluster" track.
    """
    pids = {}

    def pid_for(host: Optional[str]) -> int:
        key = host if host is not None else "cluster"
        if key not in pids:
            pids[key] = len(pids) + 1
        return pids[key]

    trace_events = []
    for rec in records:
        entry = {
            "name": rec.name,
            "cat": rec.name.split(".", 1)[0],
            "ph": "X" if rec.is_span else "i",
            "ts": rec.t * _US,
            "pid": pid_for(rec.host),
            "tid": 1,
            "args": _jsonable(rec.attrs),
        }
        if rec.is_span:
            entry["dur"] = rec.dur * _US
        else:
            entry["s"] = "t"  # thread-scoped instant
        trace_events.append(entry)
    for key, pid in sorted(pids.items(), key=lambda kv: kv[1]):
        trace_events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 1,
            "args": {"name": key},
        })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro"},
    }


def export_chrome(records: Iterable[TraceRecord],
                  path_or_file: Union[str, IO]) -> int:
    """Write the Chrome/Perfetto trace; returns the event count."""
    doc = to_chrome(records)
    if hasattr(path_or_file, "write"):
        json.dump(doc, path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return len(doc["traceEvents"])


def _jsonable(attrs: dict) -> dict:
    """Attribute values coerced to JSON-representable types."""
    out = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = str(value)
    return out
