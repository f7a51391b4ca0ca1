"""The ElementTree encoder, kept as the differential oracle.

Until PR 18 this *was* ``repro.protocol.messages.encode``: every
message built an ``ET.Element`` tree and ``ET.tostring`` serialised it.
``src/`` now writes the same bytes directly; this copy stays so a
property test can hold the writer to whatever ElementTree the running
interpreter ships, next to the committed fixture that holds both to the
bytes of the commit that introduced the writer.
"""

import xml.etree.ElementTree as ET


def _register(msg):
    elem = ET.Element("static")
    for key in sorted(msg.static_info):
        item = ET.SubElement(elem, "i", name=key)
        item.text = str(msg.static_info[key])
    return elem


def _status(msg):
    elem = ET.Element("status", state=msg.state.name.lower())
    metrics = ET.SubElement(elem, "metrics")
    for key in sorted(msg.metrics):
        m = ET.SubElement(metrics, "m", name=key)
        m.text = repr(float(msg.metrics[key]))
    procs = ET.SubElement(elem, "processes")
    for proc in msg.processes:
        features = proc.get("features", ())
        if not isinstance(features, str):
            features = ",".join(features)
        p = ET.SubElement(
            procs,
            "p",
            pid=str(proc["pid"]),
            name=str(proc["name"]),
            start=repr(float(proc["start_time"])),
            eta=repr(float(proc["est_completion"])),
            locality=repr(float(proc.get("data_locality", 0.0))),
            minMem=str(int(proc.get("min_memory_bytes", 0))),
            minDisk=str(int(proc.get("min_disk_bytes", 0))),
            minCpu=repr(float(proc.get("min_cpu_speed", 0.0))),
            features=features,
        )
        world = int(proc.get("world_size", 1))
        wmin = int(proc.get("min_world", 1))
        wmax = int(proc.get("max_world", 1))
        curve = proc.get("efficiency_curve", "")
        if not isinstance(curve, str):
            curve = ",".join(repr(float(v)) for v in curve)
        if world != 1:
            p.set("world", str(world))
        if wmin != 1:
            p.set("wmin", str(wmin))
        if wmax != 1:
            p.set("wmax", str(wmax))
        if curve:
            p.set("eff", curve)
    return elem


def _candidate_request(msg):
    elem = ET.Element(
        "want", app=msg.app_name, reqId=msg.req_id,
        hops=str(msg.hops), exclude=",".join(msg.exclude),
    )
    if msg.requirements_xml:
        elem.append(ET.fromstring(msg.requirements_xml))
    return elem


def _candidate_reply(msg):
    elem = ET.Element("candidate", reqId=msg.req_id)
    if msg.dest:
        elem.set("dest", msg.dest)
    return elem


def _migrate(msg):
    return ET.Element(
        "migrate",
        pid=str(msg.pid),
        dest=msg.dest,
        reason=msg.reason,
        decision=repr(msg.decision_seconds),
    )


def _expand(msg):
    return ET.Element(
        "expand",
        pid=str(msg.pid),
        dests=",".join(msg.dests),
        reason=msg.reason,
        decision=repr(msg.decision_seconds),
    )


def _shrink(msg):
    return ET.Element(
        "shrink",
        pid=str(msg.pid),
        dest=msg.dest,
        reason=msg.reason,
        decision=repr(msg.decision_seconds),
    )


BODIES = {
    "register": _register,
    "status": _status,
    "unregister": lambda msg: ET.Element("bye"),
    "candidate-request": _candidate_request,
    "candidate-reply": _candidate_reply,
    "migrate": _migrate,
    "expand": _expand,
    "shrink": _shrink,
    "status-query": lambda msg: ET.Element("query"),
    "ack": lambda msg: ET.Element("ack", ok=str(msg.ok).lower(),
                                  detail=msg.detail),
}


def encode(msg, sender, timestamp):
    """``messages.encode`` as it was: build the tree, serialise it."""
    root = ET.Element(
        "msg", type=msg.TYPE, sender=sender, host=msg.host,
        ts=repr(float(timestamp)),
    )
    root.append(BODIES[msg.TYPE](msg))
    return ET.tostring(root, encoding="utf-8")
