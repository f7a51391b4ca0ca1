"""The custom XML message protocol (paper §3.3).

"We combine a custom XML based protocol with TCP/IP sockets to form the
communication subsystem of the rescheduler."  Every message type
round-trips through real XML (plain ASCII, transport-independent); the
encoded byte length is what the simulated network carries, so protocol
overhead measurements (Figure 6) reflect genuine message sizes.

``encode`` writes the XML as text and ``decode`` parses it with
ElementTree, except that the two messages a live deployment sends most
-- the heartbeat (``StatusUpdate``) and the ``MigrateCommand`` that
answers an overload -- are read by one compiled pattern each when spelt
exactly as ``encode`` spells them.  Neither shortcut is observable: the
bytes are those ElementTree's serialiser produced
(tests/protocol/fixtures/wire_golden.jsonl) and the patterns accept
nothing the parser would read differently (docs/architecture.md).
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple
from xml.etree.ElementTree import Element

from ..rules.states import SystemState


class ProtocolError(ValueError):
    """Malformed message."""


# -- the writer ---------------------------------------------------------
# Messages are written as text, not built as an ElementTree and
# serialised: the two escape tables below are ElementTree's own
# (``_escape_attrib`` / ``_escape_cdata``), so the bytes are the ones
# its serialiser produced, pinned by tests/protocol/fixtures.
_ATTR_ESCAPES = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    "\r": "&#13;", "\n": "&#10;", "\t": "&#09;",
})
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
# Almost no value holds a character to escape; one C-level search is
# cheaper than translating every value through a table.
_attr_special = re.compile('[&<>"\r\n\t]').search
_text_special = re.compile("[&<>]").search


def _escape_text(text: str) -> str:
    return text.translate(_TEXT_ESCAPES) if _text_special(text) else text


def _escape_attrs(values: List[str]) -> List[str]:
    """``values`` as attribute values: one search over all of them
    decides, and only a message holding a character to escape pays for
    the table."""
    if _attr_special("".join(values)):
        return [value.translate(_ATTR_ESCAPES) for value in values]
    return values


def _tag(name: str, attrs: Iterable[Tuple[str, str]], inner: str = "") -> str:
    """``<name k="v">inner</name>``, or ``<name k="v" />`` when
    ``inner`` is empty: attributes in the order given and escaped here,
    ``inner`` already serialised."""
    head = name
    for key, value in attrs:
        if _attr_special(value):
            value = value.translate(_ATTR_ESCAPES)
        head += f' {key}="{value}"'
    return f"<{head}>{inner}</{name}>" if inner else f"<{head} />"


#: ``<metrics>`` as one ``%r`` template, and the names in the order its
#: values fill it, by the order of a metrics dict's names.  A host sends
#: the same names in the same order every cycle, but names can arrive
#: from the network, so the cache is emptied whenever it reaches its
#: bound.
_TEMPLATES: Dict[tuple, Tuple[str, tuple]] = {}
_TEMPLATES_MAX = 1024


def _template(order: tuple) -> Tuple[str, tuple]:
    """Fill the cache for the metric names ``order``.  An entry depends
    on its key alone, so two threads racing here at worst write the
    same one twice."""
    if len(_TEMPLATES) >= _TEMPLATES_MAX:
        _TEMPLATES.clear()
    names = tuple(sorted(order))
    heads = _escape_attrs(list(names))
    template = "".join([
        f'<m name="{head.replace("%", "%%")}">%r</m>' for head in heads])
    entry = _TEMPLATES[order] = (
        f"<metrics>{template}</metrics>" if names else "<metrics />", names)
    return entry


def _process_tag(proc: dict) -> str:
    """One ``<p />`` of a status message, its attributes in
    ``_process``'s order.  Malleability (world) attributes ride only
    when declared: rigid processes keep the paper's exact message
    bytes."""
    features = proc.get("features", ())
    if not isinstance(features, str):
        features = ",".join(features)
    pid, name = str(proc["pid"]), str(proc["name"])
    numbers = (f' start="{float(proc["start_time"])!r}"'
               f' eta="{float(proc["est_completion"])!r}"'
               f' locality="{float(proc.get("data_locality", 0.0))!r}"'
               f' minMem="{int(proc.get("min_memory_bytes", 0))}"'
               f' minDisk="{int(proc.get("min_disk_bytes", 0))}"'
               f' minCpu="{float(proc.get("min_cpu_speed", 0.0))!r}"')
    world = int(proc.get("world_size", 1))
    wmin = int(proc.get("min_world", 1))
    wmax = int(proc.get("max_world", 1))
    curve = proc.get("efficiency_curve", "")
    if not isinstance(curve, str):
        curve = ",".join([repr(float(v)) for v in curve])
    pid, name, features, curve = _escape_attrs([pid, name, features, curve])
    return "".join([
        f'<p pid="{pid}" name="{name}"', numbers, f' features="{features}"',
        f' world="{world}"' if world != 1 else "",
        f' wmin="{wmin}"' if wmin != 1 else "",
        f' wmax="{wmax}"' if wmax != 1 else "",
        f' eff="{curve}"' if curve else "",
        " />",
    ])


def _metrics_from_element(elem: Optional[Element]) -> Dict[str, float]:
    if elem is None:
        return {}
    return {m.get("name"): float(m.text) for m in elem.findall("m")}


def _process(get) -> dict:
    """One process report from ``get(attribute[, default])`` of a
    ``<p>``: an ``Element``'s or, for the one-pass reader, a dict's."""
    return {
        "pid": int(get("pid")),
        "name": get("name"),
        "start_time": float(get("start")),
        "est_completion": float(get("eta")),
        "data_locality": float(get("locality", "0")),
        "min_memory_bytes": int(get("minMem", "0")),
        "min_disk_bytes": int(get("minDisk", "0")),
        "min_cpu_speed": float(get("minCpu", "0")),
        "features": get("features", ""),
        "world_size": int(get("world", "1")),
        "min_world": int(get("wmin", "1")),
        "max_world": int(get("wmax", "1")),
        "efficiency_curve": get("eff", ""),
    }


@dataclass(frozen=True)
class Register:
    """One-time registration of a host's static information."""

    host: str
    static_info: Dict[str, object] = field(default_factory=dict)

    TYPE = "register"

    def body(self) -> str:
        return _tag("static", (), "".join([
            _tag("i", [("name", key)],
                 _escape_text(str(self.static_info[key])))
            for key in sorted(self.static_info)
        ]))

    @classmethod
    def from_body(cls, host: str, elem: Element) -> "Register":
        static = elem.find("static")
        info: Dict[str, object] = {}
        if static is not None:
            info = {i.get("name"): i.text for i in static.findall("i")}
        return cls(host=host, static_info=info)


@dataclass(frozen=True)
class StatusUpdate:
    """Periodic soft-state refresh: state + metrics + process list."""

    host: str
    state: SystemState
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Migration-enabled processes (ProcessInfo.as_dict entries).
    processes: List[dict] = field(default_factory=list)

    TYPE = "status"

    def __init__(self, host: str, state: SystemState,
                 metrics: Optional[Dict[str, float]] = None,
                 processes: Optional[List[dict]] = None):
        # One store instead of the frozen dataclass's setattr per field.
        object.__setattr__(self, "__dict__", {
            "host": host, "state": state,
            "metrics": {} if metrics is None else metrics,
            "processes": [] if processes is None else processes,
        })

    def body(self) -> str:
        values = self.metrics
        order = tuple(values)
        template, names = _TEMPLATES.get(order) or _template(order)
        metrics = template % tuple(map(float, map(values.__getitem__,
                                                  names)))
        procs = "".join([_process_tag(proc) for proc in self.processes])
        return "".join([
            f'<status state="{self.state.name.lower()}">', metrics,
            f"<processes>{procs}</processes>" if procs else "<processes />",
            "</status>",
        ])

    @classmethod
    def from_body(cls, host: str, elem: Element) -> "StatusUpdate":
        status = elem.find("status")
        if status is None:
            raise ProtocolError("status message without <status> body")
        procs_elem = status.find("processes")
        procs = [] if procs_elem is None else [
            _process(p.get) for p in procs_elem.findall("p")]
        return cls(
            host=host,
            state=SystemState[status.get("state", "free").upper()],
            metrics=_metrics_from_element(status.find("metrics")),
            processes=procs,
        )


@dataclass(frozen=True)
class Unregister:
    """Clean departure of a host."""

    host: str

    TYPE = "unregister"

    def body(self) -> str:
        return _tag("bye", ())

    @classmethod
    def from_body(cls, host: str, elem: Element) -> "Unregister":
        return cls(host=host)


@dataclass(frozen=True)
class CandidateRequest:
    """Ask (a parent or sibling registry) for a migration destination.

    ``req_id`` correlates the eventual reply; ``hops`` bounds
    escalation through the registry hierarchy; ``exclude`` names hosts
    that must not be offered (e.g. the overloaded source).
    """

    host: str
    app_name: str = ""
    requirements_xml: str = ""
    req_id: str = ""
    hops: int = 0
    exclude: tuple = ()

    TYPE = "candidate-request"

    def body(self) -> str:
        # The one fragment that still goes through ElementTree: an
        # embedded document is validated and canonicalised, not pasted.
        requirements = self.requirements_xml and ET.tostring(
            ET.fromstring(self.requirements_xml), encoding="unicode")
        return _tag("want", [
            ("app", self.app_name), ("reqId", self.req_id),
            ("hops", str(self.hops)), ("exclude", ",".join(self.exclude)),
        ], requirements)

    @classmethod
    def from_body(cls, host: str, elem: Element) -> "CandidateRequest":
        want = elem.find("want")
        if want is None:
            raise ProtocolError("candidate-request without <want> body")
        req = ""
        if len(want):
            req = ET.tostring(want[0], encoding="unicode")
        exclude = tuple(
            name for name in want.get("exclude", "").split(",") if name
        )
        return cls(
            host=host,
            app_name=want.get("app", ""),
            requirements_xml=req,
            req_id=want.get("reqId", ""),
            hops=int(want.get("hops", "0")),
            exclude=exclude,
        )


@dataclass(frozen=True)
class CandidateReply:
    """A recommended destination host (or none)."""

    host: str
    dest: Optional[str] = None
    req_id: str = ""

    TYPE = "candidate-reply"

    def body(self) -> str:
        attrs = [("reqId", self.req_id)]
        if self.dest:
            attrs.append(("dest", self.dest))
        return _tag("candidate", attrs)

    @classmethod
    def from_body(cls, host: str, elem: Element) -> "CandidateReply":
        cand = elem.find("candidate")
        if cand is None:
            raise ProtocolError("candidate-reply without <candidate> body")
        return cls(host=host, dest=cand.get("dest"),
                   req_id=cand.get("reqId", ""))


class _Command:
    """The one codec of the three registry → commander commands: a
    ``<TYPE pid DEST reason decision />`` body, where ``DEST`` is
    ``dest`` (one host) or ``dests`` (hosts joined by commas)."""

    DEST = "dest"

    def body(self) -> str:
        dest = getattr(self, self.DEST)
        return _tag(self.TYPE, [
            ("pid", str(self.pid)),
            (self.DEST, dest if self.DEST == "dest" else ",".join(dest)),
            ("reason", self.reason),
            ("decision", repr(self.decision_seconds)),
        ])

    @classmethod
    def from_body(cls, host: str, elem: Element):
        cmd = elem.find(cls.TYPE)
        if cmd is None:
            raise ProtocolError(
                f"{cls.TYPE} message without <{cls.TYPE}> body")
        if cls.DEST == "dests":
            dest = tuple(
                name for name in cmd.get("dests", "").split(",") if name)
        else:
            # Missing, it reads as the field's default: none for a
            # migration, which has no default.
            dest = cmd.get("dest", getattr(cls, "dest", None))
        return cls(
            host=host,
            pid=int(cmd.get("pid")),
            reason=cmd.get("reason", ""),
            decision_seconds=float(cmd.get("decision", "0")),
            **{cls.DEST: dest},
        )


@dataclass(frozen=True)
class MigrateCommand(_Command):
    """Registry → commander: move ``pid`` to ``dest``."""

    host: str  # the source host (the commander's host)
    pid: int
    dest: str
    reason: str = ""
    decision_seconds: float = 0.0

    TYPE = "migrate"


@dataclass(frozen=True)
class ExpandCommand(_Command):
    """Registry → commander: grow ``pid``'s world onto ``dests``.

    The N:M generalization of :class:`MigrateCommand` — the source
    host keeps its rank, the world repartitions across the union at
    the next poll-point (docs/malleability.md).
    """

    host: str  # the source host (the commander's host)
    pid: int
    dests: tuple = ()
    reason: str = ""
    decision_seconds: float = 0.0

    TYPE = "expand"
    DEST = "dests"


@dataclass(frozen=True)
class ShrinkCommand(_Command):
    """Registry → commander: retire ``pid``'s rank from its world.

    ``dest`` names a surviving peer host (the merge context the state
    folds into); the world repartitions across the remaining ranks at
    the next poll-point.
    """

    host: str  # the source host (the commander's host)
    pid: int
    dest: str = ""
    reason: str = ""
    decision_seconds: float = 0.0

    TYPE = "shrink"


@dataclass(frozen=True)
class StatusQuery:
    """Registry → monitor: request an immediate status report.

    The *pull* model of §3.2: "the registry/scheduler can decide when
    it needs the information and status of each host.  It then queries
    the current information to make more optimized decisions.  But,
    this also leads to the registry/scheduler having to make a query at
    runtime when a decision is expected, thus slowing down the
    process."
    """

    host: str  # the queried host

    TYPE = "status-query"

    def body(self) -> str:
        return _tag("query", ())

    @classmethod
    def from_body(cls, host: str, elem: Element) -> "StatusQuery":
        return cls(host=host)


@dataclass(frozen=True)
class Ack:
    """Generic acknowledgement."""

    host: str
    ok: bool = True
    detail: str = ""

    TYPE = "ack"

    def body(self) -> str:
        return _tag("ack", [("ok", str(self.ok).lower()),
                            ("detail", self.detail)])

    @classmethod
    def from_body(cls, host: str, elem: Element) -> "Ack":
        ack = elem.find("ack")
        return cls(
            host=host,
            ok=(ack.get("ok", "true") == "true") if ack is not None else True,
            detail=ack.get("detail", "") if ack is not None else "",
        )


#: Registry of message classes by wire type.
MESSAGE_TYPES = {
    cls.TYPE: cls
    for cls in (Register, StatusUpdate, Unregister, CandidateRequest,
                CandidateReply, MigrateCommand, ExpandCommand,
                ShrinkCommand, StatusQuery, Ack)
}


def encode(msg, sender: str, timestamp: float) -> bytes:
    """Serialize a message to wire bytes (ASCII XML)."""
    ts = repr(float(timestamp))
    body = msg.body()
    sender, host = _escape_attrs([sender, msg.host])
    return (f'<msg type="{msg.TYPE}" sender="{sender}" host="{host}"'
            f' ts="{ts}">{body}</msg>').encode("utf-8", "xmlcharrefreplace")


# -- the canonical heartbeat and command, read in one pass ----------------
# ``StatusUpdate`` is the message every host sends every cycle, and
# ``MigrateCommand`` the registry's answer to an overload.  Each pattern
# below accepts exactly the bytes ``encode`` writes for one and nothing
# else; whatever both decline -- other types, and every other spelling
# XML allows -- is parsed by ElementTree.  The readers must not be
# tellable apart, which is why a value is printable ASCII without
# ``" & < >`` and not ``[^"]*``: expat resolves entities, turns a literal
# tab or newline in an attribute into a space, rejects most control
# characters and decodes UTF-8, and a value free of all of those is one
# expat hands over unchanged.  It also means ``"`` and ``<`` occur only
# as markup, so a matched group is taken apart by splitting on markup,
# with no second pattern.
_CHAR = "[ !#-%'-;=?-~]"
_V = f"{_CHAR}*"
_STATES = {state.name.lower(): state for state in SystemState}
_M = f'<m name="{_V}">{_CHAR}+</m>'
_P = (f'<p pid="{_V}" name="{_V}" start="{_V}" eta="{_V}" locality="{_V}"'
      f' minMem="{_V}" minDisk="{_V}" minCpu="{_V}" features="{_V}"'
      f'(?: world="{_V}")?(?: wmin="{_V}")?(?: wmax="{_V}")?'
      f'(?: eff="{_V}")? />')
_HEAD = f'sender="({_V})" host="({_V})" ts="({_V})">'
_STATUS = re.compile(
    f'<msg type="status" {_HEAD}<status state="({"|".join(_STATES)})">'
    f"(?:<metrics>((?:{_M})+)</metrics>|<metrics />)"
    f"(?:<processes>((?:{_P})+)</processes>|<processes />)"
    "</status></msg>"
)
_MIGRATE = re.compile(
    f'<msg type="migrate" {_HEAD}<migrate pid="({_V})" dest="({_V})"'
    f' reason="({_V})" decision="({_V})" /></msg>'
)
#: Between a metric's name and its value, and between two metrics.
_M_SEP = '</m><m name="'


def _attributes(p: str) -> Dict[str, str]:
    """A matched ``<p>``'s attributes from ``a="1" b="2``, the text
    inside its outer quotes."""
    parts = p.split('"')  # a=, 1, ' b=', 2
    names = "".join(parts[::2])[:-1].split("= ")  # 'a= b=' -> a, b
    return dict(zip(names, parts[1::2]))


def decode(data: bytes):
    """Parse wire bytes back into (message, sender, timestamp).

    Raises :class:`ProtocolError` for anything that is not a valid
    message: bad XML, an unknown type, a missing or unreadable value.
    """
    # Latin-1 cannot fail and maps every non-ASCII byte to a character
    # the patterns' alphabet excludes.
    text = data.decode("latin-1")
    try:
        status = _STATUS.fullmatch(text)
        if status is not None:
            sender, host, ts, state, metrics, procs = status.groups("")
            # '<m name="k1">v1</m><m name="k2">v2</m>' -> k1, v1, k2, v2
            # ('' -> '', no value: no metric)
            fields = metrics[9:-4].replace('">', _M_SEP).split(_M_SEP)
            return StatusUpdate(
                host=host,
                state=_STATES[state],
                metrics=dict(zip(fields[::2], map(float, fields[1::2]))),
                processes=[
                    _process(_attributes(p).get)
                    for p in procs[3:-4].split('" /><p ')
                ] if procs else [],
            ), sender, float(ts)
        command = _MIGRATE.fullmatch(text)
        if command is not None:
            sender, host, ts, pid, dest, reason, decision = command.groups()
            return MigrateCommand(
                host=host, pid=int(pid), dest=dest, reason=reason,
                decision_seconds=float(decision),
            ), sender, float(ts)
        return _decode_xml(data)
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid message: {exc!r}") from exc


def _decode_xml(data: bytes):
    """Any message, any spelling: ElementTree, then ``from_body``."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise ProtocolError(f"bad XML: {exc}") from exc
    if root.tag != "msg":
        raise ProtocolError(f"unexpected root {root.tag!r}")
    mtype = root.get("type", "")
    cls = MESSAGE_TYPES.get(mtype)
    if cls is None:
        raise ProtocolError(f"unknown message type {mtype!r}")
    msg = cls.from_body(root.get("host", ""), root)
    return msg, root.get("sender", ""), float(root.get("ts", "0"))
