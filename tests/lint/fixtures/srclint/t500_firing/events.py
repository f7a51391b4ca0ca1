"""Fixture catalogue: one instant event and one span."""

from dataclasses import dataclass

EV_PING = "demo.ping"
EV_WORK = "demo.work"


@dataclass(frozen=True)
class EventSpec:
    name: str
    kind: str


EVENTS = {
    spec.name: spec
    for spec in (
        EventSpec(EV_PING, "event"),
        EventSpec(EV_WORK, "span"),
    )
}
