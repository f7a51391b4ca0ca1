"""The kernel's one shared-resource primitive: :class:`Store`.

An unbounded item buffer.  A put is immediate; a get is an event, and
may select items by predicate (MPI matches messages by source and tag).
A closed store fails its waiting gets, and every later one.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .events import Event


class StoreGet(Event):
    """A pending :meth:`Store.get`; succeeds with the item it takes."""

    __slots__ = ("filter",)

    def __init__(self, env: Any, filter: Optional[Callable[[Any], bool]]):
        super().__init__(env)
        self.filter = filter


class Store:
    """An unbounded FIFO item buffer with filtered gets.

    Every item in ``items`` is one no waiting getter matches, so a
    getter whose filter matches nothing does not stall a younger one.
    """

    def __init__(self, env: Any):
        self.env = env
        self.items: list = []
        self._getters: list = []
        #: What every get fails with once the store is closed.
        self._closed: Optional[BaseException] = None

    def put(self, item: Any) -> None:
        """Hand ``item`` to the oldest waiting getter it matches, or
        keep it; nothing waits on a put."""
        for i, getter in enumerate(self._getters):
            if getter.filter is None or getter.filter(item):
                del self._getters[i]
                getter.succeed(item)
                return
        self.items.append(item)

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Event that succeeds with the oldest item, or the oldest one
        ``filter`` matches."""
        event = StoreGet(self.env, filter)
        if self._closed is not None:
            return event.fail(self._closed)
        for i, item in enumerate(self.items):
            if filter is None or filter(item):
                del self.items[i]
                event.succeed(item)
                return event
        self._getters.append(event)
        return event

    def close(self, exc: BaseException) -> None:
        """Fail every waiting get, and every later one, with ``exc``:
        how an abort reaches a process blocked on this store."""
        self._closed = exc
        getters, self._getters = self._getters, []
        for getter in getters:
            getter.fail(exc)
