"""Shared-resource primitives built on the event kernel.

* :class:`Store` — FIFO buffer of items with blocking get/put.
* :class:`FilterStore` — get with a predicate (used for MPI tag matching).
"""

from __future__ import annotations

from typing import Any, Callable

from .events import Event

Infinity = float("inf")


class StorePut(Event):
    """Pending put of ``item`` into a store."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    """Pending get from a store."""

    __slots__ = ("_cancelled",)

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        self._cancelled = False
        store._get_queue.append(self)
        store._trigger()

    def cancel(self) -> None:
        """Withdraw an unprocessed get request.

        Removal from the queue happens on the store's next trigger pass.
        """
        self._cancelled = True


class Store:
    """FIFO item buffer with optional ``capacity``."""

    def __init__(self, env: Any, capacity: float = Infinity):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: list = []
        self._put_queue: list = []
        self._get_queue: list = []

    def put(self, item: Any) -> StorePut:
        """Event that succeeds once ``item`` is stored."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Event that succeeds with the next item."""
        return StoreGet(self)

    def __len__(self) -> int:
        return len(self.items)

    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self.items.append(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self.items.pop(0))
            return True
        return False

    def _trigger(self) -> None:
        # Drain whichever queues can make progress.  Each pass first
        # satisfies getters, then admits puts freed capacity allows.
        progress = True
        while progress:
            progress = False
            idx = 0
            while idx < len(self._get_queue):
                event = self._get_queue[idx]
                if event.triggered or getattr(event, "_cancelled", False):
                    self._get_queue.pop(idx)
                    progress = True
                elif self._do_get(event):
                    self._get_queue.pop(idx)
                    progress = True
                else:
                    idx += 1
            idx = 0
            while idx < len(self._put_queue):
                event = self._put_queue[idx]
                if event.triggered:
                    self._put_queue.pop(idx)
                    progress = True
                elif self._do_put(event):
                    self._put_queue.pop(idx)
                    progress = True
                else:
                    idx += 1


class FilterStoreGet(StoreGet):
    """Pending get with a predicate over items."""

    __slots__ = ("filter",)

    def __init__(self, store: "FilterStore", filter: Callable[[Any], bool]):
        self.filter = filter
        super().__init__(store)


class FilterStore(Store):
    """A store whose getters may select items by predicate.

    Getters are served in FIFO order *per matching item*: an older getter
    whose filter matches nothing does not block a younger getter whose
    filter matches.
    """

    def get(  # type: ignore[override]
        self, filter: Callable[[Any], bool] = lambda item: True
    ) -> FilterStoreGet:
        return FilterStoreGet(self, filter)

    def _do_get(self, event: StoreGet) -> bool:
        flt = getattr(event, "filter", None) or (lambda item: True)
        for i, item in enumerate(self.items):
            if flt(item):
                self.items.pop(i)
                event.succeed(item)
                return True
        return False

    def _trigger(self) -> None:
        # Unlike the base Store, a blocked getter must not stall others.
        progress = True
        while progress:
            progress = False
            idx = 0
            while idx < len(self._put_queue):
                event = self._put_queue[idx]
                if event.triggered or self._do_put(event):
                    self._put_queue.pop(idx)
                    progress = True
                else:
                    idx += 1
            idx = 0
            while idx < len(self._get_queue):
                event = self._get_queue[idx]
                if event.triggered or getattr(event, "_cancelled", False):
                    self._get_queue.pop(idx)
                    progress = True
                elif self._do_get(event):
                    self._get_queue.pop(idx)
                    progress = True
                else:
                    idx += 1
