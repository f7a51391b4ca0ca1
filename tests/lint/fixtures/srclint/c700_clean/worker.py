"""Fixture: the same threaded shape, lock-disciplined and race-free."""

import threading
import time

LIMIT = 64  # immutable module constant: never flagged


class Worker:
    def __init__(self):
        self._results = []
        self._shared = 0
        self.beats = 0  # only _loop increments it: cannot tear
        self._lock = threading.Lock()
        self._wake = threading.Event()  # synchronises internally
        self._thread = threading.Thread(target=self._loop)
        self._thread.start()
        threading.Thread(target=self._drain).start()

    def _loop(self):
        while not self._wake.wait(0.05):
            self.beats += 1
            with self._lock:
                self._shared += 1
                self._results.append(self._shared)
            time.sleep(0.05)  # blocking happens outside the lock

    def _drain(self):
        with self._lock:
            value = self._shared
            self._results.clear()
        return value

    def stop(self):
        self._wake.set()
