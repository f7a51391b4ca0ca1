"""Fixture: a threaded worker with one of every C700 defect."""

import threading
import time

jobs = []  # C705: module-level mutable shared by the threads below


def enqueue(item):
    jobs.append(item)


class Worker:
    def __init__(self):
        self.results = []  # public, later written lock-free: C701
        self.beats = 0     # public, incremented by two contexts: C701
        self._shared = 0   # cross-context without a common lock: C701
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._loop)
        self._thread.start()
        threading.Thread(target=self._drain).start()

    def _loop(self):
        while True:
            self._shared += 1
            self.beats += 1
            self.results.append(self._shared)
            with self._lock:
                time.sleep(0.1)  # C702: blocking while holding _lock

    def _drain(self):
        value = self._shared
        self._shared = value
        self.beats += 1
