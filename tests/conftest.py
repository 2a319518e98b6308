import threading

import pytest

from patrev import transform


@pytest.fixture
def two_threads(monkeypatch):
    """Every pass of more than one line splits over two threads."""
    monkeypatch.setattr(transform, "_THREADED_SIZE", 0)
    monkeypatch.setattr(transform, "_CPUS", 2)


@pytest.fixture
def thread_starts(monkeypatch):
    """A list that grows by one entry per thread started while the test runs."""
    starts = []

    class Counting(threading.Thread):
        def start(self):
            starts.append(self)
            super().start()

    monkeypatch.setattr(transform.threading, "Thread", Counting)
    return starts
