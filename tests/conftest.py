import concurrent.futures

import pytest


@pytest.fixture
def no_pool(monkeypatch):
    """Make any attempt to start a process pool fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
