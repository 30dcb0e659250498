"""Shared test helpers."""

import tracemalloc

import pytest


def _traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak bytes it allocated)``, by tracemalloc.

    Only allocations made during the call count, so its arguments do not.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    return _traced_peak
