import tracemalloc

import pytest


def _working_memory(call) -> int:
    """Peak bytes ``call()`` allocates above what is held on entry, as
    tracemalloc counts them (numpy reports its array buffers to it)."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.fixture
def working_memory():
    """``working_memory(call)``: the peak bytes ``call()`` allocates above
    what is held on entry."""
    return _working_memory
