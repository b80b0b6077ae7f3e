import tracemalloc

import pytest


@pytest.fixture
def peak_mb():
    """peak_mb(fn, *args): the tracemalloc peak of one call, in MB."""
    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return peak
