"""Helpers shared by the test modules."""
import tracemalloc


def traced_peak(fn, *args, **kwargs) -> int:
    """Bytes that ``fn(*args, **kwargs)`` holds at its traced high-water mark.

    numpy reports its buffers to tracemalloc, so the count repeats exactly.
    The memory traced before the call is subtracted; the result is not kept.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
