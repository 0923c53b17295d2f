"""Peak memory of one call, as ``tracemalloc`` counts it.

numpy reports its array buffers to ``tracemalloc``, so the peak covers
every temporary a numpy routine makes, as well as Python objects. Import
it as ``peakmem`` from a test module in this directory.
"""

import tracemalloc
from typing import Any, Callable, Tuple


def traced_peak(call: Callable[[], Any]) -> Tuple[Any, int]:
    """``call()``'s result and the peak of the bytes it had allocated and
    not yet freed while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
