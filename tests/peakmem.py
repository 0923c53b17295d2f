"""Peak memory of one call, as ``tracemalloc`` counts it, and of one
command-line child, as the kernel counts it.

numpy reports its array buffers to ``tracemalloc``, so the peak covers
every temporary a numpy routine makes, as well as Python objects. It
cannot see forked worker processes; ``child_peak_rss_mb`` can. Import it
as ``peakmem`` from a test module in this directory.
"""

import subprocess
import sys
import tracemalloc
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


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


# Starts the command in its arguments, waits for it with os.wait4 and prints
# its exit code and ru_maxrss. A child's ru_maxrss also counts the memory
# of the process it was forked from, so the child is started from this
# small interpreter, not from the test process.
_WAIT4 = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def child_peak_rss_mb(argv: List[str], env: Optional[Dict[str, str]] = None,
                      preload: Sequence[str] = ()) -> float:
    """The peak resident set size, in MiB, of ``python -m ensemblekit
    *argv`` and of the worker processes it waited for: ``ru_maxrss`` from
    ``os.wait4``, which Linux counts in KiB. The child imports the modules
    named in ``preload`` first. Raises unless the child exits 0."""
    start = ["-m", "ensemblekit"]
    if preload:
        start = ["-c", f"import {', '.join(preload)}, runpy; "
                       "runpy.run_module('ensemblekit', run_name='__main__', alter_sys=True)"]
    done = subprocess.run([sys.executable, "-c", _WAIT4, sys.executable, *start, *argv],
                          env=env, capture_output=True, text=True, check=True)
    code, kib = map(int, done.stdout.split())
    if code != 0:
        raise AssertionError(f"ensemblekit {' '.join(argv)} exited {code}: {done.stderr}")
    return kib / 1024.0
