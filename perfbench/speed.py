"""The machine's current speed, from a fixed block of interpreter work.

The benchmark's times are scaled to a fixed reference speed: a time t
measured between two reference blocks of durations b0 and b1 is reported as
t * REF_SECONDS / ((b0 + b1) / 2). The block uses only builtins, so the
set-up measurement can run it in a fresh interpreter before importing
anything else.
"""

import time

REF_SECONDS = 0.004   # nominal duration of one block
_REPEATS = 30


def reference_seconds() -> float:
    """Wall time of one block: big-integer, small-integer and dict work."""
    t0 = time.perf_counter()
    for _ in range(_REPEATS):
        x = 7 ** 300
        for i in range(200):
            x = (x * 1103515245 + i) >> 3
        d = {}
        for i in range(300):
            d[i & 63] = d.get(i & 63, 0) + i * i
        sorted(d.values())
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two blocks to reference speed."""
    return 2 * REF_SECONDS / (before + after)
