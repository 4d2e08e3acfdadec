"""The machine's current speed, from a fixed calibration loop.

The benchmark runs on shared hosts whose speed drifts by a factor of
two or more within a minute: the same `min-n0` call ran anywhere from
35k to 76k n/s over two minutes, and 10-second medians spread by 30%.
Timing this loop next to the measured work and scaling by it removes
most of that drift; the scaled figures spread by about 5%.

Importing this module imports nothing else, so a fresh interpreter can
calibrate before it imports apcover.
"""

from time import perf_counter

# The loop's time on the machine the baseline was measured on (2-core
# x86-64 container, CPython 3.11) when it ran fastest.
CAL_REF_S = 0.005


def calibrate() -> float:
    """Seconds for a fixed loop of list, dict and small-int work.

    It uses the interpreter the way apcover's loops do, so it slows
    down with them when the host is busy; a bare arithmetic loop tracks
    that about half as well.
    """
    start = perf_counter()
    table = {}
    values = list(range(2000))
    acc = 0
    for i in range(24_000):
        acc += values[i % 2000] * 3 % 11
        table[i & 1023] = acc
        if i * 7 in table:
            acc += 1
    return perf_counter() - start
