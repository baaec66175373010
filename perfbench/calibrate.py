"""Speed probes: a fixed pure-Python unit of work, timed while the command runs.

On a shared VM the same code runs up to twice as fast at one moment as at the
next: a vCPU's speed flips within fractions of a second, and the share of slow
time drifts over minutes. CPU time inflates with wall time, so it cannot be
subtracted, and a loop timed before and after a run misses what happened
during it. So ``child.py`` interrupts the command every ``PERIOD_S`` of wall
time and times one ``unit()`` in the same thread. A probe's speed is
``REFERENCE_S`` divided by the time the unit took, and the mean probe speed
over a stretch of the run is the machine's speed there. ``run.py`` takes the
probes' own time out of each stretch and scales the rest of its CPU time by
that speed, to the time the command would take at speed 1.0.

The unit does what the program's essay loop does most: parse a JSON record of
1536 floats (an embedding store read), take a float dot product (a cosine
similarity), and tokenize, count and format text (prompt building and
features). It never changes with the program, so a change to the program
moves the scaled times and a change of machine speed does not.
"""

from __future__ import annotations

import json
import random
import re
import time

PERIOD_S = 0.05
# Seconds one unit takes at speed 1.0, a round figure: on an x86-64 VM with
# 2 vCPUs (Intel Xeon, 2.1 GHz nominal) and Python 3.11 the unit took from
# about 0.9 to 1.8 ms, averaged over an invocation.
REFERENCE_S = 0.001

_rng = random.Random(1536)
_RECORD = json.dumps({"vector": [_rng.uniform(-1.0, 1.0) for _ in range(1536)]})
_TEXT = " ".join(
    "".join(_rng.choice("abcdefghij") for _ in range(_rng.randint(2, 9))) for _ in range(400)
) + "."
_TOKEN = re.compile(r"\w+|[^\w\s]")


def unit() -> int:
    vector = json.loads(_RECORD)["vector"]
    dot = sum(a * b for a, b in zip(vector, vector))
    counts: dict = {}
    for token in _TOKEN.findall(_TEXT):
        counts[token] = counts.get(token, 0) + 1
    text = "\n".join(f"{k}: {c}" for k, c in sorted(counts.items()))
    return len(text) + int(dot)


def probe() -> tuple[float, float]:
    """Time one unit: (start, end) on the monotonic clock."""
    start = time.monotonic()
    unit()
    return start, time.monotonic()


def window(probes: list, start: float, end: float) -> tuple[float, float] | None:
    """(mean speed, seconds the probes took) over the probes inside [start, end].

    None when no probe fell inside, so the caller can leave the time unscaled.
    """
    inside = [(a, b) for a, b in probes if a >= start and b <= end]
    if not inside:
        return None
    speeds = [REFERENCE_S / (b - a) for a, b in inside]
    return sum(speeds) / len(speeds), sum(b - a for a, b in inside)
