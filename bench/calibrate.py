"""Machine-speed calibration for CPU seconds measured on a shared host.

On a host shared with other tenants the machine's speed drifts: the
same benchmark round ran up to 1.6 times slower for minutes at a time.
A run times this fixed loop right before and right after each command
it measures; their mean against NOMINAL_S is the machine's speed while
the command ran, and the command's CPU seconds are rescaled to nominal
speed by it. Waiting (sleep, modelled network delay) is not rescaled.
The loop uses only the standard library, so no change to the program
can move it.
"""

from __future__ import annotations

import json
import random
import re
import time

# seconds one slice takes at nominal speed: the median seen on the 2-vCPU
# x86-64 VM the first baseline was measured on
NOMINAL_S = 0.035

_WORDS = ["alpha", "beta", "Gamma", "delta", "Epsilon", "zeta", "eta", "Theta", "iota", "Kappa"]
_SENTENCE_END = re.compile(r"(?<=[.])\s+(?=[A-Z])")


def _text() -> str:
    rng = random.Random(0)
    return " ".join(rng.choice(_WORDS) + ("." if i % 9 == 8 else "") for i in range(80000))


_TEXT = _text()


def slice_seconds() -> float:
    """Wall seconds of one fixed slice of regex, string, dict and JSON work."""
    started = time.perf_counter()
    parts = _SENTENCE_END.split(_TEXT)
    counts: dict[str, int] = {}
    for part in parts:
        for word in part.lower().split():
            counts[word] = counts.get(word, 0) + 1
    json.loads(json.dumps({"parts": parts, "counts": counts}, sort_keys=True))
    sorted(parts)
    return time.perf_counter() - started


def nominal_seconds(wall_s: float, cpu_s: float, before_s: float, after_s: float) -> float:
    """Wall seconds with the CPU part rescaled to nominal speed.

    before_s and after_s are the slices timed around the measured work.
    """
    cpu_s = min(cpu_s, wall_s)
    return wall_s - cpu_s + cpu_s * NOMINAL_S / ((before_s + after_s) / 2)
