"""A fixed pure-Python computation that shows how fast the machine runs now.

One unit row-reduces a fixed sparse 30-row matrix over Fractions with dict
rows, the kind of work veralg does, but with no veralg code, so no change
to veralg can change its time.  Each worker process times units of it
around and, every 0.2 s of CPU time, during its ops (see worker.py), and the
benchmark scales the ops' times by the result (see NOTES.md).

    python3 perfbench/reference.py [UNITS]     # prints seconds per unit

Run as a script, it helps to set REFERENCE_UNIT_S in run.py on a new machine.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

_RNG = random.Random(20131)
ROWS = tuple(
    tuple(
        (_RNG.randrange(70), Fraction(_RNG.choice((-3, -2, -1, 1, 2, 3)), _RNG.randint(1, 4)))
        for _ in range(6)
    )
    for _ in range(30)
)


def unit():
    pivots = {}
    for row in ROWS:
        r = dict(row)
        while r:
            c = max(r)
            p = pivots.get(c)
            if p is None:
                inv = 1 / r[c]
                pivots[c] = {k: v * inv for k, v in r.items()}
                break
            coef = r.pop(c)
            for k, v in p.items():
                if k != c:
                    s = r.get(k, 0) - coef * v
                    if s:
                        r[k] = s
                    else:
                        r.pop(k, None)
    return len(pivots)


def seconds_per_unit(units):
    start = time.perf_counter()
    for _ in range(units):
        unit()
    return (time.perf_counter() - start) / units


if __name__ == "__main__":
    print(seconds_per_unit(int(sys.argv[1]) if len(sys.argv) > 1 else 100))
