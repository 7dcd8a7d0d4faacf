"""A fixed reference computation that measures how fast the machine runs
exact-arithmetic Python right now.

    python3 bench/calib.py

The benchmark's list time (`wall_calib`) is divided by the time of
`work()`, run in each case's child process just before the timed call.  On a shared
host the speed of pure-Python code drifts by tens of percent over minutes;
code of the same kind as gtbases slows down with it, so the ratio holds
still where the raw time does not.  `work()` imports nothing from gtbases,
so no change to the program moves it.  It does what the program's hot
paths do: `Fraction` row reduction of a dense matrix and products of
dict-of-keys sparse matrices.
"""

import random
import time
from fractions import Fraction


def _rref(rows):
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0])):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [a - f * b for a, b in zip(row, rows[r])]
        r += 1
    return rows


def _sparse_power(n, k):
    a = {(i, (i * 7 + j) % n): Fraction(j + 1, i + 2) for i in range(n) for j in range(6)}
    by_row = {}
    for (i, j), v in a.items():
        by_row.setdefault(i, []).append((j, v))
    acc = a
    for _ in range(k):
        out = {}
        for (i, j), v in acc.items():
            for m, w in by_row.get(j, ()):
                out[(i, m)] = out.get((i, m), 0) + v * w
        acc = {key: v for key, v in out.items() if v}
    return acc


def work():
    """The reference computation; returns a checksum of its results."""
    rng = random.Random(12345)
    total = Fraction(0)
    for _ in range(2):
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(16)]
             for _ in range(12)]
        total += sum(sum(row) for row in _rref(m))
    total += sum(_sparse_power(40, 3).values())
    return total


if __name__ == "__main__":
    for _ in range(5):
        t0 = time.perf_counter()
        work()
        print("%.4f s" % (time.perf_counter() - t0))
