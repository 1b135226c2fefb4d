"""A fixed job that measures how fast the host runs right now.

It does the same kinds of work as the permlcs CLI: it starts an interpreter,
imports numpy, lexsorts key arrays, builds a tuple of Python ints and checks
it is a permutation, formats and parses the values as text, builds a position
table, and runs a patience-sorting loop.  It never imports permlcs, so no
change to the program can change its run time; only the host can.

The end-to-end part runs it once before every pass and divides the time
metrics by the median of its walls (see run.py).  Prints its LIS length,
which is fixed, so a broken job is noticed.
"""

import bisect
import random

import numpy as np

N = 200_000

a = np.arange(N, dtype=np.int64)
word = tuple(np.lexsort((a, (a * 7919) % 100_003)).tolist())
if sorted(word) != list(range(N)):
    raise SystemExit("calibration word is not a permutation")
back = [int(x) for x in " ".join(map(str, word)).split()]
pos = [0] * N
for i, v in enumerate(back):
    pos[v] = i

perm = list(range(N))
random.Random(1).shuffle(perm)
tops: list[int] = []
for v in perm:
    i = bisect.bisect_left(tops, v)
    if i == len(tops):
        tops.append(v)
    else:
        tops[i] = v
print(len(tops))
