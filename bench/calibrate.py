"""Calibration program: a fixed mix of the work cachechurn's commands do.

It parses CSV rows, counts distinct strings with numpy and updates a
Fenwick tree in a Python loop. The benchmark runs it as a child (which
also starts an interpreter and imports numpy) just before each timed
operation, and in its own process around each set-up build, and divides
the operation's or the build's wall time by this program's, so that a
machine that is busy with other work slows both and the ratio holds. It
does not import cachechurn, so no change to the package can change its
time.
"""

import csv
import io

import numpy as np

N = 20_000


def work():
    rows = [f"{i * 7919 % 100003},d{i % 3001:08d}" for i in range(N)]
    parsed = list(csv.reader(io.StringIO("\n".join(rows))))
    docs = np.array([row[1] for row in parsed], dtype=object)
    np.unique(docs.astype(str), return_counts=True)
    tree = [0] * (N + 1)
    for i in range(1, N + 1):
        j = i
        while j <= N:
            tree[j] += 1
            j += j & -j


if __name__ == "__main__":
    work()
