"""Host-speed probe: a fixed pure-Python task timed in small chunks.

    python3 perfbench/probe.py OUT CPU

run.py starts it at the lowest priority (nice 19) on the one CPU its timed
children are pinned to, so it runs in the short slices the scheduler leaves
it, interleaved with the child, and sees the same host slowdowns.  Each chunk
composes permutations of 12 points as tuples and looks them up in a table
keyed by tuples, the operations bvl's commands spend their time on; the
chunk's work never changes, so its CPU time measures how fast the host runs
pure Python at that moment.

It writes one line to stdout when it is ready and stops on SIGTERM or
SIGINT, or by itself when its parent is gone or after MAX_LIFE_S.  It then
writes OUT: a JSON list of [end, cpu_seconds] per chunk, end being a
``time.perf_counter()`` reading, the clock run.py times its children by.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys
import time

MAX_LIFE_S = 200.0
POINTS = 12
TABLE_SIZE = 20_000
STEPS = 200  # products and lookups per chunk, about half a millisecond


def build(seed: int = 1):
    rng = random.Random(seed)
    table: dict[tuple, int] = {}
    while len(table) < TABLE_SIZE:
        p = list(range(POINTS))
        rng.shuffle(p)
        table[tuple(p)] = len(table)
    keys = list(table)
    return keys[:64], table, keys


def chunk(k: int, perms, table, keys) -> int:
    acc = 0
    q = perms[k % 64]
    for i in range(STEPS):
        e = perms[(i + k) % 64]
        q = tuple(e[x] for x in q)
        acc += table.get(keys[(i * 7919 + k) % TABLE_SIZE], 0)
        acc += table.get(q, 0)
    return acc


def main(argv: list[str]) -> int:
    out, cpu = argv[0], int(argv[1])
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    stop = False

    def on_signal(signum, frame):
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    perms, table, keys = build()
    parent = os.getppid()
    deadline = time.perf_counter() + MAX_LIFE_S
    records: list[list[float]] = []
    print("ready", flush=True)
    k = 0
    while not stop:
        c0 = time.process_time()
        chunk(k, perms, table, keys)
        c1 = time.process_time()
        t = time.perf_counter()
        records.append([t, c1 - c0])
        k += 1
        if k % 16 == 0 and (t > deadline or os.getppid() != parent):
            break
    with open(out, "w") as fh:
        json.dump(records, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
