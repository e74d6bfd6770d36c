"""Seeded input generators.

Every generator takes its seed as an argument and draws from its own
`random.Random`, so one seed always yields the same inputs.  The program
under test only ever sees what these produce: a graph file, or a stream
of calls.
"""

import random

# Operation codes of the dictionary streams.  A delete of a non-member
# gets its own code (same call) because it costs a read, not a rewrite.
INSERT, DELETE, CONTAINS, CHOICE, DELETE_MISS = 0, 1, 2, 3, 4
SETCOLOR, COLOR, CHOICE_COLOR = 0, 1, 2


def write_random_graph(path, n, m, seed):
    """Write an edge-list file of m uniform arcs u -> v, u != v, over 1..n."""
    rng = random.Random(seed)
    lines = [f"{n} {m}"]
    for _ in range(m):
        u = rng.randrange(1, n + 1)
        v = rng.randrange(1, n)
        if v >= u:
            v += 1
        lines.append(f"{u} {v}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def uncolored_ops(n, seed):
    """Endless (code, args) stream: 35% insert, 25% delete, 20% contains,
    20% choice.

    Delete and contains keys come half from the current members (tracked
    from the stream itself, never from the program's answers) and half
    uniformly from 1..n, so both hits and structural deletes occur.
    """
    rng = random.Random(seed)
    live = []
    where = {}
    while True:
        r = rng.random()
        if r < 0.35:
            x = rng.randrange(1, n + 1)
            if x not in where:
                where[x] = len(live)
                live.append(x)
            yield INSERT, (x,)
        elif r < 0.80:
            if live and rng.random() < 0.5:
                x = live[rng.randrange(len(live))]
            else:
                x = rng.randrange(1, n + 1)
            if r < 0.60:
                i = where.pop(x, None)
                if i is None:
                    yield DELETE_MISS, (x,)
                    continue
                last = live.pop()
                if last != x:
                    live[i] = last
                    where[last] = i
                yield DELETE, (x,)
            else:
                yield CONTAINS, (x,)
        else:
            yield CHOICE, ()


def colored_ops(n, c, seed):
    """Endless (code, args) stream: 50% setcolor, 25% color, 25%
    choice_color, elements uniform.

    The last color is rare (1 write in 256), the others uniform.  Most
    containers therefore stay deficient, so writes take the compact path
    of the container engine, and the few that gain the rare color turn
    full and move the barrier.  With uniform colors every container
    fills within a few writes and then only the trivial full path runs.
    """
    rng = random.Random(seed)
    while True:
        r = rng.random()
        if r < 0.5:
            j = c - 1 if rng.random() < 1 / 256 else rng.randrange(c - 1)
            yield SETCOLOR, (j, rng.randrange(1, n + 1))
        elif r < 0.75:
            yield COLOR, (rng.randrange(1, n + 1),)
        else:
            yield CHOICE_COLOR, (rng.randrange(c),)
