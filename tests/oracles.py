"""Definitional oracles that test modules share: the reduced product of
free-group words, free-group balls by breadth-first search, and scale pairs by
one ``dist`` call per pair."""

import numpy as np


def word_mul(u: str, v: str) -> str:
    """Reduced product of two reduced words (lowercase letter = generator,
    uppercase = its inverse)."""
    i = len(u)
    j = 0
    while i > 0 and j < len(v) and u[i - 1] == v[j].swapcase():
        i -= 1
        j += 1
    return u[:i] + v[j:]


def free_group_neighbors(space, x: str) -> list:
    """x * s for each letter s of the free group, in letter order: it cancels
    the last letter of x, or appends s."""
    last = x[-1:].swapcase()
    return [x[:-1] if s == last else x + s for s in space.letters]


def free_group_bfs(space, src: str, cutoff: int) -> list:
    """The words within cutoff of src in breadth-first order, each word's
    neighbours in ``free_group_neighbors`` order: the search that the
    generated free-group balls replaced."""
    lengths = {src: 0}
    order = [src]
    for v in order:
        if lengths[v] == cutoff:
            break
        for u in free_group_neighbors(space, v):
            if u not in lengths:
                lengths[u] = lengths[v] + 1
                order.append(u)
    return order


def pairs_bruteforce(w, r: int):
    """The oracle for ``scale_pairs``: index pairs (i, j), i < j, of a window's
    points at distance <= r, by one ``dist`` call per pair."""
    s = w.space
    pts = w.points
    out_i, out_j = [], []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if s.dist(pts[i], pts[j]) <= r:
                out_i.append(i)
                out_j.append(j)
    return np.array(out_i, dtype=np.int64), np.array(out_j, dtype=np.int64)
