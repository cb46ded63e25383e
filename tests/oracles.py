"""Definitional oracles that several test modules share: the reduced product
of free-group words, and scale pairs by one ``dist`` call per pair."""

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
