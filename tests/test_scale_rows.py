"""The numpy scale rows and the union-find labelling, checked against scipy:
``Window.scale_rows`` against the CSR that scipy builds from the same pairs,
``ClassLayout.of`` against ``connected_components``, and the number of
hook-and-shortcut rounds against its logarithmic bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from test_scale_graph import KINDS, _window

import coarsekit as ck
from coarsekit.components import ClassLayout, _hook_and_shortcut


def _shape(n, rng, shape):
    """Edge arrays of a graph of the named shape on n points, relabelled by a
    random permutation, each edge in either direction."""
    if shape == "random":  # repeated edges and loops among them
        i, j = rng.randint(0, max(n, 1), size=(2, rng.randint(0, 3 * n + 1)))
    elif shape == "empty":
        i = j = np.empty(0, dtype=np.int64)
    elif shape == "isolated":  # edges among the first tenth, the rest alone
        i, j = rng.randint(0, max(n // 10, 1), size=(2, n // 10))
    elif shape == "path":
        i, j = np.arange(n - 1), np.arange(1, n)
    elif shape == "binary_tree":
        j = np.arange(1, n)
        i = (j - 1) // 2
    else:  # star
        j = np.arange(1, n)
        i = np.zeros(len(j), dtype=np.int64)
    perm = rng.permutation(n)
    i, j = perm[i], perm[j]
    swap = rng.rand(len(i)) < 0.5
    return np.where(swap, j, i), np.where(swap, i, j)


SHAPES = ["random", "empty", "isolated", "path", "binary_tree", "star"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(0, 300) | st.sampled_from([1, 2, 3, 1023, 1024, 1025, 4000]),
       shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**31 - 1), both_ends=st.booleans())
def test_union_find_labels_are_connected_components(n, shape, seed, both_ends):
    rng = np.random.RandomState(seed)
    i, j = _shape(n, rng, shape)
    g = sparse.csr_matrix((np.ones(len(i), dtype=np.int8), (i, j)), shape=(n, n))
    want = connected_components(g, directed=False)[1]
    if both_ends:  # sorted rows that list each edge at both ends, as the scale rows do
        g = (g + g.T).tocsr()
        g.sort_indices()
    else:  # each edge in one row only, the rows in random order
        order = np.argsort(rng.rand(g.nnz) + np.repeat(np.arange(n), np.diff(g.indptr)))
        g.indices = g.indices[order]
    assert ClassLayout.of(g.indptr, g.indices).labels.tolist() == want.tolist()
    if both_ends:  # round-count gate: a tree with an edge out merges within two rounds
        assert _hook_and_shortcut(g.indptr, g.indices)[1] <= 2 * math.ceil(math.log2(max(n, 1))) + 1


def test_union_find_rounds_on_a_long_shuffled_path():
    rng = np.random.RandomState(0)
    n = 1 << 14
    i, j = _shape(n, rng, "path")
    g = sparse.csr_matrix((np.ones(2 * len(i), dtype=np.int8), (np.concatenate([i, j]), np.concatenate([j, i]))),
                          shape=(n, n))
    root, rounds = _hook_and_shortcut(g.indptr, g.indices)
    assert root.tolist() == [0] * n
    assert rounds <= 2 * 14 + 1


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), as_ball=st.booleans())
def test_scale_rows_are_scipys_csr_of_the_pairs(kind, seed, as_ball):
    w = _window(kind, seed, as_ball)
    n = len(w)
    for r in (0, 1, 2, 3):
        ii, jj = ck.scale_pairs(w, r)
        want = sparse.csr_matrix(
            (np.ones(2 * len(ii), dtype=np.int8), (np.concatenate([ii, jj]), np.concatenate([jj, ii]))),
            shape=(n, n))
        want.sum_duplicates()
        indptr, indices = w.scale_rows(r)
        assert indptr.tolist() == want.indptr.tolist() and indices.tolist() == want.indices.tolist()
        assert indptr.dtype == indices.dtype == want.indices.dtype
        assert not indptr.flags.writeable and not indices.flags.writeable
        assert ck.components.scale_layout(w, r).labels.tolist() == connected_components(want, directed=False)[1].tolist()
        # the scipy graph views the cached rows' memory, and is cached in their place
        g = w.scale_graph(r)
        assert all(map(_same_memory, (g.indptr, g.indices), (indptr, indices)))
        assert all(map(_same_memory, w.scale_rows(r), (indptr, indices))) and w.scale_graph(r) is g
        assert (g != want).nnz == 0


def _same_memory(a, b) -> bool:
    return a.__array_interface__["data"] == b.__array_interface__["data"] and a.shape == b.shape
