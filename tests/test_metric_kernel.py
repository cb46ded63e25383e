"""The metric kernel of every space kind: ``layout``, ``paired_dist`` and
``ball_count``, and the methods ``Space`` derives from them, against ``dist``
and ``len(ball_points)``; the ball cap on huge radii; and a structural guard
that keeps the derived methods in ``Space``."""

import inspect
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

import coarsekit as ck
from coarsekit import spaces
from coarsekit.errors import EnumerationOverflow, IntegerOverflow

BIG = 1 << 63


def _huge(dim):
    """Coordinates near 0 and near each magnitude where int64 arithmetic on
    dim-dimensional l1 distances starts to wrap, past the guard included."""
    centers = [0, 2**61 // dim, 2**62, 2**63, 2**70]
    return st.builds(lambda c, s, o: s * c + o, st.sampled_from(centers),
                     st.sampled_from([1, -1]), st.integers(-3, 3))


def _custom_spec(rng, n, name):
    coords = rng.randint(0, 12, size=n)
    D = np.abs(coords[:, None] - coords[None, :])
    D = D + (D == 0) * (1 - np.eye(n, dtype=int))  # distinct points stay apart
    D = shortest_path(D, directed=False).astype(int)
    return {"kind": "custom", "points": [f"{name}{i}" for i in range(n)], "dist": D.tolist()}


def _word(data, rank, max_len):
    letters = [c for g in "abc"[:rank] for c in (g, g.upper())]
    u = ""
    for s in data.draw(st.lists(st.sampled_from(letters), max_size=max_len)):
        u = u[:-1] if u and u[-1] == s.swapcase() else u + s
    return u


def _space_and_points(data, kind):
    """A space of the named kind and 1..8 canonical points of it, repeats allowed."""
    some = lambda elements: data.draw(st.lists(elements, min_size=1, max_size=8))
    if kind.startswith("grid"):
        dim = int(kind[-1])
        space = ck.make_space({"kind": "grid", "dim": dim})
        return space, some(st.tuples(*[_huge(dim)] * dim))
    if kind.startswith("free_group"):
        rank = int(kind[-1])
        space = ck.make_space({"kind": "free_group", "rank": rank})
        return space, [_word(data, rank, 6) for _ in range(data.draw(st.integers(1, 8)))]
    if kind.startswith("tree"):
        b = int(kind[-1])
        space = ck.make_space({"kind": "tree", "branching": b})
        far = [2**62, 2**63 + 5, 10**20] if b == 1 else []
        return space, some(st.integers(0, 200) | st.sampled_from(far) if far else st.integers(0, 200))
    rng = np.random.RandomState(data.draw(st.integers(0, 2**31 - 1)))
    if kind == "edge_tree":
        n = int(rng.randint(1, 30))
        space = ck.make_space({"kind": "tree",
                               "edges": [[int(rng.randint(k)), k] for k in range(1, n)]})
    elif kind == "point_line":
        coords = sorted({int(c) for c in data.draw(st.lists(_huge(1), min_size=1, max_size=8))})
        space = ck.make_space({"kind": "point_line", "coords": coords})
    elif kind == "custom":
        space = ck.make_space(_custom_spec(rng, int(rng.randint(1, 10)), "p"))
    elif kind == "disjoint_union":
        space = ck.make_space({
            "kind": "disjoint_union",
            "blocks": [_custom_spec(rng, int(rng.randint(1, 5)), f"b{k}_") for k in range(2)]
            + [{"kind": "point_line", "coords": [0, 2, 3]}],
            "gaps": [1, 3],
        })
    else:
        base = {"product_grid2": {"kind": "grid", "dim": 2},
                "product_free_group2": {"kind": "free_group", "rank": 2},
                "product_tree3": {"kind": "tree", "branching": 3}}[kind]
        space = ck.make_space({"kind": "product_finite", "base": base, "n": int(rng.randint(1, 4))})
        base_pts = list(ck.ball(space.base, space.base.origin(), 3).points)
        return space, [(base_pts[rng.randint(len(base_pts))], int(rng.randint(1, space.n + 1)))
                       for _ in range(int(rng.randint(1, 9)))]
    pool = space.all_points()
    return space, [pool[int(rng.randint(len(pool)))] for _ in range(int(rng.randint(1, 9)))]


def _exact_or_overflow(compute, want, top):
    """compute() equals want, or raises IntegerOverflow where top, the
    largest distance involved, lies at or past 2^63."""
    try:
        got = compute()
    except IntegerOverflow:
        assert top >= BIG
        return
    assert got == want


KINDS = ["grid1", "grid2", "grid3", "point_line", "custom", "disjoint_union",
         "product_grid2", "product_free_group2", "product_tree3",
         "free_group1", "free_group2", "free_group3", "tree1", "tree2", "tree3", "edge_tree"]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_kernel_and_derived_methods_match_dist_and_balls(kind, data):
    space, pts = _space_and_points(data, kind)
    n = len(pts)
    i0 = data.draw(st.integers(0, n - 1))
    # ball counts with the cap below, at and above |B_r|, and the ball sizes
    x, r_max = pts[i0], data.draw(st.integers(0, 3))
    true = [len(space.ball_points(x, r)) for r in range(r_max + 1)]
    for r, size in enumerate(true):
        for cap in (size - 1, size, size + 1):
            assert space.ball_count(x, r, cap) == min(size, cap + 1)
    assert space.ball_sizes(x, r_max, true[-1]) == true
    with pytest.raises(EnumerationOverflow):
        space.ball_sizes(x, r_max, true[-1] - 1)

    D = [[space.dist(p, q) for q in pts] for p in pts]
    top = max(map(max, D))
    try:
        lay = space.layout(pts)
    except IntegerOverflow:  # a ray refuses points that span 2^63 or more
        assert top >= BIG
        return
    rows, cols = np.arange(n)[:, None], np.arange(n)
    # the kernel at each broadcast shape: scalar x vector, column x row, empty
    _exact_or_overflow(lambda: space.paired_dist(lay, i0, cols).tolist(), D[i0], max(D[i0]))
    _exact_or_overflow(lambda: space.paired_dist(lay, rows, cols).tolist(), D, top)
    empty = np.zeros(0, dtype=np.int64)
    assert space.paired_dist(lay, empty, empty).shape == (0,)
    assert space.paired_dist(lay, empty[:, None], cols).shape == (0, n)
    for got in (space.paired_dist(lay, i0, i0), space.paired_dist(lay, empty, empty)):
        assert got.dtype == np.int64
    # the derived matrix over two halves, and over none: it lays out the
    # points that the layout above accepted
    k = data.draw(st.integers(0, n))
    want = [row[k:] for row in D[:k]]
    _exact_or_overflow(lambda: space.pairwise_dist(pts[:k], pts[k:]).tolist(), want,
                       max((max(r, default=0) for r in want), default=0))
    assert space.pairwise_dist([], pts).shape == (0, n)
    assert space.pairwise_dist(pts, []).shape == (n, 0)
    # diameters, of the whole and of pieces laid end to end, empty ones among them
    _exact_or_overflow(lambda: space.diameter(pts), top, top)
    labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    order = sorted(range(n), key=labels.__getitem__)
    sizes = [labels.count(c) for c in range(5)]
    want = [max((D[a][b] for a in range(n) for b in range(n) if labels[a] == labels[b] == c),
                default=0) for c in range(5)]
    _exact_or_overflow(lambda: space.piece_diameters(lay, order, sizes), want, max(want))


def test_only_space_defines_the_derived_metric_methods():
    classes = [c for _, c in inspect.getmembers(spaces, inspect.isclass)
               if c.__module__ == spaces.__name__]
    defining = lambda name: {c.__name__ for c in classes if name in vars(c)}
    assert defining("pairwise_dist") == {"Space"}
    # a tree bins one breadth-first search by depth instead of one search per
    # radius, and a product reads all its sizes off one call of its base's
    assert defining("ball_sizes") == {"Space", "TreeSpace", "ProductFiniteSpace"}
    assert defining("ball_size") == set()
    assert defining("diameter") == {"Space", "PointLineSpace"}
    assert not hasattr(spaces, "pairwise_dist") and not hasattr(ck.amenability, "neighborhood_points")


# -- the ball cap on huge radii --------------------------------------------------

F2 = ck.make_space({"kind": "free_group", "rank": 2})
F2xL = ck.make_space({"kind": "product_finite", "base": F2.to_spec(), "n": 2})


@pytest.mark.parametrize("space,center", [(F2, ""), (F2xL, ("", 1))], ids=["F2", "F2xL2"])
@pytest.mark.parametrize("radius", [10**7, 10**30])
def test_huge_ball_overflows_at_once(space, center, radius):
    start = time.perf_counter()
    with pytest.raises(EnumerationOverflow):
        ck.ball(space, center, radius)
    assert time.perf_counter() - start < 1


def test_cli_paradox_on_a_huge_ball_exits_3_at_once(tmp_path):
    spec = tmp_path / "fg2.json"
    spec.write_text(json.dumps(F2.to_spec()))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH", "")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "coarsekit.cli", "paradox", "--space", str(spec),
                           "--window-radius", "10000000"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 3 and "Traceback" not in proc.stderr


# -- the metric axioms on tables near the int64 bounds --------------------------

def _failures_by_definition(T) -> dict:
    """``_metric_failures`` in Python ints, which never wrap."""
    n = len(T)
    cells = [(i, j) for i in range(n) for j in range(n)]
    tests = {"negative": lambda i, j: T[i][j] < 0, "diagonal": lambda i, j: i == j and T[i][i] != 0,
             "zero": lambda i, j: T[i][j] + (i == j) == 0, "asymmetric": lambda i, j: T[i][j] != T[j][i]}
    out = {}
    for axiom, bad in tests.items():
        hit = next((c for c in cells if bad(*c)), None)
        if hit is not None:
            out[axiom] = hit[:1] if axiom == "diagonal" else hit
    hit = next(((i, k, j) for k in range(n) for i, j in cells if T[i][j] > T[i][k] + T[k][j]), None)
    if hit is not None:
        out["triangle"] = hit
    return out


_EDGE = st.sampled_from([0, 1, 2, 7, -1, 2**62 - 1, 2**62, 2**63 - 2, 2**63 - 1, -2**62, -2**62 - 1,
                         -2**63, -2**63 + 1]) | st.integers(-2**63, 2**63 - 1)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 6), metric_like=st.booleans())
def test_metric_failures_match_python_ints_near_the_int64_bounds(data, n, metric_like):
    if metric_like:  # symmetric with a zero diagonal, so the triangle decides
        upper = [[data.draw(_EDGE.filter(lambda v: v >= 0)) for _ in range(n)] for _ in range(n)]
        T = [[0 if i == j else upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    else:
        T = [[data.draw(_EDGE) for _ in range(n)] for _ in range(n)]
    assert spaces._metric_failures(np.array(T, dtype=np.int64)) == _failures_by_definition(T)
