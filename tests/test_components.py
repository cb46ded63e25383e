import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components, shortest_path

import coarsekit as ck
from coarsekit.components import ClassLayout
from coarsekit.errors import MalformedSpec, NoSegments


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def random_metric_table(rng, n):
    """Shortest-path metric of a random connected weighted graph."""
    rows, cols, vals = [], [], []
    for v in range(1, n):
        rows.append(int(rng.randint(0, v)))
        cols.append(v)
        vals.append(int(rng.randint(1, 5)))
    for _ in range(2 * n):
        u, v = int(rng.randint(0, n)), int(rng.randint(0, n))
        if u != v:
            rows.append(min(u, v))
            cols.append(max(u, v))
            vals.append(int(rng.randint(1, 5)))
    g = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return shortest_path(g, directed=False).astype(np.int64)


def test_point_line_components():
    pl = ck.make_space({"kind": "point_line", "coords": [1, 2, 4, 8, 16, 32, 64]})
    w = ck.Window(pl, pl.all_points())
    part = ck.components_at_scale(w, 3)
    assert part.classes == ((1, 2, 4), (8,), (16,), (32,), (64,))
    part0 = ck.components_at_scale(w, 0)
    assert len(part0.classes) == 7
    assert part0.max_class_size == 1


def test_line_single_class():
    Z = ck.make_space({"kind": "grid", "dim": 1})
    w = ck.Window(Z, [(x,) for x in range(-10, 11)])
    part = ck.components_at_scale(w, 1)
    assert len(part.classes) == 1 and part.max_class_size == 21


def test_components_match_union_find_oracle():
    rng = np.random.RandomState(1)
    for _ in range(100):
        n = int(rng.randint(5, 61))
        D = random_metric_table(rng, n)
        space = ck.make_space(
            {"kind": "custom", "points": list(range(n)), "dist": D.tolist()}
        )
        w = ck.Window(space, space.all_points())
        for r in range(int(D.max()) + 1):
            uf = UnionFind(n)
            for i in range(n):
                for j in range(i + 1, n):
                    if D[i, j] <= r:
                        uf.union(i, j)
            oracle = {}
            for i in range(n):
                oracle.setdefault(uf.find(i), set()).add(i)
            got = {frozenset(c) for c in ck.components_at_scale(w, r).classes}
            assert got == {frozenset(v) for v in oracle.values()}


@settings(max_examples=200, deadline=None)
@given(raw=st.lists(st.integers(0, 9), max_size=40))
def test_class_layout_matches_dict_grouping(raw):
    # renumber in first-occurrence order, as connected_components numbers classes
    first = {}
    labels = np.array([first.setdefault(x, len(first)) for x in raw], dtype=np.int32)
    groups: dict = {}
    for i, c in enumerate(labels.tolist()):
        groups.setdefault(c, []).append(i)
    lay = ClassLayout(labels)
    assert lay.classes == [groups[c] for c in range(len(groups))]
    assert lay.sizes.tolist() == [len(groups[c]) for c in range(len(groups))]
    assert lay.pos.tolist() == [groups[c].index(i) for i, c in enumerate(labels.tolist())]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 30), density=st.floats(0, 0.3), seed=st.integers(0, 2**31 - 1),
       symmetric=st.booleans())
def test_connected_components_numbers_in_first_occurrence_order(n, density, seed, symmetric):
    # ClassLayout and so every class order in coarsekit rely on this numbering:
    # a scipy that numbers components otherwise fails here first
    A = sparse.random(n, n, density=density, format="csr", random_state=seed)
    if symmetric:
        A = A + A.T
    _, labels = connected_components(A, directed=False)
    seen = -1
    for c in labels.tolist():
        assert c <= seen + 1
        seen = max(seen, c)


def test_partition_refines_as_scale_drops():
    rng = np.random.RandomState(7)
    D = random_metric_table(rng, 40)
    space = ck.make_space(
        {"kind": "custom", "points": list(range(40)), "dist": D.tolist()}
    )
    w = ck.Window(space, space.all_points())
    for r in range(int(D.max())):
        fine = ck.components_at_scale(w, r).classes
        coarse = ck.components_at_scale(w, r + 1).classes
        for cls in fine:
            assert any(set(cls) <= set(big) for big in coarse)


def test_class_size_profile_point_line():
    pl = ck.make_space({"kind": "point_line", "coords": [2**k for k in range(13)]})
    windows = [ck.Window(pl, [2**j for j in range(k + 1)]) for k in range(3, 13)]
    profile = ck.class_size_profile(pl, 3, windows)
    assert profile == [3] * len(profile)  # the class {1, 2, 4} dominates forever


def test_class_size_profile_line_grows():
    Z = ck.make_space({"kind": "grid", "dim": 1})
    windows = [ck.Window(Z, [(x,) for x in range(-n, n + 1)]) for n in (2, 5, 9)]
    assert ck.class_size_profile(Z, 1, windows) == [5, 11, 19]


def test_class_size_profile_blocks_stabilize():
    blocks = [{"kind": "point_line", "coords": [0, 1, 2, 3]} for _ in range(6)]
    du = ck.make_space(
        {"kind": "disjoint_union", "blocks": blocks, "gaps": [10, 11, 12, 13, 14]}
    )
    all_pts = du.all_points()
    windows = [ck.Window(du, [p for p in all_pts if p[0] <= k]) for k in (1, 3, 5)]
    assert ck.class_size_profile(du, 5, windows) == [4, 4, 4]


def test_class_size_profile_rejects_non_nested():
    Z = ck.make_space({"kind": "grid", "dim": 1})
    w1 = ck.Window(Z, [(0,), (1,)])
    w2 = ck.Window(Z, [(5,), (6,), (7,)])
    with pytest.raises(MalformedSpec):
        ck.class_size_profile(Z, 1, [w1, w2])


# -- segments ----------------------------------------------------------------

def test_extract_segments_on_line():
    Z = ck.make_space({"kind": "grid", "dim": 1})
    fam = ck.extract_segments(Z, 1, 5, ck.ball(Z, (0,), 500))
    report = ck.verify_segments(fam)
    assert report.passed
    assert fam.lengths == (2, 3, 4, 5, 6)


def test_extract_segments_point_line_no_segments():
    pl = ck.make_space({"kind": "point_line", "coords": [2**k for k in range(13)]})
    with pytest.raises(NoSegments):
        ck.extract_segments(pl, 1, 2, ck.Window(pl, pl.all_points()))


def test_extract_segments_free_group():
    F2 = ck.make_space({"kind": "free_group", "rank": 2})
    fam = ck.extract_segments(F2, 1, 3, ck.ball(F2, "", 8))
    assert ck.verify_segments(fam).passed
    # geodesic selection puts anchored distances exactly at i*r
    for seg in fam.segments:
        for i, p in enumerate(seg):
            assert F2.dist(seg[0], p) == i


def test_extract_segments_scale_two():
    Z = ck.make_space({"kind": "grid", "dim": 1})
    fam = ck.extract_segments(Z, 2, 4, ck.ball(Z, (0,), 500))
    rep = ck.verify_segments(fam)
    assert rep.passed
    # graph-like spaces get geodesic selection: anchors land exactly at i*r
    for seg in fam.segments:
        for i, p in enumerate(seg):
            assert Z.dist(seg[0], p) == 2 * i


def test_extract_segments_branching_tree():
    t3 = ck.make_space({"kind": "tree", "branching": 3})
    fam = ck.extract_segments(t3, 1, 3, ck.ball(t3, 0, 8))
    assert ck.verify_segments(fam).passed
    assert fam.lengths == (2, 3, 4)


# The extraction as it ran point by point before the scale-graph rewrite: the
# oracle that the array version must match segment for segment.

def _bfs_tree(space, allowed, start, r):
    parents, order, frontier = {start: None}, [start], [start]
    while frontier:
        nxt = []
        for p in frontier:
            cand = space.ball_points(p, 1 if space.graph_like else r)
            for q in sorted((q for q in cand if q in allowed and q not in parents),
                            key=space.canonical_key):
                parents[q] = p
                order.append(q)
                nxt.append(q)
        frontier = nxt
    return order, parents


def _grow_oracle(space, r, allowed, start, need_m):
    order, parents = _bfs_tree(space, allowed, start, r)
    best, best_d = None, -1
    for p in order:
        d = space.dist(start, p)
        if d > best_d or (d == best_d and space.canonical_key(p) < space.canonical_key(best)):
            best, best_d = p, d
    if best_d < (need_m - 1) * r:
        return None
    path = []
    while best is not None:
        path.append(best)
        best = parents[best]
    sel = [start]
    for p in reversed(path[:-1]):
        if space.dist(start, p) >= len(sel) * r:
            sel.append(p)
    for i in range(len(sel) - 1):
        if space.dist(sel[i], sel[i + 1]) > 2 * r:
            sel = sel[: i + 1]
            break
    return tuple(sel[:need_m]) if len(sel) >= need_m else None


def _segments_oracle(space, r, count, budget):
    chosen = []
    while len(chosen) < count:
        remaining = list(budget.points)
        if chosen:
            fam = ck.SegmentFamily(space, r, tuple(chosen))
            radius = max(len(chosen), max(fam.separations(), default=0))
            near = space.pairwise_dist(budget.points, fam.all_points()).min(axis=1)
            remaining = [p for p, d in zip(budget.points, near.tolist()) if d > radius]
        need_m = len(chosen[-1]) + 1 if chosen else 2
        seg = None
        classes = ck.components_at_scale(ck.Window(space, remaining), r).classes if remaining else ()
        for cls in (c for c in classes if len(c) >= need_m):
            far = max(cls, key=lambda q: (space.dist(cls[0], q), space.canonical_key(q)))
            for start in [cls[0]] + ([far] if far != cls[0] else []):
                seg = _grow_oracle(space, r, set(cls), start, need_m)
                if seg is not None:
                    break
            if seg is not None:
                break
        if seg is None:
            return (f"after {len(chosen)} segments, no remaining chain class within the "
                    f"budget supports a segment of {need_m} points at scale {r}")
        chosen.append(seg)
    return tuple(chosen)


SEGMENT_SPACES = {
    "Z": ({"kind": "grid", "dim": 1}, (0,), 150),
    "Z2": ({"kind": "grid", "dim": 2}, (0, 0), 8),
    "F2": ({"kind": "free_group", "rank": 2}, "", 5),
    "T3": ({"kind": "tree", "branching": 3}, 0, 5),
    "PL": ({"kind": "point_line", "coords": [0, 1, 2, 3, 5, 8, 9, 10, 11, 12, 13, 20, 21, 23, 24]},
           0, None),
}


@pytest.mark.parametrize("name", sorted(SEGMENT_SPACES))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**31 - 1), as_ball=st.booleans(), r=st.integers(1, 3),
       count=st.integers(1, 5))
def test_extract_segments_matches_point_by_point_oracle(name, seed, as_ball, r, count):
    spec, center, radius = SEGMENT_SPACES[name]
    space = ck.make_space(spec)
    w = ck.ball(space, center, radius) if radius else ck.Window(space, space.all_points())
    if not as_ball:
        keep = np.random.RandomState(seed).rand(len(w.points)) < 0.85
        w = ck.Window(space, [p for p, k in zip(w.points, keep) if k])
    want = _segments_oracle(space, r, count, w)
    try:
        got = ck.extract_segments(space, r, count, w).segments
    except NoSegments as exc:
        got = str(exc)
    assert got == want


def test_extract_segments_builds_at_most_two_scale_graphs(monkeypatch):
    from coarsekit import spaces

    calls = []
    orig = spaces.scale_pairs
    monkeypatch.setattr(spaces, "scale_pairs", lambda w, r: calls.append(r) or orig(w, r))
    Z = ck.make_space({"kind": "grid", "dim": 1})
    assert len(ck.extract_segments(Z, 2, 6, ck.ball(Z, (0,), 400)).segments) == 6
    assert sorted(calls) == [1, 2]


def test_verify_segments_quadratic_family():
    Z = ck.make_space({"kind": "grid", "dim": 1})
    segs = tuple(
        tuple((100 * n * n + i,) for i in range(n + 1)) for n in range(1, 6)
    )
    fam = ck.SegmentFamily(Z, 1, segs)
    rep = ck.verify_segments(fam)
    assert rep.passed
    # the nearest neighbor of S_1 is S_2; of every later S_n it is S_(n-1)
    assert rep.separations == [299] + [199 * n - 99 for n in range(2, 6)]


def test_verify_segments_flags_zero_separation():
    Z = ck.make_space({"kind": "grid", "dim": 1})
    fam = ck.SegmentFamily(Z, 1, (((0,), (1,)), ((1,), (2,), (3,))))
    rep = ck.verify_segments(fam)
    assert not rep.separation_positive
    assert not rep.passed


def test_verify_segments_flags_big_step():
    Z = ck.make_space({"kind": "grid", "dim": 1})
    # step of 3 = 2r + 1 at r = 1
    fam = ck.SegmentFamily(Z, 1, (((0,), (3,)),))
    rep = ck.verify_segments(fam)
    assert rep.steps_ok == [False]
    assert rep.first_violation == {"segment": 0, "condition": "step", "index": 0}


def test_verify_segments_flags_length_order():
    Z = ck.make_space({"kind": "grid", "dim": 1})
    fam = ck.SegmentFamily(Z, 1, (((0,), (1,), (2,)), ((100,), (101,))))
    assert not ck.verify_segments(fam).lengths_ok
