import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import pairs_bruteforce, word_mul
from scipy.sparse.csgraph import shortest_path

import coarsekit as ck
from coarsekit import spaces
from coarsekit.errors import (
    CoarseKitError,
    EnumerationOverflow,
    IntegerOverflow,
    MalformedSpec,
    MetricViolation,
    UnknownPoint,
)


def test_grid_line_distance():
    Z = ck.make_space({"kind": "grid", "dim": 1})
    assert ck.dist(Z, (3,), (-4,)) == 7
    assert ck.dist(Z, 3, -4) == 7  # bare ints accepted in dim 1


def test_grid2_l1():
    g2 = ck.make_space({"kind": "grid", "dim": 2})
    assert ck.dist(g2, (0, 0), (3, -2)) == 5


def test_free_group_reduced_word_distance():
    F2 = ck.make_space({"kind": "free_group", "rank": 2})
    assert ck.dist(F2, "ab", "ba") == 4
    assert ck.dist(F2, "", "abA") == 3
    assert ck.dist(F2, "ab", "ab") == 0


def test_free_group_rejects_unreduced_word():
    F2 = ck.make_space({"kind": "free_group", "rank": 2})
    with pytest.raises(UnknownPoint):
        F2.normalize("aA")
    with pytest.raises(UnknownPoint):
        F2.normalize("xc")


def test_product_sum_metric():
    prod = ck.make_space(
        {"kind": "product_finite", "base": {"kind": "grid", "dim": 1}, "n": 3}
    )
    assert ck.dist(prod, ((0,), 1), ((2,), 3)) == 3
    assert ck.dist(prod, ((0,), 2), ((0,), 2)) == 0
    assert ck.dist(prod, ((0,), 1), ((0,), 3)) == 1


def test_ball_sizes():
    Z = ck.make_space({"kind": "grid", "dim": 1})
    assert len(ck.ball(Z, (0,), 5).points) == 11
    g2 = ck.make_space({"kind": "grid", "dim": 2})
    assert len(ck.ball(g2, (0, 0), 2).points) == 13
    F2 = ck.make_space({"kind": "free_group", "rank": 2})
    assert len(ck.ball(F2, "", 3).points) == 53


def test_free_group_ball_recurrence():
    # |B_n| = 2k(2k-1)^(n-1) + |B_(n-1)|, cross-checked against BFS enumeration
    for k in (2, 3):
        F = ck.make_space({"kind": "free_group", "rank": k})
        prev = 1
        for n in range(1, 6):
            enum = len(ck.ball(F, "", n).points)
            assert enum == 2 * k * (2 * k - 1) ** (n - 1) + prev
            assert enum == F.ball_count("", n, 10**6)
            prev = enum


def test_ball_nested_and_monotone():
    F2 = ck.make_space({"kind": "free_group", "rank": 2})
    prev = set()
    for r in range(5):
        cur = set(ck.ball(F2, "ab", r).points)
        assert prev <= cur
        prev = cur


def test_ball_cap_overflow():
    F2 = ck.make_space({"kind": "free_group", "rank": 2})
    with pytest.raises(EnumerationOverflow):
        ck.ball(F2, "", 5, cap=100)


def test_bounded_geometry_profile():
    Z = ck.make_space({"kind": "grid", "dim": 1})
    w = ck.Window(Z, [(x,) for x in range(-10, 11)])
    assert ck.bounded_geometry_profile(w, 1) == 3
    F2 = ck.make_space({"kind": "free_group", "rank": 2})
    assert ck.bounded_geometry_profile(ck.ball(F2, "", 4), 1) == 5
    single = ck.Window(Z, [(7,)])
    assert ck.bounded_geometry_profile(single, 99) == 1


def test_custom_space_triangle_violation():
    with pytest.raises(MetricViolation) as exc:
        ck.make_space(
            {
                "kind": "custom",
                "points": ["a", "b", "c"],
                "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
            }
        )
    assert exc.value.witness == ("a", "b", "c")


def test_custom_space_symmetry_and_zero_diag():
    with pytest.raises(MetricViolation):
        ck.make_space(
            {"kind": "custom", "points": [0, 1], "dist": [[0, 1], [2, 0]]}
        )
    with pytest.raises(MetricViolation):
        ck.make_space(
            {"kind": "custom", "points": [0, 1], "dist": [[0, 0], [0, 0]]}
        )


def test_disjoint_union_gap_divergence():
    # singleton blocks, gaps 10k: distance from block k to the rest is
    # min(gaps[k-1], gaps[k]) and diverges
    blocks = [{"kind": "point_line", "coords": [0]} for _ in range(6)]
    gaps = [10 * (k + 1) for k in range(5)]
    du = ck.make_space({"kind": "disjoint_union", "blocks": blocks, "gaps": gaps})
    seps = []
    for k in range(6):
        others = [l for l in range(6) if l != k]
        seps.append(min(du.block_distance(k, l) for l in others))
    assert seps[1] == 10 and seps[3] == 30
    assert all(a <= b for a, b in zip(seps[1:], seps[2:]))


def test_disjoint_union_cross_distance_includes_diameters():
    blocks = [
        {"kind": "point_line", "coords": [0, 1, 2]},
        {"kind": "point_line", "coords": [0, 5]},
    ]
    du = ck.make_space({"kind": "disjoint_union", "blocks": blocks, "gaps": [7]})
    # diam 2 + diam 5 + gap 7
    assert ck.dist(du, (0, 0), (1, 5)) == 14
    assert ck.dist(du, (0, 2), (0, 0)) == 2


def test_disjoint_union_needs_matching_gaps():
    with pytest.raises(MalformedSpec):
        ck.make_space(
            {
                "kind": "disjoint_union",
                "blocks": [{"kind": "point_line", "coords": [0]}] * 3,
                "gaps": [1],
            }
        )


def test_metric_axioms_on_windows():
    # exhaustive check on every bundled kind with a small window
    specs = [
        {"kind": "grid", "dim": 2},
        {"kind": "free_group", "rank": 2},
        {"kind": "tree", "branching": 3},
        {"kind": "point_line", "coords": [1, 2, 4, 8, 16]},
        {
            "kind": "disjoint_union",
            "blocks": [{"kind": "point_line", "coords": [0, 1]}] * 3,
            "gaps": [3, 9],
        },
        {"kind": "product_finite", "base": {"kind": "free_group", "rank": 2}, "n": 2},
    ]
    for spec in specs:
        s = ck.make_space(spec)
        if s.finite:
            w = ck.Window(s, s.all_points())
        else:
            w = ck.ball(s, s.origin(), 2)
        assert ck.verify_metric(w)["ok"], spec


def test_tree_branching_distances():
    t = ck.make_space({"kind": "tree", "branching": 2})
    # children of 0 are 1, 2; children of 1 are 3, 4
    assert ck.dist(t, 0, 3) == 2
    assert ck.dist(t, 3, 4) == 2
    assert ck.dist(t, 3, 2) == 3
    assert len(ck.ball(t, 0, 2).points) == 7


def test_tree_edges_finite():
    t = ck.make_space({"kind": "tree", "edges": [[0, 1], [1, 2], [1, 3]]})
    assert ck.dist(t, 0, 2) == 2
    assert ck.dist(t, 2, 3) == 2
    with pytest.raises(MalformedSpec):
        ck.make_space({"kind": "tree", "edges": [[0, 1], [2, 3]]})


def test_window_interior():
    Z = ck.make_space({"kind": "grid", "dim": 1})
    w = ck.ball(Z, (0,), 10)
    assert set(w.interior(3)) == {(x,) for x in range(-7, 8)}
    assert w.interior(0) == w.points
    assert w.interior(11) == ()
    # Interior_r shrinks as r grows
    for r in range(5):
        assert set(w.interior(r + 1)) <= set(w.interior(r))


def test_window_interior_generic_kind():
    pl = ck.make_space({"kind": "point_line", "coords": [0, 1, 2, 10, 11]})
    w = ck.Window(pl, [0, 1, 2, 10])
    # ambient B_1(10) = {10, 11} sticks out of the window; the rest stay in
    assert set(w.interior(1)) == {0, 1, 2}


def test_window_canonical_order_and_dedupe():
    Z = ck.make_space({"kind": "grid", "dim": 1})
    w = ck.Window(Z, [(5,), (1,), (5,), (-2,)])
    assert w.points == ((-2,), (1,), (5,))


def test_space_json_round_trip():
    specs = [
        {"kind": "grid", "dim": 3},
        {"kind": "free_group", "rank": 2},
        {"kind": "point_line", "coords": [1, 2, 4]},
        {"kind": "product_finite", "base": {"kind": "grid", "dim": 1}, "n": 2},
    ]
    for spec in specs:
        assert ck.make_space(spec).to_spec() == spec


def _pairs_as_set(w, r):
    ii, jj = ck.scale_pairs(w, r)
    return {(int(a), int(b)) for a, b in zip(ii, jj)}


def test_scale_pairs_grid_matches_bruteforce():
    g2 = ck.make_space({"kind": "grid", "dim": 2})
    rng = np.random.RandomState(9)
    pts = {(int(rng.randint(-8, 9)), int(rng.randint(-8, 9))) for _ in range(60)}
    w = ck.Window(g2, pts)
    n = len(w.points)
    for r in (1, 2, 4, 7):
        brute = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if g2.dist(w.points[i], w.points[j]) <= r
        }
        assert _pairs_as_set(w, r) == brute


def test_scale_pairs_tree_ball_matches_bruteforce():
    F2 = ck.make_space({"kind": "free_group", "rank": 2})
    w = ck.ball(F2, "a", 4)
    n = len(w.points)
    for r in (1, 2, 3):
        brute = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if F2.dist(w.points[i], w.points[j]) <= r
        }
        assert _pairs_as_set(w, r) == brute


def _custom_blocks(seed, count):
    """Custom spaces: random point sets of a line, with coincident points moved apart."""
    rng = np.random.RandomState(seed)
    blocks = []
    for _ in range(count):
        n = int(rng.randint(2, 6))
        coords = rng.randint(0, 10, size=n)
        D = np.abs(coords[:, None] - coords[None, :])
        D = D + (D == 0) * (1 - np.eye(n, dtype=int))
        D = shortest_path(D, directed=False).astype(int)
        blocks.append({"kind": "custom", "points": [f"p{i}" for i in range(n)], "dist": D.tolist()})
    return blocks


def _point_line_union():
    # like the bench's AF jobs: short point lines 10 apart, single points among them
    rng = random.Random(5)
    sizes = [rng.randint(1, 4) for _ in range(30)]
    return {"kind": "disjoint_union", "gaps": [10] * 29,
            "blocks": [{"kind": "point_line", "coords": list(range(m))} for m in sizes]}


def _mixed_union():
    inner = {"kind": "disjoint_union", "gaps": [1, 4],
             "blocks": [{"kind": "point_line", "coords": [0, 2, 3]}, *_custom_blocks(3, 2)]}
    return {"kind": "disjoint_union", "gaps": [3, 1, 2, 6], "blocks": [
        *_custom_blocks(2, 1),
        {"kind": "tree", "edges": [[0, 1], [1, 2], [1, 3], [3, 4], [4, 5]]},
        {"kind": "product_finite", "base": {"kind": "point_line", "coords": [0, 1, 5]}, "n": 3},
        inner,
        {"kind": "point_line", "coords": [7]},
    ]}


def _assert_composite_pairs(w, radii, monkeypatch):
    """The scale graph of w at each radius builds no Window, and scale_pairs
    matches the brute-force oracle."""
    built = []
    init = spaces.Window.__init__
    with monkeypatch.context() as m:
        m.setattr(spaces.Window, "__init__", lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
        for r in radii:
            w.scale_graph(r)
            ii, jj = pairs_bruteforce(w, r)
            assert _pairs_as_set(w, r) == set(zip(ii.tolist(), jj.tolist()))
    assert built == []


def test_scale_pairs_disjoint_union_matches_bruteforce(monkeypatch):
    # each block of two points or more built a window of its own
    for spec in ({"kind": "disjoint_union", "blocks": _custom_blocks(42, 4), "gaps": [2, 5, 9]},
                 _point_line_union(), _mixed_union()):
        du = ck.make_space(spec)
        _assert_composite_pairs(ck.Window(du, du.all_points()), (1, 2, 3, 6, 7, 11, 20), monkeypatch)


def test_scale_pairs_product_matches_bruteforce(monkeypatch):
    # the product layout built a window of the distinct bases
    for base, points in (
        ({"kind": "grid", "dim": 2}, lambda s: ck.ball(s, (0, 0), 3).points),
        ({"kind": "free_group", "rank": 2}, lambda s: ck.ball(s, "", 2).points),
        ({"kind": "tree", "branching": 3}, lambda s: ck.ball(s, 2, 2).points),
        (_custom_blocks(7, 1)[0], lambda s: s.all_points()),
    ):
        prod = ck.make_space({"kind": "product_finite", "base": base, "n": 3})
        pts = points(prod.base)
        # every level over some bases, fewer over others: the layout marks the gaps
        w = ck.Window(prod, [(x, l) for k, x in enumerate(pts) for l in (1, 2, 3)[:1 + k % 3]])
        _assert_composite_pairs(w, (1, 2, 3, 7), monkeypatch)


def test_interior_fast_path_matches_generic():
    F2 = ck.make_space({"kind": "free_group", "rank": 2})
    b = ck.ball(F2, "ab", 4)
    unflagged = ck.Window(F2, b.points)  # same points, generic interior path
    for r in (1, 2, 3):
        assert set(b.interior(r)) == set(unflagged.interior(r))


def test_make_space_rejects_bad_specs():
    for bad in (
        {"kind": "grid", "dim": 0},
        {"kind": "free_group", "rank": 0},
        {"kind": "nope"},
        {"kind": "point_line", "coords": [3, 1]},
        42,
    ):
        with pytest.raises(MalformedSpec):
            ck.make_space(bad)


_SPECS = [
    {"kind": "grid", "dim": 2},
    {"kind": "free_group", "rank": 2},
    {"kind": "tree", "branching": 3},
    {"kind": "tree", "edges": [[0, 1], [1, 2]]},
    {"kind": "point_line", "coords": [0, 2, 5]},
    {"kind": "disjoint_union", "gaps": [2],
     "blocks": [{"kind": "point_line", "coords": [0, 1]}, {"kind": "custom", "points": ["p"], "dist": [[0]]}]},
    {"kind": "product_finite", "base": {"kind": "grid", "dim": 1}, "n": 2},
    {"kind": "custom", "points": [0, "q"], "dist": [[0, 1], [1, 0]]},
]
# JSON values: scalars (ints past int64 and past float among them), and nested,
# ragged and mixed lists and dicts of them
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text("abq", max_size=2)
    | st.sampled_from([2**63 + 5, -2**63 - 1, 2**64, 2**1100, 1.5, 1e30, float("nan"), float("inf")]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["kind", "dim", "a"]), inner,
                                                                 max_size=2),
    max_leaves=10)


# the fields that hold JSON lists, and those that hold integers or lists of them
_LIST_FIELDS = {"edges", "points", "dist", "coords", "blocks", "gaps"}
_INT_FIELDS = {"dim", "rank", "branching", "edges", "coords", "n", "gaps", "dist"}


def _holds_bool(v):
    return type(v) is bool or type(v) is list and any(map(_holds_bool, v))


@settings(max_examples=700, deadline=None, derandomize=True)
@given(spec=st.sampled_from(_SPECS), data=st.data())
def test_make_space_builds_or_refuses_any_json_field(spec, data):
    field = data.draw(st.sampled_from(sorted(spec)))
    value = data.draw(_JSON | st.sampled_from(_SPECS) | st.lists(st.sampled_from(_SPECS), max_size=3))
    if field == "kind":
        # no drawn value spells a kind; a list or a dict there raised TypeError
        with pytest.raises(MalformedSpec, match="unknown space kind"):
            ck.make_space(dict(spec, kind=value))
        return
    if field in _LIST_FIELDS and type(value) is not list:
        # a str or a dict there was iterated: "ab" made the points "a" and "b"
        with pytest.raises(MalformedSpec, match=f"'{field}' must be a JSON list"):
            ck.make_space(dict(spec, **{field: value}))
        return
    if field != "points" and _holds_bool(value):
        # true was read as 1: an integer field names itself, and a spec field
        # ("base", "blocks") refuses the boolean where it meets it
        with pytest.raises(MalformedSpec, match=f"'{field}'" if field in _INT_FIELDS else None):
            ck.make_space(dict(spec, **{field: value}))
        return
    try:
        ck.make_space(dict(spec, **{field: value}))
    except CoarseKitError:
        pass



# -- one metric path per kind: oracles ----------------------------------------

def _near_int64(dim):
    """Coordinates near 0 and near each magnitude where int64 arithmetic on
    dim-dimensional l1 distances starts to wrap."""
    centers = [0, 2**61 // dim, 2**62, 2**63, 2**70]
    return st.builds(lambda c, s, o: s * c + o, st.sampled_from(centers),
                     st.sampled_from([1, -1]), st.integers(-3, 3))


def _l1(p, q):
    return sum(abs(a - b) for a, b in zip(p, q))


def _exact_or_overflow(compute, want, top):
    """compute() is exact whenever top, the largest distance involved, fits
    int64; beyond that it is exact or raises IntegerOverflow, never wrong."""
    try:
        got = compute()
    except IntegerOverflow:
        assert top >= 2**63
        return
    assert got == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_grid_and_point_line_distances_are_exact_or_overflow(data):
    dim = data.draw(st.integers(1, 3))
    G = ck.make_space({"kind": "grid", "dim": dim})
    points = st.lists(st.tuples(*[_near_int64(dim)] * dim), min_size=1, max_size=4)
    A, B = data.draw(points), data.draw(points)
    want = [[_l1(p, q) for q in B] for p in A]
    _exact_or_overflow(lambda: G.pairwise_dist(A, B).tolist(), want, max(map(max, want)))
    diam = max(_l1(p, q) for p in A + B for q in A + B)
    _exact_or_overflow(lambda: G.diameter(A + B), diam, diam)

    coords = sorted({p[0] for p in A + B})
    L = ck.make_space({"kind": "point_line", "coords": coords})
    a, b = [p[0] for p in A], [q[0] for q in B]
    want = [[abs(x - y) for y in b] for x in a]
    _exact_or_overflow(lambda: L.pairwise_dist(a, b).tolist(), want, max(map(max, want)))
    _exact_or_overflow(lambda: L.diameter(coords), coords[-1] - coords[0], coords[-1] - coords[0])


def _random_tree_edges(rng, n):
    """A tree on 0..n-1: each vertex but one joins an earlier one of a random
    relabelling, so vertex 0 need not be a leaf or a hub."""
    label = list(range(n))
    rng.shuffle(label)
    return [[label[k], label[rng.randrange(k)]] for k in range(1, n)]


def _bfs_lengths(edges, n, src):
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    lengths = {src: 0}
    queue = [src]
    for v in queue:
        for u in adj[v]:
            if u not in lengths:
                lengths[u] = lengths[v] + 1
                queue.append(u)
    return [lengths[v] for v in range(n)]


def _attribute_sizes(obj):
    return {k: len(v) for k, v in vars(obj).items() if hasattr(v, "__len__")}


@pytest.mark.parametrize("case", range(12))
def test_finite_tree_distances_match_bfs(case):
    rng = random.Random(case)
    n = rng.randint(1, 40)
    edges = _random_tree_edges(rng, n) if case % 3 else [[k, k + 1] for k in range(n - 1)]
    T = ck.make_space({"kind": "tree", "edges": edges})
    before = _attribute_sizes(T)
    want = [_bfs_lengths(edges, n, v) for v in range(n)]
    assert [[T.dist(x, y) for y in range(n)] for x in range(n)] == want
    assert T.pairwise_dist(list(range(n)), list(range(n))).tolist() == want
    rows = rng.sample(range(n), min(n, 5))
    assert T.pairwise_dist(rows, list(range(n))[::-1]).tolist() == [want[x][::-1] for x in rows]
    assert T.diameter(list(range(n))) == max(map(max, want))
    # no per-query state: nothing the space holds grows with the queries
    assert _attribute_sizes(T) == before


def _free_group_ball_old(space, x, r):
    """The free-group ball loop before it moved onto the shared tree BFS."""
    seen, frontier, out = {x}, [x], [x]
    for _ in range(r):
        nxt = []
        for w in frontier:
            for s in space.letters:
                y = word_mul(w, s)
                if y not in seen:
                    seen.add(y)
                    out.append(y)
                    nxt.append(y)
        frontier = nxt
    return out


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_group_ball_order_is_unchanged(rank):
    F = ck.make_space({"kind": "free_group", "rank": rank})
    for x in ["", "a", "aB" if rank > 1 else "aa"]:
        for r in range(5):
            assert F.ball_points(x, r) == _free_group_ball_old(F, x, r)
