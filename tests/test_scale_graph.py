"""The cached scale graph and the vectorised distances, checked against the
brute-force oracles on every space kind, plus complexity gates."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import pairs_bruteforce
from scipy.sparse.csgraph import shortest_path

import coarsekit as ck
from coarsekit import spaces
from coarsekit.errors import EnumerationOverflow


def _custom_spec(rng, n, name="p"):
    coords = rng.randint(0, 12, size=n)
    D = np.abs(coords[:, None] - coords[None, :])
    D = D + (D == 0) * (1 - np.eye(n, dtype=int))  # distinct points stay apart
    D = shortest_path(D, directed=False).astype(int)
    return {"kind": "custom", "points": [f"{name}{i}" for i in range(n)], "dist": D.tolist()}


def _window(kind, seed, as_ball):
    """A window of the named kind: a ball, or a random part of one."""
    rng = np.random.RandomState(seed)
    balls = {
        "grid1": ({"kind": "grid", "dim": 1}, (3,), 12),
        "grid2": ({"kind": "grid", "dim": 2}, (0, -1), 5),
        "grid3": ({"kind": "grid", "dim": 3}, (1, 0, 0), 3),
        "free_group": ({"kind": "free_group", "rank": 2}, "a", 3),
        "tree": ({"kind": "tree", "branching": 2}, 2, 4),
        "product_grid": ({"kind": "product_finite", "base": {"kind": "grid", "dim": 2}, "n": 3},
                         ((0, 0), 2), 3),
        "product_free_group": ({"kind": "product_finite",
                                "base": {"kind": "free_group", "rank": 2}, "n": 3}, ("", 1), 3),
        "product_tree": ({"kind": "product_finite", "base": {"kind": "tree", "branching": 2},
                          "n": 2}, (1, 2), 4),
    }
    if kind in balls:
        spec, center, radius = balls[kind]
        w = ck.ball(ck.make_space(spec), center, radius)
        if as_ball:
            return w
        # drop points at random; on products this also drops whole levels of some bases
        return ck.Window(w.space, [p for p in w.points if rng.rand() < 0.6])
    if kind == "point_line":
        space = ck.make_space({"kind": "point_line",
                               "coords": sorted(rng.choice(60, size=25, replace=False).tolist())})
    elif kind == "custom":
        space = ck.make_space(_custom_spec(rng, 20))
    else:
        space = ck.make_space({
            "kind": "disjoint_union",
            "blocks": [_custom_spec(rng, int(rng.randint(1, 6)), f"b{k}_") for k in range(3)]
            + [{"kind": "point_line", "coords": [0, 2, 3]}],
            "gaps": [1, 3, 2],
        })
    pts = space.all_points()
    return ck.Window(space, [p for p in pts if as_ball or rng.rand() < 0.7])


KINDS = ["grid1", "grid2", "grid3", "free_group", "tree", "point_line", "disjoint_union",
         "custom", "product_grid", "product_free_group", "product_tree"]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**31 - 1), as_ball=st.booleans())
def test_scale_graph_matches_bruteforce(kind, seed, as_ball):
    w = _window(kind, seed, as_ball)
    n = len(w)
    for r in (0, 1, 2, 3):
        g = w.scale_graph(r)
        ii, jj = pairs_bruteforce(w, r)
        want = {(int(a), int(b)) for a, b in zip(ii, jj)}
        want |= {(b, a) for a, b in want}
        rows = np.repeat(np.arange(n), np.diff(g.indptr))
        assert {(int(a), int(b)) for a, b in zip(rows, g.indices)} == want
        assert g.nnz == len(want)  # no duplicate entries
        for i in range(n):  # strictly increasing columns: sorted, no diagonal
            row = g.indices[g.indptr[i]:g.indptr[i + 1]]
            assert np.all(np.diff(row) > 0) and i not in row
        assert w.scale_graph(r) is g


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_pairwise_dist_matches_dist(kind, seed):
    w = _window(kind, seed, as_ball=False)
    pts = list(w.points)
    half = pts[: len(pts) // 2]
    D = w.space.pairwise_dist(half, pts)
    assert D.shape == (len(half), len(pts)) and D.dtype == np.int64
    assert D.tolist() == [[w.space.dist(p, q) for q in pts] for p in half]


def test_no_module_under_src_defines_or_calls_a_bruteforce_oracle():
    # the oracle lives in tests/oracles.py; with no definition, import or call
    # of it under src/, no path of any kind can fall back to it
    for path in pathlib.Path(spaces.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        names = ({n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
                 | {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
                 | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
                 | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names})
        assert not {n for n in names if "bruteforce" in n or n == "word_mul"}, path.name


def test_product_towers_never_fall_back_to_bruteforce():
    Z2 = ck.make_space({"kind": "grid", "dim": 2})
    u = ck.build_uf(ck.ball(Z2, (0, 0), 6), 2, lambda x: 1 if x % 2 else -1)
    rep = ck.interior_unitarity(u, 1)
    assert rep["interior_size"] > 0 and rep["isometry_exact"] and rep["coisometry_exact"]

    F2 = ck.make_space({"kind": "free_group", "rank": 2})
    prod = ck.make_space(
        {"kind": "product_finite", "base": {"kind": "free_group", "rank": 2}, "n": 2}
    )
    src = ck.ball(F2, "", 4)
    f = ck.CoarseMap(src, prod, lambda x: (x, 1))
    tp = ck.transport_paradox(ck.paradox_free_group(2), f)
    assert ck.verify_paradox(tp, ck.Window(prod, [f(x) for x in src.points])).passed


def test_witness_and_verifier_enumerate_pairs_once(monkeypatch):
    calls = []
    real = spaces.scale_pairs

    def counting(w, r):
        calls.append(r)
        return real(w, r)

    monkeypatch.setattr(spaces, "scale_pairs", counting)
    T3 = ck.make_space({"kind": "tree", "branching": 3})
    w = ck.ball(T3, 0, 5)
    cover = ck.witness_tree(T3, 0, 2, w)
    assert ck.verify_decomposition(cover).passed
    assert calls == [2]


@pytest.mark.parametrize("kind", KINDS)
def test_no_kind_falls_back_to_bruteforce(kind):
    # src/ holds no brute-force oracle to fall back to (the structural test above)
    for as_ball in (True, False):
        w = _window(kind, 0, as_ball)
        for r in (1, 2, 3):
            w.scale_graph(r)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**31 - 1), as_ball=st.booleans())
def test_diameter_matches_largest_distance(kind, seed, as_ball):
    w = _window(kind, seed, as_ball)
    pts = list(w.points)
    D = [[w.space.dist(p, q) for q in pts] for p in pts]
    assert ck.window_diameter(w) == max(map(max, D), default=0)
    half = len(pts) // 2
    assert w.space.diameter(pts[:half]) == max((max(row[:half]) for row in D[:half]), default=0)
    assert w.space.diameter(pts[:1]) == 0


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**31 - 1))
def test_disjoint_union_block_runs_match_bruteforce(seed):
    """Many blocks, whole blocks missing from the window, blocks wider than r,
    and radii that span several gaps."""
    rng = np.random.RandomState(seed)
    n_blocks = int(rng.randint(50, 70))
    blocks = [
        {"kind": "point_line",
         "coords": sorted(rng.choice(12, size=int(rng.randint(1, 5)), replace=False).tolist())}
        if rng.rand() < 0.5 else _custom_spec(rng, int(rng.randint(1, 4)), f"b{k}_")
        for k in range(n_blocks)
    ]
    space = ck.make_space({"kind": "disjoint_union", "blocks": blocks,
                           "gaps": rng.randint(1, 4, size=n_blocks - 1).tolist()})
    kept = rng.rand(n_blocks) < 0.7
    w = ck.Window(space, [p for p in space.all_points() if kept[p[0]] and rng.rand() < 0.8])
    assert max(space.diams) > 2 and not kept.all()
    for r in (1, 2, 5, 12, 30, 60):
        ii, jj = ck.scale_pairs(w, r)
        bi, bj = pairs_bruteforce(w, r)
        assert sorted(zip(ii.tolist(), jj.tolist())) == list(zip(bi.tolist(), bj.tolist()))


def test_growth_profile_on_trees_and_products_over_them():
    T3 = ck.make_space({"kind": "tree", "branching": 3})
    prod = ck.make_space({"kind": "product_finite", "base": {"kind": "tree", "branching": 3},
                          "n": 3})
    path = ck.make_space({"kind": "tree", "edges": [[k, k + 1] for k in range(9)]})
    for space, x in ((T3, 5), (prod, (5, 2)), (path, 3)):
        sizes = list(ck.growth_profile(space, x, 6).sizes)
        assert sizes == [len(space.ball_points(space.normalize(x), n)) for n in range(7)]
        assert list(ck.growth_profile(space, x, 6, cap=sizes[-1]).sizes) == sizes
        with pytest.raises(EnumerationOverflow):
            ck.growth_profile(space, x, 6, cap=sizes[-1] - 1)
    assert ck.growth_profile(T3, 0, 6).tag == "exponential-like"
    assert ck.growth_profile(path, 0, 6).sizes == (1, 2, 3, 4, 5, 6, 7)


def test_tree_growth_profile_searches_once(monkeypatch):
    # a path of 2,001 vertices from its middle: |B_n| = 2n + 1, so one search
    # to n_max visits 2 n_max + 1 vertices, and a search per radius ~ n_max^2
    path = ck.make_space({"kind": "tree", "edges": [[k, k + 1] for k in range(2000)]})
    visited = []
    real = spaces.TreeSpace._bfs

    def counted(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        visited.append(len(out))
        return out

    monkeypatch.setattr(spaces.TreeSpace, "_bfs", counted)

    def visits(n_max):
        visited.clear()
        assert ck.growth_profile(path, 1000, n_max).sizes == tuple(range(1, 2 * n_max + 2, 2))
        return sum(visited)

    assert visits(400) <= 4 * visits(100) + 4


def test_tree_balls_stop_enumerating_at_cap(monkeypatch):
    T3 = ck.make_space({"kind": "tree", "branching": 3})
    calls = []
    real = T3._neighbors
    monkeypatch.setattr(T3, "_neighbors", lambda x: calls.append(x) or real(x))
    for enumerate_ball in (lambda: T3.ball_points(0, 10, cap=1000),
                           lambda: ck.growth_profile(T3, 0, 10, cap=1000)):
        calls.clear()
        with pytest.raises(EnumerationOverflow):
            enumerate_ball()
        # each expanded vertex adds 3 children, so about cap / 3 expansions;
        # the whole radius-10 ball has 88,573 vertices
        assert len(calls) <= 1000


# -- grid neighbourhoods: ball offsets added to box codes -----------------------

GRIDS = {d: ck.make_space({"kind": "grid", "dim": d}) for d in (1, 2, 3)}


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), r=st.integers(0, 4),
       F=st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), max_size=25))
def test_grid_neighborhood_matches_union_of_balls(dim, r, F):
    space = GRIDS[dim]
    F = [tuple(p[:dim]) for p in F]
    union = spaces.Space.neighborhood(space, F, r)
    assert union == space.neighborhood(F, r)
    assert space.neighborhood_size(F, r) == len(union)


def test_grid_neighborhood_overflows_where_balls_do():
    space = GRIDS[3]
    r = next(r for r in range(100, 200)
             if space.ball_count(None, r, spaces.BALL_CAP_DEFAULT) > spaces.BALL_CAP_DEFAULT)
    for size in (space.neighborhood_size, lambda F, r: spaces.Space.neighborhood_size(space, F, r)):
        with pytest.raises(EnumerationOverflow):
            size([(0, 0, 0)], r)
        assert size([], r) == 0  # no ball is enumerated


def test_grid_folner_ball_search_enumerates_no_neighbourhood_ball(monkeypatch):
    calls = []
    orig = spaces.GridSpace.ball_points
    monkeypatch.setattr(spaces.GridSpace, "ball_points",
                        lambda self, x, r, cap=spaces.BALL_CAP_DEFAULT: calls.append(r) or orig(self, x, r, cap))
    from fractions import Fraction

    rep = ck.folner_search_report(GRIDS[2], 1, Fraction(1, 10), ck.FolnerBudget())
    assert rep.certificate is not None and ck.verify_folner(rep.certificate)["ok"]
    # the candidates are counted (N_1(B_j) = B_(j+1)): only the certificate's ball is listed
    assert calls == [rep.candidates_tested - 1]


def test_grid_codes_never_wrap_on_a_huge_bounding_box():
    # the box of these points has about 2^64 cells; int64 codes wrapped there
    # and (0, 11) looked one step from (4, 0)
    pts = [(0, 0), (0, 2**62), (4, 0), (0, 11)]
    w = ck.Window(GRIDS[2], pts)
    assert [a.tolist() for a in ck.scale_pairs(w, 1)] == [a.tolist() for a in pairs_bruteforce(w, 1)]
    assert GRIDS[2].neighborhood_size(pts, 1) == len(GRIDS[2].neighborhood(pts, 1)) == 20


@pytest.mark.parametrize("c", [2**70, 2**63 + 5, 2**63 - 1, -2**63])
def test_grid_balls_and_neighborhoods_beyond_int64(c):
    # numpy would hold 2^63 + 5 as uint64 and mix it with int64 into floats,
    # and would wrap 2^63 - 1 + 1 to -2^63; coordinates are Python ints
    assert GRIDS[1].ball_points((c,), 1) == [(c - 1,), (c,), (c + 1,)]
    assert GRIDS[2].ball_points((c, 0), 1) == [(c - 1, 0), (c, -1), (c, 0), (c, 1), (c + 1, 0)]
    assert list(ck.ball(GRIDS[1], [c], 1).points) == [(c - 1,), (c,), (c + 1,)]
    pts = [(c,), (c + 1,), (5,)]
    assert GRIDS[1].neighborhood_size(pts, 1) == len(GRIDS[1].neighborhood(pts, 1)) == 7
