"""Array kernels against the per-point code they replace: the sorted sweep of
scale pairs on point lines and disjoint unions (against one ``dist`` call per
pair), the counted Folner ball search (against the listing loop, kept here as
it was), and the one dict pass over a field of plain JSON points in
``Window.ids`` (against ``normalize``, then ``index``)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import pairs_bruteforce
from test_window_ids import _ids_by_definition, _outcome

import coarsekit as ck
from coarsekit import spaces
from coarsekit.amenability import FOLNER_MAX_CANDIDATES, FolnerCertificate, FolnerSearchReport, _ratio_of
from coarsekit.errors import CoarseKitError

# run again under two string-hash seeds (see pyproject.toml)
pytestmark = pytest.mark.hashseed

SEARCH = settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])


# -- scale pairs: one sorted sweep --------------------------------------------------

# near 0, near +-2^62 (where int64 coordinates and their offsets get close to
# wrapping) and past int64
BASES = [0, 2**61, 2**62 - 40, -2**62 + 40, 2**62 + 3, 2**63 + 5, -2**63 - 5]
COORDS = st.builds(lambda base, offs: sorted({base + o for o in offs}),
                   st.sampled_from(BASES), st.lists(st.integers(-30, 30), min_size=1, max_size=7))
CUSTOM = [
    {"kind": "custom", "points": ["p"], "dist": [[0]]},
    {"kind": "custom", "points": ["p", "q", "s"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
    {"kind": "custom", "points": [0, 1], "dist": [[0, 3], [3, 0]]},
]
BLOCK = st.one_of(COORDS.map(lambda c: {"kind": "point_line", "coords": c}), st.sampled_from(CUSTOM))


def _pair_list(pairs):
    i, j = (a.tolist() for a in pairs)
    assert all(a < b for a, b in zip(i, j))
    return list(zip(i, j))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(keys=st.lists(st.integers(-2**61, 2**61), min_size=1, max_size=30, unique=True),
       near=st.lists(st.integers(0, 12), max_size=10), r=st.one_of(st.integers(0, 15), st.integers(0, 2**61)))
def test_sweep_is_every_pair_within_r_in_row_order(keys, near, r):
    key = np.array(sorted({*keys, *(keys[0] + d for d in near)}), dtype=np.int64)
    want = [(a, b) for a in range(len(key)) for b in range(a + 1, len(key)) if int(key[b]) - int(key[a]) <= r]
    assert _pair_list(spaces._sweep_pairs(key, r)) == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(coords=COORDS, r=st.one_of(st.integers(1, 70), st.integers(1, 2**70)))
def test_point_line_pairs_are_the_bruteforce_pairs_in_order(coords, r):
    space = ck.make_space({"kind": "point_line", "coords": coords})
    if len(coords) < 2:
        return
    w = ck.Window(space, coords)
    assert _pair_list(ck.scale_pairs(w, r)) == _pair_list(pairs_bruteforce(w, r))


@settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), blocks=st.lists(BLOCK, min_size=1, max_size=6))
def test_disjoint_union_pairs_are_the_bruteforce_pairs(data, blocks):
    gaps = data.draw(st.lists(st.integers(1, 5), min_size=len(blocks) - 1, max_size=len(blocks) - 1))
    space = ck.make_space({"kind": "disjoint_union", "blocks": blocks, "gaps": gaps})
    every = space.all_points()
    keep = data.draw(st.lists(st.booleans(), min_size=len(every), max_size=len(every)))
    w = ck.Window(space, [p for p, k in zip(every, keep) if k] or every)
    # from r = 1 to past the farthest blocks, a scale past every span, and one past int64
    reach = space.block_distance(0, len(blocks) - 1)
    for r in sorted({1, 2, 3, 12, 30, data.draw(st.integers(1, reach + 3)), reach + 1, 2**40, 10**19}):
        got = _pair_list(ck.scale_pairs(w, r))
        assert len(set(got)) == len(got)
        assert set(got) == set(_pair_list(pairs_bruteforce(w, r))), r


# -- the Folner ball search: counted, not listed ------------------------------------

def _listing_report(space, r, eps, budget):
    """folner_search_report's ball loop and local rounds as they were before
    balls were counted: every candidate ball and its r-neighbourhood listed."""
    eps, budget = Fraction(eps), budget or ck.FolnerBudget()
    base = space.normalize(budget.basepoint) if budget.basepoint is not None else space.origin()
    bound = 1 + eps
    tested, best, best_set, cert, prev_pts = 0, None, None, None, None
    for j in range(budget.ball_radius_max + 1):
        if tested >= FOLNER_MAX_CANDIDATES:
            break
        F = tuple(space.ball_points(base, j))
        if prev_pts is not None and len(F) == len(prev_pts):
            break
        prev_pts = F
        n = space.neighborhood_size(F, r)
        ratio = Fraction(n, len(F))
        tested += 1
        if best is None or ratio < best:
            best, best_set = ratio, F
        if ratio <= bound:
            cert = FolnerCertificate(space, F, r, eps, n)
            break
    if cert is None and budget.local_rounds > 0 and best_set is not None:
        F = set(best_set)
        for _ in range(budget.local_rounds):
            if tested >= FOLNER_MAX_CANDIDATES:
                break
            improved = False
            moves = [("drop", p) for p in space.canonical_sorted(F)]
            moves += [("add", p) for p in space.canonical_sorted(space.neighborhood(F, r) - F)]
            for kind, p in moves:
                if tested >= FOLNER_MAX_CANDIDATES:
                    break
                cand = F - {p} if kind == "drop" else F | {p}
                if not cand:
                    continue
                ratio = _ratio_of(space, tuple(cand), r)
                tested += 1
                if ratio < best:
                    best, F, best_set, improved = ratio, cand, tuple(space.canonical_sorted(cand)), True
                    break
            if not improved:
                break
        if best <= bound:
            cert = FolnerCertificate(space, best_set, r, eps, int(best * len(best_set)))
    return FolnerSearchReport(cert, best, best_set, tested)


def _report(search, space, r, eps, budget):
    """The whole report, with the types of its sizes, or what was raised."""
    try:
        rep = search(space, r, eps, budget)
    except CoarseKitError as exc:
        return "raise", type(exc).__name__, str(exc)
    size = rep.certificate and type(rep.certificate.neighborhood_size)
    return "value", rep, size, repr(rep.best_set)


FOLNER_SPACES = {
    "Z": ({"kind": "grid", "dim": 1}, 40),
    "Z2": ({"kind": "grid", "dim": 2}, 24),
    "Z3": ({"kind": "grid", "dim": 3}, 10),
    "F2": ({"kind": "free_group", "rank": 2}, 6),
    "F3": ({"kind": "free_group", "rank": 3}, 5),
    "tree3": ({"kind": "tree", "branching": 3}, 6),
    "edge_tree": ({"kind": "tree", "edges": [[0, 1], [1, 2], [1, 3], [3, 4], [0, 5], [5, 6], [6, 7]]}, 9),
    "product_grid2": ({"kind": "product_finite", "base": {"kind": "grid", "dim": 2}, "n": 3}, 10),
    "product_free_group2": ({"kind": "product_finite", "base": {"kind": "free_group", "rank": 2}, "n": 2}, 4),
}


@pytest.mark.parametrize("name", FOLNER_SPACES)
@SEARCH
@given(pick=st.integers(0, 10**6), r=st.integers(1, 3), den=st.sampled_from([1, 2, 5, 10, 20, 40]),
       radius=st.integers(0, 40), rounds=st.integers(0, 2))
def test_counted_ball_search_is_the_listing_search(name, pick, r, den, radius, rounds):
    spec, max_radius = FOLNER_SPACES[name]
    space = ck.make_space(spec)
    near = space.ball_points(space.origin(), 2)
    budget = ck.FolnerBudget(ball_radius_max=min(radius, max_radius), basepoint=near[pick % len(near)],
                             local_rounds=rounds if radius <= 2 else 0)
    want = _report(_listing_report, space, r, Fraction(1, den), budget)
    assert _report(ck.folner_search_report, space, r, Fraction(1, den), budget) == want


@pytest.mark.parametrize("spec, r, budget", [
    # a finite tree is exhausted before the budget runs out, also from a leaf
    ({"kind": "tree", "edges": [[0, 1], [1, 2], [2, 3], [0, 4]]}, 1, ck.FolnerBudget(ball_radius_max=30)),
    ({"kind": "tree", "edges": [[0, 1], [1, 2], [2, 3], [0, 4]]}, 2, ck.FolnerBudget(30, basepoint=3)),
    ({"kind": "product_finite", "base": {"kind": "tree", "edges": [[0, 1], [1, 2]]}, "n": 2}, 1,
     ck.FolnerBudget(ball_radius_max=30)),
    # |B_(j+r)| passes the cap after the first candidate: the rest are listed
    ({"kind": "free_group", "rank": 3}, 8, ck.FolnerBudget(ball_radius_max=3, basepoint="ab")),
    # the first r-ball passes the cap: both raise EnumerationOverflow
    ({"kind": "free_group", "rank": 3}, 9, ck.FolnerBudget(ball_radius_max=3)),
    ({"kind": "grid", "dim": 2}, 1500, ck.FolnerBudget(ball_radius_max=3)),
    ({"kind": "product_finite", "base": {"kind": "grid", "dim": 2}, "n": 2}, 1500, ck.FolnerBudget(ball_radius_max=3)),
])
def test_counted_search_exhausts_and_overflows_as_the_listing_search(spec, r, budget):
    space = ck.make_space(spec)
    want = _report(_listing_report, space, r, Fraction(1, 10), budget)
    assert _report(ck.folner_search_report, space, r, Fraction(1, 10), budget) == want
    if spec["kind"] == "tree":
        assert want[0] == "value" and want[1].candidates_tested < 30
    if r >= 9:
        assert want[:2] == ("raise", "EnumerationOverflow")


# -- Window.ids: a field of plain JSON points in one dict pass ---------------------

_LINE = (0, 1, 2, 3, 5)
IDS_SPACES = {
    "grid1": {"kind": "grid", "dim": 1},
    "grid2": {"kind": "grid", "dim": 2},
    "grid3": {"kind": "grid", "dim": 3},
    "point_line": {"kind": "point_line", "coords": [-9, -4, -3, 0, 2, 7, 8, 15, 2**62 - 1, 2**63 + 1]},
    "free_group": {"kind": "free_group", "rank": 2},
    "tree": {"kind": "tree", "branching": 3},
    "edge_tree": {"kind": "tree", "edges": [[k, (k - 1) // 2] for k in range(1, 20)]},
    "custom_int": {"kind": "custom", "points": list(_LINE), "dist": [[abs(a - b) for b in _LINE] for a in _LINE]},
    "custom_str": {"kind": "custom", "points": ["p", "q", "s", "t"],
                   "dist": [[abs(a - b) for b in range(4)] for a in range(4)]},
}
# centres of the grid windows: near 0, past 2^62, and where the coordinates leave int64
CENTRES = [0, -5, 37, 2**62 - 3, 2**62 + 5, -2**62 - 7, 2**63 + 1, -2**63 - 2]
WORDS = ["", "a", "bA", "aab", "BaB"]


def _window(space, pick, r, sparse):
    """A ball of the space, or (sparse) every third point of it, or for a point
    line a run of its coordinates."""
    if space.kind == "point_line":
        return ck.Window(space, space.coords[pick % 4:pick % 4 + 2 + r + (pick % 5)])
    if space.kind == "grid":
        c = CENTRES[pick % len(CENTRES)]
        centre = (c,) + (pick % 3,) * (space.dim - 1)
    elif space.kind == "free_group":
        centre = WORDS[pick % len(WORDS)]
    elif space.kind == "tree":
        centre = pick % 20
    else:
        centre = space.points[pick % len(space.points)]
    w = ck.ball(space, centre, r)
    return ck.Window(space, w.points[::3]) if sparse else w


def _odd_values(space, w):
    """Values that are not plain JSON points of the window's kind (floats,
    bools, numpy ints, tuples, None, nested or mistyped lists), and plain
    values that no point of it spells (ints past int64, a word that is not
    reduced, strings on an int kind and ints on a string kind)."""
    p = list(w.points[0]) if space.kind == "grid" else w.points[0]
    if space.kind == "point_line":
        return [1.0, float(p), True, np.int64(p % 1000), 2**63, -2**63 - 1, "1", [p], (p,), None]
    if space.kind == "grid":
        return [[1.0] * space.dim, tuple(float(c) for c in p), (1.0,), [True] * space.dim, (True,) * space.dim,
                [np.int64(c % 1000) for c in p], [2**63] + p[1:], [-2**63 - 1] + p[1:], p + [0], p[:-1],
                ["1"] * space.dim, "1", tuple(p), None, [[c] for c in p]]
    if type(p) is str:
        return [p + "aA", "Aa" + p, "z", np.str_(p), 1, True, 1.0, [p], (p,), None]
    return [True, 1.0, float(p), np.int64(p), -1, 2**63, "1", [p], (p,), None]


def _plain(space, field):
    """Whether Window._found looks the field up whole: plain ints, or plain
    strs, or on a grid lists of dim plain ints."""
    kinds = {*map(type, field)}
    if kinds == {list} and space.kind == "grid":
        return all(len(q) == space.dim and {*map(type, q)} == {int} for q in field)
    return kinds == {int} or kinds == {str}


@pytest.mark.parametrize("name", IDS_SPACES)
@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), pick=st.integers(0, 10**6), r=st.integers(0, 4), sparse=st.booleans(),
       with_outside=st.booleans(), odd=st.booleans(), wrapped=st.booleans())
def test_array_ids_are_the_per_point_ids(name, data, pick, r, sparse, with_outside, odd, wrapped):
    space = ck.make_space(IDS_SPACES[name])
    w = _window(space, pick, r, sparse)
    # plain JSON forms of the window's points and of points near it, outside it
    if space.kind == "point_line":
        near = list(space.coords)
    else:
        near = [q for p in w.points[:4] for q in space.ball_points(p, 2)]
    pool = [space.point_to_json(q) for q in (*w.points, *near)]
    field = data.draw(st.lists(st.sampled_from(pool), max_size=25))
    if odd:
        field.insert(data.draw(st.integers(0, len(field))), data.draw(st.sampled_from(_odd_values(space, w))))
    if wrapped:  # each point one list deeper: int lists off a grid, or nested lists on one
        field = [[q] for q in field]
    want = _outcome(lambda ps, out: _ids_by_definition(w, ps, out), field, with_outside)
    assert _outcome(w.ids, field, with_outside) == want
    # a field of plain ints, plain strs or (on a grid) plain int lists, at any
    # magnitude, is looked up whole; any other field goes point by point
    assert (w._found(field) is not None) == _plain(space, field)


def test_named_array_lookups():
    Z, Z2 = ck.make_space(IDS_SPACES["grid1"]), ck.make_space(IDS_SPACES["grid2"])
    w = ck.ball(Z, (0,), 3)
    outside = {}
    # misses are numbered in first-seen order, after the window's points
    assert w.ids([[9], [2], [-5], [9], [3]], outside).tolist() == [7, 5, 8, 7, 6]
    assert outside == {(9,): 7, (-5,): 8}
    with pytest.raises(ck.errors.UnknownPoint, match=r"^\(4,\) is not in this window$"):
        w.ids([[0], [4], [1.0]])  # the first miss raises, before the float is reached
    with pytest.raises(ck.errors.UnknownPoint, match=r"^not a Z\^1 point: \(1\.0,\)$"):
        w.ids([[0], (1.0,)])
    # a miss between the window's points, and one beyond them
    b = ck.Window(Z2, [(0, 0), (2, 2), (0, 2)])
    assert b.ids([[1, 1], [0, 2], [3, 0], [2, 2]], {}).tolist() == [3, 1, 4, 2]
    # a bool hashes as the int it equals, but is no plain int: its field goes point by point
    tree = ck.ball(ck.make_space(IDS_SPACES["tree"]), 0, 1)
    for win, field in ((w, [[0], [True], [1]]), (b, [[0, 2], [False, False]]), (tree, [0, True, 2])):
        assert win._found(field) is None and win.ids(field).tolist() == _ids_by_definition(win, field, None)
    # a window whose box would pass 2^62 cells needs no layout: the dict pass finds its points
    huge = ck.Window(Z2, [(0, 0), (0, 2**62), (4, 0)])
    assert huge._found([[4, 0], [0, 2**62], [1, 1]]).tolist() == [2, 1, -1]
    assert huge.ids([[4, 0], [0, 2**62]]).tolist() == [2, 1] and "layout" not in vars(huge)
    # a word that is not reduced misses the dict and is refused by normalize, after
    # the earlier misses are numbered
    F2 = ck.make_space(IDS_SPACES["free_group"])
    f = ck.ball(F2, "", 1)
    outside = {}
    assert f.ids(["a", "bb", "", "ab", "bb"], outside).tolist() == [3, 5, 0, 6, 5]
    assert outside == {"bb": 5, "ab": 6}
    with pytest.raises(ck.errors.UnknownPoint, match="is not reduced"):
        f.ids(["a", "bb", "aA", "ab"], {})


def test_rebuild_places_each_model_on_its_class_rows_and_columns():
    # one ids call for all classes: each class's model, row-major, on its own rows and columns
    space = ck.make_space({"kind": "disjoint_union", "gaps": [3, 3],
                           "blocks": [{"kind": "point_line", "coords": list(range(m))} for m in (3, 1, 2)]})
    w = ck.Window(space, space.all_points())
    rng = np.random.default_rng(0)
    entries = {(p, q): complex(*rng.uniform(-1, 1, 2)) for p in w.points for q in w.points if p[0] == q[0]}
    coloring = ck.af_approximate(ck.make_operator(w, entries), 2, 0.5).coloring
    want = np.zeros((len(w), len(w)), dtype=complex)
    for cls, color in zip(coloring.classes, coloring.color_of_class):
        idx = [w.index(p) for p in cls]
        want[np.ix_(idx, idx)] = coloring.models[color]
    assert np.array_equal(ck.rebuild_from_coloring(w, coloring).matrix.toarray(), want)
