"""Balls generated without a search, and doublings and translations on window
indices: free-group and b-ary tree ``ball_points`` against the breadth-first
search they replaced (order, cap and message included), the two-pass word
sort, the one-pass doubling checks against their set-based definition, the
product's growth from one base call, paradox parts outside their window, and
negative grid scales."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import free_group_bfs

import coarsekit as ck
from coarsekit import serialization as ser
from coarsekit import spaces
from coarsekit.amenability import PartialTranslation, WindowedDoubling, _max_dist
from coarsekit.cli import run
from coarsekit.errors import EnumerationOverflow, MalformedSpec
from coarsekit.spaces import FreeGroupSpace, TreeSpace

# run again under two string-hash seeds (see pyproject.toml)
pytestmark = pytest.mark.hashseed

FREE = {k: FreeGroupSpace(k) for k in (1, 2, 3)}
TREES = {b: TreeSpace(branching=b) for b in (1, 2, 3, 4)}


def _outcome(f):
    try:
        return "value", f()
    except EnumerationOverflow as exc:
        return "raise", str(exc)


# -- generated balls against the breadth-first search ---------------------------

def _free_group_ball_by_search(space, x, r, cap):
    # the code the generator replaced
    if space.ball_count(x, r, cap) > cap:
        raise EnumerationOverflow(f"free group ball of radius {r} exceeds cap {cap}")
    return free_group_bfs(space, x, r)


def _tree_ball_by_search(space, x, r, cap):
    return sorted(TreeSpace._bfs(space, x, cutoff=r, cap=cap))


@st.composite
def _words(draw, rank, max_len):
    letters = FREE[rank].letters
    word = ""
    for c in draw(st.lists(st.sampled_from(letters), max_size=max_len)):
        if not word or word[-1] != c.swapcase():
            word += c
    return word


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), rank=st.sampled_from([1, 2, 3]), r=st.integers(0, 5))
def test_free_group_balls_are_the_search_in_its_order(data, rank, r):
    space = FREE[rank]
    x = data.draw(_words(rank, 9))  # centres shorter and longer than r
    cap = data.draw(st.one_of(st.just(10**9), st.integers(0, space.ball_count("", r, 10**9) + 2)))
    want = _outcome(lambda: _free_group_ball_by_search(space, x, r, cap))
    assert _outcome(lambda: space.ball_points(x, r, cap)) == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(b=st.sampled_from([1, 2, 3, 4]), r=st.integers(0, 6),
       x=st.one_of(st.just(0), st.integers(0, 60), st.integers(0, 10**12)),
       cap=st.one_of(st.just(10**9), st.integers(0, 400)))
def test_tree_balls_are_the_search_sorted(b, r, x, cap):
    space = TREES[b]
    want = _outcome(lambda: _tree_ball_by_search(space, x, r, cap))
    got = _outcome(lambda: space.ball_points(x, r, cap))
    assert got == want
    assert got[0] == "raise" or all(type(p) is int for p in got[1])


def test_generated_balls_named_cases():
    for rank, space in FREE.items():
        for x, r in [("", 0), ("", 4), ("aB"[:rank] * 3, 2), ("a" * 7, 3), ("A" * 2, 5)]:
            assert space.ball_points(x, r) == _free_group_ball_by_search(space, x, r, 10**9), (rank, x, r)
    for b, space in TREES.items():
        for x, r in [(0, 0), (0, 5), (5, 3), (10**6, 4), (2**40, 2)]:
            assert space.ball_points(x, r) == _tree_ball_by_search(space, x, r, None), (b, x, r)


@pytest.mark.parametrize("space,x", [(FREE[2], "ab"), (TREES[1], 5), (TREES[3], 7)], ids=["F2", "ray", "T3"])
@pytest.mark.parametrize("r", [10**7, 10**30])
def test_generated_balls_of_huge_radius_overflow_at_once(space, x, r):
    with pytest.raises(EnumerationOverflow, match="exceeds cap 2000000"):
        space.ball_points(x, r)


def test_balls_of_free_groups_and_b_ary_trees_make_no_search(monkeypatch):
    calls = []
    bfs = TreeSpace._bfs
    monkeypatch.setattr(TreeSpace, "_bfs", lambda self, *a, **k: calls.append(a) or bfs(self, *a, **k))
    assert len(ck.ball(FREE[2], "aB", 6)) == FREE[2].ball_count("", 6, 10**9)
    assert len(ck.ball(TREES[3], 5, 6)) == len(TREES[3].ball_points(5, 6))
    assert calls == []
    # an edge-list tree still searches
    path = ck.make_space({"kind": "tree", "edges": [[k, k + 1] for k in range(10)]})
    assert ck.ball(path, 5, 2).points == (3, 4, 5, 6, 7) and len(calls) == 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), rank=st.sampled_from([1, 2, 3]))
def test_two_pass_word_sort_is_the_canonical_key_order(data, rank):
    words = data.draw(st.lists(_words(rank, 6), max_size=30))
    assert FREE[rank].canonical_sorted(words) == sorted(words, key=FREE[rank].canonical_key)


# -- doublings and translations on window indices -------------------------------

def _verify_doubling_by_sets(d):
    # the set-based definition the index arrays replaced
    w = d.window
    interior = set(d.interior)
    pairs = [*d.u_plus.items(), *d.u_minus.items()]
    xs, ys = zip(*pairs) if pairs else ((), ())
    report = {
        "domains_ok": set(d.u_plus) == interior and set(d.u_minus) == interior,
        "injective_ok": len(set(d.u_plus.values())) == len(d.u_plus)
        and len(set(d.u_minus.values())) == len(d.u_minus),
        "disjoint_ok": not (set(d.u_plus.values()) & set(d.u_minus.values())),
        "displacement_ok": not pairs or max(map(w.space.dist, xs, ys)) <= d.r,
        "range_ok": all(b in w for m in (d.u_plus, d.u_minus) for b in m.values()),
        "interior_ok": set(d.interior) == set(w.interior(d.r)),
    }
    report["ok"] = all(report.values())
    return report


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), R=st.integers(1, 3))
def test_doubling_checks_match_their_set_definition(data, R):
    space = FREE[2]
    w = ck.ball(space, "", R)
    d = ck.matching_certificate(w, 1).doubling
    plus, minus, interior = dict(d.u_plus), dict(d.u_minus), list(d.interior)
    # forge: move images (into or out of the window), drop or add domain
    # points, and touch the interior list
    near = [*w.points, "aaaaa", "bbbbb", "AbAbA"]
    for m in (plus, minus):
        for _ in range(data.draw(st.integers(0, 2))):
            k = data.draw(st.sampled_from(sorted(m) + ["aaaaa"]))
            if data.draw(st.booleans()):
                m[k] = data.draw(st.sampled_from(near))
            else:
                m.pop(k, None)
    if data.draw(st.booleans()):
        interior.append(data.draw(st.sampled_from(near)))
    forged = WindowedDoubling(w, data.draw(st.sampled_from([1, 1, 2, 0])), tuple(interior), plus, minus)
    assert ck.verify_doubling(forged) == _verify_doubling_by_sets(forged)


def test_empty_doubling_checks():
    w = ck.ball(FREE[2], "", 0)
    d = ck.matching_certificate(w, 1).doubling
    assert ck.verify_doubling(d) == _verify_doubling_by_sets(d)
    assert ck.verify_doubling(d)["ok"]


def test_max_dist_takes_dist_for_points_outside_the_window():
    w = ck.ball(FREE[2], "", 1)
    outside = {}
    I = w.ids(["", "a", "bbb"], outside)
    J = w.ids(["aaaa", "A", ""], outside)
    assert outside == {"bbb": len(w), "aaaa": len(w) + 1}
    assert _max_dist(w, I, J, w.points + tuple(outside)) == 4


def test_doubling_and_translation_checks_normalize_no_window_point(monkeypatch):
    space = FREE[2]
    w = ck.ball(space, "a", 4)
    d = ck.matching_certificate(w, 1).doubling
    rule = ck.paradox_free_group(2)
    t = PartialTranslation(space, [(q, rule.t_plus(q)) for q in w.points])
    calls = []
    norm = FreeGroupSpace.normalize
    monkeypatch.setattr(FreeGroupSpace, "normalize", lambda self, x: calls.append(x) or norm(self, x))
    assert ck.verify_doubling(d)["ok"]
    v = ck.from_partial_translation(t, w)
    assert calls == []
    # v delta_x = delta_t(x) over the pairs inside the window
    want = {(w.index(b), w.index(a)): 1 for a, b in t.pairs if a in w and b in w}
    assert v.entries == dict(sorted(want.items())) and v.exact


# -- products read their growth off one base call ------------------------------

PATH = ck.make_space({"kind": "tree", "edges": [[k, k + 1] for k in range(2000)]})


@pytest.mark.parametrize("base,center", [
    ({"kind": "tree", "edges": [[k, k + 1] for k in range(30)]}, 10),
    ({"kind": "tree", "branching": 2}, 3),
    ({"kind": "free_group", "rank": 2}, "ab"),
    ({"kind": "grid", "dim": 2}, [0, 0]),
])
@pytest.mark.parametrize("levels", [1, 3])
def test_product_ball_sizes_match_one_count_per_radius(base, center, levels):
    space = ck.make_space({"kind": "product_finite", "base": base, "n": levels})
    x = space.normalize([center, levels])
    want = spaces.Space.ball_sizes(space, x, 5, 10**6)
    assert space.ball_sizes(x, 5, 10**6) == want
    # the product raises where one count per radius does (a base that passes
    # cap first raises with its own message)
    for cap in (want[2] - 1, want[-1] - 1, want[-1]):
        assert _outcome(lambda: space.ball_sizes(x, 5, cap))[0] == \
            _outcome(lambda: spaces.Space.ball_sizes(space, x, 5, cap))[0]


def test_product_growth_profile_searches_once(monkeypatch):
    # the 2,001-vertex path x 2 levels from its middle: |B_n| = (2n + 1) +
    # (2n - 1) = 4n for n >= 1, so one base search to n_max visits 2 n_max + 1
    # vertices, and a search per radius ~ n_max^2
    space = ck.make_space({"kind": "product_finite", "base": PATH.to_spec(), "n": 2})
    visited = []
    real = TreeSpace._bfs

    def counted(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        visited.append(len(out))
        return out

    monkeypatch.setattr(TreeSpace, "_bfs", counted)

    def visits(n_max):
        visited.clear()
        assert ck.growth_profile(space, [1000, 1], n_max).sizes == (1, *range(4, 4 * n_max + 1, 4))
        return sum(visited)

    assert visits(400) <= 4 * visits(100) + 4


# -- paradox parts outside their window -----------------------------------------

def _paradox_payload(radius=3):
    return ser.paradox_to_payload(ck.paradox_free_group(2), ck.ball(FREE[2], "", radius))


@pytest.mark.parametrize("part", ["plus", "minus"])
def test_paradox_parts_outside_the_window_are_refused(part):
    payload = _paradox_payload()
    assert ser.verify_payload(payload)[0]
    forged = dict(payload, **{part: payload[part] + ["aaaa"]})
    ok, report = ser.verify_payload(json.loads(json.dumps(forged)))
    assert not ok and report["witness"] == {"kind": "part_outside_window", "point": "aaaa"}


def test_cli_verify_refuses_a_paradox_part_outside_the_window(tmp_path):
    spec = tmp_path / "f2.json"
    spec.write_text(json.dumps({"kind": "free_group", "rank": 2}))
    res = run(["paradox", "--space", str(spec), "--window-radius", "3"])
    assert res.exit_code == 0
    good, forged = tmp_path / "good.json", tmp_path / "forged.json"
    good.write_text(ser.canonical_dumps(res.payload))
    forged.write_text(json.dumps(dict(res.payload, plus=res.payload["plus"] + ["aaaa"])))
    assert run(["verify", "--file", str(good)]).exit_code == 0
    out = run(["verify", "--file", str(forged)])
    assert out.exit_code == 1
    assert out.payload["report"]["witness"] == {"kind": "part_outside_window", "point": "aaaa"}


# -- negative grid scales ----------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_neighbourhood_of_a_negative_scale_is_empty(dim):
    space = ck.make_space({"kind": "grid", "dim": dim})
    F = [(0,) * dim, (5,) * dim]
    for r in (-1, -7):
        assert space.neighborhood_size(F, r) == 0
        assert space.neighborhood_size([], r) == 0


def test_isoperimetric_profile_refuses_a_negative_scale():
    w = ck.ball(ck.make_space({"kind": "grid", "dim": 1}), (0,), 3)
    for mode in ("balls", "greedy", "exhaustive"):
        with pytest.raises(MalformedSpec, match="scale must be >= 0"):
            ck.isoperimetric_profile(w, -1, mode=mode)
    assert ck.isoperimetric_profile(w, 0, mode="balls")[0] == (1, 1)


# -- one pass over many words ------------------------------------------------------

class Word(str):
    pass


_SPELLING = st.one_of(st.text(alphabet="aAbBc\n ,", max_size=6), st.text(alphabet="aAbB", max_size=6).map(Word),
                      st.integers(-2, 2), st.none(), st.lists(st.just("a"), max_size=1))


def _each(f, xs):
    try:
        return "value", [(type(y), y) for y in f(xs)]
    except Exception as exc:  # noqa: BLE001 - the class is compared
        return "raise", type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(rank=st.sampled_from([1, 2, 3]), xs=st.lists(_SPELLING, max_size=8))
def test_normalize_all_is_normalize_of_each(rank, xs):
    space = FREE[rank]
    want = _each(lambda v: [space.normalize(x) for x in v], xs)
    assert _each(space.normalize_all, xs) == want
    assert _each(lambda v: space.normalize_all(iter(v)), xs) == want


def test_window_and_translation_of_words_check_them_in_one_pass(monkeypatch):
    space = FREE[2]
    w = ck.ball(space, "aB", 5)
    rule = ck.paradox_free_group(2)
    calls = []
    norm = FreeGroupSpace.normalize
    monkeypatch.setattr(FreeGroupSpace, "normalize", lambda self, x: calls.append(x) or norm(self, x))
    assert ck.Window(space, reversed(w.points)).points == w.points
    t = PartialTranslation(space, [(q, rule.t_plus(q)) for q in w.points])
    assert calls == []
    assert t.pairs == tuple(sorted(((q, rule.t_plus(q)) for q in w.points), key=lambda ab: space.canonical_key(ab[0])))
    # a refused word is found word by word, with its own message
    with pytest.raises(ck.errors.UnknownPoint, match="is not reduced"):
        PartialTranslation(space, [("a", "b"), ("aA", "")])
    with pytest.raises(ck.errors.UnknownPoint, match="letter 'c' not valid"):
        ck.Window(space, ["a", "c"])
