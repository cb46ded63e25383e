"""Free-group certificates handle each point once: the one-pass ``normalize``
of free groups and grids against the code it replaced, the closed-form
free-group ``neighborhood_size`` against the union of balls, and the paradox
rule evaluated once per window.  Also the cap of tree searches at radius 0 and
the custom space's own points."""

import dataclasses
import re
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import word_mul

import coarsekit as ck
from coarsekit import serialization as ser
from coarsekit.errors import EnumerationOverflow, UnknownPoint
from coarsekit.spaces import FreeGroupSpace, GridSpace, Space, TreeMetricSpace, TreeSpace

FREE = {k: FreeGroupSpace(k) for k in (1, 2, 3)}
F2 = FREE[2]
GRID = {d: GridSpace(d) for d in (1, 2, 3)}


# -- normalize: the fast paths against the code they replaced -------------------

def _reference_free_group_normalize(space, x):
    word = re.compile(f"[{''.join(space.letters)}]*")
    cancelling = re.compile("|".join(c + c.swapcase() for c in space.letters))
    if not isinstance(x, str):
        raise UnknownPoint(f"free group points are strings, got {x!r}")
    if word.fullmatch(x) is None:
        c = next(c for c in x if c not in set(space.letters))
        raise UnknownPoint(f"letter {c!r} not valid for rank {space.rank}")
    if cancelling.search(x):
        raise UnknownPoint(f"word {x!r} is not reduced")
    return x


def _reference_grid_normalize(space, x):
    if isinstance(x, (list, tuple)) and len(x) == space.dim and all(
        isinstance(c, (int, np.integer)) for c in x
    ):
        return tuple(int(c) for c in x)
    if space.dim == 1 and isinstance(x, (int, np.integer)):
        return (int(x),)
    raise UnknownPoint(f"not a Z^{space.dim} point: {x!r}")


def _outcome(f, x):
    """The value with its type and repr ((1,) is not (True,) nor (np.int64(1),)),
    or the class and message of what was raised."""
    try:
        y = f(x)
    except Exception as exc:  # noqa: BLE001 - the class is compared
        return "raise", type(exc), str(exc)
    return "value", type(y), repr(y)


class Word(str):
    pass


_SPELLINGS = st.one_of(
    st.text(alphabet="aAbBcCdz \n", max_size=10),
    st.text(alphabet="aAbBcC", max_size=10).map(Word),
    st.text(max_size=4),
    st.integers(-3, 3),
    st.none(),
    st.booleans(),
    st.lists(st.text(alphabet="ab", max_size=2), max_size=2),
    st.binary(max_size=3),
)

_COORD = st.one_of(st.integers(-10**20, 10**20), st.booleans(), st.integers(-5, 5).map(np.int64),
                   st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=1), st.none())
_GRID_SPELLINGS = st.one_of(
    _COORD,
    st.lists(_COORD, max_size=4),
    st.lists(_COORD, max_size=4).map(tuple),
    st.lists(st.integers(-10**20, 10**20), min_size=1, max_size=4),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(tuple),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(rank=st.integers(1, 3), x=_SPELLINGS)
def test_free_group_normalize_matches_the_two_regex_code(rank, x):
    space = FREE[rank]
    assert _outcome(space.normalize, x) == _outcome(lambda v: _reference_free_group_normalize(space, v), x)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(dim=st.integers(1, 3), x=_GRID_SPELLINGS)
def test_grid_normalize_matches_the_checking_code(dim, x):
    space = GRID[dim]
    assert _outcome(space.normalize, x) == _outcome(lambda v: _reference_grid_normalize(space, v), x)


def test_normalize_fast_paths_on_named_spellings():
    z1, z2, f2 = GRID[1], GRID[2], FREE[2]
    for x in ([3], (3,), [True], (np.int64(3),), 3, True, np.int64(3), [3.0], [3, 4], (), "3"):
        assert _outcome(z1.normalize, x) == _outcome(lambda v: _reference_grid_normalize(z1, v), x)
    for x in ([1, 2], (1, 2), [1, True], (np.int64(1), 2), [1.0, 2], [1], 1, [1, 2, 3]):
        assert _outcome(z2.normalize, x) == _outcome(lambda v: _reference_grid_normalize(z2, v), x)
    for x in ("", "abAB", "aA", "abc", "ab\n", Word("ab"), Word("aA"), b"ab", None, ["a"]):
        assert _outcome(f2.normalize, x) == _outcome(lambda v: _reference_free_group_normalize(f2, v), x)
    assert type(f2.normalize(Word("ab"))) is Word


# -- the closed-form neighbourhood size against the union of balls ---------------

def _word(rank, steps):
    """A reduced word: each step picks one of the 2k - 1 letters that do not
    cancel the last."""
    letters, u = FREE[rank].letters, ""
    for s in steps:
        choices = [c for c in letters if not u or c != u[-1].swapcase()]
        u += choices[s % len(choices)]
    return u


_STEPS = st.one_of(st.lists(st.integers(0, 4), max_size=4), st.lists(st.integers(0, 4), min_size=40, max_size=46))


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(rank=st.integers(1, 3), steps=st.lists(_STEPS, max_size=5), dup=st.integers(0, 3), r=st.integers(0, 4))
def test_free_group_neighborhood_size_equals_the_union_of_balls(rank, steps, dup, r):
    space = FREE[rank]
    F = [_word(rank, s) for s in steps]
    F += F[:dup]  # duplicate points
    assert space.neighborhood_size(F, r) == Space.neighborhood_size(space, F, r)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_group_neighborhood_size_on_named_sets(rank):
    space = FREE[rank]
    a = space.letters[0]
    for F in ([], [""], ["", ""], [a * 41], ["", a * 41, space.letters[-1] * 3],
              space.ball_points("", 2), space.ball_points(a * 3, 2)):
        for r in (0, 1, 3):
            assert space.neighborhood_size(F, r) == Space.neighborhood_size(space, F, r), (F, r)
    assert space.neighborhood_size([], 5) == 0
    assert space.neighborhood_size(["", ""], 0) == 1
    # no point lies within a negative radius (the union counts F itself)
    assert space.neighborhood_size(["", a], -1) == 0


def test_free_group_neighborhood_size_makes_no_search(monkeypatch):
    # free-group balls are generated, not searched: the gate counts every ball
    calls = []
    balls = FreeGroupSpace.ball_points
    monkeypatch.setattr(FreeGroupSpace, "ball_points", lambda self, *a, **k: calls.append(a) or balls(self, *a, **k))
    F3 = FREE[3]
    B5 = F3.ball_points("", 5)  # one ball, for the set itself
    calls.clear()
    assert F3.neighborhood_size(B5, 1) == F3.ball_count("", 6, 10**9)
    assert F3.neighborhood_size(["ab" * 30, ""], 2) == 2 * F3.ball_count("", 2, 10**9)
    report = ck.folner_search_report(F3, 1, "1/10", ck.FolnerBudget(ball_radius_max=4, basepoint="ab"))
    assert report.certificate is None and report.candidates_tested == 5
    assert calls == [("ab", 4)]  # the candidates are counted: only the best ball is listed


@pytest.mark.parametrize("radius", [10**7, 10**30])
@pytest.mark.parametrize("rank", [1, 2])
def test_free_group_neighborhood_of_a_huge_radius_overflows_at_once(rank, radius):
    start = time.perf_counter()
    with pytest.raises(EnumerationOverflow):
        FREE[rank].neighborhood_size(["", "ab"[:rank]], radius)
    assert time.perf_counter() - start < 1
    # where the union raises, on its first ball
    with pytest.raises(EnumerationOverflow):
        Space.neighborhood_size(FREE[rank], [""], radius)


# -- the paradox rule, evaluated once per window ----------------------------------

def _suffix(x):
    return x[len(x.rstrip("aAbB")):]


def test_free_group_rule_matches_its_suffix_definition():
    # the definitions of the docstring, on the maximal {a, b}-suffix s(x)
    rule = ck.paradox_free_group(3)
    for x in FREE[3].ball_points("ca", 5):
        s = _suffix(x)
        assert rule.in_plus(x) == (s == "" or s[-1] in "aA")
        assert rule.in_minus(x) == (s != "" and s[-1] in "bB")
        assert rule.t_plus(x) == (x if (s and s[-1] == "A") or all(c == "a" for c in s) else word_mul(x, "a"))
        assert rule.t_minus(x) == (x if s and s[-1] == "B" else word_mul(x, "b"))


def _counted(rule):
    calls = {}

    def count(name, f):
        calls[name] = 0

        def call(x):
            calls[name] += 1
            return f(x)
        return call

    names = ("in_carrier", "in_plus", "in_minus", "t_plus", "t_minus")
    return dataclasses.replace(rule, **{name: count(name, getattr(rule, name)) for name in names}), calls


def test_checking_and_serialising_a_window_evaluate_the_rule_once():
    rule, calls = _counted(ck.paradox_free_group(2))
    w = ck.ball(F2, "ab", 4)
    n = len(w)
    assert ck.verify_paradox(rule, w).passed
    after_verify = dict(calls)
    payload = ser.paradox_to_payload(rule, w)
    assert calls == after_verify
    # every window point is in the carrier; a membership predicate is called
    # again on each image outside the window
    out = {name: sum(getattr(ck.paradox_free_group(2), f"t_{name}")(p) not in w for p in w.points)
           for name in ("plus", "minus")}
    assert out["plus"] > 0 and out["minus"] > 0
    assert calls == {"in_carrier": n, "t_plus": n, "t_minus": n,
                     "in_plus": n + out["plus"], "in_minus": n + out["minus"]}
    assert payload == ser.paradox_to_payload(ck.paradox_free_group(2), ck.ball(F2, "ab", 4))
    # one slot: another window is evaluated afresh, and so is the first again
    ck.verify_paradox(rule, ck.ball(F2, "", 2))
    ser.paradox_to_payload(rule, w)
    assert calls["t_plus"] == 2 * n + len(ck.ball(F2, "", 2))


def test_a_rule_is_frozen():
    rule = ck.paradox_free_group(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.t_plus = lambda x: x


def test_transport_reads_the_rule_once_per_source_point():
    rule, calls = _counted(ck.paradox_free_group(2))
    prod = ck.make_space({"kind": "product_finite", "base": {"kind": "free_group", "rank": 2}, "n": 2})
    src = ck.ball(FREE[2], "a", 3)
    f = ck.CoarseMap(src, prod, {x: (x, 2) for x in src.points})
    moved = ck.transport_paradox(rule, f)
    assert calls == dict.fromkeys(calls, len(src))
    assert ck.verify_paradox(moved, ck.Window(prod, f.image())).passed


# -- tree searches check their cap before expanding; custom points ---------------

@pytest.mark.parametrize("space, x", [(TreeSpace(branching=2), 0), (TreeSpace(branching=1), 5),
                                      (TreeSpace(edges=[[0, 1], [1, 2]]), 1), (GridSpace(1), (0,))])
def test_a_radius_zero_ball_respects_its_cap(space, x):
    with pytest.raises(EnumerationOverflow):
        space.ball_points(x, 0, cap=0)
    assert space.ball_points(x, 0, cap=1) == [x]
    assert space.ball_count(x, 0, 0) == 1  # cap + 1: more than cap
    with pytest.raises(EnumerationOverflow):
        space.ball_sizes(x, 0, 0)


def test_a_tree_search_stops_at_its_cap():
    t = TreeSpace(branching=2)
    assert sorted(t.ball_points(0, 1, cap=3)) == [0, 1, 2]
    with pytest.raises(EnumerationOverflow):
        t.ball_points(0, 1, cap=2)
    assert t.ball_sizes(0, 2, 7) == [1, 3, 7]
    with pytest.raises(EnumerationOverflow):
        t.ball_sizes(0, 2, 6)


def test_a_custom_window_holds_the_space_own_points():
    c = ck.make_space({"kind": "custom", "points": [0, 1, 2], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]})
    w = ck.Window(c, [1.0, 2])
    assert w.to_json() == {"points": [1, 2]} and repr(w.points) == "(1, 2)"
    assert repr(c.normalize(np.int64(2))) == "2" and repr(c.normalize(True)) == "1"
    with pytest.raises(UnknownPoint):
        c.normalize(3)
