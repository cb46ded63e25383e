"""Points enter once: ``ball`` builds its window from the canonical points of
``ball_points``, and ``make_operator``, ``char_projection``, ``verify_paradox``
and ``subwindow`` find a window's own points without ``normalize``.  An oracle
against the public, normalising ``Window``; the values ``normalize`` refuses
stay refused; and gates on the number of ``normalize`` calls."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coarsekit as ck
from coarsekit import serialization as ser
from coarsekit import spaces
from coarsekit.amenability import ParadoxicalDecomposition
from coarsekit.errors import UnknownPoint
from coarsekit.operators import make_operator

Z = ck.make_space({"kind": "grid", "dim": 1})
F2 = ck.make_space({"kind": "free_group", "rank": 2})

SPECS = {
    **{f"grid{d}": {"kind": "grid", "dim": d} for d in (1, 2, 3)},
    **{f"free_group{k}": {"kind": "free_group", "rank": k} for k in (1, 2, 3)},
    "tree1": {"kind": "tree", "branching": 1},
    "tree3": {"kind": "tree", "branching": 3},
    "edge_tree": {"kind": "tree", "edges": [[0, 1], [1, 2], [1, 3], [3, 4], [0, 5], [5, 6]]},
    "point_line": {"kind": "point_line", "coords": [-7, -2, 0, 1, 5, 12]},
    "product_grid2": {"kind": "product_finite", "base": {"kind": "grid", "dim": 2}, "n": 3},
    "product_free_group2": {"kind": "product_finite", "base": {"kind": "free_group", "rank": 2}, "n": 2},
    "disjoint_union": {"kind": "disjoint_union", "gaps": [2],
                       "blocks": [{"kind": "point_line", "coords": [0, 2, 3]},
                                  {"kind": "tree", "edges": [[0, 1], [1, 2]]}]},
    "custom": {"kind": "custom", "points": ["p", "q", "s"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
}


def _normalize_calls(monkeypatch, run) -> int:
    """The number of ``normalize`` calls, on every space kind, while run() runs."""
    calls = []
    for cls in vars(spaces).values():
        if isinstance(cls, type) and "normalize" in vars(cls):
            monkeypatch.setattr(cls, "normalize",
                                lambda self, x, orig=vars(cls)["normalize"]: calls.append(x) or orig(self, x))
    run()
    monkeypatch.undo()
    return len(calls)


def _center(space, pick):
    """A canonical point near the origin, chosen by pick."""
    near = space.ball_points(space.origin(), 2)
    return near[pick % len(near)]


@pytest.mark.parametrize("kind", SPECS)
@settings(max_examples=20, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(pick=st.integers(0, 10**6), r=st.integers(0, 4))
def test_ball_equals_the_normalising_window_of_its_points(kind, pick, r):
    space = ck.make_space(SPECS[kind])
    x = _center(space, pick)
    w = ck.ball(space, x, r)
    ref = ck.Window(space, space.ball_points(x, r))
    ref.ball_center, ref.ball_radius = x, r
    # repr tells (1,) from (1.0,) and 1 from True, which == does not
    assert repr(w.points) == repr(ref.points)
    assert w._index == ref._index and repr(list(w._index)) == repr(list(ref._index))
    assert w.is_ball and ref.is_ball
    assert json.dumps(w.to_json()) == json.dumps(ref.to_json())


@pytest.mark.parametrize("kind", SPECS)
def test_ball_normalizes_only_its_center(monkeypatch, kind):
    space = ck.make_space(SPECS[kind])
    x = _center(space, 1)
    # a product or union point's normaliser also normalises the point's part in its base or block
    nested = 2 if SPECS[kind]["kind"] in ("product_finite", "disjoint_union") else 1
    assert _normalize_calls(monkeypatch, lambda: ck.ball(space, x, 3)) == nested


@pytest.mark.parametrize("kind", SPECS)
def test_identity_keys_sort_with_no_key_call(monkeypatch, kind):
    # grids, trees and point lines order points by the points themselves (the
    # keyed sort made one canonical_key call per point of each window), and
    # free groups sort words in two keyless passes
    space = ck.make_space(SPECS[kind])
    pts = list(ck.ball(space, _center(space, 3), 3).points)[::-1]
    calls = []
    for cls in vars(spaces).values():
        if isinstance(cls, type) and "canonical_key" in vars(cls):
            monkeypatch.setattr(cls, "canonical_key",
                                lambda self, x, orig=vars(cls)["canonical_key"]: calls.append(x) or orig(self, x))
    got = space.canonical_sorted(pts)
    assert (calls == []) == (SPECS[kind]["kind"] in ("grid", "tree", "point_line", "free_group"))
    assert got == sorted(pts, key=space.canonical_key) and got == list(ck.Window(space, pts).points)


def test_window_points_are_found_without_normalize(monkeypatch):
    w = ck.ball(Z, (0,), 50)
    entries = {(p, q): 1 for p in w.points for q in w.points if abs(p[0] - q[0]) <= 1}
    assert _normalize_calls(monkeypatch, lambda: make_operator(w, entries)) == 0
    assert _normalize_calls(monkeypatch, lambda: ck.char_projection(w.points[::3], w)) == 0
    assert _normalize_calls(monkeypatch, lambda: w.subwindow(w.points[::2])) == 0
    # JSON rows hold lists of plain ints, found by one searchsorted: none is normalised
    rows = [[list(p), list(q), 1, 0] for p, q in entries]
    assert _normalize_calls(monkeypatch, lambda: make_operator(w, rows)) == 0
    assert make_operator(w, rows).equals(make_operator(w, entries), tol=0)


def test_verify_paradox_normalizes_only_images_outside_the_window(monkeypatch):
    rule, w = ck.paradox_free_group(2), ck.ball(F2, "", 6)
    outside = sum(t(p) not in w for t in (rule.t_plus, rule.t_minus) for p in w.points)
    assert outside > 0  # the boundary words of length 6 are carried out of the ball
    # an image outside the window may be any string, so it still meets normalize
    assert _normalize_calls(monkeypatch, lambda: ck.verify_paradox(rule, w)) == outside
    assert ck.verify_paradox(rule, w).passed


def test_a_found_value_of_the_wrong_type_is_still_refused():
    w = ck.ball(Z, (0,), 3)
    # (1.0,) equals and hashes like (1,), a point of w
    assert (1.0,) in w
    with pytest.raises(UnknownPoint):
        make_operator(w, {((1.0,), (1,)): 1})
    with pytest.raises(UnknownPoint):
        ck.char_projection([(1.0,)], w)
    with pytest.raises(UnknownPoint):
        w.subwindow([(1.0,)])
    rule = ParadoxicalDecomposition(
        space=Z, displacement=1, in_carrier=lambda x: True, in_plus=lambda x: x[0] >= 0,
        in_minus=lambda x: x[0] < 0, t_plus=lambda x: (1.0,) if x == (0,) else x, t_minus=lambda x: x)
    with pytest.raises(UnknownPoint):
        ck.verify_paradox(rule, w)
    # what normalize takes it still takes: a bool or a numpy int is a Z point
    a = make_operator(w, {((True,), (np.int64(1),)): 2})
    assert a.entry((1,), (1,)) == 2


def test_payload_readers_normalize_each_json_point_once(monkeypatch):
    b6 = ck.ball(F2, "", 6)
    paradox = ser.paradox_to_payload(ck.paradox_free_group(2), b6)
    cover = ser.cover_to_payload(ck.witness_line(3, ck.ball(Z, (0,), 400)))
    doubling = ser.doubling_to_payload(ck.matching_certificate(b6, 1).doubling)
    want = {
        # a word of the window is found in it: only the ball window's centre is normalised
        "paradox": 1,
        # a field of plain int lists is found by one searchsorted: only the centre
        "cover": 1,
        "doubling": 1,
    }
    for name, payload in (("paradox", paradox), ("cover", cover), ("doubling", doubling)):
        text = ser.canonical_dumps(payload)
        got = _normalize_calls(monkeypatch, lambda: ser.verify_payload(json.loads(text)))
        assert got == want[name], name


@pytest.mark.parametrize("forge", ["unreduced_image", "segment_outside_the_budget"])
def test_a_forged_point_outside_the_window_is_still_normalised_and_exits_3(monkeypatch, tmp_path, forge):
    from coarsekit.cli import run
    from coarsekit.components import SegmentFamily
    from coarsekit.errors import SegmentOutsideWindow

    b = ck.ball(F2, "", 3)
    if forge == "unreduced_image":
        payload = ser.paradox_to_payload(ck.paradox_free_group(2), b)
        payload["t_plus"].append(["aaa", "aAa"])  # no window word, so not found: normalize refuses it
        error, match = UnknownPoint, "not reduced"
    else:
        payload = ser.segments_to_payload(SegmentFamily(F2, 1, (("", "a"), ("aaaa", "aaaaa"))), b)
        error, match = SegmentOutsideWindow, "'aaaa' is outside the budget window"
    data = json.loads(ser.canonical_dumps(payload))

    def read():
        with pytest.raises(error, match=match):
            ser.verify_payload(data)

    # the ball's centre, then the forged word ("aaaa" and "aaaaa" for the segment)
    assert _normalize_calls(monkeypatch, read) == (2 if forge == "unreduced_image" else 3)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(data))
    assert run(["verify", "--file", str(path)]).exit_code == 3
