"""One point lookup per window: ``Window.ids`` against its definition
(``normalize``, then ``index``, with first-seen numbering past the window when
an ``outside`` dict is given), the payload readers that go through it, and a
``matching_cut`` check that reads the window alone, against the set-based
definition it replaced."""

import json
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_canonical_windows import SPECS, _center

import coarsekit as ck
from coarsekit import serialization as ser
from coarsekit import spaces
from coarsekit.cli import run
from coarsekit.errors import CoarseKitError, UnknownPoint

# run again under two string-hash seeds (see pyproject.toml)
pytestmark = pytest.mark.hashseed

Z = ck.make_space({"kind": "grid", "dim": 1})
Z2 = ck.make_space({"kind": "grid", "dim": 2})
F2 = ck.make_space({"kind": "free_group", "rank": 2})


def _ids_by_definition(w, points, outside):
    """Window.ids as it is defined: normalise each point, then look it up."""
    out = []
    for p in points:
        q = w.space.normalize(p)
        try:
            out.append(w.index(q))
        except UnknownPoint:
            if outside is None:
                raise
            out.append(outside.setdefault(q, len(w) + len(outside)))
    return out


def _outcome(f, points, with_outside):
    """The ids with the outside points (reprs tell 1 from True and (1,) from
    (1.0,)), or the class and message of what was raised."""
    outside = {} if with_outside else None
    try:
        ids = f(points, outside)
    except (CoarseKitError, TypeError, ValueError) as exc:
        return "raise", type(exc).__name__, str(exc)
    return "value", [int(i) for i in ids], repr(list((outside or {}).items()))


def _mangled(p, kind):
    """p with each int inside its tuples replaced: by a float, a numpy int, or
    a bool where the int is 0 or 1."""
    if isinstance(p, tuple):
        return tuple(_mangled(x, kind) for x in p)
    if type(p) is not int:
        return p
    if kind == "float":
        return float(p)
    if kind == "numpy":
        return np.int64(p)
    return bool(p) if p in (0, 1) else p


def _pool(space, w, r):
    """Values to look up in the window w of radius r: its own points, equal
    copies, JSON forms, points outside it, mangled types, foreign values and
    unhashables."""
    outside = [q for q in space.ball_points(w.ball_center, r + 2) if q not in w]
    pool = [*w.points, *outside[:6], None, {"x": 1}, [[0]], "zz", 3.5, ()]
    for p in (*w.points[:6], *outside[:3]):
        pool.append(pickle.loads(pickle.dumps(p)))  # equal, but not the same object
        pool.append(json.loads(json.dumps(space.point_to_json(p))))
        pool += [_mangled(p, kind) for kind in ("float", "numpy", "bool")]
        if isinstance(p, str):
            pool += [p + "aA", "Aa" + p, p + "c"]  # unreduced, and foreign for rank 2
    return pool


@pytest.mark.parametrize("kind", SPECS)
@settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), pick=st.integers(0, 10**6), r=st.integers(0, 2), with_outside=st.booleans())
def test_ids_is_normalize_then_index(kind, data, pick, r, with_outside):
    space = ck.make_space(SPECS[kind])
    w = ck.ball(space, _center(space, pick), r)
    points = data.draw(st.lists(st.sampled_from(_pool(space, w, r)), max_size=10))
    want = _outcome(lambda ps, out: _ids_by_definition(w, ps, out), points, with_outside)
    assert _outcome(w.ids, points, with_outside) == want


def test_named_lookups_on_z_and_f2():
    w = ck.ball(Z, (0,), 3)
    assert w.ids([(1,), [1], (True,), (np.int64(-2),), [3]]).tolist() == [4, 4, 4, 1, 6]
    with pytest.raises(UnknownPoint, match=r"^not a Z\^1 point: \(1\.0,\)$"):  # equals (1,), but refused
        w.ids([(1.0,)])
    with pytest.raises(UnknownPoint, match=r"^\(4,\) is not in this window$"):
        w.ids([(0,), [4]])
    outside = {}
    assert w.ids([[9], (4,), (9,), [True]], outside).tolist() == [7, 8, 7, 4]
    assert outside == {(9,): 7, (4,): 8}
    for mode in (None, {}):  # None is no point: normalize refuses it, with or without outside
        with pytest.raises(UnknownPoint, match=r"^not a Z\^1 point: None$"):
            w.ids([(0,), None], mode)
    b = ck.ball(F2, "", 2)
    outside = {}
    assert b.ids(["ab", "bbb", "", "abab", "bbb"], outside).tolist() == [
        b.index("ab"), len(b), b.index(""), len(b) + 1, len(b)]
    assert outside == {"bbb": len(b), "abab": len(b) + 1}
    for bad in ("aAab", "Bb", "ac", 7):  # unreduced, foreign, not a word
        with pytest.raises(CoarseKitError):
            b.ids([bad], {})


class _NoLists(dict):
    """A window index that fails a test when a JSON list is looked up in it."""

    def get(self, key, default=None):
        assert not isinstance(key, list), "a JSON list was looked up"
        return super().get(key, default)


def test_own_points_skip_normalize_and_lists_skip_the_lookup(monkeypatch):
    w = ck.ball(Z2, (0, 0), 6)
    calls = []
    norm = spaces.GridSpace.normalize
    monkeypatch.setattr(spaces.GridSpace, "normalize", lambda self, x: calls.append(x) or norm(self, x))
    assert w.ids(w.points).tolist() == list(range(len(w)))
    assert calls == []
    w._index = _NoLists(w._index)
    # plain int lists are found by one searchsorted on the window's codes
    assert w.ids([list(p) for p in w.points]).tolist() == list(range(len(w)))
    assert calls == []


def test_a_field_of_other_values_goes_point_by_point(monkeypatch):
    # one point that is not a list of plain ints sends the whole field through
    # the lookup and normalize, in order; (1.0,) is still refused there
    w = ck.ball(Z, (0,), 6)
    calls = []
    norm = spaces.GridSpace.normalize
    monkeypatch.setattr(spaces.GridSpace, "normalize", lambda self, x: calls.append(x) or norm(self, x))
    rows = [list(p) for p in w.points]
    for odd in ([1.0], (1.0,), [1, 2]):
        calls.clear()
        with pytest.raises(UnknownPoint):
            w.ids(rows + [odd])
        assert calls == rows + [odd]
    calls.clear()
    assert w.ids(rows + [(1,)]).tolist() == list(range(len(w))) + [w.index((1,))]
    assert calls == rows  # the tuple is found by the lookup


def test_readers_call_ids_once_per_field_and_hand_back_window_points(monkeypatch):
    b = ck.ball(F2, "", 4)
    # a cover of singletons in two colors, and one with a piece of three points
    colors = (tuple((p,) for p in b.points[::2]), ((),) + tuple((p,) for p in b.points[1::2]))
    payloads = {
        "paradox": (ser.paradox_to_payload(ck.paradox_free_group(2), b), 4),  # plus, minus, t_plus, t_minus
        "doubling": (ser.doubling_to_payload(ck.matching_certificate(b, 1).doubling), 3),
        "segments": (ser.segments_to_payload(ck.extract_segments(F2, 1, 2, b), b), 1),
        "cover": (ser.cover_to_payload(ck.ColoredCover(b, 1, 0, colors)), 1),
        "cover3": (ser.cover_to_payload(ck.ColoredCover(b, 1, 2, ((b.points[:3],) + colors[0], ()))), 1),
    }
    nested = {"segments": "segments", "cover": "colors", "cover3": "colors"}
    calls = []
    real = spaces.Window.ids
    monkeypatch.setattr(spaces.Window, "ids", lambda self, *a: calls.append(len(a[0])) or real(self, *a))
    for name, (payload, lists) in payloads.items():
        calls.clear()
        kind = payload["kind"]
        _, f = ser.read_payload(json.loads(ser.canonical_dumps(payload)), kind)
        assert len(calls) == lists, name
        if name in nested:  # the nesting comes back as it was written
            assert json.loads(json.dumps(f[nested[name]])) == payload[nested[name]], name
        own = {id(p) for p in f["window"].points}
        words = [p for field, v in f.items() if field not in ("window", "r", "bound", "displacement", "carrier")
                 for p in _words(v)]
        assert words and all(id(p) in own for p in words), name


def _words(v):
    """The free-group words in a field value: tuples, nested tuples or a dict."""
    if isinstance(v, str):
        yield v
    else:
        for x in (v.items() if isinstance(v, dict) else v):
            yield from _words(x)


def test_a_json_null_point_is_refused_as_before():
    payload = ser.doubling_to_payload(ck.matching_certificate(ck.ball(F2, "", 2), 1).doubling)
    payload["interior"][0] = None
    with pytest.raises(UnknownPoint, match="^free group points are strings, got None$"):
        ser.verify_payload(payload)


# -- matching_cut from the window alone ---------------------------------------

def _cut_report_by_sets(space, w, r, F, stated):
    """The check the window-only one replaced: Python sets of points."""
    in_interior = set(F) <= set(w.interior(r))
    nbrs = {q for q in space.neighborhood(F, r) if q in w}
    violating = len(nbrs) < 2 * len(F) if F else False
    ok = in_interior and violating and len(nbrs) == stated
    return ok, {"cut_in_interior": in_interior, "neighborhood_size": len(nbrs), "violates_doubling": violating}


def _cut_payload(w, r, F, stated):
    return json.loads(ser.canonical_dumps(ser.envelope("matching_cut", w.space, w, {
        "r": r, "cut": [w.space.point_to_json(p) for p in F], "cut_neighborhood_size": stated})))


def _cuts():
    """(name, window, r, cut, stated size): Hall violators of Z and Z^2, and a
    cut of F2 that does not violate (every window of F2 here doubles)."""
    out = []
    for name, w, r in (("z", ck.ball(Z, (3,), 40), 1), ("z_r2", ck.ball(Z, (0,), 30), 2),
                       ("z2", ck.ball(Z2, (1, -1), 7), 1),
                       ("z2_points", ck.Window(Z2, [(x, y) for x in range(11) for y in range(11)]), 1)):
        o = ck.matching_certificate(w, r)
        assert not o.feasible
        out.append((name, w, r, o.cut, o.cut_neighborhood_size))
    b = ck.ball(F2, "ab", 3)
    F = b.interior(1)
    out.append(("f2", b, 1, F, len(ck.Window(F2, [q for p in F for q in F2.ball_points(p, 1)]))))
    return out


CUTS = _cuts()


def _forged(name, w, r, F, stated):
    """The cut and its forgeries: a point moved out of the interior, a point
    outside the window, a stated size off by one either way."""
    boundary = next(p for p in w.points if p not in set(w.interior(r)))
    far = next(q for q in w.space.ball_points(w.points[-1], 3) if q not in w)
    return {"valid": (F, stated), "moved_out_of_interior": ((*F[1:], boundary), stated),
            "outside_window": ((*F, far), stated), "size_plus_1": (F, stated + 1), "size_minus_1": (F, stated - 1)}


@pytest.mark.parametrize("name, w, r, F, stated", CUTS, ids=[c[0] for c in CUTS])
def test_matching_cut_report_equals_the_set_based_definition(name, w, r, F, stated):
    for forge, (cut, size) in _forged(name, w, r, F, stated).items():
        ok, report = ser.verify_payload(_cut_payload(w, r, cut, size))
        want_ok, want = _cut_report_by_sets(w.space, w, r, cut, size)
        assert ok == want_ok, (name, forge)
        if forge == "outside_window":
            # the window alone cannot see the window's neighbours of a point
            # outside it; such a cut fails cut_in_interior either way
            assert not report["cut_in_interior"] and report["neighborhood_size"] <= want["neighborhood_size"]
        else:
            assert report == want, (name, forge)
        assert ok == (forge == "valid" and name != "f2"), (name, forge)


def test_matching_cut_figure_for_a_point_outside_the_window():
    # {0} and 11 outside ball((0,), 10): the sets counted 10, a window
    # neighbour of 11; the window alone counts N_1(0) = {-1, 0, 1}
    w = ck.ball(Z, (0,), 10)
    ok, report = ser.verify_payload(_cut_payload(w, 1, [(0,), (11,)], 3))
    assert _cut_report_by_sets(Z, w, 1, [(0,), (11,)], 3)[1]["neighborhood_size"] == 4
    assert not ok and report == {"cut_in_interior": False, "neighborhood_size": 3, "violates_doubling": True}


def test_matching_cut_check_makes_no_ball_or_neighborhood_call(monkeypatch):
    calls = []
    for cls in vars(spaces).values():
        for method in ("ball_points", "neighborhood"):
            if isinstance(cls, type) and method in vars(cls):
                monkeypatch.setattr(cls, method, lambda self, *a, m=method, f=vars(cls)[method], **k:
                                    calls.append(m) or f(self, *a, **k))
    for name, w, r, F, stated in CUTS:
        payload = _cut_payload(w, r, F, stated)
        ser.verify_payload(payload)
    # reading a ball window makes its ball, and nothing else makes one
    assert calls == ["ball_points"] * sum(w.is_ball for _, w, _, _, _ in CUTS)


def _count_distances(monkeypatch):
    """Patch the metric kernel to count the distances it computes and the
    scale_pairs calls it answers; returns the counter."""
    count = {"distances": 0, "scale_pairs": 0}
    for cls in (spaces.GridSpace, spaces.TreeMetricSpace):
        def paired(self, lay, I, J, f=vars(cls)["paired_dist"]):
            count["distances"] += np.broadcast(np.asarray(I), np.asarray(J)).size
            return f(self, lay, I, J)

        def pairs(self, lay, r, f=vars(cls)["scale_pairs"]):
            count["scale_pairs"] += 1
            return f(self, lay, r)
        monkeypatch.setattr(cls, "paired_dist", paired)
        monkeypatch.setattr(cls, "scale_pairs", pairs)
    return count


def test_matching_cut_check_of_a_huge_scale_reads_the_cut_rows_only(monkeypatch):
    # r past the radius of a ball window: every pair is at scale r, so the
    # pairs would number n^2 / 2; the cut's rows of distances are |F| n
    cases = [(ck.ball(F2, "", 8), 16, ["", "a", "bA"]), (ck.ball(Z, (0,), 50000), 40000, [(0,)]),
             (ck.ball(Z, (0,), 50), 10**30, [(0,), (50,)])]
    count = _count_distances(monkeypatch)
    for w, r, F in cases:
        F = [w.space.normalize(p) for p in F]
        size = sum(any(w.space.dist(p, q) <= r for p in F) for q in w.points)
        want = {"cut_in_interior": set(F) <= set(w.interior(r)), "neighborhood_size": size,
                "violates_doubling": False}
        count.update(distances=0, scale_pairs=0)
        assert ser.verify_payload(_cut_payload(w, r, F, size)) == (False, want)
        # a row from the center for the interior and one for the largest degree
        assert count["distances"] <= (len(F) + 2) * len(w) and count["scale_pairs"] == 0


def test_matching_cut_check_of_a_wide_cut_reads_the_pairs():
    # a cut of nearly every point at a small scale: |F| n distances would be
    # quadratic, the scale-1 pairs are linear in n
    w = ck.ball(Z, (0,), 20000)
    F = w.interior(1)
    want_ok, want = _cut_report_by_sets(Z, w, 1, F, len(w))
    with pytest.MonkeyPatch.context() as mp:
        count = _count_distances(mp)
        assert ser.verify_payload(_cut_payload(w, 1, F, len(w))) == (want_ok, want)
    assert want_ok and count["distances"] <= 2 * len(w) and count["scale_pairs"] == 1


@pytest.mark.parametrize("forge, code", [("valid", 0), ("moved_out_of_interior", 1), ("outside_window", 1),
                                         ("size_plus_1", 1), ("size_minus_1", 1)])
def test_matching_cut_exit_codes(tmp_path, forge, code):
    name, w, r, F, stated = CUTS[0]
    cut, size = _forged(name, w, r, F, stated)[forge]
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(_cut_payload(w, r, cut, size)))
    assert run(["verify", "--file", str(path)]).exit_code == code


def test_a_null_point_from_outside_is_still_refused(tmp_path):
    # a map key, like a payload point, is looked up through ids: null meets
    # normalize, which refuses it, as it did before the one lookup
    (tmp_path / "z.json").write_text(json.dumps(Z.to_spec()))
    (tmp_path / "m.json").write_text(json.dumps({"pairs": [[None, [0]], *[[[x], [x]] for x in (-1, 0, 1)]]}))
    res = run(["classify", "--space", str(tmp_path / "z.json"), "--window-radius", "1",
               "--map", str(tmp_path / "m.json"), "--target-space", str(tmp_path / "z.json")])
    assert res.exit_code == 3 and res.payload["error"] == "UnknownPoint"
    # where a rule is undefined, its image id is -1, and the images outside
    # the window are numbered past it
    rule = ck.ParadoxicalDecomposition(
        space=Z, displacement=1, in_carrier=lambda x: True, in_plus=lambda x: x[0] >= 0,
        in_minus=lambda x: x[0] < 0, t_plus=lambda x: None if x[0] > 0 else (x[0] + 5,), t_minus=lambda x: x)
    cidx, carrier, _, ids, outside = rule.on(ck.ball(Z, (0,), 2))
    assert carrier == [(-2,), (-1,), (0,), (1,), (2,)]
    assert ids["plus"].tolist() == [5, 6, 7, -1, -1] and outside == ((3,), (4,), (5,))
