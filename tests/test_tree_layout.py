"""Tree-metric windows on their ancestor-closure layout: the kernels, the
scale graph and piece diameters against the per-point oracles, the array
verifiers against copies of the per-point ones, count gates, and bounded work
on tiny windows at huge scales."""

import json
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import pairs_bruteforce, word_mul

import coarsekit as ck
from coarsekit import serialization as ser
from coarsekit.errors import IntegerOverflow
from coarsekit.amenability import ParadoxReport, PartialTranslation
from coarsekit.spaces import TreeMetricSpace, TreeSpace, scale_pairs

F = {k: ck.make_space({"kind": "free_group", "rank": k}) for k in (1, 2, 3)}
T = {b: ck.make_space({"kind": "tree", "branching": b}) for b in (1, 2, 3)}


def _word(rng, rank, length):
    letters = F[rank].letters
    u = ""
    while len(u) < length:
        s = rng.choice(letters)
        u = u[:-1] if u and u[-1] == s.swapcase() else u + s
    return u


def _edge_tree(rng, n, path):
    edges = [[k - 1, k] if path else [rng.randrange(k), k] for k in range(1, n)]
    return ck.make_space({"kind": "tree", "edges": edges})


def _tree_window(seed, case):
    """A window of a tree-metric space, or of a product over one."""
    rng = random.Random(seed)
    if case in ("fg_ball", "fg_subset", "fg_long"):
        rank = rng.randint(1, 3)
        radius = rng.randint(0, {1: 6, 2: 3, 3: 3}[rank])
        center = _word(rng, rank, rng.choice([0, 0, 1, 2, 3]))
        w = ck.ball(F[rank], center, radius)
        if case == "fg_subset":
            w = ck.Window(w.space, [p for p in w.points if rng.random() < 0.5])
        elif case == "fg_long":
            w = ck.Window(w.space, list(w.points) + [_word(rng, rank, 300)])
        return w
    if case in ("tree_ball", "tree_subset"):
        b = rng.randint(1, 3)
        w = ck.ball(T[b], rng.randrange(40), rng.randint(0, {1: 8, 2: 4, 3: 3}[b]))
        if case == "tree_subset":
            w = ck.Window(w.space, [p for p in w.points if rng.random() < 0.5])
        return w
    if case in ("edge_path", "edge_tree"):
        space = _edge_tree(rng, rng.randint(1, 40), case == "edge_path")
        return ck.Window(space, [v for v in space.all_points() if rng.random() < 0.6])
    base = F[2] if case == "product_fg" else T[2]
    space = ck.make_space({"kind": "product_finite", "base": base.to_spec(), "n": 2})
    w = ck.ball(space, (base.origin() if rng.random() < 0.5 else base.normalize(
        _word(rng, 2, 2) if base is F[2] else 5), 1), rng.randint(0, 3))
    return w if rng.random() < 0.5 else ck.Window(space, [p for p in w.points if rng.random() < 0.6])


CASES = ["fg_ball", "fg_subset", "fg_long", "tree_ball", "tree_subset", "edge_path",
         "edge_tree", "product_fg", "product_tree"]


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**31 - 1))
def test_layout_kernels_match_the_oracles(case, seed):
    w = _tree_window(seed, case)
    space, pts, n = w.space, w.points, len(w.points)
    D = np.array([[space.dist(p, q) for q in pts] for p in pts], dtype=np.int64).reshape(n, n)
    # the elementwise kernel, pairwise_dist and the scale graph
    rng = np.random.RandomState(seed % 2**32)
    I, J = rng.randint(0, max(n, 1), size=(2, 3 * n))
    assert space.paired_dist(w.layout, I, J).tolist() == D[I, J].tolist()
    assert space.pairwise_dist(pts, pts[: n // 2]).tolist() == D[:, : n // 2].tolist()
    for r in range(5):
        g = w.scale_graph(r)
        ii, jj = pairs_bruteforce(w, r)
        assert {(int(a), int(b)) for a, b in zip(*g.nonzero()) if a < b} == set(zip(ii.tolist(), jj.tolist()))
        assert g.nnz == 2 * len(ii)
        # each pair once
        assert sorted(zip(*(a.tolist() for a in ck.scale_pairs(w, r)))) == list(zip(ii.tolist(), jj.tolist()))
    # piece diameters: a random partition into pieces, some of them empty
    labels = rng.randint(0, max(n // 3, 1), size=n)
    order = np.argsort(labels, kind="stable")
    sizes = np.append(np.bincount(labels, minlength=max(n // 3, 1)), 0)
    want = [int(D[np.ix_(labels == c, labels == c)].max(initial=0)) for c in range(len(sizes))]
    assert space.piece_diameters(w.layout, order, sizes) == want
    assert ck.window_diameter(w) == int(D.max(initial=0))
    if isinstance(space, TreeMetricSpace):
        assert space.diameter(pts) == int(D.max(initial=0))


def test_layout_of_a_ball_about_the_identity_is_the_ball():
    w = ck.ball(F[2], "", 4)
    lay = w.layout
    assert len(lay.parent) == len(w) and lay.node.tolist() == list(range(len(w)))
    assert lay.depth.tolist() == [len(p) for p in w.points]
    assert [w.points[q] if q >= 0 else None for q in lay.parent.tolist()] == \
        [p[:-1] if p else None for p in w.points]
    assert not lay.parent.flags.writeable and not lay.up[0].flags.writeable


# -- the array verifiers against copies of the per-point ones ------------------

def _old_verify_paradox(p, w):
    """The per-point verifier before window index arrays, kept as the oracle."""
    space = p.space
    enc = space.point_to_json
    witness = None
    carrier = [x for x in w.points if p.in_carrier(x)]
    covered = set(carrier)
    plus = {x for x in carrier if p.in_plus(x)}
    minus = {x for x in carrier if p.in_minus(x)}
    partition_ok = not (plus & minus) and (plus | minus) == covered
    if not partition_ok:
        overlap = plus & minus
        missed = covered - (plus | minus)
        witness = {
            "kind": "partition",
            "point": enc(next(iter(overlap or missed))),
        }
    # an empty carrier makes every check below vacuous
    interior = w.interior(p.displacement)
    uncovered = [x for x in interior if x not in covered]
    if not carrier:
        partition_ok = False
        if witness is None:
            witness = {"kind": "empty_carrier"}
    elif uncovered:
        partition_ok = False
        if witness is None:
            witness = {"kind": "interior_outside_carrier", "point": enc(uncovered[0])}
    interior = set(interior)

    injective_ok, image_ok, disp_ok, disp_val = {}, {}, {}, {}
    interior_defined_ok, interior_surjective_ok = {}, {}
    images = {}
    for name, t, part in (("plus", p.t_plus, plus), ("minus", p.t_minus, minus)):
        seen = {}
        inj = True
        img_ok = True
        dmax = 0
        defined_ok = True
        for x in carrier:
            y = t(x)
            if y is None:
                if x in interior:
                    defined_ok = False
                    if witness is None:
                        witness = {"kind": f"undefined_{name}", "point": enc(x)}
                continue
            y = space.normalize(y)
            if y in seen:
                inj = False
                if witness is None:
                    witness = {"kind": f"collision_{name}", "pair": [enc(seen[y]), enc(x)]}
            seen[y] = x
            in_part = p.in_plus(y) if name == "plus" else p.in_minus(y)
            if not in_part:
                img_ok = False
                if witness is None:
                    witness = {"kind": f"image_{name}", "pair": [enc(x), enc(y)]}
            d = space.dist(x, y)
            dmax = max(dmax, d)
        injective_ok[name] = inj
        image_ok[name] = img_ok
        disp_val[name] = dmax
        disp_ok[name] = dmax <= p.displacement
        if not disp_ok[name] and witness is None:
            witness = {"kind": f"displacement_{name}", "value": dmax}
        interior_defined_ok[name] = defined_ok
        images[name] = set(seen)
        surj = True
        for y in part & interior:
            if y not in seen:
                surj = False
                if witness is None:
                    witness = {"kind": f"not_covered_{name}", "point": enc(y)}
                break
        interior_surjective_ok[name] = surj

    disjoint = not (images["plus"] & images["minus"])
    if not disjoint and witness is None:
        witness = {
            "kind": "images_overlap",
            "point": enc(next(iter(images["plus"] & images["minus"]))),
        }
    return ParadoxReport(
        partition_ok,
        injective_ok,
        image_ok,
        disp_ok,
        disp_val,
        disjoint,
        interior_defined_ok,
        interior_surjective_ok,
        witness,
    )


def _old_verify_doubling(d):
    """The per-pair verifier before the elementwise kernel, kept as the oracle."""
    w = d.window
    space = w.space
    interior = set(d.interior)
    report = {
        "domains_ok": set(d.u_plus) == interior and set(d.u_minus) == interior,
        "injective_ok": len(set(d.u_plus.values())) == len(d.u_plus)
        and len(set(d.u_minus.values())) == len(d.u_minus),
        "disjoint_ok": not (set(d.u_plus.values()) & set(d.u_minus.values())),
        "displacement_ok": all(
            space.dist(a, b) <= d.r
            for m in (d.u_plus, d.u_minus)
            for a, b in m.items()
        ),
        "range_ok": all(
            b in w for m in (d.u_plus, d.u_minus) for b in m.values()
        ),
        "interior_ok": set(d.interior) == set(w.interior(d.r)),
    }
    report["ok"] = all(report.values())
    return report


def _payload_cases(w):
    pay = ser.paradox_to_payload(ck.paradox_free_group(2), w)
    tp = pay["t_plus"]
    far = "aaaa" if tp[0][0] != "aaaa" else "bbbb"
    yield "valid", pay
    yield "dropped_pair", dict(pay, t_plus=tp[1:])
    yield "non_injective", dict(pay, t_plus=[tp[0], [tp[1][0], tp[0][1]]] + tp[2:])
    yield "distance_2", dict(pay, t_plus=[[tp[0][0], word_mul(tp[0][0], "ab")]] + tp[1:])
    yield "far_image", dict(pay, t_plus=[[tp[0][0], far]] + tp[1:])
    yield "outside_window", dict(pay, t_plus=[[tp[0][0], "ab" * 20]] + tp[1:])
    yield "plus_minus_overlap", dict(pay, minus=pay["minus"] + pay["plus"][:1])
    yield "images_in_the_other_part", dict(pay, t_plus=pay["t_minus"], t_minus=pay["t_plus"])


@pytest.mark.parametrize("center,radius", [("", 3), ("ab", 4), ("B", 2)])
def test_paradox_reports_equal_the_per_point_verifier(center, radius):
    w = ck.ball(F[2], center, radius)
    rule = ck.paradox_free_group(2)
    assert ck.verify_paradox(rule, w) == _old_verify_paradox(rule, w)
    sub = ck.Window(F[2], list(w.points)[: len(w) // 2])
    assert ck.verify_paradox(rule, sub) == _old_verify_paradox(rule, sub)
    kinds = set()
    for name, pay in _payload_cases(w):
        p = ser.paradox_from_payload(json.loads(ser.canonical_dumps(pay)))
        new, old = ck.verify_paradox(p, w), _old_verify_paradox(p, w)
        assert new == old, name
        kinds.add(None if new.witness is None else new.witness["kind"])
    # the forgeries fail on different checks
    assert {"collision_plus", "image_plus", "partition"} <= kinds and len(kinds) >= 5
    # a transported rule on the product, with and without the other level
    prod = ck.make_space({"kind": "product_finite", "base": {"kind": "free_group", "rank": 2}, "n": 2})
    f = ck.CoarseMap(w, prod, {x: (x, 2) for x in w.points})
    moved = ck.transport_paradox(rule, f)
    for win in (ck.Window(prod, f.image()), ck.Window(prod, [(x, l) for x in w.points for l in (1, 2)])):
        assert ck.verify_paradox(moved, win) == _old_verify_paradox(moved, win)


def test_doubling_reports_equal_the_per_pair_verifier():
    w = ck.ball(F[2], "a", 4)
    d = ck.matching_certificate(w, 1).doubling
    k0, k1 = d.interior[0], d.interior[1]
    cases = [d.u_plus, {**d.u_plus, k0: d.u_minus[k0]}, {**d.u_plus, k0: "abababab"},
             {**d.u_plus, k0: d.u_plus[k1]}, {**d.u_plus, "bababababa": "a"}]
    for u_plus in cases:
        dd = ck.WindowedDoubling(w, 1, d.interior, u_plus, d.u_minus)
        assert ck.verify_doubling(dd) == _old_verify_doubling(dd)
    assert not ck.verify_doubling(ck.WindowedDoubling(w, 1, d.interior, cases[2], d.u_minus))["displacement_ok"]


def test_partial_translation_displacement():
    rule = ck.paradox_free_group(2)
    w = ck.ball(F[2], "", 3)
    t = PartialTranslation(F[2], [(q, rule.t_plus(q)) for q in w.points])
    assert t.displacement == max(F[2].dist(a, b) for a, b in t.pairs) == 1
    assert PartialTranslation(F[2], [("", "abAB")]).displacement == 4
    assert PartialTranslation(F[2], []).displacement == 0


def test_displacement_outside_int64_is_reported_not_raised():
    # the kernel refuses d = 2^63; the displacement is the Python int, as
    # before (verify_paradox and verify_doubling meet such a window's
    # IntegerOverflow in its interior first, as before)
    Z = ck.make_space({"kind": "grid", "dim": 1})
    assert PartialTranslation(Z, [((-2**62,), (2**62,))]).displacement == 2**63
    line = ck.make_space({"kind": "point_line", "coords": [-2**62, 0, 2**62]})
    assert PartialTranslation(line, [(-2**62, 2**62), (2**62, 0)]).displacement == 2**63
    w = ck.Window(line, [-2**62, 2**62])
    d = ck.WindowedDoubling(w, 1, (), {-2**62: 2**62}, {2**62: -2**62})
    with pytest.raises(IntegerOverflow):
        ck.verify_doubling(d)


# -- count gates ----------------------------------------------------------------

def _refuse(*args, **kwargs):
    raise AssertionError("per-point ball or distance call")


@pytest.mark.parametrize("space,as_ball", [(F[2], True), (F[2], False), (T[3], True), (T[3], False),
                                           (_edge_tree(random.Random(3), 60, False), False)])
def test_scale_graph_makes_no_per_point_call(space, as_ball, monkeypatch):
    w = ck.ball(space, space.origin(), 4)
    if not as_ball:
        w = ck.Window(space, [p for i, p in enumerate(w.points) if i % 3])
    for name in ("neighbors", "ball_points", "ball_count", "dist"):
        monkeypatch.setattr(type(space), name, _refuse)
    for r in (1, 2, 3, 7):
        w.scale_graph(r)
    ck.components_at_scale(w, 2)


def test_tree_cover_and_its_verification_make_no_dist_call(monkeypatch):
    monkeypatch.setattr(TreeSpace, "dist", _refuse)
    w = ck.ball(T[3], 4, 5)
    cover = ck.witness_tree(T[3], 4, 2, w)
    assert ck.verify_decomposition(cover).passed


def test_each_window_builds_its_layout_once(monkeypatch):
    calls = []
    real = TreeMetricSpace.layout
    monkeypatch.setattr(TreeMetricSpace, "layout", lambda self, pts: calls.append(pts) or real(self, pts))
    w = ck.ball(T[3], 0, 4)
    cover = ck.witness_tree(T[3], 0, 2, w)
    assert ck.verify_decomposition(cover).passed
    w.scale_graph(1), w.interior(2), ck.window_diameter(w)
    assert ck.matching_certificate(w, 1).feasible
    assert calls == [w.points]


# -- bounded work -------------------------------------------------------------

def test_tiny_tree_window_at_a_huge_scale():
    # the 3-ary tree's balls grow about 3x per unit of radius; nothing here may
    # enumerate one
    w = ck.Window(T[3], [0, 5, 17, 100])
    start = time.perf_counter()
    assert ck.components_at_scale(w, 1000).classes == ((0, 5, 17, 100),)
    assert w.interior(1000) == () and w.interior(12) == ()
    assert ck.components_at_scale(w, 3).classes == ((0, 5, 17), (100,))
    # a scale beyond int64
    assert ck.components_at_scale(w, 10**30).classes == ((0, 5, 17, 100),)
    assert w.interior(10**30) == () and ck.matching_certificate(w, 10**30).feasible
    cover = ck.witness_tree(T[3], 0, 10**30, ck.ball(T[3], 0, 2))
    assert cover.colors[1] == () and ck.verify_decomposition(cover).passed
    fw = ck.Window(F[2], ["", "ab", "BA", "abababab"])
    assert ck.components_at_scale(fw, 1000).classes == (fw.points,) and fw.interior(1000) == ()
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("space,points", [
    (_edge_tree(random.Random(0), 2000, True), range(2000)),
    (T[1], range(2000)),
    (F[1], ck.ball(F[1], "", 1000).points),
], ids=["edge_path", "ray", "F1"])
def test_deep_thin_tree_costs_the_pairs_it_returns(space, points):
    # on a path every pair at r = n shares up to n ancestors; the work and
    # memory must follow the n^2 / 2 pairs, not pairs x shared ancestors
    w = ck.Window(space, points)
    n = len(w)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        i, j = scale_pairs(w, n)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(i) == n * (n - 1) // 2 and len(np.unique(i * n + j)) == len(i)
    assert elapsed < 10 and peak < 8 * (i.nbytes + j.nbytes)
    i, j = scale_pairs(w, 300)
    assert len(i) == sum(n - d for d in range(1, 301))


def test_ray_window_far_from_the_root():
    # the 1-ary tree's vertex v lies v steps from the root: the layout holds
    # the window's points only, not the steps between them
    w = ck.Window(T[1], [0, 10**8])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert ck.components_at_scale(w, 1).classes == ((0,), (10**8,))
        assert ck.components_at_scale(w, 10**8).classes == ((0, 10**8),)
        assert w.interior(1) == () and ck.window_diameter(w) == 10**8
        assert ck.matching_certificate(w, 1).feasible
        assert T[1].dist(5, 10**8) == 10**8 - 5
        deep = ck.Window(T[1], [0, 2**62, 2**63 - 1])
        assert ck.components_at_scale(deep, 10**30).classes == (deep.points,)
        assert ck.window_diameter(deep) == 2**63 - 1
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1 and peak < 2**20
    # a ray window 2^63 wide has no int64 layout
    with pytest.raises(IntegerOverflow):
        ck.components_at_scale(ck.Window(T[1], [0, 2**63]), 1)


def _peak_bytes(radius, word) -> int:
    w = ck.Window(F[2], list(ck.ball(F[2], "", radius).points) + [word])
    tracemalloc.start()
    try:
        w.scale_graph(2)
        assert ck.window_diameter(w) == len(word) + radius
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_long_word_costs_memory_in_the_closure_only():
    # no array of (window points) x (longest word): the peak stays flat as the
    # ball around it grows 9-fold, and far below 162 x 10^5 int64
    long = "ab" * 50_000
    peaks = [_peak_bytes(radius, long) for radius in (4, 6)]
    assert peaks[0] < 48 * 2**20
    assert peaks[1] < 1.5 * peaks[0]
