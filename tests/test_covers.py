import itertools

import pytest

import coarsekit as ck
from coarsekit.covers import ColoredCover
from coarsekit.errors import MalformedSpec, NotTreelike


def line_window(lo, hi):
    Z = ck.make_space({"kind": "grid", "dim": 1})
    return ck.Window(Z, [(x,) for x in range(lo, hi + 1)])


def test_verify_interval_cover():
    w = line_window(0, 39)
    u = tuple(tuple((8 * k + i,) for i in range(4)) for k in range(5))
    v = tuple(tuple((8 * k + 4 + i,) for i in range(4)) for k in range(5))
    cover = ColoredCover(w, 2, 3, (u, v))
    assert ck.verify_decomposition(cover).passed
    # the same cover fails separation at r = 5: same-color gap is exactly 5
    rep5 = ck.verify_decomposition(ColoredCover(w, 5, 3, (u, v)))
    assert not rep5.separation_ok
    assert rep5.witness["kind"] == "separation"


def test_verify_single_piece_bound():
    w = line_window(-50, 50)
    piece = (tuple(w.points),)
    assert ck.verify_decomposition(ColoredCover(w, 1, 100, (piece,))).passed
    rep = ck.verify_decomposition(ColoredCover(w, 1, 99, (piece,)))
    assert not rep.bound_ok and rep.partition_ok and rep.separation_ok


def test_verify_flags_overlap_and_gap():
    w = line_window(0, 3)
    overlapping = ((((0,), (1,)), ((1,), (2,), (3,))),)
    rep = ck.verify_decomposition(ColoredCover(w, 0, 3, overlapping))
    assert not rep.partition_ok and rep.witness["kind"] == "overlap"
    gappy = ((((0,), (1,)),),)
    rep2 = ck.verify_decomposition(ColoredCover(w, 0, 3, gappy))
    assert not rep2.partition_ok and rep2.witness["kind"] == "uncovered"


def test_witness_line_instances():
    w = line_window(0, 15)
    cover = ck.witness_line(1, w)
    c0 = [tuple(p[0] for p in piece) for piece in cover.colors[0]]
    c1 = [tuple(p[0] for p in piece) for piece in cover.colors[1]]
    assert c0 == [(0, 1), (4, 5), (8, 9), (12, 13)]
    assert c1 == [(2, 3), (6, 7), (10, 11), (14, 15)]
    assert cover.bound == 1
    for r in (1, 2, 8):
        big = line_window(-200, 200)
        assert ck.verify_decomposition(ck.witness_line(r, big)).passed


def test_witness_line_rejects_other_spaces():
    g2 = ck.make_space({"kind": "grid", "dim": 2})
    w = ck.ball(g2, (0, 0), 2)
    with pytest.raises(MalformedSpec):
        ck.witness_line(1, w)


def test_witness_grid2():
    g2 = ck.make_space({"kind": "grid", "dim": 2})
    for r in (1, 3):
        w = ck.Window(g2, itertools.product(range(-40 * r, 40 * r + 1), repeat=2))
        cover = ck.witness_grid2(r, w)
        assert cover.n_colors == 3
        assert cover.bound <= 20 * r
        assert ck.verify_decomposition(cover).passed


def test_witness_grid2_degenerate_window():
    g2 = ck.make_space({"kind": "grid", "dim": 2})
    # a window buried inside one interior region: a single piece suffices
    w = ck.Window(g2, [(x, y) for x in range(4, 6) for y in range(4, 6)])
    cover = ck.witness_grid2(1, w)
    assert ck.verify_decomposition(cover).passed
    assert sum(len(fam) for fam in cover.colors) == 1


def test_witness_tree_free_group():
    F2 = ck.make_space({"kind": "free_group", "rank": 2})
    w = ck.ball(F2, "", 9)
    cover = ck.witness_tree(F2, "", 2, w)
    assert cover.bound <= 10
    assert ck.verify_decomposition(cover).passed


def test_witness_tree_path_graph():
    # a path is a tree; the annulus pattern reproduces interval pieces
    path = ck.make_space(
        {"kind": "tree", "edges": [[i, i + 1] for i in range(29)]}
    )
    w = ck.Window(path, path.all_points())
    cover = ck.witness_tree(path, 0, 1, w)
    assert ck.verify_decomposition(cover).passed
    assert cover.bound <= 5


def test_witness_tree_huge_scale_single_annulus():
    F2 = ck.make_space({"kind": "free_group", "rank": 2})
    w = ck.ball(F2, "", 3)
    cover = ck.witness_tree(F2, "", 10, w)
    assert ck.verify_decomposition(cover).passed
    assert len(cover.colors[0]) == 1 and len(cover.colors[1]) == 0


def test_witness_tree_rejects_grid():
    g2 = ck.make_space({"kind": "grid", "dim": 2})
    w = ck.ball(g2, (0, 0), 2)
    with pytest.raises(NotTreelike):
        ck.witness_tree(g2, (0, 0), 1, w)


def test_witness_tree_branching_tree():
    t3 = ck.make_space({"kind": "tree", "branching": 3})
    w = ck.ball(t3, 0, 6)
    for r in (1, 2):
        cover = ck.witness_tree(t3, 0, r, w)
        assert cover.bound <= 5 * r
        assert ck.verify_decomposition(cover).passed


def test_cover_valid_at_smaller_scales():
    # refinement stability: separation at r implies separation at r' <= r
    w = line_window(-60, 60)
    cover = ck.witness_line(4, w)
    for r_smaller in (1, 2, 3):
        weaker = ColoredCover(w, r_smaller, cover.bound, cover.colors)
        assert ck.verify_decomposition(weaker).passed


def test_greedy_cover_dimension_zero():
    pl = ck.make_space({"kind": "point_line", "coords": [2**k for k in range(9)]})
    w = ck.Window(pl, pl.all_points())
    cover = ck.greedy_cover(w, 3, 0, 3)
    assert cover is not None
    assert {frozenset(c) for c in cover.colors[0]} >= {frozenset({1, 2, 4})}
    assert ck.verify_decomposition(cover).passed


def test_greedy_cover_line_two_colors():
    w = line_window(-30, 30)
    cover = ck.greedy_cover(w, 2, 1, 10)
    assert cover is not None
    assert ck.verify_decomposition(cover).passed


def test_greedy_cover_exhausted():
    w = line_window(-30, 30)
    assert ck.greedy_cover(w, 2, 0, 10) is None


def test_one_color_cover_iff_classes_bounded():
    # consistency with scale components, both directions
    pl = ck.make_space({"kind": "point_line", "coords": [0, 1, 2, 10, 11, 30]})
    w = ck.Window(pl, pl.all_points())
    for r in (1, 2, 9, 19, 30):
        part = ck.components_at_scale(w, r)
        diams = [max(c) - min(c) for c in part.classes]
        for B in (0, 2, 10, 29, 30):
            cover = ck.greedy_cover(w, r, 0, B)
            assert (cover is not None) == (max(diams) <= B)


def test_separation_witness_is_first_pair_in_row_major_order():
    # the first same-color pair of distinct pieces within r, scanning the
    # window's points in canonical order and each point's partners after it
    Z2 = ck.make_space({"kind": "grid", "dim": 2})
    w = ck.ball(Z2, (0, 0), 6)
    cover = ck.witness_grid2(1, w)
    rep = ck.verify_decomposition(ColoredCover(w, 4, cover.bound, cover.colors))
    assert not rep.separation_ok
    assert rep.witness == {"kind": "separation", "pair": [[-5, 1], [-4, -2]], "distance": 4}
