from fractions import Fraction

import pytest

import coarsekit as ck
from coarsekit.amenability import FolnerBudget, PartialTranslation, paradox_from_pairs
from coarsekit.errors import ExpansionUnbounded, NotInjective, RankTooSmall


Z = ck.make_space({"kind": "grid", "dim": 1})
F2 = ck.make_space({"kind": "free_group", "rank": 2})


# -- Folner search ------------------------------------------------------------

def test_verify_folner_empty_set_fails_by_name():
    cert = ck.FolnerCertificate(Z, (), 1, Fraction(1, 10), 0)
    rep = ck.verify_folner(cert)
    assert not rep["ok"] and rep["reason"] == "empty_F"


def test_folner_on_line():
    cert = ck.folner_search(Z, 1, Fraction(1, 10))
    assert cert is not None
    assert len(cert.F) == 21
    assert cert.ratio == Fraction(23, 21)
    assert ck.verify_folner(cert)["ok"]


def test_folner_point_line():
    pl = ck.make_space({"kind": "point_line", "coords": [2**k for k in range(13)]})
    cert = ck.folner_search(pl, 1, Fraction(1, 100))
    assert cert is not None
    assert set(cert.F) == {1, 2}
    assert cert.ratio == 1


def test_folner_free_group_exhaustive_small():
    report = ck.folner_search_report(
        F2, 1, Fraction(1, 10), FolnerBudget(subsets_of_ball=1)
    )
    assert report.certificate is None
    assert report.candidates_tested == 2**5 - 1
    assert report.best_ratio == Fraction(17, 5)  # achieved by the full ball


def test_folner_certificate_survives_round_trip():
    from coarsekit.serialization import folner_from_payload, folner_to_payload

    cert = ck.folner_search(Z, 2, Fraction(1, 4))
    again = folner_from_payload(folner_to_payload(cert))
    assert ck.verify_folner(again)["ok"]
    assert again.F == cert.F


# -- isoperimetric profiles ----------------------------------------------------

def test_isoperimetric_line_intervals():
    w = ck.Window(Z, [(x,) for x in range(12)])
    profile = dict(ck.isoperimetric_profile(w, 1, mode="balls"))
    # intervals realize (k + 2) / k
    for k in (1, 3, 5, 7):
        assert profile[k] == Fraction(k + 2, k)


def test_isoperimetric_exhaustive_free_group():
    w = ck.ball(F2, "", 1)
    profile = dict(ck.isoperimetric_profile(w, 1, mode="exhaustive"))
    assert profile[5] == Fraction(17, 5)
    assert min(profile.values()) == Fraction(17, 5)
    assert profile[1] == 5  # singleton ratio = |B_1(x)|


def test_isoperimetric_exhaustive_cap():
    w = ck.Window(Z, [(x,) for x in range(25)])
    with pytest.raises(ck.errors.CapExceeded):
        ck.isoperimetric_profile(w, 1, mode="exhaustive")


def test_isoperimetric_greedy_runs():
    w = ck.Window(Z, [(x,) for x in range(30)])
    profile = dict(ck.isoperimetric_profile(w, 1, mode="greedy", size_cap=10))
    assert profile[10] <= Fraction(12, 10)


# -- the free group rule -------------------------------------------------------

def test_rule_values():
    p = ck.paradox_free_group(2)
    assert p.t_plus("") == ""
    assert p.t_plus("a") == "a"
    assert p.t_plus("b") == "ba"
    assert p.t_minus("B") == "B"
    assert p.t_minus("a") == "ab"
    assert p.in_plus("") and p.in_plus("a") and p.in_plus("bA")
    assert p.in_minus("b") and p.in_minus("aB")


def test_rule_rank_too_small():
    with pytest.raises(RankTooSmall):
        ck.paradox_free_group(1)


def test_rule_verifies_on_balls():
    p = ck.paradox_free_group(2)
    for n in (2, 4, 5):
        rep = ck.verify_paradox(p, ck.ball(F2, "", n))
        assert rep.passed, rep.to_json()
        assert rep.displacement == {"plus": 1, "minus": 1}


def test_rule_rank_three():
    p = ck.paradox_free_group(3)
    w = ck.ball(p.space, "", 3)
    rep = ck.verify_paradox(p, w)
    assert rep.passed, rep.to_json()
    # a word ending outside {a, b} is the origin of its coset: fixed by t_plus
    assert p.in_plus("c") and p.t_plus("c") == "c"
    assert p.t_plus("cb") == "cba" and p.in_minus("cb")


def test_materialize_calls_each_translation_once_per_point():
    w = ck.ball(Z, (0,), 4)
    calls = {"plus": [], "minus": []}

    def counted(name, t):
        def call(x):
            calls[name].append(x)
            return t(x)
        return call

    shift = lambda k: (lambda x: (x[0] + k,) if x[0] % 2 == 0 else None)
    rule = ck.ParadoxicalDecomposition(
        Z, 3, in_carrier=lambda x: True, in_plus=lambda x: x[0] >= 0,
        in_minus=lambda x: x[0] < 0, t_plus=counted("plus", shift(1)),
        t_minus=counted("minus", shift(3)))
    out = rule.materialize(w)
    assert calls["plus"] == calls["minus"] == list(w.points)
    # images outside the window or undefined are dropped
    assert out["t_plus"] == [[[x], [x + 1]] for x in (-4, -2, 0, 2)]
    assert out["t_minus"] == [[[x], [x + 3]] for x in (-4, -2, 0)]


def test_verify_flags_overlapping_parts():
    pts = ["", "a", "A", "b", "B"]
    broken = paradox_from_pairs(
        F2, 1,
        plus=["", "a", "A"],
        minus=["a", "b", "B"],  # "a" claimed twice
        t_plus_pairs=[(x, x) for x in pts],
        t_minus_pairs=[(x, x) for x in pts],
    )
    rep = ck.verify_paradox(broken, ck.ball(F2, "", 1))
    assert not rep.partition_ok


def test_verify_flags_wrong_displacement():
    decomposition = paradox_from_pairs(
        Z, 1,
        plus=[(0,), (3,)],
        minus=[(1,)],
        t_plus_pairs=[((0,), (3,))],  # moves by 3, declared 1
        t_minus_pairs=[((0,), (1,))],
    )
    rep = ck.verify_paradox(decomposition, ck.Window(Z, [(0,), (1,), (3,)]))
    assert not rep.displacement_ok["plus"]
    assert rep.displacement["plus"] == 3


# -- doubling matchings ---------------------------------------------------------

def test_matching_line_infeasible_by_counting():
    w = ck.ball(Z, (0,), 50)
    out = ck.matching_certificate(w, 1)
    assert not out.feasible
    assert out.cut is not None
    assert out.cut_neighborhood_size < 2 * len(out.cut)


def test_matching_free_group_ball():
    w = ck.ball(F2, "", 4)
    out = ck.matching_certificate(w, 1)
    assert out.feasible
    assert out.flow_value == 2 * len(w.interior(1))
    assert ck.verify_doubling(out.doubling)["ok"]


def test_matching_empty_interior_vacuous():
    w = ck.ball(Z, (0,), 2)
    out = ck.matching_certificate(w, 5)
    assert out.feasible
    assert out.doubling.interior == ()
    assert ck.verify_doubling(out.doubling)["ok"]


def test_matching_point_line_whole_space():
    # the window is the whole finite space, so every point is interior and
    # the interval cannot double
    pl = ck.make_space({"kind": "point_line", "coords": list(range(30))})
    w = ck.Window(pl, pl.all_points())
    out = ck.matching_certificate(w, 1)
    assert not out.feasible
    assert out.cut_neighborhood_size < 2 * len(out.cut)


def test_matching_branching_tree():
    t3 = ck.make_space({"kind": "tree", "branching": 3})
    out = ck.matching_certificate(ck.ball(t3, 0, 5), 1)
    assert out.feasible
    assert out.flow_value == 2 * len(ck.ball(t3, 0, 4).points)
    assert ck.verify_doubling(out.doubling)["ok"]


def test_folner_and_matching_exclude_each_other():
    # a Folner set with ratio < 2 inside the interior forces infeasibility
    cert = ck.folner_search(Z, 1, Fraction(1, 10))
    w = ck.ball(Z, (0,), 50)
    interior = set(w.interior(1))
    assert set(cert.F) <= interior and cert.ratio < 2
    out = ck.matching_certificate(w, 1)
    assert not out.feasible
    nbrs = Z.neighborhood(cert.F, 1) & set(w.points)
    assert len(nbrs) < 2 * len(cert.F)


# -- transport -------------------------------------------------------------------

def make_level_inclusion(radius):
    prod = ck.make_space(
        {"kind": "product_finite", "base": {"kind": "free_group", "rank": 2}, "n": 2}
    )
    src = ck.ball(F2, "", radius)
    return prod, src, ck.CoarseMap(src, prod, lambda x: (x, 1))


def test_transport_along_inclusion():
    p = ck.paradox_free_group(2)
    prod, src, f = make_level_inclusion(4)
    tp = ck.transport_paradox(p, f)
    assert tp.displacement == 1
    img = ck.Window(prod, [f(x) for x in src.points])
    assert ck.verify_paradox(tp, img).passed


def test_transport_identity_is_identity():
    p = ck.paradox_free_group(2)
    src = ck.ball(F2, "", 3)
    f = ck.CoarseMap(src, F2, lambda x: x)
    tp = ck.transport_paradox(p, f)
    for x in src.points:
        assert tp.in_plus(x) == p.in_plus(x)
        if p.t_plus(x) in src:
            assert tp.t_plus(x) == p.t_plus(x)


def test_transport_rejects_collapse():
    p = ck.paradox_free_group(2)
    src = ck.ball(F2, "", 2)
    collapsing = ck.CoarseMap(src, F2, lambda x: x[:-1] if x.endswith("b") else x)
    with pytest.raises(NotInjective) as exc:
        ck.transport_paradox(p, collapsing)
    assert exc.value.pair is not None


def test_transport_respects_declared_bound():
    p = ck.paradox_free_group(2)
    src = ck.ball(F2, "", 2)
    stretch = ck.CoarseMap(src, Z, lambda x: (3 * src.index(x),))
    # injective but expansive: pairs at distance 1 map 3 or more apart
    with pytest.raises(ExpansionUnbounded):
        ck.transport_paradox(p, stretch, declared_bound=1)


# -- growth ------------------------------------------------------------------------

def test_growth_grid2_polynomial():
    g2 = ck.make_space({"kind": "grid", "dim": 2})
    prof = ck.growth_profile(g2, (0, 0), 20)
    assert list(prof.sizes) == [2 * n * n + 2 * n + 1 for n in range(21)]
    assert prof.tag == "polynomial-like"


def test_growth_free_group_exponential():
    prof = ck.growth_profile(F2, "", 8)
    assert list(prof.sizes) == [2 * 3**n - 1 for n in range(9)]
    assert prof.tag == "exponential-like"


def test_growth_single_point():
    pl = ck.make_space({"kind": "point_line", "coords": [5]})
    prof = ck.growth_profile(pl, 5, 6)
    assert set(prof.sizes) == {1}
    assert prof.tag == "polynomial-like"


def test_growth_short_range_inconclusive():
    prof = ck.growth_profile(Z, (0,), 2)
    assert prof.tag == "inconclusive"


# -- partial translations ------------------------------------------------------------

def test_partial_translation_displacement():
    t = PartialTranslation(Z, [((0,), (2,)), ((5,), (4,))])
    assert t.displacement == 2
    assert t.domain == ((0,), (5,))
    assert t.codomain == ((2,), (4,))


def test_partial_translation_rejects_non_bijection():
    with pytest.raises(ck.errors.MalformedSpec):
        PartialTranslation(Z, [((0,), (1,)), ((2,), (1,))])


def test_verify_paradox_requires_carrier_over_interior():
    # an empty carrier covers nothing: it must not verify, on F_2 or on Z
    for space, center in ((F2, ""), (Z, (0,))):
        empty = paradox_from_pairs(space, 1, [], [], [], [])
        rep = ck.verify_paradox(empty, ck.ball(space, center, 3))
        assert not rep.passed and rep.witness == {"kind": "empty_carrier"}
    # a carrier that misses part of the interior is named by its first missed point
    p = ck.paradox_free_group(2)
    small = ck.ball(F2, "", 2)
    cut = ck.transport_paradox(p, ck.CoarseMap(small, F2, lambda x: x))
    rep = ck.verify_paradox(cut, ck.ball(F2, "", 4))
    assert not rep.partition_ok
    assert rep.witness["kind"] == "interior_outside_carrier"
