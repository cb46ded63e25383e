"""Verifier branches that no other test reaches: a part of a paradoxical
decomposition left uncovered, two images that meet outside the window, the
exhaustive Følner search finding a certificate, power iteration that stops
before it converges, and a proper-infiniteness check whose first failure is
the orthogonality of the ranges."""

from fractions import Fraction

import numpy as np

import coarsekit as ck
from coarsekit import operators
from coarsekit.amenability import FolnerBudget, paradox_from_sets

Z = ck.make_space({"kind": "grid", "dim": 1})
F2 = ck.make_space({"kind": "free_group", "rank": 2})


def _free_group_parts(w):
    """The displacement-1 free-group rule on w, as sets and maps of its points."""
    m = ck.paradox_free_group(2).materialize(w)
    return frozenset(m["plus"]), frozenset(m["minus"]), dict(m["t_plus"]), dict(m["t_minus"])


def test_a_plus_point_that_no_plus_image_reaches_is_not_covered():
    # "b" moves from minus into plus: t_+ still maps each point into plus, but
    # nothing maps onto "b", an interior point of B_2
    w = ck.ball(F2, "", 2)
    plus, minus, t_plus, t_minus = _free_group_parts(w)
    rep = ck.verify_paradox(paradox_from_sets(F2, 1, plus | {"b"}, minus - {"b"}, t_plus, t_minus), w)
    assert not rep.passed and rep.interior_surjective_ok == {"plus": False, "minus": True}
    assert rep.witness == {"kind": "not_covered_plus", "point": "b"}


def test_images_that_meet_outside_the_window_overlap():
    # "ab" on the sphere of B_2 sends both of its images to "aba", outside the
    # window, where "aba" is in both parts; every other check passes
    w = ck.ball(F2, "", 2)
    plus, minus, t_plus, t_minus = _free_group_parts(w)
    rule = paradox_from_sets(F2, 1, plus | {"aba"}, minus | {"aba"}, dict(t_plus, ab="aba"), dict(t_minus, ab="aba"))
    rep = ck.verify_paradox(rule, w)
    assert not rep.passed and not rep.disjoint_images_ok
    assert rep.partition_ok and all(rep.image_ok.values()) and all(rep.interior_surjective_ok.values())
    assert rep.witness == {"kind": "images_overlap", "point": "aba"}


def test_exhaustive_folner_search_returns_the_first_certificate():
    # over the subsets of B_1(0) in Z, {-1} is the first with |N_1(F)| / |F| <= 1 + 2
    rep = ck.folner_search_report(Z, 1, 2, FolnerBudget(subsets_of_ball=1))
    cert = rep.certificate
    assert (cert.F, cert.neighborhood_size, cert.eps) == (((-1,),), 3, Fraction(2))
    assert ck.verify_folner(cert)["ok"]
    assert (rep.best_ratio, rep.best_set, rep.candidates_tested) == (Fraction(5, 3), ((-1,), (0,), (1,)), 7)
    assert ck.folner_search_report(Z, 1, "1/2", FolnerBudget(subsets_of_ball=1)).certificate is None


def test_power_iteration_reports_that_it_did_not_converge(monkeypatch):
    # one component of 600 points, past the dense limit: two iterations cannot converge
    monkeypatch.setattr(operators, "POWER_MAX_ITER", 2)
    rng = np.random.RandomState(0)
    w = ck.Window(Z, [(x,) for x in range(600)])
    a = operators.BandedOperator(w, {(i, i + 1): float(rng.uniform(0.5, 1)) for i in range(599)})
    est = ck.op_norm_detailed(a)
    assert (est.converged, est.iterations, est.method) == (False, 2, "power")
    # the estimate from below that the second iteration reached
    assert 0 < est.value <= np.linalg.norm(a.to_dense(), 2)


def test_ranges_that_are_not_orthogonal_fail_first():
    # on the interior {0} of Z ∩ [-1, 1]: x and y spread delta_0 over 0 and one
    # neighbour, so x*x = y*y = 2 = p, xx* = yy* = 1 and p - xx* - yy* = 0 >= 0,
    # but (xx*)(yy*) = 1.  Over the whole window tr(xx*) = tr(x*x) would force
    # p = 0; the compression to the interior is what lets the first three pass
    w = ck.ball(Z, (0,), 1)
    p = ck.make_operator(w, {((0,), (0,)): 2})
    x = ck.make_operator(w, {((0,), (0,)): 1, ((1,), (0,)): 1})
    y = ck.make_operator(w, {((0,), (0,)): 1, ((-1,), (0,)): 1})
    rep = ck.verify_properly_infinite(p, x, y, 1)
    assert (rep.xx_eq_p, rep.yy_eq_p, rep.psd_ok, rep.orthogonal_ranges) == (True, True, True, False)
    assert rep.psd_method == "diagonal-exact"
    assert rep.witness == {"kind": "ranges_not_orthogonal"}
