"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here, not configurable.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import shortest_path

import coarsekit as ck
from coarsekit import serialization
from coarsekit.amenability import FolnerBudget, PartialTranslation
from coarsekit.cli import run
from coarsekit.components import SegmentFamily
from coarsekit.errors import NoSegments
from coarsekit.operators import (
    BandedOperator,
    OmegaDecomposition,
    identity_operator,
    make_operator,
)

Z = ck.make_space({"kind": "grid", "dim": 1})
F2 = ck.make_space({"kind": "free_group", "rank": 2})


def report(num, text):
    print(f"[criterion {num:2d}] PASS: {text}")


def line_window(lo, hi):
    return ck.Window(Z, [(x,) for x in range(lo, hi + 1)])


def random_banded(w, rng, prop, density=0.5):
    ii, jj = ck.scale_pairs(w, prop)
    entries = {}
    for i, j in zip(ii, jj):
        if rng.rand() < density:
            entries[(int(i), int(j))] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2
        if rng.rand() < density:
            entries[(int(j), int(i))] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2
    for i in range(len(w.points)):
        if rng.rand() < density:
            entries[(i, i)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2
    return BandedOperator(w, entries)


# -- 1: components against brute-force transitive closure ------------------------

def _random_custom(rng):
    n = int(rng.randint(30, 201))
    rows, cols, vals = [], [], []
    for v in range(1, n):
        rows.append(int(rng.randint(0, v)))
        cols.append(v)
        vals.append(int(rng.randint(1, 5)))
    for _ in range(2 * n):
        u, v = int(rng.randint(0, n)), int(rng.randint(0, n))
        if u != v:
            rows.append(min(u, v))
            cols.append(max(u, v))
            vals.append(int(rng.randint(1, 5)))
    g = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    D = shortest_path(g, directed=False).astype(np.int64)
    space = ck.make_space(
        {"kind": "custom", "points": list(range(n)), "dist": D.tolist()}
    )
    return space, D


def _closure(D, r):
    A = D <= r
    while True:
        A2 = A | ((A.astype(np.float32) @ A.astype(np.float32)) > 0)
        if (A2 == A).all():
            return A2
        A = A2


def test_criterion_1_components_oracle():
    rng = np.random.RandomState(0)
    mismatches = 0
    pairs_checked = 0
    for _ in range(100):
        space, D = _random_custom(rng)
        w = ck.Window(space, space.all_points())
        for r in range(int(D.max()) + 1):
            labels = ck.components_at_scale(w, r).labels()
            same = labels[:, None] == labels[None, :]
            pairs_checked += 1
            if not (same == _closure(D, r)).all():
                mismatches += 1
    assert mismatches == 0
    report(1, f"100 random custom spaces, {pairs_checked} (space, r) checks, 0 mismatches")


# -- 2: witness suite --------------------------------------------------------------

def test_criterion_2_witness_suite():
    w_line = line_window(-200, 200)
    for r in range(1, 9):
        assert ck.verify_decomposition(ck.witness_line(r, w_line)).passed, r

    g2 = ck.make_space({"kind": "grid", "dim": 2})
    for r in range(1, 5):
        pts = [(x, y) for x in range(-40 * r, 40 * r + 1) for y in range(-40 * r, 40 * r + 1)]
        cover = ck.witness_grid2(r, ck.Window(g2, pts))
        assert ck.verify_decomposition(cover).passed, r

    w_tree = ck.ball(F2, "", 9)
    for r in range(1, 5):
        cover = ck.witness_tree(F2, "", r, w_tree)
        assert cover.bound <= 5 * r, (r, cover.bound)
        assert ck.verify_decomposition(cover).passed, r
    report(2, "line r=1..8, grid2 r=1..4, tree r=1..4 (piece bound <= 5r) all verify")


# -- 3: segment suite ---------------------------------------------------------------

def test_criterion_3_segments():
    fam = ck.extract_segments(Z, 1, 10, ck.ball(Z, (0,), 2500))
    rep = ck.verify_segments(fam)
    assert all(rep.steps_ok) and all(rep.anchored_ok)
    assert rep.lengths_ok and rep.separation_positive and rep.separation_monotone
    pl = ck.make_space({"kind": "point_line", "coords": [2**k for k in range(13)]})
    with pytest.raises(NoSegments):
        ck.extract_segments(pl, 1, 2, ck.Window(pl, pl.all_points()))
    report(3, f"Z family of 10 segments (lengths {list(fam.lengths)}) verifies; "
              "doubling point line yields NoSegments")


# -- 4: block-diagonal approximation --------------------------------------------------

def test_criterion_4_af_approximation():
    blocks = [{"kind": "point_line", "coords": list(range((k % 4) + 1))} for k in range(50)]
    du = ck.make_space({"kind": "disjoint_union", "blocks": blocks, "gaps": [10] * 49})
    w = ck.Window(du, du.all_points())
    rng = np.random.RandomState(0)
    cases = 0
    for _ in range(100):
        a = random_banded(w, rng, 2)
        assert a.propagation <= 2
        for eps in (0.3, 0.1, 0.03):
            approx = ck.af_approximate(a, 2, eps)
            assert approx.error < eps, (eps, approx.error)
            # block-constant per color: the rebuild from the coloring is b
            assert ck.rebuild_from_coloring(w, approx.coloring).equals(approx.b, tol=0)
            cases += 1
    assert cases == 300
    report(4, "300/300 approximations with exact max-block-norm error < eps, "
              "block-constant per color")


# -- 5: paradox closed form ------------------------------------------------------------

def test_criterion_5_paradox_on_ball():
    p = ck.paradox_free_group(2)
    t0 = time.time()
    w7 = ck.ball(F2, "", 7)
    assert len(w7.points) == 2 * 3**7 - 1 == 4373
    rep = ck.verify_paradox(p, w7)
    assert rep.passed
    assert rep.displacement == {"plus": 1, "minus": 1}
    # the ball with 13121 points is B_8; the rule verifies there as well
    w8 = ck.ball(F2, "", 8)
    assert len(w8.points) == 13121
    rep8 = ck.verify_paradox(p, w8)
    assert rep8.passed and rep8.displacement == {"plus": 1, "minus": 1}
    elapsed = time.time() - t0
    assert elapsed < 60
    report(5, f"rule verifies on B_7 (4373 pts) and B_8 (13121 pts) in {elapsed:.1f}s, "
              "displacement 1")


# -- 6: proper-infiniteness relations ----------------------------------------------------

def test_criterion_6_properly_infinite():
    p = ck.paradox_free_group(2)
    w = ck.ball(F2, "", 6)
    x = ck.from_partial_translation(
        PartialTranslation(F2, [(q, p.t_plus(q)) for q in w.points]), w
    )
    y = ck.from_partial_translation(
        PartialTranslation(F2, [(q, p.t_minus(q)) for q in w.points]), w
    )
    assert x.exact and y.exact
    rep = ck.verify_properly_infinite(identity_operator(w), x, y, 1)
    assert rep.passed and rep.psd_method == "diagonal-exact"
    report(6, "x*x = y*y = 1, 1 - (xx* + yy*) >= 0, xx* yy* = 0 exact on Interior_1 of B_6")


# -- 7: matching dichotomy ----------------------------------------------------------------

def test_criterion_7_matching_dichotomy():
    out = ck.matching_certificate(ck.ball(F2, "", 6), 1)
    assert out.feasible and out.flow_value == 970
    assert ck.verify_doubling(out.doubling)["ok"]
    wz = line_window(-50, 50)
    for r in (1, 2, 3):
        o = ck.matching_certificate(wz, r)
        assert not o.feasible
        assert o.cut_neighborhood_size < 2 * len(o.cut), r
    report(7, "B_6 doubling with flow 970 verifies; Z[-50,50] infeasible with "
              "counting cuts at r = 1, 2, 3")


# -- 8: Folner dichotomy -------------------------------------------------------------------

def test_criterion_8_folner_dichotomy():
    cert = ck.folner_search(Z, 1, Fraction(1, 10))
    assert cert is not None and len(cert.F) <= 25
    assert ck.verify_folner(cert)["ok"]
    t0 = time.time()
    rep = ck.folner_search_report(
        F2, 1, Fraction(1, 10), FolnerBudget(subsets_of_ball=2)
    )
    elapsed = time.time() - t0
    assert rep.candidates_tested == 2**17 - 1
    assert rep.certificate is None
    assert rep.best_ratio >= 3
    assert elapsed < 120
    report(8, f"Z certificate |F| = {len(cert.F)}; exhaustive 2^17 - 1 subsets of "
              f"B_2(e): min ratio {rep.best_ratio} >= 3, no certificate ({elapsed:.1f}s)")


# -- 9: transport ----------------------------------------------------------------------------

def test_criterion_9_transport():
    p = ck.paradox_free_group(2)
    prod = ck.make_space(
        {"kind": "product_finite", "base": {"kind": "free_group", "rank": 2}, "n": 2}
    )
    src = ck.ball(F2, "", 5)
    f = ck.CoarseMap(src, prod, lambda x: (x, 1))
    tp = ck.transport_paradox(p, f)
    assert tp.displacement == 1
    img = ck.Window(prod, [f(x) for x in src.points])
    assert ck.verify_paradox(tp, img).passed
    report(9, "transport along the level-1 inclusion into F_2 x {1, 2} verifies, "
              "displacement 1")


# -- 10: operator identities -------------------------------------------------------------------

def test_criterion_10_operator_identities():
    fam5 = SegmentFamily(
        Z, 1, tuple(tuple((100 * n * n + i,) for i in range(n + 1)) for n in range(1, 6))
    )
    w = line_window(0, 2600)
    v = ck.segment_shift(fam5, w)
    one = identity_operator(w)
    assert v.adjoint().mul(v).equals(
        one.sub(ck.char_projection(fam5.endpoints(), w)), tol=0
    )
    assert v.mul(v.adjoint()).equals(
        one.sub(ck.char_projection(fam5.basepoints(), w)), tol=0
    )

    # the probe condition at s = 5 needs the next segment in the family
    fam6 = SegmentFamily(
        Z, 1, tuple(tuple((100 * n * n + i,) for i in range(n + 1)) for n in range(1, 7))
    )
    w6 = line_window(0, 3700)
    cw = ck.cancellation_witness(fam6, w6, 5)
    assert cw.v.adjoint().mul(cw.v).equals(cw.p, tol=0)
    assert cw.v.mul(cw.v.adjoint()).equals(cw.q, tol=0)
    one6 = identity_operator(w6)
    e_probe = ck.char_projection([cw.probe], w6)
    rng = np.random.RandomState(0)
    for _ in range(20):
        a = random_banded(w6, rng, 5, density=0.2)
        assert a.propagation <= 5
        prod = one6.sub(cw.p).mul(a).mul(e_probe)
        assert not prod.entries
    report(10, "segment shift identities exact; cancellation witness v*v = p, "
               "vv* = q exact and (1 - p) a e_probe = 0 for 20 random prop<=5 operators")


# -- 11: Mayer-Vietoris split ---------------------------------------------------------------------

def test_criterion_11_mv_split():
    w = line_window(-100, 100)
    omega = OmegaDecomposition(ck.witness_line(5, w))
    rng = np.random.RandomState(0)
    for _ in range(100):
        a = random_banded(w, rng, 3)
        b, c = ck.mv_split(a, omega)
        assert b.add(c).equals(a, tol=0)
        assert ck.omega_membership(b, omega, 3, "I").passed
        assert ck.omega_membership(c, omega, 3, "J").passed
    report(11, "100/100 splits entrywise exact with both memberships passing at r = 3")


# -- 12: the shift tower ----------------------------------------------------------------------------

def test_criterion_12_shift_tower():
    g2 = ck.make_space({"kind": "grid", "dim": 2})
    wZ2 = ck.Window(g2, [(x, y) for x in range(-6, 7) for y in range(-6, 7)])
    for f, levels in ((lambda x: 1, 2), (lambda x: (-1) ** x, 1)):
        u = ck.build_uf(wZ2, levels, f)
        rep = ck.interior_unitarity(u, 1)
        assert rep["interior_size"] > 0
        assert rep["isometry_exact"] and rep["coisometry_exact"]

    wq = line_window(0, 1)
    d9 = make_operator(wq, {((0,), (0,)): 0.9, ((1,), (1,)): 0.9})
    d5 = make_operator(wq, {((0,), (0,)): 0.5, ((1,), (1,)): 0.5})
    r9 = ck.quasi_check(d9, "projection", 0, eps=0.125)
    r5 = ck.quasi_check(d5, "projection", 0, eps=0.125)
    assert r9.passed and r9.deviations["idempotent"] == pytest.approx(0.09)
    assert not r5.passed and r5.deviations["idempotent"] == pytest.approx(0.25)
    report(12, "f = 1 and f = (-1)^x towers exactly unitary on the interior; "
               "quasi thresholds behave at diag(0.9) / diag(0.5)")


# -- 13: filtration law and norms --------------------------------------------------------------------

def test_criterion_13_filtration_and_norms():
    rng = np.random.RandomState(0)
    w = line_window(-40, 40)
    for _ in range(500):
        pa, pb = int(rng.randint(0, 4)), int(rng.randint(0, 4))
        a = random_banded(w, rng, pa, density=0.3) if pa else random_banded(w, rng, 1, 0.0)
        b = random_banded(w, rng, pb, density=0.3) if pb else random_banded(w, rng, 1, 0.0)
        assert a.mul(b).propagation <= a.propagation + b.propagation

    for _ in range(50):
        n = int(rng.randint(2, 101))
        wn = line_window(0, n - 1)
        a = random_banded(wn, rng, 3)
        dense = float(np.linalg.norm(a.to_dense(), 2))
        assert abs(ck.op_norm(a) - dense) <= 1e-7
    report(13, "prop(ab) <= prop(a) + prop(b) on 500 pairs; op_norm within 1e-7 "
               "of dense on 50 windows up to 100 points")


# -- 14: CLI contract ----------------------------------------------------------------------------------

def test_criterion_14_cli(tmp_path):
    def spec_file(name, spec):
        f = tmp_path / name
        f.write_text(json.dumps(spec))
        return str(f)

    z = spec_file("z.json", {"kind": "grid", "dim": 1})
    fg = spec_file("fg2.json", {"kind": "free_group", "rank": 2})
    pl = spec_file("pl.json", {"kind": "point_line", "coords": [2**k for k in range(13)]})
    zz = spec_file("z2.json", {"kind": "grid", "dim": 2})
    op = spec_file("op.json", {"entries": [[[x], [x], 0.9, 0] for x in range(-3, 4)]})
    shift = spec_file(
        "shift.json", {"entries": [[[x + 1], [x], 1, 0] for x in range(-50, 50)]}
    )
    mp = spec_file("map.json", {"pairs": [[[x], [2 * x]] for x in range(-10, 11)]})

    cover = str(tmp_path / "cover.json")
    invocations = {
        "space": ["space", "--space", z, "--window-radius", "10", "--r", "1"],
        "components": ["components", "--space", pl, "--r", "3"],
        "segments": ["segments", "--space", z, "--r", "1", "--count", "3",
                     "--budget-radius", "200"],
        "asdim": ["asdim", "witness", "--construction", "line", "--space", z,
                  "--window-radius", "50", "--r", "5", "--out", cover],
        "folner": ["folner", "--space", z, "--r", "1", "--eps", "1/10"],
        "paradox": ["paradox", "--space", fg, "--window-radius", "4"],
        "matching": ["matching", "--space", fg, "--window-radius", "4", "--r", "1"],
        "op": ["op", "--space", z, "--window-radius", "3", "--a", op,
               "--action", "quasi-projection", "--r", "0"],
        "af-approx": ["af-approx", "--space", z, "--window-radius", "3", "--a", op,
                      "--r", "1", "--eps", "0.5"],
        "classify": ["classify", "--space", z, "--window-radius", "10", "--map", mp,
                     "--target-space", z, "--target-window-radius", "20", "--c", "1"],
    }
    for name, argv in invocations.items():
        first = run(argv)
        assert first.exit_code == 0, (name, first.summary)
        second = run(argv)
        assert serialization.canonical_dumps(first.payload) == serialization.canonical_dumps(
            second.payload
        ), name

    # mv-split consumes the cover written by the asdim invocation
    argv = ["mv-split", "--space", z, "--window-radius", "50", "--a", shift,
            "--cover", cover]
    assert run(argv).exit_code == 0
    assert serialization.canonical_dumps(run(argv).payload) == serialization.canonical_dumps(
        run(argv).payload
    )

    # round-trip: serialized certificates re-verify through the verify command
    for argv in (invocations["folner"], invocations["matching"], invocations["paradox"],
                 invocations["components"]):
        payload = run(argv).payload
        f = tmp_path / "roundtrip.json"
        f.write_text(serialization.canonical_dumps(payload))
        assert run(["verify", "--file", str(f)]).exit_code == 0
    assert run(["verify", "--file", cover]).exit_code == 0

    # exit-code contract: 1 = verification failure, 2 = infeasible, 3 = malformed
    broken = json.loads((tmp_path / "cover.json").read_text())
    broken["colors"][0] = broken["colors"][0][1:]
    bad = tmp_path / "bad_cover.json"
    bad.write_text(json.dumps(broken))
    assert run(["verify", "--file", str(bad)]).exit_code == 1
    assert run(["matching", "--space", z, "--window-radius", "20", "--r", "1"]).exit_code == 2
    assert run(["folner", "--space", fg, "--r", "1", "--eps", "1/10",
                "--budget", "subsets-of-ball:1"]).exit_code == 2
    assert run(["space", "--space", spec_file("bad.json", {"kind": "grid", "dim": 0}),
                "--window-radius", "1"]).exit_code == 3
    report(14, "per-subcommand smoke, byte-identical reruns, round-trip verify, "
               "exit codes 0/1/2/3")
