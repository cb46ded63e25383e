import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coarsekit as ck
from coarsekit.amenability import PartialTranslation
from coarsekit.components import SegmentFamily
from coarsekit.errors import (
    ClassTooLarge,
    IntegerOverflow,
    LevelsTooSmall,
    MalformedSpec,
    NoProbe,
    PropagationTooLarge,
    SegmentOutsideWindow,
    WindowMismatch,
)
from coarsekit.operators import (
    BandedOperator,
    OmegaDecomposition,
    identity_operator,
    make_operator,
    zero_operator,
)

Z = ck.make_space({"kind": "grid", "dim": 1})
F2 = ck.make_space({"kind": "free_group", "rank": 2})
G2 = ck.make_space({"kind": "grid", "dim": 2})


def line_window(lo, hi):
    return ck.Window(Z, [(x,) for x in range(lo, hi + 1)])


def shift_operator(w, step=1):
    lo = min(p[0] for p in w.points)
    hi = max(p[0] for p in w.points)
    return make_operator(
        w, {((x + step,), (x,)): 1 for x in range(lo, hi + 1 - step)}
    )


def random_banded(w, rng, prop, bound=1.0):
    ii, jj = ck.scale_pairs(w, prop)
    entries = {}
    for i, j in zip(ii, jj):
        if rng.rand() < 0.5:
            entries[(int(i), int(j))] = complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound)) / 2
        if rng.rand() < 0.5:
            entries[(int(j), int(i))] = complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound)) / 2
    for i in range(len(w.points)):
        if rng.rand() < 0.5:
            entries[(i, i)] = complex(rng.uniform(-bound, bound), 0)
    from coarsekit.operators import BandedOperator

    return BandedOperator(w, entries)


# -- arithmetic and propagation ------------------------------------------------

def test_identity_propagation_zero():
    w = line_window(0, 9)
    assert identity_operator(w).propagation == 0


def test_shift_propagation_and_square():
    w = line_window(-10, 10)
    v = shift_operator(w)
    assert v.propagation == 1
    assert v.mul(v).propagation <= 2


def test_window_mismatch():
    a = identity_operator(line_window(0, 3))
    b = identity_operator(line_window(0, 4))
    with pytest.raises(WindowMismatch):
        a.add(b)


def test_filtration_laws_random():
    rng = np.random.RandomState(3)
    w = line_window(-30, 30)
    for _ in range(40):
        a = random_banded(w, rng, 2)
        b = random_banded(w, rng, 3)
        assert a.mul(b).propagation <= a.propagation + b.propagation
        assert a.add(b).propagation <= max(a.propagation, b.propagation)
        assert a.adjoint().propagation == a.propagation


_PROPAGATION_SPACES = {
    "Z": ({"kind": "grid", "dim": 1}, (0,), 12),
    "Z2": ({"kind": "grid", "dim": 2}, (3, -1), 5),
    "point_line": ({"kind": "point_line", "coords": [0, 1, 4, 9, 16, 25, 36]}, 9, 40),
    "disjoint_union": ({"kind": "disjoint_union", "gaps": [2, 5],
                        "blocks": [{"kind": "point_line", "coords": [0, 3]},
                                   {"kind": "custom", "points": ["p", "q"], "dist": [[0, 2], [2, 0]]},
                                   {"kind": "point_line", "coords": [1, 2, 7]}]}, (0, 0), 30),
    "product": ({"kind": "product_finite", "base": {"kind": "grid", "dim": 2}, "n": 3}, ((0, 0), 2), 3),
    "F2": ({"kind": "free_group", "rank": 2}, "aB", 3),
    "T3": ({"kind": "tree", "branching": 3}, 7, 3),
}


@pytest.mark.parametrize("name", sorted(_PROPAGATION_SPACES))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_propagation_is_the_largest_entry_distance(name, seed):
    spec, center, radius = _PROPAGATION_SPACES[name]
    space = ck.make_space(spec)
    w = ck.ball(space, center, radius)
    rng = np.random.RandomState(seed % 2**32)
    n = len(w.points)
    entries = {(int(i), int(j)): 1 for i, j in rng.randint(0, n, size=(int(rng.randint(0, 3 * n)), 2))}
    a = BandedOperator(w, entries)
    pts = w.points
    assert a.propagation == max((space.dist(pts[i], pts[j]) for i, j in entries if i != j), default=0)


def test_propagation_outside_int64_raises_integer_overflow():
    # before, the per-entry Python distance 2^63 came back as the propagation
    w = ck.Window(Z, [(-2**62,), (2**62,)])
    with pytest.raises(IntegerOverflow):
        BandedOperator(w, {(0, 1): 1}).propagation
    w = ck.Window(Z, [(2**62,), (2**62 + 3,)])  # beyond the int64 guard, but 3 apart
    assert BandedOperator(w, {(1, 0): 1}).propagation == 3


def test_adjoint_conjugates():
    w = line_window(0, 1)
    a = make_operator(w, {((0,), (1,)): 1 + 2j})
    assert a.adjoint().entry((1,), (0,)) == 1 - 2j


# -- norms -----------------------------------------------------------------------

def test_norm_simple_cases():
    w = line_window(0, 1)
    assert ck.op_norm(identity_operator(w)) == pytest.approx(1.0)
    d = make_operator(w, {((0,), (0,)): 0.9, ((1,), (1,)): 0.9})
    assert ck.op_norm(d) == pytest.approx(0.9)
    flip = make_operator(w, {((0,), (1,)): 1, ((1,), (0,)): 1})
    assert ck.op_norm(flip) == pytest.approx(1.0)
    assert ck.op_norm(zero_operator(w)) == 0.0


def test_norm_power_iteration_matches_dense():
    # force the sparse path with a connected support above the dense cutoff:
    # the unit shift joins the 601 points into one component
    rng = np.random.RandomState(5)
    w = line_window(0, 600)
    a = random_banded(w, rng, 2).add(shift_operator(w))
    est = ck.op_norm_detailed(a)
    assert est.method == "power" and est.converged
    dense = np.linalg.norm(a.to_dense(), 2)
    assert est.value == pytest.approx(dense, rel=1e-6)


def _block_diagonal(rng, n):
    """A random operator on n points of Z made of blocks of 1 to 8 points."""
    w = line_window(0, n - 1)
    entries, lo = {}, 0
    while lo < n:
        m = min(n - lo, int(rng.randint(1, 9)))
        for i in range(lo, lo + m):
            for j in range(lo, lo + m):
                if rng.rand() < 0.7:
                    entries[(i, j)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lo += m
    return BandedOperator(w, entries)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 600), banded=st.booleans())
def test_norm_by_components_matches_dense(seed, n, banded):
    rng = np.random.RandomState(seed)
    a = random_banded(line_window(0, n - 1), rng, 2) if banded else _block_diagonal(rng, n)
    est = ck.op_norm_detailed(a)
    dense = np.linalg.norm(a.to_dense(), 2)
    # exact on components up to the dense limit; larger ones run power iteration
    assert est.value == pytest.approx(dense, rel=1e-12 if est.method != "power" else 1e-6, abs=1e-300)


def test_norm_batches_of_mid_size_blocks_stay_bounded(monkeypatch):
    # 24 tridiagonal blocks of 300 points: one batch of all of them would hold
    # 24 * 300^2 cells; each SVD batch must stay within 2^20
    rng = np.random.RandomState(3)
    s, k = 300, 24
    blocks = [np.diag(rng.uniform(-1, 1, s)) + np.diag(rng.uniform(-1, 1, s - 1), 1)
              + np.diag(rng.uniform(-1, 1, s - 1), -1) for _ in range(k)]
    entries = {(b * s + i, b * s + j): B[i, j] for b, B in enumerate(blocks)
               for i, j in zip(*np.nonzero(B))}
    a = BandedOperator(line_window(0, s * k - 1), entries)
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda M, **kw: shapes.append(M.shape) or svd(M, **kw))
    est = ck.op_norm_detailed(a)
    assert est.method == "dense"
    assert est.value == pytest.approx(max(np.linalg.norm(B, 2) for B in blocks), rel=1e-12)
    assert sum(n for n, _, _ in shapes) == k and len(shapes) > 1
    assert all(np.prod(shape) <= 1 << 20 for shape in shapes)


def test_quasi_check_sees_one_large_deviation_among_many():
    # diagonal a on ball(Z, 0, 400): |a^2 - a| is 0.12500125 at the centre and
    # 0.1249875 at the other 800 points; power iteration over the whole window
    # stopped at 0.1249875 and passed it
    w = ck.ball(Z, (0,), 400)
    root = lambda v: (1 - np.sqrt(1 - 4 * v)) / 2  # a - a^2 = v
    a = make_operator(w, {(p, p): root(0.12500125 if p == (0,) else 0.1249875) for p in w.points})
    q = ck.quasi_check(a, "projection", 0)
    assert q.deviations["idempotent"] == pytest.approx(0.12500125, rel=1e-12)
    assert not q.passed


# -- characteristic projections and partial translations ---------------------------

def test_char_projection_idempotent():
    w = line_window(0, 20)
    rng = np.random.RandomState(0)
    pts = [p for p in w.points if rng.rand() < 0.4]
    e = ck.char_projection(pts, w)
    assert e.propagation == 0 and e.exact
    assert e.mul(e).equals(e, tol=0)
    assert e.adjoint().equals(e, tol=0)
    assert ck.char_projection([], w).equals(zero_operator(w), tol=0)
    assert ck.char_projection(w.points, w).equals(identity_operator(w), tol=0)


def test_translation_operator_identity_case():
    w = line_window(0, 9)
    pts = [(2,), (5,)]
    t = PartialTranslation(Z, [(p, p) for p in pts])
    v = ck.from_partial_translation(t, w)
    assert v.equals(ck.char_projection(pts, w), tol=0)


def test_translation_operator_truncated_shift():
    w = line_window(0, 9)
    t = PartialTranslation(Z, [((x,), (x + 1,)) for x in range(12)])
    v = ck.from_partial_translation(t, w)
    vv = v.adjoint().mul(v)
    last = ck.char_projection([(9,)], w)
    assert vv.equals(identity_operator(w).sub(last), tol=0)


def test_translation_operator_on_free_group_rule():
    p = ck.paradox_free_group(2)
    w = ck.ball(F2, "", 4)
    t = PartialTranslation(F2, [(x, p.t_plus(x)) for x in w.points])
    v = ck.from_partial_translation(t, w)
    assert v.propagation == 1
    vv = v.adjoint().mul(v)
    interior = [w.index(q) for q in w.interior(1)]
    assert vv.restrict(interior).equals(identity_operator(w).restrict(interior), tol=0)


# -- proper infiniteness -------------------------------------------------------------

def build_rule_isometries(radius):
    p = ck.paradox_free_group(2)
    w = ck.ball(F2, "", radius)
    tp = PartialTranslation(F2, [(x, p.t_plus(x)) for x in w.points])
    tm = PartialTranslation(F2, [(x, p.t_minus(x)) for x in w.points])
    return w, ck.from_partial_translation(tp, w), ck.from_partial_translation(tm, w)


def test_properly_infinite_from_rule():
    w, x, y = build_rule_isometries(4)
    rep = ck.verify_properly_infinite(identity_operator(w), x, y, 1)
    assert rep.passed
    assert rep.psd_method == "diagonal-exact"


def test_properly_infinite_fails_for_unit():
    w = line_window(0, 5)
    one = identity_operator(w)
    rep = ck.verify_properly_infinite(one, one, one, 1)
    assert rep.xx_eq_p and not rep.psd_ok


def test_properly_infinite_vacuous_zero():
    w = line_window(0, 5)
    z = zero_operator(w)
    rep = ck.verify_properly_infinite(z, z, z, 1)
    assert rep.passed


def test_every_properly_infinite_report_is_json():
    w = ck.ball(Z, 0, 20)
    ops = {"zero": zero_operator(w), "one": identity_operator(w), "shift": shift_operator(w),
           "small": make_operator(w, {(p, p): 1e-5 for p in w.points}),
           "half": make_operator(w, {(p, p): 0.5 for p in w.points})}
    for p in ops.values():
        for x in ops.values():
            for y in ops.values():
                rep = ck.verify_properly_infinite(p, x, y, 1)
                assert json.loads(json.dumps(rep.to_json()))["passed"] is rep.passed
    # 1e-5 I passes for p = 0 only through the absolute float tolerance; the
    # report still has to be JSON
    assert json.dumps(ck.verify_properly_infinite(ops["zero"], ops["small"], ops["small"], 1).to_json())


# -- block-diagonal approximation -----------------------------------------------------

def blocked_space(n_blocks=10, size=2, gap=10):
    blocks = [{"kind": "point_line", "coords": list(range(size))}] * n_blocks
    return ck.make_space(
        {"kind": "disjoint_union", "blocks": blocks, "gaps": [gap] * (n_blocks - 1)}
    )


def test_af_identity_reproduced_exactly():
    du = blocked_space()
    w = ck.Window(du, du.all_points())
    approx = ck.af_approximate(identity_operator(w), 1, 0.05)
    assert approx.error == 0.0
    assert approx.b.equals(identity_operator(w), tol=0)
    assert approx.coloring.n_colors == 1  # all classes have size 2, same block


def test_af_alternating_blocks():
    du = blocked_space()
    w = ck.Window(du, du.all_points())
    entries = {}
    for k in range(10):
        if k % 2 == 0:
            entries[((k, 0), (k, 1))] = 1
            entries[((k, 1), (k, 0))] = 1
    a = make_operator(w, entries)
    approx = ck.af_approximate(a, 1, 0.05)
    assert approx.error == 0.0
    assert approx.coloring.n_colors == 2
    assert approx.b.equals(a, tol=1e-15)


def test_af_graded_blocks_error_bound():
    du = blocked_space()
    w = ck.Window(du, du.all_points())
    entries = {}
    for k in range(10):
        entries[((k, 0), (k, 1))] = k / 10
        entries[((k, 1), (k, 0))] = k / 10
    a = make_operator(w, entries)
    approx = ck.af_approximate(a, 1, 0.3)
    assert approx.error < 0.3
    assert approx.coloring.n_colors <= 10
    rebuilt = ck.rebuild_from_coloring(w, approx.coloring)
    assert rebuilt.equals(approx.b, tol=0)


def test_af_rejects_large_propagation():
    du = blocked_space()
    w = ck.Window(du, du.all_points())
    wide = make_operator(w, {((0, 0), (1, 0)): 1})
    with pytest.raises(PropagationTooLarge):
        ck.af_approximate(wide, 1, 0.1)


def test_af_class_cap():
    w = line_window(0, 30)
    with pytest.raises(ClassTooLarge):
        ck.af_approximate(identity_operator(w), 1, 0.1, class_cap=10)


def test_af_refuses_nan_eps_and_lattice_overflow():
    w = line_window(-2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused without a numpy warning first
        with pytest.raises(MalformedSpec):
            ck.af_approximate(identity_operator(w), 1, float("nan"))
        # 1e308 / (0.1 / (2 sqrt 2)) leaves float range
        with pytest.raises(MalformedSpec):
            ck.af_approximate(make_operator(w, {((0,), (0,)): complex(1e308, 1)}), 1, 0.1)


def _af_reference(a, r, eps):
    """Colours, models and error of af_approximate as the per-cell code
    computed them: a dict of window positions and an int(round()) key per cell."""
    w = a.window
    part = ck.components_at_scale(w, r)
    blocks = [np.zeros((len(c), len(c)), dtype=np.complex128) for c in part.classes]
    where = {w.index(p): (c, k) for c, cls in enumerate(part.classes) for k, p in enumerate(cls)}
    A = a.matrix.tocoo()
    for i, j, v in zip(A.row.tolist(), A.col.tolist(), A.data.tolist()):
        c, k = where[i]
        blocks[c][k, where[j][1]] = v
    ids, colors, models = {}, [], []
    for M in blocks:
        delta = eps / (2 * len(M) * math.sqrt(2))
        key = (len(M), tuple((int(round(z.real / delta)), int(round(z.imag / delta))) for z in M.flat))
        if key not in ids:
            ids[key] = len(models)
            models.append(M.copy())
        colors.append(ids[key])
    diffs = [M - models[c] for M, c in zip(blocks, colors)]
    err = max((float(np.linalg.norm(d, 2)) for d in diffs if d.any()), default=0.0)
    return tuple(colors), models, err


# on a class of 2 points this eps puts the lattice at spacing exactly 1/8, so
# (k + 1/2) / 8 is a tie; 2^60 / (1/8) is far above 2^53
_EPS_EIGHTH = 2 * 2 * math.sqrt(2) / 8
_AF_PARTS = [0.0, -0.0, 0.01, -0.01, 1 / 16, -1 / 16, 3 / 16, -3 / 16, 5 / 16, 1 / 8,
             2.0**60, 2.0**60 + 256, -(2.0**61), 1e300]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sizes=st.lists(st.sampled_from([1, 2, 2, 3]), min_size=1, max_size=12),
       parts=st.lists(st.tuples(st.sampled_from(_AF_PARTS), st.sampled_from(_AF_PARTS)),
                      min_size=36, max_size=36),
       eps=st.sampled_from([_EPS_EIGHTH, 0.1, 0.5, 1e-3]))
def test_af_matches_per_cell_rounding(sizes, parts, eps):
    space = ck.make_space({"kind": "disjoint_union",
                           "blocks": [{"kind": "point_line", "coords": list(range(m))} for m in sizes],
                           "gaps": [10] * (len(sizes) - 1)})
    w = ck.Window(space, space.all_points())
    # parts * 3 covers the 108 cells of 12 classes of 3 points
    cells = [(i, j) for i, p in enumerate(w.points) for j, q in enumerate(w.points) if p[0] == q[0]]
    entries = {ij: complex(*z) for ij, z in zip(cells, parts * 3) if z != (0.0, 0.0)}
    a = BandedOperator(w, entries)
    approx = ck.af_approximate(a, 2, eps)
    colors, models, err = _af_reference(a, 2, eps)
    assert approx.coloring.color_of_class == colors
    assert [m.tobytes() for m in approx.coloring.models] == [m.tobytes() for m in models]
    assert approx.error == err
    assert ck.rebuild_from_coloring(w, approx.coloring).equals(approx.b, tol=0)


@pytest.mark.parametrize("diag, colors", [
    # -0.0, and values that round to -0.0, key as 0.0
    ([complex(-0.0, 1), complex(0.0, 1), complex(-0.01, 1), complex(0.01, 1)], (0, 0, 0, 0)),
    # ties at .5 round to even: 0, 0.5, -0.5, 1.5, 2, 2.5, -1.5 eighths
    ([complex(v, 1) for v in (0, 1 / 16, -1 / 16, 3 / 16, 2 / 8, 5 / 16, -3 / 16)],
     (0, 0, 0, 1, 1, 1, 2)),
    # above 2^53 lattice units every double is its own lattice point
    ([2.0**60 + 0.5j, 2.0**60 + 256 + 0.5j, 2.0**60 + 0.5j], (0, 1, 0)),
    # exact int64 entries: 2^60 + 1 becomes the double 2^60
    ([2**60, 2**60 + 1, 2**60 + 512, -(2**62)], (0, 0, 1, 2)),
])
def test_af_keys_match_per_cell_rounding(diag, colors):
    w = line_window(0, len(diag) - 1)
    a = BandedOperator(w, {(i, i): v for i, v in enumerate(diag)})
    eps = 2 * math.sqrt(2) / 8  # lattice spacing exactly 1/8 on classes of one point
    approx = ck.af_approximate(a, 0, eps)
    ref_colors, models, err = _af_reference(a, 0, eps)
    assert approx.coloring.color_of_class == ref_colors == colors
    assert [m.tobytes() for m in approx.coloring.models] == [m.tobytes() for m in models]
    assert approx.error == err


# -- segment shift and cancellation ---------------------------------------------------

def quadratic_family(n_max):
    segs = tuple(
        tuple((100 * n * n + i,) for i in range(n + 1)) for n in range(1, n_max + 1)
    )
    return SegmentFamily(Z, 1, segs)


def test_segment_shift_empty_family_is_identity():
    w = line_window(0, 9)
    fam = SegmentFamily(Z, 1, ())
    assert ck.segment_shift(fam, w).equals(identity_operator(w), tol=0)


def test_segment_shift_identities():
    fam = quadratic_family(5)
    w = line_window(0, 2600)
    v = ck.segment_shift(fam, w)
    assert v.propagation <= 2
    one = identity_operator(w)
    lasts = ck.char_projection(fam.endpoints(), w)
    firsts = ck.char_projection(fam.basepoints(), w)
    assert v.adjoint().mul(v).equals(one.sub(lasts), tol=0)
    assert v.mul(v.adjoint()).equals(one.sub(firsts), tol=0)


def test_segment_shift_single_short_segment():
    w = line_window(0, 9)
    fam = SegmentFamily(Z, 1, (((3,), (4,)),))
    v = ck.segment_shift(fam, w)
    vv = v.adjoint().mul(v)
    diag_zeros = [i for i in range(10) if vv.entries.get((i, i), 0) == 0]
    assert diag_zeros == [w.index((4,))]


def test_segment_shift_requires_window():
    fam = quadratic_family(2)
    with pytest.raises(SegmentOutsideWindow):
        ck.segment_shift(fam, line_window(0, 50))


def test_cancellation_witness_identities():
    fam = quadratic_family(6)
    w = line_window(0, 3700)
    cw = ck.cancellation_witness(fam, w, 5)
    assert cw.v.adjoint().mul(cw.v).equals(cw.p, tol=0)
    assert cw.v.mul(cw.v.adjoint()).equals(cw.q, tol=0)
    one = identity_operator(w)
    assert one.sub(cw.q).equals(ck.char_projection(cw.firsts, w), tol=0)
    assert one.sub(cw.p).equals(ck.char_projection(cw.lasts, w), tol=0)
    assert min(Z.dist(cw.probe, e) for e in cw.lasts) > 5


def test_cancellation_probe_annihilates_banded():
    fam = quadratic_family(6)
    w = line_window(0, 3700)
    cw = ck.cancellation_witness(fam, w, 5)
    one = identity_operator(w)
    e_probe = ck.char_projection([cw.probe], w)
    rng = np.random.RandomState(11)
    for _ in range(20):
        a = random_banded(w, rng, 5)
        prod = one.sub(cw.p).mul(a).mul(e_probe)
        assert all(abs(v) == 0 for v in prod.entries.values())


def test_cancellation_no_probe_for_short_family():
    fam = SegmentFamily(Z, 1, (((0,), (1,)),))
    w = line_window(-5, 10)
    with pytest.raises(NoProbe):
        ck.cancellation_witness(fam, w, 10)


def test_cancellation_probe_detects_any_endpoint_pairing():
    # any partial isometry w' with w'* w' = 1 - q and w' w'* = 1 - p sends the
    # probe basis vector to a unit vector supported on the endpoint set, so
    # (1 - p) w' e_probe has norm one while banded operators annihilate it
    fam = quadratic_family(6)
    w = line_window(0, 3700)
    cw = ck.cancellation_witness(fam, w, 5)
    pairing = make_operator(
        w, {(last, first): 1 for first, last in zip(cw.firsts, cw.lasts)}
    )
    one = identity_operator(w)
    assert pairing.adjoint().mul(pairing).equals(one.sub(cw.q), tol=0)
    assert pairing.mul(pairing.adjoint()).equals(one.sub(cw.p), tol=0)
    e_probe = ck.char_projection([cw.probe], w)
    hit = one.sub(cw.p).mul(pairing).mul(e_probe)
    assert ck.op_norm(hit) == pytest.approx(1.0)


# -- quasi elements ---------------------------------------------------------------------

def test_quasi_projection_boundary_cases():
    w = line_window(0, 1)
    d9 = make_operator(w, {((0,), (0,)): 0.9, ((1,), (1,)): 0.9})
    assert ck.quasi_check(d9, "projection", 0).passed
    d5 = make_operator(w, {((0,), (0,)): 0.5, ((1,), (1,)): 0.5})
    rep = ck.quasi_check(d5, "projection", 0)
    assert not rep.passed
    assert rep.deviations["idempotent"] == pytest.approx(0.25)


def test_quasi_exact_projection():
    w = line_window(0, 10)
    e = ck.char_projection([(1,), (4,)], w)
    rep = ck.quasi_check(e, "projection", 0)
    assert rep.passed and max(rep.deviations.values()) == 0


def test_quasi_check_refuses_nan_and_negative_eps():
    one = identity_operator(line_window(0, 3))
    for eps in (float("nan"), -1.0, -1e-300):
        with pytest.raises(MalformedSpec):
            ck.quasi_check(one, "projection", 0, eps=eps)
    assert ck.quasi_check(one, "unitary", 0, eps=0).passed


def test_quasi_unitary():
    w = line_window(0, 10)
    assert ck.quasi_check(identity_operator(w), "unitary", 0).passed
    v = shift_operator(w)  # truncated shift: not quasi-unitary on the full window
    assert not ck.quasi_check(v, "unitary", 1).passed


# -- omega membership and the splitting identity -------------------------------------------

def test_omega_membership_piece_projection():
    w = line_window(-100, 100)
    omega = OmegaDecomposition(ck.witness_line(5, w))
    piece = omega.u_pieces[0]
    a = ck.char_projection(piece, w)
    assert ck.omega_membership(a, omega, 0, "I").passed


def test_omega_membership_shift_split():
    w = line_window(-100, 100)
    omega = OmegaDecomposition(ck.witness_line(5, w))
    v = shift_operator(w)
    b, c = ck.mv_split(v, omega)
    assert ck.omega_membership(b, omega, 1, "I").passed
    assert ck.omega_membership(c, omega, 1, "J").passed
    # the unsplit shift has support deep inside the V pieces: a true violation
    rep = ck.omega_membership(v, omega, 1, "I")
    assert not rep.support_ok and rep.witness is not None


def test_omega_membership_violating_rank_one():
    w = line_window(-100, 100)
    omega = OmegaDecomposition(ck.witness_line(5, w))
    x = omega.u_pieces[2][0]
    y = omega.v_pieces[5][0]
    assert Z.dist(x, y) > 4
    e = make_operator(w, {(x, y): 1})
    rep = ck.omega_membership(e, omega, 2, "intersection")
    assert not rep.passed
    assert rep.witness is not None


def test_mv_split_exact_and_members():
    w = line_window(-100, 100)
    omega = OmegaDecomposition(ck.witness_line(5, w))
    rng = np.random.RandomState(2)
    for _ in range(10):
        a = random_banded(w, rng, 3)
        b, c = ck.mv_split(a, omega)
        assert b.add(c).equals(a, tol=0)
        assert ck.omega_membership(b, omega, 3, "I").passed
        assert ck.omega_membership(c, omega, 3, "J").passed


def test_mv_split_diagonal_and_zero():
    w = line_window(-20, 20)
    omega = OmegaDecomposition(ck.witness_line(2, w))
    u_set = {p for piece in omega.u_pieces for p in piece}
    diag = identity_operator(w)
    b, c = ck.mv_split(diag, omega)
    assert b.equals(ck.char_projection(sorted(u_set), w), tol=0)
    z = zero_operator(w)
    zb, zc = ck.mv_split(z, omega)
    assert not zb.entries and not zc.entries


def test_omega_membership_checks_part_before_any_entry():
    w = line_window(-20, 20)
    omega = OmegaDecomposition(ck.witness_line(2, w))
    for a in (zero_operator(w), identity_operator(w)):
        with pytest.raises(MalformedSpec):
            ck.omega_membership(a, omega, 1, "K")


def _omega_reference(a, omega, r, part):
    """(support_ok, witness) of omega_membership as the per-point set code
    computed them, for covers whose pieces partition the window."""
    w = omega.window
    u_of = [set() for _ in w.points]
    v_of = [set() for _ in w.points]
    piece_u, piece_v = {}, {}
    for pieces, of, piece_of in ((omega.u_pieces, u_of, piece_u), (omega.v_pieces, v_of, piece_v)):
        for pid, piece in enumerate(pieces):
            for p in piece:
                piece_of[w.index(p)] = pid
                of[w.index(p)].add(pid)
    g = w.scale_graph(r).tocoo()
    for x, y in zip(g.row.tolist(), g.col.tolist()):
        if y in piece_u:
            u_of[x].add(piece_u[y])
        if y in piece_v:
            v_of[x].add(piece_v[y])
    A = a.matrix.tocoo()
    for i, j in zip(A.row.tolist(), A.col.tolist()):
        ok_u, ok_v = bool(u_of[i] & u_of[j]), bool(v_of[i] & v_of[j])
        ok = {"I": ok_u, "J": ok_v, "intersection": ok_u and ok_v}[part]
        if not ok:
            enc = w.space.point_to_json
            return False, {"pair": [enc(w.points[i]), enc(w.points[j])]}
    return True, None


def _mv_reference(a, omega):
    w = a.window
    in_u = {p for piece in omega.u_pieces for p in piece}
    b = {ij: v for ij, v in a.entries.items() if w.points[ij[0]] in in_u}
    c = {ij: v for ij, v in a.entries.items() if w.points[ij[0]] not in in_u}
    return BandedOperator(w, b), BandedOperator(w, c)


def _omega_cases():
    w = line_window(-60, 60)
    yield w, ck.witness_line(2, w)
    yield w, ck.witness_line(5, w)
    yield w, ck.greedy_cover(w, 1, 1, 6)
    tree = ck.make_space({"kind": "tree", "branching": 3})
    wt = ck.ball(tree, 0, 5)
    yield wt, ck.witness_tree(tree, 0, 2, wt)


def test_omega_membership_and_mv_split_match_set_code():
    rng = np.random.RandomState(4)
    for w, cover in _omega_cases():
        omega = OmegaDecomposition(cover)
        for prop in (0, 1, 3):
            a = random_banded(w, rng, prop)
            b, c = ck.mv_split(a, omega)
            rb, rc = _mv_reference(a, omega)
            assert b.equals(rb, tol=0) and c.equals(rc, tol=0)
            for op in (a, b, c):
                for r in (0, 1, 2, 4):
                    for part in ("I", "J", "intersection"):
                        rep = ck.omega_membership(op, omega, r, part)
                        assert (rep.support_ok, rep.witness) == _omega_reference(op, omega, r, part)


def test_omega_membership_counts_no_neighbours_in_int8():
    # U piece [0, 256) lies wholly within 300 of -10: 256 scale-graph neighbours
    # in one piece, which an int8 count wraps to 0; it is the only U piece near
    # both -10 and 200
    w = line_window(-300, 300)
    omega = OmegaDecomposition(ck.witness_line(128, w))
    assert [(0,), (255,)] == [omega.u_pieces[1][0], omega.u_pieces[1][-1]]
    e = make_operator(w, {((-10,), (200,)): 1})
    rep = ck.omega_membership(e, omega, 300, "I")
    assert rep.support_ok
    assert (rep.support_ok, rep.witness) == _omega_reference(e, omega, 300, "I")


# -- the shift tower over Z^2 ----------------------------------------------------------------

def grid2_window(n):
    g2 = ck.make_space({"kind": "grid", "dim": 2})
    return ck.Window(g2, [(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)])


def test_build_uf_zero_is_identity():
    w2 = grid2_window(3)
    u = ck.build_uf(w2, 2, lambda x: 0)
    assert u.equals(identity_operator(u.window), tol=0)


def test_build_uf_constant_one():
    w2 = grid2_window(5)
    u = ck.build_uf(w2, 2, lambda x: 1)
    assert u.propagation == 1
    rep = ck.interior_unitarity(u, 1)
    assert rep["isometry_exact"] and rep["coisometry_exact"]
    assert rep["interior_size"] > 0


def test_build_uf_alternating():
    w2 = grid2_window(5)
    u = ck.build_uf(w2, 1, lambda x: (-1) ** x)
    rep = ck.interior_unitarity(u, 1)
    assert rep["isometry_exact"] and rep["coisometry_exact"]


def test_build_uf_levels_too_small():
    w2 = grid2_window(3)
    with pytest.raises(LevelsTooSmall):
        ck.build_uf(w2, 1, lambda x: 2)


# -- the CSR operator against a dict reference implementation -----------------------------

def ref_clean(d):
    return {k: v for k, v in d.items() if v != 0}


def ref_add(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for (i, j), va in a.items():
        for (j2, k), vb in b.items():
            if j == j2:
                out[(i, k)] = out.get((i, k), 0) + va * vb
    return ref_clean(out)


def ref_adjoint(a):
    return {(j, i): v.conjugate() for (i, j), v in a.items()}


def ref_restrict(a, idx):
    return {(i, j): v for (i, j), v in a.items() if i in idx and j in idx}


def ref_equals(a, b, tol):
    return all(abs(a.get(k, 0) - b.get(k, 0)) <= tol for k in set(a) | set(b))


def ref_propagation(w, a):
    return max((w.space.dist(w.points[i], w.points[j]) for i, j in a), default=0)


def ref_to_json(w, a):
    enc = w.space.point_to_json
    return [[enc(w.points[i]), enc(w.points[j]), float(complex(v).real), float(complex(v).imag)]
            for (i, j), v in sorted(a.items())]


def assert_matches(op, ref, exact):
    assert op.exact == exact
    if exact:
        assert op.entries == ref
        assert all(type(v) is int for v in op.entries.values())
    else:
        have = op.entries
        assert all(abs(have.get(k, 0) - ref.get(k, 0)) <= 1e-12 for k in set(have) | set(ref))


@st.composite
def window_and_operators(draw):
    kind = draw(st.sampled_from(["line", "grid2", "free_group"]))
    if kind == "line":
        lo = draw(st.integers(-5, 5))
        w = ck.Window(Z, [(x,) for x in range(lo, lo + draw(st.integers(1, 9)))])
    elif kind == "grid2":
        w = ck.ball(G2, (draw(st.integers(-3, 3)), 0), draw(st.integers(0, 2)))
    else:
        w = ck.ball(F2, draw(st.sampled_from(["", "a", "B"])), draw(st.integers(0, 2)))
    n = len(w.points)
    exact = draw(st.booleans())
    if exact:
        value = st.integers(-4, 4)
    else:
        part = st.floats(-2, 2, allow_nan=False).map(lambda t: round(t, 3))
        value = st.builds(complex, part, part)
    key = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    ops = draw(st.lists(st.dictionaries(key, value, max_size=3 * n), min_size=2, max_size=2))
    idx = draw(st.sets(st.integers(0, n - 1)))
    return w, exact, [ref_clean(d) for d in ops], idx


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(window_and_operators(), st.integers(-3, 3))
def test_csr_operator_matches_dict_reference(case, c):
    w, exact, (ra, rb), idx = case

    def build(entries):  # a float dict may be empty, which alone would build an exact operator
        op = BandedOperator(w, entries)
        return op if exact else op.scale(1.0)

    a, b = build(ra), build(rb)
    assert_matches(a, ra, exact)
    assert_matches(a.add(b), ref_add(ra, rb), exact)
    assert_matches(a.sub(b), ref_add(ra, rb, -1), exact)
    assert_matches(a.mul(b), ref_mul(ra, rb), exact)
    assert_matches(a.adjoint(), ref_adjoint(ra), exact)
    assert_matches(a.scale(c), ref_clean({k: c * v for k, v in ra.items()}), exact)
    assert_matches(a.scale(0.5), {k: 0.5 * v for k, v in ra.items()}, False)
    assert_matches(a.restrict(idx), ref_restrict(ra, idx), exact)
    for tol in (0, 0.5, 3):
        assert a.equals(b, tol=tol) == ref_equals(ra, rb, tol)
    assert a.equals(build(dict(ra)))
    assert a.propagation == ref_propagation(w, ra)
    assert a.mul(b).propagation == ref_propagation(w, ref_mul(ra, rb))
    assert a.to_json() == {"entries": ref_to_json(w, ra)}
    if exact:
        assert a.mul(b).to_json()["entries"] == ref_to_json(w, ref_mul(ra, rb))
    dense = np.zeros((len(w.points),) * 2, dtype=complex)
    for (i, j), v in ra.items():
        dense[i, j] = v
    assert np.array_equal(a.to_dense(), dense)
    assert np.array_equal(a.to_sparse().toarray(), dense)


def test_operator_storage_dtype_follows_exactness():
    w = line_window(0, 3)
    assert BandedOperator(w, {(0, 1): 2}).matrix.dtype == np.int64
    assert BandedOperator(w, {(0, 1): 2.0}).matrix.dtype == np.complex128
    a = BandedOperator(w, {(0, 1): 2, (1, 1): 0})
    assert a.matrix.nnz == 1 and a.matrix.has_canonical_format
    assert not a.scale(np.int64(2)).exact  # only Python ints keep exactness, as before
    assert not a.mul(BandedOperator(w, {(1, 0): 1.5})).exact


def test_int64_guard_on_exact_arithmetic():
    w = line_window(0, 3)
    big = BandedOperator(w, {(0, 0): 2**62})
    with pytest.raises(IntegerOverflow):
        big.add(big)
    with pytest.raises(IntegerOverflow):
        big.sub(big.scale(-1))
    with pytest.raises(IntegerOverflow):
        big.scale(2)
    with pytest.raises(IntegerOverflow):
        BandedOperator(w, {(0, 0): -(2**63)}).scale(-1)
    with pytest.raises(IntegerOverflow):
        BandedOperator(w, {(0, 0): 2**63})
    with pytest.raises(IntegerOverflow):
        make_operator(w, [[[0], [0], 1e300, 0]])
    # the same magnitudes are fine in floating point
    assert big.scale(2.0).entry((0,), (0,)) == 2.0**63
    assert big.add(big.scale(-1)).equals(zero_operator(w), tol=0)


@pytest.mark.parametrize("rows", [[[[0], [0], 1]], [[[0], [0], "1", 0]], [3], None])
def test_make_operator_rejects_malformed_rows(rows):
    with pytest.raises(MalformedSpec):
        make_operator(line_window(0, 3), rows)


# -- the eigenvalue branch of the PSD test -------------------------------------------------

def dense_interior_psd(p, x, y, margin):
    P, X, Y = p.to_dense(), x.to_dense(), y.to_dense()
    S = P - X @ X.conj().T - Y @ Y.conj().T
    I = [p.window.index(q) for q in p.window.interior(margin)]
    H = S[np.ix_(I, I)]
    return np.linalg.eigvalsh((H + H.conj().T) / 2).min() >= -1e-9


@pytest.mark.parametrize("seed", range(6))
def test_properly_infinite_eigenvalue_branch_matches_dense(seed):
    rng = np.random.RandomState(seed)
    w = line_window(0, 7)
    # p = M M* + shift: Hermitian with off-diagonal entries, PSD when shift >= 0
    M = rng.standard_normal((8, 8)) * (np.abs(np.subtract.outer(range(8), range(8))) <= 1)
    P = M @ M.T + (seed - 2) * np.eye(8)
    p = BandedOperator(w, {(i, j): P[i, j] for i in range(8) for j in range(8)})
    x = random_banded(w, rng, 1, bound=0.3)
    y = random_banded(w, rng, 1, bound=0.3)
    rep = ck.verify_properly_infinite(p, x, y, 1)
    assert rep.psd_method == "eigenvalue"
    assert rep.psd_ok == dense_interior_psd(p, x, y, 1)


def test_properly_infinite_eigenvalue_branch_pass_and_not_psd():
    w = line_window(0, 3)
    h = 2 ** -0.5
    # p = 1 on the first two points; x and y are isometries of its range
    p = ck.char_projection([(0,), (1,)], w)
    x = make_operator(w, {((2,), (0,)): 1, ((3,), (1,)): 1})
    y = make_operator(w, {((0,), (0,)): h, ((2,), (0,)): h, ((1,), (1,)): 1})
    rep = ck.verify_properly_infinite(p, x, y, 0)
    assert rep.xx_eq_p and rep.yy_eq_p
    assert rep.psd_method == "eigenvalue" and not rep.psd_ok
    assert rep.witness == {"kind": "not_psd"}
    assert not dense_interior_psd(p, x, y, 0)
    # a positive p with off-diagonal entries passes the PSD step against x = y = 0
    q = make_operator(w, {((0,), (0,)): 2.0, ((0,), (1,)): 1.0, ((1,), (0,)): 1.0,
                          ((1,), (1,)): 2.0})
    z = zero_operator(w)
    rep = ck.verify_properly_infinite(q, z, z, 0)
    assert rep.psd_method == "eigenvalue" and rep.psd_ok
    assert rep.witness == {"kind": "xx_ne_p", "pair": [[0], [0]]}
    assert dense_interior_psd(q, z, z, 0)


def test_properly_infinite_witnesses_name_their_points():
    w = line_window(0, 3)
    p = ck.char_projection([(0,), (1,)], w)
    x = make_operator(w, {((2,), (0,)): 1, ((3,), (1,)): 1})
    # y*y = [[1, 1], [1, 1]] on {0, 1}: it meets p at (0, 0), and (0, 1) is the
    # first entry in row-major order where they differ, whatever the entry order
    y = make_operator(w, {((2,), (1,)): 1, ((2,), (0,)): 1})
    rep = ck.verify_properly_infinite(p, x, y, 0)
    assert rep.xx_eq_p and not rep.yy_eq_p
    assert rep.witness == {"kind": "yy_ne_p", "pair": [[0], [1]]}
    rep = ck.verify_properly_infinite(p, y, x, 0)
    assert rep.witness == {"kind": "xx_ne_p", "pair": [[0], [1]]}
    # x and y both isometries of p's range onto {2, 3}: p - xx* - yy* is
    # diag(1, 1, -2, -2), and 2 is the first point with a negative entry
    y = make_operator(w, {((3,), (0,)): 1, ((2,), (1,)): 1})
    rep = ck.verify_properly_infinite(p, x, y, 0)
    assert rep.xx_eq_p and rep.yy_eq_p and rep.psd_method == "diagonal-exact" and not rep.psd_ok
    assert rep.witness == {"kind": "not_psd", "point": [2]}
    # the same in floating point
    rep = ck.verify_properly_infinite(p.scale(1.0), x.scale(1.0), y.scale(1.0), 0)
    assert rep.psd_method == "diagonal" and rep.witness == {"kind": "not_psd", "point": [2]}


def test_omega_membership_witness_is_first_entry_in_row_major_order():
    # both entries violate; the witness is the one with the smaller row index,
    # whatever order the entries were given in
    w = line_window(-100, 100)
    omega = OmegaDecomposition(ck.witness_line(5, w))
    x1, y1 = omega.u_pieces[2][0], omega.v_pieces[5][0]
    x2, y2 = omega.u_pieces[4][0], omega.v_pieces[7][0]
    assert w.index(x1) < w.index(x2)
    e = make_operator(w, {(x2, y2): 1, (x1, y1): 1})
    rep = ck.omega_membership(e, omega, 2, "intersection")
    assert rep.witness == {"pair": [list(x1), list(y1)]}
