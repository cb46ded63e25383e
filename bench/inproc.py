"""In-process job kinds of the ``amenable`` and ``nonamenable`` workloads.

Each kind has a size ladder, a generator and a job.  The generator turns a
seeded ``random.Random`` and a rung into plain inputs (coordinates, words,
spec dicts, entry tables); it calls nothing in coarsekit.  The job builds its
windows and operators through coarsekit, runs the computation, checks the
result and returns the window and scale to probe in a traced run.  Every call
into coarsekit goes through ``t.call`` so that a traced run can time it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import coarsekit as ck
from coarsekit import serialization as ser
from coarsekit.amenability import FolnerBudget, PartialTranslation
from coarsekit.components import SegmentFamily
from coarsekit.operators import DENSE_NORM_LIMIT, OmegaDecomposition

from checks import fg_ball_size, need

Z = {"kind": "grid", "dim": 1}
Z2 = {"kind": "grid", "dim": 2}


@dataclass(frozen=True)
class Kind:
    name: str
    ladder: tuple  # one generator argument per rung
    gen: Callable  # (random.Random, rung value) -> params
    run: Callable  # (tracer, params) -> (window, r) to probe


# -- independent helpers (no coarsekit) ----------------------------------------

def _letters(rank):
    return [c for g in "abcdefghij"[:rank] for c in (g, g.upper())]


def _mul(u, s):
    return u[:-1] if u and u[-1] == s.swapcase() else u + s


def fg_ball_words(rank, center, radius):
    seen, frontier = {center}, [center]
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for s in _letters(rank):
                v = _mul(u, s)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return sorted(seen, key=lambda u: (len(u), u))


def random_word(rng, rank, length):
    u = ""
    while len(u) < length:
        u = _mul(u, rng.choice(_letters(rank)))
    return u


def grid2_ball_size(radius):
    return 2 * radius * radius + 2 * radius + 1


def roundtrip(t, to_payload, *args):
    """Serialize a certificate, then re-verify it from its JSON text."""
    payload = t.call(to_payload, *args)
    text = t.call(ser.canonical_dumps, payload)
    ok, _ = t.call(ser.verify_payload, json.loads(text))
    need(ok, f"{payload['kind']} payload does not re-verify")


# -- amenable ------------------------------------------------------------------

def gen_line_cover(rng, radius):
    return {"c": rng.randint(-10**6, 10**6), "R": radius, "r": rng.randint(1, 4)}


def run_line_cover(t, p):
    space = t.call(ck.make_space, Z)
    w = t.call(ck.ball, space, (p["c"],), p["R"])
    cover = t.call(ck.witness_line, p["r"], w)
    need(t.call(ck.verify_decomposition, cover).passed, "line cover")
    roundtrip(t, ser.cover_to_payload, cover)
    return w, p["r"]


def gen_grid2_cover(rng, radius):
    return {"c": (rng.randint(-1000, 1000), rng.randint(-1000, 1000)), "R": radius,
            "r": rng.randint(1, 2)}


def run_grid2_cover(t, p):
    space = t.call(ck.make_space, Z2)
    w = t.call(ck.ball, space, p["c"], p["R"])
    cover = t.call(ck.witness_grid2, p["r"], w)
    need(t.call(ck.verify_decomposition, cover).passed, "grid2 cover")
    roundtrip(t, ser.cover_to_payload, cover)
    return w, p["r"]


def gen_greedy(rng, radius):
    return {"c": rng.randint(-10**6, 10**6), "R": radius}


def run_greedy(t, p):
    space = t.call(ck.make_space, Z)
    w = t.call(ck.ball, space, (p["c"],), p["R"])
    cover = t.call(ck.greedy_cover, w, 1, 1, 6)
    need(cover is not None, "greedy cover not found on a window of Z")
    roundtrip(t, ser.cover_to_payload, cover)
    return w, 1


def gen_matching_cut(rng, radius):
    return {"c": rng.randint(-10**6, 10**6), "R": radius}


def run_matching_cut(t, p):
    space = t.call(ck.make_space, Z)
    c, R, r = p["c"], p["R"], 1
    w = t.call(ck.ball, space, (c,), R)
    out = t.call(ck.matching_certificate, w, r)
    need(not out.feasible and out.cut, "a window of Z has no doubling")
    need(all(abs(x - c) <= R - r for (x,) in out.cut), "cut outside the interior")
    nbrs = {q for f in out.cut for q in space.ball_points(f, r) if abs(q[0] - c) <= R}
    need(len(nbrs) == out.cut_neighborhood_size, "cut neighbourhood size")
    need(len(nbrs) < 2 * len(out.cut), "cut does not violate Hall's condition")
    payload = {
        "schema": ser.SCHEMA, "kind": "matching_cut", "space": Z, "window": w.to_json(),
        "r": r, "cut": [list(f) for f in out.cut],
        "cut_neighborhood_size": out.cut_neighborhood_size, "flow_value": out.flow_value,
    }
    text = t.call(ser.canonical_dumps, payload)
    ok, _ = t.call(ser.verify_payload, json.loads(text))
    need(ok, "matching cut does not re-verify")
    return w, r


def gen_folner_found(rng, den):
    return {"c": (rng.randint(-1000, 1000), rng.randint(-1000, 1000)), "eps": den}


def run_folner_found(t, p):
    space = t.call(ck.make_space, Z2)
    eps = Fraction(1, p["eps"])
    rep = t.call(ck.folner_search_report, space, 1, eps, FolnerBudget(basepoint=p["c"]))
    cert = rep.certificate
    need(cert is not None, "no Folner set found in Z^2")
    F = set(cert.F)
    N = F | {(x + dx, y + dy) for x, y in F for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))}
    need(len(N) == cert.neighborhood_size and len(N) <= (1 + eps) * len(F), "Folner ratio")
    roundtrip(t, ser.folner_to_payload, cert)
    return None


def gen_segments(rng, radius):
    return {"c": rng.randint(-10**6, 10**6), "R": radius}


def run_segments(t, p):
    space = t.call(ck.make_space, Z)
    w = t.call(ck.ball, space, (p["c"],), p["R"])
    fam = t.call(ck.extract_segments, space, 1, 6, w)
    need(len(fam.segments) == 6, "segment count")
    roundtrip(t, ser.segments_to_payload, fam)
    return w, 1


def gen_shift(rng, radius):
    c = rng.randint(-10**6, 10**6)
    start, segs = c - radius + 5, []
    for n in range(1, 7):
        segs.append([start + i for i in range(n + 1)])
        start += n + 1 + rng.randint(20, 40)
    return {"c": c, "R": radius, "segs": segs}


def run_shift(t, p):
    space = t.call(ck.make_space, Z)
    w = t.call(ck.ball, space, (p["c"],), p["R"])
    fam = SegmentFamily(space, 1, tuple(tuple((x,) for x in s) for s in p["segs"]))
    one = t.call(ck.identity_operator, w)
    v = t.call(ck.segment_shift, fam, w)
    vs = t.call(v.adjoint)
    ends = t.call(ck.char_projection, fam.endpoints(), w)
    bases = t.call(ck.char_projection, fam.basepoints(), w)
    need(t.call(t.call(vs.mul, v).equals, t.call(one.sub, ends), tol=0), "v*v = 1 - e_ends")
    need(t.call(t.call(v.mul, vs).equals, t.call(one.sub, bases), tol=0), "vv* = 1 - e_bases")
    cw = t.call(ck.cancellation_witness, fam, w, 5)
    cvs = t.call(cw.v.adjoint)
    need(t.call(t.call(cvs.mul, cw.v).equals, cw.p, tol=0), "cancellation v*v = p")
    need(t.call(t.call(cw.v.mul, cvs).equals, cw.q, tol=0), "cancellation vv* = q")
    return w, 1


def gen_net(rng, radius):
    return {"c": (rng.randint(-1000, 1000), rng.randint(-1000, 1000)), "R": radius, "sep": 2}


def run_net(t, p):
    space = t.call(ck.make_space, Z2)
    w = t.call(ck.ball, space, p["c"], p["R"])
    net = t.call(ck.net_extract, w, p["sep"])
    P = np.array(w.points, dtype=np.int64)
    N = np.array(net.points, dtype=np.int64)
    D = np.abs(N[:, None, :] - N[None, :, :]).sum(axis=2)
    np.fill_diagonal(D, p["sep"] + 1)
    need(D.min() > p["sep"], "net is not separated")
    near = np.abs(P[:, None, :] - N[None, :, :]).sum(axis=2).min(axis=1)
    need(near.max() <= p["sep"], "net is not dense")
    return w, p["sep"]


def gen_classify(rng, radius):
    c = rng.randint(-10**6, 10**6)
    steps = [rng.randint(1, 3) for _ in range(2 * radius)]
    ys = [0]
    for s in steps:
        ys.append(ys[-1] + s)
    pairs = [[[c - radius + i], [y]] for i, y in enumerate(ys)]
    return {"c": c, "R": radius, "pairs": pairs, "L": max(steps)}


def run_classify(t, p):
    space = t.call(ck.make_space, Z)
    w = t.call(ck.ball, space, (p["c"],), p["R"])
    f = t.call(ck.CoarseMap, w, space, p["pairs"])
    cls = t.call(ck.classify, f)
    need(cls.injective and cls.bi_lipschitz, "monotone map is bi-Lipschitz")
    need(cls.lipschitz_constant == p["L"] == cls.envelopes.rho_plus[1], "Lipschitz constant")
    return w, 1


def gen_tower(rng, radius):
    c = (rng.randint(-1000, 1000), rng.randint(-1000, 1000))
    # patterns that make u a permutation: a constant shift of one or two
    # levels, or swaps of neighbouring columns
    sign, height = rng.choice([1, -1]), rng.randint(0, 2)
    xs = range(c[0] - radius, c[0] + radius + 1)
    f = {x: sign * (height or (-1) ** x) for x in xs}
    return {"c": c, "R": radius, "f": f}


def run_tower(t, p):
    space = t.call(ck.make_space, Z2)
    w = t.call(ck.ball, space, p["c"], p["R"])
    u = t.call(ck.build_uf, w, 2, p["f"])
    rep = t.call(ck.interior_unitarity, u, 1)
    need(rep["interior_size"] == 2 * grid2_ball_size(p["R"] - 1), "tower interior size")
    need(rep["isometry_exact"] and rep["coisometry_exact"], "tower is unitary on the interior")
    return u.window, 1


def gen_mv(rng, radius):
    c = rng.randint(-10**6, 10**6)
    nrng = np.random.RandomState(rng.randrange(2**32))
    entries = {}
    for x in range(c - radius, c + radius + 1):
        for y in range(max(x - 3, c - radius), min(x + 3, c + radius) + 1):
            if nrng.rand() < 0.5:
                entries[((x,), (y,))] = int(nrng.choice([-3, -2, -1, 1, 2, 3]))
    return {"c": c, "R": radius, "entries": entries}


def run_mv(t, p):
    space = t.call(ck.make_space, Z)
    w = t.call(ck.ball, space, (p["c"],), p["R"])
    omega = t.call(OmegaDecomposition, t.call(ck.witness_line, 5, w))
    a = t.call(ck.make_operator, w, p["entries"])
    b, c = t.call(ck.mv_split, a, omega)
    need(t.call(t.call(b.add, c).equals, a, tol=0), "b + c = a exactly")
    need(t.call(ck.omega_membership, b, omega, 3, "I").passed, "b in I")
    need(t.call(ck.omega_membership, c, omega, 3, "J").passed, "c in J")
    return w, 3


def gen_af(rng, n_points):
    sizes = []
    while sum(sizes) < n_points:
        sizes.append(rng.randint(1, 4))
    sizes[-1] -= sum(sizes) - n_points
    if sizes[-1] == 0:
        sizes.pop()
    nrng = np.random.RandomState(rng.randrange(2**32))
    entries, blocks = {}, []
    for k, m in enumerate(sizes):
        M = np.zeros((m, m), dtype=complex)
        for x in range(m):
            for y in range(m):
                if abs(x - y) <= 2 and nrng.rand() < 0.5:
                    M[x, y] = complex(nrng.uniform(-1, 1), nrng.uniform(-1, 1)) / 2
                    entries[((k, x), (k, y))] = M[x, y]
        blocks.append(M)
    idem = max(float(np.linalg.norm(M @ M - M, 2)) for M in blocks)
    sa = max(float(np.linalg.norm(M - M.conj().T, 2)) for M in blocks)
    spec = {"kind": "disjoint_union",
            "blocks": [{"kind": "point_line", "coords": list(range(m))} for m in sizes],
            "gaps": [10] * (len(sizes) - 1)}
    points = [(k, x) for k, m in enumerate(sizes) for x in range(m)]
    return {"spec": spec, "points": points, "entries": entries, "eps": rng.choice([0.3, 0.1]),
            "idempotent": idem, "selfadjoint": sa}


def run_af(t, p):
    space = t.call(ck.make_space, p["spec"])
    w = t.call(ck.Window, space, p["points"])
    a = t.call(ck.make_operator, w, p["entries"])
    approx = t.call(ck.af_approximate, a, 2, p["eps"])
    need(approx.error < p["eps"], "block approximation error")
    rebuilt = t.call(ck.rebuild_from_coloring, w, approx.coloring)
    need(t.call(rebuilt.equals, approx.b, tol=0), "approximation is block-constant per colour")
    q = t.call(ck.quasi_check, a, "projection", 2)
    # the dense path is exact to rounding; power iteration approaches from below
    low = 1e-9 if len(p["points"]) <= DENSE_NORM_LIMIT else 1e-3
    for key in ("idempotent", "selfadjoint"):
        want = p[key]
        need(want * (1 - low) - 1e-12 <= q.deviations[key] <= want * (1 + 1e-9) + 1e-12,
             f"quasi {key} deviation {q.deviations[key]!r}, per-block norms give {want!r}")
    return w, 2


# -- nonamenable ---------------------------------------------------------------

def gen_components(rng, radius):
    center = random_word(rng, 2, 3)
    keep = [u for u in fg_ball_words(2, center, radius) if rng.random() < 0.6]
    return {"words": keep, "r": 2}


def _tree_classes(words, r):
    """Scale-r classes of a set of reduced words, from the Cayley tree's parent
    links: within distance 2 means parent, grandparent or sibling."""
    parent = {u: u for u in words}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def union(a, b):
        parent[find(a)] = find(b)

    siblings: dict = {}
    for u in words:
        if u and u[:-1] in parent:
            union(u, u[:-1])
        if r >= 2 and u:
            if len(u) >= 2 and u[:-2] in parent:
                union(u, u[:-2])
            siblings.setdefault(u[:-1], []).append(u)
    if r >= 2:
        for group in siblings.values():
            for v in group[1:]:
                union(v, group[0])
    classes: dict = {}
    for u in words:
        classes.setdefault(find(u), set()).add(u)
    return {frozenset(c) for c in classes.values()}


def run_components(t, p):
    space = t.call(ck.make_space, {"kind": "free_group", "rank": 2})
    w = t.call(ck.Window, space, p["words"])
    part = t.call(ck.components_at_scale, w, p["r"])
    need({frozenset(c) for c in part.classes} == _tree_classes(p["words"], p["r"]),
         "scale classes differ from the tree oracle")
    return w, p["r"]


def gen_tree_cover(rng, radius):
    return {"center": rng.randint(0, 12), "R": radius, "r": 2}


def run_tree_cover(t, p):
    space = t.call(ck.make_space, {"kind": "tree", "branching": 3})
    w = t.call(ck.ball, space, p["center"], p["R"])
    cover = t.call(ck.witness_tree, space, p["center"], p["r"], w)
    need(cover.bound <= 5 * p["r"], "tree cover bound")
    need(t.call(ck.verify_decomposition, cover).passed, "tree cover")
    roundtrip(t, ser.cover_to_payload, cover)
    return w, p["r"]


def gen_fg_ball(rng, radius):
    return {"center": random_word(rng, 2, rng.randint(0, 3)), "R": radius}


def run_matching_feasible(t, p):
    space = t.call(ck.make_space, {"kind": "free_group", "rank": 2})
    w = t.call(ck.ball, space, p["center"], p["R"])
    out = t.call(ck.matching_certificate, w, 1)
    need(out.feasible, "free-group ball has a doubling")
    need(out.flow_value == 2 * fg_ball_size(2, p["R"] - 1), "flow = 2 |interior|")
    roundtrip(t, ser.doubling_to_payload, out.doubling)
    return w, 1


def run_paradox(t, p):
    space = t.call(ck.make_space, {"kind": "free_group", "rank": 2})
    rule = t.call(ck.paradox_free_group, 2)
    w = t.call(ck.ball, space, p["center"], p["R"])
    rep = t.call(ck.verify_paradox, rule, w)
    need(rep.passed and rep.displacement == {"plus": 1, "minus": 1}, "free-group rule")
    roundtrip(t, ser.paradox_to_payload, rule, w)
    return w, 1


def run_properly_infinite(t, p):
    space = t.call(ck.make_space, {"kind": "free_group", "rank": 2})
    rule = t.call(ck.paradox_free_group, 2)
    w = t.call(ck.ball, space, p["center"], p["R"])
    x = t.call(ck.from_partial_translation,
               PartialTranslation(space, [(q, rule.t_plus(q)) for q in w.points]), w)
    y = t.call(ck.from_partial_translation,
               PartialTranslation(space, [(q, rule.t_minus(q)) for q in w.points]), w)
    rep = t.call(ck.verify_properly_infinite, t.call(ck.identity_operator, w), x, y, 1)
    need(rep.passed and rep.psd_method == "diagonal-exact", "proper infiniteness relations")
    return w, 1


def gen_folner_fail(rng, radius):
    return {"center": random_word(rng, 3, rng.randint(0, 3)), "R": radius}


def run_folner_fail(t, p):
    space = t.call(ck.make_space, {"kind": "free_group", "rank": 3})
    budget = FolnerBudget(ball_radius_max=p["R"], basepoint=p["center"])
    rep = t.call(ck.folner_search_report, space, 1, Fraction(1, 10), budget)
    need(rep.certificate is None and rep.candidates_tested == p["R"] + 1, "F_3 has no Folner ball")
    need(rep.best_ratio > 5, "ball ratio in F_3 exceeds 5")
    return None


def gen_transport(rng, radius):
    return {"center": random_word(rng, 2, rng.randint(0, 3)), "R": radius,
            "level": rng.randint(1, 2)}


def run_transport(t, p):
    space = t.call(ck.make_space, {"kind": "free_group", "rank": 2})
    prod = t.call(ck.make_space, {"kind": "product_finite",
                                  "base": {"kind": "free_group", "rank": 2}, "n": 2})
    rule = t.call(ck.paradox_free_group, 2)
    src = t.call(ck.ball, space, p["center"], p["R"])
    f = t.call(ck.CoarseMap, src, prod, {x: (x, p["level"]) for x in src.points})
    moved = t.call(ck.transport_paradox, rule, f)
    img = t.call(ck.Window, prod, f.image())
    rep = t.call(ck.verify_paradox, moved, img)
    need(moved.displacement == 1 and rep.passed, "transported rule")
    return img, 1


WORKLOADS = {
    "amenable": (
        Kind("line_cover", (1000, 2000, 4000), gen_line_cover, run_line_cover),
        Kind("grid2_cover", (20, 30, 40), gen_grid2_cover, run_grid2_cover),
        Kind("greedy_cover", (250, 500, 1000), gen_greedy, run_greedy),
        Kind("matching_cut", (300, 600, 1200), gen_matching_cut, run_matching_cut),
        Kind("folner_found", (5, 10, 20), gen_folner_found, run_folner_found),
        Kind("segments", (500, 1000, 2000), gen_segments, run_segments),
        Kind("shift_identities", (500, 1000, 2000), gen_shift, run_shift),
        Kind("net_extract", (18, 26, 36), gen_net, run_net),
        Kind("classify", (80, 160, 320), gen_classify, run_classify),
        Kind("tower", (8, 12, 16), gen_tower, run_tower),
        Kind("mv_split", (100, 200, 400), gen_mv, run_mv),
        Kind("af_quasi", (128, 512, 1024, 2048), gen_af, run_af),
    ),
    "nonamenable": (
        Kind("components", (6, 7, 8), gen_components, run_components),
        Kind("tree_cover", (4, 5, 6, 7), gen_tree_cover, run_tree_cover),
        Kind("matching_feasible", (4, 5, 6, 7), gen_fg_ball, run_matching_feasible),
        Kind("paradox", (4, 5, 6, 7), gen_fg_ball, run_paradox),
        Kind("properly_infinite", (5, 6, 7), gen_fg_ball, run_properly_infinite),
        Kind("folner_fail", (2, 3, 4, 5), gen_folner_fail, run_folner_fail),
        Kind("transport", (3, 4, 5), gen_transport, run_transport),
    ),
}
