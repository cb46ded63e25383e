"""Folner-set search, isoperimetric profiling, paradoxical decompositions,
doubling matchings on windows, transport along maps, and growth profiles.

Finite sets are never paradoxical, so window-level non-amenability evidence
takes the form of a 2-to-1 doubling matching from the r-interior into the
window (a Hall-condition certificate).  Exact partition-style decompositions
are produced only for rule-based infinite families (free groups) and their
transports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

import numpy as np

from .errors import (
    ExpansionUnbounded,
    CapExceeded,
    IntegerOverflow,
    MalformedSpec,
    NotInjective,
    RankTooSmall,
    Report,
)
from .maps import CoarseMap
from .spaces import BALL_CAP_DEFAULT, FreeGroupSpace, Space, Window


# ---------------------------------------------------------------------------
# partial translations and paradoxical decompositions
# ---------------------------------------------------------------------------

class PartialTranslation:
    """A bounded-displacement bijection between two subsets, stored as pairs."""

    def __init__(self, space: Space, pairs):
        flat = space.normalize_all(x for a, b in pairs for x in (a, b))
        pairs = list(zip(flat[::2], flat[1::2]))
        mapping = dict(pairs)
        if len(mapping) != len(pairs) or len(set(mapping.values())) != len(pairs):
            raise MalformedSpec("pairing is not a bijection")
        self.space = space
        self.pairs = tuple((a, mapping[a]) for a in space.canonical_sorted(mapping))

    @property
    def domain(self):
        return tuple(a for a, _ in self.pairs)

    @property
    def codomain(self):
        return tuple(b for _, b in self.pairs)

    @property
    def displacement(self) -> int:
        w = Window._canonical(self.space, self.domain + self.codomain)
        return _max_dist(w, w.ids(self.domain), w.ids(self.codomain), w.points)


@dataclass(frozen=True)
class ParadoxicalDecomposition:
    """Carrier A = A_+ |_| A_- with partial translations t_+/- : A -> A_+/-.

    Membership predicates and the translation rules are callables so that the
    same object can describe either a closed-form rule on an infinite space or
    an explicit window-materialized decomposition.  Translations may return
    None where they are undefined (possible near the boundary of transported
    decompositions).  Frozen: :meth:`on` keeps the last window's evaluation."""

    space: Space
    displacement: int
    in_carrier: Callable[[Any], bool]
    in_plus: Callable[[Any], bool]
    in_minus: Callable[[Any], bool]
    t_plus: Callable[[Any], Optional[Any]]
    t_minus: Callable[[Any], Optional[Any]]
    tag: str = ""
    _last: list = field(default_factory=list, init=False, repr=False, compare=False)

    def on(self, w: Window) -> tuple:
        """The rule evaluated on a window, each callable once per carrier
        point: (cidx, carrier, member, ids, outside).  cidx holds the window
        indices of the carrier points, and member and ids map each part,
        "plus" and "minus", to an array over the carrier: the membership, and
        the :meth:`Window.ids` of the images under t_+/- (-1 where t is
        undefined), with the images outside the window of both maps in
        outside.  The last window's evaluation is kept, so checking and
        serialising one window evaluate the rule once."""
        if self._last and self._last[0] is w:
            return self._last[1]
        pts, n = w.points, len(w.points)
        cidx = np.flatnonzero(np.fromiter(map(self.in_carrier, pts), dtype=bool, count=n))
        carrier = [pts[i] for i in cidx.tolist()]
        member = {name: np.fromiter(map(test, carrier), dtype=bool, count=len(carrier))
                  for name, test in (("plus", self.in_plus), ("minus", self.in_minus))}
        ys, outside = [*map(self.t_plus, carrier), *map(self.t_minus, carrier)], {}
        both = np.full(len(ys), -1, dtype=np.int64)  # -1 where t is undefined
        both[[y is not None for y in ys]] = w.ids([y for y in ys if y is not None], outside)
        ids = {"plus": both[:len(carrier)], "minus": both[len(carrier):]}
        self._last[:] = w, (cidx, carrier, member, ids, tuple(outside))
        return self._last[1]

    def materialize(self, w: Window) -> dict:
        """Explicit pair lists on a window, for serialization and re-checking.
        Pairs whose image leaves the window are dropped (the membership sets
        are window-clipped, so keeping them would break containment)."""
        enc, n = self.space.point_to_json, len(w.points)
        _, carrier, member, ids, _ = self.on(w)

        def pairs(name):
            return [[enc(a), enc(w.points[j])] for a, j in zip(carrier, ids[name].tolist()) if 0 <= j < n]

        return {
            "displacement": self.displacement,
            "carrier": [enc(p) for p in carrier],
            "plus": [enc(p) for p, m in zip(carrier, member["plus"].tolist()) if m],
            "minus": [enc(p) for p, m in zip(carrier, member["minus"].tolist()) if m],
            "t_plus": pairs("plus"),
            "t_minus": pairs("minus"),
            "tag": self.tag,
        }


def paradox_from_pairs(space, displacement, plus, minus, t_plus_pairs, t_minus_pairs, tag=""):
    """Window-materialized decomposition from explicit sets and pair lists."""
    norm = space.normalize
    t_plus = {norm(a): norm(b) for a, b in t_plus_pairs}
    t_minus = {norm(a): norm(b) for a, b in t_minus_pairs}
    return paradox_from_sets(space, displacement, frozenset(map(norm, plus)),
                             frozenset(map(norm, minus)), t_plus, t_minus, tag)


def paradox_from_sets(space, displacement, plus: frozenset, minus: frozenset,
                      t_plus: dict, t_minus: dict, tag=""):
    """Window-materialized decomposition from sets and maps of canonical points."""
    carrier = plus | minus
    return ParadoxicalDecomposition(
        space=space,
        displacement=displacement,
        in_carrier=lambda x: x in carrier,
        in_plus=lambda x: x in plus,
        in_minus=lambda x: x in minus,
        t_plus=t_plus.get,
        t_minus=t_minus.get,
        tag=tag,
    )


def paradox_free_group(rank: int) -> ParadoxicalDecomposition:
    """The displacement-1 rule on the free group of the given rank.

    Splitting by the final letter of the maximal {a, b}-suffix s(x):
    A_+ collects words with s(x) ending in a or a^-1 together with those with
    empty suffix (in rank 2 that is exactly the identity); A_- collects words
    with s(x) ending in b or b^-1.  t_+ fixes x when s(x) ends in a^-1 or is a
    power of a, and right-multiplies by a otherwise; t_- fixes x when s(x)
    ends in b^-1 and right-multiplies by b otherwise.  Both are bijections
    onto their parts, coset by coset.
    """
    if not isinstance(rank, int) or rank < 2:
        raise RankTooSmall(f"need rank >= 2, got {rank!r}")
    space = FreeGroupSpace(rank)

    # s(x) ends in b^+-1 exactly when x does, and in a^-1 exactly when x
    # does; s(x) is a power of a exactly when x without its final a's does
    # not end in b^+-1.  Where t moves x, x does not end in the inverse of
    # the letter it appends, so the product needs no cancellation
    def in_minus(x):
        return x.endswith(("b", "B"))

    def t_plus(x):
        return x + "a" if x.rstrip("a").endswith(("b", "B")) else x

    def t_minus(x):
        return x if x.endswith("B") else x + "b"

    return ParadoxicalDecomposition(
        space=space,
        displacement=1,
        in_carrier=lambda x: True,
        in_plus=lambda x: not x.endswith(("b", "B")),
        in_minus=in_minus,
        t_plus=t_plus,
        t_minus=t_minus,
        tag=f"free_group_rank_{rank}",
    )


@dataclass(frozen=True)
class ParadoxReport(Report):
    partition_ok: bool
    injective_ok: dict
    image_ok: dict
    displacement_ok: dict
    displacement: dict
    disjoint_images_ok: bool
    interior_defined_ok: dict
    interior_surjective_ok: dict
    witness: Optional[dict]

    @property
    def passed(self) -> bool:
        return (
            self.partition_ok
            and all(self.injective_ok.values())
            and all(self.image_ok.values())
            and all(self.displacement_ok.values())
            and self.disjoint_images_ok
            and all(self.interior_defined_ok.values())
            and all(self.interior_surjective_ok.values())
        )


def _max_dist(w: Window, I, J, every) -> int:
    """The largest d(every[I[k]], every[J[k]]), 0 for no pairs, over id arrays
    whose ids below len(w) are window indices: pairs inside the window in one
    kernel call, the others one ``dist`` call each.  Where a distance lies
    outside int64 every pair takes ``dist``, so the maximum is the exact
    Python int."""
    space, inside = w.space, (I < len(w.points)) & (J < len(w.points))
    try:
        d = space.paired_dist(w.layout, I[inside], J[inside])
    except IntegerOverflow:  # then every pair takes dist
        d, inside = np.zeros(0, dtype=np.int64), np.zeros_like(inside)
    return max([int(d.max()) if len(d) else 0,
                *(space.dist(every[i], every[j]) for i, j in zip(I[~inside].tolist(), J[~inside].tolist()))])


def _first(mask) -> Optional[int]:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else None


def verify_paradox(p: ParadoxicalDecomposition, w: Window) -> ParadoxReport:
    """Re-check a decomposition on a window and its displacement-interior.

    The rule is evaluated once per window (:meth:`ParadoxicalDecomposition.on`)
    and the checks run on window index arrays.  Where several points break
    one check, the witness is the first in window order."""
    enc = p.space.point_to_json
    pts, n = w.points, len(w.points)
    witness = None
    cidx, carrier, member, all_ids, outside = p.on(w)
    every = pts + outside  # the point of each image id
    in_carrier = np.zeros(n, dtype=bool)
    in_carrier[cidx] = True
    # a carrier point in both parts, else one in neither
    k = _first(member["plus"] & member["minus"])
    k = _first(~(member["plus"] | member["minus"])) if k is None else k
    partition_ok = k is None
    if not partition_ok:
        witness = {"kind": "partition", "point": enc(carrier[k])}
    # an empty carrier makes every check below vacuous
    interior = w.interior_mask(p.displacement)
    uncovered = _first(interior & ~in_carrier)
    if not carrier:
        partition_ok = False
        if witness is None:
            witness = {"kind": "empty_carrier"}
    elif uncovered is not None:
        partition_ok = False
        if witness is None:
            witness = {"kind": "interior_outside_carrier", "point": enc(pts[uncovered])}
    inner = interior[cidx]

    injective_ok, image_ok, disp_ok, disp_val = {}, {}, {}, {}
    interior_defined_ok, interior_surjective_ok = {}, {}
    images = {}
    for name, test in (("plus", p.in_plus), ("minus", p.in_minus)):
        ids = all_ids[name]
        defined = ids >= 0
        # the first earlier carrier point with the same image, where there is one
        dk = np.flatnonzero(defined)
        _, first, inv = np.unique(ids[dk], return_index=True, return_inverse=True)
        earlier = np.full(len(carrier), -1, dtype=np.int64)
        repeat = first[inv] < np.arange(len(dk))
        earlier[dk[repeat]] = dk[first[inv][repeat]]
        # an image in the carrier is tested on the membership array, any
        # other by the predicate
        in_part, carried = np.zeros((2, len(every)), dtype=bool)
        in_part[cidx], carried[cidx] = member[name], True
        img_bad = np.zeros(len(carrier), dtype=bool)
        img_bad[dk] = ~in_part[ids[dk]]
        for k in dk[~carried[ids[dk]]].tolist():
            img_bad[k] = not test(every[ids[k]])
        undefined_bad = ~defined & inner
        k = _first(undefined_bad | (earlier >= 0) | img_bad)
        if k is not None and witness is None:
            if undefined_bad[k]:
                witness = {"kind": f"undefined_{name}", "point": enc(carrier[k])}
            elif earlier[k] >= 0:
                witness = {"kind": f"collision_{name}", "pair": [enc(carrier[earlier[k]]), enc(carrier[k])]}
            else:
                witness = {"kind": f"image_{name}", "pair": [enc(carrier[k]), enc(every[ids[k]])]}
        injective_ok[name] = not (earlier >= 0).any()
        image_ok[name] = not img_bad.any()
        dmax = _max_dist(w, cidx[dk], ids[dk], every)
        disp_val[name] = dmax
        disp_ok[name] = dmax <= p.displacement
        if not disp_ok[name] and witness is None:
            witness = {"kind": f"displacement_{name}", "value": dmax}
        interior_defined_ok[name] = not undefined_bad.any()
        images[name] = ids[dk]
        hit = np.zeros(n, dtype=bool)
        hit[ids[dk][ids[dk] < n]] = True
        missed = np.zeros(n, dtype=bool)
        missed[cidx] = member[name] & inner
        k = _first(missed & ~hit)
        interior_surjective_ok[name] = k is None
        if k is not None and witness is None:
            witness = {"kind": f"not_covered_{name}", "point": enc(pts[k])}

    both = np.intersect1d(images["plus"], images["minus"])
    disjoint = not len(both)
    if not disjoint and witness is None:
        witness = {"kind": "images_overlap", "point": enc(every[both[0]])}
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


def transport_paradox(
    p: ParadoxicalDecomposition,
    f: CoarseMap,
    declared_bound: Optional[int] = None,
) -> ParadoxicalDecomposition:
    """Push a decomposition forward along an injective uniformly expansive map.

    sigma_+/-(f(x)) = f(t_+/-(x)) for x in the source window; the result is a
    window-materialized decomposition on the image."""
    src = f.source
    _, carrier, member, ids, _ = p.on(src)
    n = len(src.points)
    values = {}
    for x in carrier:
        y = f(x)
        if y in values:
            raise NotInjective(
                f"map collapses {values[y]!r} and {x!r}", witness=(values[y], x)
            )
        values[y] = x

    dt = f.target_space
    plus, minus = member["plus"].tolist(), member["minus"].tolist()
    plus_img = [f(x) for x, m in zip(carrier, plus) if m]
    minus_img = [f(x) for x, m, mp in zip(carrier, minus, plus) if m and not mp]
    tp_pairs, tm_pairs = [], []
    disp = 0
    for x, jp, jm in zip(carrier, ids["plus"].tolist(), ids["minus"].tolist()):
        fx = f(x)
        for j, acc in ((jp, tp_pairs), (jm, tm_pairs)):
            if not 0 <= j < n:  # undefined, or outside the source window
                continue
            y = src.points[j]
            d = dt.dist(fx, f(y))
            if declared_bound is not None and d > declared_bound:
                raise ExpansionUnbounded(
                    f"pair ({x!r}, {y!r}) expands to distance {d} > {declared_bound}",
                    witness=(x, y),
                )
            disp = max(disp, d)
            acc.append((fx, f(y)))
    return paradox_from_pairs(
        dt, disp, plus_img, minus_img, tp_pairs, tm_pairs,
        tag=f"transport({p.tag})",
    )


# ---------------------------------------------------------------------------
# Folner certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FolnerCertificate:
    space: Space
    F: tuple
    r: int
    eps: Fraction
    neighborhood_size: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.neighborhood_size, len(self.F))

    def to_json(self) -> dict:
        enc = self.space.point_to_json
        return {
            "F": [enc(p) for p in self.F],
            "r": self.r,
            "eps": str(self.eps),
            "neighborhood_size": self.neighborhood_size,
            "ratio": str(self.ratio),
        }


def verify_folner(cert: FolnerCertificate) -> dict:
    """Recompute |N_r(F)| from F alone and re-check the ratio bound."""
    n = cert.space.neighborhood_size(cert.F, cert.r)
    if not cert.F or len(set(cert.F)) < len(cert.F):  # a repeat would count twice in |F|
        return {"recomputed": n, "declared": cert.neighborhood_size, "ok": False,
                "reason": "repeated_point" if cert.F else "empty_F"}
    ok = (
        n == cert.neighborhood_size
        and Fraction(n, len(cert.F)) <= 1 + cert.eps
    )
    return {"recomputed": n, "declared": cert.neighborhood_size, "ok": ok}


FOLNER_MAX_CANDIDATES = 10_000


@dataclass
class FolnerBudget:
    ball_radius_max: int = 64
    subsets_of_ball: Optional[int] = None  # exhaustive over subsets of this ball
    local_rounds: int = 0
    basepoint: Any = None

    @staticmethod
    def parse(text: str) -> "FolnerBudget":
        """Budget strings: 'balls:R', 'subsets-of-ball:R', 'local:R,ROUNDS'."""
        kind, _, arg = text.partition(":")
        try:
            if kind == "balls":
                return FolnerBudget(ball_radius_max=int(arg))
            if kind == "subsets-of-ball":
                return FolnerBudget(subsets_of_ball=int(arg))
            if kind == "local":
                radius, _, rounds = arg.partition(",")
                return FolnerBudget(ball_radius_max=int(radius), local_rounds=int(rounds or 8))
        except ValueError as exc:
            raise MalformedSpec(f"budget spec {text!r} needs integer arguments") from exc
        raise MalformedSpec(f"unknown budget spec {text!r}")


@dataclass
class FolnerSearchReport:
    certificate: Optional[FolnerCertificate]
    best_ratio: Optional[Fraction]
    best_set: Optional[tuple]
    candidates_tested: int


def _ratio_of(space, F, r) -> Fraction:
    return Fraction(space.neighborhood_size(F, r), len(F))


def folner_search_report(
    space: Space, r: int, eps, budget: Optional[FolnerBudget] = None
) -> FolnerSearchReport:
    if r < 1:
        raise MalformedSpec("scale must be >= 1")
    try:
        eps = Fraction(eps)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise MalformedSpec(f"eps must be a rational number, got {eps!r}") from exc
    if eps <= 0:
        raise MalformedSpec("eps must be > 0")
    budget = budget or FolnerBudget()
    if min(budget.ball_radius_max, budget.subsets_of_ball or 0, budget.local_rounds) < 0:
        raise MalformedSpec("budget radii and round counts must be >= 0")
    base = space.normalize(budget.basepoint) if budget.basepoint is not None else space.origin()
    bound = 1 + eps

    if budget.subsets_of_ball is not None:
        return _folner_exhaustive(space, r, eps, base, budget.subsets_of_ball)

    # in a graph metric N_r(B_j) = B_(j+r): where both counts are exact, the
    # candidate balls are counted, and only the best one is listed
    counted = space.graph_like
    tested, best, best_j, best_set, size = 0, None, None, None, None
    for j in range(budget.ball_radius_max + 1):
        if tested >= FOLNER_MAX_CANDIDATES:
            break
        n = space.ball_count(base, j + r, BALL_CAP_DEFAULT) if counted else BALL_CAP_DEFAULT + 1
        F = None if n <= BALL_CAP_DEFAULT else tuple(space.ball_points(base, j))
        m = space.ball_count(base, j, BALL_CAP_DEFAULT) if F is None else len(F)
        if m == size:
            break  # space exhausted around the basepoint
        size = m
        if F is not None:
            n = space.neighborhood_size(F, r)
        ratio = Fraction(n, size)
        tested += 1
        if best is None or ratio < best:
            best, best_j, best_set = ratio, j, F
        if ratio <= bound:
            break
    if best_set is None:  # j = 0 always runs
        best_set = tuple(space.ball_points(base, best_j))

    if best > bound and budget.local_rounds > 0:
        F = set(best_set)
        for _ in range(budget.local_rounds):
            if tested >= FOLNER_MAX_CANDIDATES:
                break
            moves = [("drop", p) for p in space.canonical_sorted(F)]
            moves += [("add", p) for p in space.canonical_sorted(space.neighborhood(F, r) - F)]
            for kind, p in moves:
                if tested >= FOLNER_MAX_CANDIDATES:
                    break
                cand = F - {p} if kind == "drop" else F | {p}
                if not cand:
                    continue
                ratio = _ratio_of(space, tuple(cand), r)
                tested += 1
                if ratio < best:  # the first move that improves is taken
                    best, F, best_set = ratio, cand, tuple(space.canonical_sorted(cand))
                    break
            else:  # no move improves
                break
    # best = |N_r(best_set)| / |best_set|
    cert = FolnerCertificate(space, best_set, r, eps, int(best * len(best_set))) if best <= bound else None
    return FolnerSearchReport(cert, best, best_set, tested)


def _subset_neighborhood_sizes(space, points, r):
    """Yield |N_r(F)| for every nonempty subset F of points, in bitmask order
    (bit i stands for points[i]); each neighborhood is that of the mask
    without its lowest bit, joined with the lowest point's ball."""
    universe: dict = {}
    balls = []
    for p in points:
        bits = 0
        for q in space.ball_points(p, r):
            bits |= 1 << universe.setdefault(q, len(universe))
        balls.append(bits)
    nbr = [0] * (1 << len(points))
    for mask in range(1, len(nbr)):
        low = mask & -mask
        nbr[mask] = nbr[mask ^ low] | balls[low.bit_length() - 1]
        yield nbr[mask].bit_count()


def _folner_exhaustive(space, r, eps, base, ball_radius) -> FolnerSearchReport:
    ground = space.canonical_sorted(space.ball_points(base, ball_radius))
    m = len(ground)
    if m > 22:
        raise MalformedSpec(f"exhaustive budget over {m} points (2^{m} subsets) is too large")
    total = 1 << m
    best_n, best_f, best_mask = None, None, None
    bound_num = (eps + 1).numerator
    bound_den = (eps + 1).denominator
    cert_mask = cert_n = None
    for mask, nsize in enumerate(_subset_neighborhood_sizes(space, ground, r), 1):
        fsize = mask.bit_count()
        if best_n is None or nsize * best_f < best_n * fsize:
            best_n, best_f, best_mask = nsize, fsize, mask
        if cert_mask is None and nsize * bound_den <= bound_num * fsize:
            cert_mask, cert_n = mask, nsize
    best_set = tuple(ground[i] for i in range(m) if best_mask >> i & 1)
    cert = None
    if cert_mask is not None:
        F = tuple(ground[i] for i in range(m) if cert_mask >> i & 1)
        cert = FolnerCertificate(space, F, r, eps, cert_n)
    return FolnerSearchReport(cert, Fraction(best_n, best_f), best_set, total - 1)


def folner_search(space, r, eps, budget=None) -> Optional[FolnerCertificate]:
    return folner_search_report(space, r, eps, budget).certificate


def isoperimetric_profile(w: Window, r: int, mode: str = "greedy", size_cap: Optional[int] = None):
    """Per size, the minimal |N_r(F)| / |F| found over F inside the window
    (neighborhoods are ambient).  Returns a sorted list of (size, Fraction)."""
    if r < 0:
        raise MalformedSpec("scale must be >= 0")
    space = w.space
    n = len(w.points)
    size_cap = size_cap if size_cap is not None else n
    best: dict[int, Fraction] = {}

    def record(F):
        k = len(F)
        if 1 <= k <= size_cap:
            ratio = _ratio_of(space, F, r)
            if k not in best or ratio < best[k]:
                best[k] = ratio

    if mode == "exhaustive":
        if n > 20:
            raise CapExceeded(f"exhaustive mode needs |w| <= 20, got {n}")
        for mask, nsize in enumerate(_subset_neighborhood_sizes(space, w.points, r), 1):
            k = mask.bit_count()
            if k <= size_cap:
                ratio = Fraction(nsize, k)
                if k not in best or ratio < best[k]:
                    best[k] = ratio
    elif mode == "balls":
        for i in range(n):
            d = space.paired_dist(w.layout, i, np.arange(n)).tolist()
            for j in sorted(set(d)):  # a radius between two distances repeats a ball
                record(tuple(q for q, dq in zip(w.points, d) if dq <= j))
    elif mode == "greedy":
        F: list = [w.points[0]]
        record(tuple(F))
        remaining = [p for p in w.points[1:]]
        while remaining and len(F) < size_cap:
            scored = [
                (space.neighborhood_size(F + [q], r), space.canonical_key(q), q)
                for q in remaining
            ]
            _, _, q = min(scored)
            F.append(q)
            remaining.remove(q)
            record(tuple(F))
    else:
        raise MalformedSpec(f"unknown mode {mode!r}")
    return sorted(best.items())


# ---------------------------------------------------------------------------
# doubling matchings on windows (max-flow route)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowedDoubling:
    window: Window
    r: int
    interior: tuple
    u_plus: dict
    u_minus: dict

    def to_json(self) -> dict:
        space = self.window.space
        enc = space.point_to_json
        return {
            "r": self.r,
            "interior": [enc(p) for p in self.interior],
            "u_plus": [[enc(a), enc(self.u_plus[a])] for a in space.canonical_sorted(self.u_plus)],
            "u_minus": [[enc(a), enc(self.u_minus[a])] for a in space.canonical_sorted(self.u_minus)],
        }


def verify_doubling(d: WindowedDoubling) -> dict:
    """Recheck injectivity, image disjointness, displacement, and domains, on
    ids of the points (:meth:`Window.ids`), each point looked up once."""
    w, outside = d.window, {}
    parts = (d.interior, d.u_plus, d.u_plus.values(), d.u_minus, d.u_minus.values())
    ids = w.ids([p for part in parts for p in part], outside)
    interior, Ap, Bp, Am, Bm = np.split(ids, np.cumsum([len(part) for part in parts])[:-1])
    interior = np.unique(interior)
    report = {
        "domains_ok": np.array_equal(np.sort(Ap), interior) and np.array_equal(np.sort(Am), interior),
        "injective_ok": len(np.unique(Bp)) == len(Bp) and len(np.unique(Bm)) == len(Bm),
        "disjoint_ok": not len(np.intersect1d(Bp, Bm)),
        "displacement_ok": not len(Ap) + len(Am) or _max_dist(
            w, np.concatenate([Ap, Am]), np.concatenate([Bp, Bm]), w.points + tuple(outside)) <= d.r,
        "range_ok": bool((Bp < len(w.points)).all() and (Bm < len(w.points)).all()),
        "interior_ok": np.array_equal(interior, np.flatnonzero(w.interior_mask(d.r))),
    }
    report["ok"] = all(report.values())
    return report


@dataclass
class MatchingOutcome:
    feasible: bool
    doubling: Optional[WindowedDoubling]
    cut: Optional[tuple]
    cut_neighborhood_size: Optional[int]
    flow_value: int


def matching_certificate(w: Window, r: int) -> MatchingOutcome:
    """2-to-1 doubling matching from Interior_r(w) into w via max flow.

    Feasible: returns the split assignment (ties broken by canonical order).
    Infeasible: returns a Hall violator F subseteq Interior with
    |N_r(F) ∩ w| < 2 |F|."""
    from scipy import sparse
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    if r < 1:
        raise MalformedSpec("scale must be >= 1")
    int_idx = np.flatnonzero(w.interior_mask(r))
    interior = [w.points[i] for i in int_idx.tolist()]
    n_int = len(interior)
    if n_int == 0:
        return MatchingOutcome(True, WindowedDoubling(w, r, (), {}, {}), None, None, 0)

    # adjacency: window points within r of each interior point (self included)
    adj = w.scale_graph(r)[int_idx] + sparse.csr_matrix(
        (np.ones(n_int, dtype=np.int8), (np.arange(n_int), int_idx)), shape=(n_int, len(w.points))
    )
    adj.sum_duplicates()
    target_ids = np.unique(adj.indices)
    n_tgt = len(target_ids)

    # nodes: source 0, interior points 1..n_int, targets, sink
    source, sink = 0, 1 + n_int + n_tgt
    int_nodes = 1 + np.arange(n_int)
    tgt_nodes = 1 + n_int + np.arange(n_tgt)
    rows = np.concatenate([np.zeros(n_int, dtype=np.int64),
                           np.repeat(int_nodes, np.diff(adj.indptr)), tgt_nodes])
    cols = np.concatenate([int_nodes, 1 + n_int + np.searchsorted(target_ids, adj.indices),
                           np.full(n_tgt, sink)])
    caps = np.concatenate([np.full(n_int, 2), np.full(adj.nnz, 2 * n_int + 1),
                           np.ones(n_tgt, dtype=np.int64)]).astype(np.int32)
    graph = sparse.csr_matrix((caps, (rows, cols)), shape=(sink + 1, sink + 1))
    res = maximum_flow(graph, source, sink)
    flow = res.flow

    if res.flow_value == 2 * n_int:
        # each interior node sends one unit to each of two targets: the
        # positive entries of its flow row, the lesser target to u_plus
        lo, hi = flow.indptr[1], flow.indptr[1 + n_int]
        row = np.repeat(np.arange(n_int), np.diff(flow.indptr[1:2 + n_int]))
        pos = flow.data[lo:hi] > 0
        tgt = target_ids[flow.indices[lo:hi][pos] - 1 - n_int]
        ab = tgt[np.lexsort((tgt, row[pos]))].reshape(n_int, 2).T.tolist()
        u_plus, u_minus = (dict(zip(interior, map(w.points.__getitem__, t))) for t in ab)
        doubling = WindowedDoubling(w, r, tuple(interior), u_plus, u_minus)
        return MatchingOutcome(True, doubling, None, None, int(res.flow_value))

    # Hall violator: the interior points reachable from the source in the
    # residual network (positive capacity - flow, reverse edges included)
    residual = (graph - flow).tocsr()
    residual.data = (residual.data > 0).astype(np.int8)
    residual.eliminate_zeros()
    reach = np.zeros(sink + 1, dtype=bool)
    reach[breadth_first_order(residual, source, return_predecessors=False)] = True
    F_k = np.nonzero(reach[int_nodes])[0]
    F = tuple(interior[k] for k in F_k.tolist())
    n_nbrs = len(np.unique(adj[F_k].indices))
    if n_nbrs >= 2 * len(F):
        raise AssertionError("min-cut extraction produced a non-violating set")
    return MatchingOutcome(False, None, F, n_nbrs, int(res.flow_value))


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthProfile:
    sizes: tuple  # |B_n(x)| for n = 0..n_max
    tag: str      # polynomial-like | exponential-like | inconclusive
    tail_slope: float


def growth_profile(space: Space, x, n_max: int, cap: int = 2_000_000) -> GrowthProfile:
    """Ball sizes with an advisory growth tag from a log-scale regression on
    the upper half of the computed range (slope > 0.2 per step reads as
    exponential-like)."""
    if n_max < 1:
        raise MalformedSpec("n_max must be >= 1")
    x = space.normalize(x)
    sizes = space.ball_sizes(x, n_max, cap)
    if n_max < 3:
        return GrowthProfile(tuple(sizes), "inconclusive", 0.0)
    lo = n_max // 2
    ns = np.arange(lo, n_max + 1, dtype=float)
    ys = np.log([sizes[int(n)] for n in ns])
    slope = float(np.polyfit(ns, ys, 1)[0]) if len(ns) >= 2 else 0.0
    tag = "exponential-like" if slope > 0.2 else "polynomial-like"
    return GrowthProfile(tuple(sizes), tag, slope)
