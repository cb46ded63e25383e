"""Scale-r components, class-size profiles, and coarse line segments.

``components_at_scale`` computes the transitive closure of the relation
"d(x, y) <= r" inside a window.  Uniformly bounded class sizes across a
growing window sweep are the finite-window diagnostic for asymptotic
dimension zero; growing classes feed the segment extraction below.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.sparse.csgraph import connected_components

from .errors import MalformedSpec, NoSegments
from .spaces import Space, Window, pairwise_dist


@dataclass(frozen=True)
class ScalePartition:
    window: Window
    r: int
    classes: tuple  # tuple of point tuples, canonically sorted

    @property
    def max_class_size(self) -> int:
        return max((len(c) for c in self.classes), default=0)

    def class_of(self, p):
        for c in self.classes:
            if p in c:
                return c
        return None

    def labels(self) -> np.ndarray:
        lab = np.empty(len(self.window.points), dtype=np.int64)
        for ci, cls in enumerate(self.classes):
            for p in cls:
                lab[self.window.index(p)] = ci
        return lab

    def to_json(self) -> dict:
        enc = self.window.space.point_to_json
        return {"r": self.r, "classes": [[enc(p) for p in c] for c in self.classes]}


def components_at_scale(w: Window, r: int) -> ScalePartition:
    """Exact ~_r classes of a window, sorted canonically."""
    if r < 0:
        raise MalformedSpec("scale must be >= 0")
    if not w.points:
        return ScalePartition(w, r, ())
    _, labels = connected_components(w.scale_graph(r), directed=False)
    groups: dict[int, list] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(int(lab), []).append(i)
    classes = sorted(groups.values(), key=lambda g: g[0])
    pts = w.points
    return ScalePartition(w, r, tuple(tuple(pts[i] for i in g) for g in classes))


def class_size_profile(space: Space, r: int, windows: Sequence[Window]) -> list[int]:
    """Per-window maximum ~_r class size along a nested increasing window sweep."""
    prev: Optional[set] = None
    for w in windows:
        cur = set(w.points)
        if prev is not None and not (prev <= cur and len(cur) > len(prev)):
            raise MalformedSpec("windows must be nested and strictly increasing")
        prev = cur
    return [components_at_scale(w, r).max_class_size for w in windows]


# ---------------------------------------------------------------------------
# coarse line segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegmentFamily:
    space: Space
    r: int
    segments: tuple  # tuple of point tuples

    @property
    def lengths(self) -> tuple:
        return tuple(len(s) for s in self.segments)

    def separations(self) -> list[int]:
        """For each segment, min distance to any other segment in the family."""
        segs = self.segments
        if len(segs) < 2:
            return []
        ends = np.cumsum([len(s) for s in segs]).tolist()
        rows = [slice(e - len(s), e) for s, e in zip(segs, ends)]
        D = pairwise_dist(self.space, self.all_points(), self.all_points())
        return [
            min(int(D[a, b].min()) for m, b in enumerate(rows) if m != n)
            for n, a in enumerate(rows)
        ]

    def basepoints(self) -> tuple:
        return tuple(s[0] for s in self.segments)

    def endpoints(self) -> tuple:
        return tuple(s[-1] for s in self.segments)

    def all_points(self) -> list:
        return [p for s in self.segments for p in s]

    def to_json(self) -> dict:
        enc = self.space.point_to_json
        return {"r": self.r, "segments": [[enc(p) for p in s] for s in self.segments]}


@dataclass(frozen=True)
class SegmentConditionReport:
    steps_ok: list[bool]
    anchored_ok: list[bool]
    lengths_ok: bool
    separation_positive: bool
    separation_monotone: bool
    separations: list[int]
    first_violation: Optional[dict]

    @property
    def passed(self) -> bool:
        return (
            all(self.steps_ok)
            and all(self.anchored_ok)
            and self.lengths_ok
            and self.separation_positive
            and self.separation_monotone
        )

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def verify_segments(fam: SegmentFamily) -> SegmentConditionReport:
    """Check the four segment-family conditions, reporting per segment."""
    s, r = fam.space, fam.r
    steps_ok, anchored_ok = [], []
    violation = None
    for n, seg in enumerate(fam.segments):
        ok_s = True
        for i in range(len(seg) - 1):
            if s.dist(seg[i], seg[i + 1]) > 2 * r:
                ok_s = False
                if violation is None:
                    violation = {"segment": n, "condition": "step", "index": i}
                break
        steps_ok.append(ok_s)
        ok_a = True
        for i in range(1, len(seg)):
            d = s.dist(seg[0], seg[i])
            if not i * r <= d < (i + 1) * r:
                ok_a = False
                if violation is None:
                    violation = {"segment": n, "condition": "anchored", "index": i}
                break
        anchored_ok.append(ok_a)
    lens = fam.lengths
    # lengths rise strictly from 0, so neither the family nor a segment is empty
    lengths_ok = bool(lens) and all(a < b for a, b in zip((0, *lens), lens))
    if not lengths_ok and violation is None:
        violation = {"condition": "lengths"}
    seps = fam.separations() if all(lens) else []
    sep_pos = all(d > 0 for d in seps)
    sep_mono = all(a <= b for a, b in zip(seps, seps[1:]))
    if not (sep_pos and sep_mono) and violation is None:
        violation = {"condition": "separation", "separations": seps}
    return SegmentConditionReport(
        steps_ok, anchored_ok, lengths_ok, sep_pos, sep_mono, seps, violation
    )


def _bfs_tree(space: Space, allowed: set, start, r: int):
    """BFS within ``allowed``; unit steps when the space is graph-like,
    r-ball steps otherwise.  Returns (order, parents)."""
    parents = {start: None}
    order = [start]
    frontier = [start]
    unit = space.graph_like
    while frontier:
        nxt = []
        for p in frontier:
            if unit:
                cand = space.neighbors(p)
            else:
                cand = space.ball_points(p, r)
            for q in sorted(
                (q for q in cand if q in allowed and q not in parents),
                key=space.canonical_key,
            ):
                parents[q] = p
                order.append(q)
                nxt.append(q)
        frontier = nxt
    return order, parents


def _select_segment(space, r, start, path):
    """First-entry selection along a chain whose steps are <= r: pick the
    first point entering each anchored interval [i*r, (i+1)*r)."""
    sel = [start]
    nxt = 1
    for p in path[1:]:
        d = space.dist(start, p)
        if d >= nxt * r:
            sel.append(p)
            nxt += 1
    # a-posteriori step bound; trim at the first violation
    for i in range(len(sel) - 1):
        if space.dist(sel[i], sel[i + 1]) > 2 * r:
            return sel[: i + 1]
    return sel


def _grow_from(space, r, allowed, start, need_m):
    order, parents = _bfs_tree(space, allowed, start, r)
    need = (need_m - 1) * r
    # farthest reachable point in ambient distance, ties broken canonically
    best, best_d = None, -1
    for p in order:
        d = space.dist(start, p)
        if d > best_d or (d == best_d and space.canonical_key(p) < space.canonical_key(best)):
            best, best_d = p, d
    if best_d < need:
        return None
    node = best
    path = []
    while node is not None:
        path.append(node)
        node = parents[node]
    path.reverse()
    sel = _select_segment(space, r, start, path)
    if len(sel) >= need_m:
        return tuple(sel[:need_m])
    return None


def extract_segments(space: Space, r: int, count: int, budget: Window) -> SegmentFamily:
    """Recursive-exclusion extraction of a family of coarse line segments.

    Each round excises a neighborhood of the segments chosen so far (radius
    grows with both the round index and the current family separation, which
    keeps the final separation sequence nondecreasing), then grows a strictly
    longer chain in some remaining class.  Raises NoSegments when every class
    met within the budget is bounded by the current longest segment.
    """
    if count < 1:
        raise MalformedSpec("count must be >= 1")
    if r < 1:
        raise MalformedSpec("scale must be >= 1")
    if budget.space is not space:
        raise MalformedSpec("budget window must live in the target space")
    chosen: list[tuple] = []
    while len(chosen) < count:
        n_sofar = len(chosen)
        if n_sofar == 0:
            remaining = list(budget.points)
        else:
            fam = SegmentFamily(space, r, tuple(chosen))
            seps = fam.separations()
            radius = max(n_sofar, max(seps, default=0))
            near = pairwise_dist(space, budget.points, fam.all_points()).min(axis=1)
            remaining = [p for p, d in zip(budget.points, near.tolist()) if d > radius]
        need_m = (len(chosen[-1]) + 1) if chosen else 2
        part = components_at_scale(budget.subwindow(remaining), r) if remaining else None
        seg = None
        if part is not None:
            for cls in part.classes:
                if len(cls) < need_m:
                    continue
                allowed = set(cls)
                starts = [cls[0]]
                far = max(cls, key=lambda q: (space.dist(cls[0], q), space.canonical_key(q)))
                if far != cls[0]:
                    starts.append(far)
                for start in starts:
                    seg = _grow_from(space, r, allowed, start, need_m)
                    if seg is not None:
                        break
                if seg is not None:
                    break
        if seg is None:
            raise NoSegments(
                f"after {len(chosen)} segments, no remaining chain class within the "
                f"budget supports a segment of {need_m} points at scale {r}"
            )
        chosen.append(seg)
    return SegmentFamily(space, r, tuple(chosen))
