"""Scale-r components, class-size profiles, and coarse line segments.

``components_at_scale`` computes the transitive closure of the relation
"d(x, y) <= r" inside a window.  Uniformly bounded class sizes across a
growing window sweep are the finite-window diagnostic for asymptotic
dimension zero; growing classes feed the segment extraction below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import MalformedSpec, NoSegments, Report
from .spaces import Space, Window


@dataclass(frozen=True)
class ScalePartition:
    window: Window
    r: int
    classes: tuple  # tuple of point tuples, canonically sorted

    @property
    def max_class_size(self) -> int:
        return max((len(c) for c in self.classes), default=0)

    def labels(self) -> np.ndarray:
        lab = np.empty(len(self.window.points), dtype=np.int64)
        lab[self.window.ids([p for cls in self.classes for p in cls])] = np.repeat(
            np.arange(len(self.classes)), [len(cls) for cls in self.classes])
        return lab

    def to_json(self) -> dict:
        enc = self.window.space.point_to_json
        return {"r": self.r, "classes": [[enc(p) for p in c] for c in self.classes]}


class ClassLayout:
    """The classes of a labelling of indices 0..n-1 numbered in first-occurrence
    order: class c holds the indices labelled c, ascending, so the classes run
    in the order of their first indices.  ``sizes`` has the size of each class,
    ``order`` the indices class by class, and ``pos`` the position of each
    index inside its class."""

    def __init__(self, labels: np.ndarray):
        self.labels = labels
        self.sizes = np.bincount(labels)
        self.order = np.argsort(labels, kind="stable")
        self._starts = np.cumsum(self.sizes) - self.sizes
        self.pos = np.empty_like(self.order)
        self.pos[self.order] = np.arange(len(labels)) - np.repeat(self._starts, self.sizes)

    @classmethod
    def of(cls, indptr, indices) -> "ClassLayout":
        """The components of the graph whose CSR row x lists edges x-y, read as undirected."""
        root = _hook_and_shortcut(indptr, indices)[0]
        return cls((np.cumsum(root == np.arange(len(root))) - 1)[root])

    @cached_property
    def classes(self) -> list:
        """Each class as an ascending list of indices."""
        flat = self.order.tolist()
        return [flat[a:a + s] for a, s in zip(self._starts.tolist(), self.sizes.tolist())]


def _hook_and_shortcut(indptr, indices) -> tuple:
    """The least index connected to each index in the graph of :meth:`ClassLayout.of`,
    and the rounds taken (Shiloach and Vishkin, J. Algorithms 3, 1982).  A round
    hooks each root to the least root it has an edge to (the first to each row's
    first entry, the least in sorted rows that list each edge at both ends), then
    jumps pointers to the roots and drops the edges inside a tree.  Pointers only
    go down, so a tree's root is its least index; a tree with an edge out merges
    within two rounds, so there are at most 2 ceil(log2 n) + 1."""
    n = len(indptr) - 1
    root, nonempty = np.arange(n), indptr[:-1] < indptr[1:]
    root[nonempty] = np.minimum(root[nonempty], indices[indptr[:-1][nonempty]])
    i, j, rounds = np.repeat(np.arange(n), np.diff(indptr)), indices, 1
    while True:
        while not np.array_equal(up := root[root], root):
            root = up
        if not (cross := root[i] != root[j]).any():
            return root, rounds
        i, j = i[cross], j[cross]
        a, b = root[i], root[j]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        rounds += 1


def scale_layout(w: Window, r: int) -> ClassLayout:
    """The ~_r classes of a window as a class layout over its indices."""
    if r < 0:
        raise MalformedSpec("scale must be >= 0")
    return ClassLayout.of(*w.scale_rows(r))


def components_at_scale(w: Window, r: int) -> ScalePartition:
    """Exact ~_r classes of a window, sorted canonically."""
    pts = w.points
    classes = scale_layout(w, r).classes
    return ScalePartition(w, r, tuple(tuple(pts[i] for i in c) for c in classes))


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
        pts = self.all_points()
        return _separations(self.segments, self.space.pairwise_dist(pts, pts))

    def basepoints(self) -> tuple:
        return tuple(s[0] for s in self.segments)

    def endpoints(self) -> tuple:
        return tuple(s[-1] for s in self.segments)

    def all_points(self) -> list:
        return [p for s in self.segments for p in s]

    def to_json(self) -> dict:
        enc = self.space.point_to_json
        return {"r": self.r, "segments": [[enc(p) for p in s] for s in self.segments]}


def _segment_rows(segs) -> list:
    """The run of rows of each segment in a matrix over the family's points."""
    ends = np.cumsum([len(s) for s in segs]).tolist()
    return [slice(e - len(s), e) for s, e in zip(segs, ends)]


def _separations(segs, D) -> list[int]:
    """For each nonempty segment, min distance to any other segment, read
    from the distance matrix D over the family's points."""
    if len(segs) < 2:
        return []
    rows = _segment_rows(segs)
    return [
        min(int(D[a, b].min()) for m, b in enumerate(rows) if m != n)
        for n, a in enumerate(rows)
    ]


@dataclass(frozen=True)
class SegmentConditionReport(Report):
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


def verify_segments(fam: SegmentFamily) -> SegmentConditionReport:
    """Check the four segment-family conditions, reporting per segment; every
    distance is read from one matrix over the family's points."""
    r, pts = fam.r, fam.all_points()
    D = fam.space.pairwise_dist(pts, pts)
    steps_ok, anchored_ok = [], []
    violation = None
    for n, rows in enumerate(_segment_rows(fam.segments)):
        block = D[rows, rows]
        steps = block.diagonal(1).tolist()
        anchors = block[0].tolist() if len(block) else []
        bad = {"step": next((i for i, d in enumerate(steps) if d > 2 * r), None),
               "anchored": next((i for i, d in enumerate(anchors)
                                 if i and not i * r <= d < (i + 1) * r), None)}
        steps_ok.append(bad["step"] is None)
        anchored_ok.append(bad["anchored"] is None)
        for condition, i in bad.items():
            if i is not None and violation is None:
                violation = {"segment": n, "condition": condition, "index": i}
    lens = fam.lengths
    # lengths rise strictly from 0, so neither the family nor a segment is empty
    lengths_ok = bool(lens) and all(a < b for a, b in zip((0, *lens), lens))
    if not lengths_ok and violation is None:
        violation = {"condition": "lengths"}
    seps = _separations(fam.segments, D) if all(lens) else []
    sep_pos = all(d > 0 for d in seps)
    sep_mono = all(a <= b for a, b in zip(seps, seps[1:]))
    if not (sep_pos and sep_mono) and violation is None:
        violation = {"condition": "separation", "separations": seps}
    return SegmentConditionReport(
        steps_ok, anchored_ok, lengths_ok, sep_pos, sep_mono, seps, violation
    )


def _select_segment(w, r, path, d, need_m):
    """First-entry selection along a chain of window indices whose steps are
    <= r (d[k] is the distance from its first point to its k-th): pick the
    first point entering each anchored interval [i*r, (i+1)*r), up to need_m
    points."""
    sel = [path[0]]
    for k, dk in zip(path[1:], d[1:]):
        if len(sel) == need_m:
            break
        if dk >= len(sel) * r:
            sel.append(k)
    # a-posteriori step bound; trim at the first violation
    for i in range(len(sel) - 1):
        if w.space.dist(w.points[sel[i]], w.points[sel[i + 1]]) > 2 * r:
            return sel[: i + 1]
    return sel


def _grow_from(w, r, keep, steps, start, need_m):
    """The window indices of a segment of need_m points along a BFS tree of
    ``steps`` (a graph on the indices keep) from start towards its farthest
    point (ties broken canonically), or None."""
    from scipy.sparse.csgraph import breadth_first_order

    order, parents = breadth_first_order(steps, start, return_predecessors=True)
    d = np.zeros(len(keep), dtype=np.int64)
    d[order] = w.space.paired_dist(w.layout, keep[start], keep[order])
    best_d = int(d[order].max())
    if best_d < (need_m - 1) * r:
        return None
    node = int(order[d[order] == best_d].min())
    path, parents = [], parents.tolist()  # the walk reads Python ints
    while node >= 0:
        path.append(node)
        node = parents[node]
    path = path[::-1]
    sel = _select_segment(w, r, keep[path].tolist(), d[path].tolist(), need_m)
    return sel if len(sel) == need_m else None


def _segment_in(w, r, keep, reach, steps, need_m):
    """The window indices of the first segment of need_m points grown in a
    ~_r class of the indices keep, classes in canonical order, from the
    class's first point, then its farthest."""
    for members in ClassLayout.of(reach.indptr, reach.indices).classes:
        if len(members) < need_m:
            continue
        s0 = members[0]
        d0 = w.space.paired_dist(w.layout, keep[s0], keep[members])
        far = members[len(d0) - 1 - int(np.argmax(d0[::-1]))]
        for start in (s0, far) if far != s0 else (s0,):
            seg = _grow_from(w, r, keep, steps, start, need_m)
            if seg is not None:
                return seg
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
    n = len(budget.points)
    reach = budget.scale_graph(r)
    steps = budget.scale_graph(1) if space.graph_like else reach  # graph-like BFS takes unit steps
    keep = np.arange(n)
    chosen: list[list] = []  # the segments as window indices
    while len(chosen) < count:
        if chosen:
            # distances from every budget point to the family's points
            fam = np.concatenate(chosen)
            near = space.paired_dist(budget.layout, np.arange(n)[:, None], fam)
            radius = max(len(chosen), max(_separations(chosen, near[fam]), default=0))
            keep = np.flatnonzero(near.min(axis=1) > radius)
        need_m = (len(chosen[-1]) + 1) if chosen else 2
        # the breadth-first search visits neighbours in the order of the row indices
        seg = _segment_in(budget, r, keep, reach[keep][:, keep],
                          steps[keep][:, keep].sorted_indices(), need_m)
        if seg is None:
            raise NoSegments(
                f"after {len(chosen)} segments, no remaining chain class within the "
                f"budget supports a segment of {need_m} points at scale {r}"
            )
        chosen.append(seg)
    return SegmentFamily(space, r, tuple(tuple(budget.points[i] for i in seg) for seg in chosen))
