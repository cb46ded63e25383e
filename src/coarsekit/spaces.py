"""Bounded-geometry metric spaces with exact integer distances, and finite windows.

Every space kind provides an exact integer-valued distance oracle on canonical
point ids.  A :class:`Window` is a finite, canonically ordered subset of a space
carrying ambient distances; it is the universe for all downstream computations.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left, bisect_right
from functools import cached_property, lru_cache
from math import comb
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    EnumerationOverflow,
    IntegerOverflow,
    MalformedSpec,
    MetricViolation,
    UnknownPoint,
)

PointId = Any

BALL_CAP_DEFAULT = 2_000_000
METRIC_CHECK_CAP = 300  # verify_metric tries every triple of the window

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


# ---------------------------------------------------------------------------
# reduced-word helpers (free groups)
# ---------------------------------------------------------------------------

def word_dist(u: str, v: str) -> int:
    # |u^-1 v| = |u| + |v| - 2 * (longest common prefix)
    if v.startswith(u) or u.startswith(v):  # one extends the other, as a neighbour or an image does
        return abs(len(u) - len(v))
    k = 0
    m = min(len(u), len(v))
    while k < m and u[k] == v[k]:
        k += 1
    return (len(u) - k) + (len(v) - k)


# ---------------------------------------------------------------------------
# space kinds
# ---------------------------------------------------------------------------

class Space:
    """Base class: an integer-valued metric space with a total distance oracle."""

    kind = "abstract"
    graph_like = False          # unit steps generate the metric
    geodesic_extension = False  # geodesics from any anchor extend past any point
    finite = False

    # -- points ------------------------------------------------------------
    def normalize(self, x) -> PointId:
        """Return the canonical encoding of ``x``, or raise UnknownPoint."""
        raise NotImplementedError

    def normalize_all(self, xs) -> list:
        """``normalize`` of each of xs, in order, raising at the first it refuses."""
        return list(map(self.normalize, xs))

    def canonical_key(self, x):
        """Sort key inducing the canonical total order on points: by default
        the points themselves."""
        return x

    def canonical_sorted(self, points) -> list:
        """The points in canonical order; equal keys keep their order."""
        identity = type(self).canonical_key is Space.canonical_key  # then no call per point
        return sorted(points, key=None if identity else self.canonical_key)

    def origin(self) -> PointId:
        raise NotImplementedError

    # -- metric ------------------------------------------------------------
    def dist(self, x, y) -> int:
        raise NotImplementedError

    def ball_points(self, x, r: int, cap: int = BALL_CAP_DEFAULT) -> list:
        """All points at distance <= r from x, no duplicates."""
        raise NotImplementedError

    def ball_count(self, x, r: int, cap: int) -> int:
        """|B_r(x)| when it is at most cap, else cap + 1; enumerates no ball
        past cap + 1 points."""
        try:
            return min(len(self.ball_points(x, r, cap=cap)), cap + 1)
        except EnumerationOverflow:
            return cap + 1

    def neighborhood(self, F, r: int) -> set:
        """The ambient r-neighbourhood {x : d(x, F) <= r} of finitely many points."""
        return {q for p in F for q in self.ball_points(p, r)}

    def neighborhood_size(self, F, r: int) -> int:
        return len(self.neighborhood(F, r))

    def all_points(self) -> list:
        raise NotImplementedError(f"{self.kind} is not finite")

    def ball_sizes(self, x, n_max: int, cap: int) -> list:
        """|B_n(x)| for n = 0..n_max; raises EnumerationOverflow once one exceeds cap."""
        sizes = []
        for n in range(n_max + 1):
            sizes.append(self.ball_count(x, n, cap))
            if sizes[-1] > cap:
                raise EnumerationOverflow(f"ball size exceeds cap {cap}")
        return sizes

    # -- the metric kernel: a kind answers distances on finite sets through
    # layout and paired_dist, and overrides the methods below them only where
    # it runs a different algorithm ------------------------------------------
    def layout(self, points: Sequence):
        """The index structure of a sequence of canonical points that
        :meth:`paired_dist` and :meth:`scale_pairs` read (by default the points
        themselves); :attr:`Window.layout` builds a window's once."""
        return points

    def paired_dist(self, lay, I, J) -> np.ndarray:
        """d(lay's I-th point, lay's J-th point) over two broadcastable index
        arrays, as int64; raises IntegerOverflow when a distance lies outside
        int64.  By default one ``dist`` call per pair."""
        I, J = np.broadcast_arrays(np.asarray(I, dtype=np.int64), np.asarray(J, dtype=np.int64))
        pairs = list(zip(I.ravel().tolist(), J.ravel().tolist()))
        D = [self.dist(lay[i], lay[j]) for i, j in pairs]
        try:
            return np.array(D, dtype=np.int64).reshape(I.shape)
        except OverflowError:
            k = next(k for k, d in enumerate(D) if d >= 1 << 63)
            i, j = pairs[k]
            raise IntegerOverflow(f"d({lay[i]!r}, {lay[j]!r}) = {D[k]} lies outside int64") from None

    def pairwise_dist(self, A: Sequence, B: Sequence) -> np.ndarray:
        """The |A| x |B| int64 matrix of distances between canonical points;
        raises IntegerOverflow when a distance lies outside int64."""
        return self.paired_dist(self.layout([*A, *B]), np.arange(len(A))[:, None],
                                len(A) + np.arange(len(B)))

    def diameter(self, pts: Sequence) -> int:
        """Exact diameter of a finite point set."""
        pts = list(pts)
        return self.piece_diameters(self.layout(pts), np.arange(len(pts)), [len(pts)])[0]

    def piece_diameters(self, lay, idx, sizes) -> list:
        """Exact diameters of pieces of laid-out points, given as their indices
        laid end to end (idx) and their lengths (sizes).  Compares all pairs
        of each piece, a block of rows at a time."""
        idx, out, lo = np.asarray(idx, dtype=np.int64), [], 0
        for size in np.asarray(sizes).tolist():
            p = idx[lo:lo + size]
            out.append(max((int(self.paired_dist(lay, p[k:k + _ROW_BLOCK, None], p[k:]).max())
                            for k in range(0, size, _ROW_BLOCK)), default=0))
            lo += size
        return out

    def scale_pairs(self, lay, r: int):
        """Index pairs (i, j), i < j, of laid-out distinct points at distance
        <= r, as two int64 arrays, for r >= 1 and two points or more.  Compares
        all pairs, a block of rows at a time."""
        n = len(lay)  # the points themselves or an int64 array, one row per point
        out_i, out_j = [], []
        for lo in range(0, n, _ROW_BLOCK):
            D = self.paired_dist(lay, np.arange(lo, min(lo + _ROW_BLOCK, n))[:, None],
                                 np.arange(lo, n))
            ii, jj = np.nonzero(np.triu(D <= r, k=1))
            out_i.append(ii + lo)
            out_j.append(jj + lo)
        return _pair_arrays(out_i, out_j)

    # -- serialization -----------------------------------------------------
    def to_spec(self) -> dict:
        raise NotImplementedError

    def point_to_json(self, x):
        return x

    def spec_key(self):
        import json

        return json.dumps(self.to_spec(), sort_keys=True)

    def __repr__(self):
        return f"<{type(self).__name__} {self.to_spec()}>"


def _int64_coords(points, dim: int, pad: int = 0) -> Optional[np.ndarray]:
    """The one entry of integer coordinates into int64: the points as an
    (n, dim) int64 array, or None when a coordinate leaves int64 or
    |coordinate| + pad reaches 2^62 / dim.  Below that bound no coordinate
    difference grown by 2 pad, l1 sum of dim differences or box span can wrap;
    on None the caller takes its exact Python-int path."""
    try:
        a = np.asarray(points, dtype=np.int64).reshape(len(points), dim)
    except OverflowError:
        return None
    if len(a) and max(int(a.max()), -int(a.min())) + pad >= (1 << 62) // dim:
        return None
    return a


@lru_cache(maxsize=None)
def _l1_signs(dim: int) -> np.ndarray:
    # l1 is l-infinity after projecting onto these 2^(dim-1) sign vectors
    signs = np.array([(1,) + s for s in itertools.product((1, -1), repeat=dim - 1)], dtype=np.int64).T
    signs.flags.writeable = False
    return signs


@lru_cache(maxsize=16)
def _l1_offsets(dim: int, r: int) -> np.ndarray:
    off = np.arange(-r, r + 1, dtype=np.int64)[:, None]
    for _ in range(dim - 1):  # each row o extends by -left..left: 2 left + 1 reps, left = r - |o|
        reps = 2 * (r - np.abs(off).sum(axis=1)) + 1
        last = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - (reps + 1) // 2, reps)
        off = np.column_stack([np.repeat(off, reps, axis=0), last])
    off.flags.writeable = False
    return off


class GridSpace(Space):
    """Z^dim with the l1 word metric."""

    kind = "grid"
    graph_like = True
    geodesic_extension = True

    def __init__(self, dim: int):
        if not isinstance(dim, int) or dim < 1:
            raise MalformedSpec(f"grid dimension must be a positive integer, got {dim!r}")
        self.dim = dim

    def normalize(self, x):
        if isinstance(x, (list, tuple)) and len(x) == self.dim:
            if {*map(type, x)} == {int}:  # plain ints, as JSON and ball() spell them
                return tuple(x)
            if all(isinstance(c, (int, np.integer)) for c in x):
                return tuple(int(c) for c in x)
        if self.dim == 1 and isinstance(x, (int, np.integer)):
            return (int(x),)
        raise UnknownPoint(f"not a Z^{self.dim} point: {x!r}")

    def origin(self):
        return (0,) * self.dim

    def dist(self, x, y):
        return sum(abs(a - b) for a, b in zip(x, y))

    def ball_count(self, x, r, cap):
        # l1 ball cardinality in Z^d
        return min(sum((1 << k) * comb(self.dim, k) * comb(r, k) for k in range(min(self.dim, r) + 1)),
                   cap + 1)

    def _ball_offsets(self, r, cap=BALL_CAP_DEFAULT) -> np.ndarray:
        """The l1 r-ball around 0 as read-only int64 rows in canonical order (cached up to 2^16)."""
        size = self.ball_count(None, r, cap)  # exact when at most cap
        if size > cap:
            raise EnumerationOverflow(f"l1 ball of radius {r} in Z^{self.dim} exceeds cap {cap}")
        return (_l1_offsets if size <= 1 << 16 else _l1_offsets.__wrapped__)(self.dim, r)

    def ball_points(self, x, r, cap=BALL_CAP_DEFAULT):
        # offsets are added in Python ints: coordinates may lie outside int64
        cols = self._ball_offsets(r, cap).T.tolist()
        return list(zip(*([c + o for o in col] for c, col in zip(x, cols))))

    def _box(self, points, pad: int):
        """Mixed-radix codes of points (or their int64 layout) in their bounding box
        grown by pad on each side, as (strides, codes); codes order as points do.  None
        when there are no points, when :func:`_int64_coords` refuses them, or when the
        cell count of the box reaches 2^62, where int64 codes could wrap."""
        coords = _int64_coords(points, self.dim, pad)
        if coords is None or not len(coords):
            return None
        mins, spans = coords.min(axis=0), np.ptp(coords, axis=0) + 2 * pad + 1
        if np.prod(spans.astype(float)) >= 2.0**62:
            return None
        strides = np.append(np.cumprod(spans[:0:-1])[::-1], 1)
        return strides, (coords - mins + pad) @ strides

    def neighborhood_size(self, F, r):
        # the r-ball offsets added to the codes of F, deduplicated
        if r < 0:
            return 0
        box = self._box(list(F), r)
        if box is None:
            return super().neighborhood_size(F, r)
        (strides, codes), off = box, self._ball_offsets(r)
        u = np.empty(0, dtype=np.int64)
        step = max(1, (1 << 22) // len(off))  # rows at a time: memory stays near |N_r(F)|
        for lo in range(0, len(codes), step):
            u = np.union1d(u, codes[lo:lo + step, None] + off @ strides)
        return len(u)

    def layout(self, points):
        # the coordinates as int64, or the points themselves where they leave the guard
        c = _int64_coords(points, self.dim)
        return points if c is None else c

    def paired_dist(self, lay, I, J):
        if not isinstance(lay, np.ndarray):
            return Space.paired_dist(self, lay, I, J)
        return np.abs(lay[I] - lay[J]).sum(axis=-1)

    def piece_diameters(self, lay, idx, sizes):
        # l1 is l-infinity after projecting onto the 2^(dim-1) sign vectors:
        # a piece's diameter is its widest span of projections
        if not isinstance(lay, np.ndarray):
            return Space.piece_diameters(self, lay, idx, sizes)
        sizes = np.asarray(sizes, dtype=np.int64)
        out = np.zeros(len(sizes), dtype=np.int64)
        full = sizes > 0
        if full.any():
            proj = lay[np.asarray(idx, dtype=np.int64)] @ _l1_signs(self.dim)
            starts = (np.cumsum(sizes) - sizes)[full]
            out[full] = (np.maximum.reduceat(proj, starts) - np.minimum.reduceat(proj, starts)).max(axis=1)
        return out.tolist()

    def scale_pairs(self, lay, r):
        # each offset in the r-ball is one sorted lookup of shifted box codes
        n = len(lay)
        box = self._box(lay, r)
        if box is None or self.ball_count(None, r, max(64, 4 * n)) > max(64, 4 * n):
            return super().scale_pairs(lay, r)
        strides, codes = box
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        out_i, out_j = [], []
        off = self._ball_offsets(r)
        for oc in off[len(off) // 2 + 1:] @ strides:  # the offsets after the origin
            targets = codes + oc
            pos = np.clip(np.searchsorted(sorted_codes, targets), 0, n - 1)
            hit = sorted_codes[pos] == targets
            src = np.nonzero(hit)[0]
            dst = order[pos[hit]]
            out_i.append(np.minimum(src, dst))
            out_j.append(np.maximum(src, dst))
        return _pair_arrays(out_i, out_j)

    def to_spec(self):
        return {"kind": "grid", "dim": self.dim}

    def point_to_json(self, x):
        return list(x)


def _runs(a):
    """(start, length) of each run of equal values in a nonempty array."""
    start = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))
    return start, np.diff(np.concatenate((start, [len(a)])))


def _lift(parent):
    """(level, up) of a rooted forest given by parent links (-1 at a root):
    the number of links above each node, and its 2^j-th ancestors (capped at
    the root) by pointer jumping."""
    anc = np.where(parent >= 0, parent, np.arange(len(parent)))
    level = (parent >= 0).astype(np.int64)
    up = [anc]
    while True:  # level[k] counts the links from k to anc[k]
        level += level[anc]
        anc = anc[anc]
        if np.array_equal(anc, up[-1]):  # every node reached the root
            return level, up
        up.append(anc)


class TreeLayout:
    """The geodesic hull of finitely many points of a tree-metric space, as
    read-only int64 arrays.  Its nodes are a root, the laid-out points and
    the branch points between them; a run of other vertices is one link.
    Node k has parent ``parent[k]`` (-1 at the root), ``depth[k]`` (its
    distance to the root), ``level[k]`` links above it and 2^j-th ancestor
    ``up[j][k]`` (capped at the root); ``node[i]`` is the node of the i-th
    laid-out point.  The hull holds the geodesic between any two of its
    nodes, so d(u, v) = depth[u] + depth[v] - 2 depth[lca(u, v)]."""

    def __init__(self, parent, node, depth=None):
        """Without depth, parent is an ancestor closure with unit links: its
        other vertices are contracted away and depth counts the links."""
        parent = np.asarray(parent, dtype=np.int64)
        node = np.asarray(node, dtype=np.int64)
        level, up = _lift(parent)
        if depth is None:
            depth = level
            keep = parent < 0
            keep[node] = True
            keep |= np.bincount(parent[parent >= 0], minlength=len(parent)) >= 2
            if not keep.all():
                near = np.where(keep, np.arange(len(parent)), parent)
                while True:  # pointer jumping to the nearest kept ancestor-or-self
                    nxt = near[near]
                    if np.array_equal(nxt, near):
                        break
                    near = nxt
                new = np.cumsum(keep) - 1
                p = parent[keep]
                parent = np.where(p >= 0, new[near[p]], -1)
                node, depth = new[node], depth[keep]
                level, up = _lift(parent)
        self.parent, self.node, self.level, self.up = parent, node, level, up
        self.depth = np.asarray(depth, dtype=np.int64)
        for a in (self.parent, self.node, self.depth, self.level, *self.up):
            a.flags.writeable = False

    def dist(self, u, v) -> np.ndarray:
        """Elementwise distances between two broadcastable arrays of nodes."""
        u, v = np.broadcast_arrays(np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64))
        lu, lv = self.level[u], self.level[v]
        # lift the lower end to the other's level, then both to just below the lca
        swap = lu < lv
        a, b = np.where(swap, v, u), np.where(swap, u, v)
        diff = np.abs(lu - lv)
        for j, anc in enumerate(self.up):
            a = np.where(((diff >> j) & 1).astype(bool), anc[a], a)
        for anc in reversed(self.up):
            pa, pb = anc[a], anc[b]
            split = pa != pb
            a, b = np.where(split, pa, a), np.where(split, pb, b)
        lca = np.where(a == b, a, self.up[0][a])
        # d(u, lca) + d(v, lca): no partial sum leaves int64, where depth[u] + depth[v] could
        return (self.depth[u] - self.depth[lca]) + (self.depth[v] - self.depth[lca])

    def pairs(self, r: int):
        """Index pairs (i, j), i < j, of laid-out points at distance <= r, as
        two int64 arrays.  Entries are a point, an ancestor z at most r above
        it, and its branch at z (the child of z on the way up).  A pair is a
        point and an ancestor, or two entries of one z in different branches
        with heights summing to at most r.  The work is linear in the entries
        plus the pairs returned."""
        n, m = len(self.node), len(self.parent)
        z, src, entries = self.node, np.arange(n), []
        # no two nodes lie farther apart; a ray's hull may reach 2^63 - 1 deep
        r = min(r, 2 * int(self.depth.max(initial=0)), (1 << 63) - 1)
        while len(z):
            up = self.parent[z] >= 0
            br, src = z[up], src[up]
            z = self.parent[br]
            h = self.depth[self.node[src]] - self.depth[z]
            close = h <= r
            z, br, src, h = z[close], br[close], src[close], h[close]
            entries.append((br, src, h))
        br, src, h = (np.concatenate(a) for a in zip(*entries)) if entries else [np.zeros(0, dtype=np.int64)] * 3
        del entries
        at = np.full(m, -1)
        at[self.node] = np.arange(n)
        anc = at[self.parent[br]]
        below = anc >= 0
        I, J = [anc[below]], [src[below]]
        # only a z with two branches or more takes cross pairs, each side at
        # least 1 below it
        fork = np.bincount(self.parent[self.parent >= 0], minlength=m) >= 2
        cross = fork[self.parent[br]] & (h < r)
        if not cross.any():
            return np.minimum(*I, *J), np.maximum(*I, *J)
        br, src, h = br[cross], src[cross], h[cross]
        # heights as ranks (hk), so that (branch, height) packs into one
        # int64; room[a] counts the ranks of heights <= r - h[a]
        if r < len(h):
            top, hk, room = r + 1, h, r + 1 - h
        else:
            hs = np.unique(h)
            top, hk, room = len(hs), np.searchsorted(hs, h), np.searchsorted(hs, r - h, side="right")
        o = np.argsort(br * top + hk)
        br, src, hk, room = br[o], src[o], hk[o], room[o]
        first, size = _runs(br)
        # branches in order of z, then of least height; entries follow by height
        z = self.parent[br[first]]
        bkey = z * top + hk[first]
        ob = np.argsort(bkey)
        rank = np.empty_like(ob)
        rank[ob] = np.arange(len(ob))
        start = np.cumsum(size[ob]) - size[ob]
        pos = np.repeat(start[rank] - first, size) + np.arange(len(br))
        g = np.repeat(np.arange(len(ob)), size[ob])
        for a in (src, hk, room):
            a[pos] = a.copy()
        bkey, z = bkey[ob], z[ob]
        # entry a pairs with the entries of height <= r - h[a] in the earlier
        # branches of its z whose least height is <= r - h[a]: a run of
        # branches, each giving at least one pair
        lo = np.repeat(*_runs(z))[g]
        hi = np.searchsorted(bkey, z[g] * top + room - 1, side="right")
        cnt = np.maximum(np.minimum(hi, g) - lo, 0)
        a = np.repeat(np.arange(len(g)), cnt)
        u = np.arange(len(a)) - np.repeat(np.cumsum(cnt) - cnt - lo, cnt)
        cnt = np.searchsorted(g * top + hk, u * top + room[a]) - start[u]
        b = np.arange(int(cnt.sum())) - np.repeat(np.cumsum(cnt) - cnt - start[u], cnt)
        I.append(src[np.repeat(a, cnt)])
        J.append(src[b])
        i, j = np.concatenate(I), np.concatenate(J)
        return np.minimum(i, j), np.maximum(i, j)

    def diameters(self, idx, sizes) -> np.ndarray:
        """Exact diameters of pieces given as laid-out indices end to end (idx)
        and their lengths (sizes): two batched sweeps, from each piece's first
        point to its farthest point, then from there."""
        sizes = np.asarray(sizes, dtype=np.int64)
        out = np.zeros(len(sizes), dtype=np.int64)
        full = sizes > 0
        if not full.any():
            return out
        nd = self.node[np.asarray(idx, dtype=np.int64)]
        piece = np.repeat(np.arange(int(full.sum())), sizes[full])
        starts = (np.cumsum(sizes) - sizes)[full]
        d = self.dist(nd[starts][piece], nd)
        at_max = np.flatnonzero(d == np.maximum.reduceat(d, starts)[piece])
        far = at_max[np.unique(piece[at_max], return_index=True)[1]]
        out[full] = np.maximum.reduceat(self.dist(nd[far][piece], nd), starts)
        return out


class TreeMetricSpace(Space):
    """A space whose metric is the path metric of a tree (free groups, trees)."""

    graph_like = True

    def _closure(self, points) -> tuple:
        """The arguments of :class:`TreeLayout` for points: (parent, node) of
        their ancestor closure, or (parent, node, depth) of their hull."""
        raise NotImplementedError

    def layout(self, points):
        return TreeLayout(*self._closure(points))

    def paired_dist(self, lay, I, J):
        return lay.dist(lay.node[I], lay.node[J])

    def piece_diameters(self, lay, idx, sizes):
        return lay.diameters(idx, sizes).tolist()

    def scale_pairs(self, lay, r):
        # the closure holds every geodesic between laid-out points, so its parent
        # links give the exact relation
        return lay.pairs(r)


class FreeGroupSpace(TreeMetricSpace):
    """Free group of finite rank with the word metric on reduced words.

    Points are strings: lowercase letters are generators, uppercase their
    inverses, "" is the identity.
    """

    kind = "free_group"
    geodesic_extension = True

    def __init__(self, rank: int):
        if not isinstance(rank, int) or rank < 1 or rank > 26:
            raise MalformedSpec(f"free_group rank must be in 1..26, got {rank!r}")
        self.rank = rank
        self.letters = [c for g in _LETTERS[:rank] for c in (g, g.upper())]
        # a reduced word: letters, none followed by its inverse
        self._reduced = re.compile("(?:" + "|".join(f"{c}(?!{c.swapcase()})" for c in self.letters) + ")*")
        self._follow = {c: [s for s in self.letters if s != c.swapcase()] for c in self.letters}
        self._alphabet = "".join(self.letters) + "\n"  # and the separator of normalize_all
        self._cancelling = [c + c.swapcase() for c in self.letters]

    def normalize(self, x):
        if isinstance(x, str) and self._reduced.fullmatch(x):
            return x
        if not isinstance(x, str):
            raise UnknownPoint(f"free group points are strings, got {x!r}")
        bad = [c for c in x if c not in self.letters]
        raise UnknownPoint(f"letter {bad[0]!r} not valid for rank {self.rank}" if bad
                           else f"word {x!r} is not reduced")

    def normalize_all(self, xs):
        # one pass over the words joined by newlines, where no word holds one:
        # only letters, none next to its inverse; else word by word, to raise
        xs = list(xs)
        try:
            text = "\n".join(xs)
        except TypeError:  # a non-string
            return super().normalize_all(xs)
        if (text.strip(self._alphabet) or text.count("\n") != len(xs) - 1
                or any(map(text.__contains__, self._cancelling))):
            return super().normalize_all(xs)
        return xs

    def canonical_key(self, x):
        return (len(x), x)

    def canonical_sorted(self, points):
        # by (len, word) in two stable C-level sorts, with no key tuple per word
        out = sorted(points)
        out.sort(key=len)
        return out

    def origin(self):
        return ""

    def dist(self, x, y):
        return word_dist(x, y)

    def ball_count(self, x, r, cap):
        total, sphere = 1, 2 * self.rank
        for _ in range(r):
            if total > cap:
                break
            total += sphere
            sphere *= 2 * self.rank - 1
        return min(total, cap + 1)

    def neighborhood_size(self, F, r):
        # The Cayley graph is the 2k-regular tree (Serre, Trees): a vertex off the
        # prefix closure H of F lies at d(h, F) plus its depth below the h in H it
        # hangs from, in one of the 2k - deg_H h branches there of 2k - 1 children each
        F = list(F)
        if not F:
            return 0
        if self.ball_count(None, r, BALL_CAP_DEFAULT) > BALL_CAP_DEFAULT:  # where the union of balls would
            raise EnumerationOverflow(f"free group ball of radius {r} exceeds cap {BALL_CAP_DEFAULT}")
        parent, node = self._closure(F)
        depth, up = _lift(parent)
        # low[h]: the least depth of a point of F below h, by doubling up the
        # parent links; then d(h, F) = depth h + least (low - 2 depth) above h
        low = np.full(len(parent), 1 << 62)
        low[node] = depth[node]
        for anc in up:
            np.minimum.at(low, anc, low.copy())
        d = low - 2 * depth
        for anc in up:
            d = np.minimum(d, d[anc])
        d += depth
        near = d <= r
        rho, q = r - d[near], 2 * self.rank - 1
        free = 2 * self.rank - np.bincount(parent[parent >= 0], minlength=len(parent))[near] - (parent[near] >= 0)
        return int(near.sum() + (free * (rho if q == 1 else (q ** rho - 1) // (q - 1))).sum())

    def _closure(self, points):
        # the closure is the set of prefixes; a word whose parent (itself minus
        # its last letter) is no laid-out word is threaded from the identity
        # letter by letter, so no prefix string is built
        known = {p: k for k, p in enumerate(dict.fromkeys(points))}
        words = list(known)
        parent = [known.get(p[:-1]) if p else -1 for p in words]
        root = known.get("")
        if root is None:
            root = len(parent)
            parent.append(-1)
        orphans = sorted((k for k, q in enumerate(parent) if q is None), key=lambda k: len(words[k]))
        if orphans:
            kids = {(parent[k], p[-1]): k for k, p in enumerate(words) if p and parent[k] is not None}
            for k in orphans:  # shorter words first, so a laid-out prefix is found, not rebuilt
                q = root
                for c in words[k][:-1]:
                    nxt = kids.get((q, c))
                    if nxt is None:
                        nxt = kids[(q, c)] = len(parent)
                        parent.append(q)
                    q = nxt
                parent[k] = q
                kids[(q, words[k][-1])] = k
        node = np.arange(len(words)) if len(words) == len(points) else [known[p] for p in points]
        return np.asarray(parent, dtype=np.int64), node

    def ball_points(self, x, r, cap=BALL_CAP_DEFAULT):
        if self.ball_count(x, r, cap) > cap:
            raise EnumerationOverflow(f"free group ball of radius {r} exceeds cap {cap}")
        # level by level in breadth-first order, each word's neighbours w * s in
        # letter order: a word off the centre's prefix path has the children w + s,
        # s any letter but the inverse of its last; the prefix p on the path, at
        # index `at`, steps back to p[:-1] in place of p + (inverse of its last), and not along `back`
        out, level, at, back, follow = [], [x], 0, None, self._follow
        for _ in range(r):
            out += level
            k = len(level) if at is None else at
            nxt = [w + s for w in level[:k] for s in follow[w[-1]]]
            if at is not None:
                p = level[at]
                kids = [p[:-1] if s == p[-1:].swapcase() else p + s for s in self.letters if s != back]
                at, back = (len(nxt) + kids.index(p[:-1]), p[-1]) if p else (None, None)
                nxt += kids + [w + s for w in level[k + 1:] for s in follow[w[-1]]]
            level = nxt
        return out + level

    def to_spec(self):
        return {"kind": "free_group", "rank": self.rank}


class TreeSpace(TreeMetricSpace):
    """A tree: either the infinite rooted b-ary tree (vertex ids are ints,
    children of v are b*v+1..b*v+b) or a finite tree given by an edge list."""

    kind = "tree"

    def __init__(self, branching: Optional[int] = None, edges: Optional[Sequence] = None):
        if (branching is None) == (edges is None):
            raise MalformedSpec("tree needs exactly one of 'branching' or 'edges'")
        if branching is not None:
            if not isinstance(branching, int) or branching < 1:
                raise MalformedSpec(f"branching must be a positive integer, got {branching!r}")
            self.branching = branching
            self.edges = None
            self.geodesic_extension = True
            self._adj = None
            self.n_vertices = None
        else:
            edges = [tuple(e) for e in edges]
            verts = {v for e in edges for v in e}
            n = (max(verts) + 1) if verts else 1
            if len(edges) != n - 1:
                raise MalformedSpec("edge list does not describe a tree (|E| != |V|-1)")
            adj = [[] for _ in range(n)]
            for a, b in edges:
                if not (isinstance(a, int) and isinstance(b, int) and 0 <= a < n and 0 <= b < n):
                    raise MalformedSpec(f"bad edge {(a, b)!r}")
                adj[a].append(b)
                adj[b].append(a)
            # a breadth-first search from 0 checks connectivity and roots the tree there
            self._depth, self._par = [-1] * n, [0] * n
            self._depth[0] = 0
            order = [0]
            for v in order:
                for u in adj[v]:
                    if self._depth[u] < 0:
                        self._depth[u], self._par[u] = self._depth[v] + 1, v
                        order.append(u)
            if len(order) != n:
                raise MalformedSpec("edge list is not connected")
            self.branching = None
            self.edges = edges
            self.n_vertices = n
            self._adj = [sorted(a) for a in adj]
            self.finite = True

    # -- rooted structure: the b-ary tree is rooted at 0 by its numbering, a
    # finite tree at 0 by the breadth-first search in __init__
    def _parent(self, v):
        return self._par[v] if self.branching is None else (v - 1) // self.branching

    def normalize(self, x):
        if isinstance(x, (int, np.integer)) and x >= 0:
            x = int(x)
            if self.branching is None and x >= self.n_vertices:
                raise UnknownPoint(f"vertex {x} outside tree of size {self.n_vertices}")
            return x
        raise UnknownPoint(f"tree points are nonnegative ints, got {x!r}")

    def origin(self):
        return 0

    def dist(self, x, y):
        if self.branching == 1:
            return abs(x - y)
        # climb from the deeper end until the ends meet at their lowest common
        # ancestor; in the b-ary numbering a larger vertex is never shallower
        depth = int if self.branching else self._depth.__getitem__
        d = 0
        while x != y:
            if depth(x) < depth(y):
                x, y = y, x
            x = self._parent(x)
            d += 1
        return d

    def _closure(self, points):
        if self.branching == 1:
            # a ray: the hull is the points in order, rooted at the least.
            # Depths below 2^63 keep every distance in int64
            vs = sorted(set(points))
            if vs and vs[-1] - vs[0] >= 1 << 63:
                raise IntegerOverflow(f"d({vs[0]}, {vs[-1]}) = {vs[-1] - vs[0]} lies outside int64")
            at = {v: k for k, v in enumerate(vs)}
            return range(-1, len(vs) - 1), [at[v] for v in points], [v - vs[0] for v in vs]
        # climb from each vertex until a vertex already in the closure is met
        known, parent = {}, []
        for v in points:
            if v in known:
                continue
            known[v] = len(parent)
            parent.append(-1)
            while v != 0:
                u = self._parent(v)
                k = known.get(u)
                if k is not None:
                    parent[known[v]] = k
                    break
                parent[known[v]] = known[u] = len(parent)
                parent.append(-1)
                v = u
        return parent, [known[v] for v in points]

    def _neighbors(self, x):
        if self.branching is not None:
            b = self.branching
            out = [] if x == 0 else [(x - 1) // b]
            out.extend(b * x + i for i in range(1, b + 1))
            return out
        return self._adj[x]

    def _bfs(self, src, cutoff: int, cap: Optional[int] = None) -> dict:
        """Distances from src out to radius cutoff, in breadth-first order with
        neighbours in ``_neighbors`` order; raises EnumerationOverflow once more
        than cap points are reached, before the next vertex is expanded."""
        lengths = {src: 0}
        order = [src]
        for v in order:
            if cap is not None and len(lengths) > cap:
                raise EnumerationOverflow(f"{self.kind} ball around {src!r} exceeds cap {cap}")
            level = lengths[v] + 1
            if level > cutoff:
                break
            for u in self._neighbors(v):
                if u not in lengths:
                    lengths[u] = level
                    order.append(u)
        return lengths

    def ball_points(self, x, r, cap=BALL_CAP_DEFAULT):
        b = self.branching
        if b is None:
            return sorted(self._bfs(x, cutoff=r, cap=cap))
        if b == 1:  # a ray
            runs = [range(max(0, x - r), x + r + 1)]
        else:
            # the b-ary numbering lists each depth as one run of ints, and the
            # ball meets depth L in the descendants there of one ancestor of x:
            # the highest, j steps up, with 2j + L - depth(x) <= r
            anc = [x]
            while anc[-1]:
                anc.append((anc[-1] - 1) // b)
            top, runs, size = len(anc) - 1, [], 0
            for L in range(max(0, top - r), top + r + 1):
                j = min(top, (r + top - L) // 2)
                width = b ** (L - top + j)
                first = anc[j] * width + (width - 1) // (b - 1)
                runs.append(range(first, first + width))
                size += width
                if size > cap:  # no need to list further depths
                    break
        if sum(q.stop - q.start for q in runs) > cap:
            raise EnumerationOverflow(f"{self.kind} ball around {x!r} exceeds cap {cap}")
        return list(itertools.chain.from_iterable(runs))

    def ball_sizes(self, x, n_max, cap):
        # one search out to n_max, binned by depth, not one search per radius
        depth = list(self._bfs(x, n_max, cap).values())
        return np.cumsum(np.bincount(depth, minlength=n_max + 1)).tolist()

    def all_points(self):
        if self.branching is not None:
            raise NotImplementedError("infinite tree")
        return list(range(self.n_vertices))

    def to_spec(self):
        if self.branching is not None:
            return {"kind": "tree", "branching": self.branching}
        return {"kind": "tree", "edges": [list(e) for e in self.edges]}


class PointLineSpace(Space):
    """A finite subset of Z with the induced |x - y| metric."""

    kind = "point_line"
    finite = True

    def __init__(self, coords: Sequence[int]):
        coords = list(coords)
        if not coords or not all(isinstance(c, (int, np.integer)) for c in coords):
            raise MalformedSpec("point_line needs a nonempty list of integers")
        coords = [int(c) for c in coords]
        if any(a >= b for a, b in zip(coords, coords[1:])):
            raise MalformedSpec("point_line coordinates must be strictly increasing")
        self.coords = coords
        self._set = set(coords)

    def normalize(self, x):
        if isinstance(x, (int, np.integer)) and int(x) in self._set:
            return int(x)
        raise UnknownPoint(f"{x!r} is not a coordinate of this point_line")

    def origin(self):
        return self.coords[0]

    def dist(self, x, y):
        return abs(x - y)

    def ball_points(self, x, r, cap=BALL_CAP_DEFAULT):
        lo = bisect_left(self.coords, x - r)
        hi = bisect_right(self.coords, x + r)
        return self.coords[lo:hi]

    def all_points(self):
        return list(self.coords)

    # the points are coordinates in Z, so distances are those of one-dimensional grid points
    dim = 1
    layout = GridSpace.layout
    paired_dist = GridSpace.paired_dist
    piece_diameters = GridSpace.piece_diameters

    def diameter(self, pts):
        return max(pts) - min(pts) if len(pts) else 0

    def scale_pairs(self, lay, r):
        # the coordinates ascend: one sweep, from 0 so that key + r stays in int64
        span = int(lay[-1, 0] - lay[0, 0]) if isinstance(lay, np.ndarray) else 1 << 62
        if span >= 1 << 62:
            return super().scale_pairs(lay, r)
        return _sweep_pairs(lay[:, 0] - lay[0, 0], min(r, span))

    def to_spec(self):
        return {"kind": "point_line", "coords": list(self.coords)}


class DisjointUnionSpace(Space):
    """Disjoint union of finite blocks laid out along a line.

    Within block k the block's own metric is used.  Across blocks k < l the
    distance is constant:

        d = sum(gaps[k:l]) + sum(diam(block_j) for j in k..l)

    including both endpoint diameters, which is what makes the triangle
    inequality hold for arbitrary block shapes.  Points are (block, inner).
    """

    kind = "disjoint_union"
    finite = True

    def __init__(self, blocks: Sequence[Space], gaps: Sequence[int]):
        if not blocks:
            raise MalformedSpec("disjoint_union needs at least one block")
        for b in blocks:
            if not b.finite:
                raise MalformedSpec("disjoint_union blocks must be finite spaces")
        gaps = list(gaps)
        if len(gaps) != len(blocks) - 1:
            raise MalformedSpec(
                f"need exactly {len(blocks) - 1} gaps for {len(blocks)} blocks, got {len(gaps)}"
            )
        if not all(isinstance(g, (int, np.integer)) and g >= 1 for g in gaps):
            raise MalformedSpec("gaps must be integers >= 1")
        self.blocks = list(blocks)
        self.gaps = [int(g) for g in gaps]
        self.diams = [b.diameter(b.all_points()) for b in blocks]
        # prefix sums: for k < l, block_distance(k, l) = _reach[l] - _base[k],
        # and _reach increases strictly with l
        pg = list(itertools.accumulate(self.gaps, initial=0))
        pd = list(itertools.accumulate(self.diams, initial=0))
        self._reach = [g + d for g, d in zip(pg, pd[1:])]
        self._base = [g + d for g, d in zip(pg, pd)]

    def block_distance(self, k: int, l: int) -> int:
        if k == l:
            return 0
        if k > l:
            k, l = l, k
        return self._reach[l] - self._base[k]

    def normalize(self, x):
        if isinstance(x, (list, tuple)) and len(x) == 2:
            k, inner = x
            if isinstance(k, (int, np.integer)) and 0 <= int(k) < len(self.blocks):
                k = int(k)
                return (k, self.blocks[k].normalize(inner))
        raise UnknownPoint(f"disjoint_union points are (block, inner), got {x!r}")

    def canonical_key(self, x):
        k, inner = x
        return (k, self.blocks[k].canonical_key(inner))

    def origin(self):
        return (0, self.blocks[0].origin())

    def dist(self, x, y):
        (k, a), (l, b) = x, y
        if k == l:
            return self.blocks[k].dist(a, b)
        return self.block_distance(k, l)

    def ball_points(self, x, r, cap=BALL_CAP_DEFAULT):
        k, a = x
        out = [(k, p) for p in self.blocks[k].ball_points(a, r, cap=cap)]
        for l, blk in enumerate(self.blocks):
            if l != k and self.block_distance(k, l) <= r:
                out.extend((l, p) for p in blk.all_points())
        if len(out) > cap:
            raise EnumerationOverflow(f"disjoint_union ball exceeds cap {cap}")
        return out

    def all_points(self):
        return [(k, p) for k, blk in enumerate(self.blocks) for p in blk.all_points()]

    def scale_pairs(self, lay, r):
        # the layout is the points, block-major, so each block is one run of
        # indices, and so are the later blocks within r of a block; no
        # distance passes _reach[-1], so r is cut there and stays in int64
        r = min(r, self._reach[-1])
        blk = np.array([k for k, _ in lay], dtype=np.int64)
        start = np.searchsorted(blk, np.arange(len(self.blocks) + 1)).tolist()
        last = np.searchsorted(self._reach, r + np.array(self._base), side="right").tolist()
        out_i, out_j, swept = [], [], set()
        # the point_line blocks in one sweep: block k's coordinates, less its
        # least, plus k strides, each the widest span plus r (cut to that span) plus 1
        line = np.flatnonzero(np.array([b.kind == "point_line" for b in self.blocks])[blk])
        c = _int64_coords([lay[i][1] for i in line.tolist()], 1)
        if c is not None and len(c):
            first, size = _runs(blk[line])
            off = c[:, 0] - np.repeat(c[first, 0], size)
            r_cut = min(r, int(off.max()))
            if len(self.blocks) * (int(off.max()) + r_cut + 1) < 1 << 62:
                ii, jj = _sweep_pairs(off + blk[line] * (int(off.max()) + r_cut + 1), r_cut)
                out_i.append(line[ii])
                out_j.append(line[jj])
                swept = set(blk[line].tolist())
        for k in np.unique(blk).tolist():
            lo, hi = start[k], start[k + 1]
            if hi - lo > 1 and k not in swept:
                b = self.blocks[k]
                si, sj = b.scale_pairs(b.layout([p for _, p in lay[lo:hi]]), r)
                out_i.append(si + lo)
                out_j.append(sj + lo)
            end = start[last[k]]
            if end > hi:
                out_i.append(np.repeat(np.arange(lo, hi), end - hi))
                out_j.append(np.tile(np.arange(hi, end), hi - lo))
        return _pair_arrays(out_i, out_j)

    def to_spec(self):
        return {
            "kind": "disjoint_union",
            "blocks": [b.to_spec() for b in self.blocks],
            "gaps": list(self.gaps),
        }

    def point_to_json(self, x):
        k, a = x
        return [k, self.blocks[k].point_to_json(a)]


class ProductFiniteSpace(Space):
    """base x {1..n} with the sum of the base metric and the 0/1 discrete metric."""

    kind = "product_finite"

    def __init__(self, base: Space, n: int):
        if not isinstance(n, int) or n < 1:
            raise MalformedSpec(f"product level count must be a positive integer, got {n!r}")
        self.base = base
        self.n = n
        self.finite = base.finite
        self.graph_like = base.graph_like
        self.geodesic_extension = base.geodesic_extension

    def normalize(self, x):
        if isinstance(x, (list, tuple)) and len(x) == 2:
            b, lvl = x
            if isinstance(lvl, (int, np.integer)) and 1 <= int(lvl) <= self.n:
                return (self.base.normalize(b), int(lvl))
        raise UnknownPoint(f"product points are (base, level 1..{self.n}), got {x!r}")

    def canonical_key(self, x):
        b, lvl = x
        return (self.base.canonical_key(b), lvl)

    def origin(self):
        return (self.base.origin(), 1)

    def dist(self, x, y):
        (a, i), (b, j) = x, y
        return self.base.dist(a, b) + (0 if i == j else 1)

    def ball_points(self, x, r, cap=BALL_CAP_DEFAULT):
        a, i = x
        out = [(p, i) for p in self.base.ball_points(a, r, cap=cap)]
        if r >= 1:
            inner = self.base.ball_points(a, r - 1, cap=cap)
            for j in range(1, self.n + 1):
                if j != i:
                    out.extend((p, j) for p in inner)
        if len(out) > cap:
            raise EnumerationOverflow(f"product ball exceeds cap {cap}")
        return out

    def ball_count(self, x, r, cap):
        a, _ = x
        s = self.base.ball_count(a, r, cap)
        if r >= 1 and s <= cap:
            s += (self.n - 1) * self.base.ball_count(a, r - 1, cap)
        return min(s, cap + 1)

    def ball_sizes(self, x, n_max, cap):
        # |B_n((a, i))| = S_n + (levels - 1) S_(n-1), from one call for the base's sizes S
        S = self.base.ball_sizes(x[0], n_max, cap)
        sizes = [s + (self.n - 1) * t for s, t in zip(S, [0] + S)]
        if sizes[-1] > cap:
            raise EnumerationOverflow(f"ball size exceeds cap {cap}")
        return sizes

    def all_points(self):
        return [(p, j) for p in self.base.all_points() for j in range(1, self.n + 1)]

    def layout(self, points):
        # the base layout of the distinct bases in order of first appearance
        # (canonical order for canonical points), the base index and level of
        # each point, and the point at each (base, level), -1 where there is none
        bases = {}
        base_of = np.array([bases.setdefault(b, len(bases)) for b, _ in points], dtype=np.int64)
        levels, lvl_of = np.unique(np.array([l for _, l in points], dtype=np.int64), return_inverse=True)
        pos = np.full((len(bases), len(levels)), -1, dtype=np.int64)
        pos[base_of, lvl_of] = np.arange(len(points))
        return self.base.layout(list(bases)), base_of, levels[lvl_of], pos

    def paired_dist(self, lay, I, J):
        base_lay, base_of, level, _ = lay
        return self.base.paired_dist(base_lay, base_of[I], base_of[J]) + (level[I] != level[J])

    def scale_pairs(self, lay, r):
        # d((a, i), (b, j)) <= r  iff  d(a, b) <= r when i == j, and d(a, b) <= r - 1
        # when i != j
        base_lay, _, _, pos = lay
        n_bases, n_levels = pos.shape
        none = _pair_arrays([], [])
        same = self.base.scale_pairs(base_lay, r) if n_bases > 1 else none
        near = self.base.scale_pairs(base_lay, r - 1) if n_bases > 1 and r > 1 else none
        everyone = (np.arange(n_bases),) * 2
        out_i, out_j = [], []
        for l in range(n_levels):
            for m in range(n_levels):
                if l == m:
                    blocks = [same]
                else:  # equal bases across levels: each level pair once
                    blocks = [near, everyone] if l < m else [near]
                for P, Q in blocks:
                    a, b = pos[P, l], pos[Q, m]
                    keep = (a >= 0) & (b >= 0)
                    out_i.append(np.minimum(a[keep], b[keep]))
                    out_j.append(np.maximum(a[keep], b[keep]))
        return _pair_arrays(out_i, out_j)

    def to_spec(self):
        return {"kind": "product_finite", "base": self.base.to_spec(), "n": self.n}

    def point_to_json(self, x):
        b, lvl = x
        return [self.base.point_to_json(b), lvl]


def _metric_failures(D: np.ndarray) -> dict:
    """The first failure of each metric axiom on a square int64 distance table,
    keyed in the order checked, as indices in row-major order: (i, j) for
    "negative", (i,) for "diagonal", (i, j) for "zero" (distinct points at
    distance 0) and "asymmetric", and (i, k, j), smallest k, for "triangle"."""
    masks = {"negative": D < 0, "diagonal": np.diag(D) != 0,
             "zero": D + np.eye(len(D), dtype=np.int64) == 0, "asymmetric": D != D.T}
    out = {axiom: tuple(map(int, np.argwhere(m)[0])) for axiom, m in masks.items() if m.any()}
    wraps = not -2**62 <= int(D.min(initial=0)) <= int(D.max(initial=0)) < 2**62  # a sum may leave int64
    for k in range(len(D)):
        a, b = D[:, [k]], D[[k], :]
        s = a + b  # a sum that wrapped has the sign of both terms: below every entry or above
        bad = np.where(((a ^ s) & (b ^ s)) < 0, a < 0, D > s) if wraps else D > s
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            out["triangle"] = (i, k, j)
            break
    return out


_METRIC_MESSAGES = {
    "negative": "negative distance in table",
    "diagonal": "d({0!r},{0!r}) != 0",
    "zero": "distinct points {0!r}, {1!r} at distance 0",
    "asymmetric": "asymmetry between {0!r} and {1!r}",
    "triangle": "triangle inequality fails: d({0!r},{2!r}) > d({0!r},{1!r}) + d({1!r},{2!r})",
}


class CustomSpace(Space):
    """A finite space given by an explicit symmetric integer distance table."""

    kind = "custom"
    finite = True

    def __init__(self, points: Sequence, table):
        points = list(points)
        if not points:
            raise MalformedSpec("custom space needs at least one point")
        if len(set(points)) != len(points):
            raise MalformedSpec("custom point ids must be distinct")
        D = np.asarray(table)  # a ragged table raises ValueError
        n = len(points)
        if D.shape != (n, n):
            raise MalformedSpec(f"distance table must be {n}x{n}, got {D.shape}")
        if D.dtype.kind in "Of":  # floats, or ints past int64 (objects)
            D = D.astype(float)
            if not np.all(D == np.round(D)):
                raise MalformedSpec("distance table entries must be integers")
            inside = np.all(np.abs(D) < 2.0**63)  # strict: float(2**63 - 1) is 2.0**63
        elif D.dtype.kind in "biu":
            inside = D.dtype.kind != "u" or int(D.max()) < 2**63
        else:  # strings
            raise MalformedSpec("distance table entries must be integers")
        if not inside:  # refused before the cast, which would wrap or warn
            raise MalformedSpec("custom dist: a distance table entry lies outside int64")
        D = D.astype(np.int64)
        for axiom, idx in _metric_failures(D).items():  # raise on the first one
            witness = tuple(points[i] for i in idx)
            raise MetricViolation(_METRIC_MESSAGES[axiom].format(*witness),
                                  witness=None if axiom == "negative" else witness)
        self.points = points
        self.table = D
        self._pos = {p: i for i, p in enumerate(points)}

    def normalize(self, x):
        try:  # the space's own point, however x spells it (1.0 or np.int64(1) for 1)
            return self.points[self._pos[x]]
        except (KeyError, TypeError):  # not a point, or unhashable
            raise UnknownPoint(f"{x!r} is not a point of this custom space") from None

    def canonical_key(self, x):
        return self._pos[x]

    def origin(self):
        return self.points[0]

    def dist(self, x, y):
        return int(self.table[self._pos[x], self._pos[y]])

    def ball_points(self, x, r, cap=BALL_CAP_DEFAULT):
        i = self._pos[x]
        return [p for j, p in enumerate(self.points) if self.table[i, j] <= r]

    def all_points(self):
        return list(self.points)

    def layout(self, points):
        # each point's row of the table
        return np.array([self._pos[p] for p in points], dtype=np.int64)

    def paired_dist(self, lay, I, J):
        return self.table[lay[I], lay[J]]

    def to_spec(self):
        return {
            "kind": "custom",
            "points": list(self.points),
            "dist": self.table.tolist(),
        }


def _holds_bool(v) -> bool:
    """Whether a JSON value is a boolean, or a list that holds one at any depth."""
    kinds = {*map(type, v)} if type(v) is list else {type(v)}  # one C-level pass per list
    return bool in kinds or list in kinds and any(map(_holds_bool, v))


# each kind: its constructor from the spec, the fields that must be JSON lists (a
# constructor would iterate a str or a dict), and the fields that may hold no JSON
# boolean (a constructor would take true for 1)
_SPECS = {
    "grid": (lambda spec: GridSpace(spec["dim"]), (), ("dim",)),
    "free_group": (lambda spec: FreeGroupSpace(spec["rank"]), (), ("rank",)),
    "tree": (lambda spec: TreeSpace(branching=spec.get("branching"), edges=spec.get("edges")),
             ("edges",), ("branching", "edges")),
    "point_line": (lambda spec: PointLineSpace(spec["coords"]), ("coords",), ("coords",)),
    "disjoint_union": (lambda spec: DisjointUnionSpace([make_space(b) for b in spec["blocks"]], spec["gaps"]),
                       ("blocks", "gaps"), ("gaps",)),
    "product_finite": (lambda spec: ProductFiniteSpace(make_space(spec["base"]), spec["n"]), (), ("n",)),
    "custom": (lambda spec: CustomSpace(spec["points"], spec["dist"]), ("points", "dist"), ("dist",)),
}


def make_space(spec: dict) -> Space:
    """Build a space handle from its JSON-style specification."""
    if isinstance(spec, Space):
        return spec
    if not isinstance(spec, dict) or "kind" not in spec:
        raise MalformedSpec(f"space spec must be a dict with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    if not (isinstance(kind, str) and kind in _SPECS):  # a JSON list or object is no key
        raise MalformedSpec(f"unknown space kind {kind!r}")
    build, lists, no_bools = _SPECS[kind]
    for key in lists:
        if key in spec and type(spec[key]) is not list:
            raise MalformedSpec(f"{kind} spec field {key!r} must be a JSON list, got {type(spec[key]).__name__}")
    for key in no_bools:
        if key in spec and _holds_bool(spec[key]):
            raise MalformedSpec(f"{kind} spec field {key!r} holds a JSON boolean where an integer belongs")
    try:
        return build(spec)
    except KeyError as exc:
        raise MalformedSpec(f"{kind} spec missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # a field of the wrong JSON type, or a ragged table
        raise MalformedSpec(f"{kind} spec has a malformed field: {exc}") from exc


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def _same_types(a, b) -> bool:
    """Whether a and b have the same types, tuple items included: (1,) and (1.0,) do not."""
    return type(a) is type(b) and (type(a) is not tuple or all(map(_same_types, a, b)))


class Window:
    """A finite ordered subset of a space, with ambient (not induced) distances."""

    def __init__(self, space: Space, points: Iterable):
        self._fill(space, space.normalize_all(points))

    @classmethod
    def _canonical(cls, space: Space, points: Iterable) -> "Window":
        """``Window(space, points)`` of points that are already canonical, without ``normalize``."""
        w = cls.__new__(cls)
        w._fill(space, points)
        return w

    def _fill(self, space: Space, points: Iterable):
        self.space = space
        # of equal points the last is kept, and the rest sort by canonical key
        self.points = tuple(space.canonical_sorted({p: p for p in points}.values()))
        self._index = {p: i for i, p in enumerate(self.points)}
        self.ball_center = self.ball_radius = None  # ball() sets both on the windows it builds
        self._graphs: dict = {}

    @cached_property
    def layout(self):
        """The space's layout of this window's points (:meth:`Space.layout`),
        built on first use and cached; callers must not modify it."""
        return self.space.layout(self.points)

    def __len__(self):
        return len(self.points)

    def __contains__(self, p):
        return p in self._index

    def index(self, p) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise UnknownPoint(f"{p!r} is not in this window") from None

    def ids(self, points, outside: Optional[dict] = None) -> np.ndarray:
        """The index of ``space.normalize(p)`` for each p, as an int64 array.
        A hit of the same types as the window's point, (1,) but not (1.0,),
        skips the call; a JSON list is not looked up.  Given ``outside``, the
        k-th distinct point outside the window gets len(self) + k, recorded
        there; without it such a point raises UnknownPoint.  A field of plain
        JSON values is first looked up whole (:meth:`_found`), and only what
        that misses goes point by point, in order."""
        found = self._found(points)
        if found is None:
            return np.array(self._each(points, outside), dtype=np.int64)
        miss = np.flatnonzero(found < 0)
        found[miss] = self._each([points[k] for k in miss.tolist()], outside)
        return found

    def _found(self, points) -> Optional[np.ndarray]:
        """Each point's index or -1, by one C-level pass over the window's dict, for
        a list of plain ints or of plain strs, or on a grid a list of lists of dim
        plain ints (looked up as the tuples normalize makes of them); else None."""
        # the first point turns a field of the window's own tuples away at once
        if type(points) is not list or not points or type(points[0]) not in (int, str, list):
            return None
        kinds = {*map(type, points)}
        if kinds == {list} and self.space.kind == "grid" and {*map(len, points)} == {self.space.dim}:
            flat = list(itertools.chain.from_iterable(points))
            if {*map(type, flat)} != {int}:
                return None
            keys = zip(*[iter(flat)] * self.space.dim)
        elif kinds == {int} or kinds == {str}:
            keys = points
        else:
            return None
        return np.fromiter(map(self._index.get, keys, itertools.repeat(-1)), dtype=np.int64, count=len(points))

    def _each(self, points, outside) -> list:
        get, pts, n, out = self._index.get, self.points, len(self.points), []
        for p in points:
            try:
                j = None if type(p) is list else get(p)  # a JSON point is never found
            except TypeError:  # unhashable
                j = None
            if j is None or not ((q := pts[j]) is p or type(p) is type(q) is not tuple or _same_types(p, q)):
                q = self.space.normalize(p)
                j = get(q)
                if j is None:
                    if outside is None:
                        raise UnknownPoint(f"{q!r} is not in this window")
                    j = outside.setdefault(q, n + len(outside))
            out.append(j)
        return out

    @property
    def is_ball(self) -> bool:
        return self.ball_center is not None and self.ball_radius is not None

    def subwindow(self, points) -> "Window":
        return Window._canonical(self.space, map(self.points.__getitem__, self.ids(points).tolist()))

    def scale_rows(self, r: int) -> tuple:
        """The relation d <= r on this window as CSR rows (indptr, indices): row
        i lists the other points within r of point i, ascending.  Built once per
        r from :func:`scale_pairs` with one sort and cached; int32 where scipy
        would index in int32, so that :meth:`scale_graph` views them.  Callers
        must not modify them."""
        g = self._graphs.get(r)
        if g is None:
            n = len(self.points)
            ii, jj = scale_pairs(self, r)
            key = np.concatenate([jj * n + ii, ii * n + jj])  # row * n + column
            key.sort(kind="stable")  # the pairs come in a few ascending runs
            dt = np.int32 if max(n, len(key)) < 2**31 else np.int64
            indptr = np.zeros(n + 1, dtype=dt)
            np.cumsum(np.bincount(ii, minlength=n) + np.bincount(jj, minlength=n), out=indptr[1:])
            g = self._graphs[r] = (indptr, (key % n).astype(dt))
            indptr.flags.writeable = g[1].flags.writeable = False
        return g if type(g) is tuple else (g.indptr, g.indices)

    def scale_graph(self, r: int) -> "sparse.csr_matrix":
        """:meth:`scale_rows` as a scipy CSR matrix of int8 ones, a view of the same
        arrays that takes their place in the cache; callers must not modify it."""
        indptr, indices = self.scale_rows(r)
        g = self._graphs[r]
        if type(g) is tuple:
            from scipy import sparse
            g = self._graphs[r] = sparse.csr_matrix(
                (np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(len(self),) * 2, copy=False)
            g.data.flags.writeable = False
        return g

    def net_chunks(self, c: int) -> list:
        """Greedy pass over the scale-c rows in canonical order: each point not
        yet taken seeds a chunk, the index array of itself and its neighbours
        not yet taken.  The seeds form a maximal c-separated subset."""
        indptr, indices = self.scale_rows(c)
        free = np.ones(len(self.points), dtype=bool)
        chunks = []
        for i in range(len(self.points)):
            if free[i]:
                row = indices[indptr[i]:indptr[i + 1]]
                chunk = np.concatenate(([i], row[free[row]]))
                free[chunk] = False
                chunks.append(chunk)
        return chunks

    def interior(self, r: int) -> tuple:
        """Points whose ambient r-ball lies entirely inside the window."""
        return tuple(itertools.compress(self.points, self.interior_mask(r).tolist()))

    def interior_mask(self, r: int) -> np.ndarray:
        """Per window index, whether the point's ambient r-ball lies entirely
        inside the window."""
        n = len(self.points)
        if r <= 0:
            return np.ones(n, dtype=bool)
        s = self.space
        if self.is_ball and s.geodesic_extension:
            if self.ball_radius < r:
                return np.zeros(n, dtype=bool)
            center = self.index(self.ball_center)
            return s.paired_dist(self.layout, center, np.arange(n)) <= self.ball_radius - r
        # the r-ball holds the point and its neighbours in the scale rows, so
        # it fits iff it has no other point: counting stops one point past that
        degree = np.diff(self.scale_rows(r)[0]).tolist()
        return np.array([k + 1 == s.ball_count(p, r, k + 1) for p, k in zip(self.points, degree)],
                        dtype=bool)

    def to_json(self) -> dict:
        if self.is_ball:
            return {
                "ball": {
                    "center": self.space.point_to_json(self.ball_center),
                    "radius": self.ball_radius,
                }
            }
        return {"points": [self.space.point_to_json(p) for p in self.points]}

    def __repr__(self):
        return f"<Window of {self.space.kind}, {len(self.points)} points>"


def ball(space: Space, x, r: int, cap: int = BALL_CAP_DEFAULT) -> Window:
    """The radius-r ball around x, as a window."""
    if r < 0:
        raise MalformedSpec("ball radius must be >= 0")
    x = space.normalize(x)
    w = Window._canonical(space, space.ball_points(x, r, cap=cap))
    w.ball_center, w.ball_radius = x, r
    return w


def is_nat(v) -> bool:
    """Whether a JSON value is an int >= 0 (a bool is not one)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def window_from_json(space: Space, data: dict) -> Window:
    """The window of a JSON spec, {"ball": {"center": x, "radius": r}} or
    {"points": [...]}; a spec of any other shape raises MalformedSpec."""
    if not isinstance(data, dict):
        raise MalformedSpec(f"a window spec is a JSON object, got {type(data).__name__}")
    if "ball" in data:
        b = data["ball"]
        if not (isinstance(b, dict) and "center" in b and is_nat(b.get("radius"))):
            raise MalformedSpec(f"a ball window needs a 'center' and an int 'radius' >= 0, got {b!r}")
        return ball(space, b["center"], b["radius"])
    if isinstance(data.get("points"), list):
        return Window(space, data["points"])
    raise MalformedSpec(f"window spec needs 'ball' or a 'points' list, got {data!r}")


def dist(space: Space, x, y) -> int:
    """Exact ambient distance between two valid points."""
    return space.dist(space.normalize(x), space.normalize(y))


# ---------------------------------------------------------------------------
# pair enumeration at a scale (the workhorse for components / covers / flows)
# ---------------------------------------------------------------------------

# rows of distances computed at once: memory stays linear in the window size
_ROW_BLOCK = 256


def scale_pairs(w: Window, r: int):
    """All index pairs (i, j), i < j, with d(points[i], points[j]) <= r.

    Returns a pair of int arrays.  The window's space picks the strategy
    (:meth:`Space.scale_pairs`, on the window's layout); every strategy
    computes the exact ambient relation.
    """
    if len(w.points) <= 1 or r <= 0:
        return _pair_arrays([], [])
    return w.space.scale_pairs(w.layout, r)


def _sweep_pairs(key: np.ndarray, r: int):
    """Index pairs (i, j), i < j, of ascending int64 keys with key[j] - key[i]
    <= r, in order of i then j; key + r must not leave int64."""
    cnt = np.searchsorted(key, key + r, side="right") - np.arange(1, len(key) + 1)
    i = np.repeat(np.arange(len(key)), cnt)
    return i, i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(cnt) - cnt, cnt)


def _pair_arrays(out_i: list, out_j: list):
    if not out_i:
        return (np.empty(0, dtype=np.int64),) * 2
    return np.concatenate(out_i).astype(np.int64), np.concatenate(out_j).astype(np.int64)


# ---------------------------------------------------------------------------
# window-level diagnostics
# ---------------------------------------------------------------------------

def bounded_geometry_profile(w: Window, r: int) -> int:
    """max over x in w of |B_r(x) ∩ w|."""
    if r < 0:
        raise MalformedSpec("scale must be >= 0")
    if len(w.points) == 0:
        return 0
    return int(np.diff(w.scale_rows(r)[0]).max()) + 1


def verify_metric(w: Window) -> dict:
    """Exhaustively check the metric axioms on a window (|w| <= METRIC_CHECK_CAP)."""
    pts = w.points
    if len(pts) > METRIC_CHECK_CAP:
        raise MalformedSpec(f"window of size {len(pts)} exceeds exhaustive-check cap {METRIC_CHECK_CAP}")
    failures = _metric_failures(w.space.pairwise_dist(pts, pts))
    witness = failures.get("triangle", failures.get("zero"))
    report = {
        "symmetry": "asymmetric" not in failures,
        "identity": not {"negative", "diagonal", "zero"} & failures.keys(),
        "triangle": "triangle" not in failures,
        "witness": None if witness is None else tuple(pts[i] for i in witness),
    }
    report["ok"] = report["symmetry"] and report["identity"] and report["triangle"]
    return report


def window_diameter(w: Window) -> int:
    """Exact diameter of a window."""
    n = len(w.points)
    return w.space.piece_diameters(w.layout, np.arange(n), [n])[0]
