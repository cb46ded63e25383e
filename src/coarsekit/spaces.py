"""Bounded-geometry metric spaces with exact integer distances, and finite windows.

Every space kind provides an exact integer-valued distance oracle on canonical
point ids.  A :class:`Window` is a finite, canonically ordered subset of a space
carrying ambient distances; it is the universe for all downstream computations.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from functools import cached_property, lru_cache
from math import comb
from typing import Any, Iterable, Optional, Sequence

import numpy as np
from scipy import sparse

from .errors import (
    EnumerationOverflow,
    IntegerOverflow,
    MalformedSpec,
    MetricViolation,
    UnknownPoint,
)

PointId = Any

BALL_CAP_DEFAULT = 2_000_000

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


# ---------------------------------------------------------------------------
# reduced-word helpers (free groups)
# ---------------------------------------------------------------------------

def word_mul(u: str, v: str) -> str:
    """Reduced product of two reduced words (lowercase letter = generator,
    uppercase = its inverse)."""
    i = len(u)
    j = 0
    while i > 0 and j < len(v) and u[i - 1] == v[j].swapcase():
        i -= 1
        j += 1
    return u[:i] + v[j:]


def word_dist(u: str, v: str) -> int:
    # |u^-1 v| = |u| + |v| - 2 * (longest common prefix)
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

    def canonical_key(self, x):
        """Sort key inducing the canonical total order on points."""
        raise NotImplementedError

    def origin(self) -> PointId:
        raise NotImplementedError

    # -- metric ------------------------------------------------------------
    def dist(self, x, y) -> int:
        raise NotImplementedError

    def ball_points(self, x, r: int, cap: int = BALL_CAP_DEFAULT) -> list:
        """All points at distance <= r from x, no duplicates."""
        raise NotImplementedError

    def ball_size(self, x, r: int) -> int:
        return len(self.ball_points(x, r))

    def neighborhood(self, F, r: int) -> set:
        """The ambient r-neighbourhood {x : d(x, F) <= r} of finitely many points."""
        return {q for p in F for q in self.ball_points(p, r)}

    def neighborhood_size(self, F, r: int) -> int:
        return len(self.neighborhood(F, r))

    def neighbors(self, x) -> list:
        """Unit-distance neighbors; only meaningful when ``graph_like``."""
        raise NotImplementedError(f"{self.kind} has no unit-step structure")

    def all_points(self) -> list:
        raise NotImplementedError(f"{self.kind} is not finite")

    def ball_sizes(self, x, n_max: int, cap: int) -> list:
        """|B_n(x)| for n = 0..n_max; raises EnumerationOverflow once one exceeds cap."""
        sizes = []
        for n in range(n_max + 1):
            sizes.append(self.ball_size(x, n))
            if sizes[-1] > cap:
                raise EnumerationOverflow(f"ball size exceeds cap {cap}")
        return sizes

    # -- metric on finite sets: kinds override these where they have a faster
    # exact path ---------------------------------------------------------------
    def pairwise_dist(self, A: Sequence, B: Sequence) -> np.ndarray:
        """The |A| x |B| int64 matrix of distances between canonical points;
        raises IntegerOverflow when a distance lies outside int64."""
        D = [[self.dist(a, b) for b in B] for a in A]
        try:
            return np.array(D, dtype=np.int64).reshape(len(A), len(B))
        except OverflowError:
            i, j = next((i, j) for i, row in enumerate(D)
                        for j, d in enumerate(row) if d >= 1 << 63)
            raise IntegerOverflow(f"d({A[i]!r}, {B[j]!r}) = {D[i][j]} lies outside int64") from None

    def diameter(self, pts: Sequence) -> int:
        """Exact diameter of a finite point set."""
        pts = list(pts)
        return max((int(self.pairwise_dist(pts[lo:lo + _ROW_BLOCK], pts[lo:]).max())
                    for lo in range(0, len(pts), _ROW_BLOCK)), default=0)

    def scale_pairs(self, w: "Window", r: int):
        """Index pairs (i, j), i < j, of window points at distance <= r, as two
        int64 arrays.  Compares all pairs, a block of rows at a time."""
        pts = w.points
        out_i, out_j = [], []
        for lo in range(0, len(pts), _ROW_BLOCK):
            D = self.pairwise_dist(pts[lo:lo + _ROW_BLOCK], pts[lo:])
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
        a = np.array(points, dtype=np.int64).reshape(len(points), dim)
    except OverflowError:
        return None
    if len(a) and max(int(a.max()), -int(a.min())) + pad >= (1 << 62) // dim:
        return None
    return a


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
        if isinstance(x, (list, tuple)) and len(x) == self.dim and all(
            isinstance(c, (int, np.integer)) for c in x
        ):
            return tuple(int(c) for c in x)
        if self.dim == 1 and isinstance(x, (int, np.integer)):
            return (int(x),)
        raise UnknownPoint(f"not a Z^{self.dim} point: {x!r}")

    def canonical_key(self, x):
        return x

    def origin(self):
        return (0,) * self.dim

    def dist(self, x, y):
        return sum(abs(a - b) for a, b in zip(x, y))

    def ball_size(self, x, r):
        # l1 ball cardinality in Z^d
        return sum((1 << k) * comb(self.dim, k) * comb(r, k) for k in range(min(self.dim, r) + 1))

    def _ball_offsets(self, r, cap=BALL_CAP_DEFAULT) -> np.ndarray:
        """The l1 r-ball around 0 as read-only int64 rows in canonical order (cached up to 2^16)."""
        size = self.ball_size(None, r)
        if size > cap:
            raise EnumerationOverflow(f"l1 ball of radius {r} in Z^{self.dim} exceeds cap {cap}")
        return (_l1_offsets if size <= 1 << 16 else _l1_offsets.__wrapped__)(self.dim, r)

    def ball_points(self, x, r, cap=BALL_CAP_DEFAULT):
        # offsets are added in Python ints: coordinates may lie outside int64
        cols = self._ball_offsets(r, cap).T.tolist()
        return list(zip(*([c + o for o in col] for c, col in zip(x, cols))))

    def _box(self, points, pad: int):
        """Mixed-radix codes of points in their bounding box grown by pad
        on each side, as (strides, codes); codes order as points do.  None when there
        are no points, when :func:`_int64_coords` refuses them, or when the cell
        count of the box reaches 2^62, where int64 codes could wrap."""
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
        box = self._box(list(F), r)
        if box is None:
            return super().neighborhood_size(F, r)
        (strides, codes), off = box, self._ball_offsets(r)
        u = np.empty(0, dtype=np.int64)
        step = max(1, (1 << 22) // len(off))  # rows at a time: memory stays near |N_r(F)|
        for lo in range(0, len(codes), step):
            u = np.union1d(u, codes[lo:lo + step, None] + off @ strides)
        return len(u)

    def neighbors(self, x):
        out = []
        for i in range(self.dim):
            for s in (1, -1):
                out.append(x[:i] + (x[i] + s,) + x[i + 1:])
        return out

    def pairwise_dist(self, A, B):
        a, b = _int64_coords(A, self.dim), _int64_coords(B, self.dim)
        if a is None or b is None:
            return Space.pairwise_dist(self, A, B)
        return np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)

    @cached_property
    def _signs(self) -> np.ndarray:
        # l1 is l-infinity after projecting onto these 2^(dim-1) sign vectors
        return np.array([(1,) + s for s in itertools.product((1, -1), repeat=self.dim - 1)],
                        dtype=np.int64).T

    def diameter(self, pts):
        if len(pts) < 2:
            return 0
        if self.dim == 1:  # one-coordinate tuples compare as their coordinate
            return max(pts)[0] - min(pts)[0]
        coords = _int64_coords(pts, self.dim)
        if coords is None:
            return super().diameter(pts)
        proj = coords @ self._signs
        return int(max(proj.max(axis=0) - proj.min(axis=0)))

    def scale_pairs(self, w, r):
        # each offset in the r-ball is one sorted lookup of shifted box codes
        n = len(w.points)
        box = self._box(w.points, r)
        if box is None or self.ball_size(w.points[0], r) > max(64, 4 * n):
            return super().scale_pairs(w, r)
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


class TreeMetricSpace(Space):
    """A space whose metric is the path metric of a tree (free groups, trees)."""

    graph_like = True

    def _bfs(self, src, cutoff: int, cap: Optional[int] = None) -> dict:
        """Distances from src out to radius cutoff, in breadth-first order with
        neighbours in ``neighbors`` order; raises EnumerationOverflow as soon as
        more than cap points are reached."""
        lengths = {src: 0}
        frontier = [src]
        level = 0
        while frontier and level < cutoff:
            level += 1
            nxt = []
            for v in frontier:
                for u in self.neighbors(v):
                    if u not in lengths:
                        lengths[u] = level
                        nxt.append(u)
                if cap is not None and len(lengths) > cap:
                    raise EnumerationOverflow(f"{self.kind} ball around {src!r} exceeds cap {cap}")
            frontier = nxt
        return lengths

    def diameter(self, pts):
        # a double sweep is exact for tree metrics
        if len(pts) < 2:
            return 0
        far = pts[self.pairwise_dist(pts[:1], pts).argmax()]
        return max(self.pairwise_dist([far], pts)[0].tolist())

    def scale_pairs(self, w, r):
        if w.is_ball:
            return self._pairs_graph_power(w, r)
        if self.ball_size(w.points[0], r) <= max(64, 4 * len(w.points)):
            return self._pairs_point_balls(w, r)
        return super().scale_pairs(w, r)

    def _pairs_graph_power(self, w, r):
        # a ball is convex in a tree, so window BFS distance equals ambient
        # distance and boolean powers of the unit adjacency give the relation
        n = len(w.points)
        rows, cols = [], []
        for i, p in enumerate(w.points):
            for q in self.neighbors(p):
                j = w._index.get(q)
                if j is not None and j != i:
                    rows.append(i)
                    cols.append(j)
        A = sparse.csr_matrix(
            (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n)
        )
        M = (A + sparse.identity(n, dtype=np.int8, format="csr")).astype(bool)
        P = M
        for _ in range(r - 1):
            P = (P @ M).astype(bool)
        coo = sparse.triu(P, k=1).tocoo()
        return coo.row.astype(np.int64), coo.col.astype(np.int64)

    def _pairs_point_balls(self, w, r):
        out_i, out_j = [], []
        for i, p in enumerate(w.points):
            for q in self.ball_points(p, r):
                j = w._index.get(q)
                if j is not None and j > i:
                    out_i.append(i)
                    out_j.append(j)
        return np.array(out_i, dtype=np.int64), np.array(out_j, dtype=np.int64)


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
        self._letterset = set(self.letters)

    def normalize(self, x):
        if not isinstance(x, str):
            raise UnknownPoint(f"free group points are strings, got {x!r}")
        for c in x:
            if c not in self._letterset:
                raise UnknownPoint(f"letter {c!r} not valid for rank {self.rank}")
        for a, b in zip(x, x[1:]):
            if a == b.swapcase():
                raise UnknownPoint(f"word {x!r} is not reduced")
        return x

    def canonical_key(self, x):
        return (len(x), x)

    def origin(self):
        return ""

    def dist(self, x, y):
        return word_dist(x, y)

    def ball_size(self, x, r):
        k = self.rank
        total = 1
        sphere = 2 * k
        for _ in range(r):
            total += sphere
            sphere *= 2 * k - 1
        return total

    def ball_points(self, x, r, cap=BALL_CAP_DEFAULT):
        if self.ball_size(x, r) > cap:
            raise EnumerationOverflow(f"free group ball of radius {r} exceeds cap {cap}")
        return list(self._bfs(x, r))

    def neighbors(self, x):
        # x * s for each letter s: it cancels the last letter of x, or appends s
        last = x[-1:].swapcase()
        return [x[:-1] if s == last else x + s for s in self.letters]

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

    def depth(self, v):
        if self.branching is None:
            return self._depth[v]
        d, b = 0, self.branching
        while v > 0:
            v = (v - 1) // b
            d += 1
        return d

    def normalize(self, x):
        if isinstance(x, (int, np.integer)) and x >= 0:
            x = int(x)
            if self.branching is None and x >= self.n_vertices:
                raise UnknownPoint(f"vertex {x} outside tree of size {self.n_vertices}")
            return x
        raise UnknownPoint(f"tree points are nonnegative ints, got {x!r}")

    def canonical_key(self, x):
        return x

    def origin(self):
        return 0

    def dist(self, x, y):
        # climb to equal depth, then both sides to the lowest common ancestor
        dx, dy = self.depth(x), self.depth(y)
        for _ in range(dx - dy):
            x = self._parent(x)
        for _ in range(dy - dx):
            y = self._parent(y)
        d = abs(dx - dy)
        while x != y:
            x, y = self._parent(x), self._parent(y)
            d += 2
        return d

    def pairwise_dist(self, A, B):
        if self.branching is not None:
            return super().pairwise_dist(A, B)
        # one breadth-first search per row, over the whole tree, kept for that row only
        rows = (self._bfs(a, self.n_vertices) for a in A)
        D = [[row[b] for b in B] for row in rows]
        return np.array(D, dtype=np.int64).reshape(len(A), len(B))

    def neighbors(self, x):
        if self.branching is not None:
            b = self.branching
            out = [] if x == 0 else [(x - 1) // b]
            out.extend(b * x + i for i in range(1, b + 1))
            return out
        return list(self._adj[x])

    def ball_points(self, x, r, cap=BALL_CAP_DEFAULT):
        return sorted(self._bfs(x, cutoff=r, cap=cap))

    def ball_size(self, x, r):
        return len(self._bfs(x, cutoff=r))

    def ball_sizes(self, x, n_max, cap):
        depths = np.bincount(list(self._bfs(x, cutoff=n_max, cap=cap).values()),
                             minlength=n_max + 1)
        return np.cumsum(depths).tolist()

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

    def canonical_key(self, x):
        return x

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
    pairwise_dist = GridSpace.pairwise_dist

    def diameter(self, pts):
        return max(pts) - min(pts) if len(pts) else 0

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

    def scale_pairs(self, w, r):
        # window points are block-major, so each block is one run of indices,
        # and so are the later blocks within r of a block
        blk = np.array([k for k, _ in w.points], dtype=np.int64)
        start = np.searchsorted(blk, np.arange(len(self.blocks) + 1)).tolist()
        last = np.searchsorted(self._reach, r + np.array(self._base), side="right").tolist()
        out_i, out_j = [], []
        for k in np.unique(blk).tolist():
            lo, hi = start[k], start[k + 1]
            if hi - lo > 1:
                si, sj = scale_pairs(Window(self.blocks[k], [p for _, p in w.points[lo:hi]]), r)
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

    def ball_size(self, x, r):
        a, _ = x
        s = self.base.ball_size(a, r)
        if r >= 1:
            s += (self.n - 1) * self.base.ball_size(a, r - 1)
        return s

    def neighbors(self, x):
        a, i = x
        out = [(p, i) for p in self.base.neighbors(a)]
        out.extend((a, j) for j in range(1, self.n + 1) if j != i)
        return out

    def all_points(self):
        return [(p, j) for p in self.base.all_points() for j in range(1, self.n + 1)]

    def ball_sizes(self, x, n_max, cap):
        base = self.base.ball_sizes(x[0], n_max, cap)
        sizes = base[:1] + [s + (self.n - 1) * t for s, t in zip(base[1:], base)]
        if sizes[-1] > cap:
            raise EnumerationOverflow(f"ball size exceeds cap {cap}")
        return sizes

    def pairwise_dist(self, A, B):
        D = self.base.pairwise_dist([a for a, _ in A], [b for b, _ in B])
        la = np.array([l for _, l in A], dtype=np.int64)
        lb = np.array([l for _, l in B], dtype=np.int64)
        return D + (la[:, None] != lb[None, :])

    def scale_pairs(self, w, r):
        # d((a, i), (b, j)) <= r  iff  d(a, b) <= r when i == j, and d(a, b) <= r - 1
        # when i != j; the window order groups points by base, then by level
        bases = [b for b, _ in w.points]
        first = [0] + [k for k in range(1, len(bases)) if bases[k] != bases[k - 1]]
        # the bases of a ball B_R((c, i)) form the base ball B_R(c)
        center = w.ball_center[0] if w.is_ball else None
        bw = Window(self.base, [bases[k] for k in first], center, w.ball_radius)
        base_of = np.repeat(np.arange(len(first)), np.diff(first + [len(bases)]))
        levels, lvl_of = np.unique([l for _, l in w.points], return_inverse=True)
        pos = np.full((len(first), len(levels)), -1, dtype=np.int64)
        pos[base_of, lvl_of] = np.arange(len(bases))
        same, near = scale_pairs(bw, r), scale_pairs(bw, r - 1)
        everyone = (np.arange(len(first)),) * 2
        out_i, out_j = [], []
        for l in range(len(levels)):
            for m in range(len(levels)):
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
    for k in range(len(D)):
        bad = D > D[:, [k]] + D[[k], :]
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
        D = np.asarray(table)
        n = len(points)
        if D.shape != (n, n):
            raise MalformedSpec(f"distance table must be {n}x{n}, got {D.shape}")
        if not np.issubdtype(D.dtype, np.integer):
            Df = np.asarray(table, dtype=float)
            if not np.all(Df == np.round(Df)):
                raise MalformedSpec("distance table entries must be integers")
            D = Df.astype(np.int64)
        D = D.astype(np.int64)
        for axiom, idx in _metric_failures(D).items():  # raise on the first one
            witness = tuple(points[i] for i in idx)
            raise MetricViolation(_METRIC_MESSAGES[axiom].format(*witness),
                                  witness=None if axiom == "negative" else witness)
        self.points = points
        self.table = D
        self._pos = {p: i for i, p in enumerate(points)}

    def normalize(self, x):
        if isinstance(x, np.integer):
            x = int(x)
        if x in self._pos:
            return x
        raise UnknownPoint(f"{x!r} is not a point of this custom space")

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

    def pairwise_dist(self, A, B):
        ia = np.array([self._pos[p] for p in A], dtype=np.int64)
        ib = np.array([self._pos[p] for p in B], dtype=np.int64)
        return self.table[np.ix_(ia, ib)]

    def to_spec(self):
        return {
            "kind": "custom",
            "points": list(self.points),
            "dist": self.table.tolist(),
        }


def make_space(spec: dict) -> Space:
    """Build a space handle from its JSON-style specification."""
    if isinstance(spec, Space):
        return spec
    if not isinstance(spec, dict) or "kind" not in spec:
        raise MalformedSpec(f"space spec must be a dict with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    try:
        if kind == "grid":
            return GridSpace(spec["dim"])
        if kind == "free_group":
            return FreeGroupSpace(spec["rank"])
        if kind == "tree":
            return TreeSpace(branching=spec.get("branching"), edges=spec.get("edges"))
        if kind == "point_line":
            return PointLineSpace(spec["coords"])
        if kind == "disjoint_union":
            blocks = [make_space(b) for b in spec["blocks"]]
            return DisjointUnionSpace(blocks, spec["gaps"])
        if kind == "product_finite":
            return ProductFiniteSpace(make_space(spec["base"]), spec["n"])
        if kind == "custom":
            return CustomSpace(spec["points"], spec["dist"])
    except KeyError as exc:
        raise MalformedSpec(f"{kind} spec missing field {exc}") from exc
    raise MalformedSpec(f"unknown space kind {kind!r}")


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

class Window:
    """A finite ordered subset of a space, with ambient (not induced) distances."""

    def __init__(self, space: Space, points: Iterable, ball_center=None, ball_radius=None):
        pts = [space.normalize(p) for p in points]
        keyed = sorted({space.canonical_key(p): p for p in pts}.items())
        self.space = space
        self.points = tuple(p for _, p in keyed)
        self._index = {p: i for i, p in enumerate(self.points)}
        self.ball_center = space.normalize(ball_center) if ball_center is not None else None
        self.ball_radius = ball_radius
        self._graphs: dict = {}

    def __len__(self):
        return len(self.points)

    def __contains__(self, p):
        return p in self._index

    def index(self, p) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise UnknownPoint(f"{p!r} is not in this window") from None

    @property
    def is_ball(self) -> bool:
        return self.ball_center is not None and self.ball_radius is not None

    def subwindow(self, points) -> "Window":
        return Window(self.space, points)

    def scale_graph(self, r: int) -> sparse.csr_matrix:
        """Symmetric CSR adjacency of "d <= r" on this window, with sorted
        indices and no diagonal.  Built once per r from :func:`scale_pairs`
        and cached; callers must not modify it."""
        g = self._graphs.get(r)
        if g is None:
            n = len(self.points)
            ii, jj = scale_pairs(self, r)
            g = sparse.csr_matrix(
                (np.ones(2 * len(ii), dtype=np.int8),
                 (np.concatenate([ii, jj]), np.concatenate([jj, ii]))),
                shape=(n, n),
            )
            g.sum_duplicates()
            for a in (g.data, g.indices, g.indptr):
                a.flags.writeable = False
            self._graphs[r] = g
        return g

    def net_chunks(self, c: int) -> list:
        """Greedy pass over the scale-c graph in canonical order: each point not
        yet taken seeds a chunk, the index array of itself and its neighbours
        not yet taken.  The seeds form a maximal c-separated subset."""
        g = self.scale_graph(c)
        free = np.ones(len(self.points), dtype=bool)
        chunks = []
        for i in range(len(self.points)):
            if free[i]:
                row = g.indices[g.indptr[i]:g.indptr[i + 1]]
                chunk = np.concatenate(([i], row[free[row]]))
                free[chunk] = False
                chunks.append(chunk)
        return chunks

    def interior(self, r: int) -> tuple:
        """Points whose ambient r-ball lies entirely inside the window."""
        if r <= 0:
            return self.points
        s = self.space
        if self.is_ball and s.geodesic_extension:
            if self.ball_radius < r:
                return ()
            near = s.pairwise_dist([self.ball_center], self.points)[0] <= self.ball_radius - r
            return tuple(itertools.compress(self.points, near.tolist()))
        degree = np.diff(self.scale_graph(r).indptr).tolist()
        return tuple(p for p, k in zip(self.points, degree) if k + 1 == s.ball_size(p, r))

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
    pts = space.ball_points(x, r, cap=cap)
    return Window(space, pts, ball_center=x, ball_radius=r)


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


def pairwise_dist(space: Space, A: Sequence, B: Sequence) -> np.ndarray:
    """The |A| x |B| int64 matrix of ambient distances between canonical points."""
    return space.pairwise_dist(A, B)


# ---------------------------------------------------------------------------
# pair enumeration at a scale (the workhorse for components / covers / flows)
# ---------------------------------------------------------------------------

# rows of distances computed at once: memory stays linear in the window size
_ROW_BLOCK = 256


def scale_pairs(w: Window, r: int):
    """All index pairs (i, j), i < j, with d(points[i], points[j]) <= r.

    Returns a pair of int arrays.  The window's space picks the strategy
    (:meth:`Space.scale_pairs`); every strategy computes the exact ambient
    relation.
    """
    if len(w.points) <= 1 or r <= 0:
        return _pair_arrays([], [])
    return w.space.scale_pairs(w, r)


def _pair_arrays(out_i: list, out_j: list):
    if not out_i:
        return (np.empty(0, dtype=np.int64),) * 2
    return np.concatenate(out_i).astype(np.int64), np.concatenate(out_j).astype(np.int64)


def _pairs_bruteforce(w: Window, r: int):
    """The test oracle for :func:`scale_pairs`: one ``dist`` call per pair."""
    s = w.space
    pts = w.points
    out_i, out_j = [], []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if s.dist(pts[i], pts[j]) <= r:
                out_i.append(i)
                out_j.append(j)
    return np.array(out_i, dtype=np.int64), np.array(out_j, dtype=np.int64)


# ---------------------------------------------------------------------------
# window-level diagnostics
# ---------------------------------------------------------------------------

def bounded_geometry_profile(w: Window, r: int) -> int:
    """max over x in w of |B_r(x) ∩ w|."""
    if r < 0:
        raise MalformedSpec("scale must be >= 0")
    if len(w.points) == 0:
        return 0
    return int(np.diff(w.scale_graph(r).indptr).max()) + 1


def verify_metric(w: Window, cap: int = 300) -> dict:
    """Exhaustively check the metric axioms on a window (|w| <= cap)."""
    pts = w.points
    n = len(pts)
    if n > cap:
        raise MalformedSpec(f"window of size {n} exceeds exhaustive-check cap {cap}")
    failures = _metric_failures(pairwise_dist(w.space, pts, pts))
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
    return w.space.diameter(w.points)
