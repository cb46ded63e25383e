"""Colored r-separated uniformly bounded decompositions of windows.

A :class:`ColoredCover` with d+1 colors whose pieces partition the window,
are pairwise > r apart within each color, and have diameter <= B witnesses
"asymptotic dimension <= d at scale r" on that window.  Constructions for
the line, the plane, and trees are provided alongside an independent
verifier and a greedy search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .components import ClassLayout, scale_layout
from .errors import MalformedSpec, NotTreelike, Report
from .spaces import GridSpace, Space, TreeMetricSpace, Window


@dataclass(frozen=True)
class ColoredCover:
    window: Window
    r: int
    bound: int
    colors: tuple  # tuple over colors; each color a tuple of point tuples

    @property
    def n_colors(self) -> int:
        return len(self.colors)

    def pieces(self):
        for c, fam in enumerate(self.colors):
            for k, piece in enumerate(fam):
                yield c, k, piece

    def to_json(self) -> dict:
        enc = self.window.space.point_to_json
        return {
            "r": self.r,
            "bound": self.bound,
            "colors": [
                [[enc(p) for p in piece] for piece in fam] for fam in self.colors
            ],
        }


@dataclass(frozen=True)
class CoverReport(Report):
    partition_ok: bool
    separation_ok: bool
    bound_ok: bool
    witness: Optional[dict]

    @property
    def passed(self) -> bool:
        return self.partition_ok and self.separation_ok and self.bound_ok


def verify_decomposition(cover: ColoredCover) -> CoverReport:
    """Independent check of partition, same-color separation, and diameter bound."""
    w = cover.window
    enc = w.space.point_to_json
    witness = None

    n = len(w.points)
    pieces = list(cover.pieces())
    sizes = [len(piece) for _, _, piece in pieces]
    # the pieces' window indices end to end; raises UnknownPoint outside the window
    idx = w.ids([p for _, _, piece in pieces for p in piece])
    repeat = np.ones(len(idx), dtype=bool)
    repeat[np.unique(idx, return_index=True)[1]] = False
    partition_ok = not repeat.any()
    if not partition_ok:
        witness = {"kind": "overlap", "point": enc(w.points[idx[repeat.argmax()]])}
    # each point keeps the colour and piece of its last piece
    last = len(idx) - 1 - np.unique(idx[::-1], return_index=True)[1]
    color_of = np.full(n, -1, dtype=np.int64)
    piece_of = np.full(n, -1, dtype=np.int64)
    color_of[idx[last]] = np.repeat([c for c, _, _ in pieces], sizes)[last]
    piece_of[idx[last]] = np.repeat(np.arange(len(pieces)), sizes)[last]
    if partition_ok and np.any(color_of == -1):
        partition_ok = False
        i = int(np.nonzero(color_of == -1)[0][0])
        if witness is None:
            witness = {"kind": "uncovered", "point": enc(w.points[i])}

    separation_ok = True
    indptr, indices = w.scale_rows(cover.r)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    upper = rows < indices  # each pair once, in row-major order
    ii, jj = rows[upper], indices[upper]
    if len(ii):
        bad = (
            (color_of[ii] == color_of[jj])
            & (color_of[ii] >= 0)
            & (piece_of[ii] != piece_of[jj])
        )
        if np.any(bad):
            separation_ok = False
            k = int(np.nonzero(bad)[0][0])
            if witness is None:
                a, b = w.points[int(ii[k])], w.points[int(jj[k])]
                witness = {
                    "kind": "separation",
                    "pair": [enc(a), enc(b)],
                    "distance": w.space.dist(a, b),
                }

    diams = w.space.piece_diameters(w.layout, idx, sizes)
    over = next((pid for pid, diam in enumerate(diams) if diam > cover.bound), None)
    bound_ok = over is None
    if not bound_ok and witness is None:
        c, k, _ = pieces[over]
        witness = {"kind": "bound", "color": c, "piece": k, "diameter": diams[over]}

    return CoverReport(partition_ok, separation_ok, bound_ok, witness)


def _group_pieces(w: Window, assign) -> tuple:
    """Assemble pieces from a point -> (color, piece key) classifier."""
    families: dict[int, dict] = {}
    for p in w.points:
        c, key = assign(p)
        families.setdefault(c, {}).setdefault(key, []).append(p)
    n_colors = max(families) + 1 if families else 0
    out = []
    for c in range(n_colors):
        fam = families.get(c, {})
        out.append(tuple(tuple(fam[k]) for k in sorted(fam)))
    return tuple(out)


def witness_line(r: int, w: Window) -> ColoredCover:
    """Two-color interval pattern on a window of Z: period 4r, pieces of 2r points."""
    if r < 1:
        raise MalformedSpec("scale must be >= 1")
    if not (isinstance(w.space, GridSpace) and w.space.dim == 1):
        raise MalformedSpec("witness_line expects a window of Z (grid dim 1)")

    def assign(p):
        x = p[0]
        u = x % (4 * r)
        k = x // (4 * r)
        return (0, k) if u < 2 * r else (1, k)

    colors = _group_pieces(w, assign)
    while len(colors) < 2:
        colors = colors + ((),)
    return ColoredCover(w, r, 2 * r - 1, colors)


def witness_grid2(r: int, w: Window) -> ColoredCover:
    """Three-color pattern on a window of Z^2 with cell size 10r: corner
    squares of half-width 3r, width-2r edge strips, and the leftover interior
    regions."""
    if r < 1:
        raise MalformedSpec("scale must be >= 1")
    if not (isinstance(w.space, GridSpace) and w.space.dim == 2):
        raise MalformedSpec("witness_grid2 expects a window of Z^2")
    L = 10 * r

    def offset(u):
        # position relative to the nearest gridline coordinate, in [-5r, 5r)
        t = (u + 5 * r) % L - 5 * r
        j = (u - t) // L
        return t, j

    def cell(u):
        # index of the cell [L*j + r, L*(j+1) - r) containing u
        return (u - r) // L

    def assign(p):
        x, y = p
        tx, jx = offset(x)
        ty, jy = offset(y)
        corner_x = -3 * r <= tx < 3 * r
        corner_y = -3 * r <= ty < 3 * r
        narrow_x = -r <= tx < r
        narrow_y = -r <= ty < r
        if corner_x and corner_y:
            return 0, (jx, jy)
        if narrow_y and not corner_x:
            return 1, ("h", cell(x), jy)
        if narrow_x and not corner_y:
            return 1, ("v", jx, cell(y))
        return 2, (cell(x), cell(y))

    colors = _group_pieces(w, assign)
    while len(colors) < 3:
        colors = colors + ((),)
    pieces = [piece for fam in colors for piece in fam]
    idx = w.ids([p for piece in pieces for p in piece])
    bound = max(w.space.piece_diameters(w.layout, idx, [len(piece) for piece in pieces]), default=0)
    return ColoredCover(w, r, bound, colors)


def witness_tree(space: Space, root, r: int, w: Window) -> ColoredCover:
    """Two-color annulus pattern on a tree-like space: annuli of width 2r by
    distance from the root, colored by parity, pieces the r-chain components
    within each annulus."""
    if r < 1:
        raise MalformedSpec("scale must be >= 1")
    if not isinstance(space, TreeMetricSpace):
        raise NotTreelike(f"witness_tree needs a tree or free_group space, got {space.kind}")
    if w.space is not space:
        raise MalformedSpec("window must live in the given space")
    root = space.normalize(root)
    n = len(w.points)
    if root in w:
        from_root = space.paired_dist(w.layout, w.index(root), np.arange(n))
    else:
        from_root = space.pairwise_dist([root], w.points)[0]
    annulus = from_root // min(2 * r, 1 << 62)  # a wider annulus than that holds every point

    # r-chain components inside each annulus
    indptr, indices = w.scale_rows(r)
    inside = np.repeat(annulus, np.diff(indptr)) == annulus[indices]
    kept = np.concatenate(([0], np.cumsum(inside)))[indptr]  # the row starts among the entries inside
    lay = ClassLayout.of(kept, indices[inside])
    families = ([], [])
    for idxs in lay.classes:
        families[annulus[idxs[0]] % 2].append(tuple(w.points[i] for i in idxs))
    colors = (tuple(families[0]), tuple(families[1]))
    bound = max(space.piece_diameters(w.layout, lay.order, lay.sizes), default=0)
    return ColoredCover(w, r, bound, colors)


def greedy_cover(w: Window, r: int, d: int, B: int) -> Optional[ColoredCover]:
    """First-fit search for a (d+1)-colored cover with bound B; returns None
    when the heuristic exhausts its options (this proves nothing)."""
    if d < 0 or B < 0:
        raise MalformedSpec("need d >= 0 and B >= 0")
    if r < 0:
        raise MalformedSpec("scale must be >= 0")
    space = w.space
    if d == 0:
        lay = scale_layout(w, r)
        if any(diam > B for diam in space.piece_diameters(w.layout, lay.order, lay.sizes)):
            return None
        cover = ColoredCover(w, r, B, (tuple(tuple(w.points[i] for i in c) for c in lay.classes),))
        return cover if verify_decomposition(cover).passed else None

    # chunk the window into pieces of radius <= B // 2 around the seeds of
    # net_extract(w, B // 2); give each chunk the first color not taken by a
    # window point within r of it (only earlier chunks are colored yet)
    indptr, indices = w.scale_rows(r)
    color_of = np.full(len(w.points), -1, dtype=np.int64)
    families = [[] for _ in range(d + 1)]
    for chunk in w.net_chunks(B // 2):
        nbrs = np.concatenate([indices[indptr[i]:indptr[i + 1]] for i in chunk])
        taken = set(color_of[nbrs].tolist())
        c = next((c for c in range(d + 1) if c not in taken), None)
        if c is None:
            return None
        color_of[chunk] = c
        families[c].append(tuple(w.points[i] for i in chunk))
    cover = ColoredCover(w, r, B, tuple(tuple(f) for f in families))
    return cover if verify_decomposition(cover).passed else None
