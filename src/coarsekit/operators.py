"""Finite-propagation operators over windows.

A :class:`BandedOperator` is a sparse matrix indexed by window points whose
propagation (largest distance over the support) is finite by construction.
Combinatorial operators built from characteristic functions, partial
translations, and segment shifts carry exact integer entries, so the algebraic
identities they satisfy are checked with zero tolerance; generic operators use
complex doubles with a 1e-9 comparison tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse as sp

from .amenability import PartialTranslation
from .components import SegmentFamily, components_at_scale
from .covers import ColoredCover
from .errors import (
    ClassTooLarge,
    LevelsTooSmall,
    MalformedSpec,
    NoProbe,
    PropagationTooLarge,
    SegmentOutsideWindow,
    WindowMismatch,
)
from .spaces import GridSpace, ProductFiniteSpace, Window

FLOAT_TOL = 1e-9
DENSE_NORM_LIMIT = 512


class BandedOperator:
    """Sparse operator over a window; entries[(i, j)] is the (row, column)
    coefficient in the window's canonical index order."""

    def __init__(self, window: Window, entries: dict, exact: Optional[bool] = None):
        self.window = window
        self.entries = {k: v for k, v in entries.items() if v != 0}
        if exact is None:
            exact = all(isinstance(v, int) for v in self.entries.values())
        self.exact = exact
        self._prop = None

    # -- structure -----------------------------------------------------------
    def support(self):
        pts = self.window.points
        return [(pts[i], pts[j]) for i, j in self.entries]

    @property
    def propagation(self) -> int:
        if self._prop is None:
            pts = self.window.points
            d = self.window.space.dist
            self._prop = max((d(pts[i], pts[j]) for i, j in self.entries), default=0)
        return self._prop

    @property
    def entry_bound(self) -> float:
        return max((abs(v) for v in self.entries.values()), default=0.0)

    def entry(self, x, y):
        return self.entries.get((self.window.index(x), self.window.index(y)), 0)

    def to_dense(self) -> np.ndarray:
        n = len(self.window.points)
        M = np.zeros((n, n), dtype=complex)
        for (i, j), v in self.entries.items():
            M[i, j] = v
        return M

    def to_sparse(self):
        n = len(self.window.points)
        if not self.entries:
            return sp.csr_matrix((n, n), dtype=complex)
        ii, jj = zip(*self.entries)
        vv = [complex(v) for v in self.entries.values()]
        return sp.csr_matrix((vv, (ii, jj)), shape=(n, n))

    # -- arithmetic -----------------------------------------------------------
    def _check(self, other):
        if self.window is not other.window and (
            self.window.points != other.window.points
            or self.window.space.spec_key() != other.window.space.spec_key()
        ):
            raise WindowMismatch("operators live over different windows")

    def add(self, other) -> "BandedOperator":
        self._check(other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v
        return BandedOperator(self.window, out, exact=self.exact and other.exact)

    def sub(self, other) -> "BandedOperator":
        return self.add(other.scale(-1))

    def mul(self, other) -> "BandedOperator":
        self._check(other)
        rows: dict[int, list] = {}
        for (j, k), v in other.entries.items():
            rows.setdefault(j, []).append((k, v))
        out: dict = {}
        for (i, j), va in self.entries.items():
            for k, vb in rows.get(j, ()):
                key = (i, k)
                out[key] = out.get(key, 0) + va * vb
        return BandedOperator(self.window, out, exact=self.exact and other.exact)

    def adjoint(self) -> "BandedOperator":
        return BandedOperator(
            self.window,
            {(j, i): v.conjugate() if isinstance(v, complex) else v
             for (i, j), v in self.entries.items()},
            exact=self.exact,
        )

    def scale(self, c) -> "BandedOperator":
        return BandedOperator(
            self.window,
            {k: c * v for k, v in self.entries.items()},
            exact=self.exact and isinstance(c, int),
        )

    __add__ = add
    __sub__ = sub
    __matmul__ = mul

    def equals(self, other, tol: Optional[float] = None) -> bool:
        self._check(other)
        if tol is None:
            tol = 0 if (self.exact and other.exact) else FLOAT_TOL
        keys = set(self.entries) | set(other.entries)
        return all(
            abs(self.entries.get(k, 0) - other.entries.get(k, 0)) <= tol for k in keys
        )

    def restrict(self, indices) -> "BandedOperator":
        """Compression to rows and columns in the given index set."""
        idx = set(indices)
        return BandedOperator(
            self.window,
            {k: v for k, v in self.entries.items() if k[0] in idx and k[1] in idx},
            exact=self.exact,
        )

    def to_json(self) -> dict:
        enc = self.window.space.point_to_json
        pts = self.window.points
        rows = sorted(self.entries.items())
        return {
            "entries": [
                [enc(pts[i]), enc(pts[j]), float(complex(v).real), float(complex(v).imag)]
                for (i, j), v in rows
            ]
        }

    def __repr__(self):
        return (
            f"<BandedOperator {len(self.entries)} entries, prop {self.propagation}, "
            f"{'exact' if self.exact else 'float'}>"
        )


def make_operator(w: Window, entries) -> BandedOperator:
    """Entries as {(x, y): value} keyed by points, or [[x, y, re, im], ...]."""
    out: dict = {}
    if isinstance(entries, dict):
        items = entries.items()
        for (x, y), v in items:
            i, j = w.index(w.space.normalize(x)), w.index(w.space.normalize(y))
            out[(i, j)] = out.get((i, j), 0) + v
    else:
        for row in entries:
            x, y, re, im = row
            i, j = w.index(w.space.normalize(x)), w.index(w.space.normalize(y))
            v = complex(re, im)
            if im == 0 and float(re).is_integer():
                v = int(re)
            out[(i, j)] = out.get((i, j), 0) + v
    return BandedOperator(w, out)


def identity_operator(w: Window) -> BandedOperator:
    return BandedOperator(w, {(i, i): 1 for i in range(len(w.points))}, exact=True)


def zero_operator(w: Window) -> BandedOperator:
    return BandedOperator(w, {}, exact=True)


def char_projection(S, w: Window) -> BandedOperator:
    """Diagonal 0/1 projection onto a subset of the window."""
    idx = [w.index(w.space.normalize(p)) for p in S]
    return BandedOperator(w, {(i, i): 1 for i in idx}, exact=True)


def from_partial_translation(t: PartialTranslation, w: Window) -> BandedOperator:
    """v delta_x = delta_{t(x)}, over the pairs with both endpoints in the window."""
    entries = {}
    for a, b in t.pairs:
        if a in w and b in w:
            entries[(w.index(b), w.index(a))] = 1
    return BandedOperator(w, entries, exact=True)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormEstimate:
    value: float
    converged: bool
    iterations: int
    method: str


def op_norm_detailed(a: BandedOperator, tol: float = 1e-9, max_iter: int = 10_000) -> NormEstimate:
    n = len(a.window.points)
    if n == 0 or not a.entries:
        return NormEstimate(0.0, True, 0, "trivial")
    if n <= DENSE_NORM_LIMIT:
        return NormEstimate(float(np.linalg.norm(a.to_dense(), 2)), True, 0, "dense")
    A = a.to_sparse()
    AH = A.conj().T.tocsr()
    rng = np.random.RandomState(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    prev = 0.0
    for it in range(1, max_iter + 1):
        u = AH @ (A @ v)
        nu = np.linalg.norm(u)
        if nu == 0:
            return NormEstimate(0.0, True, it, "power")
        v = u / nu
        est = math.sqrt(nu)
        if abs(est - prev) <= tol * max(est, 1.0):
            return NormEstimate(est, True, it, "power")
        prev = est
    return NormEstimate(prev, False, max_iter, "power")


def op_norm(a: BandedOperator) -> float:
    return op_norm_detailed(a).value


# ---------------------------------------------------------------------------
# proper infiniteness relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProperInfiniteReport:
    xx_eq_p: bool
    yy_eq_p: bool
    psd_ok: bool
    orthogonal_ranges: bool
    psd_method: str
    witness: Optional[dict]

    @property
    def passed(self) -> bool:
        return self.xx_eq_p and self.yy_eq_p and self.psd_ok and self.orthogonal_ranges

    def to_json(self) -> dict:
        return {
            "xx_eq_p": self.xx_eq_p,
            "yy_eq_p": self.yy_eq_p,
            "psd_ok": self.psd_ok,
            "orthogonal_ranges": self.orthogonal_ranges,
            "psd_method": self.psd_method,
            "passed": self.passed,
        }


def verify_properly_infinite(
    p: BandedOperator, x: BandedOperator, y: BandedOperator, margin: int
) -> ProperInfiniteReport:
    """Check x*x = y*y = p, p - (xx* + yy*) >= 0, and (xx*)(yy*) = 0,
    restricted to rows/columns indexed by the margin-interior of the window."""
    p._check(x)
    p._check(y)
    w = p.window
    I = [w.index(q) for q in w.interior(margin)]
    tol = 0 if (p.exact and x.exact and y.exact) else FLOAT_TOL
    witness = None

    xsx = x.adjoint().mul(x).restrict(I)
    ysy = y.adjoint().mul(y).restrict(I)
    pr = p.restrict(I)
    xx_eq = xsx.equals(pr, tol=tol)
    yy_eq = ysy.equals(pr, tol=tol)
    if not xx_eq:
        witness = {"kind": "xx_ne_p"}
    elif not yy_eq:
        witness = {"kind": "yy_ne_p"}

    xxs = x.mul(x.adjoint()).restrict(I)
    yys = y.mul(y.adjoint()).restrict(I)
    S = pr.sub(xxs).sub(yys)
    off_diag = any(i != j for i, j in S.entries)
    if not off_diag:
        neg = [v for (i, j), v in S.entries.items() if complex(v).real < -tol or abs(complex(v).imag) > tol]
        psd_ok = not neg
        psd_method = "diagonal-exact" if S.exact else "diagonal"
    else:
        M = S.to_dense()
        sub = np.ix_(I, I)
        H = M[sub]
        H = (H + H.conj().T) / 2
        eig_min = float(np.linalg.eigvalsh(H).min()) if len(I) else 0.0
        psd_ok = eig_min >= -max(tol, FLOAT_TOL)
        psd_method = "eigenvalue"
    if not psd_ok and witness is None:
        witness = {"kind": "not_psd"}

    prod = xxs.mul(yys)
    orthogonal = all(abs(v) <= tol for v in prod.entries.values())
    if not orthogonal and witness is None:
        witness = {"kind": "ranges_not_orthogonal"}
    return ProperInfiniteReport(xx_eq, yy_eq, psd_ok, orthogonal, psd_method, witness)


# ---------------------------------------------------------------------------
# block-diagonal approximation over chain classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockColoring:
    r: int
    classes: tuple          # tuple of point tuples (window order inside each)
    color_of_class: tuple   # color index per class
    models: tuple           # one model matrix (np.ndarray) per color

    @property
    def n_colors(self) -> int:
        return len(self.models)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "classes": [[list(p) if isinstance(p, tuple) else p for p in c] for c in self.classes],
            "color_of_class": list(self.color_of_class),
            "models": [
                [[[float(z.real), float(z.imag)] for z in row] for row in m.tolist()]
                for m in self.models
            ],
        }


@dataclass(frozen=True)
class AFApproximation:
    coloring: BlockColoring
    b: BandedOperator
    error: float
    epsilon: float


def af_approximate(
    a: BandedOperator, r: int, eps: float, class_cap: int = 256
) -> AFApproximation:
    """Approximate a propagation-<= r operator by one that is block diagonal
    over the ~_r classes and constant on each color.

    Classes are keyed by size and the entrywise rounding of their block to a
    lattice of spacing eps / (2 n sqrt 2); the model of each color is the
    block of its first class, so the approximation error is at most eps/2 and
    families that are already block-constant are reproduced exactly."""
    if eps <= 0:
        raise MalformedSpec("eps must be > 0")
    if a.propagation > r:
        raise PropagationTooLarge(
            f"operator propagation {a.propagation} exceeds scale {r}"
        )
    w = a.window
    part = components_at_scale(w, r)
    for cls in part.classes:
        if len(cls) > class_cap:
            raise ClassTooLarge(
                f"chain class of size {len(cls)} exceeds cap {class_cap}", cls=cls
            )

    blocks = []
    for cls in part.classes:
        idx = [w.index(p) for p in cls]
        pos = {i: k for k, i in enumerate(idx)}
        M = np.zeros((len(idx), len(idx)), dtype=complex)
        for i in idx:
            for j in idx:
                v = a.entries.get((i, j))
                if v is not None:
                    M[pos[i], pos[j]] = v
        blocks.append((idx, M))

    color_key_to_id: dict = {}
    color_of_class = []
    models: list = []
    for idx, M in blocks:
        n = len(idx)
        delta = eps / (2 * n * math.sqrt(2))
        lattice = tuple(
            (int(round(z.real / delta)), int(round(z.imag / delta)))
            for z in M.flat
        )
        key = (n, lattice)
        if key not in color_key_to_id:
            color_key_to_id[key] = len(models)
            models.append(M.copy())
        color_of_class.append(color_key_to_id[key])

    b_entries: dict = {}
    err = 0.0
    for (idx, M), color in zip(blocks, color_of_class):
        model = models[color]
        for k, i in enumerate(idx):
            for l, j in enumerate(idx):
                if model[k, l] != 0:
                    b_entries[(i, j)] = model[k, l]
        diff = M - model
        if diff.any():
            err = max(err, float(np.linalg.norm(diff, 2)))
    b = BandedOperator(w, b_entries, exact=False)
    coloring = BlockColoring(
        r, part.classes, tuple(color_of_class), tuple(models)
    )
    return AFApproximation(coloring, b, err, eps)


def rebuild_from_coloring(w: Window, coloring: BlockColoring) -> BandedOperator:
    """Reassemble the block-constant operator determined by a coloring."""
    entries: dict = {}
    for cls, color in zip(coloring.classes, coloring.color_of_class):
        idx = [w.index(p) for p in cls]
        model = coloring.models[color]
        for k, i in enumerate(idx):
            for l, j in enumerate(idx):
                if model[k, l] != 0:
                    entries[(i, j)] = model[k, l]
    return BandedOperator(w, entries, exact=False)


# ---------------------------------------------------------------------------
# segment shift and cancellation witness
# ---------------------------------------------------------------------------

def segment_shift(fam: SegmentFamily, w: Window) -> BandedOperator:
    """The unit shift along each segment (zero on last points), identity off
    the segments."""
    seg_pts = fam.all_points()
    for p in seg_pts:
        if p not in w:
            raise SegmentOutsideWindow(f"segment point {p!r} is outside the window")
    in_seg = set(seg_pts)
    entries = {}
    for i, p in enumerate(w.points):
        if p not in in_seg:
            entries[(i, i)] = 1
    for seg in fam.segments:
        for k in range(len(seg) - 1):
            entries[(w.index(seg[k + 1]), w.index(seg[k]))] = 1
    return BandedOperator(w, entries, exact=True)


@dataclass(frozen=True)
class CancellationWitness:
    p: BandedOperator
    q: BandedOperator
    v: BandedOperator
    probe: object
    firsts: tuple
    lasts: tuple
    s: int


def cancellation_witness(fam: SegmentFamily, w: Window, s: int) -> CancellationWitness:
    """Projections p = 1_{A u (w \\ C)}, q = 1_{B u (w \\ C)} (A = non-last,
    B = non-first, C = all segment points), the partial isometry v with
    v*v = p and vv* = q, and a probe basepoint farther than s from every
    segment endpoint."""
    if s < 1:
        raise MalformedSpec("s must be >= 1")
    for p0 in fam.all_points():
        if p0 not in w:
            raise SegmentOutsideWindow(f"segment point {p0!r} is outside the window")
    A = {p for seg in fam.segments for p in seg[:-1]}
    B = {p for seg in fam.segments for p in seg[1:]}
    C = set(fam.all_points())
    rest = [p for p in w.points if p not in C]
    p_op = char_projection(sorted(A, key=w.space.canonical_key) + rest, w)
    q_op = char_projection(sorted(B, key=w.space.canonical_key) + rest, w)
    entries = {}
    for i, pt in enumerate(w.points):
        if pt not in C:
            entries[(i, i)] = 1
    for seg in fam.segments:
        for k in range(len(seg) - 1):
            entries[(w.index(seg[k + 1]), w.index(seg[k]))] = 1
    v = BandedOperator(w, entries, exact=True)
    lasts = fam.endpoints()
    probe = None
    for bp in fam.basepoints():
        if min(w.space.dist(bp, e) for e in lasts) > s:
            probe = bp
            break
    if probe is None:
        raise NoProbe(
            f"every basepoint is within {s} of a segment endpoint; enlarge the family"
        )
    return CancellationWitness(p_op, q_op, v, probe, fam.basepoints(), lasts, s)


# ---------------------------------------------------------------------------
# quasi-elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuasiReport:
    kind: str
    deviations: dict
    propagation: int
    prop_ok: bool
    epsilon: float

    @property
    def passed(self) -> bool:
        return self.prop_ok and all(v <= self.epsilon for v in self.deviations.values())

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "deviations": self.deviations,
            "propagation": self.propagation,
            "prop_ok": self.prop_ok,
            "epsilon": self.epsilon,
            "passed": self.passed,
        }


def quasi_check(a: BandedOperator, kind: str, r: int, eps: float = 0.125) -> QuasiReport:
    """Projection mode: |a^2 - a| and |a - a*| within eps; unitary mode:
    |a*a - 1| and |aa* - 1| within eps; both with propagation <= r."""
    one = identity_operator(a.window)
    if kind == "projection":
        devs = {
            "idempotent": op_norm(a.mul(a).sub(a)),
            "selfadjoint": op_norm(a.sub(a.adjoint())),
        }
    elif kind == "unitary":
        devs = {
            "isometry": op_norm(a.adjoint().mul(a).sub(one)),
            "coisometry": op_norm(a.mul(a.adjoint()).sub(one)),
        }
    else:
        raise MalformedSpec(f"kind must be 'projection' or 'unitary', got {kind!r}")
    return QuasiReport(kind, devs, a.propagation, a.propagation <= r, eps)


# ---------------------------------------------------------------------------
# two-family decompositions and the splitting identity
# ---------------------------------------------------------------------------

class OmegaDecomposition:
    """A two-colored cover (U pieces and V pieces) used for support-membership
    tests and the exact splitting a = sum 1_{U_i} a + sum 1_{V_j} a."""

    def __init__(self, cover: ColoredCover):
        if cover.n_colors != 2:
            raise MalformedSpec("need exactly two colors")
        self.cover = cover
        self.window = cover.window
        self.r0 = cover.r
        self.u_pieces = cover.colors[0]
        self.v_pieces = cover.colors[1]

    def piece_sets(self, r: int):
        """For each window point, the ids of U pieces / V pieces whose
        r-neighborhood contains it."""
        w = self.window
        n = len(w.points)
        u_of = [set() for _ in range(n)]
        v_of = [set() for _ in range(n)]
        piece_u = {}
        piece_v = {}
        for pid, piece in enumerate(self.u_pieces):
            for p in piece:
                piece_u[w.index(p)] = pid
                u_of[w.index(p)].add(pid)
        for pid, piece in enumerate(self.v_pieces):
            for p in piece:
                piece_v[w.index(p)] = pid
                v_of[w.index(p)].add(pid)
        g = w.scale_graph(r).tocoo()
        for x, y in zip(g.row.tolist(), g.col.tolist()):
            if y in piece_u:
                u_of[x].add(piece_u[y])
            if y in piece_v:
                v_of[x].add(piece_v[y])
        return u_of, v_of


@dataclass(frozen=True)
class OmegaMembershipReport:
    part: str
    support_ok: bool
    prop_ok: Optional[bool]
    witness: Optional[dict]

    @property
    def passed(self) -> bool:
        return self.support_ok and (self.prop_ok is not False)

    def to_json(self) -> dict:
        return {
            "part": self.part,
            "support_ok": self.support_ok,
            "prop_ok": self.prop_ok,
            "witness": self.witness,
            "passed": self.passed,
        }


def omega_membership(
    a: BandedOperator, omega: OmegaDecomposition, r: int, part: str
) -> OmegaMembershipReport:
    """Support containment in the r-neighborhoods of one family's pieces
    (parts 'I' and 'J', with a propagation bound), or of the pairwise
    intersections (part 'intersection', no propagation constraint)."""
    if a.window is not omega.window and a.window.points != omega.window.points:
        raise WindowMismatch("operator and decomposition windows differ")
    u_of, v_of = omega.piece_sets(r)
    enc = a.window.space.point_to_json
    pts = a.window.points
    witness = None
    support_ok = True
    for (i, j) in a.entries:
        if part == "I":
            ok = bool(u_of[i] & u_of[j])
        elif part == "J":
            ok = bool(v_of[i] & v_of[j])
        elif part == "intersection":
            ok = bool(u_of[i] & u_of[j]) and bool(v_of[i] & v_of[j])
        else:
            raise MalformedSpec(f"part must be 'I', 'J' or 'intersection', got {part!r}")
        if not ok:
            support_ok = False
            witness = {"pair": [enc(pts[i]), enc(pts[j])]}
            break
    prop_ok = None if part == "intersection" else a.propagation <= r
    return OmegaMembershipReport(part, support_ok, prop_ok, witness)


def mv_split(a: BandedOperator, omega: OmegaDecomposition):
    """b = sum_i 1_{U_i} a, c = sum_j 1_{V_j} a; b + c = a exactly."""
    if a.window is not omega.window and a.window.points != omega.window.points:
        raise WindowMismatch("operator and decomposition windows differ")
    w = a.window
    u_rows = {w.index(p) for piece in omega.u_pieces for p in piece}
    b_entries, c_entries = {}, {}
    for (i, j), v in a.entries.items():
        (b_entries if i in u_rows else c_entries)[(i, j)] = v
    return (
        BandedOperator(w, b_entries, exact=a.exact),
        BandedOperator(w, c_entries, exact=a.exact),
    )


# ---------------------------------------------------------------------------
# the shift-tower unitary over Z^2 x levels
# ---------------------------------------------------------------------------

def build_uf(wZ2: Window, levels: int, f) -> BandedOperator:
    """On basis vectors ((x, y), n): shift x by +1 on levels n <= f(x) when
    f(x) > 0, by -1 on levels n <= |f(x)| when f(x) < 0, identity otherwise.
    Returns an exact operator over the product window wZ2 x {1..levels}."""
    if not (isinstance(wZ2.space, GridSpace) and wZ2.space.dim == 2):
        raise MalformedSpec("build_uf expects a window of Z^2")
    if levels < 1:
        raise MalformedSpec("levels must be >= 1")
    xs = sorted({p[0] for p in wZ2.points})
    if callable(f):
        fmap = {x: int(f(x)) for x in xs}
    else:
        fmap = {int(k): int(v) for k, v in dict(f).items()}
    for x in xs:
        if x not in fmap:
            raise MalformedSpec(f"f is not defined at x = {x}")
    fmax = max((abs(v) for v in fmap.values()), default=0)
    if levels < fmax:
        raise LevelsTooSmall(f"levels = {levels} < max |f| = {fmax}")
    prod = ProductFiniteSpace(wZ2.space, levels)
    w = Window(prod, [(p, n) for p in wZ2.points for n in range(1, levels + 1)])
    entries = {}
    for (p, n) in w.points:
        x, y = p
        fx = fmap[x]
        if fx > 0 and n <= fx:
            target = ((x + 1, y), n)
        elif fx < 0 and n <= -fx:
            target = ((x - 1, y), n)
        else:
            target = (p, n)
        if target in w:
            entries[(w.index(target), w.index((p, n)))] = 1
    return BandedOperator(w, entries, exact=True)


def interior_unitarity(u: BandedOperator, margin: int = 1) -> dict:
    """Exact check that u*u and uu* equal the identity on rows/columns indexed
    by the margin-interior of the window."""
    w = u.window
    I = [w.index(p) for p in w.interior(margin)]
    one = identity_operator(w).restrict(I)
    uu = u.adjoint().mul(u).restrict(I)
    uus = u.mul(u.adjoint()).restrict(I)
    return {
        "interior_size": len(I),
        "isometry_exact": uu.equals(one, tol=0),
        "coisometry_exact": uus.equals(one, tol=0),
    }
