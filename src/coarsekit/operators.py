"""Finite-propagation operators over windows.

A :class:`BandedOperator` is a sparse matrix indexed by window points whose
propagation (largest distance over the support) is finite by construction.
Combinatorial operators built from characteristic functions, partial
translations, and segment shifts carry exact int64 entries, so the algebraic
identities they satisfy are checked with zero tolerance; generic operators use
complex doubles with a 1e-9 comparison tolerance.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .amenability import PartialTranslation, _first
from .components import ClassLayout, SegmentFamily, scale_layout
from .covers import ColoredCover
from .errors import (
    ClassTooLarge,
    IntegerOverflow,
    LevelsTooSmall,
    MalformedSpec,
    NoProbe,
    PropagationTooLarge,
    Report,
    SegmentOutsideWindow,
    WindowMismatch,
)
from .spaces import GridSpace, ProductFiniteSpace, Window

FLOAT_TOL = 1e-9
DENSE_NORM_LIMIT = 512
POWER_TOL = 1e-9  # power iteration stops once two estimates agree to this relative tolerance
POWER_MAX_ITER = 10_000
# An exact result is refused when a float64 bound on its entries reaches this.
# Sums are bounded by their float64 value, products by |A| @ |B| in float64;
# either falls short of the exact magnitude by a relative (k+1)*2^-53 at most
# for k terms, far inside the 2^-20 margin for any row shorter than 2^30.
_EXACT_LIMIT = 2.0**63 * (1 - 2.0**-20)


def _top(M):
    """Largest |entry| of a sparse matrix, 0 when it stores none."""
    return abs(M).max() if M.nnz else 0


def _guard(exact: bool, bound, what: str):
    """Raise IntegerOverflow before an exact result could leave int64, judged
    by bound(): the result in float64, or a float64 bound on its magnitude."""
    if exact:
        from scipy import sparse as sp

        b = bound()
        top = _top(b) if sp.issparse(b) else b
        if top >= _EXACT_LIMIT:
            raise IntegerOverflow(f"exact {what} could leave int64 (entry bound {top:.6g})")


class BandedOperator:
    """Sparse operator over a window, held as one canonical CSR ``matrix``
    (sorted indices, duplicates summed, no stored zeros) in the window's
    canonical index order: int64 when exact, complex128 otherwise.

    ``entries`` may be a {(row, column): value} dict, exact when every value is
    an int, or a fresh scipy sparse matrix, exact when its dtype is integral."""

    def __init__(self, window: Window, entries):
        from scipy import sparse as sp

        n = len(window.points)
        if isinstance(entries, dict):
            exact = all(isinstance(v, int) for v in entries.values())
            try:
                data = np.array(list(entries.values()), dtype=np.int64 if exact else np.complex128)
            except OverflowError:
                raise IntegerOverflow("an exact operator entry lies outside int64") from None
            ij = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
            entries = sp.csr_matrix((data, (ij[:, 0], ij[:, 1])), shape=(n, n))
        M = sp.csr_matrix(entries, dtype=np.int64 if entries.dtype.kind in "biu" else np.complex128)
        M.sum_duplicates()
        M.eliminate_zeros()
        self.window = window
        self.matrix = M
        self._prop = None

    # -- structure -----------------------------------------------------------
    @property
    def exact(self) -> bool:
        return self.matrix.dtype == np.int64

    @property
    def entries(self) -> dict:
        """{(row, column): value} in row-major order, read off the matrix (int
        values when exact, complex otherwise); changing it changes nothing."""
        A = self.matrix.tocoo()
        return dict(zip(zip(A.row.tolist(), A.col.tolist()), A.data.tolist()))

    @property
    def propagation(self) -> int:
        if self._prop is None:
            A = self.matrix.tocoo()
            off = A.row != A.col
            d = self.window.space.paired_dist(self.window.layout, A.row[off], A.col[off])
            self._prop = int(d.max()) if len(d) else 0
        return self._prop

    def entry(self, x, y):
        return self.matrix[self.window.index(x), self.window.index(y)].item()

    def to_dense(self) -> np.ndarray:
        return self.to_sparse().toarray()

    def to_sparse(self):
        return self.matrix.astype(np.complex128)

    def _float(self):
        """The matrix of an exact operator in float64, for overflow bounds."""
        return self.matrix.astype(np.float64)

    # -- arithmetic -----------------------------------------------------------
    def _check(self, other):
        if self.window is not other.window and (
            self.window.points != other.window.points
            or self.window.space.spec_key() != other.window.space.spec_key()
        ):
            raise WindowMismatch("operators live over different windows")

    def add(self, other) -> "BandedOperator":
        self._check(other)
        _guard(self.exact and other.exact, lambda: self._float() + other._float(), "sum")
        return BandedOperator(self.window, self.matrix + other.matrix)

    def sub(self, other) -> "BandedOperator":
        self._check(other)
        _guard(self.exact and other.exact, lambda: self._float() - other._float(), "difference")
        return BandedOperator(self.window, self.matrix - other.matrix)

    def mul(self, other) -> "BandedOperator":
        self._check(other)
        _guard(self.exact and other.exact, lambda: abs(self._float()) @ abs(other._float()), "product")
        return BandedOperator(self.window, self.matrix @ other.matrix)

    def adjoint(self) -> "BandedOperator":
        return BandedOperator(self.window, self.matrix.T.conj())

    def scale(self, c) -> "BandedOperator":
        exact = self.exact and isinstance(c, int)
        # the max with 1 also refuses a c outside int64 for the zero operator
        _guard(exact, lambda: abs(c) * max(_top(self._float()), 1), "multiple")
        return BandedOperator(self.window, self.matrix * c if exact else self.to_sparse() * c)

    __add__ = add
    __sub__ = sub
    __matmul__ = mul

    def equals(self, other, tol: Optional[float] = None) -> bool:
        if tol is None:
            tol = 0 if (self.exact and other.exact) else FLOAT_TOL
        return bool(_top(self.sub(other).matrix) <= tol)

    def restrict(self, indices) -> "BandedOperator":
        """Compression to rows and columns in the given index set."""
        from scipy import sparse as sp

        mask = np.zeros(len(self.window.points), dtype=np.int64)
        mask[indices if isinstance(indices, np.ndarray) else np.fromiter(indices, dtype=np.int64)] = 1
        P = sp.diags(mask, dtype=np.int64, format="csr")
        return BandedOperator(self.window, P @ self.matrix @ P)

    def to_json(self) -> dict:
        enc, pts, A = self.window.space.point_to_json, self.window.points, self.matrix.tocoo()
        data = A.data.astype(np.complex128).tolist()
        return {"entries": [[enc(pts[i]), enc(pts[j]), v.real, v.imag]
                            for i, j, v in zip(A.row.tolist(), A.col.tolist(), data)]}

    def __repr__(self):
        kind = "exact" if self.exact else "float"
        return f"<BandedOperator {self.matrix.nnz} entries, prop {self.propagation}, {kind}>"


def _json_entry(row):
    """((x, y), value) from one [x, y, re, im] row of finite floats (NaN fails
    the bound); integral reals become ints."""
    if not (isinstance(row, (list, tuple)) and len(row) == 4
            and all(isinstance(t, numbers.Real) and abs(t) <= sys.float_info.max
                    for t in row[2:])):
        raise MalformedSpec(f"operator entry must be [x, y, re, im], got {row!r}")
    x, y, re, im = row
    return (x, y), int(re) if im == 0 and float(re).is_integer() else complex(re, im)


def make_operator(w: Window, entries) -> BandedOperator:
    """Entries as {(x, y): value} keyed by points, or [[x, y, re, im], ...]."""
    if isinstance(entries, dict):
        items = list(entries.items())
    elif isinstance(entries, list):
        items = list(map(_json_entry, entries))
    else:
        raise MalformedSpec(f"operator entries must be a list of [x, y, re, im], got {type(entries).__name__}")
    out: dict = {}
    flat = w.ids([p for (x, y), _ in items for p in (x, y)]).tolist()
    for i, j, (_, v) in zip(flat[::2], flat[1::2], items):
        out[(i, j)] = out.get((i, j), 0) + v
    return BandedOperator(w, out)


def identity_operator(w: Window) -> BandedOperator:
    from scipy import sparse as sp

    return BandedOperator(w, sp.identity(len(w.points), dtype=np.int64, format="csr"))


def _moves(w: Window, src, dst) -> BandedOperator:
    """The exact 0/1 operator with delta_(src[k]) -> delta_(dst[k]): a one at each
    (dst[k], src[k]) of window indices, however often the move is listed."""
    from scipy import sparse as sp

    n = len(w)
    M = sp.csr_matrix((np.ones(len(src), dtype=np.int64), (dst, src)), shape=(n, n))
    M.data[:] = 1  # the conversion summed the repeats of a move
    return BandedOperator(w, M)


def zero_operator(w: Window) -> BandedOperator:
    return _moves(w, [], [])


def char_projection(S, w: Window) -> BandedOperator:
    """Diagonal 0/1 projection onto a subset of the window."""
    ids = w.ids(S)
    return _moves(w, ids, ids)


def from_partial_translation(t: PartialTranslation, w: Window) -> BandedOperator:
    """v delta_x = delta_{t(x)}, over the pairs with both endpoints in the window."""
    pairs = [(a, b) for a, b in t.pairs if a in w and b in w]  # canonical: none is normalised
    return _moves(w, w.ids([a for a, _ in pairs]), w.ids([b for _, b in pairs]))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormEstimate:
    value: float
    converged: bool
    iterations: int
    method: str


def op_norm_detailed(a: BandedOperator) -> NormEstimate:
    """The largest block norm over the components of the support of A and A* taken
    together: exact up to DENSE_NORM_LIMIT points (batched SVDs of blocks of one
    size, 2^20 cells at a time), power iteration on B*B for each larger block B."""
    A = a.to_sparse()
    if A.nnz == 0:
        return NormEstimate(0.0, True, 0, "trivial")
    lay = ClassLayout.of(A.indptr, A.indices)  # a canonical CSR holds no zeros
    C = A.tocoo()
    # the components that hold entries; the rest are single points
    held = np.flatnonzero(np.bincount(lay.labels[C.row], minlength=len(lay.sizes)))
    large = lay.sizes[held] > DENSE_NORM_LIMIT
    power = [_power_norm(A, lay.classes[c]) for c in held[large].tolist()]
    best = 0.0
    for _, _, B in _dense_blocks(C, lay, held[~large]):
        best = max(best, float(np.linalg.svd(B, compute_uv=False)[:, 0].max()))
    return NormEstimate(max([best] + [e.value for e in power]), all(e.converged for e in power),
                        max([0] + [e.iterations for e in power]), "power" if power else "dense")


def _dense_blocks(C, lay: ClassLayout, ids):
    """The dense blocks of the COO matrix C on the classes ids (ascending) of a
    layout that holds each entry of C inside one class: (size, batch of ids,
    blocks) by class size, ascending, at most 2^20 cells (16 MB) per batch."""
    of_entry = lay.labels[C.row]
    rows, cols = lay.pos[C.row], lay.pos[C.col]
    slot = np.full(len(lay.sizes), -1)
    for s in np.unique(lay.sizes[ids]).tolist():
        same = ids[lay.sizes[ids] == s]
        step = max(1, (1 << 20) // (s * s))
        for lo in range(0, len(same), step):
            batch = same[lo:lo + step]
            slot[batch] = np.arange(len(batch))
            k = slot[of_entry]
            hit = k >= 0
            B = np.zeros((len(batch), s, s), dtype=np.complex128)
            B[k[hit], rows[hit], cols[hit]] = C.data[hit]
            slot[batch] = -1
            yield s, batch, B


def _power_norm(A, idx) -> NormEstimate:
    """Power iteration on B*B for the block B of A on the indices idx."""
    A = A[idx][:, idx]
    AH = A.conj().T.tocsr()
    n = len(idx)
    rng = np.random.RandomState(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    prev = 0.0
    for it in range(1, POWER_MAX_ITER + 1):
        u = AH @ (A @ v)
        nu = np.linalg.norm(u)
        if nu == 0:
            return NormEstimate(0.0, True, it, "power")
        v = u / nu
        est = math.sqrt(nu)
        if abs(est - prev) <= POWER_TOL * max(est, 1.0):
            return NormEstimate(est, True, it, "power")
        prev = est
    return NormEstimate(prev, False, POWER_MAX_ITER, "power")


def op_norm(a: BandedOperator) -> float:
    return op_norm_detailed(a).value


# ---------------------------------------------------------------------------
# proper infiniteness relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProperInfiniteReport(Report):
    xx_eq_p: bool
    yy_eq_p: bool
    psd_ok: bool
    orthogonal_ranges: bool
    psd_method: str
    witness: Optional[dict]

    @property
    def passed(self) -> bool:
        return self.xx_eq_p and self.yy_eq_p and self.psd_ok and self.orthogonal_ranges


def _first_entry(a: BandedOperator, tol):
    """The (row, column) indices of the first entry of a, in row-major order,
    with |value| > tol; None when there is none."""
    A = a.matrix.tocoo()
    k = _first(np.abs(A.data) > tol)
    return None if k is None else (int(A.row[k]), int(A.col[k]))


def verify_properly_infinite(
    p: BandedOperator, x: BandedOperator, y: BandedOperator, margin: int
) -> ProperInfiniteReport:
    """Check x*x = y*y = p, p - (xx* + yy*) >= 0, and (xx*)(yy*) = 0,
    restricted to rows/columns indexed by the margin-interior of the window."""
    p._check(x)
    p._check(y)
    w = p.window
    enc, pts = w.space.point_to_json, w.points
    I = np.flatnonzero(w.interior_mask(margin))
    tol = 0 if (p.exact and x.exact and y.exact) else FLOAT_TOL
    witness = None

    pr = p.restrict(I)
    xx_off = _first_entry(x.adjoint().mul(x).restrict(I).sub(pr), tol)
    yy_off = _first_entry(y.adjoint().mul(y).restrict(I).sub(pr), tol)
    xx_eq, yy_eq = xx_off is None, yy_off is None
    for kind, off in (("xx_ne_p", xx_off), ("yy_ne_p", yy_off)):
        if off is not None and witness is None:
            witness = {"kind": kind, "pair": [enc(pts[i]) for i in off]}

    xxs = x.mul(x.adjoint()).restrict(I)
    yys = y.mul(y.adjoint()).restrict(I)
    S = pr.sub(xxs).sub(yys).matrix
    diag = S.diagonal()
    if S.nnz == np.count_nonzero(diag):
        k = _first((diag.real < -tol) | (np.abs(diag.imag) > tol))
        psd_ok = k is None
        psd_method = "diagonal-exact" if S.dtype == np.int64 else "diagonal"
        if not psd_ok and witness is None:
            witness = {"kind": "not_psd", "point": enc(pts[k])}
    else:
        H = S[I][:, I].toarray()
        eig_min = float(np.linalg.eigvalsh((H + H.conj().T) / 2).min())
        psd_ok = eig_min >= -max(tol, FLOAT_TOL)
        psd_method = "eigenvalue"
    if not psd_ok and witness is None:
        witness = {"kind": "not_psd"}

    orthogonal = xxs.mul(yys).equals(zero_operator(w), tol=tol)
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
    if not eps > 0:
        raise MalformedSpec(f"eps must be > 0, got {eps}")
    if a.propagation > r:
        raise PropagationTooLarge(
            f"operator propagation {a.propagation} exceeds scale {r}"
        )
    w = a.window
    lay = scale_layout(w, r)
    classes = tuple(tuple(w.points[i] for i in c) for c in lay.classes)
    big = np.flatnonzero(lay.sizes > class_cap)
    if len(big):
        cls = classes[big[0]]
        raise ClassTooLarge(f"chain class of size {len(cls)} exceeds cap {class_cap}", witness=cls)

    # propagation <= r keeps every entry inside one class's block; a key is the
    # size and the lattice point of the block, with -0.0 read as 0.0
    key_of, model_of, err = [None] * len(classes), {}, 0.0
    for n, batch, B in _dense_blocks(a.matrix.tocoo(), lay, np.arange(len(classes))):
        with np.errstate(all="ignore"):  # a coordinate out of float range is refused below
            lattice = np.rint(B.view(np.float64) / (eps / (2 * n * math.sqrt(2)))) + 0.0
        if not np.isfinite(lattice).all():
            raise MalformedSpec(
                f"eps {eps} is too fine for the entries: a lattice coordinate leaves float range")
        for c, M, x in zip(batch.tolist(), B, lattice):
            key_of[c] = (n, x.tobytes())
            model_of.setdefault(key_of[c], M)
        diff = B - np.array([model_of[key_of[c]] for c in batch.tolist()])
        off = diff.reshape(len(B), -1).any(axis=1)
        if off.any():
            err = max(err, float(np.linalg.svd(diff[off], compute_uv=False)[:, 0].max()))
    color_id: dict = {}
    color_of_class = tuple(color_id.setdefault(k, len(color_id)) for k in key_of)
    models = tuple(model_of[k].copy() for k in color_id)
    coloring = BlockColoring(r, classes, color_of_class, models)
    return AFApproximation(coloring, rebuild_from_coloring(w, coloring), err, eps)


def rebuild_from_coloring(w: Window, coloring: BlockColoring) -> BandedOperator:
    """Reassemble the block-constant operator determined by a coloring: the
    model of each class's color on the rows and columns of that class."""
    from scipy import sparse as sp

    size = np.array([len(cls) for cls in coloring.classes], dtype=np.int64)
    idx = w.ids([p for cls in coloring.classes for p in cls])
    # entry k of a class's m x m model, row-major, is at (k // m, k % m) of its idx[at:]
    of = np.repeat(np.arange(len(size)), size**2)
    k = np.arange(len(of)) - np.repeat(np.cumsum(size**2) - size**2, size**2)
    at, m = (np.cumsum(size) - size)[of], size[of]
    models = [np.asarray(M, dtype=np.complex128).ravel() for M in coloring.models]
    vals = np.concatenate([np.zeros(0, dtype=np.complex128), *map(models.__getitem__, coloring.color_of_class)])
    n = len(w.points)
    return BandedOperator(w, sp.coo_matrix((vals, (idx[at + k // m], idx[at + k % m])), shape=(n, n)))


# ---------------------------------------------------------------------------
# segment shift and cancellation witness
# ---------------------------------------------------------------------------

def _shift_moves(fam: SegmentFamily, w: Window):
    """(src, dst) window indices of the segment shift's moves: each point off
    the segments to itself, each segment point but the last to the next one."""
    outside = {}
    ids = w.ids(fam.all_points(), outside)
    if outside:
        raise SegmentOutsideWindow(f"segment point {next(iter(outside))!r} is outside the window")
    # position k moves to k + 1 unless a segment starts there, at the end of the one before
    k = np.setdiff1d(np.arange(1, len(ids)), np.cumsum(fam.lengths, dtype=np.int64)) - 1
    rest = np.setdiff1d(np.arange(len(w)), ids)
    return np.concatenate([rest, ids[k]]), np.concatenate([rest, ids[k + 1]])


def segment_shift(fam: SegmentFamily, w: Window) -> BandedOperator:
    """The unit shift along each segment (zero on last points), identity off
    the segments."""
    return _moves(w, *_shift_moves(fam, w))


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
    src, dst = _shift_moves(fam, w)  # src lists A u (w \ C), dst B u (w \ C)
    v, p_op, q_op = _moves(w, src, dst), _moves(w, src, src), _moves(w, dst, dst)
    lasts = fam.endpoints()
    D = w.space.pairwise_dist(fam.basepoints(), lasts)
    probe = next((bp for bp, row in zip(fam.basepoints(), D) if row.min() > s), None)
    if probe is None:
        raise NoProbe(
            f"every basepoint is within {s} of a segment endpoint; enlarge the family"
        )
    return CancellationWitness(p_op, q_op, v, probe, fam.basepoints(), lasts, s)


# ---------------------------------------------------------------------------
# quasi-elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuasiReport(Report):
    kind: str
    deviations: dict
    propagation: int
    prop_ok: bool
    epsilon: float

    @property
    def passed(self) -> bool:
        return self.prop_ok and all(v <= self.epsilon for v in self.deviations.values())


def quasi_check(a: BandedOperator, kind: str, r: int, eps: float = 0.125) -> QuasiReport:
    """Projection mode: |a^2 - a| and |a - a*| within eps; unitary mode:
    |a*a - 1| and |aa* - 1| within eps; both with propagation <= r."""
    if not eps >= 0:
        raise MalformedSpec(f"eps must be >= 0, got {eps}")
    if r < 0:
        raise MalformedSpec(f"scale must be >= 0, got {r}")
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
        self.u_incidence, self.v_incidence = (
            _incidence(self.window, pieces) for pieces in (self.u_pieces, self.v_pieces))

    def near(self, r: int):
        """Bool CSR incidences, window points by U pieces and by V pieces, of
        "the point lies within r of the piece"."""
        g = self.window.scale_graph(r).astype(bool)  # bool products OR, where int8 ones wrap
        return tuple(P + g @ P for P in (self.u_incidence, self.v_incidence))


def _incidence(w: Window, pieces):
    """Bool CSR incidence of window points (rows) in pieces (columns)."""
    from scipy import sparse as sp

    rows = w.ids([p for piece in pieces for p in piece])
    cols = np.repeat(np.arange(len(pieces)), [len(piece) for piece in pieces])
    return sp.csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)),
                         shape=(len(w.points), len(pieces)))


@dataclass(frozen=True)
class OmegaMembershipReport(Report):
    part: str
    support_ok: bool
    prop_ok: Optional[bool]
    witness: Optional[dict]

    @property
    def passed(self) -> bool:
        return self.support_ok and (self.prop_ok is not False)


def omega_membership(
    a: BandedOperator, omega: OmegaDecomposition, r: int, part: str
) -> OmegaMembershipReport:
    """Support containment in the r-neighborhoods of one family's pieces
    (parts 'I' and 'J', with a propagation bound), or of the pairwise
    intersections (part 'intersection', no propagation constraint)."""
    if a.window is not omega.window and a.window.points != omega.window.points:
        raise WindowMismatch("operator and decomposition windows differ")
    families = {"I": (0,), "J": (1,), "intersection": (0, 1)}.get(part)
    if families is None:
        raise MalformedSpec(f"part must be 'I', 'J' or 'intersection', got {part!r}")
    near, A = omega.near(r), a.matrix.tocoo()
    ok = np.ones(A.nnz, dtype=bool)
    for f in families:  # an entry is kept when its row and column lie near one piece
        ok &= near[f][A.row].multiply(near[f][A.col]).getnnz(axis=1) > 0
    bad = np.flatnonzero(~ok)
    witness = None
    if len(bad):
        enc, pts = a.window.space.point_to_json, a.window.points
        witness = {"pair": [enc(pts[A.row[bad[0]]]), enc(pts[A.col[bad[0]]])]}
    support_ok = witness is None
    prop_ok = None if part == "intersection" else a.propagation <= r
    return OmegaMembershipReport(part, support_ok, prop_ok, witness)


def mv_split(a: BandedOperator, omega: OmegaDecomposition):
    """b = sum_i 1_{U_i} a, c = sum_j 1_{V_j} a; b + c = a exactly."""
    if a.window is not omega.window and a.window.points != omega.window.points:
        raise WindowMismatch("operator and decomposition windows differ")
    w = a.window
    u_rows = np.diff(omega.u_incidence.indptr) > 0
    in_u = np.repeat(u_rows, np.diff(a.matrix.indptr))  # per stored entry
    b, c = a.matrix.copy(), a.matrix.copy()
    b.data[~in_u] = 0
    c.data[in_u] = 0
    return BandedOperator(w, b), BandedOperator(w, c)


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
    w = Window._canonical(prod, [(p, n) for p in wZ2.points for n in range(1, levels + 1)])
    targets = {}  # by window index
    for j, ((x, y), n) in enumerate(w.points):
        step = 1 if n <= fmap[x] else -1 if n <= -fmap[x] else 0  # levels start at n = 1
        target = ((x + step, y), n)
        if target in w:
            targets[j] = target
    return _moves(w, list(targets), w.ids(targets.values()))


def interior_unitarity(u: BandedOperator, margin: int = 1) -> dict:
    """Exact check that u*u and uu* equal the identity on rows/columns indexed
    by the margin-interior of the window."""
    w = u.window
    I = np.flatnonzero(w.interior_mask(margin))
    one = _moves(w, I, I)
    uu = u.adjoint().mul(u).restrict(I)
    uus = u.mul(u.adjoint()).restrict(I)
    return {
        "interior_size": len(I),
        "isometry_exact": uu.equals(one, tol=0),
        "coisometry_exact": uus.equals(one, tol=0),
    }
