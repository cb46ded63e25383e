"""Maps between spaces at window scale: expansion envelopes, classification,
injectivity nets, and c-nets."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import ceil
from typing import Optional

import numpy as np

from .errors import DomainMismatch, Infeasible, MalformedSpec, UnknownPoint
from .spaces import _ROW_BLOCK, Space, Window


class CoarseMap:
    """A map from a source window into a target space, stored as an explicit pairing."""

    def __init__(self, source: Window, target_space: Space, mapping):
        self.source = source
        self.target_space = target_space
        if callable(mapping):
            pairs = {i: target_space.normalize(mapping(p)) for i, p in enumerate(source.points)}
        else:
            items = list(mapping.items() if isinstance(mapping, dict) else mapping)
            keys = source.ids([k for k, _ in items], {}).tolist()
            pairs = {i: target_space.normalize(v) for i, (_, v) in zip(keys, items)}
        for i, p in enumerate(source.points):
            if i not in pairs:
                raise MalformedSpec(f"map is not total on the source window: missing {p!r}")
        self.mapping = {p: pairs[i] for i, p in enumerate(source.points)}

    def __call__(self, p):
        try:
            return self.mapping[p]
        except KeyError:
            raise UnknownPoint(f"{p!r} is outside the source window") from None

    def image(self) -> list:
        return [self.mapping[p] for p in self.source.points]

    def to_json(self) -> dict:
        enc_s = self.source.space.point_to_json
        enc_t = self.target_space.point_to_json
        return {
            "pairs": [[enc_s(p), enc_t(q)] for p, q in self.mapping.items()]
        }


@dataclass(frozen=True)
class ExpansionEnvelopes:
    """Sampled envelopes over all window pairs:
    rho_plus[t]  = max d(fx, fy) over pairs with d(x, y) <= t,
    rho_minus[t] = min d(fx, fy) over pairs with d(x, y) >= t,
    for integer t in 0..diameter."""

    rho_plus: tuple
    rho_minus: tuple

    @property
    def t_max(self) -> int:
        return len(self.rho_plus) - 1


def expansion_envelopes(f: CoarseMap) -> ExpansionEnvelopes:
    pts = f.source.points
    if not pts:
        raise MalformedSpec("source window is empty")
    n, img_lay = len(pts), f.target_space.layout(f.image())
    none = np.iinfo(np.int64).max
    max_at = np.zeros(1, dtype=np.int64)  # max image distance among pairs at exactly t
    min_at = np.full(1, none)
    for lo in range(0, n, _ROW_BLOCK):
        rows, cols = np.arange(lo, min(lo + _ROW_BLOCK, n))[:, None], np.arange(n)
        later = cols > rows
        d = f.source.space.paired_dist(f.source.layout, rows, cols)[later]
        fd = f.target_space.paired_dist(img_lay, rows, cols)[later]
        grow = int(d.max(initial=0)) + 1 - len(max_at)
        if grow > 0:
            max_at = np.pad(max_at, (0, grow))
            min_at = np.pad(min_at, (0, grow), constant_values=none)
        np.maximum.at(max_at, d, fd)
        np.minimum.at(min_at, d, fd)
    rho_plus = np.maximum.accumulate(max_at)
    rho_minus = np.minimum.accumulate(min_at[::-1])[::-1]
    rho_minus[0] = 0  # the diagonal pairs
    return ExpansionEnvelopes(tuple(rho_plus.tolist()), tuple(rho_minus.tolist()))


@dataclass(frozen=True)
class MapClassification:
    uniformly_expansive: bool
    envelopes: ExpansionEnvelopes
    injective: bool
    embedding_evidence: bool
    embedding_threshold: int
    equivalence: Optional[bool]
    equivalence_c: Optional[int]
    bi_lipschitz: bool
    lipschitz_constant: Optional[float]

    def to_json(self) -> dict:
        return asdict(self)


def classify(
    f: CoarseMap,
    target_window: Optional[Window] = None,
    c: Optional[int] = None,
) -> MapClassification:
    """Window-scale flags.  Embedding evidence means the lower envelope at
    the largest sampled distance t reaches max(1, ceil(t / 2)); it is never a
    proof."""
    if c is not None and c < 0:
        raise MalformedSpec("c must be >= 0")
    if c is not None and target_window is None:
        raise MalformedSpec("c needs a target window")
    env = expansion_envelopes(f)
    t_max = env.t_max
    embedding_threshold = max(1, ceil(t_max / 2))
    evidence = t_max >= 1 and env.rho_minus[t_max] >= embedding_threshold

    injective = len(set(f.mapping.values())) == len(f.mapping)

    equivalence = None
    eq_c = None
    if target_window is not None:
        image = f.image()
        tp = target_window.points
        worst = 0
        for lo in range(0, len(tp), _ROW_BLOCK):
            near = f.target_space.pairwise_dist(tp[lo:lo + _ROW_BLOCK], image).min(axis=1)
            worst = max(worst, int(near.max()))
        eq_c = worst if c is None else c
        equivalence = evidence and worst <= eq_c

    bi = injective and t_max >= 1 and all(env.rho_minus[t] >= 1 for t in range(1, t_max + 1))
    L = None
    if bi:
        L = 1.0
        for t in range(1, t_max + 1):
            L = max(L, env.rho_plus[t] / t, t / env.rho_minus[t])
    return MapClassification(
        uniformly_expansive=True,
        envelopes=env,
        injective=injective,
        embedding_evidence=evidence,
        embedding_threshold=embedding_threshold,
        equivalence=equivalence,
        equivalence_c=eq_c,
        bi_lipschitz=bi,
        lipschitz_constant=L,
    )


def injectivity_net(f: CoarseMap, c: int) -> Window:
    """Greedy sub-window Y on which f is injective and which is c-dense in the
    source; raises Infeasible (with a witness point) when the greedy pass
    cannot cover some point without reusing an f-value."""
    if c < 0:
        raise MalformedSpec("c must be >= 0")
    src = f.source
    indptr, indices = src.scale_rows(c)
    blocked = np.zeros(len(src.points), dtype=bool)  # within c of a chosen point
    chosen: list = []
    used_values = set()
    for i, p in enumerate(src.points):
        if blocked[i]:
            continue
        placed = False
        # prefer p itself, then the canonically first usable point within c
        for j in [i, *indices[indptr[i]:indptr[i + 1]].tolist()]:
            q = src.points[j]
            if f(q) not in used_values:
                chosen.append(q)
                used_values.add(f(q))
                blocked[j] = True
                blocked[indices[indptr[j]:indptr[j + 1]]] = True
                placed = True
                break
        if not placed:
            raise Infeasible(
                f"every point within {c} of {p!r} maps to an already-used value",
                witness=p,
            )
    return src.subwindow(chosen)


def net_extract(w: Window, c: int) -> Window:
    """Greedy maximal c-separated subset; maximality makes it c-dense."""
    if c < 0:
        raise MalformedSpec("c must be >= 0")
    return w.subwindow([w.points[chunk[0]] for chunk in w.net_chunks(c)])


def compose(f: CoarseMap, g: CoarseMap) -> CoarseMap:
    """g after f; every f-image point must lie in g's source window."""
    for p in f.source.points:
        if f(p) not in g.source:
            raise DomainMismatch(
                f"f({p!r}) = {f(p)!r} is outside the source window of g"
            )
    return CoarseMap(
        f.source, g.target_space, {p: g(f(p)) for p in f.source.points}
    )
