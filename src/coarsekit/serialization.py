"""JSON envelopes for every certificate kind, and from-scratch re-verification.

Payloads are tagged {"schema": "coarsekit/1", "kind": ...} and embed the space
spec and window so that any serialized object re-verifies standalone.
Serialization is canonical: fixed key order, fixed separators.  ``FIELDS``
is the format, and every reader reads it through :func:`read_payload`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import islice

import numpy as np

from .amenability import (
    FolnerCertificate,
    MatchingOutcome,
    WindowedDoubling,
    paradox_from_sets,
    verify_doubling,
    verify_folner,
    verify_paradox,
)
from .components import SegmentFamily, components_at_scale, verify_segments
from .covers import ColoredCover, verify_decomposition
from .errors import MalformedSpec, SegmentOutsideWindow
from .operators import BandedOperator, make_operator
from .spaces import Space, Window, is_nat, make_space, scale_pairs, window_from_json

SCHEMA = "coarsekit/1"


def canonical_dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def payload_field(data, key: str, kind: type = object, need: str | None = None):
    """data[key], checked at the boundary: data must be a JSON object that holds
    key, with a value of the given kind; otherwise MalformedSpec(need)."""
    if not isinstance(data, dict) or key not in data or not isinstance(data[key], kind):
        raise MalformedSpec(need or f"a payload needs a {key!r} field")
    return data[key]


def envelope(kind: str, space: Space | None = None, window: Window | None = None,
             body: dict | None = None) -> dict:
    """The payload of a kind; a bare kind, an outcome such as an error, has no space."""
    out = {"schema": SCHEMA, "kind": kind}
    if space is not None:
        out["space"] = space.to_spec()
    if window is not None:
        out["window"] = window.to_json()
    out.update(body or {})
    return out


# -- the payload format -----------------------------------------------------
# A normaliser maps (space, JSON value, or None if absent) to the checked value.
# A reader of points gets, for the space, a function from a JSON point list to its
# tuple of points (see read_payload); a rejected point raises its own error.

class _Mistyped(MalformedSpec):
    """A normaliser's verdict on a value of the wrong JSON type: what it wants."""


def _nat(_, v) -> int:
    if not is_nat(v):
        raise _Mistyped("int >= 0")
    return v


def _rational(_, v) -> Fraction:
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise _Mistyped("rational string such as '1/10'")


def _list(_, v) -> list:
    if not isinstance(v, list):
        raise _Mistyped("list")
    return v


def _nested(depth: int, noun: str):
    """The normaliser of points nested in ``depth`` levels of lists, as tuples.
    All the points go through one ``points`` call, then take the nesting back."""
    def lists(v, depth):  # the innermost lists, in order
        if not isinstance(v, list):
            raise _Mistyped(noun)
        return [v] if depth == 1 else [u for x in v for u in lists(x, depth - 1)]

    def read(points, v):
        it = iter(points([p for u in lists(v, depth) for p in u]))

        def shape(v, depth):
            return tuple(islice(it, len(v))) if depth == 1 else tuple(shape(x, depth - 1) for x in v)
        return shape(v, depth)
    return read


def _point_map(points, v) -> dict:
    """[[a, b], ...] as {a: b}."""
    # flattened in the pass that checks the pairs: one that is not a pair is left out
    flat = [x for ab in v if isinstance(ab, list) and len(ab) == 2 for x in ab] if isinstance(v, list) else None
    if flat is None or len(flat) != 2 * len(v):
        raise _Mistyped("list of [a, b] point pairs")
    flat = points(flat)
    return dict(zip(flat[::2], flat[1::2]))


def _window(space, v) -> Window:
    if v is None:
        raise _Mistyped("window spec")
    return window_from_json(space, v)


def _budget(space, v) -> Window | None:
    return None if v is None else window_from_json(space, v)


_POINTS = _nested(1, "list of points")
_POINT_LISTS = _nested(2, "list of point lists")

# Per kind, the fields its reader reads besides "schema", "kind", "space" and
# paradox_window's optional "tag"; verify checks the derived folner "ratio" and paradox
# "carrier" against their recomputation.  The CLI's "verification", "flow_value"
# and "candidates_tested" are derived too and never read back.
FIELDS = {
    "colored_cover": {
        "window": _window, "r": _nat, "bound": _nat,
        "colors": _nested(3, "list of colors, each a list of point lists"),
    },
    "scale_partition": {"window": _window, "r": _nat, "classes": _POINT_LISTS},
    "segment_family": {"window": _budget, "r": _nat, "segments": _POINT_LISTS},
    "folner_certificate": {"F": _POINTS, "r": _nat, "eps": _rational, "neighborhood_size": _nat,
                           "ratio": _rational},
    "windowed_doubling": {
        "window": _window, "r": _nat, "interior": _POINTS, "u_plus": _point_map, "u_minus": _point_map,
    },
    "paradox_window": {
        "window": _window, "displacement": _nat, "carrier": _list, "plus": _POINTS, "minus": _POINTS,
        "t_plus": _point_map, "t_minus": _point_map,
    },
    "matching_cut": {"window": _window, "r": _nat, "cut": _POINTS, "cut_neighborhood_size": _nat},
    "banded_operator": {"window": _window, "entries": _list},
}


def read_payload(data, kind: str) -> tuple[Space, dict]:
    """The space of a payload of the given kind, and its FIELDS normalised.  A
    missing or mistyped field raises MalformedSpec naming the kind and field."""
    space, fields, outside, every = make_space(payload_field(data, "space")), {}, {}, []
    w = None

    def points(v):  # once the window is read, one ids call per field, handing back its points
        if w is None:
            return tuple(map(space.normalize, v))
        ids = w.ids(v, outside).tolist()
        every.extend(list(outside)[len(every) - len(w):])  # the point of each id
        return tuple(map(every.__getitem__, ids))

    for name, read in FIELDS[kind].items():  # "window" first, where a kind has one
        try:
            fields[name] = read(space if name == "window" else points, data.get(name))
        except _Mistyped as exc:
            raise MalformedSpec(f"a {kind} payload needs a {name!r} {exc}") from None
        if name == "window" and fields[name] is not None:
            w = fields[name]
            every += w.points
    return space, fields


# -- builders and readers ---------------------------------------------------

def cover_to_payload(cover: ColoredCover) -> dict:
    return envelope("colored_cover", cover.window.space, cover.window, cover.to_json())


def cover_from_payload(data: dict) -> ColoredCover:
    return ColoredCover(**read_payload(data, "colored_cover")[1])


def partition_to_payload(part) -> dict:
    return envelope("scale_partition", part.window.space, part.window, part.to_json())


def segments_to_payload(fam: SegmentFamily, budget: Window | None = None) -> dict:
    return envelope("segment_family", fam.space, budget, fam.to_json())


def segments_from_payload(data: dict) -> SegmentFamily:
    """The family; a point outside the payload's budget window raises SegmentOutsideWindow."""
    space, f = read_payload(data, "segment_family")
    w = f["window"]
    outside = [] if w is None else [p for s in f["segments"] for p in s if p not in w]
    if outside:
        raise SegmentOutsideWindow(f"segment point {outside[0]!r} is outside the budget window")
    return SegmentFamily(space, f["r"], f["segments"])


def folner_to_payload(cert: FolnerCertificate) -> dict:
    return envelope("folner_certificate", cert.space, None, cert.to_json())


def folner_from_payload(data: dict) -> FolnerCertificate:
    return _folner_and_ratio(data)[0]


def _folner_and_ratio(data: dict):
    space, f = read_payload(data, "folner_certificate")
    ratio = f.pop("ratio")
    return FolnerCertificate(space, **f), ratio


def doubling_to_payload(d: WindowedDoubling) -> dict:
    return envelope("windowed_doubling", d.window.space, d.window, d.to_json())


def doubling_from_payload(data: dict) -> WindowedDoubling:
    return WindowedDoubling(**read_payload(data, "windowed_doubling")[1])


def paradox_to_payload(p, w: Window) -> dict:
    return envelope("paradox_window", p.space, w, p.materialize(w))


def paradox_from_payload(data: dict):
    return _paradox_and_window(data)[0]


def _paradox_and_window(data: dict):
    space, f = read_payload(data, "paradox_window")
    p = paradox_from_sets(space, f["displacement"], frozenset(f["plus"]), frozenset(f["minus"]),
                          f["t_plus"], f["t_minus"], data.get("tag", ""))
    return p, f["window"], f["carrier"], f["plus"] + f["minus"]


def matching_cut_to_payload(w: Window, r: int, outcome: MatchingOutcome) -> dict:
    return envelope("matching_cut", w.space, w, {
        "r": r, "cut": [w.space.point_to_json(p) for p in outcome.cut],
        "cut_neighborhood_size": outcome.cut_neighborhood_size, "flow_value": outcome.flow_value})


def operator_to_payload(a: BandedOperator) -> dict:
    return envelope("banded_operator", a.window.space, a.window, a.to_json())


def operator_from_payload(data: dict) -> BandedOperator:
    _, f = read_payload(data, "banded_operator")
    return make_operator(f["window"], f["entries"])


# -- re-verification --------------------------------------------------------

def _verify_partition(data) -> tuple[bool, dict]:
    _, f = read_payload(data, "scale_partition")
    have = {frozenset(c) for c in components_at_scale(f["window"], f["r"]).classes}
    ok = have == {frozenset(c) for c in f["classes"]}
    return ok, {"matches_recomputation": ok}


def _verify_matching_cut(data) -> tuple[bool, dict]:
    _, f = read_payload(data, "matching_cut")
    w, r, F = f["window"], f["r"], f["cut"]
    s, everyone, inside = w.space, np.arange(len(w)), w.ids([x for x in F if x in w])
    in_interior = len(inside) == len(F) and bool(w.interior_mask(r)[inside].all())
    # |N_r(F) ∩ w| from the scale-r pairs, which off a ball of a geodesic space
    # cost no more than the interior check did.  On such a ball they number at
    # most n D / 2, D the center's degree, and F's rows of distances, |F| n of
    # them, are read instead when fewer or when the pairs pass 2^23
    near, geodesic_ball = np.isin(everyone, inside), w.is_ball and s.geodesic_extension
    D = int((s.paired_dist(w.layout, w.index(w.ball_center), everyone) <= r).sum()) if geodesic_ball else 0
    if not geodesic_ball or near.sum() > D and len(w) * D <= 1 << 24:
        ii, jj = scale_pairs(w, r)  # not the scale graph: a verify process need not import scipy
        near[jj[np.isin(ii, inside)]] = near[ii[np.isin(jj, inside)]] = True
    else:
        step = max(1, (1 << 20) // len(w))  # rows at a time: memory stays near 8 MB an array
        for lo in range(0, len(inside), step):
            near |= (s.paired_dist(w.layout, inside[lo:lo + step, None], everyone) <= r).any(axis=0)
    size = int(near.sum())
    violating = size < 2 * len(F) if F else False
    ok = in_interior and violating and size == f["cut_neighborhood_size"]
    return ok, {
        "cut_in_interior": in_interior,
        "neighborhood_size": size,
        "violates_doubling": violating,
    }


def _result(report) -> tuple[bool, dict]:
    if isinstance(report, dict):
        return report["ok"], report
    return report.passed, report.to_json()


def _verify_folner(data) -> tuple[bool, dict]:
    cert, ratio = _folner_and_ratio(data)
    report = verify_folner(cert)
    if report["ok"] and ratio != cert.ratio:  # ok: declared size = |N_r(F)|
        report.update(ok=False, reason="ratio")
    return _result(report)


def _verify_paradox(data) -> tuple[bool, dict]:
    p, w, carrier, parts = _paradox_and_window(data)
    ok, report = _result(verify_paradox(p, w))
    out = next((x for x in parts if x not in w), None)  # the rule is checked on w only
    if ok and carrier != [p.space.point_to_json(x) for x in p.on(w)[1]]:
        report.update(passed=False, witness={"kind": "stated_carrier"})
    elif ok and out is not None:
        report.update(passed=False, witness={"kind": "part_outside_window", "point": p.space.point_to_json(out)})
    return report["passed"], report


# payload -> (passed, report) per certificate kind; no other kind re-verifies
VERIFIERS = {
    "colored_cover": lambda data: _result(verify_decomposition(cover_from_payload(data))),
    "scale_partition": _verify_partition,
    "segment_family": lambda data: _result(verify_segments(segments_from_payload(data))),
    "folner_certificate": _verify_folner,
    "windowed_doubling": lambda data: _result(verify_doubling(doubling_from_payload(data))),
    "paradox_window": _verify_paradox,
    "matching_cut": _verify_matching_cut,
}


def verify_payload(data: dict) -> tuple[bool, dict]:
    """Re-check a serialized certificate from scratch.  Returns (passed, report)."""
    if not isinstance(data, dict):
        raise MalformedSpec(f"a payload is a JSON object, got {type(data).__name__}")
    if data.get("schema") != SCHEMA:
        raise MalformedSpec(f"unknown schema {data.get('schema')!r}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in VERIFIERS:
        raise MalformedSpec(f"cannot verify payload of kind {kind!r}")
    return VERIFIERS[kind](data)
