"""JSON envelopes for every certificate kind, and from-scratch re-verification.

Payloads are tagged {"schema": "coarsekit/1", "kind": ...} and embed the space
spec and window so that any serialized object re-verifies standalone.
Serialization is canonical: fixed key order, fixed separators.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .amenability import (
    FolnerCertificate,
    WindowedDoubling,
    paradox_from_pairs,
    verify_doubling,
    verify_folner,
    verify_paradox,
)
from .components import SegmentFamily, components_at_scale, verify_segments
from .covers import ColoredCover, verify_decomposition
from .errors import MalformedSpec
from .operators import BandedOperator, make_operator
from .spaces import Space, Window, make_space, window_from_json

SCHEMA = "coarsekit/1"


def canonical_dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def payload_field(data, key: str, kind: type = object, need: str | None = None):
    """data[key], checked at the boundary: data must be a JSON object that holds
    key, with a value of the given kind; otherwise MalformedSpec(need)."""
    if not isinstance(data, dict) or key not in data or not isinstance(data[key], kind):
        raise MalformedSpec(need or f"a payload needs a {key!r} field")
    return data[key]


def _space(data) -> Space:
    return make_space(payload_field(data, "space"))


def _space_window(data) -> tuple[Space, Window]:
    space = _space(data)
    return space, window_from_json(space, payload_field(data, "window"))


def envelope(kind: str, space: Space, window: Window | None, body: dict) -> dict:
    out = {"schema": SCHEMA, "kind": kind, "space": space.to_spec()}
    if window is not None:
        out["window"] = window.to_json()
    out.update(body)
    return out


# -- builders ---------------------------------------------------------------

def cover_to_payload(cover: ColoredCover) -> dict:
    return envelope("colored_cover", cover.window.space, cover.window, cover.to_json())


def cover_from_payload(data: dict) -> ColoredCover:
    space, w = _space_window(data)
    colors = tuple(
        tuple(tuple(space.normalize(p) for p in piece) for piece in fam)
        for fam in data["colors"]
    )
    return ColoredCover(w, data["r"], data["bound"], colors)


def partition_to_payload(part) -> dict:
    return envelope("scale_partition", part.window.space, part.window, part.to_json())


def segments_to_payload(fam: SegmentFamily, budget: Window | None = None) -> dict:
    return envelope("segment_family", fam.space, budget, fam.to_json())


def segments_from_payload(data: dict) -> SegmentFamily:
    space = _space(data)
    segs = tuple(
        tuple(space.normalize(p) for p in seg) for seg in data["segments"]
    )
    return SegmentFamily(space, data["r"], segs)


def folner_to_payload(cert: FolnerCertificate) -> dict:
    return envelope("folner_certificate", cert.space, None, cert.to_json())


def folner_from_payload(data: dict) -> FolnerCertificate:
    space = _space(data)
    return FolnerCertificate(
        space,
        tuple(space.normalize(p) for p in data["F"]),
        data["r"],
        Fraction(data["eps"]),
        data["neighborhood_size"],
    )


def doubling_to_payload(d: WindowedDoubling) -> dict:
    return envelope("windowed_doubling", d.window.space, d.window, d.to_json())


def doubling_from_payload(data: dict) -> WindowedDoubling:
    space, w = _space_window(data)
    norm = space.normalize
    return WindowedDoubling(
        w,
        data["r"],
        tuple(norm(p) for p in data["interior"]),
        {norm(a): norm(b) for a, b in data["u_plus"]},
        {norm(a): norm(b) for a, b in data["u_minus"]},
    )


def paradox_to_payload(p, w: Window) -> dict:
    return envelope("paradox_window", p.space, w, p.materialize(w))


def paradox_from_payload(data: dict):
    space = _space(data)
    return paradox_from_pairs(
        space,
        data["displacement"],
        data["plus"],
        data["minus"],
        data["t_plus"],
        data["t_minus"],
        tag=data.get("tag", ""),
    )


def operator_to_payload(a: BandedOperator) -> dict:
    return envelope("banded_operator", a.window.space, a.window, a.to_json())


def operator_from_payload(data: dict) -> BandedOperator:
    _, w = _space_window(data)
    return make_operator(w, payload_field(data, "entries", list, "an operator payload needs an 'entries' list"))


# -- re-verification --------------------------------------------------------

def verify_payload(data: dict) -> tuple[bool, dict]:
    """Re-check a serialized certificate from scratch.  Returns (passed, report)."""
    if not isinstance(data, dict):
        raise MalformedSpec(f"a payload is a JSON object, got {type(data).__name__}")
    if data.get("schema") != SCHEMA:
        raise MalformedSpec(f"unknown schema {data.get('schema')!r}")
    kind = data.get("kind")
    if kind == "colored_cover":
        report = verify_decomposition(cover_from_payload(data))
        return report.passed, report.to_json()
    if kind == "scale_partition":
        space, w = _space_window(data)
        part = components_at_scale(w, data["r"])
        want = {frozenset(space.normalize(p) for p in c) for c in data["classes"]}
        have = {frozenset(c) for c in part.classes}
        ok = want == have
        return ok, {"matches_recomputation": ok}
    if kind == "segment_family":
        report = verify_segments(segments_from_payload(data))
        return report.passed, report.to_json()
    if kind == "folner_certificate":
        report = verify_folner(folner_from_payload(data))
        return report["ok"], report
    if kind == "windowed_doubling":
        report = verify_doubling(doubling_from_payload(data))
        return report["ok"], report
    if kind == "paradox_window":
        _, w = _space_window(data)
        report = verify_paradox(paradox_from_payload(data), w)
        return report.passed, report.to_json()
    if kind == "matching_cut":
        space, w = _space_window(data)
        r = data["r"]
        F = [space.normalize(p) for p in data["cut"]]
        interior = set(w.interior(r))
        in_interior = all(p in interior for p in F)
        nbrs = {
            q for p in F for q in space.ball_points(p, r) if q in w
        }
        violating = len(nbrs) < 2 * len(F) if F else False
        ok = in_interior and violating and len(nbrs) == data["cut_neighborhood_size"]
        return ok, {
            "cut_in_interior": in_interior,
            "neighborhood_size": len(nbrs),
            "violates_doubling": violating,
        }
    raise MalformedSpec(f"cannot verify payload of kind {kind!r}")
