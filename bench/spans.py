"""In-memory spans around the benchmark's calls into coarsekit, and the
per-layer figures derived from them.

A span records the name ``<module>.<function>``, start and end
(``time.perf_counter``), the id of the span that caused it, the job id, and the
size of the input it was given.  Counts are read from return values at the same
boundary.  Nothing is written until the run ends (:meth:`Tracer.write_jsonl`).
"""

from __future__ import annotations

import json
import math
import statistics
from time import perf_counter

MODULES = (
    "spaces",
    "components",
    "covers",
    "amenability",
    "operators",
    "maps",
    "serialization",
    "cli",
)

# Function spans folded into one timed layer metric.
GROUPS = {
    "spaces.ball_s": ("spaces.ball", "spaces.Window"),
    "spaces.scale_pairs_s": ("spaces.scale_pairs",),
    "spaces.interior_s": ("spaces.interior",),
    "components.components_at_scale_s": ("components.components_at_scale",),
    "components.extract_segments_s": ("components.extract_segments",),
    "covers.witness_s": ("covers.witness_line", "covers.witness_grid2", "covers.witness_tree"),
    "covers.greedy_cover_s": ("covers.greedy_cover",),
    "covers.verify_decomposition_s": ("covers.verify_decomposition",),
    "amenability.matching_certificate_s": ("amenability.matching_certificate",),
    "amenability.verify_paradox_s": ("amenability.verify_paradox",),
    "amenability.folner_search_s": ("amenability.folner_search_report",),
    "operators.build_s": (
        "operators.make_operator",
        "operators.identity_operator",
        "operators.char_projection",
        "operators.from_partial_translation",
        "operators.segment_shift",
        "operators.cancellation_witness",
        "operators.build_uf",
        "operators.OmegaDecomposition",
    ),
    "operators.algebra_s": (
        "operators.add",
        "operators.sub",
        "operators.mul",
        "operators.adjoint",
        "operators.equals",
        "operators.mv_split",
        "operators.omega_membership",
        "operators.interior_unitarity",
        "operators.verify_properly_infinite",
        "operators.rebuild_from_coloring",
    ),
    "operators.norm_s": ("operators.op_norm", "operators.op_norm_detailed", "operators.quasi_check"),
    "operators.af_approximate_s": ("operators.af_approximate",),
    "maps.net_extract_s": ("maps.net_extract",),
    "maps.classify_s": ("maps.classify",),
    "serialization.dump_s": (
        "serialization.canonical_dumps",
        "serialization.envelope",
        "serialization.cover_to_payload",
        "serialization.partition_to_payload",
        "serialization.segments_to_payload",
        "serialization.folner_to_payload",
        "serialization.doubling_to_payload",
        "serialization.paradox_to_payload",
        "serialization.operator_to_payload",
    ),
    "serialization.verify_payload_s": ("serialization.verify_payload",),
}

# Functions whose per-call time is fitted against input size (log-log slope),
# with the space kind the fit is restricted to.
SLOPES = {
    "covers.greedy_cover": None,
    "maps.net_extract": None,
    "maps.classify": None,
    "spaces.interior": "product_finite",
    "amenability.matching_certificate": None,
    "components.extract_segments": None,
}


def _pieces(cover):
    return sum(len(fam) for fam in cover.colors) if cover is not None else 0


def _nnz(result):
    if isinstance(result, tuple):
        return sum(_nnz(x) for x in result)
    entries = getattr(result, "entries", None)
    if isinstance(entries, dict):
        return len(entries)
    b = getattr(result, "b", None)  # AFApproximation
    return _nnz(b) if b is not None else 0


def counts_of(name: str, result) -> dict:
    """Work counts read from a return value at the span boundary."""
    if name in ("spaces.ball", "spaces.Window"):
        return {"spaces.points": len(result.points)}
    if name == "spaces.scale_pairs":
        return {"spaces.pairs": len(result[0])}
    if name == "components.components_at_scale":
        return {"components.classes": len(result.classes)}
    if name in GROUPS["covers.witness_s"]:
        return {"covers.pieces": _pieces(result)}
    if name == "covers.greedy_cover":
        return {"covers.pieces": _pieces(result), "covers.greedy_calls": 1,
                "covers.greedy_found": int(result is not None)}
    if name == "amenability.matching_certificate":
        return {"amenability.flow_value": result.flow_value,
                "amenability.cut_size": len(result.cut or ())}
    if name == "amenability.folner_search_report":
        return {"amenability.candidates_tested": result.candidates_tested,
                "amenability.folner_calls": 1,
                "amenability.folner_found": int(result.certificate is not None)}
    if name.startswith("operators.") and name not in ("operators.equals", "operators.quasi_check",
                                                      "operators.op_norm", "operators.op_norm_detailed"):
        n = _nnz(result)
        return {"operators.nnz": n} if n else {}
    if name == "maps.net_extract":
        return {"maps.net_points": len(result.points)}
    if name == "serialization.canonical_dumps":
        return {"serialization.payload_bytes": len(result)}
    return {}


def span_name(fn) -> str:
    """``<module>.<function>`` for a coarsekit function, method or class."""
    mod = fn.__module__.rsplit(".", 1)[-1]
    return f"{mod}.{fn.__qualname__.rsplit('.', 1)[-1]}"


def input_window(fn, args):
    """(points, space kind) of the first window among the receiver and the arguments."""
    from coarsekit.spaces import Window

    for obj in (getattr(fn, "__self__", None), *args):
        for w in (obj, getattr(obj, "window", None), getattr(obj, "source", None)):
            if isinstance(w, Window):
                return len(w.points), w.space.kind
    return None, None


class Tracer:
    """Records spans when enabled; otherwise :meth:`call` is a plain call."""

    def __init__(self):
        self.enabled = False
        self.job = None
        self.spans: list = []
        self._stack: list = []

    def call(self, fn, *args, **kwargs):
        """Call a coarsekit function, method or class under a span."""
        if not self.enabled:
            return fn(*args, **kwargs)
        return self.span(span_name(fn), input_window(fn, args), fn, *args, **kwargs)

    def span(self, name, window, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            size, kind = window
            self.spans[sid] = {"id": sid, "parent": parent, "job": self.job, "name": name,
                               "start": t0, "end": t1, "size": size, "space": kind,
                               "counts": {}}
        self.spans[sid]["counts"] = counts_of(name, result)
        return result

    def probe(self, window, r):
        """Time the pair enumeration and the interior directly on a job's window."""
        import coarsekit as ck

        self.call(ck.scale_pairs, window, r)
        self.call(window.interior, r)

    def current(self):
        return self._stack[-1] if self._stack else None

    def adopt(self, child_spans: list, parent_id: int):
        """Append spans recorded in a child process under one of ours."""
        base = len(self.spans)
        for s in child_spans:
            s = dict(s, id=base + s["id"], job=self.job)
            s["parent"] = parent_id if s["parent"] is None else base + s["parent"]
            self.spans.append(s)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def self_times(spans: list) -> dict:
    """Self seconds per span: duration minus the duration of its children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def slope(points: list) -> float:
    """Least-squares slope of log(median time) on log(size) over distinct sizes."""
    by_size: dict = {}
    for size, dt in points:
        if size and dt > 0:
            by_size.setdefault(size, []).append(dt)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(s) for s in by_size]
    ys = [math.log(statistics.median(v)) for v in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(spans: list, jobs: int, probe_jobs: set) -> dict:
    """Per-job layer figures from the spans of ``jobs`` traced jobs.

    Spans whose job is in ``probe_jobs`` are direct probes of a job's window;
    they feed the probe metrics but not the module self times."""
    jobs = max(jobs, 1)
    selfs = self_times(spans)
    work = [s for s in spans if s["job"] not in probe_jobs]
    module_self = dict.fromkeys(MODULES, 0.0)
    for s in work:
        mod = s["name"].split(".", 1)[0]
        if mod in module_self:
            module_self[mod] += selfs[s["id"]]
    out = {f"{m}.self_s": v / jobs for m, v in module_self.items()}

    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    for metric, names in GROUPS.items():
        total = sum(s["end"] - s["start"] for n in names for s in by_name.get(n, ()))
        out[metric] = total / jobs

    counts: dict = {}
    for s in spans:
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v
    for k in ("spaces.points", "spaces.pairs", "components.classes", "covers.pieces",
              "amenability.flow_value", "amenability.cut_size", "amenability.candidates_tested",
              "operators.nnz", "maps.net_points", "serialization.payload_bytes"):
        out[k] = counts.get(k, 0) / jobs
    out["covers.greedy_found_ratio"] = (
        counts.get("covers.greedy_found", 0) / counts["covers.greedy_calls"]
        if counts.get("covers.greedy_calls") else 0.0
    )
    out["amenability.folner_found_ratio"] = (
        counts.get("amenability.folner_found", 0) / counts["amenability.folner_calls"]
        if counts.get("amenability.folner_calls") else 0.0
    )
    for name, kind in SLOPES.items():
        pts = [(s["size"], s["end"] - s["start"]) for s in by_name.get(name, ())
               if kind is None or s["space"] == kind]
        out[f"{name}.exp"] = slope(pts)
    return out
