"""Command-line front end with JSON I/O and certificate re-verification.

Exit codes: 0 = pass/success, 1 = verification failed, 2 = infeasible or
empty result, 3 = malformed input.  Payload JSON goes to stdout (canonical
form, byte-identical across reruns); summaries and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import amenability, components, covers, maps, operators, serialization
from .errors import CoarseKitError, Infeasible, MalformedSpec, NoSegments
from .spaces import (
    METRIC_CHECK_CAP,
    Window,
    ball,
    bounded_geometry_profile,
    make_space,
    verify_metric,
    window_from_json,
)

_EXIT = {"pass": 0, "fail": 1, "infeasible": 2, "error": 3}


@dataclass
class CommandResult:
    status: str
    payload: dict = field(default_factory=dict)
    summary: str = ""

    @property
    def exit_code(self) -> int:
        return _EXIT[self.status]


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedSpec(f"cannot read JSON from {path}: {exc}") from exc


def _point_arg(space, text, flag: str):
    """The point a flag gives as JSON, or the origin when the flag is absent."""
    if not text:
        return space.origin()
    try:
        return space.normalize(json.loads(text))
    except json.JSONDecodeError as exc:
        raise MalformedSpec(f"{flag} is not JSON: {exc}") from exc


def _load_operator(w, path):
    entries = serialization.payload_field(
        _load_json(path), "entries", list, f"{path}: an operator file needs an 'entries' list")
    return operators.make_operator(w, entries)


def _space_window(args):
    """The space of --space and the window of the window flags: a file, a
    ball, or every point of a finite space."""
    space = make_space(_load_json(args.space))
    if args.window_file:
        return space, window_from_json(space, _load_json(args.window_file))
    if args.window_radius is not None:
        return space, ball(space, _point_arg(space, args.center, "--center"), args.window_radius)
    if space.finite:
        return space, Window._canonical(space, space.all_points())
    raise MalformedSpec("need --window-radius or --window-file for an infinite space")


def _verdict(ok: bool, payload: dict, summary: str) -> CommandResult:
    return CommandResult("pass" if ok else "fail", payload, summary)


def _checked(payload: dict, report, summary: str) -> CommandResult:
    """The payload with the report of its check attached, judged by that report."""
    payload["verification"] = report.to_json()
    return _verdict(report.passed, payload, summary)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=None, help="write payload JSON here")
    space_flag = argparse.ArgumentParser(add_help=False)
    space_flag.add_argument("--space", required=True)
    window_flags = argparse.ArgumentParser(add_help=False)
    window_flags.add_argument("--window-radius", type=int, default=None)
    window_flags.add_argument("--center", type=str, default=None, help="center point as JSON")
    window_flags.add_argument("--window-file", type=str, default=None)
    on_window = [space_flag, window_flags]
    top = argparse.ArgumentParser(prog="coarsekit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True, parser_class=lambda parents=(), **kw:
                             argparse.ArgumentParser(parents=[common, *parents], **kw))

    p = sub.add_parser("space", parents=on_window, help="validate a space and profile a window")
    p.add_argument("--r", type=int, default=1)

    p = sub.add_parser("components", parents=on_window, help="scale-r components of a window")
    p.add_argument("--r", type=int, required=True)
    p.add_argument(
        "--profile-radii",
        type=str,
        default=None,
        help="comma-separated ball radii: report the max class size per window",
    )

    p = sub.add_parser("segments", parents=[space_flag], help="extract a coarse segment family")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--budget-radius", type=int, required=True)
    p.add_argument("--center", type=str, default=None)

    p = sub.add_parser("asdim", parents=[window_flags], help="colored covers: witness / verify / greedy")
    p.add_argument("action", choices=["witness", "verify", "greedy"])
    p.add_argument("--space", default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--construction", choices=["line", "grid2", "tree"], default=None)
    p.add_argument("--root", type=str, default=None)
    p.add_argument("--cover", type=str, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--bound", type=int, default=None)

    p = sub.add_parser("folner", parents=[space_flag], help="search for a Folner certificate")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=str, required=True, help="rational, e.g. 1/10")
    p.add_argument("--budget", type=str, default="balls:64")

    p = sub.add_parser("paradox", parents=[space_flag], help="free-group paradoxical rule on a ball window")
    p.add_argument("--window-radius", type=int, required=True)

    p = sub.add_parser("matching", parents=on_window, help="doubling matching on a window")
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("op", parents=on_window, help="operator arithmetic and quasi checks")
    p.add_argument("--a", required=True, help="operator JSON file")
    p.add_argument("--b", default=None)
    p.add_argument(
        "--action",
        required=True,
        choices=["norm", "add", "mul", "adjoint", "quasi-projection", "quasi-unitary"],
    )
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--eps", type=float, default=0.125)

    p = sub.add_parser("af-approx", parents=on_window, help="block-diagonal approximation over chain classes")
    p.add_argument("--a", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("mv-split", parents=on_window, help="split an operator along a two-colored cover")
    p.add_argument("--a", required=True)
    p.add_argument("--cover", required=True)

    p = sub.add_parser("classify", parents=on_window, help="classify a coarse map at window scale")
    p.add_argument("--map", required=True, help='{"pairs": [[src, tgt], ...]}')
    p.add_argument("--target-space", required=True)
    p.add_argument("--target-window-radius", type=int, default=None)
    p.add_argument("--c", type=int, default=None)

    p = sub.add_parser("verify", help="re-check any serialized certificate")
    p.add_argument("--file", required=True)
    return top


def _cmd_space(args):
    space, w = _space_window(args)
    body = {
        "window_size": len(w.points),
        "bounded_geometry_profile": bounded_geometry_profile(w, args.r),
        "profile_scale": args.r,
    }
    ok = True
    if len(w.points) <= METRIC_CHECK_CAP:
        body["metric_check"] = verify_metric(w)
        ok = body["metric_check"]["ok"]
    payload = serialization.envelope("space_report", space, w, body)
    return _verdict(ok, payload, f"window of {len(w.points)} points, profile {body['bounded_geometry_profile']}")


def _cmd_components(args):
    if args.profile_radii:
        space = make_space(_load_json(args.space))
        try:
            radii = sorted({int(t) for t in args.profile_radii.split(",")})
        except ValueError:
            raise MalformedSpec(f"--profile-radii needs comma-separated integers, got {args.profile_radii!r}") from None
        center = _point_arg(space, args.center, "--center")
        windows = [ball(space, center, rad) for rad in radii]
        profile = components.class_size_profile(space, args.r, windows)
        tag = "growing" if profile[-1] > profile[0] else "bounded so far"
        payload = serialization.envelope(
            "class_size_profile",
            space,
            None,
            {"r": args.r, "radii": radii, "profile": profile, "tag": tag},
        )
        return CommandResult("pass", payload, f"profile {profile}: {tag}")
    _, w = _space_window(args)
    part = components.components_at_scale(w, args.r)
    payload = serialization.partition_to_payload(part)
    return CommandResult(
        "pass",
        payload,
        f"{len(part.classes)} classes at scale {args.r}, max size {part.max_class_size}",
    )


def _cmd_segments(args):
    space = make_space(_load_json(args.space))
    center = _point_arg(space, args.center, "--center")
    budget = ball(space, center, args.budget_radius)
    try:
        fam = components.extract_segments(space, args.r, args.count, budget)
    except NoSegments as exc:
        return CommandResult("infeasible", serialization.envelope("no_segments", body={"reason": str(exc)}), str(exc))
    return _checked(serialization.segments_to_payload(fam, budget), components.verify_segments(fam),
                    f"{args.count} segments, lengths {list(fam.lengths)}")


def _cmd_asdim(args):
    if args.action == "verify":
        if not args.cover:
            raise MalformedSpec("asdim verify needs --cover")
        ok, report = serialization.verify_payload(_load_json(args.cover))
        return _verdict(ok, serialization.envelope("verification_report", body={"report": report}),
                        "cover verified" if ok else "cover FAILED verification")
    if args.space is None:
        raise MalformedSpec(f"asdim {args.action} needs --space")
    space, w = _space_window(args)
    if args.action == "witness" and args.construction is None:
        raise MalformedSpec("asdim witness needs --construction")
    if args.action == "greedy" and (args.d is None or args.bound is None):
        raise MalformedSpec("asdim greedy needs --d and --bound")
    if args.r is None:
        raise MalformedSpec(f"asdim {args.action} needs --r")
    if args.action == "greedy":
        cover = covers.greedy_cover(w, args.r, args.d, args.bound)
        if cover is None:
            return CommandResult("infeasible", serialization.envelope("search_exhausted"), "greedy search exhausted")
        return CommandResult("pass", serialization.cover_to_payload(cover), "greedy cover found")
    if args.construction == "tree":
        cover = covers.witness_tree(space, _point_arg(space, args.root, "--root"), args.r, w)
    elif args.construction == "line":
        cover = covers.witness_line(args.r, w)
    else:
        cover = covers.witness_grid2(args.r, w)
    return _checked(serialization.cover_to_payload(cover), covers.verify_decomposition(cover),
                    f"{cover.n_colors}-color cover, bound {cover.bound}")


def _cmd_folner(args):
    space = make_space(_load_json(args.space))
    budget = amenability.FolnerBudget.parse(args.budget)
    report = amenability.folner_search_report(space, args.r, args.eps, budget)
    if report.certificate is None:
        payload = serialization.envelope("folner_search_empty", space, None, {
            "best_ratio": str(report.best_ratio) if report.best_ratio is not None else None,
            "candidates_tested": report.candidates_tested,
        })
        return CommandResult("infeasible", payload, "no certificate within budget")
    payload = serialization.folner_to_payload(report.certificate)
    payload["candidates_tested"] = report.candidates_tested
    return CommandResult(
        "pass", payload, f"|F| = {len(report.certificate.F)}, ratio {report.certificate.ratio}"
    )


def _cmd_paradox(args):
    space = make_space(_load_json(args.space))
    if space.kind != "free_group":
        raise MalformedSpec("paradox expects a free_group space")
    p = amenability.paradox_free_group(space.rank)
    w = ball(space, space.origin(), args.window_radius)
    report = amenability.verify_paradox(p, w)
    return _checked(serialization.paradox_to_payload(p, w), report,
                    f"rule on B_{args.window_radius}(e): {'ok' if report.passed else 'FAILED'}")


def _cmd_matching(args):
    _, w = _space_window(args)
    outcome = amenability.matching_certificate(w, args.r)
    if outcome.feasible:
        payload = serialization.doubling_to_payload(outcome.doubling)
        payload["flow_value"] = outcome.flow_value
        return CommandResult("pass", payload, f"doubling with flow {outcome.flow_value}")
    return CommandResult(
        "infeasible",
        serialization.matching_cut_to_payload(w, args.r, outcome),
        f"infeasible: |N({len(outcome.cut)} pts)| = {outcome.cut_neighborhood_size} < {2 * len(outcome.cut)}",
    )


def _cmd_op(args):
    space, w = _space_window(args)
    a = _load_operator(w, args.a)
    if args.action == "norm":
        est = operators.op_norm_detailed(a)
        payload = serialization.envelope(
            "norm_estimate",
            space,
            w,
            {"value": est.value, "converged": est.converged, "method": est.method},
        )
        return CommandResult("pass", payload, f"norm {est.value:.12g}")
    if args.action in ("add", "mul", "adjoint"):
        if args.action == "adjoint":
            c = a.adjoint()
        elif not args.b:
            raise MalformedSpec(f"op --action {args.action} needs --b")
        else:
            b = _load_operator(w, args.b)
            c = a.add(b) if args.action == "add" else a.mul(b)
        payload = serialization.operator_to_payload(c)
        payload["propagation"] = c.propagation
        return CommandResult("pass", payload, "adjoint computed" if args.action == "adjoint"
                             else f"result propagation {c.propagation}")
    kind = "projection" if args.action == "quasi-projection" else "unitary"
    if args.r is None:
        raise MalformedSpec("quasi checks need --r")
    report = operators.quasi_check(a, kind, args.r, eps=args.eps)
    payload = serialization.envelope("quasi_report", space, w, report.to_json())
    return _verdict(report.passed, payload, f"quasi-{kind}: {'ok' if report.passed else 'FAILED'}")


def _cmd_af_approx(args):
    _, w = _space_window(args)
    a = _load_operator(w, args.a)
    approx = operators.af_approximate(a, args.r, args.eps)
    payload = serialization.envelope("af_approximation", w.space, w, {
        **approx.b.to_json(), "coloring": approx.coloring.to_json(), "error": approx.error,
        "epsilon": approx.epsilon})
    return _verdict(approx.error < args.eps, payload,
                    f"{approx.coloring.n_colors} colors, error {approx.error:.6g} < {args.eps}")


def _cmd_mv_split(args):
    space, w = _space_window(args)
    a = _load_operator(w, args.a)
    cover = serialization.cover_from_payload(_load_json(args.cover))
    omega = operators.OmegaDecomposition(cover)
    b, c = operators.mv_split(a, omega)
    exact = b.add(c).equals(a, tol=0)
    rep_b = operators.omega_membership(b, omega, a.propagation, "I")
    rep_c = operators.omega_membership(c, omega, a.propagation, "J")
    payload = serialization.envelope(
        "mv_split",
        space,
        w,
        {
            "b": b.to_json(),
            "c": c.to_json(),
            "sum_exact": exact,
            "membership_I": rep_b.to_json(),
            "membership_J": rep_c.to_json(),
        },
    )
    ok = exact and rep_b.passed and rep_c.passed
    return _verdict(ok, payload, "split exact" if ok else "split FAILED")


def _cmd_classify(args):
    space, w = _space_window(args)
    target = make_space(_load_json(args.target_space))
    pairs = serialization.payload_field(
        _load_json(args.map), "pairs", list, f"{args.map}: a map file needs a 'pairs' list")
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
        raise MalformedSpec(f"{args.map}: each map pair is a list [source, target]")
    f = maps.CoarseMap(w, target, pairs)
    tw = None
    if args.target_window_radius is not None:
        tw = ball(target, target.origin(), args.target_window_radius)
    cls = maps.classify(f, target_window=tw, c=args.c)
    payload = serialization.envelope("map_classification", space, w, cls.to_json())
    return CommandResult("pass", payload, "classification computed")


def _cmd_verify(args):
    data = _load_json(args.file)
    ok, report = serialization.verify_payload(data)
    payload = serialization.envelope("verification_report", body={"verified_kind": data.get("kind"), "report": report})
    return _verdict(ok, payload, f"{data.get('kind')}: {'ok' if ok else 'FAILED'}")


_HANDLERS = {
    "space": _cmd_space,
    "components": _cmd_components,
    "segments": _cmd_segments,
    "asdim": _cmd_asdim,
    "folner": _cmd_folner,
    "paradox": _cmd_paradox,
    "matching": _cmd_matching,
    "op": _cmd_op,
    "af-approx": _cmd_af_approx,
    "mv-split": _cmd_mv_split,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
}


def run(argv) -> CommandResult:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after printing --help, 2 on a parse failure
        if exc.code == 0:
            return CommandResult("pass")
        return CommandResult("error", {}, "argument parsing failed")
    try:
        result = _HANDLERS[args.command](args)
    except Infeasible as exc:
        return CommandResult("infeasible", serialization.envelope("infeasible", body={"reason": str(exc)}), str(exc))
    except CoarseKitError as exc:
        name = type(exc).__name__
        return CommandResult("error", serialization.envelope("error", body={"error": name, "reason": str(exc)}),
                             f"{name}: {exc}")
    if args.out and result.payload:
        with open(args.out, "w") as fh:
            fh.write(serialization.canonical_dumps(result.payload))
    return result


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.payload:
        sys.stdout.write(serialization.canonical_dumps(result.payload))
    if result.summary:
        print(result.summary, file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
