"""The ``cli_roundtrip`` workload: one ``coarsekit`` process at a time.

Set-up writes every input as a file.  A round runs each subcommand once, at a
rung of its size ladder that moves with the round, and re-verifies each emitted
certificate with ``verify --file``.  Every job checks its contract exit code and
its payload; a seeded sample is rerun and must print the same bytes.  After the
timed loop the known-defect probes run once each and are reported by name.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Optional

from checks import CheckFailed, fg_ball_size, need

SUBCOMMANDS = ("space", "components", "segments", "asdim", "folner", "paradox", "matching",
               "op", "af-approx", "mv-split", "classify", "verify")

# The `coarsekit` console script, without needing an installed package.
MAIN = "import sys; from coarsekit.cli import main; sys.exit(main())"

SPECS = {
    "z": {"kind": "grid", "dim": 1},
    "z2": {"kind": "grid", "dim": 2},
    "fg2": {"kind": "free_group", "rank": 2},
    "tree3": {"kind": "tree", "branching": 3},
}

# Malformed or forged inputs with the exit code the CLI contract requires
# (3 = malformed input, 1 = verification failed).
PROBES = (
    ("payload_without_space", 3, ["verify", "--file", "{nospace}"]),
    ("eps_not_a_number", 3, ["folner", "--space", "{z}", "--r", "1", "--eps", "abc"]),
    ("center_not_json", 3, ["components", "--space", "{z}", "--r", "1", "--window-radius", "3",
                            "--center", "[0"]),
    ("budget_not_a_number", 3, ["folner", "--space", "{z}", "--r", "1", "--eps", "1/10",
                                "--budget", "balls:x"]),
    ("forged_empty_paradox", 1, ["verify", "--file", "{forged}"]),
    ("operator_without_entries", 3, ["op", "--space", "{z}", "--window-radius", "3",
                                     "--a", "{noentries}", "--action", "norm"]),
)


@dataclass
class Invocation:
    sub: str                      # subcommand, for the per-subcommand figures
    argv: list
    expect: int                   # contract exit code
    out: Optional[str] = None     # certificate written with --out, then re-verified
    check: Optional[Callable] = None  # (payload dict) -> None, raises CheckFailed


def _write(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def _line_cover_payload(center, radius, r):
    """The two-colour interval cover of a window of Z (period 4r, pieces of 2r)."""
    fams = ({}, {})
    for x in range(center - radius, center + radius + 1):
        k, u = divmod(x, 4 * r)
        fams[0 if u < 2 * r else 1].setdefault(k, []).append([x])
    return {"schema": "coarsekit/1", "kind": "colored_cover", "space": SPECS["z"],
            "window": {"ball": {"center": [center], "radius": radius}}, "r": r,
            "bound": 2 * r - 1, "colors": [[f[k] for k in sorted(f)] for f in fams]}


class CliRoundtrip:
    whole_rounds = False  # every job costs about one interpreter start

    def __init__(self, root, seed, smoke):
        self.root = root
        self.seed = seed
        self.rungs = 1 if smoke else 3
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.child = os.path.join(root, "bench", "cli_child.py")
        self.dir = None
        self.child_stats = []  # (python_start_s, import_s) per traced process
        self.stdout_bytes = []  # per checked invocation
        self.printed = {}  # argv -> stdout of its last run, for the rerun check

    # -- set-up ----------------------------------------------------------------

    def setup(self):
        work = os.path.join(self.root, ".bench_work")
        os.makedirs(work, exist_ok=True)
        if self.dir:
            shutil.rmtree(self.dir, ignore_errors=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=work)
        rng = random.Random(self.seed)
        d = self.dir
        f = {name: _write(os.path.join(d, f"{name}.json"), spec) for name, spec in SPECS.items()}
        f["nospace"] = _write(os.path.join(d, "nospace.json"), {
            "schema": "coarsekit/1", "kind": "colored_cover",
            "window": {"ball": {"center": [0], "radius": 4}}, "r": 1, "bound": 1,
            "colors": [[[[x], [x + 1]] for x in range(-4, 4, 4)]]})
        f["forged"] = _write(os.path.join(d, "forged.json"), {
            "schema": "coarsekit/1", "kind": "paradox_window", "space": SPECS["fg2"],
            "window": {"ball": {"center": "", "radius": 3}}, "displacement": 1, "carrier": [],
            "plus": [], "minus": [], "t_plus": [], "t_minus": [], "tag": ""})
        f["noentries"] = _write(os.path.join(d, "noentries.json"), {})
        self.files = f
        self.rung_inputs = [self._write_rung(rng, k) for k in range(self.rungs)]
        self.offsets = {name: rng.randrange(3) for name in self._case_names()}

    def _write_rung(self, rng, k):
        d, s = self.dir, 2 ** k
        out = {"k": k, "c": rng.randint(-10**5, 10**5)}
        c = out["c"]
        # operators on Z[c - R, c + R]: banded, diagonal 0.9, diagonal phases
        R = 50 * s
        out["op_R"] = R
        xs = range(c - R, c + R + 1)

        def banded(width):
            return {"entries": [[[x], [y], round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6)]
                                for x in xs for y in range(x - width, x + width + 1)
                                if c - R <= y <= c + R and rng.random() < 0.5]}

        out["a"] = _write(os.path.join(d, f"a{k}.json"), banded(2))
        out["b"] = _write(os.path.join(d, f"b{k}.json"), banded(1))
        out["diag"] = _write(os.path.join(d, f"diag{k}.json"),
                             {"entries": [[[x], [x], 0.9, 0] for x in xs]})
        phases = [rng.uniform(0, 2 * math.pi) for _ in xs]
        out["phase"] = _write(os.path.join(d, f"phase{k}.json"), {"entries": [
            [[x], [x], math.cos(t), math.sin(t)] for x, t in zip(xs, phases)]})
        # block-diagonal operator on a union of short point lines
        sizes = []
        while sum(sizes) < 64 * s:
            sizes.append(rng.randint(1, 4))
        out["du"] = _write(os.path.join(d, f"du{k}.json"), {
            "kind": "disjoint_union",
            "blocks": [{"kind": "point_line", "coords": list(range(m))} for m in sizes],
            "gaps": [10] * (len(sizes) - 1)})
        out["du_a"] = _write(os.path.join(d, f"du_a{k}.json"), {"entries": [
            [[b, x], [b, y], round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(-0.5, 0.5), 6)]
            for b, m in enumerate(sizes) for x in range(m) for y in range(m)
            if abs(x - y) <= 2 and rng.random() < 0.5]})
        # an integer operator of propagation 3 and the line cover it is split along
        mvR = 25 * s
        out["mv_R"] = mvR
        out["mv_a"] = _write(os.path.join(d, f"mv_a{k}.json"), {"entries": [
            [[x], [y], rng.choice([-2, -1, 1, 2]), 0]
            for x in range(c - mvR, c + mvR + 1)
            for y in range(max(x - 3, c - mvR), min(x + 3, c + mvR) + 1) if rng.random() < 0.5]})
        out["mv_cover"] = _write(os.path.join(d, f"mv_cover{k}.json"), _line_cover_payload(c, mvR, 5))
        # a monotone map of Z with steps 1..3, bi-Lipschitz with constant max(step)
        mapR = 25 * s
        steps = [rng.randint(1, 3) for _ in range(2 * mapR)]
        ys = [0]
        for st in steps:
            ys.append(ys[-1] + st)
        out["map_R"], out["map_L"] = mapR, max(steps)
        out["map"] = _write(os.path.join(d, f"map{k}.json"),
                            {"pairs": [[[c - mapR + i], [y]] for i, y in enumerate(ys)]})
        return out

    # -- rounds ----------------------------------------------------------------

    def _case_names(self):
        return [name for name, _ in self._cases(self.rung_inputs[0], random.Random(0))]

    def _cases(self, g, rng):
        """(name, [invocation, follow-ups...]) for one rung's inputs."""
        f, k, s, c = self.files, g["k"], 2 ** g["k"], g["c"]
        cz = json.dumps([c])
        cert = os.path.join(self.dir, "cert-{}.json")

        def certified(sub, argv, expect=0, check=None, name=None):
            path = cert.format(name or sub)
            return [Invocation(sub, argv + ["--out", path], expect, path, check),
                    Invocation("verify", ["verify", "--file", path], 0, None, _verified)]

        R_fg = 3 + k
        radii = [50 * s, 100 * s, 200 * s]
        yield "space", [Invocation("space", ["space", "--space", f["z2"], "--window-radius",
                                             str(12 * s), "--r", "1"], 0)]
        yield "components", certified("components", [
            "components", "--space", f["fg2"], "--window-radius", str(R_fg), "--r", "2"])
        yield "components_profile", [Invocation("components", [
            "components", "--space", f["z"], "--r", "1", "--profile-radii", ",".join(map(str, radii))],
            0, None, _expect(profile=[2 * x + 1 for x in radii], tag="growing"))]
        yield "segments", certified("segments", [
            "segments", "--space", f["z"], "--r", "1", "--count", "4", "--budget-radius", str(100 * s)])
        line = certified("asdim", ["asdim", "witness", "--construction", "line", "--space", f["z"],
                                   "--window-radius", str(250 * s), "--center", cz,
                                   "--r", str(rng.randint(1, 4))], name="line")
        line.append(Invocation("asdim", ["asdim", "verify", "--cover", line[0].out], 0, None, _verified))
        yield "asdim_line", line
        yield "asdim_tree", certified("asdim", [
            "asdim", "witness", "--construction", "tree", "--space", f["tree3"],
            "--window-radius", str(3 + k), "--r", str(rng.randint(1, 2))], name="tree")
        yield "asdim_greedy", certified("asdim", [
            "asdim", "greedy", "--space", f["z"], "--window-radius", str(50 * s), "--center", cz,
            "--r", "1", "--d", "1", "--bound", "6"], name="greedy")
        yield "folner", certified("folner", [
            "folner", "--space", f["z2"], "--r", "1", "--eps", f"1/{5 * s}"])
        yield "paradox", certified("paradox", [
            "paradox", "--space", f["fg2"], "--window-radius", str(R_fg)])
        yield "matching_doubling", certified("matching", [
            "matching", "--space", f["fg2"], "--window-radius", str(R_fg), "--r", "1"],
            check=_expect(flow_value=2 * fg_ball_size(2, R_fg - 1)), name="doubling")
        yield "matching_cut", certified("matching", [
            "matching", "--space", f["z"], "--window-radius", str(50 * s), "--center", cz,
            "--r", "1"], expect=2, name="cut")
        win = ["--window-radius", str(g["op_R"]), "--center", cz]
        for action, a, b in (("norm", "a", None), ("add", "a", "b"), ("mul", "a", "b"),
                             ("adjoint", "a", None), ("quasi-projection", "diag", None),
                             ("quasi-unitary", "phase", None)):
            argv = ["op", "--space", f["z"], *win, "--a", g[a], "--action", action]
            argv += ["--b", g[b]] if b else []
            argv += ["--r", "0"] if action.startswith("quasi") else []
            yield f"op_{action}", [Invocation("op", argv, 0)]
        yield "af-approx", [Invocation("af-approx", [
            "af-approx", "--space", g["du"], "--a", g["du_a"], "--r", "2",
            "--eps", str(rng.choice([0.3, 0.1]))], 0)]
        yield "mv-split", [Invocation("mv-split", [
            "mv-split", "--space", f["z"], "--window-radius", str(g["mv_R"]), "--center", cz,
            "--a", g["mv_a"], "--cover", g["mv_cover"]], 0, None, _expect(sum_exact=True))]
        yield "classify", [Invocation("classify", [
            "classify", "--space", f["z"], "--window-radius", str(g["map_R"]), "--center", cz,
            "--map", g["map"], "--target-space", f["z"]], 0, None,
            _expect(bi_lipschitz=True, injective=True, lipschitz_constant=g["map_L"]))]

    def round_jobs(self, i):
        rng = random.Random(f"{self.seed}:{i}")
        by_rung = [dict(self._cases(g, rng)) for g in self.rung_inputs]
        groups = [by_rung[(off + i) % self.rungs][name] for name, off in self.offsets.items()]
        rng.shuffle(groups)
        jobs = []
        for group in groups:
            jobs += [(inv.sub, self._job(inv)) for inv in group]
            if rng.random() < 0.15:  # run again; must print the same bytes
                jobs.append((group[0].sub, self._job(group[0], rerun=True)))
        return jobs

    # -- running ---------------------------------------------------------------

    def _run(self, t, argv):
        if not t.enabled:
            proc = subprocess.run([sys.executable, "-c", MAIN, *argv], env=self.env,
                                  capture_output=True, timeout=120)
            return proc
        spans = os.path.join(self.dir, "spans.json")
        proc = subprocess.run([sys.executable, self.child, spans, repr(time.time()), *argv],
                              env=self.env, capture_output=True, timeout=120)
        with open(spans) as fh:
            data = json.load(fh)
        self.child_stats.append((data["python_start_s"], data["import_s"]))
        t.adopt(data["spans"], t.current())
        return proc

    def _job(self, inv, rerun=False):
        def job(t):
            proc = self._run(t, inv.argv)
            need(proc.returncode == inv.expect,
                 f"{' '.join(inv.argv[:2])}: exit {proc.returncode}, contract says {inv.expect}")
            payload = json.loads(proc.stdout)
            need(payload.get("schema") == "coarsekit/1", "payload schema")
            if inv.check:
                inv.check(payload)
            key = tuple(inv.argv)
            if rerun:
                need(proc.stdout == self.printed[key], f"{inv.sub}: rerun printed different bytes")
            self.printed[key] = proc.stdout
            self.stdout_bytes.append(len(proc.stdout))
            return None
        return job

    def probes(self):
        """Run each known-defect input once; report exit code and traceback."""
        out = []
        for name, expect, argv in PROBES:
            argv = [a.format(**self.files) for a in argv]
            proc = subprocess.run([sys.executable, "-c", MAIN, *argv], env=self.env,
                                  capture_output=True, timeout=120)
            traceback = b"Traceback" in proc.stderr
            out.append({"name": name, "expect": expect, "exit": proc.returncode,
                        "traceback": traceback,
                        "passed": proc.returncode == expect and not traceback})
        return out

    def close(self):
        if self.dir:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


def _verified(payload):
    need(payload.get("kind") == "verification_report", "verify prints a report")


def _expect(**fields):
    def check(payload):
        for key, want in fields.items():
            if payload.get(key) != want:
                raise CheckFailed(f"{key} = {payload.get(key)!r}, expected {want!r}")
    return check
