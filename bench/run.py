"""coarsekit benchmark: closed-loop workloads with one client, checked outputs.

    python3 bench/run.py --workload amenable --seed 1 --seconds 35 --trace 0

Workloads: ``amenable`` and ``nonamenable`` run in-process jobs; ``cli_roundtrip``
runs one ``coarsekit`` process at a time.  The next job starts when the last
one returns.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics; with ``--trace 1`` each job runs once untraced and once
traced, and the metrics are the per-layer figures taken from the spans.  The
lines before it are a readable summary.  Spans and the full record go to
``.bench_out/`` at the root of the checkout.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # inherited by every child process too

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

import spans  # noqa: E402
from cli_workload import SUBCOMMANDS, CliRoundtrip  # noqa: E402

WORKLOADS = ("amenable", "nonamenable", "cli_roundtrip")
TAIL_LADDER = (50, 60, 90, 99, 99.9)
SETUP_REPEATS = 5
GENERATED_ROUNDS = 4  # distinct seeded rounds; later rounds reuse them in turn


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="smallest rung only, one round")
    return p.parse_args(argv)


class InProcess:
    """Rounds of in-process jobs: every kind at every rung, in seeded order."""

    whole_rounds = True  # job costs differ by 100x; a cut round would skew the mix

    def __init__(self, kinds, seed, smoke):
        self.kinds = kinds
        self.seed = seed
        self.smoke = smoke

    def setup(self):
        rng = random.Random(self.seed)
        self.rounds = []
        for _ in range(1 if self.smoke else GENERATED_ROUNDS):
            jobs = [(f"{k.name}@{rung}", k, k.gen(rng, rung))
                    for k in self.kinds for rung in self._ladder(k)]
            rng.shuffle(jobs)
            self.rounds.append(jobs)
        # warm-up: lazy imports and first-call costs (the first dense 2-norm
        # is ~20x slower than the next), paid before the first timed job
        wrng = random.Random(~self.seed)
        for k in self.kinds:
            k.run(spans.Tracer(), k.gen(wrng, k.ladder[0]))

    def _ladder(self, k):
        return k.ladder[:1] if self.smoke else k.ladder

    def round_jobs(self, i):
        return [(label, _bind(k.run, params)) for label, k, params in self.rounds[i % len(self.rounds)]]

    def probes(self):
        return []

    def close(self):
        pass


def _bind(run, params):
    return lambda t: run(t, params)


def tail(latencies):
    """(percentile, value at it, mean of the jobs at or beyond it) for the highest
    ladder percentile with >= 10 jobs beyond it.

    The job kinds differ in cost by 100x, so one order statistic can sit in the
    gap between two kinds and jump between runs of the same code; the mean of
    the jobs beyond it is the steadier tail figure."""
    n = len(latencies)
    pct = max((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), default=TAIL_LADDER[0])
    if n < 2:
        value = latencies[0] if latencies else 0.0
        return pct, value, value
    value = statistics.quantiles(latencies, n=1000, method="inclusive")[round(pct * 10) - 1]
    return pct, value, statistics.fmean(x for x in latencies if x >= value)


def closed_loop(wl, seconds, traced, tracer, whole_rounds):
    """Run jobs one after another until ``seconds`` have passed.

    With ``whole_rounds`` the round in progress is finished, so that every run
    sees whole rounds of the same job mix.  Returns the per-job records."""
    records = []
    start = perf_counter()
    i = 0
    while True:
        for label, fn in wl.round_jobs(i):
            jid = len(records)
            rec = {"job": jid, "kind": label, "round": i, "ok": True, "error": None}
            order = ((False, True) if jid % 2 == 0 else (True, False)) if traced else (False,)
            for enabled in order:
                tracer.enabled, tracer.job = enabled, jid
                t0 = perf_counter()
                try:
                    probe = (tracer.span(f"job.{label}", (None, None), fn, tracer) if enabled
                             else fn(tracer))
                except Exception as exc:  # a job that raises counts as failed
                    rec["ok"], rec["error"], probe = False, f"{type(exc).__name__}: {exc}", None
                rec["traced_s" if enabled else "s"] = perf_counter() - t0
                if enabled and probe is not None:
                    tracer.job = f"probe{jid}"
                    tracer.probe(*probe)
            tracer.enabled = False
            records.append(rec)
            if not whole_rounds and perf_counter() - start >= seconds:
                break
        i += 1
        if perf_counter() - start >= seconds:
            break
    return records, perf_counter() - start


def end_to_end(records, elapsed, setup_s):
    """End-to-end values, timed on the untraced executions; the tail percentile and
    the latency at it."""
    lat = [r["s"] for r in records]
    pct, at_pct, beyond = tail(lat)
    return {
        "jobs_per_s": sum(r["ok"] for r in records) / elapsed,
        "job_p50_ms": statistics.median(lat) * 1000,
        "job_tail_ms": beyond * 1000,
        "setup_s": setup_s,
    }, pct, at_pct * 1000


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def layer_figures(wl, records, tracer):
    traced = [r for r in records if "traced_s" in r]
    probe_jobs = {s["job"] for s in tracer.spans if isinstance(s["job"], str)}
    out = spans.layer_metrics(tracer.spans, len(traced), probe_jobs)
    t_sum = sum(r["traced_s"] for r in traced)
    u_sum = sum(r["s"] for r in traced)
    out["trace.overhead"] = t_sum / u_sum if u_sum else 0.0
    cli = isinstance(wl, CliRoundtrip)
    stats = wl.child_stats if cli else []
    out["cli.python_start_s"] = statistics.median(s[0] for s in stats) if stats else 0.0
    out["cli.import_s"] = statistics.median(s[1] for s in stats) if stats else 0.0
    for sub in SUBCOMMANDS:
        lat = [r["s"] for r in records if cli and r["kind"] == sub]
        out[f"cli.{sub}_ms"] = statistics.median(lat) * 1000 if lat else 0.0
    out["cli.stdout_bytes"] = statistics.fmean(wl.stdout_bytes) if cli and wl.stdout_bytes else 0.0
    return out


def environment():
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "coarsekit")):
        print(f"coarsekit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "cli_roundtrip":
        wl = CliRoundtrip(ROOT, args.seed, args.smoke)
    else:
        import inproc  # imports coarsekit, numpy and scipy: part of set-up

        wl = InProcess(inproc.WORKLOADS[args.workload], args.seed, args.smoke)
    import_s = perf_counter() - T_START

    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            wl.setup()
            setups.append(perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        tracer = spans.Tracer()
        # a traced or smoke run covers every job kind, so it ends on a whole round
        whole_rounds = wl.whole_rounds or args.smoke or args.trace == 1
        seconds = 0.0 if args.smoke else args.seconds
        records, elapsed = closed_loop(wl, seconds, args.trace == 1, tracer, whole_rounds)
        probes = wl.probes()
    finally:
        wl.close()

    failures = [r for r in records if not r["ok"]]
    values, pct, at_pct_ms = end_to_end(records, elapsed, setup_s)
    values["peak_rss_mb"] = peak_rss_mb(args.workload == "cli_roundtrip")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    e2e = {m["name"]: (values[m["name"]], m["unit"]) for m in declared["end_to_end"]}
    failed_probes = [p for p in probes if not p["passed"]]
    attempted_all = len(records) + len(probes)
    failed_frac = (len(failures) + len(failed_probes)) / attempted_all

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        layers = layer_figures(wl, records, tracer)
        metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in declared["per_layer"]}
        tracer.write_jsonl(os.path.join(out_dir, f"{stem}.spans.jsonl"))
    else:
        metrics = e2e
    env = environment()
    usage = [resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    env["cpu_per_wall"] = round(sum(u.ru_utime + u.ru_stime for u in usage)
                                / (perf_counter() - T_START), 3)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "elapsed_s": elapsed,
        "jobs": len(records), "tail_percentile": pct,
        "tail_percentile_ms": at_pct_ms, "failed_frac": failed_frac,
        "failures": [{"kind": r["kind"], "error": r["error"]} for r in failures],
        "jobs_s": [[r["kind"], r["s"]] for r in records],
        "known_defect_probes": probes,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(out_dir, f"{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  {len(records)} jobs in {elapsed:.1f} s  "
          f"closed loop, 1 client")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in e2e.items():
        print(f"  {name:14s} {value:12.4f} {unit}")
    print(f"  {'failed_frac':14s} {failed_frac:12.4f} ratio  "
          f"({len(failures)} of {len(records)} jobs, {len(failed_probes)} of {len(probes)} probes)")
    beyond = sum(r["s"] * 1000 >= at_pct_ms for r in records)
    print(f"  job_tail_ms is the mean of the {beyond} jobs at or beyond p{pct:g} "
          f"(p{pct:g} = {at_pct_ms:.4f} ms) of {len(records)} jobs")
    rounds = {}
    for r in records:
        rounds[r["round"]] = rounds.get(r["round"], 0.0) + r["s"]
    print("  busy seconds per round: " + " ".join(f"{v:.2f}" for v in rounds.values()))
    for r in failures[:20]:
        print(f"  FAILED job {r['kind']}: {r['error']}")
    for p in probes:
        state = "ok" if p["passed"] else "KNOWN DEFECT"
        print(f"  probe {p['name']}: exit {p['exit']} (contract {p['expect']})"
              f"{', traceback' if p['traceback'] else ''}  {state}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
