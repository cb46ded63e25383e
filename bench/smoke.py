"""Smoke check of the benchmark itself: every workload at its smallest rung.

    python3 bench/smoke.py

Runs one round of each workload untraced and traced and asserts that the
result line holds every end-to-end and per-layer metric named in
BENCHMARK.json, with its unit, and that every job passed its check.  Also
checks that bench/expectations.json says for each per-layer metric which
end-to-end metric it should move, and on which workload.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "expectations.json")) as fh:
        expect = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    e2e_names = {m["name"] for m in bench["end_to_end"]}
    for name in (m["name"] for m in bench["per_layer"]):
        row = expect.get(name)
        assert row is not None, f"{name}: no entry in expectations.json"
        assert set(row["moves"]) <= e2e_names, f"{name}: moves an unknown metric"
        assert set(row["on"]) | set(row["not_on"]) <= set(workloads), f"{name}: unknown workload"

    for workload in workloads:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: {sorted(set(got) ^ set(want))}"
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), (k, v)
            print(f"ok  {workload:14s} trace {trace}  {result['attempted']} jobs, "
                  f"{len(got)} metrics")


if __name__ == "__main__":
    main()
