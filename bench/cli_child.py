"""Run one coarsekit command with spans around the calls the CLI makes into the
library, for the traced runs of the ``cli_roundtrip`` workload.

    python3 bench/cli_child.py SPANS_OUT SPAWN_TIME ARGS...

Behaves like the ``coarsekit`` command (same stdout, stderr and exit code) and
also writes to SPANS_OUT the interpreter start time (from SPAWN_TIME, the
parent's ``time.time()`` just before it started this process), the time to
import ``coarsekit.cli`` and the spans.
"""

import time

entered = time.time()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

t0 = time.perf_counter()
import coarsekit.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0

from spans import Tracer  # noqa: E402


class _Traced:
    """A module whose functions are called under spans."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        obj = getattr(self._module, name)
        if inspect.isfunction(obj):
            return functools.partial(self._tracer.call, obj)
        return obj


def main():
    spans_out, spawn = sys.argv[1], float(sys.argv[2])
    tracer = Tracer()
    for name in ("amenability", "components", "covers", "maps", "operators", "serialization"):
        setattr(cli, name, _Traced(getattr(cli, name), tracer))
    for name in ("ball", "bounded_geometry_profile", "make_space", "verify_metric",
                 "window_from_json"):
        setattr(cli, name, functools.partial(tracer.call, getattr(cli, name)))
    tracer.enabled = True
    code = tracer.call(cli.main, sys.argv[3:])
    with open(spans_out, "w") as fh:
        json.dump({"python_start_s": entered - spawn, "import_s": import_s,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
