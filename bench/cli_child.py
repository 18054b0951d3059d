"""One ``cuspidal`` command in a fresh interpreter, traced (cli_cold, --trace 1).

Usage: python bench/cli_child.py TRACE_PATH SPAWN_TIME ARGS...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process; on Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so the span ``startup.interpreter`` covers interpreter start-up up
to this script's first line.  The script then times ``import cuspidal.cli``
as ``startup.import``, installs the tracer, runs ``cuspidal.cli.run(ARGS)``
and writes the spans, self times and counts to TRACE_PATH at exit.
``cuspidal`` is found through PYTHONPATH.
"""

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_path, spawn, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.active = True
    tracer.open("startup.interpreter", start=spawn)
    tracer.close(end=START)
    tracer.open("startup.import")
    import cuspidal.cli
    tracer.close()
    tracer.install()
    try:
        code = cuspidal.cli.run(argv)
    finally:
        tracer.active = False
        tracer.uninstall()
        self_time, counts = tracer.take()
        doc = tracer.to_doc()
        doc.update(self_time=self_time, counts=counts, op_inclusive=tracer.take_inclusive())
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
