"""Traced CLI invocation: ``casimir_cyl.cli.main`` under the outside tracer.

    BENCH_SPAWN_T=<perf_counter at spawn> python3 bench/cli_shim.py TRACE_OUT ARGS...

Start-up (interpreter plus ``casimir_cyl.cli`` import) is measured against the
parent's monotonic clock reading at spawn; spans and counts are written to
TRACE_OUT when ``main`` returns.
"""
import os
import sys
import time

from casimir_cyl import cli

startup_s = time.perf_counter() - float(os.environ["BENCH_SPAWN_T"])

from tracer import Tracer  # noqa: E402  (this script's directory is on sys.path)

tracer = Tracer()
tracer.install()
try:
    code = cli.main(sys.argv[2:])
finally:
    tracer.remove()
    tracer.dump(sys.argv[1], extra={"startup_s": startup_s})
sys.exit(code)
