"""Time one workload's set-up in a fresh interpreter; prints seconds.

    python3 bench/setup_probe.py WORKLOAD    (cwd: the workload's work dir)

Measured: importing ``casimir_cyl``, building the workload's material models
(including the ``OpticalTable`` node build) and filling the lazy zeta tables.
Interpreter start-up is not included.
"""
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402  (standard library only)

workload = sys.argv[1]
t0 = time.perf_counter()
import casimir_cyl as cc  # noqa: E402

if workload == "cli_batch":
    from casimir_cyl import cli  # noqa: E402
    cli.make_parser()
    cc.Tabulated(table=cc.load_optical_table(wl.OPTICAL_FILE),
                 tail=cc.Drude(wl.TAIL_OMEGA_P, wl.TAIL_GAMMA))
else:
    wl.build_models(cc, wl.workload_models(workload))
wl.fill_lazy_state(cc)
print(repr(time.perf_counter() - t0))
